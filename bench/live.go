package main

import (
	"context"
	"fmt"
	"path/filepath"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"metronome/internal/apps"
	"metronome/internal/apps/flowatcher"
	"metronome/internal/apps/l3fwd"
	"metronome/internal/hrtimer"
	"metronome/internal/mbuf"
	"metronome/internal/packet"
	"metronome/internal/runtime"
	"metronome/internal/sched"
	"metronome/internal/stats"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// Common live set-up (see README.md for why each value is what it is).
const (
	ringCap   = 4096  // absorbs the host's 2-6 ms preemption stalls of the generator
	poolSize  = 16384 // rings + in-flight bursts + every cache's residency, with room
	frameSize = 64    // smallest frame: per-packet cost dominates
	nFlows    = 4096
	nFrames   = 1 << 16 // pregenerated frame sequence, replayed cyclically
	genBurst  = 32
	// A run's window is cut into sub-windows and every timing is reported
	// as the median over them, so a host hiccup that lands in one or two of
	// them (a preempted generator, a stolen vCPU) does not move the result.
	subWindows = 10
	// An open-loop generator that fell behind catches up no faster than
	// this (or the workload's own peak, if higher): a backlog dumped at
	// memory speed is an artifact of an in-process generator, overflows
	// the ring, and is not the traffic the workload describes.
	minCatchupPPS = 1e6
	maxWarmup     = time.Second
	drainLimit    = 5 * time.Second
)

// frame is one pregenerated packet and the RSS queue it hashes to.
type frame struct {
	b [frameSize]byte
	q uint8
}

// liveWorld is one complete deployment: generator-side pool and rings,
// the runner as metropcap and fig-apps deploy it (NewProc, nil emit, bus
// attached, GoSleeper, default VBar), and the benchmark's wrappers.
type liveWorld struct {
	wl     *workload
	seed   uint64
	pool   *mbuf.Pool
	rings  []runtime.RxRing
	bus    *telemetry.Bus
	meters []*meter
	runner *runtime.Runner
	frames []frame
	tr     *tracer // nil in the untraced run
	// winStart and subLen are written before measuring is set and only
	// read after it reads true.
	winStart, subLen int64
	measuring        atomic.Bool
}

func newForwarder() *l3fwd.Forwarder {
	f := l3fwd.New([]l3fwd.Port{
		{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, GwMAC: packet.MAC{2, 0, 0, 0, 1, 1}},
		{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, GwMAC: packet.MAC{2, 0, 0, 0, 1, 2}},
	})
	// 0.0.0.0/1 and 128.0.0.0/2 are routed, 192.0.0.0/2 is not: FrameGen's
	// uniform destinations forward 3 in 4 and take the NoRoute drop 1 in 4,
	// so both verdict paths run and the offline tally has two sides.
	for _, r := range []struct {
		a   packet.Addr
		len int
		hop uint16
	}{{0, 1, 0}, {packet.AddrFrom4(128, 0, 0, 0), 2, 1}} {
		if err := f.Table.Add(r.a, r.len, r.hop); err != nil {
			panic(err) // constants above are valid prefixes
		}
	}
	return f
}

// newProcs builds one fresh processor per queue for the workload's app.
func newProcs(wl *workload) []apps.BurstProcessor {
	if wl.app == "flowatcher" {
		return flowatcher.NewSharded(wl.queues).Procs()
	}
	out := make([]apps.BurstProcessor, wl.queues)
	for q := range out {
		out[q] = newForwarder()
	}
	return out
}

// genFrames derives the whole input from the seed: the flow set, the frame
// sequence and each frame's RSS queue, all before any timing starts.
func genFrames(seed uint64, queues int) []frame {
	gen := traffic.NewFrameGen(seed, nFlows, frameSize)
	rss := packet.NewToeplitz(packet.DefaultRSSKey)
	out := make([]frame, nFrames)
	for i := range out {
		b, k := gen.Next()
		copy(out[i].b[:], b)
		out[i].q = uint8(rss.QueueFor(k, queues))
	}
	return out
}

func setupLive(wl *workload, seed uint64, traced bool) *liveWorld {
	lw := &liveWorld{wl: wl, seed: seed}
	if traced {
		lw.tr = newTracer(wl.queues)
	}
	lw.frames = genFrames(seed, wl.queues)
	lw.pool = mbuf.NewPool(poolSize)
	lw.bus = telemetry.NewBus(wl.queues, wl.m)
	queues := make([]runtime.RxQueue, wl.queues)
	procs := make([]apps.BurstProcessor, wl.queues)
	for q, p := range newProcs(wl) {
		r, err := runtime.NewRxRing(ringCap, 1, 1)
		if err != nil {
			panic(err) // ringCap is a power of two
		}
		lw.rings = append(lw.rings, r)
		queues[q] = r
		if traced {
			queues[q] = tracedQueue{inner: r, q: q, tr: lw.tr}
		}
		m := &meter{BurstProcessor: p, q: q, lw: lw, tr: lw.tr}
		lw.meters = append(lw.meters, m)
		procs[q] = m
	}
	cfg := runtime.Config{M: wl.m, Policy: wl.policy, Bus: lw.bus, Seed: seed}
	if traced {
		cfg.Sleeper = tracedSleeper{inner: hrtimer.GoSleeper{}, tr: lw.tr}
	}
	lw.runner = runtime.NewProc(queues, procs, nil, cfg)
	return lw
}

// generator is the traffic source: one OS-thread-locked goroutine leasing
// from its own mempool cache. Open loop: packets leave on a precomputed
// schedule and are stamped with their DUE time, so a generator stall
// charges the packets it delayed. Closed loop: 32-bursts as fast as the
// ring takes them. Neither drops: a full ring or an empty pool is waited
// out, and in the open loop the wait shows as latency from the due time.
// (A host that steals the team's vCPU for longer than the ring holds would
// otherwise turn up as a few thousand tail drops in one run in twenty.)
type generator struct {
	lw    *liveWorld
	cache *mbuf.Cache
	stop  atomic.Bool

	// Written by the generator thread only; read after done is closed.
	next    uint64 // frames consumed from the sequence
	offered uint64
	perQ    [][]*mbuf.Mbuf
	late    stats.LogHistogram // now - due per packet, measured window
	marks   []genMark          // the window's sub-window edges, first to last
	// Trace-only sums (measured window).
	getNs, enqueueNs      int64
	getPkts, enqueuedPkts uint64
	fullRejects           uint64
	occupancyMax          int
	inWindow              bool
	done                  chan struct{}
}

// genMark is the state at one sub-window edge. The generator thread is the
// timekeeper: RUSAGE_THREAD can only be read by the thread it is about, and
// reading the process's CPU and the runner's packet count in the same
// breath makes the differences line up.
type genMark struct {
	ns              int64
	thread, process time.Duration
	offered         uint64
	polled          uint64 // Runner.Stats.Packets
}

func (g *generator) mark(now int64) {
	g.marks = append(g.marks, genMark{
		ns: now, thread: threadCPU(), process: processCPU(),
		offered: g.offered, polled: g.lw.runner.Stats.Packets.Load(),
	})
}

func (g *generator) run() {
	defer close(g.done)
	goruntime.LockOSThread()
	defer goruntime.UnlockOSThread()
	defer g.cache.Flush()
	defer pinGenerator()()

	wl := g.lw.wl
	g.perQ = make([][]*mbuf.Mbuf, wl.queues)
	for q := range g.perQ {
		g.perQ[q] = make([]*mbuf.Mbuf, 0, genBurst)
	}
	var dues [genBurst]int64
	bufs := make([]*mbuf.Mbuf, genBurst)

	// Schedule: `slots` packets `gap` apart at the head of every period.
	gap := int64(1e9 / wl.peakPPS)
	periods, slots := []int64{gap}, int64(1)
	if wl.period > 0 {
		periods = burstPeriods(g.lw.seed, wl.period)
		slots = int64(wl.on) / gap
	}
	catchupGap := int64(1e9 / max(wl.peakPPS, minCatchupPPS))
	base := mbuf.Nanotime() + int64(time.Millisecond)
	slot, burst := int64(0), 0
	nextDue, nextSend := base, base
	g.marks = make([]genMark, 0, subWindows+1)

	for !g.stop.Load() {
		now := mbuf.Nanotime()
		if !g.inWindow {
			if g.lw.measuring.Load() {
				g.inWindow = true
				g.mark(now)
			}
		} else if k := len(g.marks); k < subWindows && now >= g.lw.winStart+int64(k)*g.lw.subLen {
			g.mark(now)
		}
		if wl.closed {
			n := g.get(bufs)
			if n == 0 {
				continue // the consumers hold every buffer; spin until they recycle some
			}
			for i := range dues[:n] {
				dues[i] = now
			}
			g.emit(bufs[:n], dues[:n], now)
			continue
		}
		if now < nextDue || now < nextSend {
			continue // spin: this thread owns its core
		}
		n := 0
		for n < genBurst && nextDue <= now {
			dues[n] = nextDue
			n++
			if slot++; slot == slots {
				slot = 0
				base += periods[burst%len(periods)]
				burst++
			}
			nextDue = base + slot*gap
		}
		nextSend = now + int64(n)*catchupGap
		for got := 0; got < n; { // the pool outsizes rings + caches, so this is one pass
			got += g.get(bufs[got:n])
		}
		g.emit(bufs[:n], dues[:n], now)
	}
	g.mark(mbuf.Nanotime())
}

func (g *generator) tracing() bool { return g.lw.tr != nil && g.inWindow }

// get leases up to len(dst) buffers from the generator's cache.
func (g *generator) get(dst []*mbuf.Mbuf) int {
	if !g.tracing() {
		return g.cache.GetBurst(dst)
	}
	t0 := mbuf.Nanotime()
	n := g.cache.GetBurst(dst)
	t1 := mbuf.Nanotime()
	g.lw.tr.span(spanGet, -1, -1, t0, t1)
	g.getNs += t1 - t0
	g.getPkts += uint64(n)
	return n
}

// emit fills bufs with the next frames of the sequence and enqueues them
// on their RSS queues.
func (g *generator) emit(bufs []*mbuf.Mbuf, dues []int64, now int64) {
	frames := g.lw.frames
	for i, m := range bufs {
		f := &frames[g.next%nFrames]
		g.next++
		m.SetFrame(f.b[:])
		m.RxStampNs = dues[i]
		if g.inWindow && !g.lw.wl.closed {
			g.late.Record(uint64(now - dues[i]))
		}
		g.perQ[f.q] = append(g.perQ[f.q], m)
	}
	for q, batch := range g.perQ {
		if len(batch) > 0 {
			g.enqueue(q, batch)
			g.perQ[q] = batch[:0]
		}
	}
}

func (g *generator) enqueue(q int, batch []*mbuf.Mbuf) {
	ring := g.lw.rings[q]
	g.offered += uint64(len(batch))
	for len(batch) > 0 {
		var t0 int64
		if g.tracing() {
			t0 = mbuf.Nanotime()
		}
		k := ring.EnqueueBurst(batch)
		if g.tracing() {
			t1 := mbuf.Nanotime()
			g.lw.tr.span(spanEnqueue, q, -1, t0, t1)
			g.enqueueNs += t1 - t0
			g.enqueuedPkts += uint64(k)
			g.occupancyMax = max(g.occupancyMax, ring.Len())
		}
		batch = batch[k:]
		// Ring full: spin for room, on the generator's own core (a
		// Gosched from a locked thread hands its P to a thread on the
		// team's CPU and back, which costs the team more than the wait).
		// The runner outlives the generator, so this always ends, and
		// every frame consumed is a frame delivered.
		if k == 0 && g.inWindow {
			g.fullRejects++
		}
	}
}

// burstPeriods draws the on/off schedule's burst-to-burst intervals from
// the seed: uniform in [0.5, 1.5] x mean, rescaled so the cycle's mean is
// exact. A strictly periodic burst train phase-locks with the Go timer
// wheel's ~1 ms wake grid: each run then sits at one phase for its whole
// length and lat_p95_us comes out bimodal across runs (1.2 ms or 1.8 ms).
// Jittered starts sample every phase within one run.
func burstPeriods(seed uint64, mean time.Duration) []int64 {
	rng := xrand.New(xrand.SeedFrom(seed, 0xb0457))
	draws := make([]float64, 1024)
	var sum float64
	for i := range draws {
		draws[i] = rng.Uniform(0.5, 1.5)
		sum += draws[i]
	}
	out := make([]int64, len(draws))
	for i, d := range draws {
		out[i] = int64(d / sum * float64(len(draws)) * float64(mean))
	}
	return out
}

// counters is the runner- and bus-side state at one edge of the window.
type counters struct {
	tries, busyTries, cycles, pkts, bursts uint64
	busy                                   float64 // summed bus ThreadBusy seconds
	mallocs                                uint64
}

func (lw *liveWorld) snapshot() counters {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	s := &lw.runner.Stats
	c := counters{
		tries: s.Tries.Load(), busyTries: s.BusyTries.Load(), cycles: s.Cycles.Load(),
		pkts: s.Packets.Load(), bursts: s.Bursts.Load(), mallocs: ms.Mallocs,
	}
	for t := 0; t < lw.bus.Threads(); t++ {
		c.busy += lw.bus.ThreadBusy(t)
	}
	return c
}

// runOut is what one run (traced or not, live or simulated) measured.
type runOut struct {
	m                  metrics
	attempted, failed  uint64
	samples            uint64
	retrievalCPU, wall float64 // seconds
	checks             checkList
}

// runLive sets the workload up (several times, for a steady setup_s), runs
// it for `seconds` after a warm-up, drains, and derives every metric this
// kind of run can see.
func runLive(wl *workload, o options, traced bool) runOut {
	var checks checkList
	setups := 5
	if o.quick() {
		setups = 1
	}
	var lw *liveWorld
	var setupS []float64
	for i := 0; i < setups; i++ {
		lw = nil
		goruntime.GC() // the previous world is garbage; keep it out of this timing and of rss_mb
		t0 := time.Now()
		lw = setupLive(wl, o.seed, traced)
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() { defer close(runDone); lw.runner.Run(ctx) }()
	gen := &generator{lw: lw, cache: lw.pool.NewCache(), done: make(chan struct{})}
	go gen.run()

	window := time.Duration(o.seconds * float64(time.Second))
	time.Sleep(min(maxWarmup, window/10))
	c0 := lw.snapshot()
	lw.winStart, lw.subLen = mbuf.Nanotime(), max(int64(window)/subWindows, 1)
	if traced {
		lw.tr.on.Store(true)
	}
	lw.measuring.Store(true)
	time.Sleep(window)
	gen.stop.Store(true)
	c1 := lw.snapshot()
	var rho, ts float64
	for q := 0; q < wl.queues; q++ {
		rho += lw.runner.Rho(q) / float64(wl.queues)
		ts += lw.runner.TS(q).Seconds() / float64(wl.queues)
	}
	<-gen.done

	// Drain: the runner keeps serving until every offered packet has been
	// polled, then stops; Run returns once each retrieval goroutine has
	// finished its cycle and flushed its recycler.
	deadline := time.Now().Add(drainLimit)
	for lw.runner.Stats.Packets.Load() < gen.offered && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-runDone

	// Whole-window totals, from the generator's first and last marks.
	first, last := gen.marks[0], gen.marks[len(gen.marks)-1]
	wall := float64(last.ns-first.ns) / 1e9
	genCPU := (last.thread - first.thread).Seconds()
	retrCPU := (last.process - first.process).Seconds() - genCPU
	offered := last.offered - first.offered
	delivered := float64(last.polled - first.polled)

	// Per-sub-window timings; the medians are what is reported.
	var cpuPct, nsPerPkt, mpps, p50, p95 []float64
	for k := 1; k < len(gen.marks); k++ {
		a, b := gen.marks[k-1], gen.marks[k]
		dt := float64(b.ns-a.ns) / 1e9
		cpu := ((b.process - a.process) - (b.thread - a.thread)).Seconds()
		cpuPct = append(cpuPct, 100*cpu/dt)
		nsPerPkt = append(nsPerPkt, 1e9*ratio(cpu, float64(b.polled-a.polled)))
		mpps = append(mpps, float64(b.polled-a.polled)/dt/1e6)
	}
	var lat, busLat stats.LogHistogram
	for k := 0; k < subWindows; k++ {
		var sub stats.LogHistogram
		for _, m := range lw.meters {
			sub.Merge(&m.lat[k])
		}
		if sub.N() > 0 {
			p50 = append(p50, us(quantileNs(&sub, 0.50)))
			p95 = append(p95, us(quantileNs(&sub, 0.95)))
		}
		lat.Merge(&sub)
	}
	var meterPkts, total uint64
	var verdicts [3]uint64
	for q, m := range lw.meters {
		lw.bus.SampleLatency(q, &busLat)
		meterPkts += m.pkts
		total += m.total
		for v, n := range m.verdicts {
			verdicts[v] += n
		}
	}

	m := metrics{
		"setup_s":        median(setupS),
		"lat_p50_us":     median(p50),
		"lat_p95_us":     median(p95),
		"delivered_mpps": median(mpps),
		"loss_pct":       0, // the generator waits, never drops; see ring.full_rejects

		"generator.offered_pps":   float64(offered) / wall,
		"sched.rho_est":           rho,
		"sched.ts_us":             ts * 1e6,
		"runtime.tries":           float64(c1.tries - c0.tries),
		"runtime.busy_try_pct":    100 * ratio(float64(c1.busyTries-c0.busyTries), float64(c1.tries-c0.tries)),
		"runtime.cycles":          float64(c1.cycles - c0.cycles),
		"runtime.pkts_per_cycle":  ratio(float64(c1.pkts-c0.pkts), float64(c1.cycles-c0.cycles)),
		"runtime.pkts_per_burst":  ratio(float64(c1.pkts-c0.pkts), float64(c1.bursts-c0.bursts)),
		"runtime.duty_pct":        100 * (c1.busy - c0.busy) / wall,
		"runtime.allocs_per_mpkt": 1e6 * ratio(float64(c1.mallocs-c0.mallocs), delivered),
		"runtime.lat_p99_us":      us(quantileNs(&lat, 0.99)),
		"runtime.lat_p999_us":     us(quantileNs(&lat, 0.999)),
		"runtime.lat_max_us":      us(float64(lat.Max())),
		"ring.full_rejects":       float64(gen.fullRejects),
		"mbuf.pool_available_end": float64(lw.pool.Available()),
		"apps.forward":            float64(verdicts[apps.Forward]),
		"apps.consume":            float64(verdicts[apps.Consume]),
		"apps.drop":               float64(verdicts[apps.Drop]),
		"telemetry.hist_n":        float64(busLat.N()),
		"telemetry.p50_ratio":     ratio(float64(busLat.Quantile(0.5)), float64(lat.Quantile(0.5))),
	}
	if !wl.closed { // a closed loop has no schedule to be late for
		m["generator.late_p99_us"] = us(quantileNs(&gen.late, 0.99))
		m["generator.late_max_us"] = us(float64(gen.late.Max()))
	}
	_, fails := lw.pool.Stats()
	m["mbuf.pool_fails"] = float64(fails)
	if rusageAvailable {
		m["rss_mb"] = peakRSSMB()
		m["retrieval_cpu_pct"] = median(cpuPct)
		m["cpu_ns_per_pkt"] = median(nsPerPkt)
		m["generator.cpu_pct"] = 100 * genCPU / wall
		m["runtime.wake_cpu_us"] = 1e6 * ratio(retrCPU-(c1.busy-c0.busy), float64(c1.tries-c0.tries))
	}
	if traced {
		lw.tracedMetrics(m, gen, o)
		path := filepath.Join(o.out, fmt.Sprintf("%s.seed%d.trace.json", wl.name, o.seed))
		err := lw.tr.writeTrace(path)
		checks.add("trace_dump", err == nil, "%d spans kept of %d taken -> %s (err: %v)",
			min(lw.tr.next.Load(), maxRawSpans), lw.tr.next.Load(), path, err)
	}

	// Output correctness.
	checks.add("accounting", gen.offered == total,
		"offered %d == delivered %d (nothing is dropped)", gen.offered, total)
	checks.add("pool_balance", lw.pool.Available() == lw.pool.Size(),
		"pool available %d == size %d after every cache flushed", lw.pool.Available(), lw.pool.Size())
	// One bucket of slack on p50: the runner reads its clock a record-loop
	// earlier than the meter does, which can straddle a bucket edge. Smoke
	// runs get four: under -race that loop takes tens of microseconds.
	slack := 1
	if o.quick() {
		slack = 4
	}
	bi, mi := stats.LogBucketIndex(busLat.Quantile(0.5)), stats.LogBucketIndex(lat.Quantile(0.5))
	checks.add("telemetry_tie", busLat.N() == meterPkts && lat.N() == meterPkts && bi-mi <= slack && mi-bi <= slack,
		"bus histogram n %d == metered %d; p50 buckets %d vs %d (ratio %.4f)", busLat.N(), meterPkts, bi, mi, m["telemetry.p50_ratio"])
	want := offlineTally(wl, lw.frames, gen.offered)
	checks.add("apps_tally", want == verdicts,
		"drop/forward/consume %v == offline pass %v over the same %d frames", verdicts, want, gen.offered)
	return runOut{m: m, attempted: offered, failed: 0, samples: lat.N(),
		retrievalCPU: retrCPU, wall: wall, checks: checks}
}

// tracedMetrics adds what only the wrappers of the traced run can see.
func (lw *liveWorld) tracedMetrics(m metrics, gen *generator, o options) {
	tr := lw.tr
	var s queueTrace
	for i := range tr.qs {
		q := &tr.qs[i]
		s.pollNs += q.pollNs
		s.processNs += q.processNs
		s.recycleNs += q.recycleNs
		s.selfNs += q.selfNs
		s.polledPkts += q.polledPkts
		s.recycledPkts += q.recycledPkts
		s.emptyPolls += q.emptyPolls
	}
	sleep, cyc := tr.hist(int(spanSleep)), tr.hist(int(spanCycle))
	req, over, vac := tr.hist(histRequested), tr.hist(histOvershoot), tr.hist(histVacation)
	pkts := float64(s.polledPkts)

	m["hrtimer.sleeps"] = float64(sleep.N())
	m["hrtimer.requested_p50_us"] = us(quantileNs(req, 0.5))
	m["hrtimer.overshoot_p50_us"] = us(quantileNs(over, 0.5))
	m["hrtimer.overshoot_p99_us"] = us(quantileNs(over, 0.99))
	m["runtime.vacation_p50_us"] = us(quantileNs(vac, 0.5))
	m["runtime.vacation_p99_us"] = us(quantileNs(vac, 0.99))
	m["runtime.cycle_busy_p50_us"] = us(quantileNs(cyc, 0.5))
	m["runtime.self_ns_per_pkt"] = ratio(float64(s.selfNs), pkts)
	m["ring.poll_ns_per_pkt"] = ratio(float64(s.pollNs), pkts)
	m["ring.empty_polls"] = float64(s.emptyPolls)
	m["ring.enqueue_ns_per_pkt"] = ratio(float64(gen.enqueueNs), float64(gen.enqueuedPkts))
	m["ring.occupancy_max"] = float64(gen.occupancyMax)
	m["mbuf.get_ns_per_pkt"] = ratio(float64(gen.getNs), float64(gen.getPkts))
	m["mbuf.recycle_ns_per_pkt"] = ratio(float64(s.recycleNs), float64(s.recycledPkts))
	m["apps.process_ns_per_pkt"] = ratio(float64(s.processNs), pkts)
	m["sched.observe_ns"] = observeNs(lw.wl, o)
	m["telemetry.sample_ns"] = lw.sampleNs(o)
}

// observeNs times Policy.ObserveCycle+TS in isolation on a fresh policy of
// the workload's discipline and shape.
func observeNs(wl *workload, o options) float64 {
	const vbar = 200e-6
	p := sched.MustNew(wl.policy, sched.Config{VBar: vbar, TL: 50 * vbar, M: wl.m, N: wl.queues})
	n := 1_000_000
	if o.quick() {
		n /= 10
	}
	var sink float64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		q := i % wl.queues
		sink += p.ObserveCycle(q, 20e-6+float64(i&7)*1e-6, vbar) + p.TS(q)
	}
	d := time.Since(t0)
	if sink == 0 {
		panic("sched: timeouts summed to zero") // also keeps the loop observable
	}
	return float64(d) / float64(n)
}

// sampleNs times one operator read of the bus: Sample plus every queue's
// SampleLatency fold.
func (lw *liveWorld) sampleNs(o options) float64 {
	n := 1000
	if o.quick() {
		n /= 10
	}
	var snap telemetry.Snapshot
	var h stats.LogHistogram
	t0 := time.Now()
	for i := 0; i < n; i++ {
		lw.bus.Sample(&snap)
		h.Reset()
		for q := 0; q < lw.wl.queues; q++ {
			lw.bus.SampleLatency(q, &h)
		}
	}
	return float64(time.Since(t0)) / float64(n)
}

// offlineTally replays the first n frames of the sequence through fresh
// processors, off the runner entirely, and returns the verdict counts the
// live run must reproduce when nothing was lost. A verdict depends only on
// the frame (l3fwd reads the table, flowatcher consumes every parseable
// frame), so one pass over the distinct frames is enough.
func offlineTally(wl *workload, frames []frame, n uint64) [3]uint64 {
	procs := newProcs(wl)
	var m mbuf.Mbuf
	ms, vs := []*mbuf.Mbuf{&m}, make([]apps.Verdict, 1)
	var tally [3]uint64
	for i := range frames {
		times := n / nFrames
		if uint64(i) < n%nFrames {
			times++
		}
		if times == 0 {
			break
		}
		m.SetFrame(frames[i].b[:])
		procs[frames[i].q].ProcessBurst(ms, vs)
		tally[vs[0]] += times
	}
	return tally
}
