// Package runtime is the real-time Metronome: the paper's sleep&wake
// retrieval loop (Listing 2) running on actual goroutines with atomic
// trylocks, for Go packet sources that would otherwise burn a core
// busy-polling a ring. The discrete-event twin in internal/core reproduces
// the paper's numbers; this package is the one you embed in an application.
package runtime

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"metronome/internal/apps"
	"metronome/internal/faults"
	"metronome/internal/hrtimer"
	"metronome/internal/mbuf"
	"metronome/internal/obsv"
	"metronome/internal/ring"
	"metronome/internal/sched"
	"metronome/internal/telemetry"
	"metronome/internal/xrand"
)

// RxQueue is any non-blocking burst packet source (a ring fed by AF_PACKET,
// a userspace driver, a test generator...).
type RxQueue interface {
	// PollBurst moves up to len(out) packets into out and returns the
	// count; zero means the queue is currently empty.
	PollBurst(out []*mbuf.Mbuf) int
}

// RxRing is a ring-backed RxQueue with its producer side exposed, so one
// value can be handed to both the traffic source and the Runner. NewRxRing
// picks the cheapest safe specialisation for a deployment.
type RxRing interface {
	RxQueue
	// Enqueue adds one packet; false means the ring is full.
	Enqueue(m *mbuf.Mbuf) bool
	// EnqueueBurst adds as many packets of in as fit and returns the count.
	EnqueueBurst(in []*mbuf.Mbuf) int
	// Cap returns the ring capacity.
	Cap() int
	// Len returns an instantaneous element count (occupancy metrics only).
	Len() int
}

// RingQueue adapts an MPMC ring of mbufs to RxRing.
type RingQueue struct {
	R *ring.MPMC[*mbuf.Mbuf]
}

// PollBurst implements RxQueue.
func (q RingQueue) PollBurst(out []*mbuf.Mbuf) int { return q.R.DequeueBurst(out) }

// Enqueue implements RxRing.
func (q RingQueue) Enqueue(m *mbuf.Mbuf) bool { return q.R.Enqueue(m) }

// EnqueueBurst implements RxRing.
func (q RingQueue) EnqueueBurst(in []*mbuf.Mbuf) int { return q.R.EnqueueBurst(in) }

// Cap implements RxRing.
func (q RingQueue) Cap() int { return q.R.Cap() }

// Len implements RxRing.
func (q RingQueue) Len() int { return q.R.Len() }

// SPSCQueue adapts a single-producer/single-consumer ring of mbufs to
// RxRing — the fast path NewRxRing selects when a queue has exactly one
// producer and one consumer: burst polls cost two atomic loads and one
// release store, without MPMC's CAS and its wait for earlier spans.
type SPSCQueue struct {
	R *ring.SPSC[*mbuf.Mbuf]
}

// PollBurst implements RxQueue.
func (q SPSCQueue) PollBurst(out []*mbuf.Mbuf) int { return q.R.DequeueBurst(out) }

// Enqueue implements RxRing.
func (q SPSCQueue) Enqueue(m *mbuf.Mbuf) bool { return q.R.Enqueue(m) }

// EnqueueBurst implements RxRing.
func (q SPSCQueue) EnqueueBurst(in []*mbuf.Mbuf) int { return q.R.EnqueueBurst(in) }

// Cap implements RxRing.
func (q SPSCQueue) Cap() int { return q.R.Cap() }

// Len implements RxRing.
func (q SPSCQueue) Len() int { return q.R.Len() }

// NewRxRing builds a ring-backed Rx queue of the given capacity (a power of
// two >= 2) and selects the specialisation automatically: the SPSC fast
// path when the queue has exactly one producer and one consumer, the MPMC
// ring otherwise.
//
// Count consuming *entities*, not goroutines: a Runner is ONE consumer per
// queue regardless of its M, because the per-queue trylock serialises every
// PollBurst and the lock's atomic hand-off publishes each drain to the next
// lock holder (the release/acquire edge SPSC needs). Multiple Runners — or
// a Runner plus any out-of-band reader — sharing one queue are multiple
// consumers and get the MPMC ring.
func NewRxRing(capacity, producers, consumers int) (RxRing, error) {
	if producers == 1 && consumers == 1 {
		r, err := ring.NewSPSC[*mbuf.Mbuf](capacity)
		if err != nil {
			return nil, err
		}
		return SPSCQueue{R: r}, nil
	}
	r, err := ring.NewMPMC[*mbuf.Mbuf](capacity)
	if err != nil {
		return nil, err
	}
	return RingQueue{R: r}, nil
}

// Handler consumes one burst of packets. The handler owns the mbufs: it
// must Free them (or hand them on) before returning control flow to the
// pool's producer side.
type Handler func(batch []*mbuf.Mbuf)

// handlerProc is the processor New puts in front of a Handler: it decides
// nothing, so the burst reaches the emit — the handler — untouched.
type handlerProc struct{}

func (handlerProc) Name() string                              { return "handler" }
func (handlerProc) Process(*mbuf.Mbuf) apps.Verdict           { return apps.Forward }
func (handlerProc) CyclesPerPacket() float64                  { return 0 }
func (handlerProc) ProcessBurst([]*mbuf.Mbuf, []apps.Verdict) {}

// EmitFunc disposes of a served burst in the processor path: ms[i] carries
// verdicts[i] (Forward packets have been rewritten in place). The emit owns
// the mbufs — it must Free them or hand them on — and the verdict slice is
// only valid until it returns (the retrieval goroutine reuses it).
type EmitFunc func(q int, ms []*mbuf.Mbuf, verdicts []apps.Verdict)

// Burst is the PollBurst size of every retrieval goroutine.
const Burst = 32

// Config tunes the runner; zero fields take the paper's defaults.
type Config struct {
	// M is the number of retrieval goroutines (default 3).
	M int
	// VBar is the target vacation period (default 200us: Go timers are
	// coarser than hr_sleep, so the target sits higher than DPDK's). It is
	// what the policy asks the Sleeper for, not what the Sleeper delivers:
	// the default GoSleeper wakes on a millisecond grid (measured in the
	// hrtimer package doc and bench/BASELINE.md; what the clumped wakes do
	// to the load estimate is ROADMAP item 3(b)). VBar is also the unit of the
	// saturated-queue linger (see Runner.linger).
	VBar time.Duration
	// TL is the backup timeout (default 50*VBar).
	TL time.Duration
	// Policy names the scheduling discipline from the sched registry
	// ("adaptive", "fixed", "busypoll", "rmetronome", "worksteal", ...);
	// empty means adaptive. The policy name is the only selector: the
	// fixed discipline sleeps VBar. Like New's other validations, an
	// unknown name panics at construction; pre-validate user-supplied
	// names with sched.New.
	Policy string
	// Sleeper is the sleep service (default hrtimer.GoSleeper).
	Sleeper hrtimer.Sleeper
	// Bus, when set, receives live telemetry: per-queue ring occupancy,
	// rho, trylock counters and per-thread on-CPU time, published from the
	// retrieval goroutines with one atomic operation each; they add Rx
	// themselves, one Add(telemetry.Rx, q, n) per burst. Producers report
	// the packets they drop (ring full, pool empty) with
	// Add(telemetry.Drops, q, n), which is the controller's loss signal.
	// The elastic control plane samples it; the work-stealing discipline
	// reads occupancy from it.
	Bus *telemetry.Bus
	// Faults, when set, is the deterministic fault-injection plane the
	// retrieval goroutines consult on their cycle path: stalled threads sleep
	// through their windows, re-checking every TL so a stall without end
	// never spins and a revival is seen within one TL (stall bounds are
	// seconds on the Elapsed clock), dark queues win their lock but skip
	// the drain while the ring backs up, and frozen queues stop publishing
	// telemetry. Nil keeps the hot path to one pointer test per wakeup.
	Faults *faults.Injector
	// Dephase enables turn-aware wake de-phasing in the shared-queue
	// disciplines (see sched.GroupPolicy's Dephase).
	Dephase bool
	// Recorder, when set, is the observability plane's flight recorder:
	// every applied placement swap records one event stamped with the
	// runner's elapsed-seconds clock (zero before Run starts). The elastic
	// controller carries its own Recorder reference for decision events;
	// wiring both to one ring yields the interleaved control-plane
	// timeline.
	Recorder *obsv.Recorder
	// Seed drives backup queue selection.
	Seed uint64
}

func (c *Config) defaults() {
	if c.M <= 0 {
		c.M = 3
	}
	if c.VBar <= 0 {
		c.VBar = 200 * time.Microsecond
	}
	if c.TL <= 0 {
		c.TL = 50 * c.VBar
	}
	if c.Sleeper == nil {
		c.Sleeper = hrtimer.GoSleeper{}
	}
}

// Stats are cumulative runner counters, safe to read concurrently.
type Stats struct {
	Tries     atomic.Uint64
	BusyTries atomic.Uint64
	Cycles    atomic.Uint64
	Packets   atomic.Uint64
	Bursts    atomic.Uint64
}

type queueState struct {
	lock        atomic.Bool
	lastRelease atomic.Int64 // nanotime of last lock release
}

// Runner drives M goroutines over N shared queues. Listing 2's decisions —
// the fault gate, a loser's next queue and backoff, what a finished cycle
// publishes and how long its thread sleeps — are calls into one sched.Cycle,
// the same seam the discrete-event twin in internal/core calls; the runner
// supplies the clock, the atomic trylock and the PollBurst drain. The team
// is elastic: SetTeamSize spawns or parks retrieval goroutines mid-run (the
// live substrate of internal/elastic).
type Runner struct {
	cfg    Config
	queues []RxQueue
	procs  []apps.BurstProcessor // per-queue application (a no-op in front of a Handler)
	emit   EmitFunc              // burst disposal; nil recycles through the goroutine's cache
	cyc    sched.Cycle           // Listing 2's decisions: policy, fault gate, cycle-end publishes
	bus    *telemetry.Bus        // nil unless Config.Bus
	rec    *obsv.Recorder        // nil unless Config.Recorder
	lens   []func() int          // per-queue occupancy probes (nil if unknowable)
	occAt  []atomic.Int64        // per-queue nanotime of the last OccAvg fold
	state  []queueState
	Stats  Stats

	// Elastic team state. teamSize is the desired team; goroutines with
	// id >= teamSize park on resizeCh (closed-and-replaced on every
	// resize, a broadcast). spawned tracks how many goroutines exist, so
	// growth past the high-water mark launches new ones.
	teamSize atomic.Int32
	resizeMu sync.Mutex
	resizeCh chan struct{}
	spawned  int
	running  bool
	runCtx   context.Context
	wg       *sync.WaitGroup

	start time.Time
}

// New builds a runner whose drains go to handler, one call per burst. It
// panics on an empty queue set or nil handler — both are programming
// errors, not runtime conditions. It is NewProc with a processor that does
// nothing and the handler as the emit, so there is one dispatch path.
func New(queues []RxQueue, handler Handler, cfg Config) *Runner {
	if handler == nil {
		panic("runtime: nil handler")
	}
	procs := make([]apps.BurstProcessor, len(queues))
	for i := range procs {
		procs[i] = handlerProc{}
	}
	return NewProc(queues, procs, func(_ int, ms []*mbuf.Mbuf, _ []apps.Verdict) { handler(ms) }, cfg)
}

// NewProc builds a runner on the burst-native application path: queue q's
// drains go straight to procs[q].ProcessBurst — one virtual dispatch per
// burst, verdicts written into a retrieval-goroutine-owned buffer, zero
// allocations per burst — and then to emit for disposal. A nil emit
// recycles every mbuf through a per-goroutine mempool cache: the whole
// verdict burst returns in one bulk PutBurst, spilled to the shared pool
// ring in watermark-sized spans (caches flush when a goroutine parks or
// retires, so elastic shrinks leak nothing).
//
// One processor per queue is the sharding contract: the per-queue trylock
// serialises every drain of queue q, so procs[q] is single-writer and needs
// no locks even though M goroutines share the queue set (flowatcher.Sharded
// leans on exactly this). Passing the same processor for every queue is
// also fine when it is internally synchronised or the deployment is
// single-queue.
func NewProc(queues []RxQueue, procs []apps.BurstProcessor, emit EmitFunc, cfg Config) *Runner {
	if len(procs) != len(queues) {
		panic("runtime: len(procs) != len(queues)")
	}
	for _, p := range procs {
		if p == nil {
			panic("runtime: nil processor")
		}
	}
	if len(queues) == 0 {
		panic("runtime: no queues")
	}
	cfg.defaults()
	if cfg.M < len(queues) {
		cfg.M = len(queues) // every queue deserves a primary (Sec. IV-E)
	}
	cyc, err := sched.NewCycle(cfg.Policy, sched.Config{
		VBar:    cfg.VBar.Seconds(),
		TL:      cfg.TL.Seconds(),
		M:       cfg.M,
		N:       len(queues),
		Bus:     cfg.Bus,
		Dephase: cfg.Dephase,
	}, cfg.Faults)
	if err != nil {
		panic(err)
	}
	r := &Runner{
		cfg:      cfg,
		queues:   queues,
		procs:    procs,
		emit:     emit,
		cyc:      cyc,
		bus:      cfg.Bus,
		rec:      cfg.Recorder,
		state:    make([]queueState, len(queues)),
		resizeCh: make(chan struct{}),
	}
	r.teamSize.Store(int32(cfg.M))
	// Occupancy probes: any queue exposing Len (RxRing does) feeds the
	// telemetry plane; opaque sources simply stay dark on that signal.
	r.lens = make([]func() int, len(queues))
	for i, q := range queues {
		if lq, ok := q.(interface{ Len() int }); ok {
			r.lens[i] = lq.Len
		}
	}
	if r.bus != nil {
		r.occAt = make([]atomic.Int64, len(queues))
		for i, probe := range r.lens {
			if cq, ok := queues[i].(interface{ Cap() int }); ok && probe != nil {
				r.bus.Set(telemetry.Capacity, i, float64(cq.Cap()))
			}
		}
	}
	return r
}

// publishOcc samples queue q's occupancy probe into the bus: the point
// gauge, plus a time-constant EWMA (tau = 8*VBar) as the time-averaged
// gauge. The live substrate has no fluid integral, so the EWMA stands in:
// it low-passes the cycle-phase alias that makes point samples read either
// "just drained" or "full vacation's worth" depending on when the prober
// runs. Concurrent publishers may interleave the read-modify-write — each
// step is atomic and any lost fold only delays the average by one sample,
// which the controller's own smoothing absorbs.
func (r *Runner) publishOcc(q int, now int64) {
	probe := r.lens[q]
	if probe == nil {
		return
	}
	occ := float64(probe())
	r.bus.Set(telemetry.Occupancy, q, occ)
	last := r.occAt[q].Swap(now)
	if last == 0 {
		r.bus.Set(telemetry.OccAvg, q, occ)
		return
	}
	dt := time.Duration(now - last).Seconds()
	if dt <= 0 {
		return
	}
	a := 1 - math.Exp(-dt/(8*r.cfg.VBar).Seconds())
	avg := r.bus.Get(telemetry.OccAvg, q)
	r.bus.Set(telemetry.OccAvg, q, avg+a*(occ-avg))
}

// Policy exposes the scheduling discipline driving this runner.
func (r *Runner) Policy() sched.Policy { return r.cyc.Policy() }

// Rho returns queue q's current load estimate.
func (r *Runner) Rho(q int) float64 { return r.cyc.Policy().Rho(q) }

// TS returns queue q's current short timeout.
func (r *Runner) TS(q int) time.Duration { return seconds(r.cyc.Policy().TS(q)) }

// seconds converts the policy engine's float64 seconds to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Run blocks, serving queues until ctx is cancelled. It may be called once.
func (r *Runner) Run(ctx context.Context) {
	var wg sync.WaitGroup
	r.resizeMu.Lock()
	// Written under resizeMu so Elapsed can read it from any goroutine; the
	// retrieval goroutines are spawned below while the lock is held, so
	// their unguarded nanotime reads see it via the spawn happens-before.
	r.start = time.Now()
	r.runCtx = ctx
	r.wg = &wg
	r.running = true
	n := int(r.teamSize.Load())
	for i := r.spawned; i < n; i++ {
		r.spawnLocked(i)
	}
	if n > r.spawned {
		r.spawned = n
	}
	r.resizeMu.Unlock()
	wg.Wait()
}

// spawnLocked launches retrieval goroutine id; resizeMu must be held.
func (r *Runner) spawnLocked(id int) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.threadLoop(r.runCtx, id)
	}()
}

// TeamSize returns the current desired team size.
func (r *Runner) TeamSize() int { return int(r.teamSize.Load()) }

// SetTeamSize grows or shrinks the retrieval team to m mid-run — the live
// substrate of the elastic control plane's scalar path, retained as the
// degenerate *balanced* placement plan (m members spread m/N per queue).
// It returns the applied size (m clamps to one thread per queue). Safe to
// call before Run (the team starts at the new size) and from any
// goroutine while running.
func (r *Runner) SetTeamSize(m int) int {
	if m < len(r.queues) {
		m = len(r.queues)
	}
	return r.ApplyPlacement(sched.BalancedPlacement(m, len(r.queues)))
}

// ApplyPlacement adopts a full placement plan mid-run — the live substrate
// of the placement plane. perQueue[q] members are provisioned for queue q
// (entries clamped to >= 1); the team total becomes their sum and the
// applied total is returned.
//
// Growth spawns goroutines past the high-water mark and wakes parked ones
// via a closed-channel broadcast; shrinkage lets surplus goroutines finish
// their current cycle and park. The policy adopts the plan through
// sched.Cycle.Adopt (rmetronome/worksteal swap a complete home/rank/size
// layout behind one atomic pointer; roaming disciplines take the total).
// Members whose home moved re-home through sched.Cycle.Finish's home return
// without dropping claimed turns: the
// per-queue CAS turn counters live outside the layout and survive the
// swap, so a member that claimed a turn before the rebalance still serves
// it, then re-arms on its new home. Safe to call before Run and from any
// goroutine while running.
func (r *Runner) ApplyPlacement(perQueue []int) int {
	sizes, total := sched.NormalizePlacement(perQueue, len(r.queues))
	at := 0.0
	if r.rec != nil {
		// Stamp before taking resizeMu — Elapsed acquires it too, and the
		// flight recorder's clockless contract wants the caller's clock,
		// not a lock-ordered one.
		at = r.Elapsed()
	}
	r.resizeMu.Lock()
	defer r.resizeMu.Unlock()
	if total == int(r.teamSize.Load()) && (!r.cyc.CanPlace() || sched.PlacementEqual(r.cyc.Placement(total), sizes)) {
		// Unchanged; a roaming discipline carries only the total.
		return total
	}
	r.teamSize.Store(int32(total))
	r.cyc.Adopt(sizes, total)
	if r.running {
		for id := r.spawned; id < total; id++ {
			r.spawnLocked(id)
		}
		if total > r.spawned {
			r.spawned = total
		}
	}
	// Broadcast: every parked goroutine re-checks its id against the new
	// team size.
	close(r.resizeCh)
	r.resizeCh = make(chan struct{})
	r.rec.RecordPlacement(at, total, sched.PackPlacement(sizes))
	return total
}

// CanPlace reports whether ApplyPlacement plans actually land per queue:
// true only when the discipline binds service groups (sched.GroupPolicy).
// Roaming disciplines accept plans but degrade them to the total.
func (r *Runner) CanPlace() bool { return r.cyc.CanPlace() }

// Placement returns the per-queue member counts currently in effect (the
// policy's group sizes when it places, the balanced split otherwise).
func (r *Runner) Placement() []int { return r.cyc.Placement(r.TeamSize()) }

// park blocks goroutine id until a resize re-admits it or ctx ends; it
// returns true when the goroutine should resume serving.
func (r *Runner) park(ctx context.Context, id int) bool {
	for {
		r.resizeMu.Lock()
		ch := r.resizeCh
		r.resizeMu.Unlock()
		// Re-check under the freshly fetched channel: a resize that
		// re-admitted this id before we fetched ch has already closed the
		// channel we would otherwise have missed.
		if id < int(r.teamSize.Load()) {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-ch:
		}
	}
}

func (r *Runner) nanotime() int64 { return int64(time.Since(r.start)) }

// Elapsed returns seconds since Run started — the runner's monotonic clock.
// Fault stall windows and the heartbeat gauge are expressed on it, so the
// elastic health layer never does cross-clock arithmetic (the sim substrate
// publishes virtual seconds on the same contract: heartbeats are compared by
// value change, never subtracted from another clock). Zero before Run.
func (r *Runner) Elapsed() float64 {
	r.resizeMu.Lock()
	start := r.start
	r.resizeMu.Unlock()
	if start.IsZero() {
		return 0
	}
	return time.Since(start).Seconds()
}

// ThreadHome returns the queue goroutine id is homed on under the current
// placement (sched.Cycle.Home) — the target the elastic health layer aims
// corrective plans at when it exiles an unhealthy member.
func (r *Runner) ThreadHome(id int) int { return r.cyc.Home(id) }

// threadLoop is Listing 2 on a goroutine.
func (r *Runner) threadLoop(ctx context.Context, id int) {
	// Each thread owns a private RNG stream (sched.Cycle.LostRace consumes it on
	// the backup path) seeded from the full deployment coordinates — run
	// seed, thread id AND queue count. Folding only (seed, id) would hand
	// two runners with the same seed but different queue counts identical
	// streams, correlating their backup choices; SeedFrom's chained mixing
	// makes every coordinate perturb the whole stream (regression-tested by
	// TestThreadRNGStreamsDependOnQueueCount).
	rng := xrand.New(xrand.SeedFrom(r.cfg.Seed, uint64(id), uint64(len(r.queues))))
	buf := make([]*mbuf.Mbuf, Burst)
	// The verdict buffer is goroutine-owned and reused for every burst — the
	// steady state allocates nothing.
	verdicts := make([]apps.Verdict, Burst)
	// The default disposal path returns each verdict burst through this
	// goroutine's recycler: one bulk PutBurst per burst into a per-pool
	// magazine cache, spilled to the shared ring in spans. Flushed on every
	// park and on exit so elastic retirement never strands buffers.
	var recycle mbuf.Recycler
	defer recycle.Flush()
	lats := make([]uint64, 0, Burst) // per-burst latency scratch for the bus histogram
	q := id % len(r.queues)
	var busyTotal time.Duration // cumulative on-CPU time, published as duty
	for ctx.Err() == nil {
		if id >= int(r.teamSize.Load()) {
			// Elastically retired: finish nothing (we hold no lock here),
			// return any cached buffers to the shared pool, park until a
			// resize re-admits us, then re-home — the group layout may have
			// moved while we were out.
			recycle.Flush()
			if !r.park(ctx, id) {
				return
			}
			q = r.cyc.Home(id)
			continue
		}
		if r.cfg.Faults != nil {
			// Stall windows are seconds on the Elapsed clock; this is the same
			// clock read without Elapsed's lock.
			now := time.Duration(r.nanotime()).Seconds()
			if gate, until := r.cyc.Gate(id, now); gate == sched.GateStalled {
				// Stall: sleep through the window without contending, at
				// most TL at a time (the heartbeat freezes, which is how the
				// health layer notices). Re-asking every TL bounds a stall
				// without end (thread death) and lets a revival — a stall
				// that ends now — resume service without a placement
				// round-trip; min keeps +Inf away from the sleeper.
				r.cfg.Sleeper.Sleep(seconds(min(until-now, r.cyc.Policy().TL(q))))
				continue
			}
		}
		r.Stats.Tries.Add(1)
		if r.cyc.Publishes(q) {
			r.bus.Add(telemetry.Tries, q, 1)
		}
		// Shared-queue disciplines CAS-claim the queue's service turn
		// before touching its trylock: a failed claim proves a sibling
		// claimed a turn concurrently, so this thread is surplus for the
		// turn and backs off without bouncing the lock's cache line (the
		// short-circuit skips the trylock). Either way a busy try means
		// the policy re-targets the thread for its backup timeout.
		st := &r.state[q]
		if !r.cyc.ClaimTurn(q) || !st.lock.CompareAndSwap(false, true) {
			r.Stats.BusyTries.Add(1)
			if r.cyc.Publishes(q) {
				r.bus.Add(telemetry.BusyTries, q, 1)
				r.publishOcc(q, r.nanotime())
				r.bus.Add(telemetry.PubSeq, q, 1)
			}
			var tl float64
			q, tl = r.cyc.LostRace(id, q, rng)
			r.cfg.Sleeper.Sleep(seconds(tl))
			continue
		}
		began := r.nanotime()
		vacation := time.Duration(began - st.lastRelease.Load())
		if r.cyc.Publishes(q) {
			// Occupancy samples BEFORE the drain. The cycle below is
			// work-conserving — it polls until empty — so an end-of-cycle
			// sample reads the same just-drained phase every time and the
			// gauge pins at zero however deep the vacation backlog ran. A
			// zero occupancy gauge is not cosmetic: the health layer reads
			// "drops rising while the ring reads empty" as a dark queue and
			// discards the loss signal, blinding the controller to genuine
			// overload.
			r.publishOcc(q, began)
		}
		dark := r.cyc.Dark(q)
		stretch := began // start of the current stretch of unbroken service
		for !dark {
			// A dark queue's lock winner skips the drain entirely: the poll
			// "sees" an empty ring while the producer keeps enqueuing, so the
			// backlog (and, past capacity, the producer-side drops) build
			// exactly like a blacked-out NIC queue.
			n := r.queues[q].PollBurst(buf)
			if n == 0 {
				// Listing 2 releases on the first empty poll; a holder that
				// has just served a long unbroken stretch first waits a
				// moment for a held-up producer (see linger).
				var refilled bool
				if stretch, refilled = r.linger(q, stretch); refilled {
					continue
				}
				break
			}
			// The producer's core wrote these buffers a moment ago. Start
			// every header and frame-head line of the burst moving now, so
			// the stamp loop and the application's parse find them in
			// flight instead of missing on them one packet at a time.
			mbuf.PrefetchBurst(buf[:n])
			r.Stats.Packets.Add(uint64(n))
			r.Stats.Bursts.Add(1)
			if r.cyc.Publishes(q) {
				r.bus.Add(telemetry.Rx, q, uint64(n))
				// Every stamped packet's retrieval latency goes into the bus
				// histogram: one monotonic-clock read and a few atomic adds per
				// burst. Stamps are read BEFORE dispatch: emit recycles the
				// mbufs, and a recycled buffer's stamp belongs to its next
				// lease.
				r.bus.RecordLatencyBurst(q, burstLatencies(lats, mbuf.Nanotime(), buf[:n]))
			}
			r.procs[q].ProcessBurst(buf[:n], verdicts[:n])
			if r.emit != nil {
				r.emit(q, buf[:n], verdicts[:n])
			} else {
				recycle.FreeBurst(buf[:n])
			}
		}
		ended := r.nanotime()
		busy := time.Duration(ended - began)
		busyTotal += busy

		// Hand the cycle to the seam while still holding the lock — only the
		// lock holder observes a queue's cycles, which is the serialisation
		// Finish requires — then release.
		next, ts := r.cyc.Finish(id, q, busy.Seconds(), vacation.Seconds(),
			busyTotal.Seconds(), time.Duration(ended).Seconds())
		st.lastRelease.Store(ended)
		r.Stats.Cycles.Add(1)
		st.lock.Store(false)
		q = next
		r.cfg.Sleeper.Sleep(seconds(ts))
	}
}

// lingerStretch is how many vacation targets of unbroken service earn a
// lock holder one linger of up to VBar; see Runner.linger.
const lingerStretch = 8

// linger is the saturated-queue exception to Listing 2's "release on the
// first empty poll". stretch is when the holder's current stretch of
// unbroken service began. A stretch of lingerStretch vacation targets or
// more means the queue has been backlogged all along (rho near 1), so an
// empty poll far more likely says the producer was held up for a moment — a
// preempted thread, a stolen vCPU — than that the load went away. The
// paper's answer at rho -> 1 is a TS near zero, which a Sleeper with a
// millisecond's granularity (GoSleeper, see hrtimer) cannot deliver: the
// queue refills within microseconds of the producer's return and then
// overflows or blocks it for the rest of that millisecond, so every hiccup
// shorter than the ring is deep costs a millisecond of service, and a
// faster drain turns more hiccups into such cycles. Instead the holder
// watches the queue's occupancy probe for up to VBar. If packets show up it
// keeps the lock and a new stretch starts: the next linger has to be earned
// in full again, which bounds the waiting to 1/lingerStretch of the CPU the
// thread was spending anyway and keeps a trickle from turning it into a busy
// poller. Anything less than a full stretch, a queue without a probe, or a
// VBar with no arrival ends the cycle as Listing 2 does; on the paper's
// light and bursty loads no stretch is ever that long.
func (r *Runner) linger(q int, stretch int64) (next int64, refilled bool) {
	probe := r.lens[q]
	if probe == nil {
		return stretch, false
	}
	now := r.nanotime()
	if now-stretch < lingerStretch*int64(r.cfg.VBar) {
		return stretch, false
	}
	for deadline := now + int64(r.cfg.VBar); now < deadline; now = r.nanotime() {
		if probe() > 0 {
			return now, true
		}
	}
	return stretch, false
}

// burstLatencies fills lats[:0] with now - RxStampNs for every packet of
// the burst that has a latency to report and returns it. Unstamped mbufs
// (producers that leave RxStampNs zero) are excluded rather than recorded as
// garbage epochs, and so are non-positive differences. With cap(lats) >=
// len(ms) it allocates nothing.
func burstLatencies(lats []uint64, now int64, ms []*mbuf.Mbuf) []uint64 {
	lats = lats[:0]
	for _, m := range ms {
		if m.RxStampNs > 0 {
			if lat := now - m.RxStampNs; lat > 0 {
				lats = append(lats, uint64(lat))
			}
		}
	}
	return lats
}
