// Command metropcap generates, inspects and replays the pcap traces used by
// the multiqueue experiments.
//
//	metropcap -gen -out unbalanced.pcap -n 1000 -heavy 0.30
//	metropcap -info unbalanced.pcap -queues 3
//	metropcap -replay unbalanced.pcap -queues 3 -m 3 -times 50 -elastic
//	metropcap -replay unbalanced.pcap -elastic -metrics-addr :9090 -trace-out run.json
//
// -info parses the trace with the FloWatcher engine and reports per-flow
// statistics plus how RSS would spread the flows over the given queue
// count — the planning view for a Metronome multiqueue deployment.
//
// -replay drives the trace through that deployment for real: frames fan out
// via Toeplitz RSS onto per-queue rings served by the live runtime on the
// burst-native application path (runtime.NewProc straight into per-queue
// FloWatcher shards — no per-packet handler shim), with a telemetry bus
// attached. The producer charges every ring-full or pool-empty frame to
// the bus's Drops counter, the live counterpart of the NIC's imissed
// counter, so an attached elastic controller's loss override fires on real
// backpressure; -elastic attaches that controller with the health layer on.
//
// The replay is observable while it runs. -metrics-addr serves the
// telemetry bus as Prometheus text exposition at /metrics (scrape it, or
// point metrotop at it) plus expvar at /debug/vars; -trace-out dumps the
// run's flight recording — every controller decision and placement swap —
// as Chrome trace-event JSON loadable in Perfetto; -pprof-addr serves
// net/http/pprof on its own listener (off unless the flag is set).
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	goruntime "runtime"
	"time"

	"metronome/internal/apps/flowatcher"
	"metronome/internal/elastic"
	"metronome/internal/mbuf"
	"metronome/internal/obsv"
	"metronome/internal/packet"
	"metronome/internal/pcap"
	"metronome/internal/ring"
	"metronome/internal/runtime"
	"metronome/internal/sched"
	"metronome/internal/stats"
	"metronome/internal/telemetry"
)

func main() {
	var (
		gen     = flag.Bool("gen", false, "generate a trace")
		out     = flag.String("out", "unbalanced.pcap", "output path for -gen")
		n       = flag.Int("n", 1000, "packets to generate")
		heavy   = flag.Float64("heavy", 0.30, "share of the single heavy flow")
		pps     = flag.Float64("pps", 1e6, "pacing of the generated trace")
		seed    = flag.Uint64("seed", 42, "generator seed")
		info    = flag.String("info", "", "trace to inspect")
		queues  = flag.Int("queues", 3, "RSS queue count for -info and -replay")
		replay  = flag.String("replay", "", "trace to replay through the live runtime")
		m       = flag.Int("m", 3, "retrieval threads for -replay")
		times   = flag.Int("times", 50, "trace repetitions for -replay")
		speedup = flag.Float64("speedup", 20, "timestamp compression for -replay pacing")
		elas    = flag.Bool("elastic", false, "attach the self-healing elastic controller to -replay")
		metrics = flag.String("metrics-addr", "", "serve Prometheus /metrics and expvar /debug/vars during -replay (e.g. :9090)")
		ppaddr  = flag.String("pprof-addr", "", "serve net/http/pprof during -replay (off by default)")
		traceTo = flag.String("trace-out", "", "write the replay's flight recording as Chrome trace JSON (Perfetto-loadable)")
	)
	flag.Parse()

	switch {
	case *gen:
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := pcap.GenerateUnbalanced(f, *n, *heavy, *pps, *seed); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d packets, heavy share %.0f%%, paced at %.2f Mpps\n",
			*out, *n, *heavy*100, *pps/1e6)
	case *info != "":
		records, err := readTrace(*info)
		if err != nil {
			fatal(err)
		}
		inspect(records, *queues)
	case *replay != "":
		records, err := readTrace(*replay)
		if err != nil {
			fatal(err)
		}
		runReplay(records, *queues, *m, *times, *speedup, *elas, *seed,
			replayObsv{metricsAddr: *metrics, pprofAddr: *ppaddr, traceOut: *traceTo})
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func readTrace(path string) ([]pcap.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pcap.ReadAll(f)
}

func inspect(records []pcap.Record, queues int) {
	mon := flowatcher.New()
	pool := mbuf.NewPool(2)
	m, err := pool.Get()
	if err != nil {
		fatal(err)
	}
	idx := 0
	mon.Clock = func() float64 { return records[idx].TS }
	for i, rec := range records {
		idx = i
		m.SetFrame(rec.Data)
		mon.Process(m)
	}
	m.Free()

	span := 0.0
	if len(records) > 1 {
		span = records[len(records)-1].TS - records[0].TS
	}
	fmt.Printf("packets: %d (%d malformed)   flows: %d   span: %.3fs\n",
		mon.Packets, mon.Malformed, mon.FlowCount(), span)
	fmt.Printf("sizes: mean %.1fB [%0.f..%0.f]\n",
		mon.Sizes.Mean(), mon.Sizes.Min(), mon.Sizes.Max())

	fmt.Println("\ntop flows:")
	for i, k := range mon.TopK(5) {
		fs, _ := mon.Flow(k)
		fmt.Printf("  #%d %-44v pkts=%-6d (%.1f%%)\n",
			i+1, k, fs.Packets, 100*float64(fs.Packets)/float64(mon.Packets))
	}

	rss := packet.NewToeplitz(packet.DefaultRSSKey)
	perQueue := make([]int64, queues)
	mon.Range(func(k packet.FlowKey, fs *flowatcher.FlowStats) bool {
		perQueue[rss.QueueFor(k, queues)] += fs.Packets
		return true
	})
	fmt.Printf("\nRSS split over %d queues:\n", queues)
	for q, c := range perQueue {
		fmt.Printf("  queue %d: %6d packets (%.1f%%)\n",
			q, c, 100*float64(c)/float64(mon.Packets))
	}
}

// replayObsv bundles the replay's observability endpoints.
type replayObsv struct {
	metricsAddr string // Prometheus + expvar listener ("" = off)
	pprofAddr   string // net/http/pprof listener ("" = off)
	traceOut    string // Chrome trace JSON dump path ("" = off)
}

// serve starts an HTTP listener with the handler in the background; replay
// endpoints live for the process, so nothing stops them.
func serve(addr string, h http.Handler) {
	go func() {
		if err := http.ListenAndServe(addr, h); err != nil {
			fmt.Fprintln(os.Stderr, "metropcap: listener", addr, "failed:", err)
		}
	}()
}

// runReplay is the live end of the planning view: the trace's flows land on
// real rings via the same Toeplitz split and the live runtime retrieves
// them under the shared-queue discipline.
func runReplay(records []pcap.Record, nq, m, times int, speedup float64, elas bool, seed uint64, ob replayObsv) {
	const ringCap = 4096
	pool := mbuf.NewPool(16384)
	rss := packet.NewToeplitz(packet.DefaultRSSKey)
	rings := make([]*ring.MPMC[*mbuf.Mbuf], nq)
	rxqs := make([]runtime.RxQueue, nq)
	for i := range rings {
		r, err := ring.NewMPMC[*mbuf.Mbuf](ringCap)
		if err != nil {
			fatal(err)
		}
		rings[i] = r
		rxqs[i] = runtime.RingQueue{R: r}
	}
	budget := 2 * m
	bus := telemetry.NewBus(nq, budget)
	for q := 0; q < nq; q++ {
		bus.Set(telemetry.Capacity, q, ringCap)
	}

	// The flight recorder rides every replay: decisions and placement swaps
	// land in the ring whether or not anything reads them, and -trace-out /
	// -metrics-addr expose the recording.
	rec := obsv.NewRecorder(obsv.DefaultCapacity)

	// The burst-native application path: one FloWatcher shard per queue fed
	// whole bursts through runtime.NewProc.
	sharded := flowatcher.NewSharded(nq)
	r := runtime.NewProc(rxqs, sharded.Procs(), nil, runtime.Config{
		M:        m,
		VBar:     100 * time.Microsecond,
		Policy:   sched.NameRMetronome,
		Seed:     seed,
		Bus:      bus,
		Recorder: rec,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go r.Run(ctx)

	if ob.metricsAddr != "" {
		mh := obsv.NewMetrics(obsv.ExportOptions{Bus: bus, Recorder: rec, TeamSize: r.TeamSize})
		mh.PublishExpvar("metronome")
		mux := http.NewServeMux()
		mux.Handle("/metrics", mh)
		mux.Handle("/debug/vars", expvar.Handler())
		serve(ob.metricsAddr, mux)
		fmt.Printf("metrics: http://%s/metrics (Prometheus), /debug/vars (expvar)\n", ob.metricsAddr)
	}
	if ob.pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		serve(ob.pprofAddr, mux)
		fmt.Printf("pprof: http://%s/debug/pprof/\n", ob.pprofAddr)
	}

	var ctrl *elastic.Controller
	stopTick := make(chan struct{})
	if elas {
		ec := elastic.DefaultConfig(m, budget)
		ec.TargetOccupancy = 0.03
		ec.Placement = true
		ec.Health = true
		ec.Recorder = rec
		ctrl = elastic.New(bus, r, ec)
		go func() {
			tk := time.NewTicker(time.Millisecond)
			defer tk.Stop()
			for {
				select {
				case <-stopTick:
					return
				case <-tk.C:
					ctrl.Tick(r.Elapsed())
				}
			}
		}()
	}

	// The replay loop. The producer leases from a producer-local mempool
	// cache and enqueues in bursts: frames accumulate per queue and land in
	// one EnqueueBurst when a burst fills (or before any pacing sleep, so
	// batching never delays a paced frame). Frames a ring cannot take are
	// bulk-returned to the cache as one rejected span and charged to the
	// bus's Drops counter in one Add per burst — the live imissed counter
	// the controller's loss override consumes, accounted at burst
	// granularity exactly like the free path.
	const burst = 32
	cache := pool.NewCache()
	pending := make([][]*mbuf.Mbuf, nq)
	for q := range pending {
		pending[q] = make([]*mbuf.Mbuf, 0, burst)
	}
	sent, lost := 0, 0
	flush := func(q int) {
		p := pending[q]
		if len(p) == 0 {
			return
		}
		n := rings[q].EnqueueBurst(p)
		sent += n
		if rejected := len(p) - n; rejected > 0 {
			cache.PutBurst(p[n:])
			bus.Add(telemetry.Drops, q, uint64(rejected))
			lost += rejected
		}
		pending[q] = p[:0]
	}
	start := time.Now()
	pcap.Replay(records, times, func(ts float64, frame []byte) {
		var p packet.Parsed
		if p.Parse(frame) != nil {
			return
		}
		q := rss.QueueFor(p.Key, nq)
		target := time.Duration(ts / speedup * float64(time.Second))
		if d := target - time.Since(start); d > 0 {
			for i := range pending {
				flush(i)
			}
			time.Sleep(d)
		}
		mb, err := lease(cache)
		if err != nil {
			bus.Add(telemetry.Drops, q, 1)
			lost++
			return
		}
		mb.SetFrame(frame)
		// Stamp arrival so retrieval threads record this frame's latency
		// into the bus histogram (the exact tails /metrics serves).
		mb.RxStampNs = mbuf.Nanotime()
		pending[q] = append(pending[q], mb)
		if len(pending[q]) == burst {
			flush(q)
		}
	})
	for q := range pending {
		flush(q)
	}
	cache.Flush()
	time.Sleep(100 * time.Millisecond)
	close(stopTick)
	cancel()
	time.Sleep(50 * time.Millisecond)

	fmt.Printf("replayed %d packets (%d dropped producer-side) over %d queues, team %d\n",
		sent, lost, nq, r.TeamSize())
	var hist stats.LogHistogram
	for q := 0; q < nq; q++ {
		fmt.Printf("  queue %d: rx=%-7d drops=%-6d rho=%.3f TS=%v",
			q, bus.Load(telemetry.Rx, q), bus.Load(telemetry.Drops, q), r.Rho(q), r.TS(q).Round(10*time.Microsecond))
		if bus.SampleLatency(q, &hist); hist.N() > 0 {
			fmt.Printf(" p99=%v", time.Duration(hist.Quantile(0.99)).Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Printf("flows: %d (%d malformed)\n", sharded.FlowCount(), sharded.Malformed())
	for i, k := range sharded.TopK(3) {
		fs, _ := sharded.Flow(k)
		fmt.Printf("  #%d %-44v pkts=%d\n", i+1, k, fs.Packets)
	}
	if ctrl != nil {
		rep := ctrl.Report(r.Elapsed())
		fmt.Printf("elastic: M %d..%d, %d resizes, %d exiles, %d safe ticks, %d stale-queue ticks\n",
			rep.MinThreads, rep.MaxThreads, rep.Resizes, rep.Exiles, rep.SafeTicks, rep.StaleQueueTicks)
		if rep.Panics > 0 {
			fmt.Printf("elastic: %d controller panics; first: %s\n", rep.Panics, rep.PanicMsg)
		}
	}
	if ob.traceOut != "" {
		f, err := os.Create(ob.traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: wrote %d control-plane events to %s (load in Perfetto)\n",
			len(rec.Events(nil)), ob.traceOut)
	}
}

// lease takes one buffer from the producer's cache, yielding and trying
// once more before it reports exhaustion. A first miss is often not
// shortage: free buffers a consumer cache is spilling at that moment are
// not in the shared ring until the spill publishes, and the caller charges
// a failed lease to the bus's Drops counter, which steers the controller's
// loss override.
func lease(c *mbuf.Cache) (*mbuf.Mbuf, error) {
	m, err := c.Get()
	if err != nil {
		goruntime.Gosched()
		m, err = c.Get()
	}
	return m, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "metropcap:", err)
	os.Exit(1)
}
