package experiments

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"metronome/internal/apps"
	"metronome/internal/apps/flowatcher"
	"metronome/internal/apps/ipsecgw"
	"metronome/internal/apps/l3fwd"
	"metronome/internal/mbuf"
	"metronome/internal/packet"
	"metronome/internal/ring"
	metrort "metronome/internal/runtime"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "fig-apps",
		Title: "Application plane on the live runner: burst dispatch and sharded state",
		Paper: "Beyond the paper: Metronome's evaluation wires l3fwd, the IPsec gateway and FloWatcher into DPDK's burst retrieval loop. This experiment drives the same three adapted applications through the live goroutine runner's burst path (one dispatch per PollBurst, per-queue processor shards, zero allocations per burst) and accounts for every packet: the tallies are exact, so the table is byte-identical at any parallelism. Full runs add a measured throughput panel comparing native burst dispatch against the per-packet compatibility shim",
		Run:   runAppsPlane,
	})
}

// appsDrive pushes npkts RSS-split UDP frames through a live proc-runner
// deployment and blocks until every packet has been emitted. Producers
// retry on ring backpressure, so nothing is lost and the verdict tallies
// are exact. Returns the verdict tallies, the wall-clock drain time and
// the retrieval threads' summed on-CPU seconds (from the telemetry bus —
// the signal that isolates retrieval cost from producer throughput).
func appsDrive(procs []apps.BurstProcessor, npkts int, seed uint64) (fwd, con, drp int64, elapsed time.Duration, cpuSec float64) {
	nQueues := len(procs)
	// Pre-split the stream by RSS so each queue gets a tight dedicated
	// producer: frame generation and the Toeplitz hash are paid up front,
	// not on the measured path. The generator's frames live as long as it
	// does and SetFrame copies them into the mbuf, so the split keeps views.
	perQ := make([][][]byte, nQueues)
	gen := traffic.NewFrameGen(seed, 256, 64)
	rss := packet.NewToeplitz(packet.DefaultRSSKey)
	for i := 0; i < npkts; i++ {
		frame, k := gen.Next()
		q := rss.QueueFor(k, nQueues)
		perQ[q] = append(perQ[q], frame)
	}
	rings := make([]*ring.MPMC[*mbuf.Mbuf], nQueues)
	queues := make([]metrort.RxQueue, nQueues)
	for q := range rings {
		r, err := ring.NewMPMC[*mbuf.Mbuf](1024)
		if err != nil {
			panic(err)
		}
		rings[q] = r
		queues[q] = metrort.RingQueue{R: r}
	}
	var nFwd, nCon, nDrp atomic.Int64
	emit := func(q int, ms []*mbuf.Mbuf, verdicts []apps.Verdict) {
		for i := range ms {
			switch verdicts[i] {
			case apps.Forward:
				nFwd.Add(1)
			case apps.Consume:
				nCon.Add(1)
			default:
				nDrp.Add(1)
			}
		}
		mbuf.FreeBurst(ms) // whole verdict burst back in bulk ring spans
	}
	m := nQueues + 1
	bus := telemetry.NewBus(nQueues, m)
	r := metrort.NewProc(queues, procs, emit,
		metrort.Config{M: m, VBar: 100 * time.Microsecond, Seed: seed, Bus: bus})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()

	start := time.Now()
	var prod sync.WaitGroup
	for q := 0; q < nQueues; q++ {
		prod.Add(1)
		go func(q int) {
			defer prod.Done()
			// Burst-native producer: lease whole bursts from a
			// producer-local mempool cache and enqueue them in bulk,
			// retrying the remainder on backpressure — never dropping, so
			// the tallies stay exact. The pool's shared ring is only
			// touched in cache spans; the retrieval side recycles through
			// per-goroutine caches on the same pool.
			pool := mbuf.NewPool(2048)
			cache := pool.NewCache()
			defer cache.Flush()
			frames := perQ[q]
			batch := make([]*mbuf.Mbuf, 32)
			for off := 0; off < len(frames); {
				want := len(frames) - off
				if want > len(batch) {
					want = len(batch)
				}
				n := cache.GetBurst(batch[:want])
				for n == 0 {
					goruntime.Gosched() // consumers own every mbuf; let them drain
					n = cache.GetBurst(batch[:want])
				}
				for i := 0; i < n; i++ {
					batch[i].SetFrame(frames[off+i])
				}
				for enq := 0; enq < n; {
					k := rings[q].EnqueueBurst(batch[enq:n])
					if k == 0 {
						goruntime.Gosched() // backpressure: retry, never drop
					}
					enq += k
				}
				off += n
			}
		}(q)
	}
	prod.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for nFwd.Load()+nCon.Load()+nDrp.Load() < int64(npkts) && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	elapsed = time.Since(start)
	cancel()
	wg.Wait()
	for t := 0; t < m; t++ {
		cpuSec += bus.Thread(telemetry.BusySeconds, t)
	}
	return nFwd.Load(), nCon.Load(), nDrp.Load(), elapsed, cpuSec
}

// appsRoutes gives every per-queue forwarder the same table: a 0.0.0.0/1
// default plus a 192/8 split, so FrameGen's random destinations exercise
// both the Forward and NoRoute paths deterministically.
func appsRoutes(f *l3fwd.Forwarder) {
	if err := f.Table.Add(0, 1, 0); err != nil {
		panic(err)
	}
	if err := f.Table.Add(packet.AddrFrom4(192, 0, 0, 0), 8, 1); err != nil {
		panic(err)
	}
}

func newAppsForwarder() *l3fwd.Forwarder {
	f := l3fwd.New([]l3fwd.Port{
		{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, GwMAC: packet.MAC{2, 0, 0, 0, 1, 1}},
		{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, GwMAC: packet.MAC{2, 0, 0, 0, 1, 2}},
	})
	appsRoutes(f)
	return f
}

func newAppsGateway(seed uint64) *ipsecgw.Gateway {
	g := ipsecgw.New(seed)
	sa := &ipsecgw.SA{
		SPI:       0x3003,
		EncKey:    [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		AuthKey:   [20]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7},
		TunnelSrc: packet.AddrFrom4(192, 0, 2, 1),
		TunnelDst: packet.AddrFrom4(198, 51, 100, 1),
	}
	if err := g.AddSA(sa, 0, 0); err != nil {
		panic(err)
	}
	return g
}

// appsArm is one accounting row: build per-queue shards, drive, tally.
type appsArm struct {
	name  string
	procs func() []apps.BurstProcessor
	// tally renders the app-specific counter summary after the drive.
	tally func() string
}

func runAppsPlane(o Options) []*Table {
	const nQueues = 2
	npkts := 300000
	if o.Quick {
		npkts = 30000
	}

	arms := func() []appsArm {
		fwds := []*l3fwd.Forwarder{newAppsForwarder(), newAppsForwarder()}
		gws := []*ipsecgw.Gateway{newAppsGateway(1), newAppsGateway(2)}
		sharded := flowatcher.NewSharded(nQueues)
		return []appsArm{
			{
				name: "l3fwd",
				procs: func() []apps.BurstProcessor {
					return []apps.BurstProcessor{fwds[0], fwds[1]}
				},
				tally: func() string {
					var fw, nr, ex, mf int64
					for _, f := range fwds {
						fw += f.Forwarded
						nr += f.NoRoute
						ex += f.Expired
						mf += f.Malformed
					}
					return fmt.Sprintf("forwarded=%d noroute=%d expired=%d malformed=%d", fw, nr, ex, mf)
				},
			},
			{
				name: "ipsecgw",
				procs: func() []apps.BurstProcessor {
					return []apps.BurstProcessor{gws[0], gws[1]}
				},
				tally: func() string {
					var enc, miss int64
					for _, g := range gws {
						enc += g.Encapsulated
						miss += g.PolicyMisses
					}
					return fmt.Sprintf("encapsulated=%d policy_misses=%d", enc, miss)
				},
			},
			{
				name:  "flowatcher",
				procs: sharded.Procs,
				tally: func() string {
					top := sharded.TopK(1)
					topPkts := int64(0)
					if len(top) == 1 {
						if fs, ok := sharded.Flow(top[0]); ok {
							topPkts = fs.Packets
						}
					}
					return fmt.Sprintf("flows=%d merged_pkts=%d top1_pkts=%d",
						sharded.FlowCount(), sharded.Packets(), topPkts)
				},
			},
		}
	}

	// Panel 1 — exact accounting. Per-queue FIFOs, backpressure-retrying
	// producers and per-queue shards make every tally exact, so this table
	// renders byte-identically at any parallelism and on any host.
	acctArms := arms()
	acctRows := parMap(o, len(acctArms), func(i int) []string {
		a := acctArms[i]
		fwd, con, drp, _, _ := appsDrive(a.procs(), npkts, o.Seed+uint64(1700+i))
		return []string{
			a.name,
			fmt.Sprintf("%d", nQueues),
			fmt.Sprintf("%d", npkts),
			fmt.Sprintf("%d", fwd),
			fmt.Sprintf("%d", con),
			fmt.Sprintf("%d", drp),
			a.tally(),
		}
	})
	acct := &Table{
		ID:      "fig-apps-accounting",
		Title:   fmt.Sprintf("live runner burst path: exact packet accounting, %d pkts over %d RSS queues", npkts, nQueues),
		Columns: []string{"app", "queues", "pkts", "forward", "consume", "drop", "app_counters"},
		Rows:    acctRows,
		Notes: []string{
			"every packet is accounted: producers retry on ring backpressure instead of dropping, each Rx queue feeds its own processor shard behind the runner's per-queue trylock, and the emit callback recycles each mbuf after tallying its verdict",
			"flowatcher runs as flowatcher.NewSharded: per-queue private arena tables, merged exactly at read time — flows= is the deduplicated cross-shard count",
			"tallies are exact counts, so this table is byte-identical at any -par and across hosts; only the full run's throughput panel measures wall-clock",
		},
	}
	tables := []*Table{acct}

	// Panel 2 — measured throughput, native burst vs PerPacket shim. Wall
	// clock is host-dependent, so this panel only renders in full runs
	// (the determinism suite diffs quick output).
	if !o.Quick {
		type mppsArm struct {
			name string
			nat  func() []apps.BurstProcessor
			shim func() []apps.BurstProcessor
		}
		wrap := func(ps []apps.BurstProcessor) []apps.BurstProcessor {
			out := make([]apps.BurstProcessor, len(ps))
			for i, p := range ps {
				out[i] = apps.PerPacket{P: p}
			}
			return out
		}
		mppsArms := []mppsArm{
			{
				name: "l3fwd",
				nat: func() []apps.BurstProcessor {
					return []apps.BurstProcessor{newAppsForwarder(), newAppsForwarder()}
				},
				shim: func() []apps.BurstProcessor {
					return wrap([]apps.BurstProcessor{newAppsForwarder(), newAppsForwarder()})
				},
			},
			{
				name: "flowatcher",
				nat:  func() []apps.BurstProcessor { return flowatcher.NewSharded(nQueues).Procs() },
				shim: func() []apps.BurstProcessor { return wrap(flowatcher.NewSharded(nQueues).Procs()) },
			},
		}
		rows := make([][]string, 0, len(mppsArms))
		for i, a := range mppsArms {
			// Serial on purpose: concurrent deployments would contend for
			// cores and distort each other's measurements.
			_, _, _, natT, natCPU := appsDrive(a.nat(), npkts, o.Seed+uint64(1750+i))
			_, _, _, _, shimCPU := appsDrive(a.shim(), npkts, o.Seed+uint64(1750+i))
			natNs := natCPU * 1e9 / float64(npkts)
			shimNs := shimCPU * 1e9 / float64(npkts)
			rows = append(rows, []string{
				a.name,
				f2(float64(npkts) / natT.Seconds() / 1e6),
				f1(natNs),
				f1(shimNs),
				f2(shimNs / natNs),
			})
		}
		tables = append(tables, &Table{
			ID:      "fig-apps-mpps",
			Title:   "measured live retrieval cost: native burst dispatch vs per-packet shim",
			Columns: []string{"app", "wall_mpps", "burst_cpu_ns_pkt", "shim_cpu_ns_pkt", "cpu_saving_x"},
			Rows:    rows,
			Notes: []string{
				"cpu_ns_pkt is the retrieval threads' summed on-CPU time (telemetry bus ThreadBusy) divided by packets: unlike wall clock — which is producer/ring bound in this harness — it isolates what the dispatch path costs the team",
				"the saving here is diluted by ring dequeue, mbuf recycling and verdict emission riding in the same cycle, so it compresses the pure-dispatch gap gated in BENCH_apps.json (l3fwd >= 2x there)",
				"mbuf plane before/after: producers now lease whole bursts from per-producer mempool caches and the emit path bulk-returns each verdict burst (before: every packet paid two contended mutex acquisitions on one pool lock); the isolated retrieval-path cost is gated in BENCH_mbuf.json at >= 3x over the mutex pool under 4-goroutine contention",
				"ipsecgw is omitted: AES-CBC+HMAC at ~1.4us/pkt saturates the arm on crypto, measuring the cipher rather than the dispatch path",
			},
		})
	}
	return tables
}
