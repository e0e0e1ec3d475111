package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"metronome/internal/hrtimer"
	"metronome/internal/model"
	"metronome/internal/nic"
	"metronome/internal/sched"
	"metronome/internal/sim"
	"metronome/internal/stats"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

const us = 1e-6

// runSingle spins up a single-queue Metronome over a CBR load.
func runSingle(t *testing.T, pps float64, cfg Config, dur float64) (*Runtime, Metrics) {
	t.Helper()
	eng := sim.New()
	rng := xrand.New(cfg.Seed + 1000)
	q := nic.NewQueue(0, traffic.CBR{PPS: pps}, rng, nic.DefaultOptions())
	r := New(eng, []*nic.Queue{q}, cfg)
	r.Start()
	eng.RunUntil(dur)
	return r, r.Snapshot(dur)
}

func TestLineRateNoLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	_, m := runSingle(t, 14.88e6, cfg, 0.5)
	if m.LossRate > 1e-4 {
		t.Errorf("loss at line rate = %v (Table I says ~0 at vbar=10us)", m.LossRate)
	}
	// Load estimate should hover near lambda/mu = 0.5.
	if m.RhoEst[0] < 0.3 || m.RhoEst[0] > 0.7 {
		t.Errorf("rho estimate = %v, want ~0.5", m.RhoEst[0])
	}
	// Throughput matches the offered load.
	if math.Abs(m.ThroughputPPS-14.88e6)/14.88e6 > 0.02 {
		t.Errorf("throughput = %v pps", m.ThroughputPPS)
	}
	// CPU in the paper's ballpark (~60% at line rate, vs 100% static).
	if m.CPUPercent < 35 || m.CPUPercent > 85 {
		t.Errorf("CPU = %v%%, want paper-shaped ~60%%", m.CPUPercent)
	}
}

func TestCPUScalesWithLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 2
	_, hi := runSingle(t, 14.88e6, cfg, 0.3)
	_, mid := runSingle(t, 7.44e6, cfg, 0.3)
	_, lo := runSingle(t, 0.744e6, cfg, 0.3)
	if !(hi.CPUPercent > mid.CPUPercent && mid.CPUPercent > lo.CPUPercent) {
		t.Errorf("CPU not monotone with load: %v / %v / %v",
			hi.CPUPercent, mid.CPUPercent, lo.CPUPercent)
	}
	// Fig 10b: ~5x gap between line rate and 0.5 Gbps-class load.
	if lo.CPUPercent > 30 {
		t.Errorf("low-load CPU = %v%%, paper ~18.6%%", lo.CPUPercent)
	}
}

func TestVacationTracksTarget(t *testing.T) {
	// The adaptive rule holds the measured vacation near the target
	// (within the sleep-service overhead) across a wide load range.
	cfg := DefaultConfig()
	cfg.Seed = 3
	for _, pps := range []float64{14.88e6, 7.44e6, 1.488e6} {
		_, m := runSingle(t, pps, cfg, 0.3)
		if m.MeanVacation < 0.8*cfg.VBar || m.MeanVacation > 3.5*cfg.VBar {
			t.Errorf("pps=%v: mean vacation %v vs target %v", pps, m.MeanVacation, cfg.VBar)
		}
	}
}

func TestTableOneShape(t *testing.T) {
	// Larger targets -> larger measured V, larger NV (Little), more risk.
	cfg := DefaultConfig()
	cfg.Seed = 4
	var prevV, prevNV float64
	for _, vbar := range []float64{5 * us, 10 * us, 20 * us} {
		cfg.VBar = vbar
		_, m := runSingle(t, 14.88e6, cfg, 0.3)
		if m.MeanVacation <= prevV || m.MeanNV <= prevNV {
			t.Errorf("vbar=%v: V=%v NV=%v not increasing", vbar, m.MeanVacation, m.MeanNV)
		}
		// Little's law ties NV to V at line rate.
		want := 14.88e6 * m.MeanVacation
		if math.Abs(m.MeanNV-want)/want > 0.25 {
			t.Errorf("vbar=%v: NV=%v, Little says %v", vbar, m.MeanNV, want)
		}
		prevV, prevNV = m.MeanVacation, m.MeanNV
	}
}

func TestBusyTriesGrowWithM(t *testing.T) {
	// Fig 7: busy tries increase with the number of threads.
	cfg := DefaultConfig()
	cfg.Seed = 5
	var prev float64 = -1
	for _, m := range []int{2, 4, 6} {
		cfg.M = m
		_, met := runSingle(t, 14.88e6, cfg, 0.3)
		if met.BusyTryFrac <= prev {
			t.Errorf("M=%d: busy tries %.3f not increasing (prev %.3f)", m, met.BusyTryFrac, prev)
		}
		prev = met.BusyTryFrac
	}
}

func TestBusyTriesShrinkWithTL(t *testing.T) {
	// Fig 6: longer TL -> fewer wasted wakeups.
	cfg := DefaultConfig()
	cfg.Seed = 6
	cfg.TL = 100 * us
	_, short := runSingle(t, 14.88e6, cfg, 0.3)
	cfg.TL = 700 * us
	_, long := runSingle(t, 14.88e6, cfg, 0.3)
	if long.BusyTryFrac >= short.BusyTryFrac {
		t.Errorf("TL=700us busy tries %.3f >= TL=100us %.3f", long.BusyTryFrac, short.BusyTryFrac)
	}
	if long.CPUPercent >= short.CPUPercent {
		t.Errorf("TL=700us CPU %.1f >= TL=100us %.1f", long.CPUPercent, short.CPUPercent)
	}
}

func TestEqualTimeoutsWasteCPUAtHighLoad(t *testing.T) {
	// The motivation for the primary/backup split (Sec. IV-A): with all
	// timeouts equal to TS, high load degrades into constant busy tries.
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Adaptive = false
	cfg.TSFixed = 10 * us
	cfg.TL = 10 * us // equal timeouts
	_, eq := runSingle(t, 14.88e6, cfg, 0.3)
	cfg2 := DefaultConfig()
	cfg2.Seed = 7
	_, split := runSingle(t, 14.88e6, cfg2, 0.3)
	if eq.BusyTryFrac <= split.BusyTryFrac {
		t.Errorf("equal timeouts busy-tries %.3f <= split %.3f", eq.BusyTryFrac, split.BusyTryFrac)
	}
}

func TestFig4VacationDistribution(t *testing.T) {
	// TS=TL=50us, fixed: the measured vacation PDF must match eq (5)/(9)
	// under the decorrelation assumption. As in the paper, samples come
	// from an ensemble of runs (they collected a million samples); the
	// service-time and dispatch noise provide the physical de-phasing.
	for _, m := range []int{2, 3, 5} {
		// effective timeout includes the sleep-service overhead
		tsEff := 50*us*1.0566 + 2.79*us
		hist := stats.NewHistogram(0, 70*us, 70)
		for run := 0; run < 12; run++ {
			cfg := DefaultConfig()
			cfg.Seed = uint64(80 + m*100 + run)
			cfg.M = m
			cfg.Adaptive = false
			cfg.TSFixed = 50 * us
			cfg.TL = 50 * us
			cfg.OnCycle = func(q int, v, b float64) { hist.Add(v) }

			eng := sim.New()
			rng := xrand.New(cfg.Seed)
			// The decorrelation hypothesis concerns wake times only, so
			// the cleanest validation polls an idle queue: any load adds a
			// busy-period drag that clusters thread phases (an effect the
			// TS/TL split is designed to break, but this config disables
			// it by setting TS=TL).
			q := nic.NewQueue(0, traffic.CBR{PPS: 0}, rng, nic.DefaultOptions())
			r := New(eng, []*nic.Queue{q}, cfg)
			r.Start()
			eng.RunUntil(0.5)
		}

		if hist.N() < 10000 {
			t.Fatalf("M=%d: only %d vacation samples", m, hist.N())
		}
		ks := hist.KSDistance(func(x float64) float64 {
			return model.CDFVHighLoad(x, tsEff, tsEff, m)
		})
		if ks > 0.08 {
			t.Errorf("M=%d: KS distance vs eq(5) = %.4f, want < 0.08 (decorrelation)", m, ks)
		}
	}
}

func TestAdaptationToRamp(t *testing.T) {
	// Fig 9: rho must track the MoonGen ramp up and down.
	cfg := DefaultConfig()
	cfg.Seed = 9
	eng := sim.New()
	rng := xrand.New(99)
	ramp := traffic.Ramp{Peak: 14e6, Duration: 60, StepEvery: 2}
	q := nic.NewQueue(0, ramp, rng, nic.DefaultOptions())
	r := New(eng, []*nic.Queue{q}, cfg)
	r.Start()

	var rhoAt []float64
	for _, at := range []float64{5, 30, 55} {
		at := at
		eng.At(at, "sample", func() { rhoAt = append(rhoAt, r.Rho(0)) })
	}
	eng.RunUntil(60)
	if len(rhoAt) != 3 {
		t.Fatal("samples missing")
	}
	if !(rhoAt[1] > rhoAt[0] && rhoAt[1] > rhoAt[2]) {
		t.Errorf("rho did not track the ramp: %v", rhoAt)
	}
	if rhoAt[1] < 0.25 {
		t.Errorf("apex rho = %v, want close to 14/29.76", rhoAt[1])
	}
}

func TestOverloadNeverReleases(t *testing.T) {
	// The IPsec observation (Sec. V-G): at rho >= 1 one thread keeps the
	// lock and CPU goes to ~100% of one core while others back off.
	cfg := DefaultConfig()
	cfg.Seed = 10
	cfg.Mu = 5.61e6 // IPsec-grade service rate
	_, m := runSingle(t, 6e6, cfg, 0.3)
	if m.CPUPercent < 90 {
		t.Errorf("overload CPU = %v%%, want ~100%%", m.CPUPercent)
	}
	// Throughput pinned at mu, the rest dropped.
	if math.Abs(m.ThroughputPPS-5.61e6)/5.61e6 > 0.05 {
		t.Errorf("overload throughput = %v", m.ThroughputPPS)
	}
	if m.Drops == 0 {
		t.Error("no drops under overload")
	}
}

func TestMultiqueueBalanced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.M = 5
	cfg.VBar = 15 * us
	eng := sim.New()
	rng := xrand.New(5)
	var queues []*nic.Queue
	for i := 0; i < 4; i++ {
		queues = append(queues, nic.NewQueue(i,
			traffic.CBR{PPS: 37e6 / 4}, rng.Split(), nic.DefaultOptions()))
	}
	r := New(eng, queues, cfg)
	r.Start()
	eng.RunUntil(0.3)
	m := r.Snapshot(0.3)
	if m.LossRate > 1e-3 {
		t.Errorf("multiqueue loss = %v", m.LossRate)
	}
	// Fig 15: Metronome ~150% vs static 400% at 37 Mpps over 4 queues.
	if m.CPUPercent < 80 || m.CPUPercent > 260 {
		t.Errorf("multiqueue CPU = %v%%", m.CPUPercent)
	}
	// All queues served comparably.
	for qi, q := range queues {
		if q.Served == 0 {
			t.Errorf("queue %d starved", qi)
		}
	}
}

func TestMultiqueueUnbalanced(t *testing.T) {
	// Table III: the heavy queue shows higher rho and fewer total tries.
	cfg := DefaultConfig()
	cfg.Seed = 12
	cfg.M = 6
	cfg.VBar = 15 * us
	eng := sim.New()
	rng := xrand.New(6)
	shares := traffic.UnbalancedShares(0.30, 3)
	total := 30e6
	var queues []*nic.Queue
	heavyIdx := 0
	for i, s := range shares {
		if s > 0.4 {
			heavyIdx = i
		}
		queues = append(queues, nic.NewQueue(i,
			traffic.CBR{PPS: total * s}, rng.Split(), nic.DefaultOptions()))
	}
	r := New(eng, queues, cfg)
	r.Start()
	eng.RunUntil(0.5)
	for i := range queues {
		if i == heavyIdx {
			continue
		}
		if r.Rho(heavyIdx) <= r.Rho(i) {
			t.Errorf("heavy queue rho %.3f <= light queue %d rho %.3f",
				r.Rho(heavyIdx), i, r.Rho(i))
		}
	}
	// Heavy queue's busy periods are longer, so it completes fewer cycles.
	if queues[heavyIdx].BusyObs.N() >= queues[(heavyIdx+1)%3].BusyObs.N() {
		t.Errorf("heavy queue completed more cycles than a light one")
	}
}

// TestBusSizedForDeployment: a telemetry bus with fewer queue slots than the
// deployment has queues is refused at construction, by a message naming both
// counts — not by an index panic from whichever publish comes first.
func TestBusSizedForDeployment(t *testing.T) {
	for _, tc := range []struct {
		name string
		bus  *telemetry.Bus
		ok   bool
	}{
		{"equal", telemetry.NewBus(2, 4), true},
		{"larger", telemetry.NewBus(5, 4), true},
		{"smaller", telemetry.NewBus(1, 4), false},
		{"nil bus", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if tc.ok && msg != "<nil>" {
					t.Fatalf("refused: %s", msg)
				}
				if !tc.ok && (!strings.Contains(msg, "1 queue slots") || !strings.Contains(msg, "2 queues")) {
					t.Fatalf("panic %q does not name both counts", msg)
				}
			}()
			cfg := DefaultConfig()
			cfg.Bus = tc.bus
			_, m := runMulti(t, cfg, 2, 4e6, 2e-3)
			if m.Cycles == 0 {
				t.Fatal("accepted deployment served nothing")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 13
	_, a := runSingle(t, 10e6, cfg, 0.2)
	_, b := runSingle(t, 10e6, cfg, 0.2)
	if a.CPUPercent != b.CPUPercent || a.RxPackets != b.RxPackets ||
		a.BusyTries != b.BusyTries || a.Latency.Mean != b.Latency.Mean {
		t.Errorf("same seed, different runs:\n%+v\n%+v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New()
	q := nic.NewQueue(0, traffic.CBR{PPS: 1}, xrand.New(1), nic.DefaultOptions())
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("zero threads", func() {
		New(eng, []*nic.Queue{q}, Config{M: 0})
	})
	mustPanic("no queues", func() {
		New(eng, nil, Config{M: 1})
	})
	mustPanic("M < N", func() {
		q2 := nic.NewQueue(1, traffic.CBR{PPS: 1}, xrand.New(2), nic.DefaultOptions())
		New(eng, []*nic.Queue{q, q2}, Config{M: 1})
	})
}

func TestLatencySamplesReasonable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 14
	_, m := runSingle(t, 14.88e6, cfg, 0.3)
	if m.Latency.N < 100 {
		t.Fatalf("latency samples = %d", m.Latency.N)
	}
	// Fig 10a: Metronome mean latency ~13-25us at line rate (base 6.8us +
	// vacation-and-drain queueing).
	if m.Latency.Mean < 8*us || m.Latency.Mean > 40*us {
		t.Errorf("mean latency = %.1f us", m.Latency.Mean*1e6)
	}
	if m.Latency.Min < 6.8*us {
		t.Errorf("latency below the physical floor: %v", m.Latency.Min)
	}
}

func TestPatchedSleepLowersLatencyFloor(t *testing.T) {
	// Sec V-C: Tx batch 1 + patched hr_sleep approaches DPDK's floor.
	cfgA := DefaultConfig()
	cfgA.Seed = 15
	cfgA.VBar = 2 * us
	cfgA.Sleep = hrtimer.HRSleepPatched
	eng := sim.New()
	opt := nic.DefaultOptions()
	opt.TxBatch = 1
	q := nic.NewQueue(0, traffic.CBR{PPS: 1.488e6}, xrand.New(16), opt)
	r := New(eng, []*nic.Queue{q}, cfgA)
	r.Start()
	eng.RunUntil(0.3)
	tuned := r.Snapshot(0.3)

	cfgB := DefaultConfig()
	cfgB.Seed = 15
	_, stock := runSingle(t, 1.488e6, cfgB, 0.3)
	if tuned.Latency.Mean >= stock.Latency.Mean {
		t.Errorf("tuned latency %.2fus >= stock %.2fus",
			tuned.Latency.Mean*1e6, stock.Latency.Mean*1e6)
	}
}

func BenchmarkRuntimeLineRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Seed = uint64(i)
		eng := sim.New()
		q := nic.NewQueue(0, traffic.CBR{PPS: 14.88e6}, xrand.New(uint64(i)), nic.DefaultOptions())
		r := New(eng, []*nic.Queue{q}, cfg)
		r.Start()
		eng.RunUntil(0.05)
	}
}

// Steady-state Metronome cycles must not allocate once the engine's free
// list and the queue's tag buffers are warm: pre-bound thread callbacks
// plus event recycling leave nothing for the garbage collector on the
// wakeup/serve/release path. (Latency tagging is disabled: tag appends are
// the one legitimately amortised allocation.)
func TestSteadyStateCycleAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 9
	eng := sim.New()
	opt := nic.DefaultOptions()
	opt.TagProb = 0
	q := nic.NewQueue(0, traffic.CBR{PPS: 14.88e6}, xrand.New(9), opt)
	r := New(eng, []*nic.Queue{q}, cfg)
	r.Start()
	next := 10e-3
	eng.RunUntil(next) // warm-up: settle adaptation, grow event pools
	allocs := testing.AllocsPerRun(50, func() {
		next += 1e-3
		eng.RunUntil(next)
	})
	if allocs != 0 {
		t.Fatalf("steady-state cycles allocate %.1f per ms window, want 0", allocs)
	}
}

// runMulti spins up an N-queue Metronome over an even CBR split.
func runMulti(t *testing.T, cfg Config, nq int, totalPPS, dur float64) (*Runtime, Metrics) {
	t.Helper()
	eng := sim.New()
	root := xrand.New(cfg.Seed + 2000)
	queues := make([]*nic.Queue, nq)
	for i := range queues {
		queues[i] = nic.NewQueue(i, traffic.CBR{PPS: totalPPS / float64(nq)}, root.Split(), nic.DefaultOptions())
	}
	r := New(eng, queues, cfg)
	r.Start()
	eng.RunUntil(dur)
	return r, r.Snapshot(dur)
}

// TestRMetronomeCycleAccounting pins the multi-thread-per-queue accounting:
// per-queue and per-thread cycle splits sum to the total, every group
// member takes service turns, and the policy's turn counter matches the
// cycles the twin actually began.
func TestRMetronomeCycleAccounting(t *testing.T) {
	for _, policy := range []string{sched.NameRMetronome, sched.NameWorkSteal} {
		cfg := DefaultConfig()
		cfg.M = 4
		cfg.Policy = policy
		cfg.Seed = 9
		rt, m := runMulti(t, cfg, 2, 10e6, 0.05)
		if rt.Group() == nil {
			t.Fatalf("%s: no GroupPolicy", policy)
		}
		var sumQ, sumT int64
		for q, c := range rt.CyclesQ {
			if c == 0 {
				t.Errorf("%s: queue %d never served", policy, q)
			}
			sumQ += c
		}
		for id, c := range rt.CyclesByThread {
			if c == 0 {
				t.Errorf("%s: thread %d never took a service turn", policy, id)
			}
			sumT += c
		}
		if sumQ != rt.Cycles.Value || sumT != rt.Cycles.Value {
			t.Errorf("%s: cycle splits sum to %d (queues) / %d (threads), want %d",
				policy, sumQ, sumT, rt.Cycles.Value)
		}
		if len(m.CyclesQ) != 2 || m.CyclesQ[0] != rt.CyclesQ[0] {
			t.Errorf("%s: Metrics.CyclesQ = %v, runtime %v", policy, m.CyclesQ, rt.CyclesQ)
		}
		// In the sequential twin a turn is claimed exactly when a cycle
		// begins, so the counters can differ only by an in-flight cycle.
		for q := range rt.CyclesQ {
			turns := int64(rt.Group().Turns(q))
			if turns < rt.CyclesQ[q] || turns > rt.CyclesQ[q]+1 {
				t.Errorf("%s: queue %d turns = %d, cycles = %d", policy, q, turns, rt.CyclesQ[q])
			}
		}
	}
}

// TestRMetronomeMembersReturnHome runs the shared-queue discipline with a
// hot and a cold queue: backups that steal a turn on the foreign queue must
// return home, so their home queue keeps being served.
func TestRMetronomeMembersReturnHome(t *testing.T) {
	eng := sim.New()
	root := xrand.New(4)
	queues := []*nic.Queue{
		nic.NewQueue(0, traffic.CBR{PPS: 12e6}, root.Split(), nic.DefaultOptions()),
		nic.NewQueue(1, traffic.CBR{PPS: 0.2e6}, root.Split(), nic.DefaultOptions()),
	}
	cfg := DefaultConfig()
	cfg.M = 4
	cfg.Policy = sched.NameWorkSteal
	cfg.Seed = 5
	r := New(eng, queues, cfg)
	r.Start()
	eng.RunUntil(0.05)
	// Both queues keep completing cycles: group membership did not leak
	// every thread to the hot queue.
	if r.CyclesQ[0] == 0 || r.CyclesQ[1] == 0 {
		t.Fatalf("queue starved: CyclesQ = %v", r.CyclesQ)
	}
	if m := r.Snapshot(0.05); m.LossRate > 0.05 {
		t.Errorf("loss = %v under a modest hot queue", m.LossRate)
	}
}

func TestBusPublishesTimeAveragedOccupancy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Bus = telemetry.NewBus(1, cfg.M)
	eng := sim.New()
	q := nic.NewQueue(0, traffic.CBR{PPS: 7e6}, xrand.New(9), nic.DefaultOptions())
	r := New(eng, []*nic.Queue{q}, cfg)
	r.Start()
	eng.RunUntil(0.01)
	avg := cfg.Bus.Get(telemetry.OccAvg, 0)
	if avg <= 0 {
		t.Fatalf("no time-averaged occupancy published: %v", avg)
	}
	if avg >= float64(q.Opt.Cap) {
		t.Fatalf("averaged occupancy %v exceeds ring capacity", avg)
	}
	// The cycle-window average must agree with the queue's own integral over
	// the run to the right order: both derive from the same fluid model.
	runAvg := q.OccIntegral() / 0.01
	if avg > 50*runAvg+1 {
		t.Errorf("published average %v wildly above run average %v", avg, runAvg)
	}
}

// TestBusLatencyHistogramMatchesExactSample is the sim half of the
// fidelity-plane equivalence contract: every tagged latency the queue
// records into its exact Sample is published to the bus histogram through
// the same value, so bucketing the raw sample by hand must reproduce the
// bus's buckets exactly.
func TestBusLatencyHistogramMatchesExactSample(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 77
	cfg.Bus = telemetry.NewBus(1, cfg.M)
	eng := sim.New()
	opt := nic.DefaultOptions()
	opt.TagProb = 0.05 // plenty of tagged packets in a short run
	q := nic.NewQueue(0, traffic.CBR{PPS: 5e6}, xrand.New(123), opt)
	r := New(eng, []*nic.Queue{q}, cfg)
	r.Start()
	eng.RunUntil(0.05)
	_ = r.Snapshot(0.05)

	var want stats.LogHistogram
	for _, v := range q.Lat.Values() {
		want.Record(stats.SecondsToNs(v))
	}
	if want.N() == 0 {
		t.Fatal("no tagged latencies recorded")
	}
	var got stats.LogHistogram
	cfg.Bus.SampleLatency(0, &got)
	if got.N() != want.N() {
		t.Fatalf("bus histogram N=%d, sample N=%d", got.N(), want.N())
	}
	for i := 0; i < stats.LogHistBuckets; i++ {
		if got.CountAt(i) != want.CountAt(i) {
			t.Fatalf("bucket %d: bus=%d sample=%d", i, got.CountAt(i), want.CountAt(i))
		}
	}
	// And the headline contract: the histogram's tail quantiles track the
	// exact sample's within one bucket's relative resolution.
	for _, p := range []float64{0.5, 0.99, 0.999} {
		exact := stats.SecondsToNs(q.Lat.Quantile(p))
		hist := got.Quantile(p)
		if hist < exact || float64(hist) > float64(exact)*(1+2.0/stats.LogHistSub)+1 {
			t.Errorf("p%.3f: hist=%d ns vs exact=%d ns", p*100, hist, exact)
		}
	}
}
