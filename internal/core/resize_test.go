package core

import (
	"math"
	"testing"

	"metronome/internal/nic"
	"metronome/internal/sched"
	"metronome/internal/sim"
	"metronome/internal/stats"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// resizeRig builds a 2-queue runtime with a scripted resize sequence
// driven by engine events, and returns final metrics plus per-thread
// cycle counts.
func resizeRig(t *testing.T, policy string, resizes map[float64]int, dur float64, seed uint64) (*Runtime, Metrics) {
	t.Helper()
	eng := sim.New()
	root := xrand.New(seed)
	queues := make([]*nic.Queue, 2)
	for i := range queues {
		opt := nic.DefaultOptions()
		opt.Cap = 4096
		queues[i] = nic.NewQueue(i, traffic.CBR{PPS: 8e6}, root.Split(), opt)
	}
	cfg := DefaultConfig()
	cfg.M = 2
	cfg.VBar = 15e-6
	cfg.Policy = policy
	cfg.Seed = seed
	cfg.Bus = telemetry.NewBus(2, 16)
	r := New(eng, queues, cfg)
	r.Start()
	for at, m := range resizes {
		at, m := at, m
		eng.At(at, "test-resize", func() { r.SetTeamSize(m) })
	}
	eng.RunUntil(dur)
	return r, r.Snapshot(dur)
}

func TestSetTeamSizeGrowAndShrink(t *testing.T) {
	for _, policy := range []string{sched.NameAdaptive, sched.NameRMetronome} {
		r, m := resizeRig(t, policy, map[float64]int{
			0.01: 6, // grow mid-run
			0.03: 2, // retire the extras
		}, 0.05, 7)
		if r.TeamSize() != 2 {
			t.Fatalf("%s: final team %d, want 2", policy, r.TeamSize())
		}
		if r.ThreadCount() != 6 {
			t.Fatalf("%s: thread slots %d, want 6 (retirees parked, not destroyed)", policy, r.ThreadCount())
		}
		// The grown threads actually served while active.
		var grownCycles int64
		for id := 2; id < 6; id++ {
			grownCycles += r.CyclesByThread[id]
		}
		if grownCycles == 0 {
			t.Fatalf("%s: grown threads never served a cycle", policy)
		}
		if m.Cycles == 0 || m.LossRate > 0.01 {
			t.Fatalf("%s: degenerate run: %+v", policy, m)
		}
		// Resizable policies adopted the final size.
		if rz, ok := r.Policy().(sched.Resizable); ok {
			if rz.TeamSize() != 2 {
				t.Fatalf("%s: policy team size %d, want 2", policy, rz.TeamSize())
			}
		} else {
			t.Fatalf("%s: policy is not Resizable", policy)
		}
	}
}

func TestRetiredThreadsStopServing(t *testing.T) {
	r, _ := resizeRig(t, sched.NameAdaptive, map[float64]int{0.02: 2}, 0.06, 9)
	_ = r
	// Re-run with an observation window: capture cycle counts at the
	// retire point and at the end; retirees must not serve afterwards.
	eng := sim.New()
	root := xrand.New(11)
	queues := []*nic.Queue{
		nic.NewQueue(0, traffic.CBR{PPS: 8e6}, root.Split(), nic.DefaultOptions()),
		nic.NewQueue(1, traffic.CBR{PPS: 8e6}, root.Split(), nic.DefaultOptions()),
	}
	cfg := DefaultConfig()
	cfg.M = 6
	cfg.Policy = sched.NameAdaptive
	cfg.Seed = 11
	rt := New(eng, queues, cfg)
	rt.Start()
	var atRetire []int64
	eng.At(0.02, "retire", func() {
		rt.SetTeamSize(2)
		atRetire = append([]int64(nil), rt.CyclesByThread...)
	})
	eng.RunUntil(0.06)
	// A retiree may finish the one cycle it already had in flight (or its
	// last pending timer may win one more race) but must then park: allow
	// at most one extra cycle each.
	for id := 2; id < 6; id++ {
		if rt.CyclesByThread[id] > atRetire[id]+1 {
			t.Fatalf("retired thread %d kept serving: %d -> %d cycles",
				id, atRetire[id], rt.CyclesByThread[id])
		}
	}
	// The survivors kept the queues alive.
	if rt.CyclesByThread[0] == 0 || rt.CyclesByThread[1] == 0 {
		t.Fatal("survivors served nothing")
	}
}

// TestResizeDeterministic pins the elastic substrate's determinism
// contract: identical configs and resize scripts produce identical runs.
func TestResizeDeterministic(t *testing.T) {
	run := func() Metrics {
		_, m := resizeRig(t, sched.NameRMetronome, map[float64]int{
			0.008: 5,
			0.02:  3,
			0.034: 6,
		}, 0.05, 21)
		return m
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Tries != b.Tries || a.RxPackets != b.RxPackets ||
		a.CPUPercent != b.CPUPercent || a.MeanVacation != b.MeanVacation {
		t.Fatalf("scripted-resize runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestProvisionedThreadSecondsIntegral(t *testing.T) {
	r, _ := resizeRig(t, sched.NameAdaptive, map[float64]int{0.02: 6}, 0.05, 13)
	// 2 threads for 0.02 s, then 6 threads for 0.03 s.
	want := 2*0.02 + 6*0.03
	got := r.ProvisionedThreadSeconds(0.05)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("provisioned thread-seconds = %v, want %v", got, want)
	}
	r.ResetWindow(0.05)
	if got := r.ProvisionedThreadSeconds(0.05); got != 0 {
		t.Fatalf("after reset: %v", got)
	}
}

func TestSetTeamSizeClampsToQueueCount(t *testing.T) {
	r, _ := resizeRig(t, sched.NameAdaptive, nil, 0.01, 5)
	if applied := r.SetTeamSize(1); applied != 2 {
		t.Fatalf("SetTeamSize(1) applied %d, want clamp to N=2", applied)
	}
	if applied := r.SetTeamSize(0); applied != 2 {
		t.Fatalf("SetTeamSize(0) applied %d, want clamp to N=2", applied)
	}
}

// TestBusPublishesDuringRun checks the telemetry plane carries live
// signals: occupancy/rho/counters move for every queue under load.
func TestBusPublishesDuringRun(t *testing.T) {
	r, _ := resizeRig(t, sched.NameRMetronome, nil, 0.03, 17)
	bus := r.Cfg.Bus
	for q := 0; q < 2; q++ {
		if bus.Load(telemetry.Tries, q) == 0 {
			t.Errorf("queue %d: no tries published", q)
		}
		if bus.Load(telemetry.Rx, q) == 0 {
			t.Errorf("queue %d: no rx published", q)
		}
		if bus.Get(telemetry.Rho, q) <= 0 {
			t.Errorf("queue %d: rho never published", q)
		}
		if bus.Get(telemetry.Capacity, q) != 4096 {
			t.Errorf("queue %d: capacity = %v", q, bus.Get(telemetry.Capacity, q))
		}
	}
	var busy float64
	for i := 0; i < r.ThreadCount(); i++ {
		busy += bus.Thread(telemetry.BusySeconds, i)
	}
	if busy <= 0 {
		t.Error("no per-thread duty published")
	}
}

// TestResetWindowZeroesEveryWindowedStat pins the warm-up reset: after a
// multi-queue run with a bus and a mid-run grow, ResetWindow must leave
// every windowed statistic core owns at zero — counters (total, per queue,
// per thread), CPU, queue stats, the provisioning integrals and the bus
// latency histograms. A windowed stat added without a reset fails here.
func TestResetWindowZeroesEveryWindowedStat(t *testing.T) {
	const now = 0.03
	r, before := resizeRig(t, sched.NameRMetronome, map[float64]int{0.01: 6}, now, 7)
	var h stats.LogHistogram
	r.Cfg.Bus.SampleLatency(1, &h)
	if before.Tries == 0 || before.Served == 0 || r.CyclesByThread[5] == 0 ||
		r.Acct.TotalBusy() == 0 || r.ProvisionedThreadSeconds(now) == 0 || h.N() == 0 {
		t.Fatalf("rig accumulated nothing to reset: %+v", before)
	}
	r.ResetWindow(now)
	m := r.Snapshot(0)
	if m.Tries != 0 || m.BusyTries != 0 || m.Cycles != 0 {
		t.Errorf("counters survived: tries %d busy %d cycles %d", m.Tries, m.BusyTries, m.Cycles)
	}
	if m.RxPackets != 0 || m.Served != 0 || m.Drops != 0 || r.Acct.TotalBusy() != 0 {
		t.Errorf("window stats survived: rx %d served %d drops %d cpu %vs",
			m.RxPackets, m.Served, m.Drops, r.Acct.TotalBusy())
	}
	for q, c := range m.CyclesQ {
		if c != 0 || r.TriesQ[q] != 0 || r.BusyTriesQ[q] != 0 {
			t.Errorf("queue %d: cycles %d tries %d busy %d", q, c, r.TriesQ[q], r.BusyTriesQ[q])
		}
	}
	for id, c := range r.CyclesByThread {
		if c != 0 {
			t.Errorf("thread %d: %d cycles", id, c)
		}
	}
	if got := r.ProvisionedThreadSeconds(now); got != 0 {
		t.Errorf("provisioned thread-seconds %v", got)
	}
	for q, v := range r.ProvisionedThreadSecondsQ(now) {
		if v != 0 {
			t.Errorf("queue %d provisioned %v", q, v)
		}
	}
	for q := range r.Queues {
		var h stats.LogHistogram
		r.Cfg.Bus.SampleLatency(q, &h)
		if h.N() != 0 {
			t.Errorf("queue %d latency histogram holds %d samples", q, h.N())
		}
	}
}
