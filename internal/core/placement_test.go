package core

import (
	"math"
	"testing"

	"metronome/internal/nic"
	"metronome/internal/sched"
	"metronome/internal/sim"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// placementRig builds a 3-queue rmetronome runtime with a scripted
// placement sequence driven by engine events.
func placementRig(t *testing.T, plans map[float64][]int, dur float64, seed uint64) (*Runtime, Metrics) {
	t.Helper()
	eng := sim.New()
	root := xrand.New(seed)
	queues := make([]*nic.Queue, 3)
	for i := range queues {
		opt := nic.DefaultOptions()
		opt.Cap = 4096
		queues[i] = nic.NewQueue(i, traffic.CBR{PPS: 6e6}, root.Split(), opt)
	}
	cfg := DefaultConfig()
	cfg.M = 6
	cfg.VBar = 15e-6
	cfg.Policy = sched.NameRMetronome
	cfg.Seed = seed
	cfg.Bus = telemetry.NewBus(3, 16)
	r := New(eng, queues, cfg)
	r.Start()
	for at, plan := range plans {
		at, plan := at, plan
		eng.At(at, "test-place", func() { r.ApplyPlacement(plan) })
	}
	eng.RunUntil(dur)
	return r, r.Snapshot(dur)
}

func TestApplyPlacementMovesMembers(t *testing.T) {
	r, m := placementRig(t, map[float64][]int{
		0.01: {4, 1, 1},
	}, 0.05, 7)
	if got := r.Placement(); got[0] != 4 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("final placement %v, want [4 1 1]", got)
	}
	if r.TeamSize() != 6 {
		t.Fatalf("team size %d, want 6 (rebalance moves members, not the total)", r.TeamSize())
	}
	if m.Cycles == 0 || m.LossRate > 0.01 {
		t.Fatalf("degenerate run: %+v", m)
	}
	// The rebalanced group actually shows up in service accounting: queue 0
	// holds 4 of 6 members and the de-phased rotation still serves all
	// queues.
	for q := 0; q < 3; q++ {
		if m.CyclesQ[q] == 0 {
			t.Fatalf("queue %d starved after rebalance: %v", q, m.CyclesQ)
		}
	}
}

// ApplyPlacement through engine events must be a pure function of the
// script — the determinism contract the placement experiments lean on.
func TestApplyPlacementDeterministic(t *testing.T) {
	run := func() Metrics {
		_, m := placementRig(t, map[float64][]int{
			0.008: {1, 1, 4},
			0.02:  {2, 2, 2},
			0.034: {1, 4, 3}, // also grows the team to 8
		}, 0.05, 21)
		return m
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Tries != b.Tries || a.RxPackets != b.RxPackets ||
		a.CPUPercent != b.CPUPercent || a.MeanVacation != b.MeanVacation {
		t.Fatalf("scripted-placement runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestPerQueueProvisionedIntegral(t *testing.T) {
	r, _ := placementRig(t, map[float64][]int{
		0.02: {4, 1, 1},
	}, 0.05, 13)
	// [2 2 2] for 0.02 s, then [4 1 1] for 0.03 s.
	want := []float64{2*0.02 + 4*0.03, 2*0.02 + 1*0.03, 2*0.02 + 1*0.03}
	got := r.ProvisionedThreadSecondsQ(0.05)
	var total float64
	for q := range want {
		if math.Abs(got[q]-want[q]) > 1e-9 {
			t.Fatalf("queue %d provisioned %v, want %v (all: %v)", q, got[q], want[q], got)
		}
		total += got[q]
	}
	// The per-queue split always sums to the total integral.
	if full := r.ProvisionedThreadSeconds(0.05); math.Abs(total-full) > 1e-9 {
		t.Fatalf("per-queue sum %v != total %v", total, full)
	}
	r.ResetWindow(0.05)
	for q, v := range r.ProvisionedThreadSecondsQ(0.05) {
		if v != 0 {
			t.Fatalf("queue %d after reset: %v", q, v)
		}
	}
}

// SetTeamSize must remain the balanced special case of ApplyPlacement: it
// re-balances an unbalanced plan even at the same total, and its layouts
// match an explicit balanced plan.
func TestSetTeamSizeIsBalancedApplyPlacement(t *testing.T) {
	r, _ := placementRig(t, nil, 0.01, 5)
	r.ApplyPlacement([]int{4, 1, 1})
	if got := r.Placement(); got[0] != 4 {
		t.Fatalf("setup placement %v", got)
	}
	if applied := r.SetTeamSize(6); applied != 6 {
		t.Fatalf("SetTeamSize(6) applied %d", applied)
	}
	if got := r.Placement(); got[0] != 2 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("SetTeamSize did not re-balance: %v", got)
	}
	// Per-queue entries clamp to one attendant (Sec. IV-E), so a plan of
	// zeros degenerates to one member per queue.
	if applied := r.ApplyPlacement([]int{0, 0, 0}); applied != 3 {
		t.Fatalf("ApplyPlacement(zeros) applied %d, want 3", applied)
	}
}

// Snapshot's slices live in reusable runtime buffers: after the first
// call warms them, repeated sampling allocates nothing (the ROADMAP PR 3
// follow-up that makes high-frequency mid-run sampling free).
func TestSnapshotSteadyStateAllocationFree(t *testing.T) {
	r, _ := placementRig(t, nil, 0.02, 3)
	r.Snapshot(0.02) // warm the buffers
	if allocs := testing.AllocsPerRun(50, func() { r.Snapshot(0.02) }); allocs > 0 {
		t.Fatalf("Snapshot allocates %.1f/call after warm-up, want 0", allocs)
	}
}

// Elastic + placement through the facade-level wiring must stay
// deterministic: same config, same decisions, same metrics.
func TestPlacementControllerDeterministic(t *testing.T) {
	run := func() (Metrics, []int) {
		eng := sim.New()
		root := xrand.New(31)
		queues := make([]*nic.Queue, 2)
		for i := range queues {
			opt := nic.DefaultOptions()
			opt.Cap = 4096
			queues[i] = nic.NewQueue(i, traffic.Step{
				At:     0.02,
				Before: traffic.CBR{PPS: 4e6},
				After:  traffic.CBR{PPS: 18e6},
			}, root.Split(), opt)
		}
		cfg := DefaultConfig()
		cfg.M = 2
		cfg.VBar = 15e-6
		cfg.Policy = sched.NameRMetronome
		cfg.Seed = 31
		cfg.Bus = telemetry.NewBus(2, 8)
		r := New(eng, queues, cfg)
		r.Start()
		// Drive placement plans from occupancy like the controller does,
		// through ordinary engine events.
		eng.Ticker(1e-3, "place-tick", func() {
			occ0 := cfg.Bus.Get(telemetry.Occupancy, 0)
			occ1 := cfg.Bus.Get(telemetry.Occupancy, 1)
			switch {
			case occ0 > 2*occ1+1:
				r.ApplyPlacement([]int{3, 1})
			case occ1 > 2*occ0+1:
				r.ApplyPlacement([]int{1, 3})
			default:
				r.SetTeamSize(2)
			}
		})
		eng.RunUntil(0.05)
		return r.Snapshot(0.05), r.Placement()
	}
	m1, p1 := run()
	m2, p2 := run()
	if m1.Cycles != m2.Cycles || m1.RxPackets != m2.RxPackets || m1.CPUPercent != m2.CPUPercent {
		t.Fatalf("placement-driven runs diverged:\n%+v\n%+v", m1, m2)
	}
	for q := range p1 {
		if p1[q] != p2[q] {
			t.Fatalf("final placements diverged: %v vs %v", p1, p2)
		}
	}
}
