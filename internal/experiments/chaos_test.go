package experiments

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"metronome/internal/core"
	"metronome/internal/elastic"
	"metronome/internal/faults"
	"metronome/internal/nic"
	"metronome/internal/obsv"
	"metronome/internal/sched"
	"metronome/internal/sim"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// chaosEnv reads an integer knob from the environment, so a failing soak
// reproduces (CHAOS_SEED=n) and shrinks (CHAOS_OPS=m) from the shell.
func chaosEnv(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// The chaos soak: a seeded schedule of every fault kind interleaved with
// external resizes and rebalances, driven against the self-healing
// controller on the simulated substrate. Two invariants are the whole
// point:
//
//   - Claimed service turns are never dropped: per queue, the policy's
//     turn counter and the runtime's completed-cycle counter differ by at
//     most the one in-flight cycle, no matter how the team churns.
//   - The controller never actuates on gauges past the staleness bound:
//     outside safe mode an actuating tick has at least one fresh queue,
//     and safe-mode actuations only grow toward SafeTeam.
//
// The run is a pure function of CHAOS_SEED (faults fire as engine events),
// so a failure replays exactly; CHAOS_OPS shrinks the schedule.
func TestChaosSoakSim(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak runs in the dedicated non-short CI step")
	}
	seed := uint64(chaosEnv("CHAOS_SEED", 1))
	ops := chaosEnv("CHAOS_OPS", 300)
	t.Logf("chaos soak: CHAOS_SEED=%d CHAOS_OPS=%d (env to reproduce/shrink)", seed, ops)

	const (
		nq      = 3
		minM    = 3
		budget  = 6
		horizon = 1.0
	)
	eng := sim.New()
	root := xrand.New(seed)
	rates := []float64{300e3, 4e6, 1e6}
	queues := make([]*nic.Queue, nq)
	for i := range queues {
		opt := nic.DefaultOptions()
		opt.Cap = 4096
		queues[i] = nic.NewQueue(i, traffic.CBR{PPS: rates[i]}, root.Split(), opt)
	}
	cfg := core.DefaultConfig()
	cfg.M = minM
	cfg.VBar = 15e-6
	cfg.Policy = sched.NameRMetronome
	cfg.Seed = seed
	cfg.Bus = telemetry.NewBus(nq, budget)
	inj := faults.New(budget, nq)
	cfg.Faults = inj
	// The soak's black box: every decision, exile, safe-mode edge and fault
	// flip lands in the flight recorder, dumped below iff the soak fails.
	rec := obsv.NewRecorder(1 << 14)
	cfg.Recorder = rec
	obsv.AttachFaults(inj, rec)
	r := core.New(eng, queues, cfg)
	r.Start()

	ec := elastic.DefaultConfig(minM, budget)
	ec.TargetOccupancy = 0.03
	ec.Placement = true
	ec.Health = true
	ec.MaxActuationsPerSec = 500
	ec.Recorder = rec
	ctrl := elastic.New(cfg.Bus, r, ec)

	allStale := uint64(1<<nq) - 1
	var violations []string
	eng.Ticker(ctrl.Config().Period, "chaos-tick", func() {
		if inj.ControllerSuppressed() {
			return
		}
		before := r.TeamSize()
		d := ctrl.Tick(eng.Now())
		if d.SafeMode {
			if d.Resized && d.Applied < before {
				violations = append(violations, fmt.Sprintf(
					"t=%.4f: safe mode shrank the team %d -> %d", d.At, before, d.Applied))
			}
			return
		}
		if (d.Resized || d.Rebalanced) && d.StaleMask == allStale {
			violations = append(violations, fmt.Sprintf(
				"t=%.4f: actuated on an all-stale bus outside safe mode", d.At))
		}
	})

	// The seeded schedule. Each op lands at a random instant inside the
	// horizon; paired faults (death/revive, blackout/recover, freeze/thaw,
	// outage) clear within it, and a final sweep clears any stragglers.
	opRng := xrand.New(seed + 1000)
	var evs []faults.Event
	for i := 0; i < ops; i++ {
		at := 0.05 + opRng.Float64()*horizon
		switch opRng.Intn(10) {
		case 0, 1:
			th := opRng.Intn(budget)
			evs = append(evs, faults.Event{
				At: at, Kind: faults.ThreadStall, Target: th,
				Until: at + opRng.Uniform(0.002, 0.02),
			})
		case 2:
			th := opRng.Intn(budget)
			// Death is a stall without end; revival is a stall that ends
			// when it lands.
			revive := at + opRng.Uniform(0.01, 0.06)
			evs = append(evs,
				faults.Event{At: at, Kind: faults.ThreadStall, Target: th, Until: math.Inf(1)},
				faults.Event{At: revive, Kind: faults.ThreadStall, Target: th, Until: revive})
		case 3:
			q := opRng.Intn(nq)
			evs = append(evs,
				faults.Event{At: at, Kind: faults.QueueBlackout, Target: q},
				faults.Event{At: at + opRng.Uniform(0.002, 0.015), Kind: faults.QueueRecover, Target: q})
		case 4:
			q := opRng.Intn(nq)
			evs = append(evs,
				faults.Event{At: at, Kind: faults.TelemetryFreeze, Target: q},
				faults.Event{At: at + opRng.Uniform(0.005, 0.04), Kind: faults.TelemetryThaw, Target: q})
		case 5:
			evs = append(evs,
				faults.Event{At: at, Kind: faults.ControllerDown},
				faults.Event{At: at + opRng.Uniform(0.005, 0.03), Kind: faults.ControllerUp})
		case 6, 7:
			m := minM + opRng.Intn(budget-minM+1)
			eng.At(at, "chaos-resize", func() { r.SetTeamSize(m) })
		default:
			m := minM + opRng.Intn(budget-minM+1)
			plan := make([]int, nq)
			for j := 0; j < m; j++ {
				plan[opRng.Intn(nq)]++
			}
			eng.At(at, "chaos-place", func() { r.ApplyPlacement(plan) })
		}
	}
	faults.Schedule(eng, inj, evs)

	// Clear every fault, force a full re-admission (revived members stay
	// parked until a resize or placement covers them), and let the loop
	// settle.
	eng.At(horizon+0.05, "chaos-clear", func() {
		for id := 0; id < budget; id++ {
			inj.StallThread(id, 0)
		}
		for q := 0; q < nq; q++ {
			inj.SetQueueDark(q, false)
			inj.FreezeTelemetry(q, false)
		}
		inj.SuppressController(false)
		r.SetTeamSize(minM)
		r.SetTeamSize(budget)
	})
	var cyclesAtClear [nq]int64
	eng.At(horizon+0.06, "chaos-mark", func() {
		for q := 0; q < nq; q++ {
			cyclesAtClear[q] = r.CyclesQ[q]
		}
	})
	eng.RunUntil(horizon + 0.3)

	for _, v := range violations {
		t.Error(v)
	}
	// Claimed turns are never dropped: the sequential twin claims a turn
	// exactly when a cycle begins, so the counters differ only by an
	// in-flight cycle — through every stall, death, blackout and resize.
	for q := 0; q < nq; q++ {
		turns := int64(r.Group().Turns(q))
		if turns < r.CyclesQ[q] || turns > r.CyclesQ[q]+1 {
			t.Errorf("queue %d: turns = %d, cycles = %d (claimed turns dropped)", q, turns, r.CyclesQ[q])
		}
	}
	// Liveness after the storm: every queue is being served again.
	for q := 0; q < nq; q++ {
		if r.CyclesQ[q] <= cyclesAtClear[q] {
			t.Errorf("queue %d: no cycles after faults cleared (%d)", q, r.CyclesQ[q])
		}
	}
	if got := r.TeamSize(); got < minM {
		t.Errorf("team ended at %d, below MinThreads %d", got, minM)
	}
	if rep := ctrl.Report(eng.Now()); rep.Panics != 0 {
		t.Errorf("controller panicked %d times during the soak; first: %s\n%s",
			rep.Panics, rep.PanicMsg, rep.PanicStack)
	}
	if t.Failed() {
		var dump strings.Builder
		if err := rec.WriteText(&dump); err == nil {
			t.Logf("flight recorder (last %d of %d events):\n%s",
				len(rec.Events(nil)), rec.Total(), dump.String())
		}
	}
}

// The same schedule is a pure function of its seed: two runs must agree on
// every counter the soak asserts on.
func TestChaosSoakDeterministic(t *testing.T) {
	run := func() string {
		seed := uint64(chaosEnv("CHAOS_SEED", 1))
		eng := sim.New()
		root := xrand.New(seed)
		queues := []*nic.Queue{
			nic.NewQueue(0, traffic.CBR{PPS: 300e3}, root.Split(), nic.DefaultOptions()),
			nic.NewQueue(1, traffic.CBR{PPS: 4e6}, root.Split(), nic.DefaultOptions()),
		}
		cfg := core.DefaultConfig()
		cfg.M = 2
		cfg.VBar = 15e-6
		cfg.Policy = sched.NameRMetronome
		cfg.Seed = seed
		cfg.Bus = telemetry.NewBus(2, 4)
		inj := faults.New(4, 2)
		cfg.Faults = inj
		r := core.New(eng, queues, cfg)
		r.Start()
		ec := elastic.DefaultConfig(2, 4)
		ec.Placement = true
		ec.Health = true
		ctrl := elastic.New(cfg.Bus, r, ec)
		eng.Ticker(ctrl.Config().Period, "tick", func() {
			if !inj.ControllerSuppressed() {
				ctrl.Tick(eng.Now())
			}
		})
		evs := faults.Storm(nil, 0, 0.05, 0.25, 0.04, 0.02)
		evs = append(evs,
			faults.Event{At: 0.08, Kind: faults.QueueBlackout, Target: 0},
			faults.Event{At: 0.10, Kind: faults.QueueRecover, Target: 0},
			faults.Event{At: 0.12, Kind: faults.TelemetryFreeze, Target: 1},
			faults.Event{At: 0.16, Kind: faults.TelemetryThaw, Target: 1},
			faults.Event{At: 0.18, Kind: faults.ControllerDown},
			faults.Event{At: 0.20, Kind: faults.ControllerUp},
		)
		faults.Schedule(eng, inj, evs)
		eng.RunUntil(0.3)
		rep := ctrl.Report(0.3)
		return fmt.Sprintf("cycles=%v drops=%d/%d resizes=%d exiles=%d safe=%d stale=%d team=%d",
			r.CyclesQ, queues[0].Drops, queues[1].Drops,
			rep.Resizes, rep.Exiles, rep.SafeTicks, rep.StaleQueueTicks, r.TeamSize())
	}
	first := run()
	for i := 1; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n%s\n%s", i, first, got)
		}
	}
}
