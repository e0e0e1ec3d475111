package core

import (
	"math"
	"testing"

	"metronome/internal/faults"
	"metronome/internal/nic"
	"metronome/internal/sched"
	"metronome/internal/sim"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// faultRig builds a 2-queue runtime with a fault injector wired in and the
// given fault schedule registered as engine events.
func faultRig(t *testing.T, policy string, evs []faults.Event, seed uint64) (*sim.Engine, *Runtime, *faults.Injector) {
	t.Helper()
	eng := sim.New()
	root := xrand.New(seed)
	queues := make([]*nic.Queue, 2)
	for i := range queues {
		opt := nic.DefaultOptions()
		opt.Cap = 4096
		queues[i] = nic.NewQueue(i, traffic.CBR{PPS: 5e6}, root.Split(), opt)
	}
	cfg := DefaultConfig()
	cfg.M = 4
	cfg.VBar = 15e-6
	cfg.Policy = policy
	cfg.Seed = seed
	cfg.Bus = telemetry.NewBus(2, 16)
	cfg.Faults = faults.New(16, 2)
	r := New(eng, queues, cfg)
	faults.Schedule(eng, cfg.Faults, evs)
	r.Start()
	return eng, r, cfg.Faults
}

func TestStalledThreadSleepsThroughWindow(t *testing.T) {
	evs := []faults.Event{
		{At: 0.01, Kind: faults.ThreadStall, Target: 0, Until: 0.03},
	}
	eng, r, _ := faultRig(t, sched.NameRMetronome, evs, 11)
	var atStart, atEnd int64
	eng.At(0.0101, "sample-start", func() { atStart = r.CyclesByThread[0] })
	eng.At(0.0299, "sample-end", func() { atEnd = r.CyclesByThread[0] })
	eng.RunUntil(0.05)
	if atEnd != atStart {
		t.Fatalf("stalled thread served %d cycles inside its stall window", atEnd-atStart)
	}
	if r.CyclesByThread[0] == atEnd {
		t.Fatal("stalled thread never resumed after the window")
	}
}

// A dead thread is one stalled until +Inf: the twin parks it rather than
// scheduling a resume event that would never come due.
func TestDeadThreadParksAndTeamSurvives(t *testing.T) {
	evs := []faults.Event{
		{At: 0.01, Kind: faults.ThreadStall, Target: 1, Until: math.Inf(1)},
	}
	eng, r, _ := faultRig(t, sched.NameAdaptive, evs, 12)
	var atDeath int64
	eng.At(0.012, "sample-death", func() { atDeath = r.CyclesByThread[1] })
	eng.RunUntil(0.05)
	if r.CyclesByThread[1] != atDeath {
		t.Fatalf("dead thread kept serving: %d -> %d cycles", atDeath, r.CyclesByThread[1])
	}
	m := r.Snapshot(0.05)
	if m.Cycles == 0 || m.Served == 0 {
		t.Fatalf("survivors stopped serving: %+v", m)
	}
}

func TestQueueBlackoutBuffersThenRecovers(t *testing.T) {
	evs := []faults.Event{
		{At: 0.01, Kind: faults.QueueBlackout, Target: 0},
		{At: 0.012, Kind: faults.QueueRecover, Target: 0},
	}
	eng, r, _ := faultRig(t, sched.NameRMetronome, evs, 13)
	var servedAtDark, servedAtEnd int64
	eng.At(0.0101, "sample-dark", func() { servedAtDark = r.Queues[0].Served })
	eng.At(0.0119, "sample-darkend", func() { servedAtEnd = r.Queues[0].Served })
	eng.RunUntil(0.05)
	if servedAtEnd != servedAtDark {
		t.Fatalf("dark queue served %d packets during blackout", servedAtEnd-servedAtDark)
	}
	// 2ms at 5 Mpps is 10k packets against a 4096-slot ring: the blackout
	// must overflow, and recovery must resume service.
	if r.Queues[0].Drops == 0 {
		t.Fatal("blackout never overflowed the ring")
	}
	if r.Queues[0].Served <= servedAtEnd {
		t.Fatal("queue never recovered from blackout")
	}
}

func TestFrozenTelemetryStopsPubSeqNotHeartbeat(t *testing.T) {
	evs := []faults.Event{
		{At: 0.01, Kind: faults.TelemetryFreeze, Target: 0},
	}
	eng, r, _ := faultRig(t, sched.NameAdaptive, evs, 14)
	bus := r.Cfg.Bus
	var pubAtFreeze, hbMoved uint64
	eng.At(0.011, "sample-freeze", func() { pubAtFreeze = bus.Load(telemetry.PubSeq, 0) })
	eng.At(0.04, "sample-late", func() {
		if bus.Load(telemetry.PubSeq, 0) != pubAtFreeze {
			t.Errorf("frozen queue kept publishing: seq %d -> %d", pubAtFreeze, bus.Load(telemetry.PubSeq, 0))
		}
		for i := 0; i < r.ThreadCount(); i++ {
			if bus.Thread(telemetry.Heartbeat, i) > 0.011 {
				hbMoved++
			}
		}
	})
	eng.RunUntil(0.05)
	if pubAtFreeze == 0 {
		t.Fatal("queue 0 never published before the freeze")
	}
	if hbMoved == 0 {
		t.Fatal("no heartbeat advanced past the freeze — liveness must survive a telemetry brownout")
	}
	if bus.Load(telemetry.PubSeq, 1) <= pubAtFreeze/4 {
		t.Fatalf("healthy queue 1 publish rate collapsed: %d", bus.Load(telemetry.PubSeq, 1))
	}
}

// A faulted run is still a pure function of its seed: the fault schedule
// rides on ordinary engine events.
func TestFaultedRunDeterministic(t *testing.T) {
	run := func() Metrics {
		evs := []faults.Event{
			{At: 0.005, Kind: faults.ThreadStall, Target: 2, Until: 0.015},
			{At: 0.008, Kind: faults.QueueBlackout, Target: 1},
			{At: 0.011, Kind: faults.QueueRecover, Target: 1},
			{At: 0.012, Kind: faults.ThreadStall, Target: 3, Until: math.Inf(1)},
			{At: 0.02, Kind: faults.TelemetryFreeze, Target: 0},
			{At: 0.03, Kind: faults.TelemetryThaw, Target: 0},
		}
		eng, r, _ := faultRig(t, sched.NameRMetronome, evs, 99)
		eng.RunUntil(0.05)
		m := r.Snapshot(0.05)
		m.CyclesQ = append([]int64(nil), m.CyclesQ...)
		m.RhoEst = append([]float64(nil), m.RhoEst...)
		m.TSNow = append([]float64(nil), m.TSNow...)
		return m
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Served != b.Served || a.Drops != b.Drops ||
		a.Tries != b.Tries || a.BusyTries != b.BusyTries {
		t.Fatalf("faulted run not deterministic:\n%+v\n%+v", a, b)
	}
	for q := range a.CyclesQ {
		if a.CyclesQ[q] != b.CyclesQ[q] {
			t.Fatalf("per-queue cycles diverge at %d: %d vs %d", q, a.CyclesQ[q], b.CyclesQ[q])
		}
	}
}

// Dead threads are revivable through the placement path: a stall that ends
// at the revival instant clears the permanent one, and a subsequent
// ApplyPlacement un-park re-arms the parked member.
func TestDeadThreadBackOnPlacement(t *testing.T) {
	evs := []faults.Event{
		{At: 0.01, Kind: faults.ThreadStall, Target: 3, Until: math.Inf(1)},
		{At: 0.02, Kind: faults.ThreadStall, Target: 3, Until: 0.02},
	}
	eng, r, _ := faultRig(t, sched.NameRMetronome, evs, 15)
	var atDeath, beforePlace int64
	eng.At(0.012, "sample-death", func() { atDeath = r.CyclesByThread[3] })
	eng.At(0.0249, "sample-before-place", func() { beforePlace = r.CyclesByThread[3] })
	eng.At(0.025, "re-place", func() {
		// Shrink past the dead slot then grow back: the grow un-parks the
		// revived thread with a fresh wake event.
		r.ApplyPlacement([]int{1, 2})
		r.ApplyPlacement([]int{2, 2})
	})
	eng.RunUntil(0.05)
	if beforePlace != atDeath {
		t.Fatalf("parked thread served %d cycles before any placement re-armed it", beforePlace-atDeath)
	}
	if r.CyclesByThread[3] <= beforePlace {
		t.Fatalf("revived thread never served again (cycles %d)", r.CyclesByThread[3])
	}
}
