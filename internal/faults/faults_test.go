package faults

import (
	"math"
	"testing"
	"unsafe"

	"metronome/internal/sim"
)

func TestSlotsFillOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(threadFault{}); n != 64 {
		t.Errorf("threadFault is %d bytes, want one 64 B line", n)
	}
	if n := unsafe.Sizeof(queueFault{}); n != 64 {
		t.Errorf("queueFault is %d bytes, want one 64 B line", n)
	}
}

func TestThreadFaultLifecycle(t *testing.T) {
	f := New(4, 2)
	// Death is a stall that never ends; a stall ending now revives.
	f.StallThread(1, math.Inf(1))
	if until, ok := f.StalledUntil(1); !ok || !math.IsInf(until, 1) {
		t.Fatalf("permanent stall: StalledUntil(1) = %v,%v want +Inf,true", until, ok)
	}
	f.StallThread(1, 3)
	if until, _ := f.StalledUntil(1); until != 3 {
		t.Fatalf("revival at 3: StalledUntil(1) = %v", until)
	}
	// Out-of-range sets must be ignored, not fault.
	f.StallThread(-1, 1)
	f.StallThread(99, 1)

	if _, ok := f.StalledUntil(0); ok {
		t.Fatal("fresh thread reports a stall")
	}
	f.StallThread(0, 0.25)
	until, ok := f.StalledUntil(0)
	if !ok || until != 0.25 {
		t.Fatalf("StalledUntil(0) = %v,%v want 0.25,true", until, ok)
	}
	if _, ok := f.StalledUntil(99); ok {
		t.Fatal("out-of-range thread reports a stall")
	}
}

func TestQueueFaultLifecycle(t *testing.T) {
	f := New(2, 3)
	f.SetQueueDark(1, true)
	f.FreezeTelemetry(2, true)
	if !f.QueueDark(1) || f.QueueDark(0) || f.QueueDark(2) {
		t.Fatal("dark flags wrong")
	}
	if !f.TelemetryFrozen(2) || f.TelemetryFrozen(1) {
		t.Fatal("frozen flags wrong")
	}
	f.SetQueueDark(1, false)
	f.FreezeTelemetry(2, false)
	if f.QueueDark(1) || f.TelemetryFrozen(2) {
		t.Fatal("clears not visible")
	}
	if f.QueueDark(99) || f.TelemetryFrozen(-1) {
		t.Fatal("out-of-range queues report faults")
	}
}

func TestControllerSuppression(t *testing.T) {
	f := New(1, 1)
	if f.ControllerSuppressed() {
		t.Fatal("fresh injector suppresses the controller")
	}
	f.SuppressController(true)
	if !f.ControllerSuppressed() {
		t.Fatal("SuppressController(true) not visible")
	}
	f.SuppressController(false)
	if f.ControllerSuppressed() {
		t.Fatal("SuppressController(false) not visible")
	}
}

func TestApplyCoversEveryKind(t *testing.T) {
	f := New(2, 2)
	f.Apply(Event{Kind: ThreadStall, Target: 0, Until: 1})
	if _, ok := f.StalledUntil(0); !ok {
		t.Fatal("ThreadStall not applied")
	}
	f.Apply(Event{Kind: QueueBlackout, Target: 0})
	if !f.QueueDark(0) {
		t.Fatal("QueueBlackout not applied")
	}
	f.Apply(Event{Kind: QueueRecover, Target: 0})
	if f.QueueDark(0) {
		t.Fatal("QueueRecover not applied")
	}
	f.Apply(Event{Kind: TelemetryFreeze, Target: 1})
	if !f.TelemetryFrozen(1) {
		t.Fatal("TelemetryFreeze not applied")
	}
	f.Apply(Event{Kind: TelemetryThaw, Target: 1})
	if f.TelemetryFrozen(1) {
		t.Fatal("TelemetryThaw not applied")
	}
	f.Apply(Event{Kind: ControllerDown})
	if !f.ControllerSuppressed() {
		t.Fatal("ControllerDown not applied")
	}
	f.Apply(Event{Kind: ControllerUp})
	if f.ControllerSuppressed() {
		t.Fatal("ControllerUp not applied")
	}
}

func TestScheduleFiresInVirtualTime(t *testing.T) {
	eng := sim.New()
	f := New(2, 2)
	Schedule(eng, f, []Event{
		{At: 0.10, Kind: QueueBlackout, Target: 0},
		{At: 0.30, Kind: QueueRecover, Target: 0},
		{At: 0.20, Kind: ThreadStall, Target: 1, Until: math.Inf(1)},
	})
	dead := func() bool { until, _ := f.StalledUntil(1); return math.IsInf(until, 1) }
	eng.RunUntil(0.05)
	if f.QueueDark(0) || dead() {
		t.Fatal("faults fired early")
	}
	eng.RunUntil(0.15)
	if !f.QueueDark(0) {
		t.Fatal("blackout did not fire at 0.10")
	}
	eng.RunUntil(0.25)
	if !dead() {
		t.Fatal("death did not fire at 0.20")
	}
	eng.RunUntil(0.35)
	if f.QueueDark(0) {
		t.Fatal("recovery did not fire at 0.30")
	}
	if !dead() {
		t.Fatal("death should persist")
	}
}

func TestStormSchedule(t *testing.T) {
	evs := Storm(nil, 3, 0.1, 0.5, 0.2, 0.05)
	if len(evs) != 2 {
		t.Fatalf("storm events = %d, want 2", len(evs))
	}
	for i, ev := range evs {
		if ev.Kind != ThreadStall || ev.Target != 3 {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if ev.Until <= ev.At || ev.Until > 0.5 {
			t.Fatalf("event %d stall window [%v,%v] out of bounds", i, ev.At, ev.Until)
		}
	}
	// A storm whose last stall would overrun `before` is clipped to it.
	evs = Storm(nil, 0, 0.0, 0.11, 0.1, 0.5)
	if last := evs[len(evs)-1]; last.Until != 0.11 {
		t.Fatalf("last stall end = %v, want clipped 0.11", last.Until)
	}
}

func TestKindString(t *testing.T) {
	if ThreadStall.String() != "thread-stall" || ControllerUp.String() != "controller-up" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}
