package sim

import (
	"math"
	"testing"
	"testing/quick"

	"metronome/internal/xrand"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(3, "c", func() { order = append(order, 3) })
	e.At(1, "a", func() { order = append(order, 1) })
	e.At(2, "b", func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := New()
	var order []string
	e.At(1, "first", func() { order = append(order, "first") })
	e.At(1, "second", func() { order = append(order, "second") })
	e.Run()
	if order[0] != "first" || order[1] != "second" {
		t.Fatalf("same-time events not FIFO: %v", order)
	}
}

func TestSchedulingInsideEvent(t *testing.T) {
	e := New()
	hits := 0
	e.At(1, "outer", func() {
		e.After(1, "inner", func() { hits++ })
	})
	e.Run()
	if hits != 1 || e.Now() != 2 {
		t.Fatalf("hits=%d now=%v", hits, e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(1, "doomed", func() { fired = true })
	if !ev.Pending() || ev.At() != 1 {
		t.Fatalf("fresh ref: pending=%v at=%v", ev.Pending(), ev.At())
	}
	ev.Cancel()
	if !ev.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() || ev.Cancelled() {
		t.Fatal("ref still live after the engine collected the event")
	}
}

// The rewrite's recycling contract: a cancelled-while-queued event returns
// to the free list, the next schedule reuses it, and the stale ref cannot
// touch the successor.
func TestCancelWhileQueuedRecycles(t *testing.T) {
	e := New()
	doomed := e.At(1, "doomed", func() { t.Fatal("cancelled event fired") })
	doomed.Cancel()
	e.RunUntil(2)
	if e.Recycled() != 0 {
		t.Fatalf("recycled = %d before any reuse", e.Recycled())
	}
	fired := false
	next := e.At(3, "successor", func() { fired = true })
	if e.Recycled() != 1 {
		t.Fatalf("recycled = %d, want the successor to reuse the slot", e.Recycled())
	}
	doomed.Cancel() // stale: must not kill the successor
	if !next.Pending() {
		t.Fatal("stale Cancel reached the recycled event")
	}
	e.Run()
	if !fired {
		t.Fatal("successor did not fire")
	}
}

func TestStaleRefAfterFire(t *testing.T) {
	e := New()
	a := e.At(1, "a", func() {})
	e.Run()
	fired := false
	e.At(2, "b", func() { fired = true })
	a.Cancel() // a's Event now backs b; the stale ref must be inert
	if a.Pending() || a.Cancelled() || a.At() != 0 {
		t.Fatal("stale ref reports live state")
	}
	e.Run()
	if !fired {
		t.Fatal("stale Cancel killed the recycled successor")
	}
}

// Ticker re-arms schedule at the tail of the current instant's callbacks;
// two tickers with equal periods must interleave in creation order at every
// shared tick, across arbitrarily many re-arms of recycled events.
func TestEqualTimeOrderingAcrossTickerRearms(t *testing.T) {
	e := New()
	var order []string
	e.Ticker(1, "first", func() { order = append(order, "first") })
	e.Ticker(1, "second", func() { order = append(order, "second") })
	e.RunUntil(10)
	if len(order) != 20 {
		t.Fatalf("got %d ticks, want 20", len(order))
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "first" || order[i+1] != "second" {
			t.Fatalf("tick %d: interleaving broke: %v", i/2, order[i:i+2])
		}
	}
}

func TestRunUntilDeadline(t *testing.T) {
	e := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.At(at, "tick", func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 1..3 inclusive", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want exactly the deadline", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("resume missed events: %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(7)
	if e.Now() != 7 {
		t.Fatalf("idle engine clock = %v, want 7", e.Now())
	}
}

// RunUntil's deadline is inclusive for events and exact for the clock: an
// event at precisely the deadline fires, one an ulp later stays queued, and
// the clock never overshoots min(deadline, last event time).
func TestRunUntilDeadlineBoundary(t *testing.T) {
	e := New()
	var fired []string
	e.At(3, "at-deadline", func() { fired = append(fired, "at") })
	after := math.Nextafter(3, 4)
	e.At(after, "just-after", func() { fired = append(fired, "after") })
	e.RunUntil(3)
	if len(fired) != 1 || fired[0] != "at" {
		t.Fatalf("fired = %v, want exactly the at-deadline event", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want exactly the deadline", e.Now())
	}
	// Scheduling at the current instant is legal and fires on resume.
	e.At(3, "again", func() { fired = append(fired, "again") })
	e.RunUntil(after)
	if len(fired) != 3 || fired[1] != "again" || fired[2] != "after" {
		t.Fatalf("resume fired %v", fired)
	}
	if e.Now() != after {
		t.Fatalf("clock = %v, want %v", e.Now(), after)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(5, "x", func() {})
	e.RunUntil(5)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	e.At(1, "late", func() {})
}

func TestTicker(t *testing.T) {
	e := New()
	n := 0
	cancel := e.Ticker(1, "tick", func() { n++ })
	e.RunUntil(5)
	if n != 5 {
		t.Fatalf("ticker fired %d times by t=5", n)
	}
	cancel()
	e.RunUntil(100)
	if n != 5 {
		t.Fatalf("ticker fired after cancel: %d", n)
	}
}

func TestTickerCancelInsideCallback(t *testing.T) {
	e := New()
	n := 0
	var cancel func()
	cancel = e.Ticker(1, "tick", func() {
		n++
		if n == 3 {
			cancel()
		}
	})
	e.RunUntil(100)
	if n != 3 {
		t.Fatalf("ticker fired %d times, want stop at 3", n)
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		e.After(float64(i), "n", func() {})
	}
	e.Run()
	if e.Fired() != 10 {
		t.Fatalf("Fired = %d", e.Fired())
	}
}

// Property: random scheduling always executes in non-decreasing time order.
func TestRandomScheduleOrdered(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		e := New()
		last := -1.0
		ok := true
		for i := 0; i < 200; i++ {
			at := r.Uniform(0, 100)
			e.At(at, "rnd", func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				// nested scheduling keeps the heap honest
				if r.Bernoulli(0.3) {
					e.After(r.Uniform(0, 10), "nested", func() {
						if e.Now() < last {
							ok = false
						}
						last = e.Now()
					})
				}
			})
		}
		e.Run()
		return ok
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Steady-state engine ticks must not allocate: every schedule after warm-up
// is served from the free list. This is the acceptance gate for the
// free-list design — a regression here silently rebuilds the GC pressure
// the specialised heap removed.
func TestSteadyStateTicksAllocationFree(t *testing.T) {
	e := New()
	// A small team of self-rescheduling chains, like core's threads.
	for i := 0; i < 4; i++ {
		d := 1e-6 * float64(i+1)
		var loop func()
		loop = func() { e.After(d, "tick", loop) }
		e.After(d, "tick", loop)
	}
	next := 1e-3
	e.RunUntil(next) // warm-up: grow heap, free list and queue capacity
	allocs := testing.AllocsPerRun(100, func() {
		next += 1e-3
		e.RunUntil(next)
	})
	if allocs != 0 {
		t.Fatalf("steady-state RunUntil allocates %.1f per window, want 0", allocs)
	}
}

// Cancel-heavy churn (the re-arm pattern of timers that usually get
// cancelled) must also reach zero steady-state allocations.
func TestCancelChurnAllocationFree(t *testing.T) {
	e := New()
	var ref EventRef
	var loop func()
	loop = func() {
		ref.Cancel() // cancel a decoy scheduled on the previous round
		ref = e.After(2e-6, "decoy", func() {})
		e.After(1e-6, "tick", loop)
	}
	e.After(1e-6, "tick", loop)
	next := 1e-3
	e.RunUntil(next)
	allocs := testing.AllocsPerRun(100, func() {
		next += 1e-3
		e.RunUntil(next)
	})
	if allocs != 0 {
		t.Fatalf("cancel churn allocates %.1f per window, want 0", allocs)
	}
}

func BenchmarkEngine(b *testing.B) {
	r := xrand.New(1)
	e := New()
	// self-perpetuating event chain
	var loop func()
	n := 0
	loop = func() {
		n++
		if n < b.N {
			e.After(r.Uniform(0, 1e-6), "bench", loop)
		}
	}
	e.After(0, "bench", loop)
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineFanout stresses the heap with a realistic pending-set: a
// team of chains at staggered periods, measuring per-event cost with ~32
// events queued.
func BenchmarkEngineFanout(b *testing.B) {
	e := New()
	n := 0
	for i := 0; i < 32; i++ {
		d := 1e-6 * (1 + float64(i)/32)
		var loop func()
		loop = func() {
			n++
			if n < b.N {
				e.After(d, "bench", loop)
			}
		}
		e.After(d, "bench", loop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineCancelChurn measures the cancelled-event path: every fired
// tick re-arms a decoy that is cancelled on the next round.
func BenchmarkEngineCancelChurn(b *testing.B) {
	e := New()
	var ref EventRef
	n := 0
	var loop func()
	loop = func() {
		ref.Cancel()
		ref = e.After(2e-6, "decoy", func() {})
		n++
		if n < b.N {
			e.After(1e-6, "tick", loop)
		}
	}
	e.After(1e-6, "tick", loop)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
