// Package sim is the discrete-event engine underneath the Metronome
// reproduction. It provides a virtual clock, an event heap and process
// scheduling; no wall-clock time ever enters a simulation, so every run is
// deterministic given its seed.
//
// Time is a float64 count of seconds since simulation start. Events at
// equal times fire in scheduling order (a monotonic sequence number breaks
// ties), which keeps thread races reproducible.
//
// The engine owns its events: the priority queue is an inline min-heap
// specialised to *Event (no interface boxing, no container/heap dispatch),
// and fired or cancelled events return to a free list instead of the
// garbage collector, so the steady-state tick path allocates nothing.
// Callers hold EventRef handles; a generation counter on each Event makes
// a stale handle's Cancel a guaranteed no-op after recycling.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds.
type Time = float64

// Event is a callback scheduled to run at a virtual time. Events are
// engine-owned and recycled after they fire or are cancelled; callers
// interact with them through EventRef handles.
type Event struct {
	at    Time
	seq   uint64
	fn    func()
	gen   uint64 // bumped on recycle; refs from older generations are stale
	index int32  // heap index; -1 when not queued
	dead  bool
	What  string // optional label for tracing
}

// EventRef is a handle to a scheduled event. The zero value refers to
// nothing and all its methods are no-ops. A ref goes stale once its event
// fires or its cancellation is collected — the engine recycles the Event
// for a future schedule — after which Cancel cannot touch the successor.
type EventRef struct {
	ev  *Event
	gen uint64
}

// live reports whether the ref still addresses the event it was issued for.
func (r EventRef) live() bool { return r.ev != nil && r.ev.gen == r.gen }

// At returns the time the event is scheduled for, or 0 for a stale ref.
func (r EventRef) At() Time {
	if r.live() {
		return r.ev.at
	}
	return 0
}

// Pending reports whether the event is still queued (neither fired nor
// collected after cancellation).
func (r EventRef) Pending() bool { return r.live() && !r.ev.dead }

// Cancel prevents a pending event from firing. Cancelling an already-fired
// or already-cancelled event is a no-op: a stale ref can never cancel the
// event that later reuses the same slot.
func (r EventRef) Cancel() {
	if r.live() {
		r.ev.dead = true
	}
}

// Cancelled reports whether the event is cancelled but not yet collected.
// It returns false once the engine has recycled the event.
func (r EventRef) Cancelled() bool { return r.live() && r.ev.dead }

// Engine runs events in virtual-time order.
type Engine struct {
	now      Time
	seq      uint64
	queue    []*Event // binary min-heap ordered by (at, seq)
	free     []*Event // recycled events awaiting reuse
	fired    uint64
	recycled uint64
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (a cheap progress and
// complexity metric for tests).
func (e *Engine) Fired() uint64 { return e.fired }

// Recycled returns how many schedules were served from the free list — the
// observable half of the allocation-free steady-state contract.
func (e *Engine) Recycled() uint64 { return e.recycled }

// Pending returns the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return len(e.queue) }

// before reports heap order: earlier time first, scheduling order on ties.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap above index i.
func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		pe := q[p]
		if !before(ev, pe) {
			break
		}
		q[i] = pe
		pe.index = int32(i)
		i = p
	}
	q[i] = ev
	ev.index = int32(i)
}

// siftDown restores the heap below index i.
func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		ce := q[c]
		if rr := c + 1; rr < n && before(q[rr], ce) {
			c, ce = rr, q[rr]
		}
		if !before(ce, ev) {
			break
		}
		q[i] = ce
		ce.index = int32(i)
		i = c
	}
	q[i] = ev
	ev.index = int32(i)
}

// push inserts ev into the heap.
func (e *Engine) push(ev *Event) {
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

// popMin removes and returns the earliest event.
func (e *Engine) popMin() *Event {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		q[0] = last
		last.index = 0
		e.siftDown(0)
	}
	ev.index = -1
	return ev
}

// recycle returns a popped event to the free list, invalidating every
// outstanding EventRef to it.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a modelling bug.
func (e *Engine) At(t Time, what string, fn func()) EventRef {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", what, t, e.now))
	}
	if math.IsNaN(t) {
		panic(fmt.Sprintf("sim: scheduling %q at NaN", what))
	}
	var ev *Event
	if n := len(e.free) - 1; n >= 0 {
		ev = e.free[n]
		e.free = e.free[:n]
		e.recycled++
	} else {
		ev = new(Event)
	}
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.dead = false
	ev.What = what
	e.seq++
	e.push(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// After schedules fn after a delay d >= 0.
func (e *Engine) After(d float64, what string, fn func()) EventRef {
	return e.At(e.now+d, what, fn)
}

// RunUntil executes events until the clock would pass deadline or the queue
// drains. The clock is left at min(deadline, last event time); events at
// exactly the deadline do fire.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.at > deadline {
			break
		}
		e.popMin()
		if next.dead {
			e.recycle(next)
			continue
		}
		e.now = next.at
		e.fired++
		fn := next.fn
		// Recycle before running: the callback's own re-scheduling (the
		// common one-pending-timer-per-thread pattern) reuses this event.
		e.recycle(next)
		fn()
	}
	if e.now < deadline && !math.IsInf(deadline, 1) {
		e.now = deadline
	}
}

// Run executes until the event queue drains.
func (e *Engine) Run() { e.RunUntil(math.Inf(1)) }

// Ticker invokes fn every period until the engine stops or the returned
// cancel function is called. The first tick happens one period from now.
func (e *Engine) Ticker(period float64, what string, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	stopped := false
	var pending EventRef
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			pending = e.After(period, what, tick)
		}
	}
	pending = e.After(period, what, tick)
	return func() {
		stopped = true
		pending.Cancel()
	}
}
