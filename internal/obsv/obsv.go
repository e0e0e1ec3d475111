// Package obsv is the observability plane: a flight recorder for
// control-plane events, a stdlib-only Prometheus/expvar exporter over the
// telemetry bus, and the parsing helpers the metrotop operator view and
// the CI smoke tests share.
//
// The flight recorder is a fixed-capacity, lock-free ring of structured
// events — every elastic Decision, placement swap, exile/un-exile,
// safe-mode transition, dark-loss classification, fault flag flip and
// actuation rate-limit hit — recorded clocklessly (the caller supplies the
// substrate timestamp; the recorder never reads a wall clock) at zero
// allocations per event. On the simulated substrate every event carries a
// virtual timestamp and is emitted from the single engine goroutine, so
// recorded traces are byte-identical at any experiment-harness
// parallelism; on the live substrate writers may race and readers resolve
// the race per slot (a slot being overwritten mid-read is skipped, never
// torn). Dump a recording with WriteTrace: Chrome trace-event JSON, which
// Perfetto loads and metrotop -trace folds into a post-mortem.
//
// The package deliberately sits below the control planes in the import
// DAG: internal/elastic, internal/core and internal/runtime depend on it
// (each carries an optional *Recorder in its Config), never the reverse.
package obsv

import (
	"math"
	"sync"
	"sync/atomic"
)

// Kind identifies what a flight-recorder event describes.
type Kind uint8

// Flight-recorder event kinds. The numeric values are stable across a
// recording's lifetime (they are serialised into traces) but not across
// releases; match on the constants, not on literals.
const (
	// EvDecision is one elastic controller tick: team size law output,
	// placement plan, feedforward and objective gauges.
	EvDecision Kind = iota
	// EvPlacement is a substrate-applied placement swap (core or live
	// runner ApplyPlacement that actually changed the layout).
	EvPlacement
	// EvExile marks a member exiled by the health layer's straggler
	// detector; A carries the thread id.
	EvExile
	// EvRecover marks a previously exiled member whose heartbeat moved
	// again; A carries the thread id.
	EvRecover
	// EvSafeEnter marks the tick on which the controller entered the
	// all-stale safe mode; A carries the team size at entry.
	EvSafeEnter
	// EvSafeExit marks the first tick with fresh signal after safe mode;
	// A carries the team size at exit.
	EvSafeExit
	// EvDarkLoss is one dark-loss classification: drops excluded from the
	// loss override because the queue read empty while dropping (blackout
	// signature). A carries the queue id, B the excluded drop delta.
	EvDarkLoss
	// EvFault is a fault-plane flag flip observed via AttachFaults; A
	// carries the target (thread or queue id), B the faults.Kind.
	EvFault
	// EvRateLimit marks an actuation denied by the controller's
	// token-bucket rate limiter.
	EvRateLimit
	// EvPanic marks a controller tick panic swallowed by the watchdog; A
	// indexes the recorder's PanicLog, which holds the message and stack.
	EvPanic

	numKinds
)

var kindNames = [numKinds]string{
	"decision", "placement", "exile", "recover",
	"safe-enter", "safe-exit", "dark-loss", "fault",
	"rate-limit", "panic",
}

// String names the kind for traces and test output.
func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return "obsv.Kind(?)"
	}
	return kindNames[k]
}

// Decision flag bits carried by EvDecision events.
const (
	// FlagResized marks a decision whose tick changed the team total.
	FlagResized uint8 = 1 << iota
	// FlagRebalanced marks a decision whose tick migrated members at a
	// held total.
	FlagRebalanced
	// FlagSafeMode marks a decision taken with every queue's telemetry
	// stale (the controller held or grew toward the safe team).
	FlagSafeMode
)

// Event is one decoded flight-recorder entry. The scalar fields are
// kind-specific; the decode helpers (Want, Applied, Target, ...) name the
// common interpretations.
type Event struct {
	// Seq is the 1-based global sequence number of the event; a reader
	// that observes gaps lost the missing entries to ring overwrite.
	Seq uint64
	// At is the substrate timestamp in seconds: virtual time on the
	// simulated substrate, Runner.Elapsed on the live one.
	At float64
	// Kind identifies the event.
	Kind Kind
	// Flags carries the decision flag bits (EvDecision only).
	Flags uint8
	// A is the kind-specific primary scalar: packed want/applied for
	// decisions, a thread/queue id for exile/recover/dark-loss/fault
	// events, the team size for safe-mode edges and placements.
	A int64
	// B is the kind-specific secondary scalar: the packed placement plan
	// (sched.PackPlacement) for decisions and placements, the drop delta
	// for dark-loss, the faults.Kind for fault flips.
	B uint64
	// F1 is the decision's worst-queue occupancy fraction.
	F1 float64
	// F2 is the decision's feedforward term.
	F2 float64
	// F3 is the decision's modelled team watts.
	F3 float64
}

// Want returns a decision's size-law target (EvDecision).
func (e Event) Want() int { return int(int32(uint64(e.A) >> 32)) }

// Applied returns the team size in effect after the event (EvDecision),
// or the applied total (EvPlacement, EvSafeEnter, EvSafeExit).
func (e Event) Applied() int {
	if e.Kind == EvDecision {
		return int(int32(uint64(e.A) & 0xffffffff))
	}
	return int(e.A)
}

// Target returns the thread or queue id the event is about (EvExile,
// EvRecover, EvDarkLoss, EvFault).
func (e Event) Target() int { return int(e.A) }

// Plan returns the packed placement plan (sched.PackPlacement layout;
// 0 when the event carries none or the plan didn't fit the packing).
func (e Event) Plan() uint64 {
	if e.Kind == EvDecision || e.Kind == EvPlacement {
		return e.B
	}
	return 0
}

// packWA packs a decision's want/applied pair into the A scalar.
func packWA(want, applied int) int64 {
	return int64(uint64(uint32(want))<<32 | uint64(uint32(applied)))
}

// slot is one ring entry: eight relaxed atomic words, exactly one cache
// line. seq is the claim/validity word — zero while a writer is mid-store,
// the 1-based sequence once the entry is complete. Readers load seq,
// copy the payload, and re-check seq; a mismatch means the slot was being
// lapped and the copy is discarded. Individual fields are single words,
// so a race can never tear a value, only invalidate the slot.
type slot struct {
	seq atomic.Uint64
	at  atomic.Uint64 // math.Float64bits of the substrate timestamp
	kf  atomic.Uint64 // kind | flags<<8
	a   atomic.Uint64
	b   atomic.Uint64
	f1  atomic.Uint64
	f2  atomic.Uint64
	f3  atomic.Uint64
}

// PanicRecord holds the message and stack of one controller panic
// captured by the watchdog; EvPanic events index into the recorder's log.
type PanicRecord struct {
	// Msg is the recovered panic value rendered with fmt.Sprint.
	Msg string
	// Stack is the goroutine stack at recovery time.
	Stack string
}

// DefaultCapacity is the ring size NewRecorder falls back to when asked
// for a non-positive capacity: control-plane events arrive at controller
// tick rate (hundreds per second at most), so 4096 slots hold minutes of
// history in 256 KiB.
const DefaultCapacity = 4096

// Recorder is the flight recorder: a fixed-capacity lock-free ring of
// control-plane events. All Record methods are safe for concurrent use,
// cost a handful of relaxed atomic stores, allocate nothing, and are
// no-ops on a nil receiver — call sites wire a recorder with one field
// and pay one predictable branch when none is attached. Readers
// (Events, WriteTrace) may run concurrently with writers;
// entries overwritten mid-read are skipped, never torn.
type Recorder struct {
	pos   atomic.Uint64
	_     [56]byte // keep the claim counter off the slots' cache lines
	mask  uint64
	slots []slot

	panicMu  sync.Mutex
	panicLog []PanicRecord
}

// NewRecorder builds a flight recorder holding the most recent capacity
// events (rounded up to a power of two; non-positive means
// DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Recorder{mask: uint64(n - 1), slots: make([]slot, n)}
}

// Cap returns the ring capacity in events.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Total returns how many events were ever recorded (including any the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.pos.Load()
}

// Dropped returns how many events were overwritten by ring wrap.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	if t, c := r.pos.Load(), uint64(len(r.slots)); t > c {
		return t - c
	}
	return 0
}

// record claims the next slot and stores one event. The seq word is
// zeroed first and published last, so a concurrent reader either sees
// the complete event or skips the slot.
func (r *Recorder) record(at float64, kind Kind, flags uint8, a int64, b uint64, f1, f2, f3 float64) {
	if r == nil {
		return
	}
	seq := r.pos.Add(1)
	s := &r.slots[(seq-1)&r.mask]
	s.seq.Store(0)
	s.at.Store(math.Float64bits(at))
	s.kf.Store(uint64(kind) | uint64(flags)<<8)
	s.a.Store(uint64(a))
	s.b.Store(b)
	s.f1.Store(math.Float64bits(f1))
	s.f2.Store(math.Float64bits(f2))
	s.f3.Store(math.Float64bits(f3))
	s.seq.Store(seq)
}

// RecordDecision records one elastic controller tick: the size law's
// want/applied pair, the packed placement plan (sched.PackPlacement; 0
// when no plan landed), the worst-queue occupancy fraction, the
// feedforward term, the modelled watts, and the resize/rebalance/safe
// flags. Zero allocations; no-op on a nil recorder.
func (r *Recorder) RecordDecision(at float64, want, applied int, plan uint64, occ, feedfwd, watts float64, resized, rebalanced, safe bool) {
	var flags uint8
	if resized {
		flags |= FlagResized
	}
	if rebalanced {
		flags |= FlagRebalanced
	}
	if safe {
		flags |= FlagSafeMode
	}
	r.record(at, EvDecision, flags, packWA(want, applied), plan, occ, feedfwd, watts)
}

// RecordPlacement records a substrate-applied placement swap: the new
// team total and the packed per-queue plan.
func (r *Recorder) RecordPlacement(at float64, total int, plan uint64) {
	r.record(at, EvPlacement, 0, int64(total), plan, 0, 0, 0)
}

// RecordExile records the health layer exiling thread id.
func (r *Recorder) RecordExile(at float64, thread int) {
	r.record(at, EvExile, 0, int64(thread), 0, 0, 0, 0)
}

// RecordRecover records a previously exiled thread's heartbeat moving
// again.
func (r *Recorder) RecordRecover(at float64, thread int) {
	r.record(at, EvRecover, 0, int64(thread), 0, 0, 0, 0)
}

// RecordSafeMode records a safe-mode edge: enter=true on the first
// all-stale tick, enter=false on the first tick with fresh signal; team
// is the size in effect at the edge.
func (r *Recorder) RecordSafeMode(at float64, enter bool, team int) {
	k := EvSafeExit
	if enter {
		k = EvSafeEnter
	}
	r.record(at, k, 0, int64(team), 0, 0, 0, 0)
}

// RecordDarkLoss records one dark-loss classification on queue q: drops
// drops excluded from the loss override because the ring read empty.
func (r *Recorder) RecordDarkLoss(at float64, queue int, drops uint64) {
	r.record(at, EvDarkLoss, 0, int64(queue), drops, 0, 0, 0)
}

// RecordFault records a fault-plane flag flip: kind is the faults.Kind
// ordinal, target the thread or queue it hit. AttachFaults wires an
// injector's whole event stream through this.
func (r *Recorder) RecordFault(at float64, kind, target int) {
	r.record(at, EvFault, 0, int64(target), uint64(kind), 0, 0, 0)
}

// RecordRateLimit records an actuation denied by the controller's
// token-bucket rate limiter.
func (r *Recorder) RecordRateLimit(at float64) {
	r.record(at, EvRateLimit, 0, 0, 0, 0, 0, 0)
}

// RecordPanic records a controller panic swallowed by the tick watchdog,
// capturing the rendered panic value and stack into the panic log (the
// ring event carries the log index). This path allocates — it runs once
// per panic, not on the event hot path.
func (r *Recorder) RecordPanic(at float64, msg, stack string) {
	if r == nil {
		return
	}
	r.panicMu.Lock()
	idx := len(r.panicLog)
	r.panicLog = append(r.panicLog, PanicRecord{Msg: msg, Stack: stack})
	r.panicMu.Unlock()
	r.record(at, EvPanic, 0, int64(idx), 0, 0, 0, 0)
}

// PanicLog returns a copy of the captured panic records, oldest first.
func (r *Recorder) PanicLog() []PanicRecord {
	if r == nil {
		return nil
	}
	r.panicMu.Lock()
	defer r.panicMu.Unlock()
	return append([]PanicRecord(nil), r.panicLog...)
}

// Events appends the recorder's surviving events, oldest first, to dst
// (reusing its backing array) and returns the result. Safe to call while
// writers are recording: slots overwritten mid-read are skipped, so the
// returned sequence numbers may have gaps under wrap pressure but every
// returned event is internally consistent.
func (r *Recorder) Events(dst []Event) []Event {
	dst = dst[:0]
	if r == nil {
		return dst
	}
	end := r.pos.Load()
	start := uint64(0)
	if c := uint64(len(r.slots)); end > c {
		start = end - c
	}
	for seq := start + 1; seq <= end; seq++ {
		s := &r.slots[(seq-1)&r.mask]
		if s.seq.Load() != seq {
			continue
		}
		kf := s.kf.Load()
		e := Event{
			Seq:   seq,
			At:    math.Float64frombits(s.at.Load()),
			Kind:  Kind(kf & 0xff),
			Flags: uint8(kf >> 8),
			A:     int64(s.a.Load()),
			B:     s.b.Load(),
			F1:    math.Float64frombits(s.f1.Load()),
			F2:    math.Float64frombits(s.f2.Load()),
			F3:    math.Float64frombits(s.f3.Load()),
		}
		if s.seq.Load() != seq {
			continue // lapped mid-read: the copy may mix two events
		}
		dst = append(dst, e)
	}
	return dst
}

// CountByKind folds the surviving events into a per-kind histogram —
// the decision-trace panels' summary input.
func (r *Recorder) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.Events(nil) {
		out[e.Kind]++
	}
	return out
}

// Reset discards every recorded event and the panic log. It must not
// race with writers — reset between runs (the experiment harness resets
// at the warm-up boundary while the engine is parked), never mid-flight.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.slots {
		r.slots[i].seq.Store(0)
	}
	r.pos.Store(0)
	r.panicMu.Lock()
	r.panicLog = nil
	r.panicMu.Unlock()
}
