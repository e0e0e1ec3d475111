// Package faults is the deterministic fault-injection plane underneath the
// robustness experiments: a fixed set of atomic fault flags — per-thread
// stalls, per-queue blackouts and telemetry freezes, a
// controller-outage switch — that both execution substrates consult on
// their cycle paths and an experiment (or a chaos test) flips on a
// schedule.
//
// The injector itself is clockless and substrate-agnostic, exactly like the
// telemetry bus it mirrors: the discrete-event twin flips flags from
// ordinary engine events (Schedule), so a faulted sweep stays byte-identical
// at any experiment-harness parallelism; the live runtime checks the same
// atomics from its retrieval goroutines, so a test can flip them from any
// goroutine under -race. Reads are one atomic load behind a nil check — a
// deployment without an injector pays only the nil branch.
//
// The fault vocabulary is the failure surface the elastic control loop must
// survive: a noisy neighbor preempting a member through k service turns
// (StallThread; a member that dies outright is one stalled until +Inf, and
// a stall ending now revives it), a NIC queue going dark and recovering
// (SetQueueDark), a queue's gauges freezing at their last published value
// (FreezeTelemetry), and the controller's tick source being suppressed for
// a window (SuppressController).
package faults

import (
	"fmt"
	"math"
	"sync/atomic"

	"metronome/internal/sim"
)

// threadFault is one thread's fault state, padded so the live substrate's
// per-goroutine hot-path loads never false-share a line with a neighbour's
// (the same layout rule as the telemetry bus slots).
type threadFault struct {
	stallUntil atomic.Uint64 // float64 bits; 0 = no stall
	_          [56]byte
}

// queueFault is one queue's fault state, padded like threadFault.
type queueFault struct {
	dark   atomic.Bool
	frozen atomic.Bool
	_      [56]byte
}

// Injector holds the fault flags for one deployment: thread and queue slots
// sized once at construction (size for the elastic budget, not the initial
// team — a resize beyond the sized arrays is ignored on set and healthy on
// query, never a fault of its own).
type Injector struct {
	threads []threadFault
	queues  []queueFault
	ctrl    atomic.Bool
	obs     func(Event)
}

// Observe registers fn to be called synchronously from Apply with every
// fault event as it lands — the observability plane's hook (see
// obsv.AttachFaults) for recording flag flips with their substrate
// timestamps. One observer; nil clears. Register before any event can
// fire (before faults.Schedule on the sim substrate, before the run
// starts live): the registration itself is not synchronized against a
// concurrent Apply.
func (f *Injector) Observe(fn func(Event)) { f.obs = fn }

// New builds an injector over maxThreads thread slots and nQueues queues.
func New(maxThreads, nQueues int) *Injector {
	if maxThreads < 1 {
		maxThreads = 1
	}
	if nQueues < 1 {
		nQueues = 1
	}
	return &Injector{
		threads: make([]threadFault, maxThreads),
		queues:  make([]queueFault, nQueues),
	}
}

// StallThread preempts thread id until the given substrate time: its wakeups
// before then do not contend (the noisy neighbor holds the core), modelling
// a member that sleeps through k service turns. A later until extends an
// ongoing stall; a past one clears it. An until of +Inf is thread death: the
// member never contends again until a StallThread(id, now) revives it.
func (f *Injector) StallThread(id int, until float64) {
	if id < 0 || id >= len(f.threads) {
		return
	}
	f.threads[id].stallUntil.Store(math.Float64bits(until))
}

// StalledUntil returns the end of thread id's stall window and whether one
// is set. Callers compare against their own clock: the injector stores, it
// does not tell time.
func (f *Injector) StalledUntil(id int) (float64, bool) {
	if id < 0 || id >= len(f.threads) {
		return 0, false
	}
	bits := f.threads[id].stallUntil.Load()
	if bits == 0 {
		return 0, false
	}
	return math.Float64frombits(bits), true
}

// SetQueueDark blacks out (or recovers) queue q: polls find nothing while
// arrivals keep accruing against the ring — the NIC-side link flap the
// substrates model via their queue's dark mode.
func (f *Injector) SetQueueDark(q int, dark bool) {
	if q < 0 || q >= len(f.queues) {
		return
	}
	f.queues[q].dark.Store(dark)
}

// QueueDark reports whether queue q is blacked out.
func (f *Injector) QueueDark(q int) bool {
	if q < 0 || q >= len(f.queues) {
		return false
	}
	return f.queues[q].dark.Load()
}

// FreezeTelemetry freezes (or thaws) queue q's telemetry: the substrates
// skip every per-queue publish for q while frozen, so its bus gauges and
// counters hold their last values — the staleness the control loop's health
// layer must reject. Per-thread signals (heartbeats, duty) stay live; the
// fault is the queue's, not the thread's.
func (f *Injector) FreezeTelemetry(q int, frozen bool) {
	if q < 0 || q >= len(f.queues) {
		return
	}
	f.queues[q].frozen.Store(frozen)
}

// TelemetryFrozen reports whether queue q's telemetry is frozen.
func (f *Injector) TelemetryFrozen(q int) bool {
	if q < 0 || q >= len(f.queues) {
		return false
	}
	return f.queues[q].frozen.Load()
}

// SuppressController suppresses (or restores) the elastic controller's
// ticks. The injector only holds the flag: tick sources (the experiment
// harness's engine ticker, a live deployment's wall-clock loop) consult it
// before invoking Tick.
func (f *Injector) SuppressController(down bool) { f.ctrl.Store(down) }

// ControllerSuppressed reports whether controller ticks are suppressed.
func (f *Injector) ControllerSuppressed() bool { return f.ctrl.Load() }

// Kind enumerates the schedulable fault events.
type Kind int

const (
	// ThreadStall stalls Target until Until (StallThread): +Inf kills it,
	// an Until at or before At revives it.
	ThreadStall Kind = iota
	// QueueBlackout blacks out queue Target (SetQueueDark true).
	QueueBlackout
	// QueueRecover recovers queue Target (SetQueueDark false).
	QueueRecover
	// TelemetryFreeze freezes queue Target's gauges (FreezeTelemetry true).
	TelemetryFreeze
	// TelemetryThaw thaws queue Target's gauges (FreezeTelemetry false).
	TelemetryThaw
	// ControllerDown suppresses controller ticks (SuppressController true).
	ControllerDown
	// ControllerUp restores controller ticks (SuppressController false).
	ControllerUp
)

var kindNames = [...]string{
	"thread-stall",
	"queue-blackout", "queue-recover",
	"telemetry-freeze", "telemetry-thaw",
	"controller-down", "controller-up",
}

// String names the kind for traces and test output.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("faults.Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one scheduled fault: at substrate time At, apply Kind to Target
// (a thread id for thread faults, a queue id for queue faults, ignored for
// controller faults). Until is ThreadStall's stall-end time.
type Event struct {
	At     float64
	Kind   Kind
	Target int
	Until  float64
}

// Apply applies one event's state change to the injector (the timestamp is
// the scheduler's business — Schedule uses engine events, live callers their
// own clocks).
func (f *Injector) Apply(ev Event) {
	switch ev.Kind {
	case ThreadStall:
		f.StallThread(ev.Target, ev.Until)
	case QueueBlackout:
		f.SetQueueDark(ev.Target, true)
	case QueueRecover:
		f.SetQueueDark(ev.Target, false)
	case TelemetryFreeze:
		f.FreezeTelemetry(ev.Target, true)
	case TelemetryThaw:
		f.FreezeTelemetry(ev.Target, false)
	case ControllerDown:
		f.SuppressController(true)
	case ControllerUp:
		f.SuppressController(false)
	default:
		panic(fmt.Sprintf("faults: unknown event kind %d", int(ev.Kind)))
	}
	if f.obs != nil {
		f.obs(ev)
	}
}

// Schedule registers every event on the engine as an ordinary virtual-time
// event, which is what keeps a faulted simulation a pure function of its
// seed: fault flips order against wakeups and controller ticks by (time,
// scheduling sequence) exactly like any other event, at any experiment-
// harness parallelism.
func Schedule(eng *sim.Engine, f *Injector, evs []Event) {
	for _, ev := range evs {
		ev := ev
		eng.At(ev.At, "fault-"+ev.Kind.String(), func() { f.Apply(ev) })
	}
}

// Storm appends a periodic stall storm for one thread: starting at from,
// every period the thread stalls for stall seconds, until before. It returns
// the extended schedule — the straggler-storm building block of the
// fig-faults experiment and the chaos soak.
func Storm(evs []Event, thread int, from, before, period, stall float64) []Event {
	for t := from; t < before; t += period {
		end := t + stall
		if end > before {
			end = before
		}
		evs = append(evs, Event{At: t, Kind: ThreadStall, Target: thread, Until: end})
	}
	return evs
}
