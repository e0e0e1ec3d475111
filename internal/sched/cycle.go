package sched

import (
	"fmt"

	"metronome/internal/faults"
	"metronome/internal/telemetry"
)

// Cycle is the decision half of the paper's Listing 2, written once for
// both execution substrates. It owns the policy (and its GroupPolicy view
// when the discipline binds service groups), the fault injector and the
// telemetry bus, and answers the three questions every retrieval cycle
// asks: may this thread contend (Gate), where and how long does a thread
// that lost the race sleep (LostRace), and what does the lock holder
// publish and how long does it sleep once the queue is drained (Finish).
// A substrate keeps its own clock, lock, drain, retirement test and
// counters, and calls the seam once per try and once per cycle — never per
// burst or per packet.
//
// Methods follow the Policy concurrency contract: anything may be called
// from any thread at any time except Finish(…, q, …), which the caller
// serialises per queue by calling it while still holding queue q's lock.
//
// A Cycle has no state of its own — the policy, the injector and the bus
// hold it all — so NewCycle hands it out by value and it lives inside the
// substrate that built it: no allocation, and the per-burst Publishes test
// reads the substrate's own memory.
type Cycle struct {
	policy Policy
	group  GroupPolicy      // nil unless the policy binds service groups
	faults *faults.Injector // nil on a deployment without a fault plane
	bus    *telemetry.Bus   // nil on a deployment without telemetry
	n      int
}

// NewCycle builds the named policy for cfg and the cycle around it; an
// empty name means adaptive — the one place both substrates resolve that
// default. It fails on an unknown policy name and on a bus sized for fewer
// queues than the deployment, which would otherwise die with an index panic
// at whichever per-queue publish came first.
func NewCycle(name string, cfg Config, f *faults.Injector) (Cycle, error) {
	if name == "" {
		name = NameAdaptive
	}
	cfg = cfg.normalized()
	if cfg.Bus != nil && cfg.Bus.Queues() < cfg.N {
		return Cycle{}, fmt.Errorf("sched: telemetry bus has %d queue slots, deployment has %d queues",
			cfg.Bus.Queues(), cfg.N)
	}
	p, err := New(name, cfg)
	if err != nil {
		return Cycle{}, err
	}
	c := Cycle{policy: p, faults: f, bus: cfg.Bus, n: cfg.N}
	c.group, _ = p.(GroupPolicy)
	return c, nil
}

// Policy exposes the discipline the cycle runs (timeouts and the load
// estimate are read straight off it).
func (c *Cycle) Policy() Policy { return c.policy }

// Group exposes the policy's shared-queue extension, or nil when the
// discipline binds no service groups.
func (c *Cycle) Group() GroupPolicy { return c.group }

// Gate is what the fault plane lets a waking thread do.
type Gate uint8

const (
	// GateRun lets the thread contend its queue.
	GateRun Gate = iota
	// GateDead means the thread has been killed: it must not contend until
	// revived. What "not contending" looks like is the substrate's — the
	// twin parks the thread (no engine event would poll the flag), the live
	// loop sleeps TL and asks again.
	GateDead
	// GateStalled means the thread is preempted until the returned time.
	GateStalled
)

// Gate reports whether thread id may contend at time now (seconds on the
// substrate's own clock, the one stall windows are expressed on). The
// second result is the end of the stall window under GateStalled and zero
// otherwise. Without a fault plane every thread runs.
func (c *Cycle) Gate(id int, now float64) (Gate, float64) {
	if c.faults == nil {
		return GateRun, 0
	}
	if c.faults.Dead(id) {
		return GateDead, 0
	}
	if until, ok := c.faults.StalledUntil(id); ok && now < until {
		return GateStalled, until
	}
	return GateRun, 0
}

// Dark reports whether the fault plane has blacked out queue q: its lock
// winner polls nothing while the backlog builds.
func (c *Cycle) Dark(q int) bool {
	return c.faults != nil && c.faults.QueueDark(q)
}

// Publishes reports whether queue q's telemetry gauges should publish now:
// a bus is attached and the fault plane has not frozen the queue's
// telemetry. A frozen queue keeps being served — only its gauges go stale,
// which is the brownout the controller's health layer must survive.
// Substrates evaluate it at every publish point, so a freeze lands
// mid-cycle.
func (c *Cycle) Publishes(q int) bool {
	return c.bus != nil && (c.faults == nil || !c.faults.TelemetryFrozen(q))
}

// ClaimTurn claims queue q's next service turn under a shared-queue
// discipline (see GroupPolicy.ClaimTurn for what a failed claim proves);
// disciplines without service groups have no turns and always admit. Where
// the claim sits relative to the queue lock is the substrate's: before the
// trylock in the live loop, as an admission filter that keeps a surplus
// sibling off the lock's cache line; after the lock check in the sequential
// twin, where it cannot fail and Turns(q) is an exact tally of the service
// turns queue q began.
func (c *Cycle) ClaimTurn(q int) bool {
	return c.group == nil || c.group.ClaimTurn(q)
}

// Home returns the queue thread id is homed on under the current
// placement: the group layout's home under a shared-queue discipline, the
// balanced modulo assignment otherwise. A thread re-entering the team
// starts there, and the elastic health layer aims corrective plans at it.
func (c *Cycle) Home(id int) int {
	if c.group != nil {
		return c.group.HomeQueue(id)
	}
	return id % c.n
}

// LostRace decides for thread id, which just lost the race for queue q:
// the queue it contends next (Sec. IV-E re-targeting, drawing from rng) and
// how long it sleeps first — queue q's backup timeout, re-spread onto the
// rotation clock when the thread is a colliding member of the group it
// will contend next.
func (c *Cycle) LostRace(id, q int, rng Rand) (next int, sleep float64) {
	sleep = c.policy.TL(q)
	next = c.policy.PickBackupQueue(q, rng)
	if c.group != nil {
		sleep = c.group.Dephase(id, next, sleep, true)
	}
	return next, sleep
}

// Finish closes a service cycle of queue q for its lock holder, thread id:
// it folds busy and the preceding vacation into the load estimate, which
// re-evaluates TS (eq. 11, 13/14); publishes rho, the thread's cumulative
// on-CPU time threadBusy and — last, so a sampler that sees the bump sees
// the whole cycle — the queue's publish sequence; and publishes the
// thread's heartbeat now even through a telemetry freeze: staleness is a
// property of the queue's gauges, liveness of the thread, and the health
// layer tells them apart by which one moves. It returns the queue the
// thread contends next and its sleep: a member that served a foreign queue
// as backup returns home on the *home* queue's member timeout, so each
// group holds the size its eq. (13) timeout assumes.
//
// Call it with queue q's lock still held; that is the per-queue
// serialisation ObserveCycle requires.
func (c *Cycle) Finish(id, q int, busy, vacation, threadBusy, now float64) (next int, sleep float64) {
	sleep = c.policy.ObserveCycle(q, busy, vacation)
	if c.bus != nil {
		if c.Publishes(q) {
			c.bus.Set(telemetry.Rho, q, c.policy.Rho(q))
			c.bus.SetThread(telemetry.BusySeconds, id, threadBusy)
			c.bus.Add(telemetry.PubSeq, q, 1)
		}
		c.bus.SetThread(telemetry.Heartbeat, id, now)
	}
	next = q
	if c.group != nil {
		if home := c.group.HomeQueue(id); home != q {
			next = home
			sleep = c.policy.TS(home)
		}
		sleep = c.group.Dephase(id, next, sleep, false)
	}
	return next, sleep
}

// CanPlace reports whether placement plans land per queue: true only when
// the discipline binds service groups (GroupPolicy). Roaming disciplines
// accept plans but degrade them to the total.
func (c *Cycle) CanPlace() bool { return c.group != nil }

// Adopt hands a normalised placement plan (see NormalizePlacement) to the
// policy: the per-queue sizes when it can place, the total otherwise.
func (c *Cycle) Adopt(sizes []int, total int) {
	if c.group != nil {
		c.group.SetPlacement(sizes)
	} else {
		c.policy.SetTeamSize(total)
	}
}

// Placement returns what a team of m threads holds per queue: the policy's
// group sizes when it places, the balanced split otherwise — roaming
// disciplines let threads wander, so balance is the honest provisioning
// statement. The slice is the caller's.
func (c *Cycle) Placement(m int) []int {
	if c.group != nil {
		return c.group.Placement()
	}
	return BalancedPlacement(m, c.n)
}
