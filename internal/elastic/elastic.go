// Package elastic is the feedback control plane above Metronome's
// per-thread adaptivity: where the sleep&wake policy engine tunes each
// thread's timeout TS to the load, this controller tunes the *team size M*
// to the workload's shape. It samples the lock-free telemetry bus
// (internal/telemetry) every control period and grows or shrinks the
// thread team through the Team interface, which both execution substrates
// implement — the discrete-event twin re-sizes through engine events, the
// live runtime spawns and parks goroutines.
//
// The law is a PI controller on wake-time ring occupancy with a loss
// override: occupancy relative to ring capacity is the fast signal (it
// spikes within one vacation when a flash crowd lands, long before the rho
// EWMA converges), sustained loss feeds the integral term, and a deadband
// plus cooldown keep the team from flapping on noise. A hard Budget caps
// the team so provisioned CPU can never exceed the configured core budget.
//
// The controller is substrate-agnostic and clockless: callers invoke
// Tick(now) on their own cadence — an engine Ticker in the sim (which
// keeps elastic runs deterministic at any experiment-harness parallelism),
// a wall-clock ticker via Run in a live deployment.
package elastic

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"metronome/internal/obsv"
	"metronome/internal/power"
	"metronome/internal/sched"
	"metronome/internal/telemetry"
)

// Objective selects the cost model the size law minimises against loss.
type Objective int

const (
	// ObjectiveThreadSeconds (the zero value) is the original law: every
	// provisioned thread-second costs the same, so the controller holds
	// the occupancy target as configured. All pre-fidelity-plane tunings
	// ran under it and stay byte-identical.
	ObjectiveThreadSeconds Objective = iota
	// ObjectiveJoules prices the team with Config.Power instead: a parked
	// core's deep C-state makes shedding a lightly-loaded member worth
	// more than a thread-second, so the effective occupancy target is
	// inflated by the calibration's EnergyPressure at the team's measured
	// duty cycle — large at trough load where the idle floor dominates,
	// near zero at saturation. The loss override is deliberately left on
	// the raw error, so loss still dominates any energy saving.
	ObjectiveJoules
)

// String names the objective for tables and flags.
func (o Objective) String() string {
	if o == ObjectiveJoules {
		return "joules"
	}
	return "thread-seconds"
}

// Team is a resizable, placeable retrieval-thread team; core.Runtime and
// runtime.Runner both implement it.
type Team interface {
	// TeamSize returns the current team size.
	TeamSize() int
	// SetTeamSize requests a new team size and returns the applied one
	// (substrates clamp to at least one thread per queue). It is the
	// degenerate balanced plan: ApplyPlacement(BalancedPlacement(m, N)).
	SetTeamSize(m int) int
	// ApplyPlacement adopts perQueue[q] members homed on queue q (entries
	// clamped to >= 1) and returns the applied team total.
	ApplyPlacement(perQueue []int) int
	// CanPlace reports whether plans actually land per queue: true only
	// when the discipline is a sched.GroupPolicy. Otherwise ApplyPlacement
	// degrades to the total, and the controller runs its scalar law.
	CanPlace() bool
	// Placement returns the per-queue member counts in effect (a copy);
	// the controller seeds its rebalance baseline from it.
	Placement() []int
	// ThreadHome returns the queue thread id is homed on; the health layer
	// aims corrective plans at an unhealthy member's home through it.
	ThreadHome(id int) int
}

// Plan is the controller's actuation output: a total team size and its
// per-queue apportionment. PerQueue sums to Total; a nil PerQueue is the
// balanced plan (what SetTeamSize applies).
type Plan struct {
	// Total is the team size the plan provisions.
	Total int
	// PerQueue holds the members homed on each queue; entries sum to
	// Total. Nil means the balanced plan.
	PerQueue []int
}

// Config tunes the control plane. The zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// Period is the control period in seconds (default 1 ms): how often
	// the bus is sampled and a resize considered.
	Period float64
	// MinThreads is the floor the team may shrink to (default: the
	// substrate's queue count, via the Team clamp).
	MinThreads int
	// Budget is the hard ceiling on the team — the core budget this
	// deployment may provision. CPU can never exceed Budget cores.
	Budget int
	// TargetOccupancy is the wake-time ring occupancy the PI holds, as a
	// fraction of ring capacity (default 0.10). Occupancy above it is
	// grow pressure; occupancy below it unwinds the integral and shrinks.
	TargetOccupancy float64
	// Cooldown is the minimum time between applied *shrinks* in seconds
	// (default 16 periods). Growth is never throttled: under-provisioning
	// loses packets, over-provisioning only burns budget.
	Cooldown float64
	// Placement enables the per-queue placement law: besides moving the
	// scalar team size, the controller apportions members across queues by
	// wake-occupancy share and actuates full plans through ApplyPlacement
	// (when the team CanPlace — otherwise it degrades to SetTeamSize). A
	// placement-only move (total unchanged, members migrating between
	// groups) is rate-limited by Cooldown like a shrink: it costs no
	// budget, but flapping members between groups costs re-homing churn.
	Placement bool
	// SlopeGain is the feedforward lookahead of the size law, in control
	// periods (default 0 = off): the worst queue's EWMA occupancy slope
	// times SlopeGain periods is added to the *proportional* error, so a
	// rising Sine/Ramp edge pre-provisions before the ring ever fills.
	// Only the feedback error feeds the integral — feedforward cannot wind
	// it up, so a crested ramp unwinds at the plain PI rate.
	SlopeGain float64

	// Objective selects what the size law minimises: thread-seconds (the
	// zero value — the original law) or modelled joules. See the
	// Objective constants for the semantics.
	Objective Objective
	// Power is the calibration the joules objective (and the per-tick
	// Decision.Watts gauge) prices teams with. The zero value is replaced
	// by power.DefaultConfig() — the Xeon Silver node the experiments
	// model.
	Power power.Config

	// Health enables the self-healing layer: stale-gauge rejection (a queue
	// whose publish sequence stops advancing for StaleTicks control ticks is
	// distrusted and its last-fresh smoothed signals are held instead),
	// heartbeat-based straggler/death detection with exile through
	// corrective placement plans, dark-queue loss classification (drops
	// rising into an empty-reading ring are a blackout, not
	// under-provisioning), a SafeTeam fallback when the whole bus goes
	// stale, and a Tick watchdog (panic recovery + actuation rate
	// limiting). Off by default: the shipped fig-elastic/fig-placement
	// tunings predate it and stay byte-identical.
	Health bool
	// SafeTeam is the static team size the controller holds when every
	// queue's telemetry is stale (the bus went dark): with no trustworthy
	// signal, provision a configured-safe size rather than act on garbage.
	// The fallback is grow-only — safe mode never shrinks below the current
	// size. Default: Budget.
	SafeTeam int
	// MaxActuationsPerSec rate-limits applied actuations (resizes,
	// rebalances, exiles) through a token bucket when the health layer is
	// on; zero disables the limit. A recovering controller (outage ends,
	// ticks resume) cannot burst-actuate its way through stale state.
	MaxActuationsPerSec float64

	// Recorder, when set, is the observability plane's control-plane tap:
	// every tick's Decision (want/applied/plan/occupancy/feedforward/
	// watts), each exile and un-exile, each safe-mode edge, each dark-loss
	// classification, each rate-limit denial and each watchdog-recovered
	// panic lands in the flight recorder at zero allocations per event,
	// stamped with the tick's own substrate timestamp (the controller is
	// clockless and stays so). Nil records nothing and costs one branch.
	Recorder *obsv.Recorder
}

// The control laws' tuning, calibrated by the fig-elastic experiment.
const (
	// Kp and Ki are the proportional and integral gains in threads per
	// unit error. Errors are normalised: (occ - target)/target, so error 1
	// means double the target.
	Kp, Ki = 1, 0.5
	// LossGain is the error added while the last window dropped packets:
	// loss is the unambiguous under-provisioning signal, so it dominates
	// the occupancy term until it stops.
	LossGain = 3
	// Hysteresis widens the resize deadband in threads: a resize applies
	// only when the PI output departs the current size by more than
	// 0.5+Hysteresis, so the rounding boundary cannot chatter.
	Hysteresis = 0.25
	// SignalAlpha is the EWMA smoothing of the per-queue occupancy signals.
	// It governs BOTH smoothed views of the sampled occupancy: the slope
	// EWMA the feedforward reads (republished to the bus as
	// occupancy-slope gauges) and the occupancy EWMA the placement law
	// apportions by — one constant because both exist to filter the same
	// point-in-time sampling noise at the same control cadence.
	SignalAlpha = 0.25
	// StaleTicks is the health layer's per-queue staleness bound in
	// control ticks: a queue whose publish sequence has not advanced for
	// this many ticks is stale. Staleness is detected by value change,
	// never by clock arithmetic — the sim publishes virtual seconds, the
	// live runner elapsed seconds, and the controller must not care.
	StaleTicks = 8
	// HeartbeatTicks is the health layer's per-member liveness bound in
	// control ticks: an active member whose heartbeat gauge has not changed
	// for this many ticks is a straggler (stalled or dead) and is exiled —
	// its home queue gets one reinforcing member through a corrective plan.
	// The exile latch clears only when the heartbeat value moves again.
	HeartbeatTicks = 8
)

// DefaultConfig returns the tuning the fig-elastic experiment ships:
// budget cores, a 1 ms control period and a 10% occupancy target.
func DefaultConfig(minThreads, budget int) Config {
	return Config{
		Period:          1e-3,
		MinThreads:      minThreads,
		Budget:          budget,
		TargetOccupancy: 0.10,
	}
}

func (c Config) normalized() Config {
	if c.Period <= 0 {
		c.Period = 1e-3
	}
	if c.MinThreads < 1 {
		c.MinThreads = 1
	}
	if c.Budget < c.MinThreads {
		c.Budget = c.MinThreads
	}
	if c.TargetOccupancy <= 0 {
		c.TargetOccupancy = 0.10
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 16 * c.Period
	}
	if c.SlopeGain < 0 {
		c.SlopeGain = 0
	}
	if c.SafeTeam <= 0 || c.SafeTeam > c.Budget {
		c.SafeTeam = c.Budget
	}
	if c.MaxActuationsPerSec < 0 {
		c.MaxActuationsPerSec = 0
	}
	if c.Power == (power.Config{}) {
		c.Power = power.DefaultConfig()
	}
	return c
}

// Decision records one control tick for observability.
type Decision struct {
	At        float64 // tick time
	Occupancy float64 // worst-queue occupancy fraction sampled
	Slope     float64 // worst-queue EWMA occupancy slope (fraction/s)
	LossDelta uint64  // packets dropped since the previous tick
	Err       float64 // combined feedback error (occupancy + loss)
	Feedfwd   float64 // feedforward term added to the proportional path
	Raw       float64 // un-rounded size-law output in threads
	Want      int     // rounded, clamped target
	Applied   int     // team size after the tick
	Resized   bool    // whether a resize was applied
	// Plan is the per-queue placement applied this tick (nil when the tick
	// actuated nothing, or actuated through the scalar SetTeamSize path).
	Plan []int
	// Rebalanced marks a placement-only move: members migrated between
	// queues with the team total unchanged.
	Rebalanced bool
	// Duty is the team's measured busy fraction over the tick window
	// (summed on-CPU deltas over cur*dt), the joules objective's input.
	Duty float64
	// Watts is the modelled core-only power of the deployment at this
	// tick: the provisioned team at its measured duty and sleep dwell,
	// plus the budget's surplus cores parked in deep idle (Config.Power
	// calibration; uncore power excluded as sizing-invariant).
	Watts float64

	// Health-layer observability (zero values unless Config.Health is on).

	// StaleMask marks queues whose telemetry is stale this tick: bit q is
	// set for stale queue q (queues past 63 fold modulo 64).
	StaleMask uint64
	// DarkLoss is the drop delta excluded from the loss override this tick
	// because it carried the blackout signature — drops rising while the
	// ring reads empty. Growing the team cannot serve a dark queue.
	DarkLoss uint64
	// Unhealthy lists active members whose heartbeat froze past the bound.
	Unhealthy []int
	// Exiled lists members the health layer exiled this tick: a corrective
	// plan reinforced each one's home queue.
	Exiled []int
	// Recovered lists previously exiled members whose heartbeat moved again.
	Recovered []int
	// SafeMode marks a tick on which every queue was stale: the controller
	// held/grew toward SafeTeam instead of trusting the bus.
	SafeMode bool
}

// Controller drives one Team from one Bus.
type Controller struct {
	cfg     Config
	bus     *telemetry.Bus
	team    Team
	placing bool // Placement is on and the team CanPlace

	integ         float64 // integral state, in threads above MinThreads
	lastTick      float64
	lastShrink    float64
	lastRebalance float64
	started       bool

	snap         telemetry.Snapshot
	prevDrops    []uint64
	prevRx       []uint64
	prevBusySum  float64      // last tick's summed per-thread on-CPU seconds
	prevTriesSum uint64       // last tick's summed per-queue trylock counter
	energy       power.Energy // ∫watts dt behind Report.Joules
	prevOccF     []float64    // previous tick's per-queue occupancy fractions
	occEW        []float64    // EWMA per-queue occupancy fraction (placement law)
	slopes       []float64    // EWMA per-queue occupancy slope (fraction/s)
	lastPlan     []int        // placement last applied (placement mode only)
	planBuf      []int        // scratch for the apportionment law
	remBuf       []float64    // scratch for largest-remainder apportionment
	health       *healthState // nil unless Config.Health

	// Window stats backing Report.
	statsFrom     float64
	threadSeconds float64
	resizes       int
	rebalances    int
	minSeen       int
	maxSeen       int
	last          Decision
	prevSafe      bool // previous tick's SafeMode, for recording edges
}

// New builds a controller over bus and team. The team is immediately
// clamped into [MinThreads, Budget] so a mis-sized initial deployment
// starts inside the envelope.
func New(bus *telemetry.Bus, team Team, cfg Config) *Controller {
	c := &Controller{
		cfg:  cfg.normalized(),
		bus:  bus,
		team: team,
	}
	m := team.TeamSize()
	if m < c.cfg.MinThreads {
		m = team.SetTeamSize(c.cfg.MinThreads)
	}
	if m > c.cfg.Budget {
		m = team.SetTeamSize(c.cfg.Budget)
	}
	c.integ = float64(m - c.cfg.MinThreads)
	c.minSeen, c.maxSeen = m, m
	c.prevDrops = make([]uint64, bus.Queues())
	c.prevRx = make([]uint64, bus.Queues())
	c.prevOccF = make([]float64, bus.Queues())
	c.occEW = make([]float64, bus.Queues())
	c.slopes = make([]float64, bus.Queues())
	// The placement law engages only when plans land per queue; reporting
	// plans/rebalances against a team that degrades them would be fiction.
	if c.placing = c.cfg.Placement && team.CanPlace(); c.placing {
		// Baseline from the placement actually in effect — a team that was
		// hand-placed before the controller attached must be rebalanced
		// away from, not assumed balanced.
		c.lastPlan = append([]int(nil), team.Placement()...)
		c.planBuf = make([]int, bus.Queues())
	}
	if c.cfg.Health {
		c.health = newHealthState(bus)
	}
	return c
}

// Config returns the normalised configuration in effect.
func (c *Controller) Config() Config { return c.cfg }

// Tick runs one control period ending at now: sample the bus, update the
// size law's PI state (plus the slope feedforward), and actuate — a full
// placement plan when the placement law is on, the scalar team size
// otherwise — when the output leaves the deadband. With the placement law
// on, a tick that moves no total can still migrate members between queues
// (a rebalance), rate-limited by the cooldown.
//
// A tick whose now is not strictly later than the previous tick's is
// rejected (the previous Decision is returned unchanged): a recovering
// ticker replaying a timestamp, or two tickers racing, must not fold a
// zero-length window into the PI state or double-count deltas. With the
// health layer on, the body additionally runs under a watchdog — a panic
// is swallowed, counted, and the last good Decision returned, so one bad
// sample cannot take the control loop down with it.
func (c *Controller) Tick(now float64) (d Decision) {
	if c.started && now <= c.lastTick {
		return c.last
	}
	if c.health != nil {
		defer func() {
			if r := recover(); r != nil {
				c.health.panics++
				// Capture the panic's value and stack — the report keeps
				// the FIRST one (the panic that started a failure cascade
				// is the diagnosable one), the flight recorder logs every
				// one. This path allocates; a watchdog trip is not hot.
				msg, stack := fmt.Sprint(r), string(debug.Stack())
				if c.health.panicMsg == "" {
					c.health.panicMsg, c.health.panicStack = msg, stack
				}
				c.cfg.Recorder.RecordPanic(now, msg, stack)
				d = c.last
			}
		}()
	}
	return c.tick(now)
}

// tick is the control law body; Tick wraps it with the monotonicity guard
// and (with the health layer on) the panic watchdog.
func (c *Controller) tick(now float64) Decision {
	cur := c.team.TeamSize()
	if !c.started {
		c.started = true
		c.lastTick, c.statsFrom = now, now
		// Counter baselines: the first tick only calibrates deltas.
		c.bus.Sample(&c.snap)
		copy(c.prevDrops, c.snap.Counter[telemetry.Drops])
		copy(c.prevRx, c.snap.Counter[telemetry.Rx])
		for q := 0; q < c.bus.Queues(); q++ {
			c.prevOccF[q] = c.occFraction(q)
		}
		c.prevBusySum, c.prevTriesSum = sumF(c.snap.Thread[telemetry.BusySeconds]), sumU(c.snap.Counter[telemetry.Tries])
		c.energy.Rebase(now, c.cfg.Power.TeamWatts(cur, 0, 0, c.cfg.Budget-cur))
		if c.health != nil {
			c.health.seed(&c.snap, now)
		}
		c.last = Decision{At: now, Want: cur, Applied: cur}
		c.recordTick(&c.last)
		return c.last
	}
	dt := now - c.lastTick
	c.threadSeconds += float64(cur) * dt
	c.lastTick = now

	c.bus.Sample(&c.snap)
	d := Decision{At: now}
	safeMode := false
	if c.health != nil {
		safeMode = c.healthObserve(&d, cur)
	}
	occ, slope := 0.0, 0.0
	for q := 0; q < c.bus.Queues(); q++ {
		if c.health != nil && c.health.stale(q) {
			// Stale gauge rejection: the queue's publishers went quiet, so
			// this sample is a frozen echo. Hold the last-fresh smoothed
			// signals (the occupancy EWMA and slope keep steering the size
			// and placement laws) instead of folding the echo in.
			if c.occEW[q] > occ {
				occ = c.occEW[q]
			}
			if c.slopes[q] > slope {
				slope = c.slopes[q]
			}
			continue
		}
		f := c.occFraction(q)
		if f > occ {
			occ = f
		}
		// The published occupancy is a point-in-time gauge (N_V at a wake,
		// zero right after a release), so a single sample is aliasing
		// noise. The placement law apportions by this EWMA instead — the
		// time-averaged wake occupancy is the demand a queue actually
		// exerts.
		c.occEW[q] += SignalAlpha * (f - c.occEW[q])
		if dt > 0 {
			// Per-queue occupancy slope, EWMA-smoothed and republished to
			// the bus as a gauge: the feedforward's input and the
			// observability signal behind the fig-placement panels.
			s := (f - c.prevOccF[q]) / dt
			c.slopes[q] += SignalAlpha * (s - c.slopes[q])
			c.bus.Set(telemetry.OccSlope, q, c.slopes[q])
		}
		if c.slopes[q] > slope {
			slope = c.slopes[q]
		}
		c.prevOccF[q] = f
	}
	var lossDelta uint64
	for q := 0; q < c.bus.Queues(); q++ {
		if drops := c.snap.Counter[telemetry.Drops][q]; drops >= c.prevDrops[q] {
			delta := drops - c.prevDrops[q]
			if c.health != nil && delta > 0 && c.occEW[q] < 0.01 {
				// Blackout signature: drops rising while the ring reads
				// (nearly) empty means the queue went dark, not
				// under-provisioned — polls see nothing to serve, so more
				// threads cannot help. Excluded from the loss override.
				d.DarkLoss += delta
				c.cfg.Recorder.RecordDarkLoss(now, q, delta)
			} else {
				lossDelta += delta
			}
		}
		if dt > 0 {
			// Republish the measured per-queue arrival rate (Rx delta over
			// the control window) as a gauge: the signal dashboards and
			// feedforward consumers read without re-deriving counter deltas.
			if rx := c.snap.Counter[telemetry.Rx][q]; rx >= c.prevRx[q] {
				c.bus.Set(telemetry.ArrivalRate, q, float64(rx-c.prevRx[q])/dt)
			}
		}
		// A counter that moved backwards was reset (warm-up window
		// alignment); resync silently.
		c.prevDrops[q] = c.snap.Counter[telemetry.Drops][q]
		c.prevRx[q] = c.snap.Counter[telemetry.Rx][q]
	}

	// Measured team duty and sleep dwell over the window — the joules
	// objective's and the watts gauge's inputs. Deltas resync silently
	// after a warm-up counter reset, like the drop and rx counters above.
	busySum, triesSum := sumF(c.snap.Thread[telemetry.BusySeconds]), sumU(c.snap.Counter[telemetry.Tries])
	busyDelta := busySum - c.prevBusySum
	if busyDelta < 0 {
		busyDelta = 0
	}
	duty := 0.0
	if dt > 0 && cur > 0 {
		duty = clamp(busyDelta/(float64(cur)*dt), 0, 1)
	}
	dwell := 0.0
	if sleeps := triesSum - c.prevTriesSum; triesSum > c.prevTriesSum {
		if idle := float64(cur)*dt - busyDelta; idle > 0 {
			dwell = idle / float64(sleeps)
		}
	}
	c.prevBusySum, c.prevTriesSum = busySum, triesSum
	d.Duty = duty
	d.Watts = c.cfg.Power.TeamWatts(cur, duty, dwell, c.cfg.Budget-cur)
	c.energy.Observe(now, d.Watts)

	d.Occupancy, d.Slope, d.LossDelta = occ, slope, lossDelta
	if safeMode {
		// The whole bus is stale: every signal below would be an echo, so
		// skip the PI entirely and hold/grow toward the configured safe
		// static size. Grow-only — shrinking on no information loses
		// packets, holding extra threads only burns budget.
		d.SafeMode = true
		d.Want, d.Applied = cur, cur
		c.healthSafeMode(&d, now, cur)
		return c.finishTick(d)
	}

	target := c.cfg.TargetOccupancy
	if c.cfg.Objective == ObjectiveJoules {
		// The joules objective tolerates proportionally more backlog per
		// ring when the idle floor dominates the bill: inflating the
		// target by the calibration's energy pressure sheds marginal
		// members at trough duty and converges on the thread-seconds law
		// as duty approaches saturation. Loss is added to the raw error
		// below, NOT scaled — a dropping queue out-shouts any saving.
		target *= 1 + c.cfg.Power.EnergyPressure(duty)
	}
	e := (occ - target) / target
	if lossDelta > 0 {
		e += LossGain
	}
	// Feedforward: the predicted occupancy rise over the lookahead window
	// (SlopeGain control periods), normalised like the proportional error.
	// Only rising edges feed forward — a falling edge just lets the PI
	// unwind — and only the proportional path sees it, so feedforward can
	// pre-provision but never wind the integral up.
	ff := 0.0
	if c.cfg.SlopeGain > 0 && slope > 0 {
		ff = slope * c.cfg.SlopeGain * c.cfg.Period / c.cfg.TargetOccupancy
	}
	c.integ += Ki * e
	c.integ = clamp(c.integ, 0, float64(c.cfg.Budget-c.cfg.MinThreads))
	raw := float64(c.cfg.MinThreads) + Kp*(e+ff) + c.integ
	want := int(math.Round(clamp(raw, float64(c.cfg.MinThreads), float64(c.cfg.Budget))))

	d.Err, d.Feedfwd, d.Raw = e, ff, raw
	d.Want, d.Applied = want, cur
	switch {
	case want > cur && raw > float64(cur)+0.5+Hysteresis &&
		c.takeToken(now):
		d.Applied = c.actuate(want, &d)
		d.Resized = d.Applied != cur
	case want < cur && raw < float64(cur)-0.5-Hysteresis &&
		now-c.lastShrink >= c.cfg.Cooldown &&
		(c.health == nil || !c.health.anyExiled()) && c.takeToken(now):
		d.Applied = c.actuate(want, &d)
		d.Resized = d.Applied != cur
		if d.Resized {
			c.lastShrink = now
		}
	default:
		// No size move. The placement law may still migrate members to
		// chase a demand shift — a hot flow moving queues changes where
		// threads should sit without changing how many are needed.
		if c.placing && now-c.lastRebalance >= c.cfg.Cooldown &&
			(c.health == nil || !c.health.anyExiled()) {
			plan := c.apportion(cur)
			if !sched.PlacementEqual(plan, c.lastPlan) && c.takeToken(now) {
				d.Applied = c.applyPlan(plan, &d)
				d.Rebalanced = true
				c.rebalances++
				c.lastRebalance = now
			}
		}
	}
	if c.health != nil && !d.Resized && !d.Rebalanced {
		// Quiet tick: let the health layer exile stragglers. Right after an
		// actuation members are re-homing and their heartbeats wobble, so
		// exile only runs when the size/placement laws held still.
		c.healthExile(&d, now)
	}
	return c.finishTick(d)
}

// finishTick does the shared tail of every tick — resize bookkeeping,
// health grace arming, window stats — and records the Decision.
func (c *Controller) finishTick(d Decision) Decision {
	if d.Resized {
		c.resizes++
		// Keep the integral consistent with what was actually applied so
		// the deadband is measured from the live size, not a phantom one.
		c.integ = clamp(float64(d.Applied-c.cfg.MinThreads), 0,
			float64(c.cfg.Budget-c.cfg.MinThreads))
	}
	if c.health != nil && (d.Resized || d.Rebalanced) {
		// Freshly moved members re-home and their heartbeats wobble: hold
		// the straggler detector for one full liveness window.
		c.health.grace = HeartbeatTicks
	}
	if d.Applied < c.minSeen {
		c.minSeen = d.Applied
	}
	if d.Applied > c.maxSeen {
		c.maxSeen = d.Applied
	}
	c.last = d
	c.recordTick(&d)
	return d
}

// recordTick lands one tick's flight-recorder events — the Decision
// itself, a safe-mode edge when the flag flipped, and the tick's exiles
// and recoveries — and tracks the safe-mode edge state. Zero allocations;
// with no recorder wired only the edge state is kept.
func (c *Controller) recordTick(d *Decision) {
	if rec := c.cfg.Recorder; rec != nil {
		rec.RecordDecision(d.At, d.Want, d.Applied, sched.PackPlacement(d.Plan),
			d.Occupancy, d.Feedfwd, d.Watts, d.Resized, d.Rebalanced, d.SafeMode)
		if d.SafeMode != c.prevSafe {
			rec.RecordSafeMode(d.At, d.SafeMode, d.Applied)
		}
		for _, id := range d.Exiled {
			rec.RecordExile(d.At, id)
		}
		for _, id := range d.Recovered {
			rec.RecordRecover(d.At, id)
		}
	}
	c.prevSafe = d.SafeMode
}

// occFraction reads queue q's sampled point-in-time occupancy as a
// fraction of its ring capacity (zero when the capacity was never
// published).
func (c *Controller) occFraction(q int) float64 {
	cp := c.snap.Gauge[telemetry.Capacity][q]
	if cp <= 0 {
		return 0
	}
	return c.snap.Gauge[telemetry.Occupancy][q] / cp
}

// actuate applies a new team total through the placement plane when the
// placement law is on, or the scalar Team path otherwise.
func (c *Controller) actuate(m int, d *Decision) int {
	if !c.placing {
		return c.team.SetTeamSize(m)
	}
	applied := c.applyPlan(c.apportion(m), d)
	c.lastRebalance = d.At // a resize republishes the whole placement
	return applied
}

// applyPlan pushes one per-queue plan through the team and records it.
func (c *Controller) applyPlan(plan []int, d *Decision) int {
	applied := c.team.ApplyPlacement(plan)
	c.lastPlan = append(c.lastPlan[:0], plan...)
	d.Plan = append([]int(nil), plan...)
	return applied
}

// apportion is the placement law: split m members across the queues
// proportionally to their sampled wake-occupancy fractions, every queue
// keeping at least one member (Sec. IV-E), the remaining m-N going by
// largest remainder (ties to the lower queue index). Like the
// work-stealing backup ranking, a vanishing rho share breaks exact
// occupancy ties so a drained-but-loaded queue outranks an idle one. The
// plan is a pure function of the snapshot, so placement runs are
// byte-identical at any experiment-harness parallelism. Zero demand
// everywhere yields the balanced plan — with no signal, balance is the
// least-regret assignment.
func (c *Controller) apportion(m int) []int {
	n := c.bus.Queues()
	if m < n {
		m = n
	}
	dst := c.planBuf
	total := 0.0
	for q := 0; q < n; q++ {
		total += c.weight(q)
	}
	extra := m - n
	if total <= 0 || extra == 0 {
		for q := range dst {
			dst[q] = 0
		}
		for i := 0; i < m; i++ {
			dst[i%n]++
		}
		return dst
	}
	rem := c.remScratch()
	assigned := 0
	for q := 0; q < n; q++ {
		share := c.weight(q) / total * float64(extra)
		f := math.Floor(share)
		dst[q] = 1 + int(f)
		rem[q] = share - f
		assigned += int(f)
	}
	for left := extra - assigned; left > 0; left-- {
		best := 0
		for q := 1; q < n; q++ {
			if rem[q] > rem[best] {
				best = q
			}
		}
		dst[best]++
		rem[best] = -1
	}
	return dst
}

// weight is queue q's placement demand: the EWMA wake-occupancy share
// blended with a small rho term. Occupancy dominates whenever a ring is
// actually backing up (it reaches 1.0 at overflow, the rho term tops out
// at 0.05), but between spikes the published gauge is a 0-or-N_V point
// sample whose EWMA still wanders; the eq. (11) estimate is smoothed over
// whole service cycles and anchors the ordering — like the work-stealing
// backup ranking, a drained-but-loaded queue outranks an idle one.
func (c *Controller) weight(q int) float64 {
	w := c.occEW[q] + 0.05*c.snap.Gauge[telemetry.Rho][q]
	if w < 0 {
		return 0
	}
	return w
}

// remScratch reuses the controller's float scratch for remainders.
func (c *Controller) remScratch() []float64 {
	if cap(c.remBuf) < c.bus.Queues() {
		c.remBuf = make([]float64, c.bus.Queues())
	}
	return c.remBuf[:c.bus.Queues()]
}

// Report summarises the controller's window since construction or the last
// ResetStats.
type Report struct {
	// ThreadSeconds is ∫M(t)dt over the window: the provisioning cost the
	// controller is minimising against loss.
	ThreadSeconds float64
	// MeanThreads is ThreadSeconds normalised by the window length.
	MeanThreads float64
	// Resizes counts applied team changes.
	Resizes int
	// Rebalances counts placement-only moves: members migrated between
	// queues with the team total unchanged (always zero without the
	// placement law).
	Rebalances int
	// MinThreads and MaxThreads are the extreme applied sizes seen.
	MinThreads, MaxThreads int
	// Final is the team size at report time.
	Final int
	// Joules is ∫watts dt over the window: the modelled core-only energy
	// of the deployment (team + parked budget cores) under Config.Power.
	// It accrues under every objective, so thread-seconds and joules runs
	// are energy-comparable.
	Joules float64
	// MeanWatts is Joules normalised by the window length.
	MeanWatts float64
	// FinalPlan is the per-queue placement at report time (nil when the
	// controller actuates through the scalar path).
	FinalPlan []int

	// Health-layer window stats (zero unless Config.Health is on).

	// Exiles counts straggler exiles: corrective plans that reinforced an
	// unhealthy member's home queue.
	Exiles int
	// SafeTicks counts ticks spent in the all-stale SafeTeam fallback.
	SafeTicks int
	// StaleQueueTicks counts (queue, tick) pairs past the staleness bound.
	StaleQueueTicks int
	// Panics counts Tick bodies the watchdog recovered from.
	Panics int
	// PanicMsg is the first recovered panic's value (fmt.Sprint form) —
	// empty when no tick panicked. The count alone made soak failures
	// undiagnosable; the first panic is the one that starts a cascade.
	PanicMsg string
	// PanicStack is the goroutine stack captured with PanicMsg.
	PanicStack string
}

// Report closes the accounting window at now and summarises it.
func (c *Controller) Report(now float64) Report {
	cur := c.team.TeamSize()
	ts := c.threadSeconds
	wall := now - c.statsFrom
	if c.started && now > c.lastTick {
		ts += float64(cur) * (now - c.lastTick)
	}
	mean := 0.0
	if wall > 0 {
		mean = ts / wall
	}
	joules := c.energy.Joules()
	if c.started && now > c.lastTick {
		// Extrapolate the tail past the last tick at its modelled watts,
		// mirroring the thread-seconds tail above.
		joules += c.last.Watts * (now - c.lastTick)
	}
	meanW := 0.0
	if wall > 0 {
		meanW = joules / wall
	}
	rep := Report{
		ThreadSeconds: ts,
		MeanThreads:   mean,
		Joules:        joules,
		MeanWatts:     meanW,
		Resizes:       c.resizes,
		Rebalances:    c.rebalances,
		MinThreads:    c.minSeen,
		MaxThreads:    c.maxSeen,
		Final:         cur,
	}
	if c.placing {
		rep.FinalPlan = append([]int(nil), c.lastPlan...)
	}
	if h := c.health; h != nil {
		rep.Exiles = h.exiles
		rep.SafeTicks = h.safeTicks
		rep.StaleQueueTicks = h.staleQTicks
		rep.Panics = h.panics
		rep.PanicMsg = h.panicMsg
		rep.PanicStack = h.panicStack
	}
	return rep
}

// ResetStats restarts the report window at now (warm-up alignment). The PI
// state is preserved: only the accounting resets.
func (c *Controller) ResetStats(now float64) {
	cur := c.team.TeamSize()
	c.statsFrom, c.lastTick = now, now
	c.threadSeconds = 0
	c.energy.Reset()
	c.energy.Rebase(now, c.last.Watts)
	c.resizes, c.rebalances = 0, 0
	c.minSeen, c.maxSeen = cur, cur
	if h := c.health; h != nil {
		h.exiles, h.safeTicks, h.staleQTicks, h.panics = 0, 0, 0, 0
		h.panicMsg, h.panicStack = "", ""
	}
}

// Run drives the controller on wall-clock ticks until ctx is cancelled —
// the live-runtime entry point. Tick times are seconds since Run started,
// matching the controller's clockless contract.
func (c *Controller) Run(ctx context.Context) {
	period := time.Duration(c.cfg.Period * float64(time.Second))
	if period <= 0 {
		period = time.Millisecond
	}
	start := time.Now()
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			c.Tick(time.Since(start).Seconds())
		}
	}
}

func sumF(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func sumU(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
