// Package metronome is a Go implementation of Metronome — adaptive and
// precise intermittent packet retrieval (Faltelli et al., CoNEXT 2020).
//
// Metronome replaces the continuous busy-polling of DPDK-style packet
// frameworks with a sleep&wake discipline: a small team of threads shares
// each receive queue behind a trylock; the winner drains the queue, then
// everyone sleeps for timeouts chosen by an analytical model so that the
// mean time a queue goes unwatched (the "vacation period") stays at a
// configurable target across traffic loads. CPU drops from 100% per core
// to a duty cycle proportional to the load, at a bounded latency cost.
//
// The package exposes three layers:
//
//   - The real-time runtime (NewRunner): goroutines, atomic trylocks and
//     adaptive timeouts over any non-blocking packet source — the part an
//     application embeds.
//   - The analytical model (AdaptiveTS, VacationCDF, ...): the closed
//     forms of the paper's Sec. IV, reusable for capacity planning.
//   - The simulation and experiment harness (Simulate, Experiments):
//     a discrete-event twin of the runtime that regenerates every table
//     and figure of the paper's evaluation. See DESIGN.md and
//     EXPERIMENTS.md.
package metronome

import (
	"time"

	"metronome/internal/core"
	"metronome/internal/elastic"
	"metronome/internal/experiments"
	"metronome/internal/faults"
	"metronome/internal/hrtimer"
	"metronome/internal/mbuf"
	"metronome/internal/model"
	"metronome/internal/obsv"
	"metronome/internal/packet"
	"metronome/internal/power"
	"metronome/internal/ring"
	"metronome/internal/runtime"
	"metronome/internal/sched"
	"metronome/internal/stats"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
)

// --- real-time runtime -------------------------------------------------------

// Aliases re-export the real-time layer so callers outside this module can
// use it without touching internal import paths.
type (
	// Mbuf is one packet buffer leased from a Pool.
	Mbuf = mbuf.Mbuf
	// Pool is a fixed-size packet-buffer pool (rte_mempool analogue): a
	// lock-free shared ring fronted by per-thread magazine caches.
	Pool = mbuf.Pool
	// PoolCache is a per-goroutine magazine over a Pool (the rte_mempool
	// per-lcore cache analogue): GetBurst/PutBurst serve and absorb whole
	// bursts locally and touch the shared ring only in watermark-sized
	// spans. Build one per producer or consumer goroutine with
	// Pool.NewCache; retiring goroutines must Flush.
	PoolCache = mbuf.Cache
	// PoolRecycler batches frees across bursts and pools for consumer
	// goroutines (one per goroutine; the zero value is ready; Flush on
	// retirement).
	PoolRecycler = mbuf.Recycler
	// RxQueue is any non-blocking burst packet source.
	RxQueue = runtime.RxQueue
	// RingQueue adapts a Ring to RxQueue.
	RingQueue = runtime.RingQueue
	// Handler consumes bursts of packets; it owns freeing the mbufs.
	Handler = runtime.Handler
	// RunnerConfig tunes a Runner; the zero value takes paper defaults.
	// Policy is the only discipline selector (empty means adaptive; fixed
	// sleeps VBar). The EWMA α and the PollBurst size are constants
	// (sched.Alpha = 0.125, runtime.Burst = 32). Faults takes an injector
	// built inside this module (its tests and experiments); other callers
	// leave it nil.
	RunnerConfig = runtime.Config
	// Runner drives M goroutines over N shared queues, Metronome style.
	Runner = runtime.Runner
	// RxRing is a ring-backed RxQueue with its producer side exposed;
	// NewRxRing picks the cheapest safe ring specialisation.
	RxRing = runtime.RxRing
	// SPSCQueue adapts a single-producer/single-consumer ring to RxRing —
	// the fast path for queues with exactly one producer and one consumer.
	SPSCQueue = runtime.SPSCQueue
	// Sleeper abstracts the sleep service used between polls.
	Sleeper = hrtimer.Sleeper
	// GoSleeper sleeps with plain time.Sleep.
	GoSleeper = hrtimer.GoSleeper
	// SpinSleeper trades a little CPU for hr_sleep-like precision.
	SpinSleeper = hrtimer.SpinSleeper
	// Ring is a bounded MPMC packet ring (rte_ring analogue).
	Ring = ring.MPMC[*mbuf.Mbuf]
	// FlowKey is an IPv4 5-tuple.
	FlowKey = packet.FlowKey
)

// NewPool returns a pool of up to n packet buffers, built on first demand:
// its footprint is its high-water mark of demand, never handed back, and n
// stays the cap the cache-sizing rule budgets against.
func NewPool(n int) *Pool { return mbuf.NewPool(n) }

// NewRing builds a packet ring; capacity must be a power of two >= 2.
func NewRing(capacity int) (*Ring, error) {
	return ring.NewMPMC[*mbuf.Mbuf](capacity)
}

// NewRxRing builds a ring-backed Rx queue and selects the specialisation
// automatically: the SPSC fast path when the queue has exactly one producer
// and one consumer, the MPMC ring otherwise. A Runner counts as one
// consumer per queue regardless of its thread count — its per-queue trylock
// serialises every poll and the lock hand-off publishes each drain to the
// next holder.
func NewRxRing(capacity, producers, consumers int) (RxRing, error) {
	return runtime.NewRxRing(capacity, producers, consumers)
}

// NewRunner builds the real-time Metronome over the given queues.
func NewRunner(queues []RxQueue, handler Handler, cfg RunnerConfig) *Runner {
	return runtime.New(queues, handler, cfg)
}

// --- scheduling policies -----------------------------------------------------

// Built-in policy names for SimConfig.Policy / RunnerConfig.Policy: both
// the simulation twin and the real-time runtime select their sleep&wake
// discipline by name from one registry, and the same implementation drives
// both substrates.
const (
	// PolicyAdaptive is the paper's eq. (13)/(14) discipline.
	PolicyAdaptive = sched.NameAdaptive
	// PolicyFixed sleeps the target vacation VBar on every wake.
	PolicyFixed = sched.NameFixed
	// PolicyBusyPoll never sleeps — classic DPDK polling (Listing 1).
	PolicyBusyPoll = sched.NameBusyPoll
	// PolicyRMetronome binds threads into stable per-queue service groups
	// of r = M/N members with CAS-claimed service turns and uniform backup
	// re-targeting (the shared-queue discipline behind fig. 13-15).
	PolicyRMetronome = sched.NameRMetronome
	// PolicyWorkSteal is PolicyRMetronome with work-stealing backup
	// selection: lost-race threads re-target the sibling queue with the
	// highest observed occupancy instead of a uniform random pick.
	PolicyWorkSteal = sched.NameWorkSteal
	// PolicyUniformVac is the uniform-vacation ablation: the high-load
	// eq. (6) inversion pinned at every load, isolating what the eq. (11)
	// load estimator buys (see the abl-uniformvac experiment).
	PolicyUniformVac = sched.NameUniformVac
)

// --- elastic control plane ----------------------------------------------------

// The elastic control plane autoscales the retrieval team over a live
// telemetry bus: both the simulation twin (SimulateElastic) and the live
// runtime honour mid-run resizes. Wire a live deployment by sharing one
// TelemetryBus between RunnerConfig.Bus and NewElasticController, then call
// ctrl.Tick(runner.Elapsed()) on a ticker, so decisions are stamped on the
// runner's clock (see ExampleNewElasticController).
type (
	// TelemetryBus is the lock-free fixed-slot telemetry plane both
	// substrates publish into and the elastic controller samples; its
	// series are keyed by the Telemetry* ids below.
	TelemetryBus = telemetry.Bus
	// TelemetrySnapshot is a caller-owned sample of a whole bus, indexed
	// by the same ids.
	TelemetrySnapshot = telemetry.Snapshot
	// LatencyHistogram is the fidelity plane's fixed-bucket log-scale
	// histogram: both substrates record every packet's retrieval latency
	// into one per queue on the bus (TelemetryBus.RecordLatency, one atomic
	// add, zero allocations) and TelemetryBus.SampleLatency folds a queue's
	// counts into a caller-owned copy for exact quantiles at <=3.2%
	// relative resolution. Useful standalone for any latency-shaped data.
	LatencyHistogram = stats.LogHistogram
	// ElasticConfig tunes the control plane: control period, core budget,
	// occupancy target, cooldown, placement, feedforward, objective and the
	// health layer. The PI gains, loss gain, hysteresis, signal smoothing
	// and the health layer's tick bounds are constants of internal/elastic,
	// calibrated by the fig-elastic experiment.
	ElasticConfig = elastic.Config
	// ElasticController is the occupancy/loss PI controller driving a
	// resizable team.
	ElasticController = elastic.Controller
	// ElasticReport summarises a controller window: thread-seconds,
	// resize count, team-size envelope.
	ElasticReport = elastic.Report
	// ElasticTeam is anything the controller can resize and place; Runner
	// and the sim twin's core.Runtime both implement it. The placement law
	// (ElasticConfig.Placement) actuates through ApplyPlacement, with
	// SetTeamSize retained as the balanced special case.
	ElasticTeam = elastic.Team
	// ElasticPlan is one placement actuation: a team total and its
	// per-queue apportionment.
	ElasticPlan = elastic.Plan
	// ElasticObjective selects the cost model the controller's size law
	// minimises against loss (ElasticConfig.Objective).
	ElasticObjective = elastic.Objective
)

// The elastic size-law objectives.
const (
	// ElasticObjectiveThreadSeconds (the zero value) is the original law:
	// every provisioned thread-second costs the same, so the controller
	// holds wake-time occupancy at the target with the smallest team.
	ElasticObjectiveThreadSeconds = elastic.ObjectiveThreadSeconds
	// ElasticObjectiveJoules prices teams with ElasticConfig.Power
	// instead: the occupancy target inflates by the modelled relative
	// saving of shedding a member, so the controller idles smaller teams
	// when the energy model says a release pays, while the loss override
	// still forces growth when packets drop.
	ElasticObjectiveJoules = elastic.ObjectiveJoules
)

// The telemetry series ids: the keys a TelemetryBus takes in Set/Get
// (per-queue gauges), Add/Store/Load (per-queue counters) and
// SetThread/Thread (per-thread gauges), and the indices of a
// TelemetrySnapshot's Gauge, Counter and Thread arrays. A producer that
// drops packets on a full ring reports them with
// bus.Add(metronome.TelemetryDrops, q, n).
const (
	TelemetryOccupancy   = telemetry.Occupancy
	TelemetryOccAvg      = telemetry.OccAvg
	TelemetryCapacity    = telemetry.Capacity
	TelemetryRho         = telemetry.Rho
	TelemetryOccSlope    = telemetry.OccSlope
	TelemetryArrivalRate = telemetry.ArrivalRate
	TelemetryDrops       = telemetry.Drops
	TelemetryRx          = telemetry.Rx
	TelemetryTries       = telemetry.Tries
	TelemetryBusyTries   = telemetry.BusyTries
	TelemetryPubSeq      = telemetry.PubSeq
	TelemetryBusySeconds = telemetry.BusySeconds
	TelemetryHeartbeat   = telemetry.Heartbeat
)

// NewTelemetryBus builds a bus over nQueues queues and maxThreads thread
// slots (size it for the elastic budget, not the initial team).
func NewTelemetryBus(nQueues, maxThreads int) *TelemetryBus {
	return telemetry.NewBus(nQueues, maxThreads)
}

// DefaultElasticConfig returns the shipped controller tuning for a team
// bounded by [minThreads, budget].
func DefaultElasticConfig(minThreads, budget int) ElasticConfig {
	return elastic.DefaultConfig(minThreads, budget)
}

// NewElasticController builds a controller driving team from the telemetry
// published on bus.
func NewElasticController(bus *TelemetryBus, team ElasticTeam, cfg ElasticConfig) *ElasticController {
	return elastic.New(bus, team, cfg)
}

// --- fault plane ---------------------------------------------------------------

// The fault plane injects deterministic failures underneath the simulation
// twin: SimulateElastic fires a schedule of FaultEvents against the
// deployment. The elastic controller's health layer (ElasticConfig.Health)
// is the matching defence: heartbeat liveness, stale-gauge rejection,
// straggler exile and a safe-team fallback.
type (
	// FaultEvent is one scheduled flag flip (at virtual time At).
	FaultEvent = faults.Event
	// FaultKind enumerates the failure vocabulary.
	FaultKind = faults.Kind
)

// The injectable failure kinds.
const (
	// FaultThreadStall preempts a member until the Until timestamp; an
	// Until of +Inf kills it, and a later stall ending when it lands
	// revives it.
	FaultThreadStall = faults.ThreadStall
	// FaultQueueBlackout makes a queue's drains see an empty ring.
	FaultQueueBlackout = faults.QueueBlackout
	// FaultQueueRecover ends a blackout.
	FaultQueueRecover = faults.QueueRecover
	// FaultTelemetryFreeze pins a queue's gauges at their last values.
	FaultTelemetryFreeze = faults.TelemetryFreeze
	// FaultTelemetryThaw resumes a queue's gauge publishing.
	FaultTelemetryThaw = faults.TelemetryThaw
	// FaultControllerDown suppresses the controller's tick source.
	FaultControllerDown = faults.ControllerDown
	// FaultControllerUp restores the controller's tick source.
	FaultControllerUp = faults.ControllerUp
)

// StragglerStorm appends a periodic stall storm against one thread: every
// period in [from, before), the thread stalls for stall seconds.
func StragglerStorm(evs []FaultEvent, thread int, from, before, period, stall float64) []FaultEvent {
	return faults.Storm(evs, thread, from, before, period, stall)
}

// --- observability plane -------------------------------------------------------

// The observability plane watches the control plane without perturbing it:
// a lock-free flight recorder of structured events (decisions, placement
// swaps, exiles, safe-mode edges, fault flips) wired in through
// RunnerConfig.Recorder / ElasticConfig.Recorder, and a stdlib-only
// Prometheus/expvar exporter over the telemetry bus. Recording costs zero
// allocations per event; a nil recorder costs one branch.
type (
	// TraceRecorder is the flight recorder: a fixed-capacity lock-free
	// ring of control-plane events, dumpable as text or Chrome trace JSON.
	TraceRecorder = obsv.Recorder
	// TraceEvent is one decoded flight-recorder entry.
	TraceEvent = obsv.Event
	// TraceEventKind identifies what a TraceEvent describes.
	TraceEventKind = obsv.Kind
	// MetricsHandler serves the telemetry bus (and optionally a recorder)
	// as Prometheus text-format exposition; it is an http.Handler.
	MetricsHandler = obsv.Metrics
	// MetricsOptions wires a MetricsHandler to its sources.
	MetricsOptions = obsv.ExportOptions
)

// Flight-recorder event kinds, for filtering TraceRecorder.Events output.
const (
	// TraceDecision is one elastic controller tick.
	TraceDecision = obsv.EvDecision
	// TracePlacement is a standalone per-queue apportionment swap.
	TracePlacement = obsv.EvPlacement
	// TraceExile marks a straggler latched out of its service group.
	TraceExile = obsv.EvExile
	// TraceRecover marks an exiled thread readmitted.
	TraceRecover = obsv.EvRecover
	// TraceSafeEnter marks the controller freezing on stale telemetry.
	TraceSafeEnter = obsv.EvSafeEnter
	// TraceSafeExit marks telemetry freshness restored.
	TraceSafeExit = obsv.EvSafeExit
	// TraceDarkLoss is a reconciler-detected silent drop window.
	TraceDarkLoss = obsv.EvDarkLoss
	// TraceFault is an injected fault flag flip (SimulateElastic records
	// them when SimConfig.Recorder is set).
	TraceFault = obsv.EvFault
	// TraceRateLimit marks a resize withheld by the actuation governor.
	TraceRateLimit = obsv.EvRateLimit
	// TracePanic is a controller-tick panic swallowed by the watchdog.
	TracePanic = obsv.EvPanic
)

// NewTraceRecorder builds a flight recorder holding the most recent
// capacity events (<= 0 selects the default, 4096).
func NewTraceRecorder(capacity int) *TraceRecorder { return obsv.NewRecorder(capacity) }

// NewMetricsHandler builds the Prometheus exposition handler; mount it on
// any mux (conventionally at /metrics) and point a scraper — or the
// metrotop operator view — at it.
func NewMetricsHandler(opt MetricsOptions) *MetricsHandler { return obsv.NewMetrics(opt) }

// --- power plane ---------------------------------------------------------------

// The power plane prices a deployment's sleep-state residency with a
// calibrated core-only CPU model: busy time at the running frequency's
// active power, short vacations at the shallow-idle floor, released or
// surplus cores parked in the deep C-state. The joules objective
// (ElasticObjectiveJoules) steers the controller with the same model.
type (
	// PowerConfig is the CPU power calibration; the zero value selects the
	// shipped Xeon Silver 4110 numbers the experiments use.
	PowerConfig = power.Config
	// PowerResidency is one window's sleep-state account: busy, shallow-
	// idle and parked seconds plus the mean sleep dwell that splits
	// shallow from deep residency.
	PowerResidency = power.Residency
	// EnergyMeter integrates modelled watts over virtual or wall time
	// (trapezoid rule) into joules.
	EnergyMeter = power.Energy
)

// --- analytical model ---------------------------------------------------------

// AdaptiveTS is eq. (13)/(14): the short timeout that holds the mean
// vacation period at target for m threads sharing n queues under per-queue
// load rho.
func AdaptiveTS(target time.Duration, rho float64, m, n int) time.Duration {
	ts := model.TSForTargetMultiqueue(target.Seconds(), rho, m, n)
	return time.Duration(ts * float64(time.Second))
}

// EstimateRho is eq. (4): the load estimate from a measured busy and
// vacation period.
func EstimateRho(busy, vacation time.Duration) float64 {
	return model.Rho(busy.Seconds(), vacation.Seconds())
}

// VacationCDF is eq. (5): P(V <= x) at high load for timeouts ts/tl and m
// threads.
func VacationCDF(x, ts, tl time.Duration, m int) float64 {
	return model.CDFVHighLoad(x.Seconds(), ts.Seconds(), tl.Seconds(), m)
}

// ExpectedVacation is eq. (6): the mean vacation period at high load.
func ExpectedVacation(ts, tl time.Duration, m int) time.Duration {
	return time.Duration(model.EVHighLoad(ts.Seconds(), tl.Seconds(), m) * float64(time.Second))
}

// --- simulation --------------------------------------------------------------

// SimConfig parameterises the discrete-event twin; see the fields of
// internal/core.Config. Policy is the only discipline selector (empty
// means adaptive; fixed sleeps VBar). The service-rate noise, the fluid
// slice bound and the EWMA α are constants (core.MuSigma = 0.08,
// core.MaxSlice = 200us, sched.Alpha = 0.125). Leave Faults nil: a fault
// schedule goes to SimulateElastic, which builds the injector.
type SimConfig = core.Config

// SimMetrics summarises one simulated run.
type SimMetrics = core.Metrics

// DefaultSimConfig mirrors the paper's single-queue tuning (M=3, V̄=10us,
// TL=500us, l3fwd-grade service rate).
func DefaultSimConfig() SimConfig { return core.DefaultConfig() }

// Arrival processes for Simulate.
type (
	// Traffic is an arrival process over virtual time.
	Traffic = traffic.Process
	// CBR is constant-rate traffic (packets/second).
	CBR = traffic.CBR
	// PoissonTraffic has memoryless arrivals.
	PoissonTraffic = traffic.Poisson
	// RampTraffic is the MoonGen up-down sweep of the adaptation test.
	RampTraffic = traffic.Ramp
	// SineTraffic is the diurnal day/night load curve of the elastic
	// experiments (rate Base + Amp*sin(2*pi*t/Period), floored at 0).
	SineTraffic = traffic.Sine
	// StepTraffic switches between two arrival processes at a fixed time
	// — flash-crowd edges and hot-queue migrations; Steps nest.
	StepTraffic = traffic.Step
)

// LineRate64B converts Gbit/s to 64-byte-frame packets/second (10 Gbit/s
// -> 14.88 Mpps).
func LineRate64B(gbps float64) float64 { return traffic.Rate64B(gbps) }

// Simulate runs the discrete-event Metronome over one arrival process per
// queue for the given virtual duration and returns its metrics. A positive
// cfg.RingCap overrides the default 576-slot Rx ring. The Simulate*
// functions and the experiment harness assemble the deployment with one
// builder (experiments.Deploy), so a facade run is a harness run without
// warm-up.
func Simulate(cfg SimConfig, arrivals []Traffic, duration time.Duration) SimMetrics {
	_, m, _ := experiments.Deploy(cfg, arrivals, duration.Seconds(), nil, nil)
	return m
}

// SimulateElastic is Simulate with the elastic control plane attached: a
// telemetry bus wired into the deployment, a controller resizing the
// thread team every control period (driven by engine events, so runs stay
// deterministic per seed), and the controller's provisioning report
// alongside the metrics. cfg.M is the starting team; ecfg bounds it, and
// its Recorder defaults to cfg.Recorder.
//
// Events, when given, run the deployment under a deterministic fault
// schedule: they fire as engine events against an injector wired into the
// deployment (cfg.Faults is overwritten), and ControllerDown windows
// suppress the controller's tick source. With ecfg.Health set, this is the
// self-healing loop of the fig-faults experiment; without it, the
// oblivious baseline. With cfg.Recorder set, injected fault flips and the
// control loop's reactions land on one flight-recorder timeline. Runs are
// byte-identical per seed at any parallelism.
func SimulateElastic(cfg SimConfig, ecfg ElasticConfig, arrivals []Traffic, duration time.Duration, events ...FaultEvent) (SimMetrics, ElasticReport) {
	_, m, rep := experiments.Deploy(cfg, arrivals, duration.Seconds(), &ecfg, events)
	return m, rep
}

// SimulatePower is SimulateElastic priced by the power plane: the run's
// sleep-state residency (busy, shallow-idle and parked seconds out of the
// deployment's core budget) is converted to modelled core-only joules with
// the given calibration (zero value: the shipped Xeon Silver 4110, the
// paper's testbed CPU). The same calibration is handed to the controller,
// so the internal gauge the joules objective steers on
// (ElasticReport.Joules/MeanWatts) and the returned external account use
// one model. Runs are deterministic per seed; the fig-power experiment is
// this function's sweep form.
func SimulatePower(cfg SimConfig, ecfg ElasticConfig, pc PowerConfig, arrivals []Traffic, duration time.Duration) (SimMetrics, ElasticReport, float64) {
	if pc == (PowerConfig{}) {
		pc = power.DefaultConfig()
	}
	if ecfg.Power == (PowerConfig{}) {
		ecfg.Power = pc
	}
	d := duration.Seconds()
	rt, m, rep := experiments.Deploy(cfg, arrivals, d, &ecfg, nil)
	res := rt.Residency(d, d, max(cfg.M, ecfg.Budget))
	res.Freq = pc.FMax
	return m, rep, pc.TeamEnergy(res)
}

// --- experiments ---------------------------------------------------------------

// Experiment regenerates one table or figure of the paper.
type Experiment = experiments.Experiment

// ResultTable is a rendered experiment artifact.
type ResultTable = experiments.Table

// Experiments lists every registered reproduction experiment.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment executes one experiment by ID (e.g. "fig10", "tab1");
// quick mode shrinks durations for smoke runs.
func RunExperiment(id string, quick bool, seed uint64) ([]*ResultTable, bool) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, false
	}
	return e.Run(experiments.Options{Quick: quick, Seed: seed}), true
}
