// Package core implements Metronome itself: the multi-threaded sleep&wake
// packet-retrieval architecture of Sec. III and the adaptive tuning of
// Sec. IV, executed over the discrete-event engine.
//
// M threads share N Rx queues behind per-queue trylocks. A thread that
// wakes and wins the race drains the queue (a busy period), releases the
// lock and re-arms a short timeout TS; a thread that loses notes the busy
// period, re-targets a random queue (multiqueue) and re-arms a long timeout
// TL >> TS. Every decision of that loop — may the thread contend, where and
// how long a loser sleeps, what a finished cycle publishes and re-arms — is a
// call into one sched.Cycle, the same seam the live runtime in
// internal/runtime calls — the twin only supplies the discrete-event
// substrate underneath it: virtual clock, lock flags, the fluid drain.
package core

import (
	"fmt"

	"metronome/internal/cpu"
	"metronome/internal/faults"
	"metronome/internal/hrtimer"
	"metronome/internal/nic"
	"metronome/internal/obsv"
	"metronome/internal/power"
	"metronome/internal/sched"
	"metronome/internal/sim"
	"metronome/internal/stats"
	"metronome/internal/telemetry"
	"metronome/internal/xrand"
)

// Config parameterises a Metronome run.
type Config struct {
	// M is the number of retrieval threads (paper default 3 single-queue).
	M int
	// VBar is the target mean vacation period (10 us in most experiments);
	// the fixed discipline sleeps it on every wake. Zero is legal: the
	// zero-timeout poller.
	VBar float64
	// TL is the backup threads' long timeout (500 us in the paper).
	TL float64
	// Mu is the service (retrieval+processing) rate in packets/second at
	// nominal frequency; it comes from the application's per-packet cost.
	Mu float64
	// FreqScale multiplies Mu to express a frequency-scaled core
	// (ondemand governor); 1.0 at nominal.
	FreqScale float64
	// Policy names the scheduling discipline from the sched registry
	// ("adaptive", "fixed", "busypoll", "rmetronome", "worksteal", or an
	// application-registered name); empty means adaptive. The policy name
	// is the only selector: the fixed discipline sleeps VBar.
	// Like the other Config validations, an unknown name panics in New;
	// pre-validate user-supplied names with sched.New / PolicyNames.
	Policy string
	// PollCost is the CPU time of one empty rx_burst call.
	PollCost float64
	// WakeCost is the CPU time consumed by every wakeup (syscall return,
	// trylock, re-arm) on top of any draining work.
	WakeCost float64
	// Sleep selects the sleep-service latency model.
	Sleep hrtimer.Service
	// Wake shapes scheduler wake-up delays.
	Wake cpu.WakeConfig
	// Cores hosts the threads (thread i runs on Cores[i % len]); nil means
	// M dedicated idle cores.
	Cores []*cpu.Core
	// WakeOverrides replaces the wake-delay configuration for specific
	// threads — the failure-injection hook behind the Sec. V-E robustness
	// experiments (a thread whose core is hogged by a CPU-bound co-runner
	// wakes a CFS timeslice late).
	WakeOverrides map[int]cpu.WakeConfig
	// BackupSticky makes a losing thread re-contend the same queue instead
	// of re-targeting a random one — the strawman against Sec. IV-E's
	// random selection, used by the ablation benchmarks.
	BackupSticky bool
	// Bus, when set, receives live telemetry from the run: per-queue
	// occupancy/rho/drop/try gauges and per-thread duty, published at
	// every wakeup and release. The elastic control plane samples it; the
	// work-stealing discipline reads occupancy from it. Nil keeps the hot
	// path free of even the publishing branches' stores.
	Bus *telemetry.Bus
	// Faults, when set, is the deterministic fault-injection plane the run
	// consults on its cycle path: dead threads park, stalled threads sleep
	// through their windows, dark queues poll empty while their backlog
	// builds, and frozen queues stop publishing telemetry. Flag flips arrive
	// through ordinary engine events (faults.Schedule), so a faulted run
	// stays a pure function of its seed. Nil keeps the hot path to one
	// pointer test per wakeup.
	Faults *faults.Injector
	// RingCap overrides the Rx descriptor-ring capacity of every queue the
	// twin's deployment builder constructs (the experiment harness's
	// runner, which the facade's Simulate* functions call through
	// experiments.Deploy); zero keeps the nic default of 576 slots.
	// core.New itself receives already-built queues and ignores it. The
	// elastic occupancy target is a fraction of this capacity, so a
	// smaller ring makes the target finer-grained.
	RingCap int64
	// Dephase enables turn-aware wake de-phasing in the shared-queue
	// disciplines (see sched.GroupPolicy's Dephase).
	Dephase bool
	// Seed drives all randomness in the run.
	Seed uint64

	// OnCycle, when set, observes every completed service cycle of any
	// queue: the vacation that preceded it and its busy duration (the
	// Fig 4 histogram tap).
	OnCycle func(queue int, vacation, busy float64)
	// Tracer, when set, observes every thread transition (the Fig 3
	// timeline); see the trace package for a renderer.
	Tracer Tracer
	// Recorder, when set, is the observability plane's flight recorder:
	// every applied placement swap (ApplyPlacement/SetTeamSize that
	// changed the layout) records one event stamped with virtual engine
	// time, so recordings of a seeded run are byte-identical at any
	// experiment-harness parallelism. The elastic controller carries its
	// own Recorder reference for decision events; wiring both to one ring
	// yields the interleaved control-plane timeline.
	Recorder *obsv.Recorder
}

// Tracer observes thread state transitions.
type Tracer interface {
	// Wake fires on every wakeup: won reports the trylock outcome.
	Wake(t float64, thread, queue int, won bool)
	// Release fires when a service cycle completes.
	Release(t float64, thread, queue int, busy float64)
	// Sleep fires when a thread re-arms its timer for req seconds;
	// backup marks a TL (lost-race) sleep.
	Sleep(t float64, thread int, req float64, backup bool)
}

// The twin's modelling constants.
const (
	// MuSigma is the per-slice relative noise on the service rate (cache
	// misses, batch granularity, DMA contention). The paper leans on this
	// variability for thread decorrelation (Sec. IV-B.2).
	MuSigma = 0.08
	// MaxSlice bounds one fluid service slice in seconds, so overload and
	// rate changes are sampled at this granularity.
	MaxSlice = 200e-6
)

// DefaultConfig mirrors the paper's single-queue tuning: V̄=10us, TL=500us,
// M=3, hr_sleep, adaptive.
func DefaultConfig() Config {
	return Config{
		M:         3,
		VBar:      10e-6,
		TL:        500e-6,
		Mu:        29.76e6, // l3fwd-LPM retrieval rate at 2.1 GHz (see apps)
		FreqScale: 1,
		PollCost:  0.2e-6,
		WakeCost:  1.5e-6,
		Sleep:     hrtimer.HRSleep,
		Wake:      cpu.DefaultWakeConfig(),
	}
}

type thread struct {
	id    int
	core  *cpu.Core
	wake  *cpu.WakeModel
	rng   *xrand.Rand
	queue int // queue to contend at next wakeup

	// retired marks a thread the elastic control plane has removed from
	// the team: it finishes any in-flight cycle, then parks instead of
	// re-arming its timer. parked reports it has actually stopped (no
	// pending engine event), which is what makes un-retiring race-free in
	// virtual time: an unparked thread gets a fresh wake event, a merely
	// un-retired one keeps its still-pending timer.
	retired bool
	parked  bool

	// In-flight cycle state for the pre-bound callbacks below, valid while
	// the thread holds its queue's lock (each thread has at most one
	// pending timer, so one set of fields suffices).
	vacation     float64
	serviceStart float64
	sliceEnd     float64

	// Callbacks bound once in New: the wakeup/serve/release hot path
	// schedules them directly instead of allocating a capturing closure
	// per cycle, which together with the engine's event free list makes
	// steady-state ticks allocation-free.
	wakeFn    func()
	serveFn   func()
	releaseFn func()
}

// Runtime executes Metronome over a set of queues.
type Runtime struct {
	Cfg     Config
	Eng     *sim.Engine
	Queues  []*nic.Queue
	Acct    *cpu.Accounting
	cyc     sched.Cycle    // Listing 2's decisions: policy, fault gate, cycle-end publishes
	bus     *telemetry.Bus // nil unless Cfg.Bus
	threads []*thread

	// active is the current team size: threads[0:active] are serving,
	// threads[active:] are retired or parked. started flips at Start so a
	// pre-start resize only relabels the team (Start owns first arming).
	// The provisioned integral ∫M(t)dt backs the thread-seconds metric of
	// the elastic experiments; placement holds the per-queue member counts
	// the current plan provisions (group sizes when the policy binds
	// groups, the balanced split otherwise) and provisionedQ the per-queue
	// ∫r_q(t)dt split of the same integral.
	active       int
	started      bool
	provisioned  float64
	provAt       float64
	placement    []int
	provisionedQ []float64

	locked      []bool
	lastRelease []float64

	// Per-queue occupancy-integral checkpoints: finishCycle publishes the
	// time-averaged occupancy of the window since the previous checkpoint,
	// (OccIntegral delta) / dt — the alias-free occupancy gauge.
	occIntLast []float64
	occIntAt   []float64

	// Counters matching the paper's metrics.
	Tries     int64 // trylock attempts
	BusyTries int64 // failed attempts (queue already owned)
	Cycles    int64 // completed service cycles
	// Per-queue splits of the same counters (Table III).
	TriesQ     []int64
	BusyTriesQ []int64
	// Multi-thread-per-queue cycle accounting for the shared-queue
	// disciplines: who served which queue. CyclesQ[q] counts completed
	// service cycles of queue q; CyclesByThread[t] counts cycles thread t
	// served (on any queue), so service-turn fairness inside an r-member
	// group is observable.
	CyclesQ        []int64
	CyclesByThread []int64

	// Reusable Snapshot buffers: sampling metrics mid-run at high
	// frequency must not allocate per sample, so the slices a Metrics
	// carries live here and are overwritten by the next Snapshot call.
	snapCyclesQ []int64
	snapFloats  []float64 // one backing array: RhoEst then TSNow
	snapLat     stats.Sample
}

// New builds a runtime over queues; the engine clock must be at zero. It
// panics on a configuration no run could execute.
func New(eng *sim.Engine, queues []*nic.Queue, cfg Config) *Runtime {
	if cfg.M < 1 {
		panic("core: need at least one thread")
	}
	if len(queues) == 0 {
		panic("core: need at least one queue")
	}
	if cfg.M < len(queues) {
		// Sec. IV-E: every queue should have a primary available (M >= N).
		panic(fmt.Sprintf("core: M=%d < N=%d queues", cfg.M, len(queues)))
	}
	if cfg.VBar < 0 {
		panic(fmt.Sprintf("core: negative VBar %v", cfg.VBar))
	}
	if cfg.TL < 0 {
		panic(fmt.Sprintf("core: negative TL %v", cfg.TL))
	}
	if cfg.Mu <= 0 {
		panic(fmt.Sprintf("core: non-positive service rate Mu %v", cfg.Mu))
	}
	if cfg.FreqScale <= 0 {
		cfg.FreqScale = 1
	}
	n := len(queues)
	cyc, err := sched.NewCycle(cfg.Policy, policyConfig(cfg, n), cfg.Faults)
	if err != nil {
		panic(err)
	}
	// One backing array per element type for the per-queue state: the
	// slices are independent views, the allocator sees three makes instead
	// of seven (the alloc gate in BENCH_simulate.json counts them).
	qcounts := make([]int64, 3*n)
	qfloats := make([]float64, 4*n)
	r := &Runtime{
		Cfg:            cfg,
		Eng:            eng,
		Queues:         queues,
		Acct:           cpu.NewAccounting(cfg.M),
		cyc:            cyc,
		bus:            cfg.Bus,
		locked:         make([]bool, n),
		lastRelease:    qfloats[0:n:n],
		provisionedQ:   qfloats[n : 2*n : 2*n],
		occIntLast:     qfloats[2*n : 3*n : 3*n],
		occIntAt:       qfloats[3*n : 4*n : 4*n],
		TriesQ:         qcounts[0:n:n],
		BusyTriesQ:     qcounts[n : 2*n : 2*n],
		CyclesQ:        qcounts[2*n : 3*n : 3*n],
		CyclesByThread: make([]int64, cfg.M),
	}
	r.active = cfg.M
	r.placement = cyc.Placement(r.active)
	if r.bus != nil {
		for q, queue := range queues {
			r.bus.Set(telemetry.Capacity, q, float64(queue.Opt.Cap))
			// Publish every tagged packet's exact fluid latency into the
			// bus histogram (seconds → integer ns). A telemetry freeze
			// (fault plane) silences the queue's histogram like its
			// gauges — the latency plane must not leak through an outage
			// the staleness detector is supposed to see.
			q := q
			queue.LatSink = func(lat float64) {
				if r.cyc.Publishes(q) {
					r.bus.RecordLatency(q, stats.SecondsToNs(lat))
				}
			}
		}
	}
	root := xrand.New(cfg.Seed)
	for i := 0; i < cfg.M; i++ {
		r.addThread(root.Split())
	}
	return r
}

// coreFor maps thread i onto the configured core set (or a dedicated idle
// core when none was given).
func (r *Runtime) coreFor(i int) *cpu.Core {
	if len(r.Cfg.Cores) > 0 {
		return r.Cfg.Cores[i%len(r.Cfg.Cores)]
	}
	return cpu.NewCore(i)
}

// addThread appends one thread with its pre-bound callbacks; id is the
// next free slot. Initial threads draw their RNG stream from the root
// split sequence (rng non-nil); threads the elastic control plane adds
// later derive theirs from the deployment coordinates via SeedFrom, so a
// late thread's stream does not depend on *when* it was added.
func (r *Runtime) addThread(rng *xrand.Rand) *thread {
	i := len(r.threads)
	if rng == nil {
		rng = xrand.New(xrand.SeedFrom(r.Cfg.Seed, 0x9e37, uint64(i), uint64(len(r.Queues))))
	}
	th := &thread{
		id:    i,
		core:  r.coreFor(i),
		rng:   rng,
		queue: i % len(r.Queues),
	}
	wcfg := r.Cfg.Wake
	if over, ok := r.Cfg.WakeOverrides[i]; ok {
		wcfg = over
	}
	th.wake = cpu.NewWakeModel(hrtimer.NewModel(r.Cfg.Sleep, th.rng.Split()), wcfg, th.rng.Split())
	th.wakeFn = func() { r.wakeup(th) }
	th.serveFn = func() {
		r.Queues[th.queue].Retune(r.noisyMu(th))
		r.serveSlices(th, th.sliceEnd)
	}
	th.releaseFn = func() {
		r.Queues[th.queue].EndService(th.sliceEnd)
		r.finishCycle(th)
	}
	r.threads = append(r.threads, th)
	r.Acct.Grow(i + 1)
	r.Acct.SetName(i, fmt.Sprintf("metronome-%d", i))
	if len(r.CyclesByThread) < len(r.threads) {
		r.CyclesByThread = append(r.CyclesByThread, 0)
	}
	return th
}

// policyConfig projects the runtime configuration onto the policy engine's.
func policyConfig(cfg Config, n int) sched.Config {
	return sched.Config{
		VBar:         cfg.VBar,
		TL:           cfg.TL,
		M:            cfg.M,
		N:            n,
		BackupSticky: cfg.BackupSticky,
		Bus:          cfg.Bus,
		Dephase:      cfg.Dephase,
	}
}

// Start arms every active thread's first wakeup, de-phased across one
// timeout so the start is not artificially synchronised (real threads
// launch sequentially; the decorrelation of Sec. IV-B takes over from
// there).
func (r *Runtime) Start() {
	r.started = true
	for i, th := range r.threads {
		if i < r.active {
			th.parked = false
			r.armFirstWake(th)
		} else {
			th.parked = true // pre-start retirees hold no pending timer
		}
	}
}

// Policy exposes the scheduling discipline driving this runtime.
func (r *Runtime) Policy() sched.Policy { return r.cyc.Policy() }

// TeamSize returns the current number of active retrieval threads.
func (r *Runtime) TeamSize() int { return r.active }

// ThreadCount returns how many thread slots exist (active + parked); the
// per-thread accounting and cycle counters are sized to it.
func (r *Runtime) ThreadCount() int { return len(r.threads) }

// SetTeamSize grows or shrinks the thread team to m mid-run — the sim
// substrate of the elastic control plane's scalar path, retained as the
// degenerate *balanced* placement plan: m members spread m/N per queue.
// It returns the applied size: m is clamped to at least one thread per
// queue (Sec. IV-E: every queue deserves a primary available).
func (r *Runtime) SetTeamSize(m int) int {
	if m < len(r.Queues) {
		m = len(r.Queues)
	}
	return r.ApplyPlacement(sched.BalancedPlacement(m, len(r.Queues)))
}

// CanPlace reports whether ApplyPlacement plans actually land per queue:
// true only when the discipline binds service groups (sched.GroupPolicy).
// Roaming disciplines accept plans but degrade them to the total.
func (r *Runtime) CanPlace() bool { return r.cyc.CanPlace() }

// ApplyPlacement adopts a full placement plan mid-run — the sim substrate
// of the placement plane. perQueue[q] members are provisioned for queue q
// (entries clamped to >= 1); the team total becomes their sum and the
// applied total is returned.
//
// Growth first un-parks retired threads (each re-enters through a fresh
// de-phased wake event on its possibly new home) and then creates new
// ones; their RNG streams derive from the deployment coordinates, not from
// creation order, so a thread added at t=0.3s is the same thread it would
// have been at t=0.7s. Retirement marks the highest-id threads: each
// finishes any in-flight cycle, lets its pending timer fire once, and
// parks. Active threads whose home queue moved migrate through ordinary
// engine events — each finishes its current cycle and re-arms on its new
// home via sched.Cycle.Finish's home return — so a rebalancing run stays
// deterministic at any experiment-harness parallelism. The policy adopts
// the plan through sched.Cycle.Adopt (rmetronome/worksteal swap a complete
// home/rank/size layout and republish eq. (13) per group; roaming
// disciplines take the total);
// per-queue provisioning integrals ∫r_q(t)dt accrue at the old plan up to
// now and at the new plan afterwards.
func (r *Runtime) ApplyPlacement(perQueue []int) int {
	sizes, total := sched.NormalizePlacement(perQueue, len(r.Queues))
	if total == r.active && sched.PlacementEqual(r.placement, sizes) {
		return r.active
	}
	r.accrueProvisioned(r.Eng.Now())
	for len(r.threads) < total {
		// Freshly created threads start parked: the activation loop below
		// un-parks them exactly like threads retired in an earlier epoch.
		th := r.addThread(nil)
		th.retired, th.parked = true, true
	}
	r.cyc.Adopt(sizes, total)
	for i, th := range r.threads {
		wasParked := th.parked
		th.retired = i >= total
		if !th.retired && wasParked && r.started {
			r.unpark(th)
		}
		// A re-activated thread that never parked keeps its pending timer;
		// a freshly retired one parks when that timer next fires. Before
		// Start, nothing is armed here: Start arms whoever is active then.
	}
	r.active = total
	r.placement = r.cyc.Placement(total)
	r.Cfg.Recorder.RecordPlacement(r.Eng.Now(), r.active, sched.PackPlacement(r.placement))
	return r.active
}

// accrueProvisioned folds the elapsed window into the total and per-queue
// provisioning integrals at the *current* plan.
func (r *Runtime) accrueProvisioned(now float64) {
	dt := now - r.provAt
	r.provisioned += float64(r.active) * dt
	for q := range r.provisionedQ {
		r.provisionedQ[q] += float64(r.placement[q]) * dt
	}
	r.provAt = now
}

// unpark re-enters a parked thread: home it (group layouts may have moved
// under the resize) and arm a de-phased first wake, like Start does.
func (r *Runtime) unpark(th *thread) {
	th.parked = false
	th.queue = r.cyc.Home(th.id)
	r.armFirstWake(th)
}

// armFirstWake schedules a thread's first wakeup, de-phased across one
// timeout so team changes do not synchronise the group.
func (r *Runtime) armFirstWake(th *thread) {
	first := th.rng.Uniform(0, r.TS(th.queue)+1e-9)
	r.Eng.After(first, "metronome-first-wake", th.wakeFn)
}

// ProvisionedThreadSeconds integrates the team size over virtual time up
// to now: the cores a deployment had to reserve, whether or not they were
// on-CPU — the provisioning cost the elastic control plane trades against
// loss. ResetWindow window-aligns it after warm-up.
func (r *Runtime) ProvisionedThreadSeconds(now float64) float64 {
	return r.provisioned + float64(r.active)*(now-r.provAt)
}

// ProvisionedThreadSecondsQ integrates each queue's provisioned member
// count over virtual time up to now: the per-queue ∫r_q(t)dt split of
// ProvisionedThreadSeconds, which is what the placement experiments charge
// a plan for attending each queue. The returned slice is freshly
// allocated.
func (r *Runtime) ProvisionedThreadSecondsQ(now float64) []float64 {
	out := make([]float64, len(r.provisionedQ))
	dt := now - r.provAt
	for q := range out {
		out[q] = r.provisionedQ[q] + float64(r.placement[q])*dt
	}
	return out
}

// Placement returns the per-queue member counts the current plan
// provisions (a copy).
func (r *Runtime) Placement() []int {
	return append([]int(nil), r.placement...)
}

// ResetWindow restarts every windowed statistic the runtime owns at now —
// the warm-up boundary: queue stats, the try and cycle counters (totals,
// per-queue and per-thread), CPU accounting, the provisioning integrals
// and the bus latency histograms. Snapshot(wall) then covers [now,
// now+wall]. Policy state (rho estimates, timeouts) carries on.
func (r *Runtime) ResetWindow(now float64) {
	for _, q := range r.Queues {
		q.Reset(now)
	}
	r.Tries, r.BusyTries, r.Cycles = 0, 0, 0
	for q := range r.TriesQ {
		r.TriesQ[q], r.BusyTriesQ[q], r.CyclesQ[q] = 0, 0, 0
	}
	for i := range r.CyclesByThread {
		r.CyclesByThread[i] = 0
	}
	r.Acct = cpu.NewAccounting(r.ThreadCount())
	r.provisioned, r.provAt = 0, now
	for q := range r.provisionedQ {
		r.provisionedQ[q] = 0
	}
	if r.bus != nil {
		for q := range r.Queues {
			r.bus.ResetLatency(q)
		}
	}
}

// Residency aggregates the team's sleep-state residency over the
// measurement window: now is the current virtual time, wall the window
// length (seconds since the warm-up reset), budget the deployment's core
// budget (>= the team size; surplus cores count as parked). Busy time
// comes from the CPU accounting, idle time is the provisioned remainder,
// and the mean sleep dwell is idle time over trylock attempts — each
// retrieval cycle sleeps once before its trylock, so tries count sleeps
// exactly under metronome-family policies and approximately (rotation
// retries inflate the count, shortening the apparent dwell — the
// conservative direction for energy) under shared-queue ones. Freq is
// left zero for the caller to fill from its power calibration.
func (r *Runtime) Residency(now, wall float64, budget int) power.Residency {
	prov := r.ProvisionedThreadSeconds(now)
	busy := r.Acct.TotalBusy()
	idle := prov - busy
	if idle < 0 {
		idle = 0
	}
	dwell := 0.0
	if r.Tries > 0 {
		dwell = idle / float64(r.Tries)
	}
	parked := float64(budget)*wall - prov
	if parked < 0 {
		parked = 0
	}
	return power.Residency{
		BusySeconds:   busy,
		IdleSeconds:   idle,
		ParkedSeconds: parked,
		MeanDwell:     dwell,
	}
}

// Group exposes the shared-queue extension of the policy, or nil when the
// discipline does not bind service groups.
func (r *Runtime) Group() sched.GroupPolicy { return r.cyc.Group() }

// TS returns the current short timeout of queue q (for sampling hooks).
func (r *Runtime) TS(q int) float64 { return r.cyc.Policy().TS(q) }

// Rho returns the current load estimate of queue q.
func (r *Runtime) Rho(q int) float64 { return r.cyc.Policy().Rho(q) }

// MuEffective returns the service rate after frequency scaling.
func (r *Runtime) MuEffective() float64 { return r.Cfg.Mu * r.Cfg.FreqScale }

// BusyTryFraction returns the failed-trylock percentage basis (0..1).
func (r *Runtime) BusyTryFraction() float64 {
	return stats.Ratio(r.BusyTries, r.Tries)
}

// ThreadHome returns the queue thread id is homed on under the current
// placement (sched.Cycle.Home). The elastic health layer uses it to aim
// corrective plans at an unhealthy member's queue.
func (r *Runtime) ThreadHome(id int) int { return r.cyc.Home(id) }

// wakeup is the body of Listing 2: trylock, drain-or-flee, re-arm.
func (r *Runtime) wakeup(th *thread) {
	if th.retired {
		// The elastic control plane removed this thread from the team: its
		// pending timer fires one last time and the thread parks instead
		// of contending (a retired thread never holds a lock here — a
		// serving thread re-arms through finishCycle, which parks first).
		th.parked = true
		return
	}
	now := r.Eng.Now()
	switch gate, until := r.cyc.Gate(th.id, now); gate {
	case sched.GateDead:
		// Thread death: the pending timer fires one last time and the
		// thread parks for good — no engine event would poll the flag.
		// Revival goes through the placement path (an ApplyPlacement
		// un-park arms a fresh wake).
		th.parked = true
		return
	case sched.GateStalled:
		// Stall: the thread sleeps through its service turns until the
		// window ends, without contending or re-tuning anything.
		r.Eng.At(until, "metronome-stall-resume", th.wakeFn)
		return
	}
	r.Acct.AddBusy(th.id, r.Cfg.WakeCost)
	r.Tries++
	q := th.queue
	r.TriesQ[q]++
	if r.locked[q] {
		// Busy try: another thread owns the queue. Become backup; pick a
		// random queue for the next attempt (Sec. IV-E) and sleep TL.
		r.BusyTries++
		r.BusyTriesQ[q]++
		if r.cyc.Publishes(q) {
			// The queue is mid-service, so Occupancy reads the fluid
			// model's last slice boundary without advancing arrivals.
			r.bus.Set(telemetry.Occupancy, q, r.Queues[q].Occupancy(now))
			r.bus.Store(telemetry.Tries, q, uint64(r.TriesQ[q]))
			r.bus.Store(telemetry.BusyTries, q, uint64(r.BusyTriesQ[q]))
			r.bus.Add(telemetry.PubSeq, q, 1)
		}
		if r.Cfg.Tracer != nil {
			r.Cfg.Tracer.Wake(now, th.id, q, false)
		}
		var tl float64
		th.queue, tl = r.cyc.LostRace(th.id, q, th.rng)
		r.sleepTraced(th, tl, true)
		return
	}
	// Lock won: serve the queue. Shared-queue disciplines additionally
	// claim the queue's service turn; sequential execution means the claim
	// cannot fail here (see sched.Cycle.ClaimTurn — in the live runtime the
	// claim runs before the trylock as an admission filter), so in the twin
	// the counter is an exact tally of the service turns each queue began.
	r.cyc.ClaimTurn(q)
	if r.Cfg.Tracer != nil {
		r.Cfg.Tracer.Wake(now, th.id, q, true)
	}
	r.locked[q] = true
	queue := r.Queues[q]
	if r.Cfg.Faults != nil {
		// Blackout sync: flip the fluid model's dark bit to match the
		// injector before the poll, so a dark queue sees nv=0 while its
		// backlog accrues and a recovered one surfaces the backlog now.
		queue.SetDark(now, r.cyc.Dark(q))
	}
	th.vacation = now - r.lastRelease[q]
	th.serviceStart = now
	nv := queue.BeginService(now, r.noisyMu(th))
	if r.cyc.Publishes(q) {
		// N_V is the wake-time occupancy: the signal the elastic
		// controller holds at target and the work-stealing backup ranking
		// reacts to within one vacation.
		r.bus.Set(telemetry.Occupancy, q, nv)
		r.bus.Store(telemetry.Tries, q, uint64(r.TriesQ[q]))
		r.bus.Add(telemetry.PubSeq, q, 1)
	}
	if nv == 0 {
		// Empty poll: pay one rx_burst, release, stay primary.
		r.Acct.AddBusy(th.id, r.Cfg.PollCost)
		th.sliceEnd = now + r.Cfg.PollCost
		r.Eng.At(th.sliceEnd, "metronome-empty-poll", th.releaseFn)
		return
	}
	r.serveSlices(th, now)
}

// noisyMu draws the per-slice effective service rate: frequency-scaled and
// perturbed by the service-time noise of Sec. IV-B.2.
func (r *Runtime) noisyMu(th *thread) float64 {
	mu := r.MuEffective()
	noisy := mu * (1 + MuSigma*th.rng.NormFloat64())
	if floor := 0.3 * mu; noisy < floor {
		return floor
	}
	return noisy
}

// serveSlices advances the busy period slice by slice so that overload and
// time-varying arrival rates stay observable; the service rate is re-drawn
// each slice (th.serveFn) so noise averages out over long busy periods.
// The serving thread owns th.queue until finishCycle, so the pre-bound
// callbacks read the cycle state back off the thread.
func (r *Runtime) serveSlices(th *thread, sliceStart float64) {
	queue := r.Queues[th.queue]
	done, end := queue.ServeSlice(MaxSlice)
	r.Acct.AddBusy(th.id, end-sliceStart)
	th.sliceEnd = end
	if !done {
		r.Eng.At(end, "metronome-serve", th.serveFn)
		return
	}
	r.Eng.At(end, "metronome-release", th.releaseFn)
}

// finishCycle releases the lock, publishes what the drain left behind, hands
// the cycle to sched.Cycle.Finish — which folds it into the load estimate,
// re-evaluates TS and publishes the cycle-end gauges — and puts the thread
// back to sleep as the (new) primary of the queue Finish names.
func (r *Runtime) finishCycle(th *thread) {
	q := th.queue
	now := th.sliceEnd
	busy := now - th.serviceStart
	r.locked[q] = false
	r.lastRelease[q] = now
	r.Cycles++
	r.CyclesQ[q]++
	r.CyclesByThread[th.id]++
	if r.Cfg.OnCycle != nil {
		r.Cfg.OnCycle(q, th.vacation, busy)
	}
	if r.Cfg.Tracer != nil {
		r.Cfg.Tracer.Release(now, th.id, q, busy)
	}
	if r.cyc.Publishes(q) {
		// The drain-coupled gauges go first: Finish bumps the queue's
		// publish sequence, and that bump has to stay the cycle's last
		// store.
		queue := r.Queues[q]
		r.bus.Set(telemetry.Occupancy, q, 0) // drained by construction of EndService
		if dt := now - r.occIntAt[q]; dt > 0 {
			// EndService just accrued the fluid model's occupancy integral
			// up to now, so the cycle-window average is exact here.
			integ := queue.OccIntegral()
			r.bus.Set(telemetry.OccAvg, q, (integ-r.occIntLast[q])/dt)
			r.occIntLast[q] = integ
			r.occIntAt[q] = now
		}
		r.bus.Store(telemetry.Drops, q, uint64(queue.Drops))
		r.bus.Store(telemetry.Rx, q, uint64(queue.RxPackets))
	}
	next, ts := r.cyc.Finish(th.id, q, busy, th.vacation, r.Acct.Busy(th.id), now)
	if th.retired {
		// Retired mid-service: the cycle completed cleanly, now park
		// instead of re-arming (see SetTeamSize). The thread keeps the
		// queue it served; unpark re-homes it.
		th.parked = true
		return
	}
	th.queue = next
	r.sleepTraced(th, ts, false)
}

// sleep re-arms th's wakeup after the requested timeout plus the sampled
// sleep-service and scheduler overheads. A zero timeout (the busypoll
// discipline) never enters the sleep service: the thread loops straight
// into its next trylock after exactly the wake-path work it is charged, so
// a poller accounts ~100% CPU like Listing 1.
func (r *Runtime) sleep(th *thread, req float64) {
	if req <= 0 {
		// Floor the loop iteration like the wake model floors delays:
		// with WakeCost configured to zero the engine must still advance,
		// or the spin would re-enqueue at the same instant forever. The
		// floored iteration is charged so the poller stays ~100% on-CPU
		// even then (wakeup charges nothing when WakeCost is zero).
		spin := r.Cfg.WakeCost
		if spin <= 0 {
			spin = 100e-9
			r.Acct.AddBusy(th.id, spin)
		}
		r.Eng.After(spin, "metronome-spin", th.wakeFn)
		return
	}
	delay := th.wake.Delay(req, th.core)
	r.Eng.After(delay, "metronome-wake", th.wakeFn)
}

func (r *Runtime) sleepTraced(th *thread, req float64, backup bool) {
	if r.Cfg.Tracer != nil {
		r.Cfg.Tracer.Sleep(r.Eng.Now(), th.id, req, backup)
	}
	r.sleep(th, req)
}

// Metrics summarises a finished run over a wall-clock window.
type Metrics struct {
	Wall          float64
	CPUPercent    float64
	BusyTries     int64
	Tries         int64
	BusyTryFrac   float64
	Cycles        int64
	CyclesQ       []int64
	RxPackets     int64
	Served        int64
	Drops         int64
	LossRate      float64
	MeanVacation  float64
	MeanBusy      float64
	MeanNV        float64
	RhoEst        []float64
	TSNow         []float64
	Latency       stats.Boxplot
	LatencyStd    float64
	ThroughputPPS float64
}

// Snapshot computes run metrics over the window of length wall since the
// run started or since the last ResetWindow (the warm-up boundary).
//
// The slices the returned Metrics carries (CyclesQ, RhoEst, TSNow) and its
// latency summary are built in buffers the Runtime reuses across calls, so
// sampling metrics mid-run at high frequency allocates nothing once the
// buffers are warm. They are valid until the next Snapshot on the same
// Runtime; a caller that retains a Metrics across snapshots must copy
// them.
func (r *Runtime) Snapshot(wall float64) Metrics {
	n := len(r.Queues)
	if cap(r.snapCyclesQ) < n {
		r.snapCyclesQ = make([]int64, n)
	}
	if cap(r.snapFloats) < 2*n {
		r.snapFloats = make([]float64, 2*n)
	}
	m := Metrics{
		Wall:        wall,
		CPUPercent:  r.Acct.UsagePercent(wall),
		BusyTries:   r.BusyTries,
		Tries:       r.Tries,
		BusyTryFrac: r.BusyTryFraction(),
		Cycles:      r.Cycles,
		CyclesQ:     r.snapCyclesQ[:n],
		RhoEst:      r.snapFloats[:0:n],
		TSNow:       r.snapFloats[n : n : 2*n],
	}
	copy(m.CyclesQ, r.CyclesQ)
	var vac, busy, nv stats.Welford
	r.snapLat.Reset()
	for q, queue := range r.Queues {
		m.RxPackets += queue.RxPackets
		m.Served += queue.Served
		m.Drops += queue.Drops
		vac.Merge(&queue.VacObs)
		busy.Merge(&queue.BusyObs)
		nv.Merge(&queue.NVObs)
		r.snapLat.Merge(&queue.Lat)
		m.RhoEst = append(m.RhoEst, r.Rho(q))
		m.TSNow = append(m.TSNow, r.TS(q))
	}
	offered := m.RxPackets + m.Drops
	if offered > 0 {
		m.LossRate = float64(m.Drops) / float64(offered)
	}
	m.MeanVacation = vac.Mean()
	m.MeanBusy = busy.Mean()
	m.MeanNV = nv.Mean()
	m.Latency = r.snapLat.Box()
	m.LatencyStd = r.snapLat.Std()
	if wall > 0 {
		m.ThroughputPPS = float64(m.Served) / wall
	}
	return m
}
