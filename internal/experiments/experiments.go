// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. V). Each experiment is registered under the ID used in
// DESIGN.md's per-experiment index (tab1, fig5, ...), runs the relevant
// simulation or closed-form baseline, and renders the same rows/series the
// paper reports. bench_test.go and cmd/metrobench both drive this registry.
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"metronome/internal/core"
	"metronome/internal/elastic"
	"metronome/internal/faults"
	"metronome/internal/nic"
	"metronome/internal/obsv"
	"metronome/internal/power"
	"metronome/internal/sim"
	"metronome/internal/stats"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// Options tune an experiment run.
type Options struct {
	// Quick shrinks durations for use inside testing.B loops; the shapes
	// survive, the confidence intervals widen.
	Quick bool
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// Parallel bounds how many independent simulations a sweep experiment
	// runs concurrently; 0 means GOMAXPROCS. Each row/series point is a
	// self-contained deterministic simulation (own engine, RNG streams and
	// queues) with a seed fixed by its index, and results are collected by
	// index, so the rendered tables are byte-identical at any parallelism.
	Parallel int
}

// workers resolves the effective worker-pool size.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// ParMap evaluates fn(0..n-1) on a bounded worker pool (workers <= 0
// means GOMAXPROCS) and returns the results in index order. With one
// worker it degenerates to a plain loop on the calling goroutine. fn must
// be self-contained: every simulation it launches owns its engine, queues
// and RNG streams, and its seed must derive from i (never from shared
// mutable state), which is what keeps a sweep deterministic under any
// interleaving. Exported so CLIs (metrosim -runs) share the same pool.
func ParMap[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// parMap is ParMap under an experiment's Options.
func parMap[T any](o Options, n int, fn func(i int) T) []T {
	return ParMap(o.workers(), n, fn)
}

// Table is one rendered artifact (a paper table, or one panel of a figure).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Charts holds pre-rendered ASCII figures appended after the rows.
	Charts []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range t.Charts {
		fmt.Fprintln(w)
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

// Experiment is one registry entry.
type Experiment struct {
	ID    string
	Title string
	// Paper describes what the original artifact reports, for
	// EXPERIMENTS.md cross-referencing.
	Paper string
	Run   func(Options) []*Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments in declaration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Doc writes the EXPERIMENTS.md paper-vs-measured skeleton, generated from
// the registry's Paper fields so the document can never drift from the
// experiments that actually exist. Regenerate with:
//
//	go run ./cmd/metrobench -doc > EXPERIMENTS.md
func Doc(w io.Writer) {
	fmt.Fprint(w, `# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (Sec. V) is regenerated by
a registered experiment in `+"`internal/experiments`"+`. This index is
generated from that registry (`+"`go run ./cmd/metrobench -doc`"+`); the
"paper" lines quote what the original artifact reports, and each
"reproduce" command prints the measured counterpart as an aligned text
table. Runs are deterministic per seed, at any `+"`-parallel`"+` setting.

Full sweep: `+"`go run ./cmd/metrobench -run all`"+` (append `+"`-quick`"+`
for a ~10x faster smoke pass with wider confidence intervals). The same
registry backs `+"`bench_test.go`"+`, so `+"`go test -bench=.`"+` doubles
as the whole reproduction with headline quantities as benchmark metrics.

`)
	for _, e := range All() {
		fmt.Fprintf(w, "## %s — %s\n\n", e.ID, e.Title)
		fmt.Fprintf(w, "- **Paper:** %s\n", e.Paper)
		fmt.Fprintf(w, "- **Reproduce:** `go run ./cmd/metrobench -run %s`\n", e.ID)
		fmt.Fprintf(w, "- **Measured:** _run the command above and paste the headline rows here_\n\n")
	}
}

// --- shared runners --------------------------------------------------------

// runSpec describes one simulated Metronome deployment. The deployment
// reads its ring capacity from cfg.RingCap (zero keeps the nic default)
// and its flight recorder from cfg.Recorder: when set, the recorder rides
// every control-plane source (substrate placements, elastic decisions,
// fault flips) and resets at the warm-up boundary like every other
// windowed stat, so decision-trace panels cover the measurement window
// only.
type runSpec struct {
	cfg    core.Config
	optFn  func(nic.Options) nic.Options // per-queue option tweaks after cfg.RingCap (nil = none)
	procs  []traffic.Process             // one per queue (see deploy)
	dur    float64
	warmup float64
	seed   uint64
	// telemetry attaches a telemetry bus even without a controller, so
	// bus-driven policies (worksteal occupancy ranking) get live signals.
	telemetry bool
	// elastic attaches the occupancy-driven control plane: a bus, a
	// controller and an engine ticker at the configured control period.
	elastic *elastic.Config
	// faults schedules the deterministic fault plane into the run: an
	// injector sized to the deployment (elastic budget included) is wired
	// into the core config and the events fire as ordinary engine events,
	// so a faulted sweep stays byte-identical at any -parallel. A
	// ControllerDown event suppresses the elastic ticker until ControllerUp.
	faults []faults.Event
	// hook observes the wired deployment before the clock runs — the fault
	// experiments register their recovery probes (engine tickers sampling
	// ring state) through it.
	hook func(eng *sim.Engine, r *core.Runtime, queues []*nic.Queue)
}

// Deploy is the harness's deployment builder exported for the public
// facade: its Simulate* functions run through here, so a facade run is the
// experiments' run without warm-up. It runs cfg, seeded by cfg.Seed, over
// one arrival process per queue for dur virtual seconds; a non-nil ec
// attaches the elastic control plane (ec.Recorder defaults to
// cfg.Recorder) and non-empty evs the fault plane (fault flips land on
// cfg.Recorder).
func Deploy(cfg core.Config, procs []traffic.Process, dur float64, ec *elastic.Config, evs []faults.Event) (*core.Runtime, core.Metrics, elastic.Report) {
	return deploy(runSpec{cfg: cfg, dur: dur, seed: cfg.Seed, elastic: ec, faults: evs}, procs)
}

// runMetronome executes the spec and snapshots metrics over the
// post-warm-up window.
func runMetronome(s runSpec) (*core.Runtime, core.Metrics) {
	r, m, _ := deploy(s, s.procs)
	return r, m
}

// runMetronomeElastic is runMetronome plus the elastic report.
func runMetronomeElastic(s runSpec) (*core.Runtime, core.Metrics, elastic.Report) {
	return deploy(s, s.procs)
}

// deploy builds and runs the spec over procs, one arrival process per
// queue. When the spec asks for the elastic control plane, a telemetry bus
// is attached to the deployment, a controller drives the team from an
// engine ticker (pure virtual-time events, so elastic sweeps stay
// byte-identical at any -parallel), and the returned report carries the
// provisioning account. Static deployments get a synthesized report (M
// threads for the whole window) so elastic and static rows are comparable
// in one table. procs rides beside the spec, not in it, because the spec
// escapes: Deploy's caller-owned arrivals slice then stays off the heap.
func deploy(s runSpec, procs []traffic.Process) (*core.Runtime, core.Metrics, elastic.Report) {
	budget := s.cfg.M
	if s.elastic != nil && s.elastic.Budget > budget {
		budget = s.elastic.Budget
	}
	if s.elastic != nil || s.telemetry {
		s.cfg.Bus = telemetry.NewBus(len(procs), budget)
	}
	var inj *faults.Injector
	if len(s.faults) > 0 {
		inj = faults.New(budget, len(procs))
		s.cfg.Faults = inj
	}
	eng := sim.New()
	root := xrand.New(s.seed)
	queues := make([]*nic.Queue, len(procs))
	for i, p := range procs {
		opt := nic.DefaultOptions()
		if s.cfg.RingCap > 0 {
			opt.Cap = s.cfg.RingCap
		}
		if s.optFn != nil {
			opt = s.optFn(opt)
		}
		queues[i] = nic.NewQueue(i, p, root.Split(), opt)
	}
	s.cfg.Seed = s.seed
	r := core.New(eng, queues, s.cfg)
	r.Start()
	var ctrl *elastic.Controller
	if s.elastic != nil {
		ec := *s.elastic
		if ec.MinThreads == 0 {
			ec.MinThreads = len(procs)
		}
		if ec.Recorder == nil {
			ec.Recorder = s.cfg.Recorder
		}
		// Construct after Start: the controller's initial clamp resizes
		// through the live resize path, never double-arming first wakes.
		ctrl = elastic.New(s.cfg.Bus, r, ec)
		eng.Ticker(ctrl.Config().Period, "elastic-tick", func() {
			if inj != nil && inj.ControllerSuppressed() {
				return
			}
			ctrl.Tick(eng.Now())
		})
	}
	if inj != nil {
		obsv.AttachFaults(inj, s.cfg.Recorder) // no-op when no recorder is wired
		faults.Schedule(eng, inj, s.faults)
	}
	if s.hook != nil {
		s.hook(eng, r, queues)
	}
	if s.warmup > 0 {
		eng.RunUntil(s.warmup)
		r.ResetWindow(eng.Now())
		if ctrl != nil {
			ctrl.ResetStats(eng.Now())
		}
		// The engine is parked at the warm-up boundary, so the recorder
		// reset cannot race writers.
		s.cfg.Recorder.Reset()
	}
	end := s.warmup + s.dur
	eng.RunUntil(end)
	rep := elastic.Report{
		MinThreads: r.TeamSize(), MaxThreads: r.TeamSize(), Final: r.TeamSize(),
	}
	if ctrl != nil {
		rep = ctrl.Report(end)
	}
	// Thread-seconds come from the core's exact ∫M(t)dt integral rather
	// than the controller's tick-quantised account.
	rep.ThreadSeconds = r.ProvisionedThreadSeconds(end)
	if s.dur > 0 {
		rep.MeanThreads = rep.ThreadSeconds / s.dur
	}
	return r, r.Snapshot(s.dur), rep
}

// tailColumns are the exact-histogram latency-tail cells appended by the
// experiments that render tail panels; values are microseconds read from
// the bus histograms (bucket upper edges, ≤3.2% wide — see stats.LogHistogram).
var tailColumns = []string{"p50_us", "p99_us", "p999_us", "p9999_us", "lmax_us"}

// tailCells folds every queue's bus histogram into one deployment-wide
// distribution and renders the tail quantiles. The histograms were reset
// at warm-up, so the cells cover the measured window exactly — every
// per-packet retrieval latency, no reservoir thinning.
func tailCells(r *core.Runtime, nQueues int) []string {
	bus := r.Cfg.Bus
	if bus == nil {
		return []string{"-", "-", "-", "-", "-"}
	}
	var h stats.LogHistogram
	for q := 0; q < nQueues; q++ {
		bus.SampleLatency(q, &h)
	}
	if h.N() == 0 {
		return []string{"-", "-", "-", "-", "-"}
	}
	at := func(p float64) string { return us(float64(h.Quantile(p)) * 1e-9) }
	return []string{at(0.5), at(0.99), at(0.999), at(0.9999), us(float64(h.Max()) * 1e-9)}
}

// singleQueueCBR is the common single-queue constant-rate deployment.
func singleQueueCBR(cfg core.Config, pps, dur float64, seed uint64) (*core.Runtime, core.Metrics) {
	return runMetronome(runSpec{
		cfg:    cfg,
		procs:  []traffic.Process{traffic.CBR{PPS: pps}},
		dur:    dur,
		warmup: dur * 0.2,
		seed:   seed,
	})
}

// governorPower resolves the ondemand/performance fixed point for a
// Metronome deployment and returns (metrics, watts, freq GHz). The drain
// rate scales with the frequency of the core that holds the lock, so the
// governor's view is re-simulated to a fixed point. Two rules matter:
// ondemand ramps a saturated core (util ~1) back to FMax — work expands to
// fill the queue backlog, so slowing down never looks "less utilised" —
// and each core settles at its own frequency for the power account.
func governorPower(pc power.Config, gov power.Governor, spec runSpec) (core.Metrics, float64, float64) {
	freq := pc.FMax
	var m core.Metrics
	var rt *core.Runtime
	var utils []float64
	for iter := 0; iter < 6; iter++ {
		spec.cfg.FreqScale = freq / pc.FMax
		rt, m = runMetronome(spec)
		utils = perThreadUtil(rt, m.Wall)
		umax := maxOf(utils)
		var next float64
		switch {
		case gov == power.Performance:
			next = pc.FMax
		case umax >= 0.99:
			next = pc.FMax // saturated: ondemand climbs back to full speed
		default:
			// cycles/s of real work are frequency-invariant; re-reference
			// the busiest core's demand to FMax for the governor law.
			next = pc.SteadyFreq(gov, umax*freq/pc.FMax)
		}
		if math.Abs(next-freq) < 0.02 {
			freq = next
			break
		}
		freq = (freq + next) / 2 // damped: the map can overshoot at ramp-up
	}
	// Per-core operating points: cores with lighter duty idle down on
	// their own, independent of the lock-holder's frequency.
	states := make([]power.CoreState, len(utils))
	cpuPct := 0.0
	for i, u := range utils {
		busyGHz := u * freq
		fi := freq
		if gov == power.Ondemand && u < 0.99 {
			fi = pc.SteadyFreq(gov, busyGHz/pc.FMax)
		}
		ui := 1.0
		if fi > 0 && busyGHz/fi < 1 {
			ui = busyGHz / fi
		}
		states[i] = power.CoreState{Freq: fi, Util: ui}
		cpuPct += ui * 100
	}
	// Report CPU as observed at the operating frequencies, like getrusage
	// would on the governed machine.
	m.CPUPercent = cpuPct
	return m, pc.PackagePower(states), freq
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func perThreadUtil(rt *core.Runtime, wall float64) []float64 {
	out := make([]float64, rt.Cfg.M)
	for i := range out {
		u := rt.Acct.Busy(i) / wall
		if u > 1 {
			u = 1
		}
		out[i] = u
	}
	return out
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// staticPower computes package power for n continuously-polling cores.
func staticPower(pc power.Config, gov power.Governor, cores int) float64 {
	states := make([]power.CoreState, cores)
	for i := range states {
		f := pc.SteadyFreq(gov, 1)
		states[i] = power.CoreState{Freq: f, Util: 1}
	}
	return pc.PackagePower(states)
}

// --- formatting helpers ----------------------------------------------------

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func us(v float64) string  { return fmt.Sprintf("%.2f", v*1e6) }
func pct(v float64) string { return fmt.Sprintf("%.1f", v) }
func mpps(v float64) string {
	return fmt.Sprintf("%.2f", v/1e6)
}
func permille(v float64) string { return fmt.Sprintf("%.4f", v*1000) }

// dur scales a nominal duration down in quick mode.
func dur(o Options, full float64) float64 {
	if o.Quick {
		return full / 10
	}
	return full
}
