package experiments

import (
	"fmt"

	"metronome/internal/core"
	"metronome/internal/elastic"
	"metronome/internal/faults"
	"metronome/internal/nic"
	"metronome/internal/obsv"
	"metronome/internal/sched"
	"metronome/internal/sim"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "fig-faults",
		Title: "Fault plane: deterministic fault injection vs the self-healing control loop",
		Paper: "Beyond the paper: Sec. V measures Metronome on a healthy host, but the discipline's failure surface — a member preempted through k service turns, a NIC queue going dark, gauges freezing, the controller's tick source dying — is untested there. This experiment drives a straggler storm, a queue blackout, a telemetry brownout under a flash crowd and a controller outage against static teams, the oblivious elastic controller and the health-layer (self-healing) controller, comparing loss, recovery time and provisioned thread-seconds",
		Run:   runFaults,
	})
}

// healingTuning is elasticTuning plus the health layer: the placement plane
// (exiles land as corrective plans), staleness/liveness detection at the
// defaults (8 control ticks), SafeTeam at the full budget, and an actuation
// rate limit so a recovering controller cannot whipsaw the team.
func healingTuning(minThreads, budget int) *elastic.Config {
	ec := elasticTuning(minThreads, budget)
	ec.Placement = true
	ec.Health = true
	ec.SafeTeam = budget
	ec.MaxActuationsPerSec = 200
	return ec
}

// obliviousTuning is the same controller with the health layer off — the
// placement-capable PI that trusts every gauge it reads. It is the ablation
// arm every panel compares the self-healing loop against.
func obliviousTuning(minThreads, budget int) *elastic.Config {
	ec := elasticTuning(minThreads, budget)
	ec.Placement = true
	return ec
}

// faultMode is one comparison arm of a fault panel. rec, when non-nil,
// attaches a flight recorder to the arm's control plane (recording is
// passive, so the arm's physics are unchanged); the panel folds the ring
// into a decision-trace table beside the figure.
type faultMode struct {
	name string
	m    int
	ecfg *elastic.Config
	rec  *obsv.Recorder
}

// faultResult carries one arm's rendered row plus the raw quantities the
// acceptance test asserts on. drops counts the watched queue only, so the
// fault's signature is not diluted by unrelated loss elsewhere.
type faultResult struct {
	name   string
	drops  int64
	exiles int
	row    []string
	tails  []string
}

// faultColumns: loss_permille is the deployment-wide loss rate; drops counts
// the watched (faulted) queue alone, which is what the panels contrast.
var faultColumns = []string{
	"mode", "loss_permille", "dropsW", "recovery_ms",
	"thread_ms", "mean_M", "M_range", "resizes", "exiles", "safe_ticks",
}

// faultRow runs one arm with the shared fault schedule and a recovery probe
// on the watched queue: every probe period the queue is sampled, and the run
// remembers the last instant it was unhealthy (drops still accruing, or
// occupancy above 10% of the ring). recovery_ms is how long past the fault
// clearing that instant lies — 0 when the queue was healthy the moment the
// fault lifted.
func faultRow(mode faultMode, procs []traffic.Process, evs []faults.Event,
	d, warmup, faultEnd float64, probeQ int, clean bool, seed uint64) faultResult {
	spec := elasticSpec(sched.NameRMetronome, mode.m, procs, d, warmup, seed, mode.ecfg)
	spec.faults = evs
	spec.recorder = mode.rec
	if clean {
		// Straggler and blackout panels run on a clean host: the injected
		// fault is the only outage source, so the arms differ by their
		// control loop alone, not by the noisy host's wake-delay lottery.
		spec.cfg.Wake.TailProb = 0
	}
	var watched *nic.Queue
	var lastBad float64
	spec.hook = func(eng *sim.Engine, r *core.Runtime, queues []*nic.Queue) {
		q := queues[probeQ]
		watched = q
		var prevDrops int64
		eng.Ticker(5e-4, "fault-probe", func() {
			now := eng.Now()
			if q.Drops < prevDrops {
				prevDrops = q.Drops // warm-up reset zeroed the counter
			}
			if q.Drops > prevDrops || q.Occupancy(now) > 0.1*float64(q.Opt.Cap) {
				lastBad = now
			}
			prevDrops = q.Drops
		})
	}
	rt, met, rep := runMetronomeElastic(spec)
	recovery := 0.0
	if lastBad > faultEnd {
		recovery = (lastBad - faultEnd) * 1e3
	}
	return faultResult{
		name:   mode.name,
		drops:  watched.Drops,
		exiles: rep.Exiles,
		tails:  append([]string{mode.name}, tailCells(rt, len(procs))...),
		row: []string{
			mode.name,
			permille(met.LossRate),
			fmt.Sprintf("%d", watched.Drops),
			f1(recovery),
			f1(rep.ThreadSeconds * 1e3),
			f2(rep.MeanThreads),
			fmt.Sprintf("%d..%d", rep.MinThreads, rep.MaxThreads),
			fmt.Sprintf("%d", rep.Resizes),
			fmt.Sprintf("%d", rep.Exiles),
			fmt.Sprintf("%d", rep.SafeTicks),
		},
	}
}

func rowsOf(results []faultResult) [][]string {
	rows := make([][]string, len(results))
	for i, r := range results {
		rows[i] = r.row
	}
	return rows
}

// faultTables pairs a panel with its exact-histogram tail table.
func faultTables(main *Table, results []faultResult, tailID, tailTitle string) []*Table {
	rows := make([][]string, len(results))
	for i, r := range results {
		rows[i] = r.tails
	}
	return []*Table{main, tailsTable(tailID, tailTitle, rows)}
}

// stragglerResults runs the straggler-storm arms and returns the raw
// results; the acceptance test asserts the oracle/self-heal/oblivious loss
// ratios on these directly. rec, when non-nil, rides the self-healing arm
// as its flight recorder.
//
// The physics: queue 0 trickles at 150 Kpps, so its 4096-descriptor ring
// absorbs a ~27 ms outage before overflowing, while the health layer's
// liveness bound (8 control ticks of a frozen heartbeat) detects a straggler
// in ~8-10 ms. Each storm preempts thread 0 — queue 0's only attendant in a
// 2-member team — for 5% of the run (40 ms at full duration), six times.
// A single-member group never visits backups (the backup path only triggers
// on a lost race), so without intervention the queue starves for the full
// stall and drops the last ~13 ms of arrivals.
func stragglerResults(o Options, rec *obsv.Recorder) ([]faultResult, float64) {
	d := dur(o, 0.8)
	warmup := 0.25 * d
	procs := []traffic.Process{
		traffic.CBR{PPS: 150e3}, // watched: starves when thread 0 stalls
		traffic.CBR{PPS: 6e6},   // busy enough to pin its own attendant
	}
	evs := faults.Storm(nil, 0, warmup+0.30*d, warmup+0.90*d, 0.10*d, 0.05*d)
	faultEnd := warmup + 0.85*d // the last storm's stall window closes here
	modes := []faultMode{
		// The oracle knows thread 0 will fail and pre-provisions its home
		// queue with a second member for the whole run.
		{name: "oracle-static-3", m: 3},
		{name: "static-2", m: 2},
		{name: "elastic-oblivious-2..4", m: 2, ecfg: obliviousTuning(2, 4)},
		{name: "elastic-selfheal-2..4", m: 2, ecfg: healingTuning(2, 4), rec: rec},
	}
	results := parMap(o, len(modes), func(i int) faultResult {
		return faultRow(modes[i], procs, evs, d, warmup, faultEnd, 0, true, o.Seed+uint64(1600+i))
	})
	return results, d
}

func faultsStragglerPanel(o Options) []*Table {
	rec := obsv.NewRecorder(obsv.DefaultCapacity)
	results, _ := stragglerResults(o, rec)
	tables := faultTables(&Table{
		ID:      "fig-faults-straggler",
		Title:   "straggler storm (thread 0 preempted 40 ms every 80 ms), 150 Kpps + 6 Mpps over 2 queues",
		Columns: faultColumns,
		Rows:    rowsOf(results),
		Notes: []string{
			"a starved queue publishes nothing (gauges land on its own cycle path), so the oblivious controller is blind to the storm and loses like static-2",
			"the health layer sees the frozen heartbeat within its liveness bound and exiles the straggler — a corrective plan reinforces its home queue before the ring overflows, matching the oracle's loss at a fraction of its thread-seconds",
		},
	}, results, "fig-faults-tails-straggler", "straggler storm — exact latency tails")
	return append(tables, traceTable("fig-faults-trace",
		"self-healing arm under the straggler storm — flight-recorder decision trace", rec))
}

func faultsBlackoutPanel(o Options) []*Table {
	d := dur(o, 0.8)
	warmup := 0.25 * d
	procs := []traffic.Process{
		traffic.CBR{PPS: 600e3}, // watched: goes dark mid-run
		traffic.CBR{PPS: 6e6},
	}
	evs := []faults.Event{
		{At: warmup + 0.40*d, Kind: faults.QueueBlackout, Target: 0},
		{At: warmup + 0.44*d, Kind: faults.QueueRecover, Target: 0},
	}
	faultEnd := warmup + 0.44*d
	modes := []faultMode{
		{name: "static-2", m: 2},
		{name: "static-4", m: 4},
		{name: "elastic-oblivious-2..4", m: 2, ecfg: obliviousTuning(2, 4)},
		{name: "elastic-selfheal-2..4", m: 2, ecfg: healingTuning(2, 4)},
	}
	results := parMap(o, len(modes), func(i int) faultResult {
		return faultRow(modes[i], procs, evs, d, warmup, faultEnd, 0, true, o.Seed+uint64(1620+i))
	})
	return faultTables(&Table{
		ID:      "fig-faults-blackout",
		Title:   "queue blackout (queue 0 dark for 32 ms), 600 Kpps + 6 Mpps over 2 queues",
		Columns: faultColumns,
		Rows:    rowsOf(results),
		Notes: []string{
			"the dark window overflows the ring for every arm — static-4's extra capacity buys nothing, because no amount of service drains a NIC that reports empty",
			"the oblivious controller chases the dark loss to its budget (wasted thread-seconds); the health layer classifies drops-rising-while-empty as dark loss and holds the team, then both drain the surfaced backlog at recovery",
		},
	}, results, "fig-faults-tails-blackout", "queue blackout — exact latency tails")
}

func faultsBrownoutPanel(o Options) []*Table {
	d := dur(o, 0.8)
	warmup := 0.25 * d
	crowd := func() traffic.Process {
		return traffic.Step{At: warmup + 0.50*d, Before: traffic.CBR{PPS: 2e6},
			After: traffic.Step{At: warmup + 0.70*d, Before: traffic.CBR{PPS: 14e6},
				After: traffic.CBR{PPS: 2e6}}}
	}
	procs := []traffic.Process{crowd(), crowd()}
	evs := []faults.Event{
		{At: warmup + 0.45*d, Kind: faults.TelemetryFreeze, Target: 0},
		{At: warmup + 0.45*d, Kind: faults.TelemetryFreeze, Target: 1},
		{At: warmup + 0.75*d, Kind: faults.TelemetryThaw, Target: 0},
		{At: warmup + 0.75*d, Kind: faults.TelemetryThaw, Target: 1},
	}
	faultEnd := warmup + 0.70*d // when the crowd leaves, not when gauges thaw
	modes := []faultMode{
		{name: "static-2", m: 2},
		{name: "static-8", m: 8},
		{name: "elastic-oblivious-2..8", m: 2, ecfg: obliviousTuning(2, 8)},
		{name: "elastic-selfheal-2..8", m: 2, ecfg: healingTuning(2, 8)},
	}
	results := parMap(o, len(modes), func(i int) faultResult {
		return faultRow(modes[i], procs, evs, d, warmup, faultEnd, 0, false, o.Seed+uint64(1640+i))
	})
	return faultTables(&Table{
		ID:      "fig-faults-brownout",
		Title:   "telemetry brownout (all gauges frozen) hiding a 4 -> 28 Mpps flash crowd",
		Columns: faultColumns,
		Rows:    rowsOf(results),
		Notes: []string{
			"frozen gauges keep reading the pre-crowd idle, so the oblivious controller never grows and loses like static-2",
			"the health layer watches publish sequences, not values: when every queue goes stale it stops trusting the bus and grows to SafeTeam (grow-only), riding out the crowd like static-8 — then shrinks back once fresh gauges return",
		},
	}, results, "fig-faults-tails-brownout", "telemetry brownout — exact latency tails")
}

func faultsOutagePanel(o Options) []*Table {
	d := dur(o, 0.8)
	warmup := 0.25 * d
	crowd := func() traffic.Process {
		return traffic.Step{At: warmup + 0.55*d, Before: traffic.CBR{PPS: 2e6},
			After: traffic.Step{At: warmup + 0.80*d, Before: traffic.CBR{PPS: 14e6},
				After: traffic.CBR{PPS: 2e6}}}
	}
	procs := []traffic.Process{crowd(), crowd()}
	evs := []faults.Event{
		{At: warmup + 0.50*d, Kind: faults.ControllerDown},
		{At: warmup + 0.70*d, Kind: faults.ControllerUp},
	}
	faultEnd := warmup + 0.70*d // ticks resume mid-crowd; recovery is theirs
	modes := []faultMode{
		{name: "static-8", m: 8},
		{name: "elastic-oblivious-2..8", m: 2, ecfg: obliviousTuning(2, 8)},
		{name: "elastic-selfheal-2..8", m: 2, ecfg: healingTuning(2, 8)},
	}
	results := parMap(o, len(modes), func(i int) faultResult {
		return faultRow(modes[i], procs, evs, d, warmup, faultEnd, 0, false, o.Seed+uint64(1660+i))
	})
	return faultTables(&Table{
		ID:      "fig-faults-outage",
		Title:   "controller outage (ticks suppressed 160 ms) across a flash-crowd onset",
		Columns: faultColumns,
		Rows:    rowsOf(results),
		Notes: []string{
			"both elastic arms are blind while ticks are suppressed and pay the crowd's onset; the static team is immune but pays 8 threads all run",
			"at resume the self-healing controller re-enters through the monotonic-tick guard and the actuation rate limit: recovery stays bounded with no burst of stale-state resizes (the value-change detectors count ticks, so an outage never false-trips staleness)",
		},
	}, results, "fig-faults-tails-outage", "controller outage — exact latency tails")
}

func runFaults(o Options) []*Table {
	var tables []*Table
	tables = append(tables, faultsStragglerPanel(o)...)
	tables = append(tables, faultsBlackoutPanel(o)...)
	tables = append(tables, faultsBrownoutPanel(o)...)
	tables = append(tables, faultsOutagePanel(o)...)
	return tables
}
