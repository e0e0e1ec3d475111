package experiments

import (
	"fmt"

	"metronome/internal/elastic"
	"metronome/internal/faults"
	"metronome/internal/obsv"
	"metronome/internal/power"
	"metronome/internal/sched"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "fig-power",
		Title: "Power plane: modelled joules of the elastic controller vs the static ladder",
		Paper: "Sec. V-C/V-F measure Metronome's power with RAPL and report ~36% lower consumption than DPDK busy polling at matched loss. This experiment reproduces the claim's structure on the sim substrate with the calibrated core-only model (power.DefaultConfig, Xeon Silver 4110) and extends it to the elastic controller under the joules objective: a trough-dominated day with a short flash crowd, a static ladder sized for the peak, and per-arm modelled energy from each run's sleep-state residency",
		Run:   runPower,
	})
}

// powerMode is one comparison arm: a static team of m threads or an
// elastic team governed by ecfg, all under the shared-queue
// rmetronome discipline on a clean host (the fault-free power physics are
// the story; the wake-delay lottery is fig-elastic's).
type powerMode struct {
	name string
	m    int
	ecfg *elastic.Config
	rec  *obsv.Recorder // optional flight recorder riding the arm
}

// powerTuning is elasticTuning with the power objective under test.
// Placement stays off: the day's load is balanced across queues, and
// per-queue replanning mid-crowd can transiently leave a queue with a
// lone attendant exactly when the preemption storm lands — chasing
// imbalance is fig-placement's story, not this figure's.
func powerTuning(minThreads, budget int, obj elastic.Objective) *elastic.Config {
	ec := elasticTuning(minThreads, budget)
	// No slope feedforward: the occupancy ramp of the warning stairs would
	// grow the team tens of milliseconds before the peak needs it, and on
	// this figure every early thread-second is idle watts. The pure PI
	// still reaches the full team inside the first stair — well before the
	// storm — because the peak error is more than twice the deadband.
	ec.SlopeGain = 0
	ec.Objective = obj
	// 6% of the ring rather than fig-elastic's 3%: at the 60 us target
	// vacation the trough parks wake-time occupancy near 1%, and the
	// shrink-back to the floor only clears the ±0.75-thread deadband when
	// the trough error is a decisive fraction of the target (the peak's
	// ~15% occupancy still reads as strong grow pressure).
	ec.TargetOccupancy = 0.06
	// A quarter of the default shrink cooldown: idle watts accrue for
	// every period a crowd-sized team outlives the crowd, so the power
	// arms trade a little resize churn for a faster return to the trough
	// floor (growth is never cooldown-gated, so loss response is intact).
	ec.Cooldown = 4
	return ec
}

// powerResult carries one arm's rendered row plus the raw quantities the
// acceptance test asserts on: deployment-wide loss rate, whether the arm
// is a static rung, and the modelled core-only joules of the run.
type powerResult struct {
	name   string
	static bool
	loss   float64
	joules float64
	row    []string
	tails  []string
}

// powerBudget is the machine every arm is priced against: the elastic
// budget's eight cores. A static rung's surplus cores are parked in the
// deep C-state, exactly like the cores the controller releases — so the
// ladder and the elastic arms differ only in how they spend the same
// silicon, not in how much of it they own.
const powerBudget = 8

// powerRow runs one arm and prices it: the residency (busy/idle/parked
// seconds plus mean sleep dwell) comes out of the run's own accounting,
// and power.TeamEnergy converts it to core-only joules at the calibration
// frequency. ctl_W is the elastic controller's internal mean-watts gauge
// (Report.MeanWatts) — the number the joules objective steers on — shown
// beside the external account so the two books can be compared.
func powerRow(mode powerMode, procs []traffic.Process, evs []faults.Event, d, warmup float64, seed uint64) powerResult {
	spec := elasticSpec(sched.NameRMetronome, mode.m, procs, d, warmup, seed, mode.ecfg)
	// Clean host: the deterministic preemption storm below is the only
	// outage source, so the ladder's loss cliff is exact physics rather
	// than a per-seed wake-delay lottery (the same determinism argument
	// as the fig-faults straggler panel).
	spec.cfg.Wake.TailProb = 0
	// Sticky backups: a lost-race member re-contends its home queue
	// instead of wandering (Sec. IV-E's random re-target). Under the
	// preemption storm this makes partner coverage deterministic — a
	// two-member group's survivor is never off visiting another queue for
	// the whole stall — so the ladder's loss cliff is pure group size, not
	// a per-seed wander lottery.
	spec.cfg.BackupSticky = true
	// A longer target vacation than fig-elastic's 15 us: fewer wakes per
	// second cut the sleep/wake overhead (the energy floor the paper's
	// discipline is about) while wake-time occupancy stays the
	// controller's crowd signal.
	spec.cfg.VBar = 60e-6
	spec.faults = evs
	spec.recorder = mode.rec
	rt, met, rep := runMetronomeElastic(spec)
	pc := power.DefaultConfig()
	res := rt.Residency(warmup+d, d, powerBudget)
	res.Freq = pc.FMax
	joules := pc.TeamEnergy(res)
	ctlW := "-"
	if mode.ecfg != nil {
		ctlW = f2(rep.MeanWatts)
	}
	return powerResult{
		name:   mode.name,
		static: mode.ecfg == nil,
		loss:   met.LossRate,
		joules: joules,
		row: []string{
			mode.name,
			permille(met.LossRate),
			pct(met.CPUPercent),
			f1(rep.ThreadSeconds * 1e3),
			f2(rep.MeanThreads),
			fmt.Sprintf("%d..%d", rep.MinThreads, rep.MaxThreads),
			fmt.Sprintf("%d", rep.Resizes),
			f2(joules),
			f2(joules / d),
			ctlW,
			"", // saving_pct vs the smallest zero-loss static rung, filled below
		},
		tails: append([]string{mode.name}, tailCells(rt, len(procs))...),
	}
}

// powerResults runs the fig-power arms and fills the saving column
// against the baseline the paper's claim names: the smallest static rung
// that rides out the peak at zero loss. The acceptance test asserts the
// elastic saving on these results directly. rec, when non-nil, rides the
// joules-objective arm as its flight recorder.
func powerResults(o Options, rec *obsv.Recorder) ([]powerResult, int) {
	d := dur(o, 0.8)
	warmup := 0.25 * d

	// Trough-dominated day over four queues: 0.75 Mpps per queue for ~86%
	// of the window, then a staircase crowd (3, 6, 10 Mpps per queue —
	// 40 Mpps total at the peak) for the last ~10% before falling back.
	// Each stair is at most a 4x rate jump: the group's vacation EWMA
	// tracks that without transient ring overflow (a steeper jump loses
	// packets at the onset on every arm and blurs the storm's ladder).
	crowd := func() traffic.Process {
		lo := traffic.CBR{PPS: 0.75e6}
		return traffic.Step{At: warmup + 0.84*d, Before: lo,
			After: traffic.Step{At: warmup + 0.86*d, Before: traffic.CBR{PPS: 3e6},
				After: traffic.Step{At: warmup + 0.88*d, Before: traffic.CBR{PPS: 6e6},
					After: traffic.Step{At: warmup + 0.945*d, Before: traffic.CBR{PPS: 10e6},
						After: lo}}}}
	}
	procs := []traffic.Process{crowd(), crowd(), crowd(), crowd()}

	// The ladder's loss cliff, made deterministic: a staggered preemption
	// storm stalls each thread id for 600 us in turn while the crowd is at
	// its peak (the shared host's noisy neighbours firing at the worst
	// time). A stalled lone attendant's ring takes 10 Mpps for 600 us —
	// 6000 packets against 4096 descriptors — so every queue attended by
	// one member drops, while a two-member group always has its partner
	// awake (stalls never overlap within a group: partners sit 4 ids
	// apart, stalls a few ids wide even in quick mode). Static rungs
	// below 8 run r=1 queues and lose; static-8 and the fully-grown
	// elastic teams ride the same storm clean.
	var evs []faults.Event
	for round := 0; round < 2; round++ {
		for th := 0; th < powerBudget; th++ {
			at := warmup + 0.895*d + float64(round*powerBudget+th)*0.003*d
			evs = append(evs, faults.Event{At: at, Kind: faults.ThreadStall, Target: th, Until: at + 600e-6})
		}
	}
	modes := []powerMode{
		{name: "static-4", m: 4},
		{name: "static-5", m: 5},
		{name: "static-6", m: 6},
		{name: "static-8", m: 8},
		{name: "elastic-ts-4..8", m: 4, ecfg: powerTuning(4, powerBudget, elastic.ObjectiveThreadSeconds)},
		{name: "elastic-joules-4..8", m: 4, ecfg: powerTuning(4, powerBudget, elastic.ObjectiveJoules), rec: rec},
	}
	results := parMap(o, len(modes), func(i int) powerResult {
		return powerRow(modes[i], procs, evs, d, warmup, o.Seed+uint64(1700+i))
	})

	// The claim's baseline: the smallest static rung with zero measured
	// loss (every rung loses in a degenerate run: fall back to the last).
	base := len(results) - 1
	for i, r := range results {
		if r.static && r.loss == 0 {
			base = i
			break
		}
	}
	for i := range results {
		saving := (results[base].joules - results[i].joules) / results[base].joules * 100
		results[i].row[len(results[i].row)-1] = f1(saving)
	}
	return results, base
}

func runPower(o Options) []*Table {
	rec := obsv.NewRecorder(obsv.DefaultCapacity)
	results, base := powerResults(o, rec)
	rows := make([][]string, len(results))
	tails := make([][]string, len(results))
	for i, r := range results {
		rows[i] = r.row
		tails[i] = r.tails
	}
	main := &Table{
		ID:      "fig-power",
		Title:   "trough-dominated day (3 Mpps, 40 Mpps crowd for 10%) over 4 queues, rmetronome, modelled joules",
		Columns: []string{"mode", "loss_permille", "cpu_pct", "thread_ms", "mean_M", "M_range", "resizes", "joules", "watts", "ctl_W", "saving_pct"},
		Rows:    rows,
		Notes: []string{
			fmt.Sprintf("core-only energy from each run's sleep-state residency (power.DefaultConfig, Xeon Silver 4110 calibration): busy time at CorePower(FMax), short vacations at the shallow-idle floor, released/surplus cores of the common %d-core budget parked deep", powerBudget),
			fmt.Sprintf("saving_pct is relative to %s — the smallest static rung that rides out the peak at zero loss, the paper's Sec. V-C baseline shape; the paper measures ~36%% vs busy polling with RAPL", results[base].name),
			"the joules objective inflates the occupancy target by the modelled relative saving of shedding a member (power.EnergyPressure), so the controller idles a smaller team through the trough than the thread-seconds law and still grows through the loss override when the crowd lands",
			"placement replanning is off in this figure: the load is balanced, so a rebalance buys nothing, and replan churn mid-crowd transiently leaves lone attendants exactly when the storm lands (measured ~1.9 permille on this day) — fig-placement prices replanning on the skewed days it is for",
		},
	}
	return []*Table{main,
		tailsTable("fig-power-tails", "power day — exact latency tails", tails),
		traceTable("fig-power-trace", "joules-objective arm across the power day — flight-recorder decision trace", rec),
	}
}
