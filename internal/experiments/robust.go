package experiments

import (
	"fmt"

	"metronome/internal/core"
	"metronome/internal/cpu"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "abl-robust",
		Title: "Robustness: interfered threads vs thread count (the Sec. V-E case for M>1)",
		Paper: "Sec V-E: one Metronome thread on a ferret-loaded core barely matters with M=3; a single-thread deployment collapses",
		Run:   runAblRobust,
	})
}

// CFS treats a duty-cycled sleeper kindly: on wake it carries sleeper
// credit and preempts a CPU hog almost immediately — Metronome's pattern
// is exactly what the scheduler rewards, which is the deep reason Sec. V-E
// works. A thread only starves when its CPU duty exceeds the fair share a
// continuously-runnable competitor concedes (~50% at equal group weight):
// then vruntime debt accumulates and wakeups wait out whole timeslices.

// politeWake is the under-fair-share regime: dispatch costs a preemption
// plus a rare sub-millisecond tail (cgroup placement, cache refill).
func politeWake() cpu.WakeConfig {
	w := cpu.DefaultWakeConfig()
	w.PreemptDelay = 8e-6
	w.TailProb = 2e-5
	w.TailMu = -8.1 // median ~0.3 ms
	w.TailSigma = 0.5
	return w
}

// starvedWake is the over-fair-share regime: the thread burns its sleeper
// credit and repeatedly waits out multi-millisecond CFS slices.
func starvedWake() cpu.WakeConfig {
	w := cpu.DefaultWakeConfig()
	w.PreemptDelay = 60e-6
	w.TailProb = 0.02
	w.TailMu = -6.2 // median ~2 ms
	w.TailSigma = 0.5
	return w
}

// wakeForDuty picks the regime from the thread's expected CPU duty
// (rho/M at the offered load) against the fair share.
func wakeForDuty(duty float64) cpu.WakeConfig {
	if duty > cpu.FairShare(cpu.NiceWeight(0), cpu.NiceWeight(0)) {
		return starvedWake()
	}
	return politeWake()
}

func runAblRobust(o Options) []*Table {
	d := dur(o, 1.0)
	t := &Table{
		ID:    "abl-robust",
		Title: "line rate, ferret hogging the first thread's core",
		Columns: []string{
			"config", "hogged_threads", "loss_permille", "tput_mpps", "mean_V_us",
		},
	}
	cases := []struct {
		name      string
		m, hogged int
		seed      uint64
	}{
		{"M=1_alone", 1, 0, o.Seed + 1400},
		{"M=1_hogged", 1, 1, o.Seed + 1401},
		{"M=3_one_hogged", 3, 1, o.Seed + 1402},
		{"M=3_all_hogged", 3, 3, o.Seed + 1403},
	}
	t.Rows = parMap(o, len(cases), func(ci int) []string {
		c := cases[ci]
		cfg := core.DefaultConfig()
		cfg.M = c.m
		// Expected per-thread duty at line rate: rho spread over the team.
		duty := (traffic.Rate64B(10) / cfg.Mu) / float64(c.m) * 2 // primaries carry ~2x the average
		over := map[int]cpu.WakeConfig{}
		cores := make([]*cpu.Core, c.m)
		for i := range cores {
			cores[i] = cpu.NewCore(i)
		}
		for i := 0; i < c.hogged && i < c.m; i++ {
			over[i] = wakeForDuty(duty)
			cores[i].BusyWith = 1
		}
		cfg.WakeOverrides = over
		cfg.Cores = cores
		_, met := singleQueueCBR(cfg, traffic.Rate64B(10), d, c.seed)
		return []string{
			c.name, fmt.Sprintf("%d", c.hogged), permille(met.LossRate),
			mpps(met.ThroughputPPS), us(met.MeanVacation),
		}
	})
	t.Notes = append(t.Notes,
		"with M=3 the backups absorb the interfered thread's missed wakeups (paper: no loss even with all cores shared)",
	)
	return []*Table{t}
}
