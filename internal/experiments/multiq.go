package experiments

import (
	"fmt"

	"metronome/internal/core"
	"metronome/internal/power"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Multiqueue CPU and power: 2/3/4 queues x performance/ondemand",
		Paper: "Fig 13: Metronome saves CPU everywhere; power gain grows with queue count; ondemand trades CPU for watts",
		Run:   runFig13,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Busy tries and rho vs thread count for 2/3/4 queues",
		Paper: "Fig 14: busy tries grow with threads; rho falls with more queues; ondemand raises rho",
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "CPU and power vs offered rate, 4 queues, M=5",
		Paper: "Fig 15: Metronome saves >50% CPU at 37 Mpps and 2-3 W under performance",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "tab3",
		Title: "Unbalanced traffic across 3 queues (30% single flow + 70% random)",
		Paper: "Table III: hot queue has highest busy-try%% and rho, and fewest total tries",
		Run:   runTab3,
	})
}

// xl710Rate is the XL710's 37 Mpps 64B processing ceiling (spec update
// clarification cited by the paper).
const xl710Rate = 37e6

// multiqueueSpec builds an N-queue even-split CBR deployment.
func multiqueueSpec(o Options, nq, m int, totalPPS, d float64, seedOff uint64) runSpec {
	cfg := core.DefaultConfig()
	cfg.M = m
	cfg.VBar = 15e-6
	procs := make([]traffic.Process, nq)
	for i := range procs {
		procs[i] = traffic.CBR{PPS: totalPPS / float64(nq)}
	}
	return runSpec{
		cfg:    cfg,
		procs:  procs,
		dur:    d,
		warmup: d * 0.2,
		seed:   o.Seed + seedOff,
	}
}

func runFig13(o Options) []*Table {
	d := dur(o, 0.6)
	pc := power.DefaultConfig()
	// Flatten governor x queue-count x thread-count into one job list: each
	// point is an independent governor fixed-point (up to 6 simulations), so
	// this is the sweep that profits most from the worker pool.
	type point struct {
		gov power.Governor
		nq  int
		m   int
	}
	var pts []point
	for _, gov := range []power.Governor{power.Performance, power.Ondemand} {
		for _, nq := range []int{2, 3, 4} {
			for m := nq; m <= 8; m++ {
				pts = append(pts, point{gov, nq, m})
			}
		}
	}
	rows := parMap(o, len(pts), func(i int) []string {
		p := pts[i]
		spec := multiqueueSpec(o, p.nq, p.m, xl710Rate, d, uint64(800+p.nq*10+p.m))
		met, watts, _ := governorPower(pc, p.gov, spec)
		return []string{
			fmt.Sprintf("%d", p.m),
			pct(met.CPUPercent),
			f1(watts),
			pct(100 * float64(p.nq)),
			f1(staticPower(pc, p.gov, p.nq)),
		}
	})
	var tables []*Table
	for i := 0; i < len(pts); {
		p := pts[i]
		t := &Table{
			ID:    fmt.Sprintf("fig13-%dq-%s", p.nq, p.gov),
			Title: fmt.Sprintf("%d queues, %s governor, 37 Mpps", p.nq, p.gov),
			Columns: []string{
				"threads", "cpu_pct", "power_w", "static_cpu_pct", "static_power_w",
			},
		}
		for ; i < len(pts) && pts[i].gov == p.gov && pts[i].nq == p.nq; i++ {
			t.Rows = append(t.Rows, rows[i])
		}
		tables = append(tables, t)
	}
	return tables
}

func runFig14(o Options) []*Table {
	d := dur(o, 0.6)
	pc := power.DefaultConfig()
	type point struct{ nq, m int }
	var pts []point
	for _, nq := range []int{2, 3, 4} {
		for m := nq; m <= 8; m++ {
			pts = append(pts, point{nq, m})
		}
	}
	rows := parMap(o, len(pts), func(i int) []string {
		p := pts[i]
		specP := multiqueueSpec(o, p.nq, p.m, xl710Rate, d, uint64(900+p.nq*10+p.m))
		_, mp := runMetronome(specP)
		// ondemand: rerun at the governor's frequency fixed point.
		specO := multiqueueSpec(o, p.nq, p.m, xl710Rate, d, uint64(900+p.nq*10+p.m))
		mo, _, _ := governorPower(pc, power.Ondemand, specO)
		return []string{
			fmt.Sprintf("%d", p.m),
			pct(mp.BusyTryFrac * 100), f3(meanOf(mp.RhoEst)),
			pct(mo.BusyTryFrac * 100), f3(meanOf(mo.RhoEst)),
		}
	})
	var tables []*Table
	for i := 0; i < len(pts); {
		nq := pts[i].nq
		t := &Table{
			ID:    fmt.Sprintf("fig14-%dq", nq),
			Title: fmt.Sprintf("busy tries and rho, %d queues, 37 Mpps", nq),
			Columns: []string{
				"threads", "busy_tries_pct_perf", "rho_perf", "busy_tries_pct_od", "rho_od",
			},
		}
		for ; i < len(pts) && pts[i].nq == nq; i++ {
			t.Rows = append(t.Rows, rows[i])
		}
		tables = append(tables, t)
	}
	tables[0].Notes = append(tables[0].Notes,
		"ondemand lowers the frequency, stretching busy periods: rho and busy tries rise (Sec. V-F.2)",
	)
	return tables
}

func runFig15(o Options) []*Table {
	d := dur(o, 0.6)
	pc := power.DefaultConfig()
	t := &Table{
		ID:    "fig15",
		Title: "4 queues, M=5, V̄=15us, performance governor",
		Columns: []string{
			"rate_mpps", "met_cpu_pct", "met_power_w", "static_cpu_pct", "static_power_w", "loss_permille",
		},
	}
	ratesPPS := []float64{37e6, 30e6, 20e6, 15e6, 10e6, 0}
	t.Rows = parMap(o, len(ratesPPS), func(i int) []string {
		spec := multiqueueSpec(o, 4, 5, ratesPPS[i], d, uint64(1000+i))
		met, watts, _ := governorPower(pc, power.Performance, spec)
		return []string{
			mpps(ratesPPS[i]), pct(met.CPUPercent), f1(watts),
			"400.0", f1(staticPower(pc, power.Performance, 4)),
			permille(met.LossRate),
		}
	})
	return []*Table{t}
}

func runTab3(o Options) []*Table {
	d := dur(o, 5.0) // the paper ran 3 minutes; shapes stabilise much sooner
	shares := traffic.UnbalancedShares(0.30, 3)
	cfg := core.DefaultConfig()
	cfg.M = 5
	cfg.VBar = 15e-6

	procs := make([]traffic.Process, 3)
	for i, s := range shares {
		procs[i] = traffic.CBR{PPS: xl710Rate * s}
	}
	spec := runSpec{cfg: cfg, procs: procs, dur: d, warmup: d * 0.1, seed: o.Seed + 1100}
	rt, _ := runMetronome(spec)
	t := &Table{
		ID:      "tab3",
		Title:   "unbalanced traffic, 3 queues, line rate",
		Columns: []string{"queue", "share_pct", "busy_tries_pct", "total_tries", "rho"},
	}
	for i := range procs {
		busyPct := 0.0
		if rt.TriesQ[i] > 0 {
			busyPct = float64(rt.BusyTriesQ[i]) / float64(rt.TriesQ[i]) * 100
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("#%d", i+1),
			pct(shares[i] * 100),
			pct(busyPct),
			fmt.Sprintf("%d", rt.TriesQ[i]),
			f3(rt.Rho(i)),
		})
	}
	t.Notes = append(t.Notes,
		"the hot queue (53% of traffic) completes fewest cycles and carries the highest rho, as in Table III",
	)
	return []*Table{t}
}
