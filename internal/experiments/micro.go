package experiments

import (
	"fmt"

	"metronome/internal/core"
	"metronome/internal/hrtimer"
	"metronome/internal/model"
	"metronome/internal/nic"
	"metronome/internal/sched"
	"metronome/internal/sim"
	"metronome/internal/stats"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "hr_sleep vs nanosleep wake-up latency boxplots (1/10/100 us)",
		Paper: "Fig 1: hr_sleep slightly lower mean and variance at every granularity",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Vacation period PDF: simulation vs analytical model, TS=TL=50us",
		Paper: "Fig 4: measured PDF matches eq (9) for M=2/3/5 (decorrelation holds)",
		Run:   runFig4,
	})
}

func runFig1(o Options) []*Table {
	samples := 200000
	if o.Quick {
		samples = 20000
	}
	t := &Table{
		ID:      "fig1",
		Title:   "sleep service wake-up latency (us)",
		Columns: []string{"service", "request_us", "min", "q1", "median", "q3", "max", "mean", "std"},
	}
	rng := xrand.New(o.Seed + 1)
	for _, req := range []float64{1e-6, 10e-6, 100e-6} {
		for _, svc := range []hrtimer.Service{hrtimer.HRSleep, hrtimer.Nanosleep} {
			m := hrtimer.NewModel(svc, rng.Split())
			var s stats.Sample
			for i := 0; i < samples; i++ {
				s.Add(m.Actual(req) * 1e6)
			}
			b := s.Box()
			t.Rows = append(t.Rows, []string{
				svc.String(), f1(req * 1e6),
				f3(b.Min), f3(b.Q1), f3(b.Median), f3(b.Q3), f3(b.Max),
				f3(b.Mean), f3(s.Std()),
			})
		}
	}
	t.Notes = append(t.Notes,
		"nanosleep configured with the minimal 1us timer slack, as in the paper",
	)
	return []*Table{t}
}

func runFig4(o Options) []*Table {
	const tsReq = 50e-6
	tsEff := tsReq*1.0566 + 2.79e-6 // request plus hr_sleep overhead
	runs, runDur := 16, 0.5
	if o.Quick {
		runs, runDur = 4, 0.25
	}
	t := &Table{
		ID:    "fig4",
		Title: "vacation period density vs eq (9), TS=TL=50us",
		Columns: []string{
			"M", "samples", "mean_us", "model_mean_us", "KS_distance", "beyond_TL_frac",
		},
	}
	for _, m := range []int{2, 3, 5} {
		hist := stats.NewHistogram(0, 1.3*tsEff, 65)
		var acc stats.Welford
		beyond := 0
		total := 0
		for run := 0; run < runs; run++ {
			cfg := core.DefaultConfig()
			cfg.M = m
			cfg.Policy = sched.NameFixed
			cfg.VBar = tsReq
			cfg.TL = tsReq
			// A touch of background-host noise so the rare > TL wake-ups
			// of the paper's Fig 4 are represented.
			cfg.Wake.TailProb = 2e-5
			cfg.Seed = o.Seed + uint64(m*1000+run)
			cfg.OnCycle = func(q int, v, b float64) {
				hist.Add(v)
				acc.Add(v)
				total++
				if v > tsEff*1.05 {
					beyond++
				}
			}
			eng := sim.New()
			q := nic.NewQueue(0, traffic.CBR{PPS: 0}, xrand.New(cfg.Seed), nic.DefaultOptions())
			rt := core.New(eng, []*nic.Queue{q}, cfg)
			rt.Start()
			eng.RunUntil(runDur)
		}
		ks := hist.KSDistance(func(x float64) float64 {
			return model.CDFVHighLoad(x, tsEff, tsEff, m)
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%d", total),
			us(acc.Mean()),
			us(model.EVHighLoad(tsEff, tsEff, m)),
			f3(ks),
			fmt.Sprintf("%.5f", float64(beyond)/float64(total)),
		})
	}
	t.Notes = append(t.Notes,
		"KS distance is simulation-vs-eq(5); the paper overlays the same curves visually",
		"beyond-TL fraction shrinks with M, the paper's robustness argument",
	)
	return []*Table{t}
}
