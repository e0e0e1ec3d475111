package experiments

import (
	"fmt"

	"metronome/internal/core"
	"metronome/internal/model"
	"metronome/internal/sched"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "abl-poisson",
		Title: "Ablation: CBR vs Poisson arrivals at the same mean rate",
		Paper: "The Sec. IV analysis is arrival-process-agnostic (renewal arguments); check the dynamics are too",
		Run:   runAblPoisson,
	})
	register(Experiment{
		ID:    "abl-blend",
		Title: "Model check: measured E[V] vs the eq (10) blend across the load range",
		Paper: "Sec. IV-C derives E[V] for intermediate loads assuming binomial primary counts",
		Run:   runAblBlend,
	})
}

func runAblPoisson(o Options) []*Table {
	d := dur(o, 1.0)
	t := &Table{
		ID:    "abl-poisson",
		Title: "line-rate-and-below comparison, M=3, V̄=10us",
		Columns: []string{
			"rate_mpps", "process", "mean_V_us", "lat_mean_us", "cpu_pct", "loss_permille",
		},
	}
	ppss := []float64{14.88e6, 7.44e6, 1.488e6}
	names := []string{"cbr", "poisson"}
	t.Rows = parMap(o, len(ppss)*len(names), func(k int) []string {
		i, j := k/len(names), k%len(names)
		pps := ppss[i]
		var p traffic.Process = traffic.CBR{PPS: pps}
		if j == 1 {
			p = traffic.Poisson{Lambda: pps}
		}
		cfg := core.DefaultConfig()
		_, m := runMetronome(runSpec{
			cfg:    cfg,
			procs:  []traffic.Process{p},
			dur:    d,
			warmup: d * 0.2,
			seed:   o.Seed + uint64(1500+10*i+j),
		})
		return []string{
			mpps(pps), names[j], us(m.MeanVacation), us(m.Latency.Mean),
			pct(m.CPUPercent), permille(m.LossRate),
		}
	})
	t.Notes = append(t.Notes,
		"Poisson burstiness adds modest latency variance but the CPU and V shapes are process-agnostic",
	)
	return []*Table{t}
}

func runAblBlend(o Options) []*Table {
	d := dur(o, 1.0)
	t := &Table{
		ID:    "abl-blend",
		Title: "measured vs modelled mean vacation, fixed TS=20us TL=500us, M=3",
		Columns: []string{
			"rate_mpps", "rho_est", "measured_V_us", "eq10_V_us", "ratio",
		},
	}
	const (
		tsReq = 20e-6
		m     = 3
	)
	tsEff := tsReq*1.0566 + 2.79e-6
	ppss := []float64{14.88e6, 11e6, 7.44e6, 3.7e6, 1.5e6, 0.3e6}
	t.Rows = parMap(o, len(ppss), func(i int) []string {
		pps := ppss[i]
		cfg := core.DefaultConfig()
		cfg.M = m
		cfg.Policy = sched.NameFixed
		cfg.VBar = tsReq
		rt, met := runMetronome(runSpec{
			cfg:    cfg,
			procs:  []traffic.Process{traffic.CBR{PPS: pps}},
			dur:    d,
			warmup: d * 0.2,
			seed:   o.Seed + uint64(1600+i),
		})
		rho := rt.Rho(0)
		pred := model.EVGeneralApprox(tsEff, m, model.PrimaryProb(rho))
		ratio := met.MeanVacation / pred
		return []string{
			mpps(pps), f3(rho), us(met.MeanVacation), us(pred), fmt.Sprintf("%.2f", ratio),
		}
	})
	t.Notes = append(t.Notes,
		"eq (10) assumes every non-owner is independently primary with p=1-rho;",
		"the dynamics keep more threads in backup at mid load, so measured V runs above the blend there —",
		"the same bias that makes Table I's measured V ~2x its target at line rate (in the paper and here)",
	)
	return []*Table{t}
}
