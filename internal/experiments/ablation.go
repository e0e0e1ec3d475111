package experiments

import (
	"fmt"

	"metronome/internal/core"
	"metronome/internal/hrtimer"
	"metronome/internal/nic"
	"metronome/internal/sched"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "abl-timeouts",
		Title: "Ablation: equal timeouts (TS=TL) vs primary/backup split",
		Paper: "Motivates Sec. IV-A: equal timeouts waste wakeups as load grows",
		Run:   runAblTimeouts,
	})
	register(Experiment{
		ID:    "abl-adaptive",
		Title: "Ablation: adaptive TS (eq 13) vs fixed TS under changing load",
		Paper: "The adaptation is what holds E[V] at the target across loads",
		Run:   runAblAdaptive,
	})
	register(Experiment{
		ID:    "abl-backup",
		Title: "Ablation: random vs sticky backup queue selection (multiqueue)",
		Paper: "Sec. IV-E argues random re-targeting decorrelates and spreads checks",
		Run:   runAblBackup,
	})
	register(Experiment{
		ID:    "abl-policy",
		Title: "Ablation: scheduling disciplines (adaptive vs fixed vs busypoll)",
		Paper: "Fig 10's three systems recast as sched policies in the one engine",
		Run:   runAblPolicy,
	})
	register(Experiment{
		ID:    "abl-uniformvac",
		Title: "Ablation: uniform-vacation (load-blind eq. 6 inversion) vs adaptive TS",
		Paper: "Isolates what the eq. (11) load estimator buys on top of the closed-form timeout rule: uniformvac pins TS by inverting the high-load eq. (6) once and never consults rho, so it matches adaptive near saturation but over-polls as load falls (the vacation collapses below target and CPU rises for nothing)",
		Run:   runAblUniformVac,
	})
	register(Experiment{
		ID:    "abl-txbatch",
		Title: "Ablation: Tx batch 32 vs 1 at low rate (latency tail fix of Sec. V-C)",
		Paper: "Batch=1 removes the Tx-buffer hold, cutting mean and variance at low rates",
		Run:   runAblTxBatch,
	})
	register(Experiment{
		ID:    "abl-sleep",
		Title: "Ablation: hr_sleep vs nanosleep as the runtime's sleep service",
		Paper: "Sec. III-A: hr_sleep buys a small, consistent edge",
		Run:   runAblSleep,
	})
}

func runAblTimeouts(o Options) []*Table {
	d := dur(o, 1.0)
	t := &Table{
		ID:      "abl-timeouts",
		Title:   "line rate, M=3",
		Columns: []string{"policy", "busy_tries_pct", "cpu_pct", "loss_permille"},
	}
	t.Rows = parMap(o, 2, func(i int) []string {
		if i == 0 {
			eq := core.DefaultConfig()
			eq.Policy = sched.NameFixed
			eq.TL = 10e-6
			_, meq := singleQueueCBR(eq, traffic.Rate64B(10), d, o.Seed+1300)
			return []string{"equal_TS=TL=10us", pct(meq.BusyTryFrac * 100), pct(meq.CPUPercent), permille(meq.LossRate)}
		}
		_, msp := singleQueueCBR(core.DefaultConfig(), traffic.Rate64B(10), d, o.Seed+1301)
		return []string{"split_TS/TL=500us", pct(msp.BusyTryFrac * 100), pct(msp.CPUPercent), permille(msp.LossRate)}
	})
	return []*Table{t}
}

func runAblAdaptive(o Options) []*Table {
	d := dur(o, 1.0)
	t := &Table{
		ID:      "abl-adaptive",
		Title:   "mean vacation across loads, target V̄=10us",
		Columns: []string{"rate_gbps", "adaptive_V_us", "fixed_TS10_V_us"},
	}
	gbpss := []float64{10, 5, 1, 0.5}
	t.Rows = parMap(o, len(gbpss), func(i int) []string {
		gbps := gbpss[i]
		_, ma := singleQueueCBR(core.DefaultConfig(), traffic.Rate64B(gbps), d, o.Seed+uint64(1310+i))
		fx := core.DefaultConfig()
		fx.Policy = sched.NameFixed
		_, mf := singleQueueCBR(fx, traffic.Rate64B(gbps), d, o.Seed+uint64(1320+i))
		return []string{f1(gbps), us(ma.MeanVacation), us(mf.MeanVacation)}
	})
	t.Notes = append(t.Notes,
		"fixed TS over-polls at low load (V collapses toward TS/M) where adaptive holds the target",
	)
	return []*Table{t}
}

func runAblBackup(o Options) []*Table {
	d := dur(o, 1.0)
	t := &Table{
		ID:      "abl-backup",
		Title:   "3 queues, unbalanced traffic, M=5",
		Columns: []string{"policy", "busy_tries_pct", "cpu_pct", "loss_permille", "max_queue_rho"},
	}
	shares := traffic.UnbalancedShares(0.30, 3)
	build := func(sticky bool, seed uint64) (string, []string) {
		cfg := core.DefaultConfig()
		cfg.M = 5
		cfg.VBar = 15e-6
		cfg.BackupSticky = sticky
		procs := make([]traffic.Process, 3)
		for i, s := range shares {
			procs[i] = traffic.CBR{PPS: xl710Rate * s}
		}
		rt, m := runMetronome(runSpec{cfg: cfg, procs: procs, dur: d, warmup: d * 0.2, seed: seed})
		maxRho := 0.0
		for q := range procs {
			if rt.Rho(q) > maxRho {
				maxRho = rt.Rho(q)
			}
		}
		name := "random"
		if sticky {
			name = "sticky"
		}
		return name, []string{name, pct(m.BusyTryFrac * 100), pct(m.CPUPercent), permille(m.LossRate), f3(maxRho)}
	}
	t.Rows = parMap(o, 2, func(i int) []string {
		_, row := build(i == 1, o.Seed+uint64(1330+i))
		return row
	})
	return []*Table{t}
}

func runAblPolicy(o Options) []*Table {
	d := dur(o, 0.5)
	var tables []*Table
	gbpss := []float64{10, 1}
	policies := []string{sched.NameAdaptive, sched.NameFixed, sched.NameBusyPoll}
	rows := parMap(o, len(gbpss)*len(policies), func(j int) []string {
		gi, pi := j/len(policies), j%len(policies)
		cfg := core.DefaultConfig()
		cfg.Policy = policies[pi] // the fixed discipline pins TS at the V̄ target
		_, m := singleQueueCBR(cfg, traffic.Rate64B(gbpss[gi]), d,
			o.Seed+uint64(1400+10*gi+pi))
		return []string{
			policies[pi], pct(m.CPUPercent), us(m.Latency.Mean),
			us(m.MeanVacation), permille(m.LossRate),
		}
	})
	for gi, gbps := range gbpss {
		t := &Table{
			ID:      "abl-policy",
			Title:   fmt.Sprintf("disciplines at %.0f Gbps, M=3, V̄=10us", gbps),
			Columns: []string{"policy", "cpu_pct", "lat_mean_us", "measured_V_us", "loss_permille"},
			Rows:    rows[gi*len(policies) : (gi+1)*len(policies)],
		}
		t.Notes = append(t.Notes,
			"busypoll is Listing 1 inside the shared engine: ~100% CPU per thread, vacation ~ the wake overhead",
		)
		tables = append(tables, t)
	}
	return tables
}

func runAblUniformVac(o Options) []*Table {
	d := dur(o, 1.0)
	t := &Table{
		ID:      "abl-uniformvac",
		Title:   "mean vacation and CPU across loads, target V̄=10us, M=3",
		Columns: []string{"rate_gbps", "adaptive_V_us", "uniformvac_V_us", "adaptive_cpu_pct", "uniformvac_cpu_pct"},
	}
	gbpss := []float64{10, 5, 1, 0.5}
	t.Rows = parMap(o, len(gbpss), func(i int) []string {
		gbps := gbpss[i]
		_, ma := singleQueueCBR(core.DefaultConfig(), traffic.Rate64B(gbps), d, o.Seed+uint64(1360+i))
		uv := core.DefaultConfig()
		uv.Policy = sched.NameUniformVac
		_, mu := singleQueueCBR(uv, traffic.Rate64B(gbps), d, o.Seed+uint64(1370+i))
		return []string{f1(gbps), us(ma.MeanVacation), us(mu.MeanVacation),
			pct(ma.CPUPercent), pct(mu.CPUPercent)}
	})
	t.Notes = append(t.Notes,
		"uniformvac sleeps the high-load eq. (6) inversion at every load: near line rate it shadows adaptive, at light load its vacation collapses toward TS/(M+1) while adaptive stretches TS to hold the target",
	)
	return []*Table{t}
}

func runAblTxBatch(o Options) []*Table {
	d := dur(o, 1.0)
	t := &Table{
		ID:      "abl-txbatch",
		Title:   "1 Gbps, V̄=10us",
		Columns: []string{"tx_batch", "lat_mean_us", "lat_std_us", "lat_max_us", "cpu_pct"},
	}
	batches := []int{32, 1}
	t.Rows = parMap(o, len(batches), func(i int) []string {
		batch := batches[i]
		cfg := core.DefaultConfig()
		// batch=1 costs a few percent CPU at the NIC (Sec. V-C reports
		// 2-3% at line rate); charge it through a slightly lower mu.
		if batch == 1 {
			cfg.Mu *= 0.97
		}
		_, m := runMetronome(runSpec{
			cfg:   cfg,
			optFn: func(opt nic.Options) nic.Options { opt.TxBatch = batch; return opt },
			procs: []traffic.Process{traffic.CBR{PPS: traffic.Rate64B(1)}},
			dur:   d, warmup: d * 0.2,
			seed: o.Seed + uint64(1340+batch),
		})
		return []string{
			fmt.Sprintf("%d", batch), us(m.Latency.Mean), us(m.LatencyStd), us(m.Latency.Max), pct(m.CPUPercent),
		}
	})
	return []*Table{t}
}

func runAblSleep(o Options) []*Table {
	d := dur(o, 1.0)
	t := &Table{
		ID:      "abl-sleep",
		Title:   "line rate, M=3, V̄=10us",
		Columns: []string{"service", "measured_V_us", "lat_mean_us", "cpu_pct"},
	}
	services := []hrtimer.Service{hrtimer.HRSleep, hrtimer.Nanosleep, hrtimer.HRSleepPatched}
	t.Rows = parMap(o, len(services), func(i int) []string {
		cfg := core.DefaultConfig()
		cfg.Sleep = services[i]
		_, m := singleQueueCBR(cfg, traffic.Rate64B(10), d, o.Seed+uint64(1350+i))
		return []string{services[i].String(), us(m.MeanVacation), us(m.Latency.Mean), pct(m.CPUPercent)}
	})
	return []*Table{t}
}
