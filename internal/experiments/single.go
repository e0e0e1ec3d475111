package experiments

import (
	"fmt"

	"metronome/internal/core"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "tab1",
		Title: "Mean busy/vacation period, N_V and loss vs target vacation",
		Paper: "Table I: V grows with target; N_V tracks Little's law; loss appears near V̄=20us",
		Run:   runTab1,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Latency and CPU vs target vacation period (10/5 Gbps)",
		Paper: "Fig 5: latency grows and CPU falls as V̄ grows",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Busy tries and CPU vs TL",
		Paper: "Fig 6: busy tries fall steeply up to TL=500us, then flatten",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Busy tries and CPU vs M",
		Paper: "Fig 7: busy tries grow ~linearly with M; CPU creeps up",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Latency vs number of threads M (10/1 Gbps)",
		Paper: "Fig 8: more threads -> higher latency, variance blows up at 1Gbps",
		Run:   runFig8,
	})
}

func runTab1(o Options) []*Table {
	d := dur(o, 2.0)
	t := &Table{
		ID:    "tab1",
		Title: "line rate 14.88 Mpps, M=3, TL=500us",
		Columns: []string{
			"target_V_us", "measured_V_us", "measured_B_us", "N_V", "loss_permille",
		},
	}
	vbars := []float64{5e-6, 10e-6, 12e-6, 15e-6, 20e-6}
	t.Rows = parMap(o, len(vbars), func(i int) []string {
		cfg := core.DefaultConfig()
		cfg.VBar = vbars[i]
		_, m := singleQueueCBR(cfg, traffic.Rate64B(10), d, o.Seed+uint64(i))
		return []string{
			f1(vbars[i] * 1e6), us(m.MeanVacation), us(m.MeanBusy),
			f2(m.MeanNV), permille(m.LossRate),
		}
	})
	t.Notes = append(t.Notes,
		"paper row V̄=10: V=19.55us B=20.24us N_V=287.77 loss=0",
		"effective buffering 576 packets: 512-descriptor ring + one FIFO burst (EXPERIMENTS.md)",
	)
	return []*Table{t}
}

func runFig5(o Options) []*Table {
	d := dur(o, 1.0)
	rates := []float64{10, 5}
	vbars := []float64{2e-6, 5e-6, 7e-6, 10e-6}
	// One flat job list across both series: the 10 Gbps and 5 Gbps panels
	// simulate concurrently.
	rows := parMap(o, len(rates)*len(vbars), func(j int) []string {
		gbps, vbar := rates[j/len(vbars)], vbars[j%len(vbars)]
		cfg := core.DefaultConfig()
		cfg.VBar = vbar
		_, m := singleQueueCBR(cfg, traffic.Rate64B(gbps), d, o.Seed+uint64(100+j%len(vbars)))
		return []string{
			f1(vbar * 1e6), us(m.Latency.Mean), us(m.Latency.Q1), us(m.Latency.Q3),
			pct(m.CPUPercent),
		}
	})
	var tables []*Table
	for gi, gbps := range rates {
		tables = append(tables, &Table{
			ID:      "fig5",
			Title:   fmt.Sprintf("latency and CPU vs V̄ at %.0f Gbps", gbps),
			Columns: []string{"target_V_us", "lat_mean_us", "lat_q1_us", "lat_q3_us", "cpu_pct"},
			Rows:    rows[gi*len(vbars) : (gi+1)*len(vbars)],
		})
	}
	return tables
}

func runFig6(o Options) []*Table {
	d := dur(o, 1.0)
	t := &Table{
		ID:      "fig6",
		Title:   "busy tries and CPU vs TL, line rate, M=3, V̄=10us",
		Columns: []string{"TL_us", "busy_tries_pct", "cpu_pct"},
	}
	tls := []float64{100e-6, 300e-6, 500e-6, 700e-6}
	t.Rows = parMap(o, len(tls), func(i int) []string {
		cfg := core.DefaultConfig()
		cfg.TL = tls[i]
		_, m := singleQueueCBR(cfg, traffic.Rate64B(10), d, o.Seed+uint64(200+i))
		return []string{
			f1(tls[i] * 1e6), pct(m.BusyTryFrac * 100), pct(m.CPUPercent),
		}
	})
	t.Notes = append(t.Notes, "paper: most of the gain lands before TL=500us")
	return []*Table{t}
}

func runFig7(o Options) []*Table {
	d := dur(o, 1.0)
	t := &Table{
		ID:      "fig7",
		Title:   "busy tries and CPU vs M, line rate, V̄=10us, TL=500us",
		Columns: []string{"M", "busy_tries_pct", "cpu_pct"},
	}
	ms := []int{2, 3, 4, 5, 6}
	t.Rows = parMap(o, len(ms), func(i int) []string {
		cfg := core.DefaultConfig()
		cfg.M = ms[i]
		_, met := singleQueueCBR(cfg, traffic.Rate64B(10), d, o.Seed+uint64(300+i))
		return []string{
			fmt.Sprintf("%d", ms[i]), pct(met.BusyTryFrac * 100), pct(met.CPUPercent),
		}
	})
	return []*Table{t}
}

func runFig8(o Options) []*Table {
	d := dur(o, 1.0)
	rates := []float64{10, 1}
	ms := []int{2, 3, 4, 5, 6}
	rows := parMap(o, len(rates)*len(ms), func(j int) []string {
		gbps, m := rates[j/len(ms)], ms[j%len(ms)]
		cfg := core.DefaultConfig()
		cfg.M = m
		_, met := singleQueueCBR(cfg, traffic.Rate64B(gbps), d, o.Seed+uint64(400+j%len(ms)))
		return []string{
			fmt.Sprintf("%d", m),
			us(met.Latency.Mean), us(met.Latency.Q1), us(met.Latency.Q3),
			us(met.Latency.Max), us(met.LatencyStd),
		}
	})
	var tables []*Table
	for gi, gbps := range rates {
		tables = append(tables, &Table{
			ID:      "fig8",
			Title:   fmt.Sprintf("latency vs M at %.0f Gbps", gbps),
			Columns: []string{"M", "lat_mean_us", "lat_q1_us", "lat_q3_us", "lat_max_us", "lat_std_us"},
			Rows:    rows[gi*len(ms) : (gi+1)*len(ms)],
		})
	}
	return tables
}
