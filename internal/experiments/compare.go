package experiments

import (
	"fmt"

	"metronome/internal/baseline"
	"metronome/internal/core"
	"metronome/internal/power"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "l3fwd: latency boxplots and CPU — static DPDK vs Metronome vs XDP",
		Paper: "Fig 10: DPDK ~7us tight; Metronome ~2x latency but 40%+ CPU savings; XDP most CPU, worst at line rate",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Power vs CPU for ondemand/performance governors",
		Paper: "Fig 11: Metronome beats static under both governors except 10G/performance; max gain ~27% at idle/ondemand",
		Run:   runFig11,
	})
}

// xdpCores reproduces the paper's deployment note: 4 cores at 10/5 Gbps, 1
// core at 1/0.5 Gbps (the minimum not to lose packets on their X520).
func xdpCores(gbps float64) int {
	if gbps >= 5 {
		return 4
	}
	return 1
}

func runFig10(o Options) []*Table {
	d := dur(o, 1.0)
	lat := &Table{
		ID:    "fig10a",
		Title: "latency boxplots (us)",
		Columns: []string{
			"rate_gbps", "system", "min", "q1", "median", "q3", "max", "mean",
		},
	}
	cpu := &Table{
		ID:      "fig10b",
		Title:   "total CPU usage (%)",
		Columns: []string{"rate_gbps", "static", "metronome", "xdp", "xdp_cores"},
	}
	gbpss := []float64{10, 5, 1, 0.5}
	type fig10Row struct {
		lat [3][]string
		cpu []string
	}
	rows := parMap(o, len(gbpss), func(i int) fig10Row {
		gbps := gbpss[i]
		pps := traffic.Rate64B(gbps)
		cfg := core.DefaultConfig()
		_, met := singleQueueCBR(cfg, pps, d, o.Seed+uint64(500+i))
		st := baseline.Static(baseline.DefaultStatic(), pps)
		xd := baseline.XDP(baseline.DefaultXDP(), pps, xdpCores(gbps))

		box := func(name string, b [6]float64) []string {
			return []string{
				f1(gbps), name, us(b[0]), us(b[1]), us(b[2]), us(b[3]), us(b[4]), us(b[5]),
			}
		}
		return fig10Row{
			lat: [3][]string{
				box("static", [6]float64{st.Latency.Min, st.Latency.Q1, st.Latency.Median, st.Latency.Q3, st.Latency.Max, st.Latency.Mean}),
				box("metronome", [6]float64{met.Latency.Min, met.Latency.Q1, met.Latency.Median, met.Latency.Q3, met.Latency.Max, met.Latency.Mean}),
				box("xdp", [6]float64{xd.Latency.Min, xd.Latency.Q1, xd.Latency.Median, xd.Latency.Q3, xd.Latency.Max, xd.Latency.Mean}),
			},
			cpu: []string{
				f1(gbps), pct(st.CPUPercent), pct(met.CPUPercent), pct(xd.CPUPercent),
				fmt.Sprintf("%d", xd.CoresUsed),
			},
		}
	})
	for _, r := range rows {
		lat.Rows = append(lat.Rows, r.lat[0], r.lat[1], r.lat[2])
		cpu.Rows = append(cpu.Rows, r.cpu)
	}
	cpu.Notes = append(cpu.Notes,
		"paper: Metronome ~60% at line rate, ~18.6% at 0.5Gbps; static pinned at 100%",
	)
	return []*Table{lat, cpu}
}

func runFig11(o Options) []*Table {
	d := dur(o, 1.0)
	pc := power.DefaultConfig()
	govs := []power.Governor{power.Ondemand, power.Performance}
	gbpss := []float64{10, 1, 0}
	rows := parMap(o, len(govs)*len(gbpss), func(j int) [2][]string {
		gov, gbps, i := govs[j/len(gbpss)], gbpss[j%len(gbpss)], j%len(gbpss)
		pps := traffic.Rate64B(gbps)
		cfg := core.DefaultConfig()
		spec := runSpec{
			cfg:    cfg,
			procs:  []traffic.Process{traffic.CBR{PPS: pps}},
			dur:    d,
			warmup: d * 0.2,
			seed:   o.Seed + uint64(600+i),
		}
		met, watts, freq := governorPower(pc, gov, spec)
		// CPU accounting convention matches the paper: under ondemand
		// the same work takes more of a slower core.
		return [2][]string{
			{f1(gbps), "metronome", pct(met.CPUPercent), f1(watts), f2(freq)},
			{f1(gbps), "static", "100.0", f1(staticPower(pc, gov, 1)), f2(pc.SteadyFreq(gov, 1))},
		}
	})
	var tables []*Table
	for gi, gov := range govs {
		t := &Table{
			ID:    "fig11-" + gov.String(),
			Title: fmt.Sprintf("power vs CPU, %s governor", gov),
			Columns: []string{
				"rate_gbps", "system", "cpu_pct", "power_w", "freq_ghz",
			},
		}
		for _, pair := range rows[gi*len(gbpss) : (gi+1)*len(gbpss)] {
			t.Rows = append(t.Rows, pair[0], pair[1])
		}
		tables = append(tables, t)
	}
	tables[len(tables)-1].Notes = append(tables[len(tables)-1].Notes,
		"a fully-busy poller pins its core at FMax under either governor",
	)
	return tables
}
