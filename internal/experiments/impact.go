package experiments

import (
	"metronome/internal/baseline"
	"metronome/internal/core"
	"metronome/internal/cpu"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "tab2",
		Title: "Throughput alone and with ferret sharing the cores",
		Paper: "Table II: static 14.88 -> 7.34 Mpps when shared; Metronome holds 14.88",
		Run:   runTab2,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "ferret execution time alone vs co-scheduled",
		Paper: "Fig 12: ~3x ferret slowdown next to a static poller, ~10% next to Metronome",
		Run:   runFig12,
	})
}

// ferretWork is the calibrated single-core execution time of the PARSEC
// ferret run (core-seconds).
const ferretWork = 240.0

// ferretSharePenalty inflates co-scheduled work: context switches plus
// cache/TLB pollution from alternating with a packet-processing loop.
const (
	staticSharePenalty    = 1.45
	metronomeSharePenalty = 1.05
)

func runTab2(o Options) []*Table {
	d := dur(o, 1.0)
	pps := traffic.Rate64B(10)

	// Static DPDK: alone it holds the line; sharing its single core with
	// ferret under group-fair scheduling it gets ~50% of the timeline.
	stAlone := baseline.Static(baseline.DefaultStatic(), pps)
	shared := baseline.DefaultStatic()
	shared.CPUShare = cpu.FairShare(cpu.NiceWeight(0), cpu.NiceWeight(0))
	stShared := baseline.Static(shared, pps)

	// Metronome alone.
	cfgAlone := core.DefaultConfig()
	_, metAlone := singleQueueCBR(cfgAlone, pps, d, o.Seed+700)

	// Metronome with ferret on all three cores: its nice -20 wake-ups
	// preempt ferret promptly, so it keeps its service rate and only the
	// wake path pays the contended-core preemption cost.
	cfgShared := core.DefaultConfig()
	cores := make([]*cpu.Core, cfgShared.M)
	for i := range cores {
		cores[i] = cpu.NewCore(i)
		cores[i].BusyWith = 1
	}
	cfgShared.Cores = cores
	_, metShared := singleQueueCBR(cfgShared, pps, d, o.Seed+701)

	t := &Table{
		ID:      "tab2",
		Title:   "throughput (Mpps), offered 14.88",
		Columns: []string{"system", "alone", "with_ferret", "loss_with_ferret_pct"},
	}
	t.Rows = append(t.Rows, []string{
		"static_dpdk", mpps(stAlone.ThroughputPPS), mpps(stShared.ThroughputPPS),
		pct(stShared.LossRate * 100),
	})
	t.Rows = append(t.Rows, []string{
		"metronome", mpps(metAlone.ThroughputPPS), mpps(metShared.ThroughputPPS),
		pct(metShared.LossRate * 100),
	})
	return []*Table{t}
}

func runFig12(o Options) []*Table {
	d := dur(o, 1.0)
	ferret := cpu.Job{Name: "ferret", Work: ferretWork, Nice: 19}

	// Scenario A: one core, alone vs with a static poller (equal group
	// weights under the kernel's fair scheduler).
	alone1 := ferret.Duration([]float64{1}, 1)
	withStatic := ferret.Duration(
		[]float64{cpu.FairShare(cpu.NiceWeight(0), cpu.NiceWeight(0))},
		staticSharePenalty,
	)

	// Scenario B: three cores, alone vs with Metronome. Metronome's
	// high-priority threads take their measured utilisation off the top of
	// each core; ferret gets the rest.
	cfg := core.DefaultConfig()
	cores := make([]*cpu.Core, cfg.M)
	for i := range cores {
		cores[i] = cpu.NewCore(i)
		cores[i].BusyWith = 1
	}
	cfg.Cores = cores
	rt, _ := singleQueueCBR(cfg, traffic.Rate64B(10), d, o.Seed+702)
	shares := make([]float64, cfg.M)
	for i, u := range perThreadUtil(rt, d) {
		shares[i] = 1 - u
	}
	alone3 := ferret.Duration([]float64{1, 1, 1}, 1)
	withMet := ferret.Duration(shares, metronomeSharePenalty)

	t := &Table{
		ID:      "fig12",
		Title:   "ferret execution time (s)",
		Columns: []string{"scenario", "cores", "alone_s", "shared_s", "slowdown"},
	}
	t.Rows = append(t.Rows, []string{
		"with_static_dpdk", "1", f1(alone1), f1(withStatic), f2(withStatic / alone1),
	})
	t.Rows = append(t.Rows, []string{
		"with_metronome", "3", f1(alone3), f1(withMet), f2(withMet / alone3),
	})
	t.Notes = append(t.Notes,
		"ferret modelled as 240 core-seconds of nice-19 work (PARSEC image search)",
	)
	return []*Table{t}
}
