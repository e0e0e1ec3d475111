package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	goruntime "runtime"
	"time"

	"metronome/internal/core"
	"metronome/internal/nic"
	"metronome/internal/sim"
	"metronome/internal/stats"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// sim_linerate composes the discrete-event twin exactly as the facade's
// metronome.Simulate does (engine, one nic.Queue per arrival process off a
// split root RNG, core.New, Start, RunUntil, Snapshot). It is spelled out
// here only because Simulate hides the two things the per-layer metrics
// need: the engine's fired-event count and the queues' LatSink.
const (
	simQueues = 2
	simLambda = 7e6 // Poisson packets/s per queue: 14 Mpps, ~10 GbE line rate of 64 B frames
	simChunk  = 2.0 // virtual seconds per simulation; a run repeats chunks until its wall time is up
	simSetups = 201 // constructing the twin takes ~10 us, so many repeats for a steady median
)

//go:embed golden/sim_linerate.seed1.json
var simGoldenJSON []byte

// simOutputs are one chunk's deterministic outputs: a pure function of the
// seed, compared exactly between chunks and, for seed 1, with the golden
// file.
type simOutputs struct {
	CPUPct     float64 `json:"core.cpu_pct"`
	LossPPM    float64 `json:"core.loss_ppm"`
	LatMeanUs  float64 `json:"core.lat_mean_us"`
	BusyTryPct float64 `json:"core.busy_try_pct"`
	Drops      int64   `json:"nic.drops"`
	Cycles     int64   `json:"core.cycles"`
	Rx         int64   `json:"core.rx_packets"`
	Served     int64   `json:"core.served"`
	Events     uint64  `json:"sim.events"`
	LatP50Ns   float64 `json:"core.lat_p50_ns"`
	LatP95Ns   float64 `json:"core.lat_p95_ns"`
}

// simWorld is one constructed, not yet started, simulation.
type simWorld struct {
	eng *sim.Engine
	rt  *core.Runtime
	lat stats.LogHistogram // every tagged packet's latency, via nic.Queue.LatSink
}

func setupSim(wl *workload, seed uint64) *simWorld {
	w := &simWorld{eng: sim.New()}
	cfg := core.DefaultConfig()
	cfg.Policy = wl.policy
	cfg.M = wl.m
	cfg.Seed = seed
	root := xrand.New(seed)
	// 4096 descriptors, the paper's multiqueue ring (as fig13-15-rmetronome
	// runs it): the default 576-slot ring clips ~40 ppm here, and a workload
	// on which operations fail makes a poor baseline.
	opt := nic.DefaultOptions()
	opt.Cap = 4096
	queues := make([]*nic.Queue, simQueues)
	for i := range queues {
		queues[i] = nic.NewQueue(i, traffic.Poisson{Lambda: simLambda}, root.Split(), opt)
		queues[i].LatSink = func(s float64) { w.lat.Record(stats.SecondsToNs(s)) }
	}
	w.rt = core.New(w.eng, queues, cfg)
	return w
}

// run simulates simChunk virtual seconds and returns the outputs and the
// wall time, process CPU time and heap allocations of the event loop alone.
func (w *simWorld) run() (simOutputs, time.Duration, time.Duration, uint64) {
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	cpu0, t0 := processCPU(), time.Now()
	w.rt.Start()
	w.eng.RunUntil(simChunk)
	wall, cpu := time.Since(t0), processCPU()-cpu0
	goruntime.ReadMemStats(&ms1)
	m := w.rt.Snapshot(simChunk)
	return simOutputs{
		CPUPct:     m.CPUPercent,
		LossPPM:    m.LossRate * 1e6,
		LatMeanUs:  m.Latency.Mean * 1e6,
		BusyTryPct: m.BusyTryFrac * 100,
		Drops:      m.Drops,
		Cycles:     m.Cycles,
		Rx:         m.RxPackets,
		Served:     m.Served,
		Events:     w.eng.Fired(),
		LatP50Ns:   quantileNs(&w.lat, 0.50),
		LatP95Ns:   quantileNs(&w.lat, 0.95),
	}, wall, cpu, ms1.Mallocs - ms0.Mallocs
}

// runSim repeats the same seeded simulation until `seconds` of wall time
// are spent and reports medians over the repeats. The end-to-end names
// keep their meaning where they can: delivered_mpps and cpu_ns_per_pkt are
// measured (simulated packets per wall second, process CPU per simulated
// packet, each the median over the repeats); lat_p50/p95_us and retrieval_cpu_pct are the twin's own
// predictions in virtual time — outputs, not timings, which is why they
// are also checked exactly.
func runSim(wl *workload, o options, traced bool) runOut {
	var checks checkList
	var setupS []float64
	var w *simWorld
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		w = setupSim(wl, o.seed)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if !o.quick() { // one unmeasured pass warms caches and the heap
		w.run()
		w = setupSim(wl, o.seed)
	}

	var first simOutputs
	var cyclesPS, eventsPS, mpps, nsPerPkt []float64
	var cycles, mallocs uint64
	var cpu time.Duration
	same := true
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < o.seconds; n++ {
		if n > 0 {
			w = setupSim(wl, o.seed)
		}
		got, wall, chunkCPU, allocs := w.run()
		if n == 0 {
			first = got
		}
		same = same && got == first
		s := wall.Seconds()
		cyclesPS = append(cyclesPS, float64(got.Cycles)/s)
		eventsPS = append(eventsPS, float64(got.Events)/s)
		mpps = append(mpps, float64(got.Served)/s/1e6)
		nsPerPkt = append(nsPerPkt, float64(chunkCPU)/float64(got.Served))
		cpu += chunkCPU
		cycles += uint64(got.Cycles)
		mallocs += allocs
	}

	m := metrics{
		"setup_s":           median(setupS),
		"lat_p50_us":        us(first.LatP50Ns),
		"lat_p95_us":        us(first.LatP95Ns),
		"retrieval_cpu_pct": first.CPUPct,
		"delivered_mpps":    median(mpps),
		"sim_cycles_per_s":  median(cyclesPS),
		"loss_pct":          first.LossPPM / 1e4,

		"sim.events_per_s":     median(eventsPS),
		"sim.allocs_per_cycle": ratio(float64(mallocs), float64(cycles)),
		"core.cpu_pct":         first.CPUPct,
		"core.loss_ppm":        first.LossPPM,
		"core.lat_mean_us":     first.LatMeanUs,
		"core.busy_try_pct":    first.BusyTryPct,
		"nic.drops":            float64(first.Drops),
	}
	if rusageAvailable {
		m["rss_mb"] = peakRSSMB()
		m["cpu_ns_per_pkt"] = median(nsPerPkt)
	}
	if traced {
		m["sched.observe_ns"] = observeNs(wl, o)
	}

	checks.add("deterministic", same, "%d repeats of seed %d gave identical outputs", len(mpps), o.seed)
	if o.seed == 1 {
		var want simOutputs
		err := json.Unmarshal(simGoldenJSON, &want)
		detail := "outputs == golden/sim_linerate.seed1.json"
		if err != nil || first != want {
			detail = fmt.Sprintf("outputs != golden/sim_linerate.seed1.json (err: %v)\n      got  %s\n      want %s", err, mustJSON(first), mustJSON(want))
		}
		checks.add("golden", err == nil && first == want, "%s", detail)
	}
	return runOut{m: m, attempted: uint64(first.Rx + first.Drops), failed: uint64(first.Drops),
		samples: w.lat.N(), retrievalCPU: cpu.Seconds(), wall: time.Since(start).Seconds(), checks: checks}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(err)
	}
	return string(b)
}
