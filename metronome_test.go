package metronome_test

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metronome"
)

// TestPublicSimulationAPI drives the whole simulation stack through the
// facade only — what an external user of the module sees.
func TestPublicSimulationAPI(t *testing.T) {
	cfg := metronome.DefaultSimConfig()
	cfg.Seed = 7
	met := metronome.Simulate(cfg,
		[]metronome.Traffic{metronome.CBR{PPS: metronome.LineRate64B(10)}},
		200*time.Millisecond,
	)
	if met.LossRate > 1e-3 {
		t.Errorf("loss = %v", met.LossRate)
	}
	if met.CPUPercent >= 100 {
		t.Errorf("CPU = %v%%, must beat a single static core", met.CPUPercent)
	}
	if math.Abs(met.ThroughputPPS-metronome.LineRate64B(10))/1e6 > 0.5 {
		t.Errorf("throughput = %v", met.ThroughputPPS)
	}
}

func TestPublicModelAPI(t *testing.T) {
	// eq (13) limits through the facade.
	vbar := 10 * time.Microsecond
	if got := metronome.AdaptiveTS(vbar, 0, 3, 1); got != 30*time.Microsecond {
		t.Errorf("TS at rho=0 = %v, want M*vbar", got)
	}
	if got := metronome.AdaptiveTS(vbar, 1, 3, 1); got != vbar {
		t.Errorf("TS at rho=1 = %v, want vbar", got)
	}
	// eq (4): B=V => rho=0.5.
	if rho := metronome.EstimateRho(time.Millisecond, time.Millisecond); rho != 0.5 {
		t.Errorf("rho = %v", rho)
	}
	// eq (5)/(6) consistency at the Fig 4 point.
	ts := 50 * time.Microsecond
	if p := metronome.VacationCDF(ts, ts, ts, 3); p != 1 {
		t.Errorf("CDF at TS = %v", p)
	}
	ev := metronome.ExpectedVacation(ts, 500*time.Microsecond, 3)
	if ev <= 0 || ev > ts {
		t.Errorf("E[V] = %v", ev)
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	if len(metronome.Experiments()) < 20 {
		t.Fatalf("registry size = %d", len(metronome.Experiments()))
	}
	tables, ok := metronome.RunExperiment("fig7", true, 1)
	if !ok || len(tables) == 0 || len(tables[0].Rows) == 0 {
		t.Fatal("fig7 did not run through the facade")
	}
	if _, ok := metronome.RunExperiment("nope", true, 1); ok {
		t.Fatal("unknown experiment accepted")
	}
}

// TestPublicRuntimeEndToEnd runs producer -> ring -> Metronome runner ->
// handler entirely through the facade, checking packet conservation.
func TestPublicRuntimeEndToEnd(t *testing.T) {
	pool := metronome.NewPool(2048)
	ringQ, err := metronome.NewRing(1024)
	if err != nil {
		t.Fatal(err)
	}
	var processed atomic.Uint64
	runner := metronome.NewRunner(
		[]metronome.RxQueue{metronome.RingQueue{R: ringQ}},
		func(batch []*metronome.Mbuf) {
			for _, m := range batch {
				processed.Add(1)
				m.Free()
			}
		},
		metronome.RunnerConfig{M: 2, VBar: 100 * time.Microsecond, Seed: 3},
	)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); runner.Run(ctx) }()

	const n = 5000
	sent := 0
	for sent < n {
		m, err := pool.Get()
		if err != nil {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		m.SetFrame([]byte{1, 2, 3})
		if !ringQ.Enqueue(m) {
			m.Free()
			time.Sleep(50 * time.Microsecond)
			continue
		}
		sent++
	}
	deadline := time.Now().Add(5 * time.Second)
	for processed.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if processed.Load() != n {
		t.Fatalf("processed %d of %d", processed.Load(), n)
	}
	if pool.Available() != pool.Size() {
		t.Fatalf("pool leak: %d/%d", pool.Available(), pool.Size())
	}
	if runner.Rho(0) < 0 || runner.TS(0) <= 0 {
		t.Error("estimator state nonsensical")
	}
}

// TestBaselineComparisonViaSim reproduces the headline claim through the
// public API alone: Metronome's CPU scales with load, polling's does not.
func TestBaselineComparisonViaSim(t *testing.T) {
	cfg := metronome.DefaultSimConfig()
	cfg.Seed = 11
	rates := []float64{metronome.LineRate64B(10), metronome.LineRate64B(1)}
	var cpus []float64
	for _, pps := range rates {
		met := metronome.Simulate(cfg,
			[]metronome.Traffic{metronome.CBR{PPS: pps}}, 100*time.Millisecond)
		cpus = append(cpus, met.CPUPercent)
	}
	if !(cpus[0] > 2*cpus[1]) {
		t.Errorf("CPU not load-proportional: %v", cpus)
	}
}

// TestPublicElasticAPI drives the elastic control plane end to end through
// the facade: a flash crowd must grow the team within budget, shrink back
// after, and identical runs must be identical (resizes ride engine events).
func TestPublicElasticAPI(t *testing.T) {
	cfg := metronome.DefaultSimConfig()
	cfg.M = 2
	cfg.Seed = 5
	crowd := metronome.StepTraffic{At: 0.05, Before: metronome.CBR{PPS: 1e6},
		After: metronome.StepTraffic{At: 0.15, Before: metronome.CBR{PPS: 12e6},
			After: metronome.CBR{PPS: 1e6}}}
	run := func() (metronome.SimMetrics, metronome.ElasticReport) {
		ecfg := metronome.DefaultElasticConfig(2, 8)
		ecfg.TargetOccupancy = 0.05
		return metronome.SimulateElastic(cfg, ecfg, []metronome.Traffic{crowd}, 250*time.Millisecond)
	}
	m1, r1 := run()
	if r1.MaxThreads <= 2 {
		t.Fatalf("controller never grew the team: %+v", r1)
	}
	if r1.MaxThreads > 8 {
		t.Fatalf("budget exceeded: %+v", r1)
	}
	if r1.Resizes == 0 || r1.ThreadSeconds <= 0 {
		t.Fatalf("empty report: %+v", r1)
	}
	if r1.ThreadSeconds >= 8*0.25 {
		t.Fatalf("elastic provisioned like static-8: %v thread-seconds", r1.ThreadSeconds)
	}
	m2, r2 := run()
	if m1.Cycles != m2.Cycles || m1.RxPackets != m2.RxPackets || r1.Resizes != r2.Resizes ||
		r1.ThreadSeconds != r2.ThreadSeconds {
		t.Fatalf("elastic runs diverged:\n%+v %+v\n%+v %+v", m1, r1, m2, r2)
	}
}

// TestPublicPlacementAPI drives the placement plane end to end through the
// facade: with ElasticConfig.Placement a hot-queue shift must migrate
// members (the report carries a plan favouring the hot queue), the -cap
// analogue RingCap must shape the ring the occupancy target is measured
// against, and identical runs must be identical.
func TestPublicPlacementAPI(t *testing.T) {
	cfg := metronome.DefaultSimConfig()
	cfg.M = 6
	cfg.VBar = 15e-6
	cfg.Policy = metronome.PolicyRMetronome
	cfg.RingCap = 2048
	cfg.Seed = 9
	hot := func(q, hotQ int) metronome.Traffic {
		if q == hotQ {
			return metronome.CBR{PPS: 16e6}
		}
		return metronome.CBR{PPS: 2e6}
	}
	arrivals := []metronome.Traffic{hot(0, 2), hot(1, 2), hot(2, 2)}
	run := func() (metronome.SimMetrics, metronome.ElasticReport) {
		ecfg := metronome.DefaultElasticConfig(6, 6) // pinned total: placement only
		ecfg.Placement = true
		return metronome.SimulateElastic(cfg, ecfg, arrivals, 200*time.Millisecond)
	}
	m1, r1 := run()
	if r1.FinalPlan == nil {
		t.Fatalf("placement run carries no plan: %+v", r1)
	}
	if r1.FinalPlan[2] <= r1.FinalPlan[0] || r1.FinalPlan[2] <= r1.FinalPlan[1] {
		t.Fatalf("plan %v does not favour the hot queue", r1.FinalPlan)
	}
	if r1.Rebalances == 0 {
		t.Fatalf("no rebalances at a pinned total: %+v", r1)
	}
	if r1.Resizes != 0 || r1.MinThreads != 6 || r1.MaxThreads != 6 {
		t.Fatalf("pinned total moved: %+v", r1)
	}
	m2, r2 := run()
	if m1.Cycles != m2.Cycles || m1.RxPackets != m2.RxPackets || r1.Rebalances != r2.Rebalances {
		t.Fatalf("placement runs diverged:\n%+v %+v\n%+v %+v", m1, r1, m2, r2)
	}
}

// TestPublicFaultAPI drives the fault plane end to end through the facade:
// a straggler storm against the sole member of a queue's service group
// starves the queue, the self-healing health layer exiles the straggler and
// reinforces the queue, the oblivious controller stays blind (the stalled
// member is also the queue's only gauge publisher, so its telemetry
// freezes at pre-fault values), and identical runs are identical.
func TestPublicFaultAPI(t *testing.T) {
	cfg := metronome.DefaultSimConfig()
	cfg.M = 2
	cfg.Policy = metronome.PolicyRMetronome
	cfg.Seed = 11
	// The ring must outlast detection: at 150 Kpps a 2048-slot ring buys
	// ~13.6 ms, past the health layer's ~8 ms heartbeat bound, so the
	// self-healing arm can exile before the victim queue overflows.
	cfg.RingCap = 2048
	arrivals := []metronome.Traffic{
		metronome.CBR{PPS: 150e3}, // the storm's victim queue
		metronome.CBR{PPS: 1e6},
	}
	evs := metronome.StragglerStorm(nil, 0, 0.08, 0.26, 0.03, 0.02)
	run := func(health bool) (metronome.SimMetrics, metronome.ElasticReport) {
		ecfg := metronome.DefaultElasticConfig(2, 4)
		ecfg.TargetOccupancy = 0.05
		ecfg.Placement = true
		ecfg.Health = health
		return metronome.SimulateElastic(cfg, ecfg, arrivals, 300*time.Millisecond, evs...)
	}
	mHeal, rHeal := run(true)
	mObli, _ := run(false)
	if rHeal.Exiles == 0 {
		t.Fatalf("health layer never exiled the straggler: %+v", rHeal)
	}
	if mObli.Drops < 2000 {
		t.Fatalf("storm too soft to discriminate: oblivious dropped %d", mObli.Drops)
	}
	if 3*mHeal.Drops >= mObli.Drops {
		t.Fatalf("self-healing dropped %d vs oblivious %d: no rescue", mHeal.Drops, mObli.Drops)
	}
	m2, r2 := run(true)
	if mHeal.Cycles != m2.Cycles || mHeal.Drops != m2.Drops || rHeal.Exiles != r2.Exiles {
		t.Fatalf("faulted runs diverged:\n%+v %+v\n%+v %+v", mHeal, rHeal, m2, r2)
	}
}

// TestPublicObservabilityAPI drives the observability plane through the
// facade only: a flight recorder riding a faulted self-healing run (one
// timeline holding injected faults, controller decisions and exiles), the
// text/trace dumps, and the Prometheus exposition handler over a bus.
func TestPublicObservabilityAPI(t *testing.T) {
	cfg := metronome.DefaultSimConfig()
	cfg.M = 2
	cfg.Policy = metronome.PolicyRMetronome
	cfg.Seed = 11
	cfg.RingCap = 2048
	arrivals := []metronome.Traffic{
		metronome.CBR{PPS: 150e3},
		metronome.CBR{PPS: 1e6},
	}
	evs := metronome.StragglerStorm(nil, 0, 0.08, 0.26, 0.03, 0.02)
	run := func() (*metronome.TraceRecorder, metronome.ElasticReport) {
		rec := metronome.NewTraceRecorder(0)
		c := cfg
		c.Recorder = rec
		ecfg := metronome.DefaultElasticConfig(2, 4)
		ecfg.TargetOccupancy = 0.05
		ecfg.Placement = true
		ecfg.Health = true
		_, rep := metronome.SimulateElastic(c, ecfg, arrivals, 300*time.Millisecond, evs...)
		return rec, rep
	}
	rec, rep := run()

	counts := rec.CountByKind()
	if counts[metronome.TraceDecision] == 0 {
		t.Fatal("no controller decisions on the recorder")
	}
	if counts[metronome.TraceFault] == 0 {
		t.Fatal("injected fault flips did not reach the recorder")
	}
	if got := counts[metronome.TraceExile]; rep.Exiles != got {
		t.Fatalf("recorder saw %d exiles, report says %d", got, rep.Exiles)
	}
	// Every event decodes through the public aliases.
	var fault, exile bool
	for _, e := range rec.Events(nil) {
		switch e.Kind {
		case metronome.TraceFault:
			fault = true
		case metronome.TraceExile:
			exile = e.Target() >= 0
		}
	}
	if !fault || !exile {
		t.Fatalf("decode through aliases incomplete: fault=%v exile=%v", fault, exile)
	}

	// The dumps are deterministic: a re-run's text is byte-identical.
	var a, b strings.Builder
	if err := rec.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	rec2, _ := run()
	if err := rec2.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("flight-recorder text dump diverged across identical runs")
	}

	// The exposition handler serves the recorder's counters over HTTP.
	bus := metronome.NewTelemetryBus(1, 2)
	bus.RecordLatency(0, 1000)
	bus.Add(metronome.TelemetryDrops, 0, 3)
	h := metronome.NewMetricsHandler(metronome.MetricsOptions{Bus: bus, Recorder: rec})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`metronome_events_total{kind="fault"}`,
		`metronome_events_total{kind="exile"}`,
		"metronome_queue_latency_seconds_bucket",
		`metronome_queue_drops_total{queue="0"} 3`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestSimulateRingCap pins the -cap knob: a smaller ring must actually
// bound the queue (more drops under a burst than the default ring).
func TestSimulateRingCap(t *testing.T) {
	cfg := metronome.DefaultSimConfig()
	cfg.M = 1
	cfg.Seed = 3
	cfg.Policy = metronome.PolicyFixed
	cfg.VBar = 300e-6 // long fixed timeout: bursts pile up between polls
	burst := metronome.CBR{PPS: 10e6}
	cfg.RingCap = 32
	small := metronome.Simulate(cfg, []metronome.Traffic{burst}, 20*time.Millisecond)
	cfg.RingCap = 0 // nic default (576)
	big := metronome.Simulate(cfg, []metronome.Traffic{burst}, 20*time.Millisecond)
	if small.Drops <= big.Drops {
		t.Fatalf("RingCap=32 dropped %d, default ring dropped %d — cap not honoured",
			small.Drops, big.Drops)
	}
}

// TestSimulatePower pins the power-plane facade: the external joules
// account is positive and consistent with the controller's internal gauge,
// and on a trough-dominated day an elastic team under the joules objective
// spends less modelled energy than the same deployment pinned at its
// budget.
func TestSimulatePower(t *testing.T) {
	cfg := metronome.DefaultSimConfig()
	cfg.M = 2
	cfg.Policy = metronome.PolicyRMetronome
	cfg.VBar = 60e-6
	cfg.Seed = 9
	cfg.RingCap = 4096
	// Mostly-idle day with a crowd in the middle third.
	crowd := func() metronome.Traffic {
		return metronome.StepTraffic{At: 0.1, Before: metronome.CBR{PPS: 0.5e6},
			After: metronome.StepTraffic{At: 0.2, Before: metronome.CBR{PPS: 8e6},
				After: metronome.CBR{PPS: 0.5e6}}}
	}
	arrivals := []metronome.Traffic{crowd(), crowd()}
	run := func(minThreads int) (metronome.ElasticReport, float64) {
		ecfg := metronome.DefaultElasticConfig(minThreads, 4)
		ecfg.Objective = metronome.ElasticObjectiveJoules
		ecfg.TargetOccupancy = 0.05
		_, rep, joules := metronome.SimulatePower(cfg, ecfg, metronome.PowerConfig{}, arrivals, 300*time.Millisecond)
		return rep, joules
	}
	repElastic, jElastic := run(2)
	repPinned, jPinned := run(4)
	if jElastic <= 0 || repElastic.Joules <= 0 || repElastic.MeanWatts <= 0 {
		t.Fatalf("degenerate energy account: external=%.3f internal=%.3f meanW=%.3f",
			jElastic, repElastic.Joules, repElastic.MeanWatts)
	}
	if repPinned.MinThreads != 4 || repPinned.MaxThreads != 4 {
		t.Fatalf("pinned arm resized: %d..%d", repPinned.MinThreads, repPinned.MaxThreads)
	}
	if jElastic >= jPinned {
		t.Fatalf("elastic spent %.3f J vs pinned %.3f J: shedding idle members saved nothing",
			jElastic, jPinned)
	}
	// The two books use one power model; over a window dominated by the
	// same deployment they must agree to first order (the internal gauge
	// samples at tick boundaries, the external one integrates residency).
	if ratio := repElastic.Joules / jElastic; ratio < 0.5 || ratio > 2 {
		t.Fatalf("internal gauge %.3f J vs external account %.3f J: books diverged",
			repElastic.Joules, jElastic)
	}
}
