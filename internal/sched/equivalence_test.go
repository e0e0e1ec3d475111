package sched_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"metronome/internal/baseline"
	"metronome/internal/core"
	"metronome/internal/mbuf"
	"metronome/internal/nic"
	"metronome/internal/ring"
	"metronome/internal/runtime"
	"metronome/internal/sched"
	"metronome/internal/sim"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// TestSimLiveTSEquivalence is the acceptance check of the policy layer:
// for identical (rho, M, N) the sim twin and the live runtime must compute
// bit-identical short timeouts, because both delegate to the same
// sched.Policy engine. Cycles are fed through each side's own policy so
// the test exercises the rewired paths, not a shared object.
func TestSimLiveTSEquivalence(t *testing.T) {
	cycles := []struct{ busy, vacation float64 }{
		{0, 100e-6},       // empty polls
		{5e-6, 20e-6},     // light load
		{50e-6, 10e-6},    // heavy
		{200e-6, 5e-6},    // near saturation
		{1e-6, 300e-6},    // load drains away
		{0.5e-6, 900e-6},  // idle again
		{80e-6, 8e-6},     // burst returns
		{120e-6, 2e-6},    // overload
		{3e-6, 3e-6},      // exactly rho = 0.5
		{10e-6, 999.9e-6}, // long vacation tail
	}
	for _, shape := range []struct{ m, n int }{{3, 1}, {4, 2}, {6, 3}} {
		rt, runner := newTwins(t, "", shape.m, shape.n)
		simPol, livePol := rt.Policy(), runner.Policy()
		if simPol.Name() != livePol.Name() {
			t.Fatalf("policy names differ: %q vs %q", simPol.Name(), livePol.Name())
		}
		for q := 0; q < shape.n; q++ {
			if simPol.TS(q) != livePol.TS(q) {
				t.Fatalf("M=%d N=%d q=%d: initial TS %v != %v",
					shape.m, shape.n, q, simPol.TS(q), livePol.TS(q))
			}
			for i, c := range cycles {
				sTS := simPol.ObserveCycle(q, c.busy, c.vacation)
				lTS := livePol.ObserveCycle(q, c.busy, c.vacation)
				if sTS != lTS {
					t.Fatalf("M=%d N=%d q=%d cycle %d: sim TS %v != live TS %v",
						shape.m, shape.n, q, i, sTS, lTS)
				}
				if simPol.Rho(q) != livePol.Rho(q) {
					t.Fatalf("M=%d N=%d q=%d cycle %d: rho %v != %v",
						shape.m, shape.n, q, i, simPol.Rho(q), livePol.Rho(q))
				}
				if rt.TS(q) != sTS {
					t.Fatalf("core.TS(%d) = %v, policy says %v", q, rt.TS(q), sTS)
				}
				if got, want := runner.TS(q), time.Duration(lTS*float64(time.Second)); got != want {
					t.Fatalf("runner.TS(%d) = %v, want %v", q, got, want)
				}
			}
		}
	}
}

// TestSimLivePolicyResolution: the policy name is the only selector, and
// both substrates resolve it through sched.NewCycle — the empty name to
// adaptive — so for every registered name the twin and the live runner
// build the same discipline, and under fixed both sleep VBar.
func TestSimLivePolicyResolution(t *testing.T) {
	for _, name := range append([]string{""}, sched.Names()...) {
		if strings.HasPrefix(name, "test-") {
			continue // registered by this package's own tests
		}
		want := name
		if want == "" {
			want = sched.NameAdaptive
		}
		rt, runner := newTwins(t, name, 4, 2)
		if sim, live := rt.Policy().Name(), runner.Policy().Name(); sim != want || live != want {
			t.Errorf("policy %q: twin built %q, live runner %q, want %q", name, sim, live, want)
		}
		if want != sched.NameFixed {
			continue
		}
		for q := 0; q < 2; q++ {
			if rt.TS(q) != 10e-6 || runner.TS(q) != 10*time.Microsecond {
				t.Errorf("fixed q=%d: twin TS %v, live TS %v, want VBar = 10us", q, rt.TS(q), runner.TS(q))
			}
		}
	}
}

// TestBusyPollZeroCostTerminates pins the spin-path floor: a config with
// zero WakeCost (anything not built via DefaultConfig) must still advance
// the engine clock under busypoll instead of re-enqueueing at the same
// instant forever.
func TestBusyPollZeroCostTerminates(t *testing.T) {
	eng := sim.New()
	root := xrand.New(1)
	q := nic.NewQueue(0, traffic.CBR{PPS: 0}, root.Split(), nic.DefaultOptions())
	cfg := core.Config{M: 1, VBar: 10e-6, TL: 500e-6, Mu: 1e6, Policy: sched.NameBusyPoll}
	rt := core.New(eng, []*nic.Queue{q}, cfg)
	rt.Start()
	eng.RunUntil(1e-3)
	if rt.Tries == 0 {
		t.Fatal("poller never polled")
	}
}

// TestBusyPollSubsumesStaticBaseline runs the sim twin under the busypoll
// discipline and checks it agrees with baseline.Static — which is itself
// the busypoll discipline packaged behind the comparator API since the
// closed form was retired. The hand-built run here uses its own engine,
// seed and window, so the assertion still catches either side drifting:
// every thread burns ~100% of its core and delivered throughput matches
// the offered load below saturation.
func TestBusyPollSubsumesStaticBaseline(t *testing.T) {
	eng := sim.New()
	root := xrand.New(3)
	pps := 2e6 // well under mu: no loss in either formulation
	q := nic.NewQueue(0, traffic.CBR{PPS: pps}, root.Split(), nic.DefaultOptions())
	cfg := core.DefaultConfig()
	cfg.M = 1
	cfg.Policy = sched.NameBusyPoll
	rt := core.New(eng, []*nic.Queue{q}, cfg)
	rt.Start()
	const wall = 0.05
	eng.RunUntil(wall)
	m := rt.Snapshot(wall)

	ref := baseline.Static(baseline.DefaultStatic(), pps)
	if m.CPUPercent < 80 {
		t.Errorf("busypoll CPU = %.1f%%, want ~%.0f%% (static baseline)", m.CPUPercent, ref.CPUPercent)
	}
	if ref.CPUPercent < 99.9 || ref.CPUPercent > 100.1 {
		t.Fatalf("static baseline CPU = %v, want ~100", ref.CPUPercent)
	}
	if math.Abs(m.ThroughputPPS-ref.ThroughputPPS)/ref.ThroughputPPS > 0.05 {
		t.Errorf("busypoll throughput %.0f pps vs baseline %.0f pps", m.ThroughputPPS, ref.ThroughputPPS)
	}
	if m.LossRate > 1e-3 {
		t.Errorf("busypoll dropped %.4f below saturation", m.LossRate)
	}
	// The vacation period collapses to the per-wake overhead: orders of
	// magnitude below the adaptive target.
	if m.MeanVacation > 5e-6 {
		t.Errorf("busypoll mean vacation = %v s, want ~wake overhead", m.MeanVacation)
	}
}

// newTwins builds the discrete-event twin and the live runner over the
// same deployment shape (M threads, N queues, identical VBar/TL) under one
// policy name.
func newTwins(t *testing.T, policy string, m, n int) (*core.Runtime, *runtime.Runner) {
	t.Helper()
	eng := sim.New()
	root := xrand.New(1)
	queues := make([]*nic.Queue, n)
	for i := range queues {
		queues[i] = nic.NewQueue(i, traffic.CBR{PPS: 0}, root.Split(), nic.DefaultOptions())
	}
	simCfg := core.DefaultConfig()
	simCfg.M = m
	simCfg.VBar = 10e-6
	simCfg.TL = 500e-6
	simCfg.Policy = policy
	rt := core.New(eng, queues, simCfg)

	rxs := make([]runtime.RxQueue, n)
	for i := range rxs {
		r, err := ring.NewMPMC[*mbuf.Mbuf](8)
		if err != nil {
			t.Fatal(err)
		}
		rxs[i] = runtime.RingQueue{R: r}
	}
	runner := runtime.New(rxs, func([]*mbuf.Mbuf) {}, runtime.Config{
		M:      m,
		VBar:   10 * time.Microsecond,
		TL:     500 * time.Microsecond,
		Policy: policy,
	})
	return rt, runner
}

// TestSimLiveRMetronomeEquivalence mirrors TestSimLiveTSEquivalence for the
// shared-queue disciplines: identical cycle sequences must produce
// bit-identical member timeouts, rotation-scaled backup timeouts, rho
// estimates, group shapes and home assignments on both substrates.
func TestSimLiveRMetronomeEquivalence(t *testing.T) {
	cycles := []struct{ busy, vacation float64 }{
		{0, 100e-6},
		{5e-6, 20e-6},
		{50e-6, 10e-6},
		{200e-6, 5e-6},
		{1e-6, 300e-6},
		{80e-6, 8e-6},
		{3e-6, 3e-6},
	}
	for _, policy := range []string{sched.NameRMetronome, sched.NameWorkSteal} {
		for _, shape := range []struct{ m, n int }{{4, 2}, {6, 3}, {7, 3}} {
			rt, runner := newTwins(t, policy, shape.m, shape.n)
			simPol, livePol := rt.Policy(), runner.Policy()
			if simPol.Name() != policy || livePol.Name() != policy {
				t.Fatalf("policy names: sim %q live %q, want %q", simPol.Name(), livePol.Name(), policy)
			}
			simG, liveG := rt.Group(), livePol.(sched.GroupPolicy)
			if simG == nil {
				t.Fatal("sim twin has no GroupPolicy")
			}
			for id := 0; id < shape.m; id++ {
				if simG.HomeQueue(id) != liveG.HomeQueue(id) {
					t.Fatalf("%s M=%d N=%d: home of thread %d differs: %d vs %d",
						policy, shape.m, shape.n, id, simG.HomeQueue(id), liveG.HomeQueue(id))
				}
			}
			for q := 0; q < shape.n; q++ {
				if simG.GroupSize(q) != liveG.GroupSize(q) {
					t.Fatalf("%s q=%d: group size %d vs %d", policy, q, simG.GroupSize(q), liveG.GroupSize(q))
				}
				if simPol.TS(q) != livePol.TS(q) {
					t.Fatalf("%s q=%d: initial TS %v != %v", policy, q, simPol.TS(q), livePol.TS(q))
				}
				for i, c := range cycles {
					sTS := simPol.ObserveCycle(q, c.busy, c.vacation)
					lTS := livePol.ObserveCycle(q, c.busy, c.vacation)
					if sTS != lTS {
						t.Fatalf("%s M=%d N=%d q=%d cycle %d: sim TS %v != live TS %v",
							policy, shape.m, shape.n, q, i, sTS, lTS)
					}
					if simPol.TL(q) != livePol.TL(q) {
						t.Fatalf("%s q=%d cycle %d: TL %v != %v", policy, q, i, simPol.TL(q), livePol.TL(q))
					}
					if want := float64(simG.GroupSize(q)) * sTS; simPol.TL(q) != want {
						t.Fatalf("%s q=%d: TL = %v, want one rotation r*TS = %v", policy, q, simPol.TL(q), want)
					}
					if simPol.Rho(q) != livePol.Rho(q) {
						t.Fatalf("%s q=%d cycle %d: rho %v != %v", policy, q, i, simPol.Rho(q), livePol.Rho(q))
					}
				}
			}
		}
	}
}

// TestSimLivePlacementEquivalence runs one scripted ApplyPlacement
// sequence against both substrates: after each plan (interleaved with
// observed cycles and claimed service turns), the sim twin's policy and
// the live runner's policy must agree bit-for-bit on team size, per-queue
// group sizes, home assignments, member timeouts, rotation backoffs, load
// estimates AND the service-turn counters — a rebalance must never drop a
// claimed turn on either side.
func TestSimLivePlacementEquivalence(t *testing.T) {
	script := []struct {
		plan     []int // nil = no placement change this step
		busy     float64
		vacation float64
	}{
		{nil, 5e-6, 20e-6},
		{[]int{1, 3}, 50e-6, 10e-6},
		{[]int{1, 3}, 80e-6, 8e-6}, // identical plan: must be a no-op
		{[]int{4, 2}, 120e-6, 2e-6},
		{[]int{1, 1}, 1e-6, 300e-6},
		{[]int{2, 5}, 3e-6, 3e-6},
		{[]int{0, 2}, 10e-6, 30e-6}, // clamps to {1, 2}
	}
	for _, policy := range []string{sched.NameRMetronome, sched.NameWorkSteal} {
		rt, runner := newTwins(t, policy, 4, 2)
		simPol, livePol := rt.Policy(), runner.Policy()
		simG := rt.Group()
		liveG := livePol.(sched.GroupPolicy)
		for step, s := range script {
			if s.plan != nil {
				sa := rt.ApplyPlacement(s.plan)
				la := runner.ApplyPlacement(s.plan)
				if sa != la {
					t.Fatalf("%s step %d: applied totals differ: sim %d live %d", policy, step, sa, la)
				}
				if rt.TeamSize() != runner.TeamSize() || rt.TeamSize() != sa {
					t.Fatalf("%s step %d: team sizes sim %d live %d applied %d",
						policy, step, rt.TeamSize(), runner.TeamSize(), sa)
				}
				srb := simPol.(sched.Rebalancer)
				lrb := livePol.(sched.Rebalancer)
				sp, lp := srb.Placement(), lrb.Placement()
				for q := range sp {
					if sp[q] != lp[q] {
						t.Fatalf("%s step %d: placements differ: sim %v live %v", policy, step, sp, lp)
					}
				}
				simRt := rt.Placement()
				for q := range sp {
					if simRt[q] != sp[q] {
						t.Fatalf("%s step %d: runtime placement %v != policy %v", policy, step, simRt, sp)
					}
				}
			}
			m := rt.TeamSize()
			for id := 0; id < m; id++ {
				if simG.HomeQueue(id) != liveG.HomeQueue(id) {
					t.Fatalf("%s step %d thread %d: home %d != %d",
						policy, step, id, simG.HomeQueue(id), liveG.HomeQueue(id))
				}
			}
			for q := 0; q < 2; q++ {
				if simG.GroupSize(q) != liveG.GroupSize(q) {
					t.Fatalf("%s step %d q %d: group size %d != %d",
						policy, step, q, simG.GroupSize(q), liveG.GroupSize(q))
				}
				// Both sides claim a turn this step: the counters must stay
				// in lockstep across every rebalance.
				if !simG.ClaimTurn(q) || !liveG.ClaimTurn(q) {
					t.Fatalf("%s step %d q %d: uncontended claim failed", policy, step, q)
				}
				if simG.Turns(q) != liveG.Turns(q) {
					t.Fatalf("%s step %d q %d: turns %d != %d",
						policy, step, q, simG.Turns(q), liveG.Turns(q))
				}
				sTS := simPol.ObserveCycle(q, s.busy, s.vacation)
				lTS := livePol.ObserveCycle(q, s.busy, s.vacation)
				if sTS != lTS {
					t.Fatalf("%s step %d q %d: TS %v != %v", policy, step, q, sTS, lTS)
				}
				if simPol.TL(q) != livePol.TL(q) {
					t.Fatalf("%s step %d q %d: TL %v != %v", policy, step, q, simPol.TL(q), livePol.TL(q))
				}
				if simPol.Rho(q) != livePol.Rho(q) {
					t.Fatalf("%s step %d q %d: rho %v != %v", policy, step, q, simPol.Rho(q), livePol.Rho(q))
				}
			}
		}
	}
}

// TestSimLiveResizeEquivalence runs one scripted resize sequence against
// both substrates: after each SetTeamSize (interleaved with observed
// cycles), the sim twin's policy and the live runner's policy must agree
// bit-for-bit on team size, group shape, home assignments, member
// timeouts, rotation backoffs and load estimates — the elastic control
// plane drives either side through the same sched.Resizable contract.
func TestSimLiveResizeEquivalence(t *testing.T) {
	script := []struct {
		resizeTo int // 0 = no resize this step
		busy     float64
		vacation float64
	}{
		{0, 5e-6, 20e-6},
		{6, 50e-6, 10e-6},
		{0, 80e-6, 8e-6},
		{9, 120e-6, 2e-6},
		{4, 1e-6, 300e-6},
		{0, 3e-6, 3e-6},
		{7, 10e-6, 30e-6},
	}
	for _, policy := range []string{sched.NameRMetronome, sched.NameWorkSteal, sched.NameAdaptive} {
		rt, runner := newTwins(t, policy, 4, 2)
		simPol, livePol := rt.Policy(), runner.Policy()
		for step, s := range script {
			if s.resizeTo != 0 {
				sa := rt.SetTeamSize(s.resizeTo)
				la := runner.SetTeamSize(s.resizeTo)
				if sa != la {
					t.Fatalf("%s step %d: applied sizes differ: sim %d live %d", policy, step, sa, la)
				}
				srz := simPol.(sched.Resizable)
				lrz := livePol.(sched.Resizable)
				if srz.TeamSize() != lrz.TeamSize() || srz.TeamSize() != sa {
					t.Fatalf("%s step %d: policy team sizes sim %d live %d applied %d",
						policy, step, srz.TeamSize(), lrz.TeamSize(), sa)
				}
			}
			for q := 0; q < 2; q++ {
				sTS := simPol.ObserveCycle(q, s.busy, s.vacation)
				lTS := livePol.ObserveCycle(q, s.busy, s.vacation)
				if sTS != lTS {
					t.Fatalf("%s step %d q %d: TS %v != %v", policy, step, q, sTS, lTS)
				}
				if simPol.TL(q) != livePol.TL(q) {
					t.Fatalf("%s step %d q %d: TL %v != %v", policy, step, q, simPol.TL(q), livePol.TL(q))
				}
				if simPol.Rho(q) != livePol.Rho(q) {
					t.Fatalf("%s step %d q %d: rho %v != %v", policy, step, q, simPol.Rho(q), livePol.Rho(q))
				}
			}
			sg, sok := simPol.(sched.GroupPolicy)
			lg, lok := livePol.(sched.GroupPolicy)
			if sok != lok {
				t.Fatalf("%s step %d: group capability differs", policy, step)
			}
			if sok {
				m := simPol.(sched.Resizable).TeamSize()
				for q := 0; q < 2; q++ {
					if sg.GroupSize(q) != lg.GroupSize(q) {
						t.Fatalf("%s step %d q %d: group size %d != %d",
							policy, step, q, sg.GroupSize(q), lg.GroupSize(q))
					}
				}
				for id := 0; id < m; id++ {
					if sg.HomeQueue(id) != lg.HomeQueue(id) {
						t.Fatalf("%s step %d thread %d: home %d != %d",
							policy, step, id, sg.HomeQueue(id), lg.HomeQueue(id))
					}
				}
			}
		}
	}
}

// TestZeroVBarSpins pins the V̄ = 0, TL = 0 corner (metrosim -vbar 0 -tl
// 0): every discipline must publish a finite zero timeout — spin — and a
// short twin run over it must complete. uniformvac once derived its
// timeout as k·0/0 there and scheduled its first wake at NaN.
func TestZeroVBarSpins(t *testing.T) {
	for _, name := range []string{sched.NameAdaptive, sched.NameFixed, sched.NameUniformVac} {
		p := sched.MustNew(name, sched.Config{M: 3, N: 1})
		if ts := p.TS(0); ts != 0 { // NaN fails too
			t.Errorf("%s: TS = %v at V̄ = TL = 0, want 0", name, ts)
			continue
		}
		eng := sim.New()
		q := nic.NewQueue(0, traffic.CBR{PPS: 1e6}, xrand.New(1).Split(), nic.DefaultOptions())
		cfg := core.DefaultConfig()
		cfg.VBar, cfg.TL, cfg.Policy = 0, 0, name
		rt := core.New(eng, []*nic.Queue{q}, cfg)
		rt.Start()
		eng.RunUntil(1e-3)
		if m := rt.Snapshot(1e-3); m.Served == 0 || m.LossRate != 0 {
			t.Errorf("%s: spinning run served %d, loss %v", name, m.Served, m.LossRate)
		}
	}
}
