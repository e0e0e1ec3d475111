package sched

import (
	"math"
	"testing"

	"metronome/internal/model"
	"metronome/internal/xrand"
)

func testConfig() Config {
	return Config{VBar: 10e-6, TL: 500e-6, M: 3, N: 1}
}

// driveTo pins queue q's estimate at rho and feeds one cycle whose sample
// equals rho, so the EWMA stays put and the cached TS re-evaluates.
func driveTo(p Policy, q int, rho float64) {
	p.Estimator().Set(q, rho)
	p.ObserveCycle(q, rho, 1-rho) // sample = rho/(rho+1-rho) = rho
}

func TestTSVsRho(t *testing.T) {
	rhos := []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1}
	cases := []struct {
		name string
		cfg  Config
		want func(cfg Config, rho float64) float64
	}{
		{NameAdaptive, testConfig(), func(cfg Config, rho float64) float64 {
			return model.TSForTargetMultiqueue(cfg.VBar, rho, cfg.M, cfg.N)
		}},
		{NameAdaptive, func() Config { c := testConfig(); c.M, c.N = 6, 2; return c }(),
			func(cfg Config, rho float64) float64 {
				return model.TSForTargetMultiqueue(cfg.VBar, rho, cfg.M, cfg.N)
			}},
		{NameFixed, func() Config { c := testConfig(); c.VBar = 7e-6; return c }(),
			func(cfg Config, rho float64) float64 { return cfg.VBar }},
		{NameBusyPoll, testConfig(), func(Config, float64) float64 { return 0 }},
	}
	for _, tc := range cases {
		p := MustNew(tc.name, tc.cfg)
		for _, rho := range rhos {
			for q := 0; q < tc.cfg.N; q++ {
				driveTo(p, q, rho)
				if got, want := p.TS(q), tc.want(tc.cfg, rho); got != want {
					t.Errorf("%s M=%d N=%d rho=%v q=%d: TS = %v, want %v",
						tc.name, tc.cfg.M, tc.cfg.N, rho, q, got, want)
				}
				if got := p.Rho(q); math.Abs(got-rho) > 1e-12 {
					t.Errorf("%s rho=%v: Rho = %v", tc.name, rho, got)
				}
			}
		}
	}
}

func TestAdaptiveTSMonotoneInRho(t *testing.T) {
	p := NewAdaptiveTS(testConfig())
	prev := math.Inf(1)
	for _, rho := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95} {
		driveTo(p, 0, rho)
		ts := p.TS(0)
		if ts > prev {
			t.Fatalf("TS not non-increasing: rho=%v ts=%v prev=%v", rho, ts, prev)
		}
		prev = ts
	}
	// Bounds of eq. (13): TS in [VBar, M*VBar].
	driveTo(p, 0, 0)
	if got, want := p.TS(0), 3*10e-6; math.Abs(got-want) > 1e-18 {
		t.Fatalf("idle TS = %v, want M*VBar = %v", got, want)
	}
	driveTo(p, 0, 1)
	if got, want := p.TS(0), 10e-6; math.Abs(got-want) > 1e-18 {
		t.Fatalf("saturated TS = %v, want VBar = %v", got, want)
	}
}

func TestTimeoutDefaultsAndTL(t *testing.T) {
	cfg := testConfig()
	for _, name := range []string{NameAdaptive, NameFixed} {
		p := MustNew(name, cfg)
		if got := p.TL(0); got != cfg.TL {
			t.Errorf("%s: TL = %v, want %v", name, got, cfg.TL)
		}
	}
	bp := MustNew(NameBusyPoll, cfg)
	if got := bp.TL(0); got != 0 {
		t.Errorf("busypoll: TL = %v, want 0", got)
	}
	if got := bp.TS(0); got != 0 {
		t.Errorf("busypoll: TS = %v, want 0", got)
	}
}

func TestRhoEstimator(t *testing.T) {
	e := NewRhoEstimator(2)
	if e.Rho(0) != 0 {
		t.Fatal("fresh estimator not zero")
	}
	// First observation initialises directly (the paper's runtime).
	if got := e.Observe(0, 30e-6, 70e-6); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("first observation = %v, want 0.3", got)
	}
	// Subsequent observations smooth with alpha.
	want := (1-0.125)*0.3 + 0.125*0.8
	if got := e.Observe(0, 80e-6, 20e-6); math.Abs(got-want) > 1e-12 {
		t.Fatalf("second observation = %v, want %v", got, want)
	}
	// Queues are independent.
	if e.Rho(1) != 0 {
		t.Fatal("queue 1 contaminated")
	}
	e.Set(1, 0.5)
	if e.Rho(1) != 0.5 {
		t.Fatal("Set did not stick")
	}
	// A zero-length cycle contributes rho = 0, not NaN.
	e2 := NewRhoEstimator(1)
	if got := e2.Observe(0, 0, 0); got != 0 || math.IsNaN(got) {
		t.Fatalf("degenerate cycle = %v", got)
	}
}

func TestPickBackupQueue(t *testing.T) {
	rng := xrand.New(7)
	one := MustNew(NameAdaptive, testConfig())
	if got := one.PickBackupQueue(0, rng); got != 0 {
		t.Fatalf("N=1 pick = %d", got)
	}
	multi := testConfig()
	multi.N, multi.M = 4, 4
	p := MustNew(NameAdaptive, multi)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		q := p.PickBackupQueue(1, rng)
		if q < 0 || q >= 4 {
			t.Fatalf("pick %d out of range", q)
		}
		seen[q] = true
	}
	if len(seen) < 4 {
		t.Fatalf("random pick never covered all queues: %v", seen)
	}
	multi.BackupSticky = true
	sticky := MustNew(NameAdaptive, multi)
	for i := 0; i < 10; i++ {
		if got := sticky.PickBackupQueue(2, rng); got != 2 {
			t.Fatalf("sticky pick = %d", got)
		}
	}
	bp := MustNew(NameBusyPoll, multi)
	if got := bp.PickBackupQueue(3, rng); got != 3 {
		t.Fatalf("busypoll pick = %d, want pinned", got)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{NameAdaptive, NameFixed, NameBusyPoll, NameRMetronome, NameWorkSteal} {
		found := false
		for _, n := range Names() {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in %q not registered (have %v)", name, Names())
		}
	}
	if _, err := New("no-such-policy", testConfig()); err == nil {
		t.Error("unknown policy did not error")
	}
	// The empty name is resolved by NewCycle alone (TestSimLivePolicyResolution).
	if _, err := New("", testConfig()); err == nil {
		t.Error("New resolved the empty name")
	}
	// Applications can plug their own discipline.
	Register("test-custom", func(cfg Config) Policy { return NewFixedTS(cfg) })
	if _, err := New("test-custom", testConfig()); err != nil {
		t.Errorf("custom policy: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on unknown name")
		}
	}()
	MustNew("still-missing", testConfig())
}

func TestRMetronomeGroups(t *testing.T) {
	cfg := testConfig()
	cfg.M, cfg.N = 7, 3 // groups of 3/2/2
	for _, name := range []string{NameRMetronome, NameWorkSteal} {
		p := MustNew(name, cfg)
		if p.Name() != name {
			t.Fatalf("Name() = %q, want %q", p.Name(), name)
		}
		g, ok := p.(GroupPolicy)
		if !ok {
			t.Fatalf("%s does not implement GroupPolicy", name)
		}
		wantSize := []int{3, 2, 2}
		total := 0
		for q := 0; q < cfg.N; q++ {
			if g.GroupSize(q) != wantSize[q] {
				t.Errorf("%s: GroupSize(%d) = %d, want %d", name, q, g.GroupSize(q), wantSize[q])
			}
			total += g.GroupSize(q)
		}
		if total != cfg.M {
			t.Errorf("%s: group sizes sum to %d, want M=%d", name, total, cfg.M)
		}
		for i := 0; i < cfg.M; i++ {
			if got, want := g.HomeQueue(i), i%cfg.N; got != want {
				t.Errorf("%s: HomeQueue(%d) = %d, want %d", name, i, got, want)
			}
		}
		// Member timeouts follow eq. (13) with the integer group size, not
		// eq. (14)'s real-valued M/N average.
		for q := 0; q < cfg.N; q++ {
			driveTo(p, q, 0.4)
			if got, want := p.TS(q), model.TSForTarget(cfg.VBar, 0.4, wantSize[q]); got != want {
				t.Errorf("%s: TS(%d) = %v, want eq.13 with r=%d: %v", name, q, got, wantSize[q], want)
			}
		}
	}
}

func TestRMetronomeClaimTurn(t *testing.T) {
	cfg := testConfig()
	cfg.M, cfg.N = 4, 2
	g := MustNew(NameRMetronome, cfg).(GroupPolicy)
	for i := uint64(0); i < 5; i++ {
		if g.Turns(0) != i {
			t.Fatalf("Turns(0) = %d before claim %d", g.Turns(0), i)
		}
		if !g.ClaimTurn(0) {
			t.Fatalf("sequential claim %d failed", i)
		}
	}
	if g.Turns(1) != 0 {
		t.Fatalf("queue 1 turns contaminated: %d", g.Turns(1))
	}
}

func TestWorkStealPicksBusiestQueue(t *testing.T) {
	rng := xrand.New(11)
	cfg := testConfig()
	cfg.M, cfg.N = 8, 4
	p := MustNew(NameWorkSteal, cfg)
	est := p.Estimator()
	est.Set(0, 0.1)
	est.Set(1, 0.9) // the hot queue
	est.Set(2, 0.3)
	est.Set(3, 0.2)
	for i := 0; i < 20; i++ {
		if got := p.PickBackupQueue(0, rng); got != 1 {
			t.Fatalf("pick from q0 = %d, want the hottest sibling 1", got)
		}
	}
	// The current queue is excluded even when it is the hottest.
	for i := 0; i < 20; i++ {
		if got := p.PickBackupQueue(1, rng); got != 2 {
			t.Fatalf("pick from q1 = %d, want next-hottest 2", got)
		}
	}
	// Cold start: all-zero rho ties degenerate to a uniform pick.
	cold := MustNew(NameWorkSteal, cfg)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		q := cold.PickBackupQueue(3, rng)
		if q == 3 {
			t.Fatalf("cold pick returned the current queue")
		}
		seen[q] = true
	}
	if len(seen) != 3 {
		t.Fatalf("cold ties not uniform across siblings: %v", seen)
	}
	// The uniform variant ignores occupancy entirely.
	uni := MustNew(NameRMetronome, cfg)
	uni.Estimator().Set(1, 0.9)
	seen = map[int]bool{}
	for i := 0; i < 300; i++ {
		seen[uni.PickBackupQueue(0, rng)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("uniform variant never covered all queues: %v", seen)
	}
}

func TestWorkStealSingleQueueAndSticky(t *testing.T) {
	rng := xrand.New(3)
	one := MustNew(NameWorkSteal, testConfig())
	if got := one.PickBackupQueue(0, rng); got != 0 {
		t.Fatalf("N=1 pick = %d", got)
	}
	cfg := testConfig()
	cfg.M, cfg.N, cfg.BackupSticky = 4, 4, true
	sticky := MustNew(NameWorkSteal, cfg)
	sticky.Estimator().Set(2, 0.9)
	for i := 0; i < 10; i++ {
		if got := sticky.PickBackupQueue(0, rng); got != 0 {
			t.Fatalf("sticky worksteal pick = %d", got)
		}
	}
}
