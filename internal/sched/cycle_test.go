package sched

import (
	"math"
	"strings"
	"testing"

	"metronome/internal/faults"
	"metronome/internal/telemetry"
	"metronome/internal/xrand"
)

func mustCycle(t *testing.T, name string, cfg Config, f *faults.Injector) *Cycle {
	t.Helper()
	c, err := NewCycle(name, cfg, f)
	if err != nil {
		t.Fatalf("NewCycle(%s): %v", name, err)
	}
	return &c
}

func TestNewCycleRejects(t *testing.T) {
	if _, err := NewCycle("no-such-policy", testConfig(), nil); err == nil {
		t.Error("unknown policy name accepted")
	}
	// Bus sizing is checked here, once, for both substrates; the per-substrate
	// table is TestBusSizedForDeployment in internal/core and
	// internal/runtime.
	cfg := testConfig()
	cfg.M, cfg.N, cfg.Bus = 4, 3, telemetry.NewBus(2, 8)
	_, err := NewCycle(NameAdaptive, cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "2 queue slots") || !strings.Contains(err.Error(), "3 queues") {
		t.Errorf("undersized bus: err = %v, want both counts named", err)
	}
}

func TestCycleGate(t *testing.T) {
	if g, until := mustCycle(t, NameAdaptive, testConfig(), nil).Gate(0, 1.0); g != GateRun || until != 0 {
		t.Fatalf("nil injector: gate %v until %v, want run", g, until)
	}
	f := faults.New(4, 1)
	c := mustCycle(t, NameAdaptive, testConfig(), f)
	if g, _ := c.Gate(1, 0); g != GateRun {
		t.Fatalf("healthy thread gated: %v", g)
	}
	f.StallThread(1, math.Inf(1)) // death: a stall that never ends
	if g, until := c.Gate(1, 1e9); g != GateStalled || !math.IsInf(until, 1) {
		t.Fatalf("dead thread: gate %v until %v, want stalled until +Inf", g, until)
	}
	if g, _ := c.Gate(2, 0); g != GateRun {
		t.Fatalf("a neighbour's death gated thread 2: %v", g)
	}
	f.StallThread(1, 2.0) // revival: the stall ends now
	if g, _ := c.Gate(1, 2.0); g != GateRun {
		t.Fatalf("revived thread gated: %v", g)
	}
	f.StallThread(1, 2.5)
	if g, until := c.Gate(1, 2.0); g != GateStalled || until != 2.5 {
		t.Fatalf("inside the window: gate %v until %v, want stalled until 2.5", g, until)
	}
	if g, _ := c.Gate(1, 2.5); g != GateRun {
		t.Fatalf("now == until must run (the window is half-open): %v", g)
	}
	f.StallThread(1, 9)
	f.StallThread(1, 0) // a zero end clears the window
	if g, _ := c.Gate(1, 2.0); g != GateRun {
		t.Fatalf("cleared window still gates: %v", g)
	}
}

func TestCycleLostRace(t *testing.T) {
	cfg := testConfig() // N = 1: nowhere else to go
	c := mustCycle(t, NameAdaptive, cfg, nil)
	if next, sleep := c.LostRace(0, 0, xrand.New(1)); next != 0 || sleep != cfg.TL {
		t.Fatalf("N=1: next %d sleep %v, want queue 0 and TL %v", next, sleep, cfg.TL)
	}

	cfg.M, cfg.N = 3, 3
	c = mustCycle(t, NameAdaptive, cfg, nil)
	rng, twin := xrand.New(7), xrand.New(7)
	moved := false
	for i := 0; i < 32; i++ {
		next, sleep := c.LostRace(0, 1, rng)
		if want := twin.Intn(3); next != want || sleep != cfg.TL {
			t.Fatalf("draw %d: next %d sleep %v, want the rng's %d and TL", i, next, sleep, want)
		}
		moved = moved || next != 1
	}
	if !moved {
		t.Fatal("32 lost races never re-targeted")
	}

	cfg.BackupSticky = true
	c = mustCycle(t, NameAdaptive, cfg, nil)
	for i := 0; i < 8; i++ {
		if next, _ := c.LostRace(0, 1, rng); next != 1 {
			t.Fatalf("BackupSticky re-targeted to %d", next)
		}
	}
}

func TestCycleLostRaceDephases(t *testing.T) {
	cfg := testConfig()
	cfg.M, cfg.N, cfg.Dephase = 2, 1, true // one group of two on queue 0
	for _, tc := range []struct {
		rho     float64
		rephase bool
	}{{0.7, true}, {0.5, true}, {0.3, false}} {
		c := mustCycle(t, NameRMetronome, cfg, nil)
		p := c.Policy()
		p.Estimator().Set(0, tc.rho)
		p.ObserveCycle(0, tc.rho*25e-6, (1-tc.rho)*25e-6) // a 25 us cycle at exactly rho
		tl := p.TL(0)
		next, sleep := c.LostRace(1, 0, xrand.New(3))
		if next != 0 {
			t.Fatalf("rho %.2f: next %d on a single queue", tc.rho, next)
		}
		if tc.rephase && sleep == tl {
			t.Errorf("rho %.2f: colliding member slept the blind rotation %v", tc.rho, tl)
		}
		if !tc.rephase && sleep != tl {
			t.Errorf("rho %.2f: sleep %v, want the rotation backoff %v below the de-phasing threshold", tc.rho, sleep, tl)
		}
	}
}

// wirePolicy records what the Cycle hands a policy and its extensions, with
// per-queue timeouts distinct enough to tell which queue was asked.
type wirePolicy struct {
	base
	home    map[int]int // thread -> home queue
	backup  int         // what PickBackupQueue returns
	dephase [4]float64  // thread, q, ts, backup(0/1) of the last Dephase call
}

func (p *wirePolicy) Name() string                                       { return "wire" }
func (p *wirePolicy) TS(q int) float64                                   { return 10 + float64(q) }
func (p *wirePolicy) TL(q int) float64                                   { return 100 + float64(q) }
func (p *wirePolicy) ObserveCycle(q int, busy, vacation float64) float64 { return 20 + float64(q) }
func (p *wirePolicy) PickBackupQueue(cur int, rng Rand) int              { return p.backup }
func (p *wirePolicy) HomeQueue(thread int) int                           { return p.home[thread] }
func (p *wirePolicy) GroupSize(q int) int                                { return 1 }
func (p *wirePolicy) ClaimTurn(q int) bool                               { return q != 2 }
func (p *wirePolicy) Turns(q int) uint64                                 { return 0 }
func (p *wirePolicy) SetPlacement(sizes []int)                           {}
func (p *wirePolicy) Placement() []int                                   { return nil }
func (p *wirePolicy) Dephase(thread, q int, ts float64, backup bool) float64 {
	b := 0.0
	if backup {
		b = 1
	}
	p.dephase = [4]float64{float64(thread), float64(q), ts, b}
	return ts + 0.5
}

func TestCycleWiring(t *testing.T) {
	wp := &wirePolicy{home: map[int]int{0: 0, 1: 1, 5: 2}, backup: 2}
	Register("test-wire", func(cfg Config) Policy { wp.base.init(cfg); return wp })
	cfg := testConfig()
	cfg.M, cfg.N = 6, 3
	c := mustCycle(t, "test-wire", cfg, nil)

	// LostRace: TL of the queue lost, Dephase on the queue chosen.
	next, sleep := c.LostRace(5, 1, xrand.New(1))
	if next != 2 || sleep != 101.5 || wp.dephase != [4]float64{5, 2, 101, 1} {
		t.Fatalf("LostRace: next %d sleep %v dephase %v; want 2, TL(1)+0.5, Dephase(5, 2, 101, true)", next, sleep, wp.dephase)
	}
	// Finish at home: the observed TS, de-phased on the same queue.
	next, sleep = c.Finish(1, 1, 1e-6, 1e-6, 0, 0)
	if next != 1 || sleep != 21.5 || wp.dephase != [4]float64{1, 1, 21, 0} {
		t.Fatalf("Finish at home: next %d sleep %v dephase %v", next, sleep, wp.dephase)
	}
	// Finish on a foreign queue: home, on the HOME queue's TS — not the TS
	// ObserveCycle returned for the queue served.
	next, sleep = c.Finish(5, 0, 1e-6, 1e-6, 0, 0)
	if next != 2 || sleep != 12.5 || wp.dephase != [4]float64{5, 2, 12, 0} {
		t.Fatalf("Finish abroad: next %d sleep %v dephase %v; want home 2 on TS(2)+0.5", next, sleep, wp.dephase)
	}
	if c.Home(5) != 2 || !c.ClaimTurn(0) || c.ClaimTurn(2) {
		t.Fatalf("Home/ClaimTurn do not reach the group: home %d", c.Home(5))
	}
	// Without groups: modulo homes, every claim admitted.
	cfg.M, cfg.N = 4, 3
	plain := mustCycle(t, NameAdaptive, cfg, nil)
	if plain.Group() != nil || plain.Home(5) != 2 || !plain.ClaimTurn(2) {
		t.Fatalf("adaptive: group %v home %d", plain.Group(), plain.Home(5))
	}
}

func TestCycleFinishPublishes(t *testing.T) {
	cfg := testConfig()
	cfg.M, cfg.N, cfg.Bus = 2, 2, telemetry.NewBus(2, 4)
	f := faults.New(4, 2)
	c := mustCycle(t, NameAdaptive, cfg, f)
	bus := cfg.Bus

	c.Finish(1, 0, 30e-6, 10e-6, 0.25, 1.5)
	rho := bus.Get(telemetry.Rho, 0)
	if rho <= 0 || rho != c.Policy().Rho(0) {
		t.Fatalf("rho gauge %v, policy %v", rho, c.Policy().Rho(0))
	}
	if bus.Thread(telemetry.BusySeconds, 1) != 0.25 || bus.Thread(telemetry.Heartbeat, 1) != 1.5 || bus.Load(telemetry.PubSeq, 0) != 1 || bus.Load(telemetry.PubSeq, 1) != 0 {
		t.Fatalf("busy %v heartbeat %v pub %d/%d", bus.Thread(telemetry.BusySeconds, 1), bus.Thread(telemetry.Heartbeat, 1), bus.Load(telemetry.PubSeq, 0), bus.Load(telemetry.PubSeq, 1))
	}
	if !c.Publishes(0) || c.Dark(0) {
		t.Fatal("healthy queue reads frozen or dark")
	}

	// Through a freeze the queue's gauges hold, the estimate keeps moving
	// and the thread's heartbeat keeps beating.
	f.FreezeTelemetry(0, true)
	f.SetQueueDark(1, true)
	if c.Publishes(0) || !c.Publishes(1) || !c.Dark(1) || c.Dark(0) {
		t.Fatal("Publishes/Dark do not follow the injector per queue")
	}
	c.Finish(1, 0, 1e-6, 90e-6, 0.5, 2.5)
	if bus.Get(telemetry.Rho, 0) != rho || bus.Thread(telemetry.BusySeconds, 1) != 0.25 || bus.Load(telemetry.PubSeq, 0) != 1 {
		t.Fatalf("frozen queue published: rho %v busy %v pub %d", bus.Get(telemetry.Rho, 0), bus.Thread(telemetry.BusySeconds, 1), bus.Load(telemetry.PubSeq, 0))
	}
	if c.Policy().Rho(0) == rho {
		t.Fatal("the estimate froze with the telemetry")
	}
	if bus.Thread(telemetry.Heartbeat, 1) != 2.5 {
		t.Fatalf("heartbeat %v did not beat through the freeze", bus.Thread(telemetry.Heartbeat, 1))
	}

	// No bus: nothing to publish, the decisions still come back.
	cfg.Bus = nil
	quiet := mustCycle(t, NameAdaptive, cfg, nil)
	if quiet.Publishes(0) {
		t.Fatal("Publishes without a bus")
	}
	if next, sleep := quiet.Finish(0, 1, 1e-6, 9e-6, 0, 0); next != 1 || sleep != quiet.Policy().TS(1) {
		t.Fatalf("no bus: next %d sleep %v", next, sleep)
	}
}

func TestCyclePlacement(t *testing.T) {
	cfg := testConfig()
	cfg.M, cfg.N = 4, 2

	placing := mustCycle(t, NameRMetronome, cfg, nil)
	if !placing.CanPlace() {
		t.Fatal("rmetronome cannot place")
	}
	if got := placing.Placement(4); !PlacementEqual(got, []int{2, 2}) {
		t.Fatalf("initial placement %v", got)
	}
	placing.Adopt([]int{3, 1}, 4)
	if got := placing.Placement(99); !PlacementEqual(got, []int{3, 1}) {
		t.Fatalf("placing discipline holds %v after Adopt([3 1]); the team-size argument must not matter", got)
	}
	if placing.Home(2) != 0 || placing.Group().GroupSize(0) != 3 {
		t.Fatalf("layout did not move: home(2) %d size(0) %d", placing.Home(2), placing.Group().GroupSize(0))
	}

	roaming := mustCycle(t, NameAdaptive, cfg, nil)
	if roaming.CanPlace() {
		t.Fatal("adaptive claims it places")
	}
	roaming.Adopt([]int{4, 1}, 5)
	if got := roaming.Policy().TeamSize(); got != 5 {
		t.Fatalf("roaming discipline took team size %d, want the plan's total 5", got)
	}
	if got := roaming.Placement(5); !PlacementEqual(got, []int{3, 2}) {
		t.Fatalf("roaming placement %v, want the balanced split of 5", got)
	}
}
