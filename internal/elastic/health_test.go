package elastic

import (
	"testing"

	"metronome/internal/telemetry"
)

// fakeHomed is a placement-capable team that also maps threads to homes:
// the full substrate surface the health layer exiles through.
type fakeHomed struct {
	fakeActuator
	homes map[int]int
}

func (f *fakeHomed) ThreadHome(id int) int {
	if h, ok := f.homes[id]; ok {
		return h
	}
	return id % 2
}

func newHealthRig(minThreads, budget int, mut func(*Config)) (*telemetry.Bus, *fakeHomed, *Controller) {
	bus := telemetry.NewBus(2, budget)
	bus.Set(telemetry.Capacity, 0, 4096)
	bus.Set(telemetry.Capacity, 1, 4096)
	team := &fakeHomed{fakeActuator: fakeActuator{fakeTeam: fakeTeam{size: minThreads, floor: 2}}}
	cfg := DefaultConfig(minThreads, budget)
	cfg.Placement = true
	cfg.Health = true
	if mut != nil {
		mut(&cfg)
	}
	return bus, team, New(bus, team, cfg)
}

// beat advances every active member's heartbeat and both queues' publish
// sequences — a healthy tick's worth of bus traffic.
func beat(bus *telemetry.Bus, team int, now float64) {
	for i := 0; i < team; i++ {
		bus.SetThread(telemetry.Heartbeat, i, now)
	}
	bus.Add(telemetry.PubSeq, 0, 1)
	bus.Add(telemetry.PubSeq, 1, 1)
}

// Satellite: Tick rejects non-monotonic and duplicate timestamps — the PI
// state must not fold a zero-or-negative window.
func TestTickRejectsNonMonotonicNow(t *testing.T) {
	bus, team, c := newRig(2, 8)
	c.Tick(0)
	bus.Set(telemetry.Occupancy, 1, 0.4*4096)
	d1 := c.Tick(0.001)
	if d1.Applied <= 2 {
		t.Fatalf("setup failed to grow: %+v", d1)
	}
	sizeAfter := team.size
	resizes := len(team.resizes)
	// Same timestamp again, then a timestamp in the past: both must be
	// no-ops returning the recorded decision.
	for _, now := range []float64{0.001, 0.0005, 0} {
		d := c.Tick(now)
		if d.At != d1.At || d.Applied != d1.Applied {
			t.Fatalf("tick at %v not rejected: %+v", now, d)
		}
	}
	if team.size != sizeAfter || len(team.resizes) != resizes {
		t.Fatalf("rejected ticks actuated: size %d, resizes %v", team.size, team.resizes)
	}
}

func TestStaleQueueDetected(t *testing.T) {
	bus, _, c := newHealthRig(4, 8, nil)
	c.Tick(0)
	now := 0.0
	var d Decision
	for i := 0; i < 12; i++ {
		// Queue 0 publishes every tick; queue 1 went quiet at the start.
		for id := 0; id < 4; id++ {
			bus.SetThread(telemetry.Heartbeat, id, now+1)
		}
		bus.Add(telemetry.PubSeq, 0, 1)
		now += 0.001
		d = c.Tick(now)
	}
	if d.StaleMask != 1<<1 {
		t.Fatalf("stale mask %b, want queue 1 only", d.StaleMask)
	}
	if d.SafeMode {
		t.Fatal("one stale queue must not trip safe mode")
	}
	if rep := c.Report(now); rep.StaleQueueTicks == 0 {
		t.Fatal("stale queue ticks not accounted")
	}
}

// A fully dark bus drives the controller to the SafeTeam static size
// (grow-only), and fresh publishes bring it back to closed-loop control.
func TestSafeModeHoldsSafeTeam(t *testing.T) {
	bus, team, c := newHealthRig(3, 8, func(cfg *Config) { cfg.SafeTeam = 6 })
	c.Tick(0)
	now := 0.0
	var d Decision
	for i := 0; i < 12; i++ { // nothing publishes: the bus is dark
		now += 0.001
		d = c.Tick(now)
	}
	if !d.SafeMode {
		t.Fatalf("dark bus never tripped safe mode: %+v", d)
	}
	if team.size != 6 {
		t.Fatalf("safe mode sized team to %d, want SafeTeam 6", team.size)
	}
	if rep := c.Report(now); rep.SafeTicks == 0 {
		t.Fatal("safe ticks not accounted")
	}
	// Recovery: the bus publishes again; safe mode must clear.
	for i := 0; i < 4; i++ {
		beat(bus, team.size, now+1)
		now += 0.001
		d = c.Tick(now)
	}
	if d.SafeMode {
		t.Fatal("safe mode held after the bus recovered")
	}
}

// Safe mode never shrinks: a team already above SafeTeam holds its size.
func TestSafeModeIsGrowOnly(t *testing.T) {
	bus, team, c := newHealthRig(3, 8, func(cfg *Config) { cfg.SafeTeam = 4 })
	c.Tick(0)
	// Grow to 7 on real signal first.
	now := 0.0
	for i := 0; i < 10; i++ {
		bus.Set(telemetry.Occupancy, 1, 0.6*4096)
		beat(bus, team.size, now+1)
		now += 0.001
		c.Tick(now)
	}
	if team.size <= 4 {
		t.Fatalf("setup failed to grow past SafeTeam: %d", team.size)
	}
	grown := team.size
	for i := 0; i < 12; i++ { // bus goes dark
		now += 0.001
		c.Tick(now)
	}
	if team.size != grown {
		t.Fatalf("safe mode moved the team %d -> %d (SafeTeam 4)", grown, team.size)
	}
}

// A member whose heartbeat freezes past the liveness bound is exiled: its
// home queue gains one reinforcing member through a corrective plan, and
// recovery clears the latch.
func TestStragglerExiledAndRecovered(t *testing.T) {
	bus, team, c := newHealthRig(4, 8, nil)
	c.Tick(0)
	now := 0.0
	tickHealthy := func(except int) Decision {
		for id := 0; id < team.size; id++ {
			if id != except {
				bus.SetThread(telemetry.Heartbeat, id, now+1)
			}
		}
		bus.Add(telemetry.PubSeq, 0, 1)
		bus.Add(telemetry.PubSeq, 1, 1)
		now += 0.001
		return c.Tick(now)
	}
	for i := 0; i < 4; i++ {
		tickHealthy(-1) // warm heartbeats so every member has beaten
	}
	sizeBefore := team.size
	homeQ := team.ThreadHome(1)
	planBefore := append([]int(nil), team.Placement()...)
	var exiled bool
	for i := 0; i < 20 && !exiled; i++ {
		d := tickHealthy(1) // thread 1 stalls
		exiled = len(d.Exiled) == 1 && d.Exiled[0] == 1
	}
	if !exiled {
		t.Fatal("frozen heartbeat never exiled the member")
	}
	if team.size != sizeBefore+1 {
		t.Fatalf("exile sized team %d -> %d, want +1", sizeBefore, team.size)
	}
	if team.plan[homeQ] != planBefore[homeQ]+1 {
		t.Fatalf("corrective plan %v did not reinforce home %d of %v", team.plan, homeQ, planBefore)
	}
	if rep := c.Report(now); rep.Exiles != 1 {
		t.Fatalf("report exiles = %d, want 1", rep.Exiles)
	}
	// No re-exile while the latch holds.
	for i := 0; i < 20; i++ {
		if d := tickHealthy(1); len(d.Exiled) != 0 {
			t.Fatalf("latched straggler exiled again: %+v", d)
		}
	}
	// Recovery: the heartbeat moves, the latch clears.
	var recovered bool
	for i := 0; i < 4 && !recovered; i++ {
		d := tickHealthy(-1)
		for _, id := range d.Recovered {
			recovered = recovered || id == 1
		}
	}
	if !recovered {
		t.Fatal("moving heartbeat never cleared the exile latch")
	}
}

// Without a placement-capable substrate the exile degrades to a scalar grow.
func TestExileScalarFallback(t *testing.T) {
	bus := telemetry.NewBus(2, 8)
	bus.Set(telemetry.Capacity, 0, 4096)
	bus.Set(telemetry.Capacity, 1, 4096)
	team := &fakeTeam{size: 4, floor: 2}
	cfg := DefaultConfig(4, 8)
	cfg.Health = true
	c := New(bus, team, cfg)
	c.Tick(0)
	now := 0.0
	for i := 0; i < 20 && team.size == 4; i++ {
		for id := 0; id < 4; id++ {
			if id != 2 {
				bus.SetThread(telemetry.Heartbeat, id, now+1)
			}
		}
		if i < 4 {
			bus.SetThread(telemetry.Heartbeat, 2, now+1) // beat a few times before stalling
		}
		bus.Add(telemetry.PubSeq, 0, 1)
		bus.Add(telemetry.PubSeq, 1, 1)
		now += 0.001
		c.Tick(now)
	}
	if team.size != 5 {
		t.Fatalf("scalar exile fallback sized team to %d, want 5", team.size)
	}
}

// Dark-queue loss (drops rising while the ring reads empty) must not feed
// the loss override — growing cannot serve a blacked-out queue.
func TestDarkLossExcludedFromOverride(t *testing.T) {
	bus, team, c := newHealthRig(4, 8, nil)
	c.Tick(0)
	now := 0.0
	drops := uint64(0)
	var d Decision
	for i := 0; i < 20; i++ {
		drops += 1000
		bus.Store(telemetry.Drops, 0, drops) // queue 0 overflows while reading empty
		beat(bus, team.size, now+1)
		now += 0.001
		d = c.Tick(now)
		if d.LossDelta != 0 {
			t.Fatalf("dark loss leaked into the override: %+v", d)
		}
	}
	if d.DarkLoss == 0 {
		t.Fatal("dark loss never classified")
	}
	if team.size != 4 {
		t.Fatalf("controller grew to %d chasing a dark queue", team.size)
	}
}

// panicTeam panics on its first resize — the watchdog must swallow it.
type panicTeam struct {
	fakeTeam
	armed bool
}

func (p *panicTeam) SetTeamSize(m int) int {
	if p.armed {
		p.armed = false
		panic("injected actuation fault")
	}
	return p.fakeTeam.SetTeamSize(m)
}

func TestWatchdogRecoversTickPanic(t *testing.T) {
	bus := telemetry.NewBus(2, 8)
	bus.Set(telemetry.Capacity, 0, 4096)
	bus.Set(telemetry.Capacity, 1, 4096)
	team := &panicTeam{fakeTeam: fakeTeam{size: 2, floor: 2}}
	cfg := DefaultConfig(2, 8)
	cfg.Health = true
	c := New(bus, team, cfg)
	c.Tick(0)
	good := c.Tick(0.001)
	team.armed = true
	bus.Set(telemetry.Occupancy, 1, 0.5*4096) // forces a grow, which panics
	bus.Add(telemetry.PubSeq, 0, 1)
	bus.Add(telemetry.PubSeq, 1, 1)
	d := c.Tick(0.002)
	if d.At != good.At || d.Applied != good.Applied {
		t.Fatalf("watchdog did not return the last good decision: %+v", d)
	}
	if rep := c.Report(0.002); rep.Panics != 1 {
		t.Fatalf("panics = %d, want 1", rep.Panics)
	}
	// The disarmed team actuates normally on the next tick.
	bus.Add(telemetry.PubSeq, 0, 1)
	bus.Add(telemetry.PubSeq, 1, 1)
	if d := c.Tick(0.003); d.Applied <= 2 {
		t.Fatalf("controller did not recover after the panic: %+v", d)
	}
}

// The token bucket bounds applied actuations when the bus whipsaws.
func TestActuationRateLimit(t *testing.T) {
	bus, team, c := newHealthRig(2, 8, func(cfg *Config) {
		cfg.MaxActuationsPerSec = 100 // 0.1 tokens per 1 ms tick
		cfg.Cooldown = 0.001          // let shrinks through: the bucket is the limiter
	})
	c.Tick(0)
	now := 0.0
	actuations := 0
	prev := team.size
	for i := 0; i < 100; i++ {
		// Whipsaw: alternate a full ring and an empty one every tick.
		if i%2 == 0 {
			bus.Set(telemetry.Occupancy, 0, 0.9*4096)
		} else {
			bus.Set(telemetry.Occupancy, 0, 0)
		}
		beat(bus, team.size, now+1)
		now += 0.001
		d := c.Tick(now)
		if d.Applied != prev {
			actuations++
			prev = d.Applied
		}
	}
	// 100 ms at 100/s refills 10 tokens, plus the 2-token cold bucket.
	if actuations > 12 {
		t.Fatalf("%d actuations in 100 ms against a 100/s limit", actuations)
	}
	if actuations == 0 {
		t.Fatal("rate limit blocked everything")
	}
}
