package elastic

import (
	"testing"

	"metronome/internal/telemetry"
)

// fakeTeam records resizes and clamps to a queue floor like the substrates.
type fakeTeam struct {
	size    int
	floor   int
	resizes []int
}

func (f *fakeTeam) TeamSize() int { return f.size }
func (f *fakeTeam) SetTeamSize(m int) int {
	if m < f.floor {
		m = f.floor
	}
	f.size = m
	f.resizes = append(f.resizes, m)
	return m
}

func newRig(minThreads, budget int) (*telemetry.Bus, *fakeTeam, *Controller) {
	bus := telemetry.NewBus(2, budget)
	bus.Set(telemetry.Capacity, 0, 4096)
	bus.Set(telemetry.Capacity, 1, 4096)
	team := &fakeTeam{size: minThreads, floor: 2}
	cfg := DefaultConfig(minThreads, budget)
	return bus, team, New(bus, team, cfg)
}

func TestGrowsOnOccupancySpike(t *testing.T) {
	bus, team, c := newRig(2, 8)
	c.Tick(0) // calibration tick
	// Flash crowd: the worst queue's wake occupancy spikes to 40% of the
	// ring against a 10% target.
	bus.Set(telemetry.Occupancy, 1, 0.4*4096)
	d := c.Tick(0.001)
	if d.Applied <= 2 {
		t.Fatalf("no growth on 4x occupancy target: %+v", d)
	}
	if team.size != d.Applied {
		t.Fatalf("team %d != applied %d", team.size, d.Applied)
	}
}

func TestLossDrivesIntegralGrowth(t *testing.T) {
	bus, _, c := newRig(2, 8)
	c.Tick(0)
	// Occupancy at target (no proportional pressure) but persistent loss.
	bus.Set(telemetry.Occupancy, 0, 0.10*4096)
	drops := uint64(0)
	now := 0.0
	grewTo := 0
	for i := 0; i < 20; i++ {
		drops += 500
		bus.Store(telemetry.Drops, 0, drops)
		now += 0.001
		d := c.Tick(now)
		grewTo = d.Applied
	}
	if grewTo < 6 {
		t.Fatalf("sustained loss only grew the team to %d of budget 8", grewTo)
	}
}

func TestShrinksAfterTroughWithCooldown(t *testing.T) {
	bus, team, c := newRig(2, 8)
	c.Tick(0)
	bus.Set(telemetry.Occupancy, 0, 0.5*4096)
	now := 0.001
	c.Tick(now)
	peak := team.size
	if peak <= 2 {
		t.Fatalf("setup failed to grow (size %d)", peak)
	}
	// Trough: occupancy collapses. The integral must unwind and the team
	// shrink back — but never faster than one shrink per cooldown.
	bus.Set(telemetry.Occupancy, 0, 0)
	cd := c.Config().Cooldown
	lastShrinkAt := -cd
	size := peak
	for i := 0; i < 2000 && size > 2; i++ {
		now += 0.001
		d := c.Tick(now)
		if d.Applied < size {
			if dt := d.At - lastShrinkAt; dt < cd {
				t.Fatalf("shrink after %.4fs, cooldown %.4fs", dt, cd)
			}
			lastShrinkAt = d.At
		}
		size = d.Applied
	}
	if size != 2 {
		t.Fatalf("team never shrank back to the floor: %d", size)
	}
}

func TestBudgetIsAHardCap(t *testing.T) {
	bus, team, c := newRig(2, 4)
	c.Tick(0)
	bus.Set(telemetry.Occupancy, 0, 4096) // ring full
	bus.Store(telemetry.Drops, 0, 1e6)
	now := 0.0
	for i := 0; i < 50; i++ {
		now += 0.001
		if d := c.Tick(now); d.Applied > 4 {
			t.Fatalf("budget 4 exceeded: %+v", d)
		}
	}
	if team.size > 4 {
		t.Fatalf("team %d over budget", team.size)
	}
}

func TestHysteresisHoldsInDeadband(t *testing.T) {
	bus, team, c := newRig(3, 8)
	c.Tick(0)
	// Occupancy exactly at target: zero error, the team must not move.
	bus.Set(telemetry.Occupancy, 0, 0.10*4096)
	bus.Set(telemetry.Occupancy, 1, 0.10*4096)
	now := 0.0
	for i := 0; i < 200; i++ {
		now += 0.001
		c.Tick(now)
	}
	if got := len(team.resizes); got != 0 {
		t.Fatalf("%d resizes on zero error (deadband broken): %v", got, team.resizes)
	}
}

func TestCounterResetResyncsSilently(t *testing.T) {
	bus, _, c := newRig(2, 8)
	c.Tick(0)
	bus.Store(telemetry.Drops, 0, 1000)
	c.Tick(0.001)
	// Warm-up alignment resets the substrate counters; the next delta must
	// not underflow into a huge unsigned loss.
	bus.Store(telemetry.Drops, 0, 0)
	d := c.Tick(0.002)
	if d.LossDelta != 0 {
		t.Fatalf("loss delta after counter reset = %d, want 0", d.LossDelta)
	}
}

// fakeActuator is a fakeTeam that also accepts placement plans, clamping
// entries >= 1 like the substrates.
type fakeActuator struct {
	fakeTeam
	plan       []int
	placements int
}

func (f *fakeActuator) CanPlace() bool { return true }

func (f *fakeActuator) Placement() []int {
	if f.plan != nil {
		return append([]int(nil), f.plan...)
	}
	// Balanced split over the two bus queues the rigs use.
	return []int{(f.size + 1) / 2, f.size / 2}
}

func (f *fakeActuator) ApplyPlacement(perQueue []int) int {
	total := 0
	f.plan = make([]int, len(perQueue))
	for q, s := range perQueue {
		if s < 1 {
			s = 1
		}
		f.plan[q] = s
		total += s
	}
	f.size = total
	f.placements++
	return total
}

func newPlacementRig(minThreads, budget int) (*telemetry.Bus, *fakeActuator, *Controller) {
	bus := telemetry.NewBus(2, budget)
	bus.Set(telemetry.Capacity, 0, 4096)
	bus.Set(telemetry.Capacity, 1, 4096)
	team := &fakeActuator{fakeTeam: fakeTeam{size: minThreads, floor: 2}}
	cfg := DefaultConfig(minThreads, budget)
	cfg.Placement = true
	return bus, team, New(bus, team, cfg)
}

// The placement law must apportion members toward the queue whose EWMA
// wake occupancy carries the demand, through the Actuator.
func TestPlacementApportionsByOccupancyShare(t *testing.T) {
	bus, team, c := newPlacementRig(2, 8)
	c.Tick(0)
	// Queue 1 carries a sustained 40%-of-ring backlog, queue 0 is idle.
	now := 0.0
	var d Decision
	for i := 0; i < 40; i++ {
		bus.Set(telemetry.Occupancy, 1, 0.4*4096)
		bus.Set(telemetry.Rho, 1, 0.9)
		now += 0.001
		d = c.Tick(now)
	}
	if team.placements == 0 {
		t.Fatal("no placement ever actuated")
	}
	if len(team.plan) != 2 || team.plan[1] <= team.plan[0] {
		t.Fatalf("plan %v does not favour the hot queue", team.plan)
	}
	if sum := team.plan[0] + team.plan[1]; sum != team.size {
		t.Fatalf("plan %v does not sum to team %d", team.plan, team.size)
	}
	if d.Applied != team.size {
		t.Fatalf("decision applied %d != team %d", d.Applied, team.size)
	}
}

// With the total pinned (MinThreads = Budget), only rebalances can act —
// and a demand shift must migrate members, rate-limited by the cooldown.
func TestPlacementRebalancesAtPinnedTotal(t *testing.T) {
	bus, team, c := newPlacementRig(6, 6)
	c.Tick(0)
	now := 0.0
	hot := func(q int, ticks int) {
		for i := 0; i < ticks; i++ {
			bus.Set(telemetry.Occupancy, q, 0.3*4096)
			bus.Set(telemetry.Occupancy, 1-q, 0)
			bus.Set(telemetry.Rho, q, 0.9)
			bus.Set(telemetry.Rho, 1-q, 0.05)
			now += 0.001
			c.Tick(now)
		}
	}
	hot(0, 60)
	if team.plan == nil || team.plan[0] <= team.plan[1] {
		t.Fatalf("plan %v does not favour queue 0", team.plan)
	}
	rebalancesAfterFirst := c.Report(now).Rebalances
	if rebalancesAfterFirst == 0 {
		t.Fatal("no rebalance counted")
	}
	// The demand flips: members must migrate the other way without any
	// size change.
	hot(1, 60)
	if team.plan[1] <= team.plan[0] {
		t.Fatalf("plan %v did not follow the demand shift", team.plan)
	}
	if team.size != 6 {
		t.Fatalf("pinned total moved to %d", team.size)
	}
	rep := c.Report(now)
	if rep.Resizes != 0 {
		t.Fatalf("%d resizes at a pinned total", rep.Resizes)
	}
	if rep.FinalPlan == nil {
		t.Fatal("report carries no final plan")
	}
}

// A team hand-placed before the controller attaches must be rebalanced
// away from: the baseline comes from the actual placement, not an assumed
// balanced plan.
func TestControllerCorrectsPreexistingPlacement(t *testing.T) {
	bus := telemetry.NewBus(2, 8)
	bus.Set(telemetry.Capacity, 0, 4096)
	bus.Set(telemetry.Capacity, 1, 4096)
	team := &fakeActuator{fakeTeam: fakeTeam{size: 6, floor: 2}}
	team.ApplyPlacement([]int{5, 1}) // hand-placed skew
	before := team.placements
	cfg := DefaultConfig(6, 6)
	cfg.Placement = true
	c := New(bus, team, cfg)
	c.Tick(0)
	// Symmetric (zero) demand: the apportionment is the balanced [3 3],
	// which differs from the real [5 1] baseline, so the first eligible
	// tick past the cooldown must rebalance.
	now := 0.0
	for i := 0; i < 40 && team.placements == before; i++ {
		now += 0.001
		c.Tick(now)
	}
	if team.placements == before {
		t.Fatal("pre-existing skew never corrected")
	}
	if team.plan[0] != 3 || team.plan[1] != 3 {
		t.Fatalf("correction applied %v, want [3 3]", team.plan)
	}
}

// Rebalances are rate-limited by the cooldown: two consecutive ticks with
// flipped demand must not both actuate.
func TestRebalanceCooldown(t *testing.T) {
	bus, team, c := newPlacementRig(6, 6)
	c.Tick(0)
	now := 0.0
	step := func(q int) {
		bus.Set(telemetry.Occupancy, q, 0.3*4096)
		bus.Set(telemetry.Occupancy, 1-q, 0)
		now += 0.001
		c.Tick(now)
	}
	for i := 0; i < 40; i++ {
		step(0)
	}
	count := team.placements
	step(1) // inside the cooldown window of the last rebalance? force two quick flips
	step(0)
	step(1)
	if team.placements > count+1 {
		t.Fatalf("placements went %d -> %d across three ticks (cooldown %.3fs broken)",
			count, team.placements, c.Config().Cooldown)
	}
}

// The slope feedforward must pre-provision on a rising occupancy edge that
// is still below the target — the plain PI would not have grown yet.
func TestFeedforwardPreProvisionsOnRisingEdge(t *testing.T) {
	mk := func(gain float64) (*telemetry.Bus, *fakeTeam, *Controller) {
		bus := telemetry.NewBus(2, 8)
		bus.Set(telemetry.Capacity, 0, 4096)
		bus.Set(telemetry.Capacity, 1, 4096)
		team := &fakeTeam{size: 2, floor: 2}
		cfg := DefaultConfig(2, 8)
		cfg.SlopeGain = gain
		return bus, team, New(bus, team, cfg)
	}
	ramp := func(bus *telemetry.Bus, c *Controller) (grewAt float64, slopeSeen float64) {
		c.Tick(0)
		now := 0.0
		for i := 1; i <= 40; i++ {
			// Rising edge: occupancy climbs 1% of the ring per tick — it
			// crosses the 10% target at tick 10, but the plain PI's
			// deadband only clears around 17.5% while the slope term sees
			// the climb from the first ticks.
			bus.Set(telemetry.Occupancy, 0, float64(i)*0.01*4096)
			now += 0.001
			d := c.Tick(now)
			if d.Slope > slopeSeen {
				slopeSeen = d.Slope
			}
			if d.Resized && grewAt == 0 {
				grewAt = now
			}
		}
		return grewAt, slopeSeen
	}
	busFF, _, cFF := mk(32)
	grewAtFF, slope := ramp(busFF, cFF)
	busPI, _, cPI := mk(0)
	grewAtPI, _ := ramp(busPI, cPI)
	if slope <= 0 {
		t.Fatal("no positive slope observed on a rising edge")
	}
	if grewAtFF == 0 {
		t.Fatal("feedforward never pre-provisioned on the edge")
	}
	// Both laws eventually saturate at the budget; the feedforward's whole
	// contribution is moving the *first* grow earlier on the climb.
	if grewAtPI != 0 && grewAtPI <= grewAtFF {
		t.Fatalf("plain PI grew at %.3fs, not later than feedforward's %.3fs", grewAtPI, grewAtFF)
	}
}

// The slope gauges republish to the bus for observers.
func TestSlopeGaugesPublished(t *testing.T) {
	bus, _, c := newRig(2, 8)
	c.Tick(0)
	bus.Set(telemetry.Occupancy, 0, 0.2*4096)
	c.Tick(0.001)
	if bus.Get(telemetry.OccSlope, 0) <= 0 {
		t.Fatalf("occupancy slope gauge = %v, want > 0 after a rise", bus.Get(telemetry.OccSlope, 0))
	}
	var snap telemetry.Snapshot
	bus.Sample(&snap)
	if snap.Gauge[telemetry.OccSlope][0] != bus.Get(telemetry.OccSlope, 0) {
		t.Fatal("snapshot does not carry the slope gauge")
	}
}

// Without Placement (or without an Actuator team), the controller keeps
// the scalar SetTeamSize path and Decisions carry no plan.
func TestScalarPathWithoutPlacement(t *testing.T) {
	bus, team, c := newRig(2, 8)
	c.Tick(0)
	bus.Set(telemetry.Occupancy, 0, 0.5*4096)
	d := c.Tick(0.001)
	if !d.Resized || d.Plan != nil || d.Rebalanced {
		t.Fatalf("scalar path decision carries placement state: %+v", d)
	}
	if len(team.resizes) == 0 {
		t.Fatal("scalar resize not applied")
	}
}

func TestReportAccountsThreadSeconds(t *testing.T) {
	bus, team, c := newRig(2, 8)
	c.Tick(0)
	bus.Set(telemetry.Occupancy, 0, 0)
	for i := 1; i <= 10; i++ {
		c.Tick(float64(i) * 0.001)
	}
	rep := c.Report(0.010)
	want := float64(team.size) * 0.010
	if diff := rep.ThreadSeconds - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("thread-seconds %.6f, want %.6f", rep.ThreadSeconds, want)
	}
	if rep.MeanThreads < 1.9 || rep.MeanThreads > 2.1 {
		t.Fatalf("mean threads %.2f, want ~2", rep.MeanThreads)
	}
	c.ResetStats(0.010)
	if rep := c.Report(0.010); rep.ThreadSeconds != 0 {
		t.Fatalf("reset window still holds %.6f thread-seconds", rep.ThreadSeconds)
	}
}

func TestArrivalRateGaugePublished(t *testing.T) {
	bus, _, c := newRig(2, 8)
	c.Tick(0) // calibration tick baselines the Rx counters
	bus.Store(telemetry.Rx, 0, 5000)
	bus.Store(telemetry.Rx, 1, 1000)
	c.Tick(0.001)
	if got, want := bus.Get(telemetry.ArrivalRate, 0), 5000.0/0.001; got != want {
		t.Errorf("queue 0 arrival rate = %v, want %v", got, want)
	}
	if got, want := bus.Get(telemetry.ArrivalRate, 1), 1000.0/0.001; got != want {
		t.Errorf("queue 1 arrival rate = %v, want %v", got, want)
	}
	// Next window at a different rate: the gauge tracks the delta, not the
	// cumulative counter.
	bus.Store(telemetry.Rx, 0, 5500)
	c.Tick(0.002)
	if got, want := bus.Get(telemetry.ArrivalRate, 0), 500.0/0.001; got != want {
		t.Errorf("second-window rate = %v, want %v", got, want)
	}
}

func TestAvgOccSignalSwitch(t *testing.T) {
	// With AvgOcc the controller must read the time-averaged gauge and
	// ignore the point sample entirely.
	bus := telemetry.NewBus(2, 8)
	bus.Set(telemetry.Capacity, 0, 4096)
	bus.Set(telemetry.Capacity, 1, 4096)
	team := &fakeTeam{size: 2, floor: 2}
	cfg := DefaultConfig(2, 8)
	cfg.AvgOcc = true
	c := New(bus, team, cfg)
	c.Tick(0)
	// Point gauge screams, averaged gauge is calm: no growth.
	bus.Set(telemetry.Occupancy, 1, 0.9*4096)
	bus.Set(telemetry.OccAvg, 1, 0.05*4096)
	d := c.Tick(0.001)
	if d.Resized {
		t.Fatalf("grew on the point gauge despite AvgOcc: %+v", d)
	}
	// Averaged gauge spikes: growth.
	bus.Set(telemetry.OccAvg, 1, 0.5*4096)
	d = c.Tick(0.002)
	if d.Applied <= 2 {
		t.Fatalf("no growth on averaged-occupancy spike: %+v", d)
	}
}

func newObjectiveRig(obj Objective, start int) (*telemetry.Bus, *fakeTeam, *Controller) {
	bus := telemetry.NewBus(2, 8)
	bus.Set(telemetry.Capacity, 0, 4096)
	bus.Set(telemetry.Capacity, 1, 4096)
	team := &fakeTeam{size: start, floor: 2}
	cfg := DefaultConfig(2, 8)
	cfg.Objective = obj
	return bus, team, New(bus, team, cfg)
}

// TestJoulesObjectivePrefersSmallerTeamAtEqualLoss: at a lossless trough
// where occupancy sits moderately above the thread-seconds target, the
// joules objective's inflated target (idle-core watts make small teams
// cheaper) must settle a strictly smaller team than the thread-seconds
// law does from the same signals.
func TestJoulesObjectivePrefersSmallerTeamAtEqualLoss(t *testing.T) {
	busTS, _, ts := newObjectiveRig(ObjectiveThreadSeconds, 6)
	busJ, _, j := newObjectiveRig(ObjectiveJoules, 6)
	ts.Tick(0)
	j.Tick(0)
	now := 0.0
	var lastTS, lastJ Decision
	for i := 0; i < 400; i++ {
		now += 0.001
		// Occupancy 13% of the ring: above the 10% thread-seconds target
		// (hold/grow pressure) but below the energy-inflated one at trough
		// duty (shrink pressure). No drops anywhere: equal, zero loss.
		for _, bus := range []*telemetry.Bus{busTS, busJ} {
			bus.Set(telemetry.Occupancy, 0, 0.13*4096)
			bus.Set(telemetry.Occupancy, 1, 0.13*4096)
		}
		lastTS = ts.Tick(now)
		lastJ = j.Tick(now)
	}
	if lastJ.Applied >= lastTS.Applied {
		t.Fatalf("joules team %d !< thread-seconds team %d at equal (zero) loss",
			lastJ.Applied, lastTS.Applied)
	}
	if lastJ.Applied < 2 {
		t.Fatalf("joules team %d under the floor", lastJ.Applied)
	}
}

// TestJoulesLossOverrideStillWins: under the joules objective, persistent
// loss must out-shout the energy saving exactly as it does thread-seconds
// — the override adds to the raw error, not the scaled target.
func TestJoulesLossOverrideStillWins(t *testing.T) {
	bus, _, c := newObjectiveRig(ObjectiveJoules, 2)
	c.Tick(0)
	bus.Set(telemetry.Occupancy, 0, 0.05*4096) // below even the base target
	drops := uint64(0)
	now := 0.0
	grewTo := 0
	for i := 0; i < 20; i++ {
		drops += 500
		bus.Store(telemetry.Drops, 0, drops)
		now += 0.001
		grewTo = c.Tick(now).Applied
	}
	if grewTo < 6 {
		t.Fatalf("sustained loss under joules objective only grew the team to %d of budget 8", grewTo)
	}
}

// TestWattsGaugeAndReportJoules checks the energy accounting spine: every
// tick models team watts (parked budget cores included), the report
// integrates them into joules, and a busier team models hotter.
func TestWattsGaugeAndReportJoules(t *testing.T) {
	bus, _, c := newObjectiveRig(ObjectiveThreadSeconds, 4)
	c.Tick(0)
	now := 0.0
	busy := 0.0
	var idleW, busyW float64
	cur := 0
	for i := 0; i < 100; i++ {
		now += 0.001
		// Hold occupancy on target so the team size stays put and the
		// watts gauge is a pure function of shape.
		bus.Set(telemetry.Occupancy, 0, 0.10*4096)
		bus.Set(telemetry.Occupancy, 1, 0.10*4096)
		d := c.Tick(now)
		idleW, cur = d.Watts, d.Applied
		if d.Duty != 0 {
			t.Fatalf("duty %v with no busy published", d.Duty)
		}
	}
	pc := c.Config().Power
	// cur members idling shallow + the rest of the budget parked deep,
	// core-only.
	wantIdle := float64(cur)*pc.IdleCore + float64(8-cur)*pc.DeepIdle
	if diff := idleW - wantIdle; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("idle watts = %v, want %v (team %d)", idleW, wantIdle, cur)
	}
	for i := 0; i < 100; i++ {
		now += 0.001
		busy += 4 * 0.001 // all four members flat out
		for th := 0; th < 4; th++ {
			bus.SetThread(telemetry.BusySeconds, th, busy/4)
		}
		busyW = c.Tick(now).Watts
	}
	if busyW <= idleW {
		t.Fatalf("busy watts %v <= idle watts %v", busyW, idleW)
	}
	rep := c.Report(now)
	if rep.Joules <= 0 || rep.MeanWatts <= idleW*0.5 || rep.MeanWatts >= busyW*1.5 {
		t.Fatalf("report joules=%v meanWatts=%v (idle %v, busy %v)", rep.Joules, rep.MeanWatts, idleW, busyW)
	}
}
