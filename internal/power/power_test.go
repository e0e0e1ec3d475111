package power

import (
	"math"
	"testing"
	"testing/quick"

	"metronome/internal/xrand"
)

func cfg() Config { return DefaultConfig() }

func TestGovernorString(t *testing.T) {
	if Performance.String() != "performance" || Ondemand.String() != "ondemand" {
		t.Error("governor names")
	}
}

func TestPerformanceAlwaysFMax(t *testing.T) {
	c := cfg()
	for _, u := range []float64{0, 0.2, 0.8, 1} {
		if got := c.SteadyFreq(Performance, u); got != c.FMax {
			t.Errorf("performance freq at util %v = %v", u, got)
		}
	}
}

func TestOndemandFixedPoint(t *testing.T) {
	c := cfg()
	// Fully busy (a static poller): pegged at FMax.
	if got := c.SteadyFreq(Ondemand, 1); got != c.FMax {
		t.Errorf("busy core freq = %v", got)
	}
	// Above threshold: FMax.
	if got := c.SteadyFreq(Ondemand, 0.85); got != c.FMax {
		t.Errorf("0.85 util freq = %v", got)
	}
	// Idle: FMin.
	if got := c.SteadyFreq(Ondemand, 0); got != c.FMin {
		t.Errorf("idle freq = %v", got)
	}
	// Moderate duty cycle settles below FMax but above FMin.
	f := c.SteadyFreq(Ondemand, 0.4)
	if f <= c.FMin || f >= c.FMax {
		t.Errorf("0.4 util freq = %v", f)
	}
	// At the fixed point, utilisation is pushed to the threshold.
	u := 0.4 * c.FMax / f
	if math.Abs(u-c.UpThreshold) > 1e-9 {
		t.Errorf("steady util = %v, want %v", u, c.UpThreshold)
	}
}

func TestSteadyFreqMonotone(t *testing.T) {
	c := cfg()
	prev := 0.0
	for u := 0.0; u <= 1.0; u += 0.01 {
		f := c.SteadyFreq(Ondemand, u)
		if f < prev-1e-12 {
			t.Fatalf("freq not monotone at util %v", u)
		}
		prev = f
	}
}

func TestCorePowerBounds(t *testing.T) {
	c := cfg()
	idle := c.CorePower(CoreState{Freq: c.FMax, Util: 0})
	full := c.CorePower(CoreState{Freq: c.FMax, Util: 1})
	if idle != c.IdleCore {
		t.Errorf("idle power = %v", idle)
	}
	if full != c.ActiveMax {
		t.Errorf("full power = %v", full)
	}
	// Lower frequency, same utilisation => less power.
	lower := c.CorePower(CoreState{Freq: 1.2, Util: 1})
	if lower >= full {
		t.Errorf("1.2GHz power %v >= 2.1GHz power %v", lower, full)
	}
}

func TestCorePowerMonotoneInUtil(t *testing.T) {
	c := cfg()
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		f := r.Uniform(c.FMin, c.FMax)
		u1, u2 := r.Float64(), r.Float64()
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		return c.CorePower(CoreState{f, u1}) <= c.CorePower(CoreState{f, u2})+1e-12
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPackagePowerEnvelope(t *testing.T) {
	c := cfg()
	// All idle: the baseline the 0-traffic experiments bottom out at.
	idle := c.PackagePower(nil)
	want := c.Uncore + float64(c.TotalCores)*c.IdleCore
	if math.Abs(idle-want) > 1e-9 {
		t.Errorf("idle package = %v, want %v", idle, want)
	}
	// One poller at 100% (static DPDK single queue): idle + one active.
	poller := c.PackagePower([]CoreState{{c.FMax, 1}})
	if poller <= idle || poller > idle+c.ActiveMax {
		t.Errorf("poller package = %v (idle %v)", poller, idle)
	}
	// Sanity envelope for the figures: a realistic node sits in 10..45 W.
	if idle < 10 || poller > 45 {
		t.Errorf("calibration out of envelope: idle=%v poller=%v", idle, poller)
	}
}

// steady resolves the governor fixed point for per-core utilisations
// measured at FMax: busy time stretches by FMax/f at the settled frequency.
func steady(c Config, g Governor, utilAtFMax ...float64) []CoreState {
	out := make([]CoreState, len(utilAtFMax))
	for i, u := range utilAtFMax {
		f := c.SteadyFreq(g, u)
		out[i] = CoreState{Freq: f, Util: math.Min(1, u*c.FMax/f)}
	}
	return out
}

func TestMetronomeVsStaticPowerShape(t *testing.T) {
	// The headline Fig 11 shape: three duty-cycled Metronome threads burn
	// less power than one static poller plus two idle cores... at the same
	// offered load under ondemand; and under performance the gap narrows.
	c := cfg()
	static := c.PackagePower(steady(c, Performance, 1, 0, 0))
	met := c.PackagePower(steady(c, Performance, 0.2, 0.2, 0.2))
	if met >= static {
		t.Errorf("performance: metronome %vW >= static %vW", met, static)
	}
	staticOD := c.PackagePower(steady(c, Ondemand, 1, 0, 0))
	metOD := c.PackagePower(steady(c, Ondemand, 0.2, 0.2, 0.2))
	if metOD >= staticOD {
		t.Errorf("ondemand: metronome %vW >= static %vW", metOD, staticOD)
	}
	// ondemand saves vs performance for the duty-cycled configuration.
	if metOD >= met {
		t.Errorf("ondemand %vW >= performance %vW for metronome", metOD, met)
	}
}

func TestSleepSplitAndIdlePower(t *testing.T) {
	c := DefaultConfig()
	if got := c.SleepSplit(0); got != 0 {
		t.Errorf("SleepSplit(0) = %v", got)
	}
	if got := c.SleepSplit(c.DeepDwell / 2); got != 0 {
		t.Errorf("short dwell split = %v, want 0 (stays shallow)", got)
	}
	long := c.SleepSplit(100 * c.DeepDwell)
	if long < 0.98 || long >= 1 {
		t.Errorf("long dwell split = %v, want ~0.99", long)
	}
	if got := c.IdlePower(c.DeepDwell / 2); got != c.IdleCore {
		t.Errorf("shallow idle power = %v, want IdleCore %v", got, c.IdleCore)
	}
	deep := c.IdlePower(1.0)
	if deep >= c.IdleCore || deep < c.DeepIdle {
		t.Errorf("deep idle power = %v, want in [%v, %v)", deep, c.DeepIdle, c.IdleCore)
	}
}

func TestTeamEnergyComposition(t *testing.T) {
	c := DefaultConfig()
	// 2 members, 10 s wall: 4 s busy, 16 s idle (short dwell), plus one
	// parked core for the whole window.
	r := Residency{
		BusySeconds:   4,
		IdleSeconds:   16,
		ParkedSeconds: 10,
		MeanDwell:     20e-6,
		Freq:          c.FMax,
	}
	want := 4*c.CorePower(CoreState{Freq: c.FMax, Util: 1}) + 16*c.IdleCore + 10*c.DeepIdle
	if got := c.TeamEnergy(r); math.Abs(got-want) > 1e-9 {
		t.Errorf("TeamEnergy = %v, want %v", got, want)
	}
}

// A small elastic team with its surplus parked in deep idle must model
// cheaper than a large static team idling shallowly at the same duty —
// the arithmetic behind fig-power's claim.
func TestSmallTeamPlusParkedBeatsLargeShallowTeam(t *testing.T) {
	c := DefaultConfig()
	shortDwell := 60e-6 // static idlers: duty-cycle sleeps stay shallow
	static := c.TeamWatts(6, 0.10, shortDwell, 0)
	elastic := c.TeamWatts(2, 0.30, shortDwell, 4)
	if elastic >= static {
		t.Fatalf("elastic 2+4 parked = %vW, static 6 = %vW: parking saves nothing", elastic, static)
	}
	if saving := 1 - elastic/static; saving < 0.30 {
		t.Errorf("modelled saving = %.1f%%, want >= 30%%", saving*100)
	}
}

func TestEnergyPressureShape(t *testing.T) {
	c := DefaultConfig()
	lo, hi := c.EnergyPressure(0.05), c.EnergyPressure(0.95)
	if lo <= hi {
		t.Fatalf("pressure not decreasing in duty: %v at 0.05 vs %v at 0.95", lo, hi)
	}
	if lo < 0.4 || lo > 1 {
		t.Errorf("trough pressure = %v, want ~0.6", lo)
	}
	if hi < 0 || hi > 0.2 {
		t.Errorf("saturation pressure = %v, want ~0.1", hi)
	}
}

func TestEnergyIntegral(t *testing.T) {
	var e Energy
	e.Observe(0, 10)
	e.Observe(1, 10)
	e.Observe(3, 20) // trapezoid: 2 s at mean 15 W
	if got := e.Joules(); math.Abs(got-40) > 1e-12 {
		t.Errorf("Joules = %v, want 40", got)
	}
	e.Reset()
	if e.Joules() != 0 {
		t.Error("Reset kept joules")
	}
	e.Observe(4, 20) // clock anchor survived the reset: 1 s at 20 W
	if got := e.Joules(); math.Abs(got-20) > 1e-12 {
		t.Errorf("post-reset Joules = %v, want 20", got)
	}
}
