// Package power models the CPU-frequency governors and package power that
// the paper measures through Intel RAPL (Sec. V-C and V-F): the
// `performance` governor pins cores at their maximum frequency, while
// `ondemand` periodically samples utilisation and scales frequency, trading
// reactivity for energy. Service rates scale with frequency, which is what
// couples the governor to Metronome's queue occupancy in Fig 13/14.
//
// Constants are calibrated to a single-socket Xeon Silver-class NUMA node
// (2.1 GHz nominal); EXPERIMENTS.md records the calibration.
package power

import "math"

// Governor selects the frequency policy.
type Governor int

const (
	// Performance keeps every core at FMax while executing.
	Performance Governor = iota
	// Ondemand scales frequency with recent utilisation: full speed above
	// UpThreshold, proportional below.
	Ondemand
)

// String names the governor as Linux does.
func (g Governor) String() string {
	if g == Ondemand {
		return "ondemand"
	}
	return "performance"
}

// Config describes one package (NUMA node) worth of cores.
type Config struct {
	FMax, FMin float64 // GHz
	// UpThreshold is ondemand's utilisation trigger for jumping to FMax.
	UpThreshold float64
	// Uncore is the always-on package power (memory controller, LLC, IO), W.
	Uncore float64
	// ActiveMax is the power of one core running flat out at FMax, W.
	ActiveMax float64
	// IdleCore is the power of one core parked in a shallow C-state, W.
	IdleCore float64
	// Alpha is the frequency->power exponent for the active component
	// (P ~ f^Alpha; ~2.5 captures DVFS voltage scaling).
	Alpha float64
	// TotalCores is the number of cores on the node (idle ones still burn
	// IdleCore watts each).
	TotalCores int
	// DeepIdle is the power of one core parked in a deep C-state (C6:
	// core clock-gated, caches flushed), W. Reaching it requires an idle
	// dwell long enough for the cpuidle governor to pick the deep state.
	DeepIdle float64
	// DeepDwell is the idle-dwell threshold (seconds) past which a sleep
	// is served from the deep C-state rather than the shallow one —
	// cpuidle's target-residency for C6. Metronome's short duty-cycle
	// sleeps (tens of µs) stay shallow; a parked (deprovisioned) member
	// sleeps far past it and reaches DeepIdle.
	DeepDwell float64
}

// DefaultConfig returns the calibration used across the experiments: a
// single-socket Xeon Silver 4110-class node (8 cores, 2.1 GHz nominal,
// 0.8 GHz floor), matching the paper's RAPL testbed (Sec. V-C/V-F).
//
// Provenance of the constants:
//   - FMax/FMin/UpThreshold: Xeon Silver 4110 nominal/min frequency and
//     the Linux ondemand governor's default up_threshold.
//   - Uncore (8 W): RAPL package-minus-cores floor typical of one idle
//     Skylake-SP socket (memory controller, mesh, LLC).
//   - ActiveMax (6.5 W/core): package RAPL delta per fully-busy core at
//     FMax on Silver-class parts (~52 W core budget over 8 cores).
//   - IdleCore (0.9 W) / DeepIdle (0.1 W): per-core C1 vs C6 residency
//     power; C1 keeps the core clocked and snooping, C6 power-gates it
//     almost entirely (the residual is package-maintained state).
//   - DeepDwell (200 µs): cpuidle target residency for C6 on Skylake-SP
//     (intel_idle reports 133 µs exit latency; the governor demands
//     residency a few times that before it commits).
//   - Alpha (2.5): DVFS exponent fitting P ~ f·V² with V roughly linear
//     in f over the 0.8–2.1 GHz range.
//
// EXPERIMENTS.md records how fig-power consumes this calibration.
func DefaultConfig() Config {
	return Config{
		FMax:        2.1,
		FMin:        0.8,
		UpThreshold: 0.80,
		Uncore:      8.0,
		ActiveMax:   6.5,
		IdleCore:    0.9,
		Alpha:       2.5,
		TotalCores:  8,
		DeepIdle:    0.1,
		DeepDwell:   200e-6,
	}
}

// SteadyFreq returns the steady-state frequency the governor settles at for
// a thread set whose utilisation at FMax is utilAtFMax (0..1 per core).
//
// For ondemand the fixed point accounts for work expanding as frequency
// drops: busy time scales as FMax/f, so the governor sees util(f) =
// utilAtFMax * FMax / f and raises f until util(f) <= UpThreshold (or FMax
// is reached). Continuously-polling threads therefore always sit at FMax,
// while Metronome's duty-cycled threads settle lower — the mechanism behind
// the paper's ondemand savings.
func (c Config) SteadyFreq(g Governor, utilAtFMax float64) float64 {
	if g == Performance {
		return c.FMax
	}
	if utilAtFMax <= 0 {
		return c.FMin
	}
	if utilAtFMax >= c.UpThreshold {
		return c.FMax
	}
	f := utilAtFMax * c.FMax / c.UpThreshold
	return math.Min(c.FMax, math.Max(c.FMin, f))
}

// CoreState is the operating point of one core over a measurement window.
type CoreState struct {
	Freq float64 // GHz
	Util float64 // 0..1 busy fraction at Freq
}

// CorePower returns the average power of one core at the given state.
func (c Config) CorePower(s CoreState) float64 {
	if s.Util < 0 {
		s.Util = 0
	}
	if s.Util > 1 {
		s.Util = 1
	}
	fNorm := s.Freq / c.FMax
	if fNorm < 0 {
		fNorm = 0
	}
	// The active component rides on top of the idle floor so the model
	// stays monotone in utilisation at every frequency.
	active := (c.ActiveMax - c.IdleCore) * math.Pow(fNorm, c.Alpha)
	return c.IdleCore + s.Util*active
}

// PackagePower returns the RAPL-style package power for the given active
// core states; cores beyond len(states) up to TotalCores idle.
func (c Config) PackagePower(states []CoreState) float64 {
	p := c.Uncore
	for _, s := range states {
		p += c.CorePower(s)
	}
	for i := len(states); i < c.TotalCores; i++ {
		p += c.IdleCore
	}
	return p
}

// SleepSplit returns the fraction of idle time spent in the deep C-state
// for sleeps of the given mean dwell (seconds). The cpuidle governor
// promotes a sleep to C6 only after DeepDwell of shallow residency, so a
// sleep of dwell d spends min(d, DeepDwell) shallow and the remainder
// deep: deepFrac = max(0, 1 - DeepDwell/d). Metronome's duty-cycle sleeps
// (dwell << DeepDwell) score 0; a parked member's open-ended sleep
// approaches 1.
func (c Config) SleepSplit(meanDwell float64) float64 {
	if meanDwell <= c.DeepDwell || meanDwell <= 0 {
		return 0
	}
	return 1 - c.DeepDwell/meanDwell
}

// IdlePower returns the average power (W) of one core whose idle time is
// made of sleeps with the given mean dwell: the SleepSplit blend of
// DeepIdle and IdleCore.
func (c Config) IdlePower(meanDwell float64) float64 {
	deep := c.SleepSplit(meanDwell)
	return deep*c.DeepIdle + (1-deep)*c.IdleCore
}

// Residency aggregates a thread team's sleep-state residency over a
// measurement window — the substrate-independent input to the energy
// model, derivable from the TS/TL cycle structure both substrates carry.
// All fields are sums across team members (so the struct scales from one
// thread to a whole deployment); seconds are wall seconds of the window.
type Residency struct {
	// BusySeconds is summed on-CPU time of provisioned members.
	BusySeconds float64
	// IdleSeconds is summed intra-cycle sleep time of provisioned
	// members (the TS vacations between retrievals).
	IdleSeconds float64
	// ParkedSeconds is summed time of budgeted-but-deprovisioned
	// members: cores the elastic controller has released, sleeping far
	// past DeepDwell.
	ParkedSeconds float64
	// MeanDwell is the mean duration (seconds) of one provisioned
	// member's sleep — IdleSeconds over the number of sleeps — which
	// decides how much of IdleSeconds reaches the deep C-state.
	MeanDwell float64
	// Freq is the operating frequency (GHz) of busy time.
	Freq float64
}

// TeamEnergy returns the modelled core-only energy (joules) of a team
// with the given residency: busy time at CorePower(Freq, util=1), idle
// time at the SleepSplit blend, parked time at DeepIdle. Uncore power is
// deliberately excluded — it is invariant under team sizing, and the
// elastic objective must see only the joules its decisions can move.
func (c Config) TeamEnergy(r Residency) float64 {
	busyW := c.CorePower(CoreState{Freq: r.Freq, Util: 1})
	return r.BusySeconds*busyW +
		r.IdleSeconds*c.IdlePower(r.MeanDwell) +
		r.ParkedSeconds*c.DeepIdle
}

// TeamWatts returns the modelled core-only power (W) of m provisioned
// members running at the given duty cycle (busy fraction) and sleep
// dwell, plus parked deprovisioned members in deep idle — the closed
// form the elastic controller prices candidate team sizes with, at the
// performance governor's FMax.
func (c Config) TeamWatts(m int, duty, meanDwell float64, parked int) float64 {
	if duty < 0 {
		duty = 0
	}
	if duty > 1 {
		duty = 1
	}
	busyW := c.CorePower(CoreState{Freq: c.FMax, Util: 1})
	perCore := duty*busyW + (1-duty)*c.IdlePower(meanDwell)
	return float64(m)*perCore + float64(parked)*c.DeepIdle
}

// EnergyPressure returns the relative joule saving of shedding one
// lightly-loaded member whose work is absorbed by the rest of the team:
// the team loses a core's idle floor (IdleCore down to DeepIdle once
// parked) while the busy joules merely migrate. It is the fractional
// margin by which the joules objective inflates the controller's
// occupancy target — large (~0.67) at trough duty where the idle floor
// dominates, small (~0.09) near saturation where busy joules dwarf it.
func (c Config) EnergyPressure(duty float64) float64 {
	if duty < 0 {
		duty = 0
	}
	if duty > 1 {
		duty = 1
	}
	busyW := c.CorePower(CoreState{Freq: c.FMax, Util: 1})
	return (c.IdleCore - c.DeepIdle) / (c.IdleCore + duty*(busyW-c.IdleCore))
}

// Energy integrates modelled power over a substrate clock into joules —
// the accounting spine behind Report.Joules. Feed it (t, watts)
// observations in nondecreasing t order; integration is trapezoidal, so
// piecewise-constant and piecewise-linear power profiles are both exact.
// The zero value is ready to use; the first observation only anchors the
// clock.
type Energy struct {
	joules  float64
	lastT   float64
	lastW   float64
	started bool
}

// Observe folds in the team's modelled watts at time t (seconds on the
// caller's clock) and returns the accumulated joules.
func (e *Energy) Observe(t, watts float64) float64 {
	if !e.started {
		e.started = true
	} else if t > e.lastT {
		e.joules += (t - e.lastT) * (watts + e.lastW) / 2
	}
	e.lastT, e.lastW = t, watts
	return e.joules
}

// Joules returns the integral so far.
func (e *Energy) Joules() float64 { return e.joules }

// Reset restarts the integral, keeping the clock anchor so a windowed
// reader can Reset at a window edge and keep integrating.
func (e *Energy) Reset() { e.joules = 0 }

// Rebase moves the clock anchor to (t, watts) without integrating — the
// warm-up window-alignment hook: a reader that Resets mid-interval
// rebases so the fresh window starts exactly at t instead of inheriting
// the partial interval before it.
func (e *Energy) Rebase(t, watts float64) {
	e.started, e.lastT, e.lastW = true, t, watts
}
