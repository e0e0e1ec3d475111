// Package hrtimer models the fine-grain thread-sleep services of Sec. III-A:
// the authors' hr_sleep() kernel service and Linux nanosleep() with its
// timer slack. The simulator consumes the wake-up latency distributions
// (calibrated to the paper's Figure 1 boxplots); the real-time runtime
// sleeps through the Sleeper interface, by default GoSleeper (plain
// time.Sleep). SpinSleeper, a time.Sleep + spin-finish implementation of
// the same contract, is the opt-in that buys hr_sleep-like precision with
// CPU.
//
// What GoSleeper delivers, measured by the bench command's hrtimer layer on
// Linux (2 vCPUs, GOMAXPROCS=2, go1.24): a time.Sleep from a goroutine
// whose P then goes idle is woken by the netpoller's epoll_wait, which has
// 1 ms granularity, so requests of 50-475 us overshoot by 650-1070 us at
// the median — the live runtime's wakes are about a millisecond apart
// whatever TS the policy asks for. Kernel-armed alternatives (timerfd on
// the netpoller, clock_nanosleep on a locked thread) were measured too:
// they cut light-load median latency about fivefold and double to
// quadruple the retrieval CPU, because a kernel wake costs about 27 us of
// CPU in a VM however it is armed; see ROADMAP's settled measurements,
// "Sleeper, acquitted on this host".
package hrtimer

import (
	"time"

	"metronome/internal/xrand"
)

// Service identifies a sleep-service implementation.
type Service int

const (
	// HRSleep is the paper's custom syscall: no TCB slack reconciliation,
	// smallest overhead and variance.
	HRSleep Service = iota
	// Nanosleep is Linux nanosleep() with prctl-minimised (1 us) timer
	// slack — the best a stock kernel offers.
	Nanosleep
	// HRSleepPatched is the Sec. V-C variant: sub-microsecond requests
	// return immediately instead of arming a timer.
	HRSleepPatched
)

// String names the service.
func (s Service) String() string {
	switch s {
	case HRSleep:
		return "hr_sleep"
	case Nanosleep:
		return "nanosleep"
	case HRSleepPatched:
		return "hr_sleep(patched)"
	}
	return "unknown"
}

// params are the linear latency model actual = gain*req + base + N(0, sigma),
// fitted to the Fig 1 medians (1/10/100 us requests on the paper's Xeon
// Silver @ 2.1 GHz, Linux 5.4).
type params struct {
	base  float64 // seconds of fixed kernel+wakeup overhead
	gain  float64 // proportional overshoot (timer programming granularity)
	sigma float64 // jitter std dev, seconds
}

func paramsFor(s Service) params {
	switch s {
	case Nanosleep:
		// Slightly higher base (TCB slack reconciliation instructions) and
		// visibly wider spread than hr_sleep, per Fig 1.
		return params{base: 2.83e-6, gain: 1.0573, sigma: 45e-9}
	default:
		return params{base: 2.79e-6, gain: 1.0566, sigma: 30e-9}
	}
}

// Model samples wake-up latencies for one simulated thread.
type Model struct {
	Service Service
	p       params
	rng     *xrand.Rand
}

// NewModel returns a sampler seeded from rng (which it takes ownership of).
func NewModel(s Service, rng *xrand.Rand) *Model {
	return &Model{Service: s, p: paramsFor(s), rng: rng}
}

// Actual returns the sampled wall-clock duration of a sleep request of req
// seconds: always >= a small positive floor, typically req plus ~2.8 us.
func (m *Model) Actual(req float64) float64 {
	if req < 0 {
		req = 0
	}
	if m.Service == HRSleepPatched && req < 1e-6 {
		// Patched fast path: immediately return control (~50 ns call cost).
		return 50e-9
	}
	d := m.p.gain*req + m.p.base + m.p.sigma*m.rng.NormFloat64()
	if d < 100e-9 {
		d = 100e-9
	}
	return d
}

// --- real-time side -------------------------------------------------------

// Sleeper is the contract the real-time Metronome runtime sleeps through.
type Sleeper interface {
	// Sleep blocks for approximately d, trading CPU for precision
	// according to the implementation.
	Sleep(d time.Duration)
}

// GoSleeper sleeps with plain time.Sleep — cheapest CPU, coarsest wake-up
// (the Go runtime timer granularity plus OS scheduling: about 1 ms on Linux
// when the P goes idle, see the package comment). It is the runtime's
// default.
type GoSleeper struct{}

// Sleep implements Sleeper.
func (GoSleeper) Sleep(d time.Duration) { time.Sleep(d) }

// SpinSleeper emulates hr_sleep's precision on a stock runtime: it
// time.Sleep()s until Slack before the deadline, then spins on the
// monotonic clock. Slack trades CPU for precision exactly as the paper's
// service trades kernel work for it; zero Slack degenerates to time.Sleep.
type SpinSleeper struct {
	Slack time.Duration
}

// Sleep implements Sleeper.
func (s SpinSleeper) Sleep(d time.Duration) {
	deadline := time.Now().Add(d)
	if coarse := d - s.Slack; coarse > 0 {
		time.Sleep(coarse)
	}
	for time.Now().Before(deadline) {
		// spin-finish
	}
}

// MeasureOvershoot samples the wake-up latency of sleeper for a request of
// d, n times, returning the observed durations in seconds. cmd/hrsleepbench
// uses it to produce the host's own Figure 1.
func MeasureOvershoot(sleeper Sleeper, d time.Duration, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		sleeper.Sleep(d)
		out[i] = time.Since(start).Seconds()
	}
	return out
}
