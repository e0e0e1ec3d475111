// Package cpu models the operating-system side of the reproduction: CFS
// nice-to-weight arithmetic, fair CPU shares between packet threads and
// CPU-bound co-runners (the PARSEC ferret of Sec. V-E), the wake-up delay a
// thread experiences between its sleep timer firing and being CPU
// re-dispatched, and getrusage-style CPU accounting.
//
// The model is deliberately not a cycle-accurate CFS: Metronome's claims
// depend on (i) weight-proportional sharing on contended cores, (ii) fast
// preemption by briefly-running high-priority wakers, and (iii) a rare
// heavy tail of wake-up delays caused by other OS activity. Those three
// mechanisms are modelled explicitly and calibrated in the experiments.
package cpu

import (
	"fmt"

	"metronome/internal/hrtimer"
	"metronome/internal/xrand"
)

// niceWeights is the kernel's sched_prio_to_weight table: weight for nice
// -20 .. +19. Each nice step changes CPU share by ~1.25x.
var niceWeights = [40]int{
	88761, 71755, 56483, 46273, 36291,
	29154, 23254, 18705, 14949, 11916,
	9548, 7620, 6100, 4904, 3906,
	3121, 2501, 1991, 1586, 1277,
	1024, 820, 655, 526, 423,
	335, 272, 215, 172, 137,
	110, 87, 70, 56, 45,
	36, 29, 23, 18, 15,
}

// NiceWeight returns the CFS load weight for a nice value in [-20, 19].
func NiceWeight(nice int) int {
	if nice < -20 {
		nice = -20
	}
	if nice > 19 {
		nice = 19
	}
	return niceWeights[nice+20]
}

// FairShare returns the fraction of one CPU that an entity of weight w
// receives against competitors with the given weights, all continuously
// runnable.
func FairShare(w int, competitors ...int) float64 {
	total := w
	for _, c := range competitors {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(w) / float64(total)
}

// Core is one simulated CPU core.
type Core struct {
	ID int
	// BusyWith counts continuously-runnable co-located threads (a static
	// DPDK poller, a ferret worker). A non-zero value makes wake-ups pay
	// the preemption cost.
	BusyWith int
	// SharePenalty inflates the work of co-scheduled CPU-bound jobs to
	// account for cache/TLB pollution and context switching when the core
	// is time-shared (1.0 = none). Calibrated against Fig 12.
	SharePenalty float64
}

// NewCore returns an idle core.
func NewCore(id int) *Core { return &Core{ID: id, SharePenalty: 1.0} }

// WakeConfig shapes the wake-up delay distribution.
type WakeConfig struct {
	// PreemptDelay is the extra dispatch latency when the core is running
	// another thread at wake time (CFS wakeup-preemption granularity).
	PreemptDelay float64
	// TailProb is the probability of a long OS-induced delay (kernel
	// daemons, IRQs, migrations) — the > TL stragglers of Fig 4.
	TailProb float64
	// TailMu/TailSigma parameterise the lognormal tail (seconds).
	TailMu, TailSigma float64
	// JitterSigma is zero-mean gaussian noise on every dispatch (run-queue
	// placement, cache refill, timer coalescing). This system-level noise
	// is what de-phases the threads' wake times — the mechanism behind the
	// paper's decorrelation assumption ("each service time, due to its
	// random duration, de-synchronizes...").
	JitterSigma float64
}

// DefaultWakeConfig matches the paper's testbed (an isolated NUMA node, so
// kernel daemons rarely interfere): ~5 us preemption cost on a contended
// core, ~0.6 us of system-level dispatch noise, and a very rare (1e-6)
// chance of a delay in the hundreds of microseconds. Robustness experiments
// raise TailProb to model shared, noisy hosts.
func DefaultWakeConfig() WakeConfig {
	return WakeConfig{
		PreemptDelay: 5e-6,
		TailProb:     1e-6,
		TailMu:       -8.1, // median ~0.3 ms
		TailSigma:    0.6,
		JitterSigma:  0.6e-6,
	}
}

// WakeModel samples the total delay between a sleep request of a given
// duration and the thread actually regaining the CPU.
type WakeModel struct {
	Sleep *hrtimer.Model
	Cfg   WakeConfig
	rng   *xrand.Rand
}

// NewWakeModel combines a sleep-service model with scheduler behaviour.
func NewWakeModel(sleep *hrtimer.Model, cfg WakeConfig, rng *xrand.Rand) *WakeModel {
	return &WakeModel{Sleep: sleep, Cfg: cfg, rng: rng}
}

// Delay returns the sampled wall time from calling the sleep service with
// request req until the thread runs again on core.
func (w *WakeModel) Delay(req float64, core *Core) float64 {
	d := w.Sleep.Actual(req)
	if w.Cfg.JitterSigma > 0 {
		d += w.Cfg.JitterSigma * w.rng.NormFloat64()
	}
	if core != nil && core.BusyWith > 0 {
		d += w.Cfg.PreemptDelay * w.rng.Uniform(0.5, 1.5)
	}
	if w.Cfg.TailProb > 0 && w.rng.Bernoulli(w.Cfg.TailProb) {
		d += w.rng.LogNormal(w.Cfg.TailMu, w.Cfg.TailSigma)
	}
	if min := req + 100e-9; d < min {
		d = min // a sleep can jitter, but never complete before its timer
	}
	return d
}

// Accounting tracks per-thread on-CPU time, the quantity getrusage()
// reported in the paper's CPU-usage figures.
type Accounting struct {
	names []string
	busy  []float64
}

// NewAccounting creates an accounting table for n threads.
func NewAccounting(n int) *Accounting {
	return &Accounting{names: make([]string, n), busy: make([]float64, n)}
}

// SetName labels thread i for reports.
func (a *Accounting) SetName(i int, name string) { a.names[i] = name }

// Grow extends the table to n threads (no-op if already that large) — the
// elastic control plane adds threads mid-run and their CPU time must land
// in the same getrusage-style account.
func (a *Accounting) Grow(n int) {
	for len(a.busy) < n {
		a.busy = append(a.busy, 0)
		a.names = append(a.names, "")
	}
}

// AddBusy charges d seconds of CPU to thread i.
func (a *Accounting) AddBusy(i int, d float64) {
	if d < 0 {
		panic(fmt.Sprintf("cpu: negative busy time %v for thread %d", d, i))
	}
	a.busy[i] += d
}

// Busy returns thread i's accumulated CPU seconds.
func (a *Accounting) Busy(i int) float64 { return a.busy[i] }

// TotalBusy returns the summed CPU seconds of all threads.
func (a *Accounting) TotalBusy() float64 {
	t := 0.0
	for _, b := range a.busy {
		t += b
	}
	return t
}

// UsagePercent returns total CPU usage over a wall-clock window as a
// percentage; multiple threads can exceed 100, as in the paper's plots.
func (a *Accounting) UsagePercent(wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	return a.TotalBusy() / wall * 100
}

// Job is a CPU-bound co-runner (the ferret stand-in): a fixed amount of
// core-seconds of work spread over a set of cores.
type Job struct {
	Name string
	// Work is the total core-seconds the job needs on otherwise-idle cores.
	Work float64
	Nice int
}

// Duration returns the wall-clock completion time of the job when each of
// its cores grants it the given fraction of CPU (shares[i] in [0,1]) and
// co-scheduling inflates its work by penalty (>= 1). Shares are what a
// weight-proportional scheduler yields; penalty models the cache and
// context-switch cost of time sharing, which is why a 50% share costs more
// than 2x in wall time (Fig 12's ~3x for static DPDK).
func (j Job) Duration(shares []float64, penalty float64) float64 {
	if penalty < 1 {
		penalty = 1
	}
	throughput := 0.0
	for _, s := range shares {
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		throughput += s
	}
	if throughput == 0 {
		return float64(^uint(0) >> 1) // effectively never
	}
	return j.Work * penalty / throughput
}
