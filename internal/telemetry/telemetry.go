// Package telemetry is the lock-free telemetry plane underneath the
// elastic control loop: a fixed set of atomic slots — per-queue occupancy,
// ring capacity, load estimate, drop/receive/trylock counters, per-queue
// log-scale latency histograms and per-thread on-CPU time — that both
// execution substrates publish into and the elastic controller (or any
// observer) samples out of.
//
// The bus is sized once at construction and never allocates afterwards:
// publishing is one atomic store or add per datum, sampling fills a
// caller-owned Snapshot. Every slot is padded to its own cache line so the
// live runtime's goroutines never false-share a publisher's line (the same
// reason rte_ring pads its head/tail indices). Readers see each slot
// atomically but the set of slots is not a consistent cut — the controller
// works on per-slot deltas and tolerates torn cross-slot views, which is
// what makes the plane lock-free on both sides.
//
// The discrete-event twin publishes from a single goroutine, so for it the
// atomics are pure overhead-free determinism; the live runtime publishes
// from M goroutines plus its producers.
package telemetry

import (
	"math"
	"sync/atomic"

	"metronome/internal/stats"
)

// slot is one cache-line-padded atomic cell. Gauges store float64 bits,
// counters store uint64 counts; the interpretation is the bus's.
type slot struct {
	v atomic.Uint64
	_ [56]byte // pad to 64 bytes: no two slots share a line
}

func (s *slot) storeF(v float64) { s.v.Store(math.Float64bits(v)) }
func (s *slot) loadF() float64   { return math.Float64frombits(s.v.Load()) }
func (s *slot) store(v uint64)   { s.v.Store(v) }
func (s *slot) add(n uint64)     { s.v.Add(n) }
func (s *slot) load() uint64     { return s.v.Load() }

// Bus is the fixed-slot telemetry plane for one deployment: nq queues and
// up to nt threads (size it for the elastic budget, not the initial team).
type Bus struct {
	nq, nt int

	occ      []slot      // per-queue occupancy in packets (gauge)
	occAvg   []slot      // per-queue time-averaged occupancy in packets (gauge)
	capacity []slot      // per-queue ring capacity in packets (gauge)
	slope    []slot      // per-queue occupancy slope in capacity fractions/s (gauge)
	rho      []slot      // per-queue load estimate (gauge)
	rate     []slot      // per-queue arrival rate in packets/s (gauge)
	drops    []slot      // per-queue dropped packets (counter)
	rx       []slot      // per-queue received packets (counter)
	tries    []slot      // per-queue trylock attempts (counter)
	busyTry  []slot      // per-queue failed trylock attempts (counter)
	pub      []slot      // per-queue publish sequence (counter)
	busy     []slot      // per-thread cumulative on-CPU seconds (gauge)
	hb       []slot      // per-thread heartbeat: last cycle-completion time (gauge)
	hist     []histBlock // per-queue retrieval-latency histogram (counters)
}

// histBlock is one queue's latency histogram on the bus: a contiguous
// block of atomic bucket counters in the stats.LogHistogram layout. The
// block is a multiple of the cache-line size and tail-padded, so two
// queues' blocks never share a line; counters inside one block are
// written by that queue's servers only (sim: one goroutine; live: the
// members of the queue's service group), which is the same sharing
// domain as the queue's ring itself.
type histBlock struct {
	counts [stats.LogHistBuckets]atomic.Uint64
	_      [56]byte
}

// NewBus builds a bus over nQueues queues and maxThreads thread slots.
// Thread indices at or above maxThreads are dropped on publish (a resize
// beyond the sized budget must not fault the hot path).
func NewBus(nQueues, maxThreads int) *Bus {
	if nQueues < 1 {
		nQueues = 1
	}
	if maxThreads < 1 {
		maxThreads = 1
	}
	return &Bus{
		nq:       nQueues,
		nt:       maxThreads,
		occ:      make([]slot, nQueues),
		occAvg:   make([]slot, nQueues),
		capacity: make([]slot, nQueues),
		slope:    make([]slot, nQueues),
		rho:      make([]slot, nQueues),
		rate:     make([]slot, nQueues),
		drops:    make([]slot, nQueues),
		rx:       make([]slot, nQueues),
		tries:    make([]slot, nQueues),
		busyTry:  make([]slot, nQueues),
		pub:      make([]slot, nQueues),
		busy:     make([]slot, maxThreads),
		hb:       make([]slot, maxThreads),
		hist:     make([]histBlock, nQueues),
	}
}

// Queues returns the number of queue slots.
func (b *Bus) Queues() int { return b.nq }

// Threads returns the number of thread slots.
func (b *Bus) Threads() int { return b.nt }

// SetOccupancy publishes queue q's instantaneous buffered packet count.
func (b *Bus) SetOccupancy(q int, pkts float64) { b.occ[q].storeF(pkts) }

// Occupancy returns the last published occupancy of queue q.
func (b *Bus) Occupancy(q int) float64 { return b.occ[q].loadF() }

// SetOccAvg publishes queue q's time-averaged buffered packet count — the
// occupancy integral over the publisher's accounting window divided by the
// window, not a point sample. Point samples alias Metronome's cycle
// structure badly (a probe at cycle end always reads an empty ring, one at
// wake-up always reads a full vacation's worth); the window average is the
// signal control laws should consume.
func (b *Bus) SetOccAvg(q int, pkts float64) { b.occAvg[q].storeF(pkts) }

// OccAvg returns queue q's last published time-averaged occupancy.
func (b *Bus) OccAvg(q int) float64 { return b.occAvg[q].loadF() }

// SetCapacity publishes queue q's descriptor-ring capacity.
func (b *Bus) SetCapacity(q int, pkts float64) { b.capacity[q].storeF(pkts) }

// Capacity returns queue q's published ring capacity.
func (b *Bus) Capacity(q int) float64 { return b.capacity[q].loadF() }

// SetOccSlope publishes queue q's smoothed occupancy slope, in ring-
// capacity fractions per second — the elastic controller's EWMA of
// d(occupancy/capacity)/dt, positive while a ramp or sine edge is filling
// the ring. Observers (the fig-placement panels, dashboards) read the
// control plane's predictive input here instead of re-deriving it.
func (b *Bus) SetOccSlope(q int, fracPerSec float64) { b.slope[q].storeF(fracPerSec) }

// OccSlope returns queue q's last published occupancy slope.
func (b *Bus) OccSlope(q int) float64 { return b.slope[q].loadF() }

// SetRho publishes queue q's load estimate.
func (b *Bus) SetRho(q int, rho float64) { b.rho[q].storeF(rho) }

// Rho returns queue q's published load estimate.
func (b *Bus) Rho(q int) float64 { return b.rho[q].loadF() }

// SetArrivalRate publishes queue q's measured arrival rate in packets per
// second — derived from deltas of the Rx counter over an accounting window,
// so it reflects what actually entered the queue (drops excluded).
func (b *Bus) SetArrivalRate(q int, pps float64) { b.rate[q].storeF(pps) }

// ArrivalRate returns queue q's last published arrival rate.
func (b *Bus) ArrivalRate(q int) float64 { return b.rate[q].loadF() }

// SetDrops publishes queue q's cumulative drop count (sim substrate: the
// queue model owns the authoritative counter).
func (b *Bus) SetDrops(q int, n uint64) { b.drops[q].store(n) }

// AddDrops accumulates drops on queue q (live substrate: the producer that
// failed an enqueue reports them).
func (b *Bus) AddDrops(q int, n uint64) { b.drops[q].add(n) }

// Drops returns queue q's cumulative drop count.
func (b *Bus) Drops(q int) uint64 { return b.drops[q].load() }

// SetRx publishes queue q's cumulative received-packet count.
func (b *Bus) SetRx(q int, n uint64) { b.rx[q].store(n) }

// AddRx accumulates received packets on queue q.
func (b *Bus) AddRx(q int, n uint64) { b.rx[q].add(n) }

// Rx returns queue q's cumulative received-packet count.
func (b *Bus) Rx(q int) uint64 { return b.rx[q].load() }

// SetTries publishes queue q's cumulative trylock-attempt count.
func (b *Bus) SetTries(q int, n uint64) { b.tries[q].store(n) }

// AddTries accumulates trylock attempts on queue q.
func (b *Bus) AddTries(q int, n uint64) { b.tries[q].add(n) }

// Tries returns queue q's cumulative trylock-attempt count.
func (b *Bus) Tries(q int) uint64 { return b.tries[q].load() }

// SetBusyTries publishes queue q's cumulative failed-trylock count.
func (b *Bus) SetBusyTries(q int, n uint64) { b.busyTry[q].store(n) }

// AddBusyTries accumulates failed trylock attempts on queue q.
func (b *Bus) AddBusyTries(q int, n uint64) { b.busyTry[q].add(n) }

// BusyTries returns queue q's cumulative failed-trylock count.
func (b *Bus) BusyTries(q int) uint64 { return b.busyTry[q].load() }

// BumpPub advances queue q's publish-sequence counter. Substrates bump it
// once per per-queue publish block (a wake-time occupancy store, a
// cycle-end gauge batch), so an observer that sees the sequence hold still
// across its own sampling cadence knows the queue's gauges are STALE — the
// last values may be arbitrarily old. This is deliberately a sequence, not
// a timestamp: the two substrates run on different clocks (virtual seconds
// vs. nanoseconds since runner start) and the controller has a third, so
// "has anything been published since I last looked" is the only staleness
// question every combination can answer exactly.
func (b *Bus) BumpPub(q int) { b.pub[q].add(1) }

// PubSeq returns queue q's publish-sequence counter.
func (b *Bus) PubSeq(q int) uint64 { return b.pub[q].load() }

// SetHeartbeat publishes thread t's heartbeat: the substrate timestamp of
// its last completed service cycle (virtual seconds in the sim, seconds
// since runner start live). The health layer does not compare the value
// against its own clock — cycle times strictly increase, so "did the value
// change since K control periods ago" detects a stalled or dead member
// without any cross-clock arithmetic. Indices beyond the sized budget are
// dropped, not faulted.
func (b *Bus) SetHeartbeat(t int, ts float64) {
	if t < b.nt {
		b.hb[t].storeF(ts)
	}
}

// Heartbeat returns thread t's last published heartbeat (zero beyond the
// sized budget, and for a thread that never completed a cycle).
func (b *Bus) Heartbeat(t int) float64 {
	if t >= b.nt {
		return 0
	}
	return b.hb[t].loadF()
}

// SetThreadBusy publishes thread t's cumulative on-CPU seconds. Indices
// beyond the sized budget are dropped, not faulted.
func (b *Bus) SetThreadBusy(t int, seconds float64) {
	if t < b.nt {
		b.busy[t].storeF(seconds)
	}
}

// ThreadBusy returns thread t's cumulative on-CPU seconds (zero beyond the
// sized budget).
func (b *Bus) ThreadBusy(t int) float64 {
	if t >= b.nt {
		return 0
	}
	return b.busy[t].loadF()
}

// RecordLatency counts one per-packet retrieval latency (nanoseconds)
// into queue q's histogram: one bucket computation (two shifts) plus one
// atomic add, zero allocations. Both substrates publish here — the sim
// from its exact fluid timestamps, the live runner from per-burst
// rx-stamp deltas — so the buckets are comparable across substrates.
func (b *Bus) RecordLatency(q int, ns uint64) {
	b.hist[q].counts[stats.LogBucketIndex(ns)].Add(1)
}

// RecordLatencyBurst counts one burst's per-packet latencies (nanoseconds)
// into queue q's histogram: consecutive samples that share a bucket fold
// into one atomic add, so a burst drained at one clock read — whose packets
// waited about equally long — costs a handful of atomics instead of one
// per packet. The bucket counts end up exactly what len(ns) RecordLatency
// calls give.
func (b *Bus) RecordLatencyBurst(q int, ns []uint64) {
	if len(ns) == 0 {
		return
	}
	counts := &b.hist[q].counts
	bucket, run := stats.LogBucketIndex(ns[0]), uint64(1)
	for _, v := range ns[1:] {
		if i := stats.LogBucketIndex(v); i != bucket {
			counts[bucket].Add(run)
			bucket, run = i, 0
		}
		run++
	}
	counts[bucket].Add(run)
}

// SampleLatency folds queue q's histogram counters into the caller-owned
// dst at zero allocations (dst is not reset first, so sampling every
// queue into one histogram yields the deployment-wide latency
// distribution). Like Sample, the read is per-counter atomic but not a
// consistent cut; counts are cumulative since construction, so callers
// that window must difference two folds themselves.
func (b *Bus) SampleLatency(q int, dst *stats.LogHistogram) {
	blk := &b.hist[q]
	for i := range blk.counts {
		if c := blk.counts[i].Load(); c != 0 {
			dst.AddBucket(i, c)
		}
	}
}

// ResetLatency zeroes queue q's histogram counters — the warm-up reset
// hook for single-writer windows (the sim substrate between warm-up and
// measurement). It is not atomic with respect to concurrent recorders: a
// racing RecordLatency may land on either side of the wipe, so windowed
// multi-writer readers should difference two SampleLatency folds instead.
func (b *Bus) ResetLatency(q int) {
	blk := &b.hist[q]
	for i := range blk.counts {
		blk.counts[i].Store(0)
	}
}

// Snapshot is a caller-owned sample of the whole bus. Reuse one value
// across Sample calls: after the first call sized to the bus, sampling
// allocates nothing.
type Snapshot struct {
	// Occ is each queue's last-published wake-time ring occupancy
	// (packets found on descriptor-ring entry); OccAvg its EWMA; Cap the
	// ring capacity the occupancies are judged against; Rho the
	// attendants' utilization estimate; OccSlope the per-second trend of
	// OccAvg (the feedforward input); Rate the arrival-rate estimate in
	// packets per second.
	Occ, OccAvg, Cap, Rho, OccSlope, Rate []float64
	// Drops and Rx are each queue's cumulative dropped/retrieved packet
	// counters; Tries and BusyTr count lock attempts and the subset that
	// lost the race; PubSeq is the queue slot's publication sequence
	// number — it advances on every publish, so a reader can detect
	// staleness (an unchanged PubSeq between samples means no attendant
	// published, the health plane's liveness signal).
	Drops, Rx, Tries, BusyTr, PubSeq []uint64
	// ThreadBusy is each thread's cumulative busy-seconds gauge and
	// Heartbeat its last-publish timestamp in engine seconds — the
	// per-member inputs to the fault plane's straggler detector.
	ThreadBusy, Heartbeat []float64
}

// Sample fills dst with the current slot values, growing its slices only
// if they do not match the bus shape yet.
func (b *Bus) Sample(dst *Snapshot) {
	dst.Occ = sizedF(dst.Occ, b.nq)
	dst.OccAvg = sizedF(dst.OccAvg, b.nq)
	dst.Cap = sizedF(dst.Cap, b.nq)
	dst.Rho = sizedF(dst.Rho, b.nq)
	dst.OccSlope = sizedF(dst.OccSlope, b.nq)
	dst.Rate = sizedF(dst.Rate, b.nq)
	dst.Drops = sizedU(dst.Drops, b.nq)
	dst.Rx = sizedU(dst.Rx, b.nq)
	dst.Tries = sizedU(dst.Tries, b.nq)
	dst.BusyTr = sizedU(dst.BusyTr, b.nq)
	dst.PubSeq = sizedU(dst.PubSeq, b.nq)
	dst.ThreadBusy = sizedF(dst.ThreadBusy, b.nt)
	dst.Heartbeat = sizedF(dst.Heartbeat, b.nt)
	for q := 0; q < b.nq; q++ {
		dst.Occ[q] = b.occ[q].loadF()
		dst.OccAvg[q] = b.occAvg[q].loadF()
		dst.Cap[q] = b.capacity[q].loadF()
		dst.Rho[q] = b.rho[q].loadF()
		dst.OccSlope[q] = b.slope[q].loadF()
		dst.Rate[q] = b.rate[q].loadF()
		dst.Drops[q] = b.drops[q].load()
		dst.Rx[q] = b.rx[q].load()
		dst.Tries[q] = b.tries[q].load()
		dst.BusyTr[q] = b.busyTry[q].load()
		dst.PubSeq[q] = b.pub[q].load()
	}
	for t := 0; t < b.nt; t++ {
		dst.ThreadBusy[t] = b.busy[t].loadF()
		dst.Heartbeat[t] = b.hb[t].loadF()
	}
}

func sizedF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func sizedU(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
