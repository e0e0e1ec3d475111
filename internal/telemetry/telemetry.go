// Package telemetry is the lock-free telemetry plane underneath the
// elastic control loop: a fixed set of atomic slots — per-queue log-scale
// latency histograms plus the series of the descriptor table below — that
// both execution substrates publish into and the elastic controller (or any
// observer) samples out of.
//
// The table is the list of series. It has three families, each keyed by an
// id: per-queue gauges (Gauge: Set/Get), per-queue counters (Counter:
// Add/Store/Load) and per-thread gauges (ThreadGauge: SetThread/Thread).
// Every row carries its exposition name, HELP text and Prometheus TYPE;
// Sample, the Prometheus exposition, expvar and metrotop all enumerate the
// table, so adding a signal is one id plus one row.
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

// Series is one row of the descriptor table: how a signal is exposed.
type Series struct {
	// Name is the exposition name without the namespace prefix.
	Name string
	// Help is the exposition's HELP text.
	Help string
	// Type is the Prometheus TYPE: "gauge", "counter" or "histogram".
	Type string
}

// Gauge identifies a per-queue float gauge.
type Gauge int

// The per-queue gauges, in exposition order.
const (
	// Occupancy is the queue's instantaneous buffered packet count.
	Occupancy Gauge = iota
	// OccAvg is the queue's time-averaged buffered packet count — the
	// occupancy integral over the publisher's accounting window divided by
	// the window, not a point sample. Point samples alias Metronome's cycle
	// structure badly (a probe at cycle end always reads an empty ring, one
	// at wake-up always reads a full vacation's worth); the window average
	// is the signal control laws should consume.
	OccAvg
	// Capacity is the queue's descriptor-ring capacity in packets.
	Capacity
	// Rho is the attendants' load estimate for the queue.
	Rho
	// OccSlope is the elastic controller's EWMA of d(occupancy/capacity)/dt
	// in capacity fractions per second, positive while a ramp or sine edge
	// is filling the ring. Observers read the control plane's predictive
	// input here instead of re-deriving it.
	OccSlope
	// ArrivalRate is the measured arrival rate in packets per second,
	// derived from deltas of the Rx counter over an accounting window, so
	// it reflects what actually entered the queue (drops excluded).
	ArrivalRate
	numGauges
)

// Gauges describes each Gauge, indexed by id.
var Gauges = [numGauges]Series{
	Occupancy:   {"queue_occupancy", "Last-published wake-time ring occupancy (packets).", "gauge"},
	OccAvg:      {"queue_occupancy_avg", "Time-averaged ring occupancy (packets).", "gauge"},
	Capacity:    {"queue_capacity", "Ring capacity (packets).", "gauge"},
	Rho:         {"queue_rho", "Attendant utilization estimate.", "gauge"},
	OccSlope:    {"queue_occupancy_slope", "Occupancy-fraction trend per second (feedforward input).", "gauge"},
	ArrivalRate: {"queue_arrival_rate_pps", "Measured arrival rate (packets/second).", "gauge"},
}

// Counter identifies a per-queue counter. The twin Stores the absolute
// totals its queue model owns; the live substrate Adds (a producer that
// failed an enqueue adds its drops, a retrieval goroutine its burst).
type Counter int

// The per-queue counters, in exposition order.
const (
	// Drops counts dropped packets (producer-side ring-full and pool-empty).
	Drops Counter = iota
	// Rx counts retrieved packets.
	Rx
	// Tries counts trylock attempts on the queue.
	Tries
	// BusyTries counts the trylock attempts that lost the race.
	BusyTries
	// PubSeq is the queue's publish sequence. Substrates add one per
	// per-queue publish block (a wake-time occupancy store, a cycle-end
	// gauge batch), so an observer that sees it hold still across its own
	// sampling cadence knows the queue's gauges are STALE. It is a sequence,
	// not a timestamp: the two substrates run on different clocks (virtual
	// seconds vs. nanoseconds since runner start) and the controller has a
	// third, so "has anything been published since I last looked" is the
	// only staleness question every combination can answer exactly.
	PubSeq
	numCounters
)

// Counters describes each Counter, indexed by id.
var Counters = [numCounters]Series{
	Drops:     {"queue_drops_total", "Dropped packets (producer-side ring-full and pool-empty).", "counter"},
	Rx:        {"queue_rx_total", "Retrieved packets.", "counter"},
	Tries:     {"queue_tries_total", "Lock attempts on the queue.", "counter"},
	BusyTries: {"queue_busy_tries_total", "Lock attempts that lost the race.", "counter"},
	PubSeq:    {"queue_pub_seq", "Telemetry publication sequence (staleness detector input).", "counter"},
}

// ThreadGauge identifies a per-thread float gauge. Thread indices at or
// above the bus's sized budget are dropped on publish and read as zero.
type ThreadGauge int

// The per-thread gauges, in exposition order.
const (
	// BusySeconds is the thread's cumulative on-CPU seconds.
	BusySeconds ThreadGauge = iota
	// Heartbeat is the substrate timestamp of the thread's last completed
	// service cycle (virtual seconds in the sim, seconds since runner start
	// live). The health layer does not compare it against its own clock —
	// cycle times strictly increase, so "did the value change since K
	// control periods ago" detects a stalled or dead member without any
	// cross-clock arithmetic.
	Heartbeat
	numThreadGauges
)

// ThreadGauges describes each ThreadGauge, indexed by id.
var ThreadGauges = [numThreadGauges]Series{
	BusySeconds: {"thread_busy_seconds_total", "Cumulative on-CPU seconds per team member.", "counter"},
	Heartbeat:   {"thread_heartbeat_seconds", "Last telemetry publish per member, in substrate seconds (liveness signal).", "gauge"},
}

// Latency describes the per-queue retrieval-latency histograms.
var Latency = Series{"queue_latency_seconds", "Per-packet retrieval latency, folded exactly from the bus's log-scale buckets; _sum is the conservative upper-edge estimate.", "histogram"}

// slot is one cache-line-padded atomic cell. Gauges store float64 bits,
// counters store uint64 counts; the interpretation is the bus's.
type slot struct {
	v atomic.Uint64
	_ [56]byte // pad to 64 bytes: no two slots share a line
}

func (s *slot) storeF(v float64) { s.v.Store(math.Float64bits(v)) }
func (s *slot) loadF() float64   { return math.Float64frombits(s.v.Load()) }

// Bus is the fixed-slot telemetry plane for one deployment: nq queues and
// up to nt threads (size it for the elastic budget, not the initial team).
type Bus struct {
	nq, nt int

	gauges   [numGauges][]slot       // per gauge id, one slot per queue
	counters [numCounters][]slot     // per counter id, one slot per queue
	threads  [numThreadGauges][]slot // per thread-gauge id, one slot per thread
	hist     []histBlock             // per-queue retrieval-latency histogram (counters)
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
	b := &Bus{nq: nQueues, nt: maxThreads, hist: make([]histBlock, nQueues)}
	for g := range b.gauges {
		b.gauges[g] = make([]slot, nQueues)
	}
	for c := range b.counters {
		b.counters[c] = make([]slot, nQueues)
	}
	for g := range b.threads {
		b.threads[g] = make([]slot, maxThreads)
	}
	return b
}

// Queues returns the number of queue slots.
func (b *Bus) Queues() int { return b.nq }

// Threads returns the number of thread slots.
func (b *Bus) Threads() int { return b.nt }

// Set publishes gauge g of queue q.
func (b *Bus) Set(g Gauge, q int, v float64) { b.gauges[g][q].storeF(v) }

// Get returns the last published gauge g of queue q.
func (b *Bus) Get(g Gauge, q int) float64 { return b.gauges[g][q].loadF() }

// Add accumulates n on counter c of queue q.
func (b *Bus) Add(c Counter, q int, n uint64) { b.counters[c][q].v.Add(n) }

// Store publishes an absolute total on counter c of queue q.
func (b *Bus) Store(c Counter, q int, n uint64) { b.counters[c][q].v.Store(n) }

// Load returns counter c of queue q.
func (b *Bus) Load(c Counter, q int) uint64 { return b.counters[c][q].v.Load() }

// SetThread publishes thread gauge g of thread t; indices beyond the sized
// budget are dropped, not faulted.
func (b *Bus) SetThread(g ThreadGauge, t int, v float64) {
	if t < b.nt {
		b.threads[g][t].storeF(v)
	}
}

// Thread returns thread gauge g of thread t (zero beyond the sized budget,
// and for a thread that never published).
func (b *Bus) Thread(g ThreadGauge, t int) float64 {
	if t >= b.nt {
		return 0
	}
	return b.threads[g][t].loadF()
}

// ThreadBusy returns thread t's cumulative on-CPU seconds: Thread(BusySeconds, t).
func (b *Bus) ThreadBusy(t int) float64 { return b.Thread(BusySeconds, t) }

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

// Snapshot is a caller-owned sample of the whole bus, indexed by id:
// Gauge[Occupancy][q], Counter[Drops][q], Thread[Heartbeat][t]. Reuse one
// value across Sample calls: after the first call sized to the bus,
// sampling allocates nothing.
type Snapshot struct {
	Gauge   [numGauges][]float64       // per-queue gauges, by Gauge id
	Counter [numCounters][]uint64      // per-queue counters, by Counter id
	Thread  [numThreadGauges][]float64 // per-thread gauges, by ThreadGauge id
}

// Sample fills dst with the current slot values, growing its slices only
// if they do not match the bus shape yet.
func (b *Bus) Sample(dst *Snapshot) {
	for g, slots := range b.gauges {
		dst.Gauge[g] = sampleF(dst.Gauge[g], slots)
	}
	for c, slots := range b.counters {
		v := sized(dst.Counter[c], len(slots))
		for q := range v {
			v[q] = slots[q].v.Load()
		}
		dst.Counter[c] = v
	}
	for g, slots := range b.threads {
		dst.Thread[g] = sampleF(dst.Thread[g], slots)
	}
}

func sampleF(dst []float64, slots []slot) []float64 {
	dst = sized(dst, len(slots))
	for i := range dst {
		dst[i] = slots[i].loadF()
	}
	return dst
}

func sized[T float64 | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
