// Package nic models the receive side of a DPDK-driven NIC at the level
// Metronome observes it: per-queue descriptor rings fed by an arrival
// process, drained in fluid busy periods at the application's service rate,
// with drop accounting against the ring capacity and MoonGen-style
// latency tagging of a sampled subset of packets.
//
// A per-packet discrete-event simulation is intractable at 14.88 Mpps over
// minutes of virtual time; the cycle-level model instead advances queue
// occupancy analytically between the events Metronome actually reacts to
// (thread wake-ups, lock hand-offs, drain completions). See DESIGN.md §4.
package nic

import (
	"math"

	"metronome/internal/stats"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// Options configure a queue beyond its arrival process.
type Options struct {
	// Cap is the Rx descriptor ring size (32..4096 on an X520; the paper
	// uses the DPDK default of 4096 for loss-sensitive runs).
	Cap int64
	// TagProb is the probability that an arrival is latency-tagged
	// (MoonGen timestamps a subset; so do we).
	TagProb float64
	// BaseLatency is the fixed wire+NIC+DMA path latency added to every
	// tagged sample (the floor below which no software can go).
	BaseLatency float64
	// TxBatch is the transmit flush threshold in packets; a packet's
	// departure completes when its batch fills or, for a cycle's final
	// partial batch, at the next service period (Sec. V-C). <= 1 flushes
	// immediately.
	TxBatch int
}

// DefaultOptions mirror the paper's single-queue setup. The effective
// buffering of 576 packets is what Table I's loss pattern implies: a
// 512-descriptor Rx ring plus one 64-packet NIC-FIFO burst of headroom.
// At target V̄=20us the vacation-length atom (~573 packets at line rate)
// grazes that limit, so only the upper tail of the distribution clips —
// the paper's 1.18 permille — while V̄<=15us (N_V <= ~440) is loss-free.
func DefaultOptions() Options {
	return Options{Cap: 576, TagProb: 0.001, BaseLatency: 6.8e-6, TxBatch: 32}
}

type tagEntry struct {
	arrival float64
	pos     float64 // ordinal within the cycle (1-based, fractional ok)
}

// Queue is one Rx queue.
type Queue struct {
	ID   int
	Opt  Options
	Proc traffic.Process
	Rng  *xrand.Rand

	// occupancy state
	upTo   float64 // arrivals integrated up to this time
	occ    float64 // packets buffered at upTo
	occInt float64 // time integral of occupancy (packet-seconds) up to upTo

	// dark marks a blacked-out queue (fault injection): polls find nothing
	// while arrivals keep accruing against the ring capacity, so the
	// backlog — and past capacity, the drops — build exactly as they would
	// behind a flapped link. Toggle with SetDark.
	dark bool

	// cycle state
	serving      bool
	vacStart     float64
	serviceStart float64
	serveT       float64 // service progress time
	mu           float64
	cyclePos     float64 // arrivals so far in this cycle (served ordinals)
	tagged       []tagEntry
	pending      []float64 // arrival times awaiting next-cycle tx flush

	// statistics
	RxPackets int64
	Served    int64
	Drops     int64
	VacObs    stats.Welford
	BusyObs   stats.Welford
	NVObs     stats.Welford
	Lat       stats.Sample

	// LatSink, when non-nil, receives every tagged packet's retrieval
	// latency (seconds) alongside Lat — the hook the core engine uses to
	// publish the sim substrate's exact fluid latencies into the
	// telemetry bus's histograms without nic knowing about the bus.
	LatSink func(latSeconds float64)

	rxAcc, servedAcc float64 // float accumulators behind the int counters
}

// lat records one tagged packet's retrieval latency into the Sample and,
// when installed, the latency sink.
func (q *Queue) lat(v float64) {
	q.Lat.Add(v)
	if q.LatSink != nil {
		q.LatSink(v)
	}
}

// NewQueue builds a queue over an arrival process. rng may be shared only
// within one goroutine (simulations are single-threaded).
func NewQueue(id int, proc traffic.Process, rng *xrand.Rand, opt Options) *Queue {
	if opt.Cap <= 0 {
		opt.Cap = 4096
	}
	return &Queue{ID: id, Opt: opt, Proc: proc, Rng: rng}
}

// Occupancy returns the buffered packet count at time t (synchronising
// pending arrivals if the queue is idle).
func (q *Queue) Occupancy(t float64) float64 {
	if !q.serving {
		q.syncIdle(t)
	}
	return q.occ
}

// syncIdle accumulates arrivals into the buffer while nobody serves.
func (q *Queue) syncIdle(t float64) {
	if t <= q.upTo {
		return
	}
	old := q.occ
	n := float64(q.Proc.CountIn(q.upTo, t, q.Rng))
	q.addArrivals(n)
	// Fluid view: occupancy grew linearly from old to occ over the window,
	// so the trapezoid is the exact integral contribution.
	q.occInt += (old + q.occ) / 2 * (t - q.upTo)
	q.upTo = t
}

// addArrivals accounts n arrivals against capacity: packets beyond the
// ring size are dropped (the NIC's imissed counter), the rest are received.
func (q *Queue) addArrivals(n float64) {
	kept := n
	if over := q.occ + n - float64(q.Opt.Cap); over > 0 {
		kept = n - over
		q.Drops += int64(over)
	}
	q.rxAcc += kept
	// x - floor(x) is exact for any float >= 0, so draining the integer
	// part in one step is bit-identical to decrementing in a loop — without
	// the O(packets) cost that used to dominate simulation profiles.
	if q.rxAcc >= 1 {
		n := math.Floor(q.rxAcc)
		q.rxAcc -= n
		q.RxPackets += int64(n)
	}
	q.occ += kept
}

// SetDark blacks out (dark=true) or recovers (dark=false) the queue. While
// dark, BeginService reports an empty queue (the NIC looks dead to a
// poller) but arrivals keep integrating against the ring: occupancy builds,
// overflow drops accrue, and the whole backlog surfaces at the first
// post-recovery service cycle. Occupancy is synchronised to t first so the
// transition lands exactly on the fluid model's clock.
func (q *Queue) SetDark(t float64, dark bool) {
	if q.dark == dark {
		return
	}
	if !q.serving {
		q.syncIdle(t)
	}
	q.dark = dark
}

// Dark reports whether the queue is blacked out.
func (q *Queue) Dark() bool { return q.dark }

// BeginService closes the current vacation period at time t and starts a
// busy period drained at mu packets/second. It returns the packets found
// waiting (the paper's N_V). On a dark queue it returns zero — the poll
// sees nothing — while the synchronised backlog stays buffered for
// recovery.
func (q *Queue) BeginService(t, mu float64) (nv float64) {
	if q.serving {
		panic("nic: BeginService while serving")
	}
	if mu <= 0 {
		panic("nic: non-positive service rate")
	}
	// Arrivals of the vacation period [vacStart, t).
	preOcc := q.occ
	q.syncIdle(t)
	nv = q.occ
	if q.dark {
		// The ring holds preOcc..occ packets, but the NIC is dark: the poll
		// observes nothing and this cycle serves nothing. Tagging is skipped
		// too — a stuck packet's latency resolves after recovery, and most
		// of the deep-backlog tags would be dropped fluid anyway.
		q.VacObs.Add(t - q.vacStart)
		q.NVObs.Add(0)
		q.serving = true
		q.serviceStart = t
		q.serveT = t
		q.mu = mu
		q.cyclePos = 0
		return 0
	}
	q.VacObs.Add(t - q.vacStart)
	q.NVObs.Add(nv)

	// Tag a sample of the vacation arrivals for latency accounting.
	newArr := nv - preOcc
	if q.Opt.TagProb > 0 && newArr > 0 && t > q.vacStart {
		k := q.Rng.Poisson(newArr * q.Opt.TagProb)
		for i := int64(0); i < k; i++ {
			a := q.Rng.Uniform(q.vacStart, t)
			// ordinal among this cycle's arrivals
			pos := preOcc + float64(q.Proc.CountIn(q.vacStart, a, q.Rng)) + 1
			if pos <= float64(q.Opt.Cap) {
				q.tagged = append(q.tagged, tagEntry{arrival: a, pos: pos})
			}
		}
	}

	// The previous cycle's final partial Tx batch flushes as transmission
	// resumes now.
	for _, a := range q.pending {
		q.lat(t + 1/mu - a + q.Opt.BaseLatency)
	}
	q.pending = q.pending[:0]

	q.serving = true
	q.serviceStart = t
	q.serveT = t
	q.mu = mu
	q.cyclePos = nv
	return nv
}

// Retune updates the service rate mid-busy-period (per-slice service-time
// noise, or a governor frequency change). Tagged-packet departures use the
// rate in effect when the cycle ends — an approximation that is exact for
// constant rates and unbiased for zero-mean noise.
func (q *Queue) Retune(mu float64) {
	if !q.serving {
		panic("nic: Retune while idle")
	}
	if mu <= 0 {
		panic("nic: non-positive service rate")
	}
	q.mu = mu
}

// ServeSlice advances the busy period by at most maxDur seconds of service.
// It returns done=true with the drain completion time when the queue
// empties within the slice; otherwise done=false and service continues at
// end (= start + maxDur). The arrival rate is sampled at the slice start
// (all our processes are piecewise constant at much coarser scales).
func (q *Queue) ServeSlice(maxDur float64) (done bool, end float64) {
	if !q.serving {
		panic("nic: ServeSlice while idle")
	}
	t0 := q.serveT
	occ0 := q.occ
	lambda := q.Proc.Rate(t0)
	var dt float64
	if q.mu > lambda {
		drainTime := q.occ / (q.mu - lambda)
		if drainTime <= maxDur {
			dt, done = drainTime, true
		} else {
			dt = maxDur
		}
	} else {
		dt = maxDur // overloaded: the slice cannot finish the queue
	}
	end = t0 + dt

	arrivals := float64(q.Proc.CountIn(t0, end, q.Rng))

	// Tag a sample of busy-period arrivals. Skip when the ring is at
	// capacity: those arrivals are being dropped, not queued.
	if q.Opt.TagProb > 0 && arrivals > 0 && q.occ < float64(q.Opt.Cap) {
		k := q.Rng.Poisson(arrivals * q.Opt.TagProb)
		for i := int64(0); i < k; i++ {
			a := q.Rng.Uniform(t0, end)
			pos := q.cyclePos + lambda*(a-t0) + 1
			q.tagged = append(q.tagged, tagEntry{arrival: a, pos: pos})
		}
	}

	// Service and arrival are concurrent within the slice: the occupancy
	// moves at the net rate, and drops occur only for the fluid that would
	// push it past the ring capacity.
	var servedWant, dropped float64
	if done {
		servedWant = q.occ + arrivals // exact: drain everything
		q.occ = 0
	} else {
		servedWant = q.mu * dt
		net := arrivals - servedWant
		if net > 0 {
			// Occupancy grows at the net rate; fluid past the ring
			// capacity is dropped.
			if over := q.occ + net - float64(q.Opt.Cap); over > 0 {
				dropped = over
				q.Drops += int64(over)
				net -= over
			}
		}
		q.occ += net
		if q.occ < 0 {
			// Fewer packets were there than mu*dt could have served (a
			// slice near critical load): credit only what was present.
			servedWant += q.occ
			q.occ = 0
		}
	}
	q.rxAcc += arrivals - dropped
	if q.rxAcc >= 1 {
		n := math.Floor(q.rxAcc)
		q.rxAcc -= n
		q.RxPackets += int64(n)
	}
	q.cyclePos += arrivals
	q.servedAcc += servedWant
	if q.servedAcc >= 1 {
		n := math.Floor(q.servedAcc)
		q.servedAcc -= n
		q.Served += int64(n)
	}
	// Within a slice the occupancy moves at a constant net rate (or drains
	// linearly to zero), so the trapezoid over the slice is exact.
	q.occInt += (occ0 + q.occ) / 2 * dt
	q.serveT = end
	q.upTo = end
	return done, end
}

// EndService closes the busy period at time t (the queue must have been
// drained by a final ServeSlice; empty polls may end immediately). Tagged
// packets resolve their departure and Tx-flush latency here.
func (q *Queue) EndService(t float64) {
	if !q.serving {
		panic("nic: EndService while idle")
	}
	q.BusyObs.Add(t - q.serviceStart)

	total := q.cyclePos
	batch := float64(q.Opt.TxBatch)
	for _, e := range q.tagged {
		depart := q.serviceStart + e.pos/q.mu
		if q.Opt.TxBatch <= 1 {
			q.lat(depart - e.arrival + q.Opt.BaseLatency)
			continue
		}
		flushOrd := math.Ceil(e.pos/batch) * batch
		if flushOrd <= total {
			fl := q.serviceStart + flushOrd/q.mu
			q.lat(fl - e.arrival + q.Opt.BaseLatency)
		} else {
			// Final partial batch: flushes when transmission resumes in
			// the next busy period.
			q.pending = append(q.pending, e.arrival)
		}
	}
	q.tagged = q.tagged[:0]

	q.serving = false
	q.vacStart = t
	if q.dark {
		// Dark cycle: nothing was served, arrivals kept flowing. Integrate
		// them up to t instead of zeroing — the backlog (and its overflow
		// drops) survives for the first post-recovery cycle.
		q.syncIdle(t)
		return
	}
	if t > q.upTo {
		// Constant occupancy across the tail gap, then the close-out zeroes
		// it at t.
		q.occInt += q.occ * (t - q.upTo)
		q.upTo = t
	}
	q.occ = 0
}

// Reset clears statistics (not occupancy), so experiments can discard
// warm-up transients.
func (q *Queue) Reset(t float64) {
	q.RxPackets, q.Served, q.Drops = 0, 0, 0
	q.VacObs, q.BusyObs, q.NVObs = stats.Welford{}, stats.Welford{}, stats.Welford{}
	q.Lat = stats.Sample{}
	_ = t
}

// OccIntegral returns the cumulative time integral of occupancy in
// packet-seconds, exact as of the last state-advancing call (BeginService,
// ServeSlice, EndService or an idle Occupancy probe). Dividing a delta of
// this integral by the window length yields the true time-averaged
// occupancy over the window — free of the sampling alias a point probe
// suffers, since Metronome's cycle structure pins point samples to the
// cycle phase the prober happens to run in. The integral survives Reset
// (observers difference it, so the epoch does not matter).
func (q *Queue) OccIntegral() float64 { return q.occInt }

// LossRate returns the drop fraction of offered packets.
func (q *Queue) LossRate() float64 {
	offered := q.RxPackets + q.Drops
	if offered == 0 {
		return 0
	}
	return float64(q.Drops) / float64(offered)
}

// Fill seeds the queue with n packets at time t (test hook and burst
// injection).
func (q *Queue) Fill(t float64, n float64) {
	q.syncIdle(t)
	q.addArrivals(n)
}
