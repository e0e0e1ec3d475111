package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"metronome/internal/apps"
	"metronome/internal/hrtimer"
	"metronome/internal/mbuf"
	"metronome/internal/runtime"
	"metronome/internal/stats"
	"metronome/internal/telemetry"
)

// The traced run sees the program only from outside: every span is taken
// by a wrapper around one layer's public call (Sleeper.Sleep,
// RxQueue.PollBurst, BurstProcessor.ProcessBurst, Cache.GetBurst,
// RxRing.EnqueueBurst). Nothing inside internal/ is touched.

type spanKind uint8

const (
	spanCycle   spanKind = iota // first poll of a service turn .. its empty poll
	spanPoll                    // one PollBurst call
	spanProcess                 // one ProcessBurst call
	spanRecycle                 // ProcessBurst return .. next PollBurst call
	spanSleep                   // one Sleeper.Sleep call
	spanEnqueue                 // generator: one EnqueueBurst call
	spanGet                     // generator: one Cache.GetBurst call
	nSpanKinds
)

var spanNames = [nSpanKinds]string{"cycle", "poll", "process", "recycle-gap", "sleep", "enqueue", "get"}

// Extra distributions folded alongside the span durations.
const (
	histVacation  = int(nSpanKinds) + iota // empty poll .. next first poll of the queue (the paper's V)
	histRequested                          // Sleep's argument
	histOvershoot                          // Sleep's actual duration minus its argument
	nHists
)

// rawSpan is one kept span. parent indexes the enclosing cycle span in the
// same slab (-1: none); q is the Rx queue (-1: not queue-bound).
type rawSpan struct {
	start, end int64
	parent     int32
	q          int16
	kind       spanKind
}

const maxRawSpans = 200_000

// queueTrace is one queue's service-turn state and sums. The runner's
// per-queue trylock makes it single-writer, like the processor it sits
// beside.
type queueTrace struct {
	inCycle    bool
	parent     int32 // slab index of the open cycle span
	cycleStart int64
	children   int64 // ns covered by the open cycle's child spans
	procEnd    int64 // end of the last ProcessBurst of the open cycle (0: none yet)
	procN      int   // packets of that burst
	lastEmpty  int64 // end of the empty poll that closed the previous cycle

	pollNs, processNs, recycleNs, selfNs int64
	polledPkts, recycledPkts             uint64
	emptyPolls                           uint64
	_                                    [64]byte // keep neighbouring queues off one cache line
}

// tracer holds a traced run's spans in preallocated memory.
type tracer struct {
	on    atomic.Bool // set at the start of the measured window
	spans []rawSpan
	next  atomic.Int64
	// hists is a telemetry.Bus used for what it already is — one atomic
	// log-histogram block per "queue" — with a span kind or hist* constant
	// as the queue index: the M retrieval goroutines all sleep through one
	// Sleeper, so these need concurrent writers.
	hists *telemetry.Bus
	qs    []queueTrace

	// Generator-side sums (single writer: the generator thread).
	getNs, enqueueNs  int64
	getPkts, enqueued uint64
	fullRejects       uint64
	occupancyMax      int
}

func newTracer(queues int) *tracer {
	return &tracer{spans: make([]rawSpan, maxRawSpans), hists: telemetry.NewBus(nHists, 0), qs: make([]queueTrace, queues)}
}

func (t *tracer) record(hist int, ns int64) { t.hists.RecordLatency(hist, uint64(max(ns, 0))) }

func (t *tracer) hist(hist int) *stats.LogHistogram {
	h := new(stats.LogHistogram)
	t.hists.SampleLatency(hist, h)
	return h
}

// claim reserves a slab slot, or -1 once the slab is full; the histograms
// keep folding after that.
func (t *tracer) claim() int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	return int32(i)
}

func (t *tracer) put(i int32, k spanKind, q int, parent int32, start, end int64) {
	if i >= 0 {
		t.spans[i] = rawSpan{start: start, end: end, parent: parent, q: int16(q), kind: k}
	}
}

func (t *tracer) span(k spanKind, q int, parent int32, start, end int64) {
	t.record(int(k), end-start)
	t.put(t.claim(), k, q, parent, start, end)
}

// poll accounts one PollBurst on queue q that returned n packets.
func (t *tracer) poll(q int, t0, t1 int64, n int) {
	s := &t.qs[q]
	if !s.inCycle {
		s.inCycle = true
		s.parent = t.claim()
		s.cycleStart = t0
		s.children = 0
		s.procEnd = 0
		if s.lastEmpty != 0 {
			t.record(histVacation, t0-s.lastEmpty)
		}
	} else if s.procEnd != 0 {
		t.span(spanRecycle, q, s.parent, s.procEnd, t0)
		s.children += t0 - s.procEnd
		s.recycleNs += t0 - s.procEnd
		s.recycledPkts += uint64(s.procN)
	}
	t.span(spanPoll, q, s.parent, t0, t1)
	s.children += t1 - t0
	s.pollNs += t1 - t0
	s.polledPkts += uint64(n)
	if n > 0 {
		return
	}
	// The empty poll ends the work-conserving drain: close the cycle.
	s.emptyPolls++
	t.record(int(spanCycle), t1-s.cycleStart)
	t.put(s.parent, spanCycle, q, -1, s.cycleStart, t1)
	s.selfNs += (t1 - s.cycleStart) - s.children
	s.inCycle = false
	s.lastEmpty = t1
}

// process accounts one ProcessBurst of n packets on queue q.
func (t *tracer) process(q int, t0, t1 int64, n int) {
	s := &t.qs[q]
	if !s.inCycle {
		return // window opened mid-cycle; the next poll starts a clean one
	}
	t.span(spanProcess, q, s.parent, t0, t1)
	s.children += t1 - t0
	s.processNs += t1 - t0
	s.procEnd = t1
	s.procN = n
}

// tracedSleeper wraps the runner's Sleeper (the hrtimer layer).
type tracedSleeper struct {
	inner hrtimer.Sleeper
	tr    *tracer
}

func (s tracedSleeper) Sleep(d time.Duration) {
	if !s.tr.on.Load() {
		s.inner.Sleep(d)
		return
	}
	t0 := mbuf.Nanotime()
	s.inner.Sleep(d)
	t1 := mbuf.Nanotime()
	s.tr.span(spanSleep, -1, -1, t0, t1)
	s.tr.record(histRequested, int64(d))
	s.tr.record(histOvershoot, t1-t0-int64(d))
}

// tracedQueue wraps one Rx ring's consumer side (the ring layer). It keeps
// Len and Cap visible so the runner's occupancy probes behave exactly as
// on the bare ring.
type tracedQueue struct {
	inner runtime.RxRing
	q     int
	tr    *tracer
}

func (t tracedQueue) PollBurst(out []*mbuf.Mbuf) int {
	if !t.tr.on.Load() {
		return t.inner.PollBurst(out)
	}
	t0 := mbuf.Nanotime()
	n := t.inner.PollBurst(out)
	t.tr.poll(t.q, t0, mbuf.Nanotime(), n)
	return n
}

func (t tracedQueue) Len() int { return t.inner.Len() }
func (t tracedQueue) Cap() int { return t.inner.Cap() }

// meter is the benchmark-owned apps.BurstProcessor around each queue's
// real processor. It is in BOTH runs: it owns the outside latency
// histogram (one clock read per burst, one record per packet) and the
// verdict tallies. Only the span around the inner call is trace-only.
// Single-writer under the runner's per-queue trylock.
type meter struct {
	apps.BurstProcessor
	q   int
	lw  *liveWorld
	tr  *tracer // nil in the untraced run
	win bool    // this queue has entered the measured window

	lat      [subWindows]stats.LogHistogram // measured window, one per sub-window
	pkts     uint64                         // measured window only
	total    uint64                         // whole run
	verdicts [3]uint64                      // whole run
}

func (m *meter) ProcessBurst(ms []*mbuf.Mbuf, verdicts []apps.Verdict) {
	now := mbuf.Nanotime()
	if m.win {
		// The drain tail after the last edge lands in the last sub-window.
		h := &m.lat[min((now-m.lw.winStart)/m.lw.subLen, subWindows-1)]
		for _, b := range ms {
			// Same acceptance rule as the runner's own RecordLatency loop,
			// so the two histograms hold the same packets.
			if lat := now - b.RxStampNs; b.RxStampNs > 0 && lat > 0 {
				h.Record(uint64(lat))
			}
		}
		m.pkts += uint64(len(ms))
	} else if m.lw.measuring.Load() {
		// The runner has already recorded this burst on the bus. Wiping
		// the bus histogram here — under the queue's trylock, between two
		// of its bursts — makes "bus count == our count" exact from the
		// next burst on.
		m.win = true
		m.lw.bus.ResetLatency(m.q)
	}
	m.BurstProcessor.ProcessBurst(ms, verdicts)
	if m.tr != nil && m.tr.on.Load() {
		m.tr.process(m.q, now, mbuf.Nanotime(), len(ms))
	}
	for _, v := range verdicts[:len(ms)] {
		m.verdicts[v]++
	}
	m.total += uint64(len(ms))
}

// writeTrace dumps the kept spans as Chrome/Perfetto trace-event JSON.
// One track per Rx queue, one for sleeps, one per generator queue.
func (t *tracer) writeTrace(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	n := min(int(t.next.Load()), len(t.spans))
	var base int64
	for _, s := range t.spans[:n] {
		if s.start != 0 && (base == 0 || s.start < base) {
			base = s.start
		}
	}
	// One strconv-built line per span: 200k Fprintf calls would take longer
	// than a smoke run measures.
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	line := make([]byte, 0, 256)
	first := true
	for i, s := range t.spans[:n] {
		if s.start == 0 {
			continue // a cycle slot claimed but still open when the run stopped
		}
		tid := int64(s.q) + 1
		switch s.kind {
		case spanSleep:
			tid = 100
		case spanEnqueue, spanGet:
			tid = 200 + int64(s.q) + 1
		}
		line = line[:0]
		if !first {
			line = append(line, ',')
		}
		first = false
		line = append(line, "\n{\"name\":\""...)
		line = append(line, spanNames[s.kind]...)
		line = append(line, "\",\"ph\":\"X\",\"pid\":1,\"tid\":"...)
		line = strconv.AppendInt(line, tid, 10)
		line = append(line, ",\"ts\":"...)
		line = strconv.AppendFloat(line, float64(s.start-base)/1e3, 'f', 3, 64)
		line = append(line, ",\"dur\":"...)
		line = strconv.AppendFloat(line, float64(s.end-s.start)/1e3, 'f', 3, 64)
		line = append(line, ",\"args\":{\"id\":"...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, ",\"parent\":"...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, ",\"queue\":"...)
		line = strconv.AppendInt(line, int64(s.q), 10)
		line = append(line, "}}"...)
		w.Write(line)
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}
