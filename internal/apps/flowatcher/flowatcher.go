// Package flowatcher reimplements FloWatcher-DPDK (Zhang et al., TNSM
// 2019) in the run-to-completion mode the paper evaluates: the receiving
// thread itself maintains tunable per-packet and per-flow statistics — a
// hash flow table with exact counters, a count-min sketch for heavy-hitter
// estimation on constrained memory, and packet-size/interarrival summaries.
//
// The flow table is arena-backed (a pointer-free open-addressed index over
// fixed-size key and FlowStats blocks), so a monitor holds millions of
// concurrent flows without per-flow allocations or GC scan pressure. Each
// packet's 5-tuple is hashed once, under a per-monitor random seed, and that
// one value places the flow in the table and picks its sketch counters.
// Sharded splits one logical monitor into per-queue private shards —
// Toeplitz RSS already partitions flows per queue, and Metronome's per-queue
// trylock serialises each queue's service, so shard q needs no locks — with
// an exact read-time merge for TopK and reports.
package flowatcher

import (
	"math"
	"unsafe"

	"metronome/internal/apps"
	"metronome/internal/mbuf"
	"metronome/internal/packet"
	"metronome/internal/stats"
)

// cyclesPerPacket calibrates run-to-completion FloWatcher at 2.1 GHz:
// parsing, one flow-table update and sketch updates cost about 75 cycles
// amortised (µ ≈ 28 Mpps), letting it hold 14.88 Mpps with zero loss as in
// Fig 16b.
const cyclesPerPacket = 75

// FlowStats are the exact per-flow counters.
type FlowStats struct {
	Packets   int64
	Bytes     int64
	FirstSeen float64
	LastSeen  float64
	MinSize   int
	MaxSize   int
}

// merge folds src into dst (the Sharded read-time merge step).
func (dst *FlowStats) merge(src *FlowStats) {
	dst.Packets += src.Packets
	dst.Bytes += src.Bytes
	if src.FirstSeen < dst.FirstSeen {
		dst.FirstSeen = src.FirstSeen
	}
	if src.LastSeen > dst.LastSeen {
		dst.LastSeen = src.LastSeen
	}
	if src.MinSize < dst.MinSize {
		dst.MinSize = src.MinSize
	}
	if src.MaxSize > dst.MaxSize {
		dst.MaxSize = src.MaxSize
	}
}

// CountMin is a count-min sketch: conservative frequency estimation in
// fixed memory, the tool FloWatcher offers when exact tables do not fit.
// The depth row slots of a key all come from one 64-bit hash by double
// hashing (Kirsch–Mitzenmacher: row i uses h1 + i*h2 over the hash's two
// halves) and are reduced to [0, width) by multiply-shift, so a packet
// costs one hash whatever the depth and no division. Counters saturate at
// math.MaxUint32 instead of wrapping, so Estimate never undercounts a flow
// with fewer than 2^32 packets and reads MaxUint32 beyond.
type CountMin struct {
	depth, width int
	rows         []uint32 // depth rows of width counters, row-major
	seed         seed
}

// NewCountMin builds a sketch with the given depth (hash functions) and
// width (counters per row), each clamped to at least 1. A sketch built here
// hashes under its own seed; a Monitor's sketch is built on the monitor's.
func NewCountMin(depth, width int) *CountMin {
	return newCountMin(depth, width, newSeed())
}

func newCountMin(depth, width int, s seed) *CountMin {
	if depth < 1 {
		depth = 1
	}
	if width < 1 {
		width = 1
	}
	return &CountMin{depth: depth, width: width, rows: make([]uint32, depth*width), seed: s}
}

// counter returns row i's counter for a key hashed to h: the double-hashing
// step is forced odd so the rows' words differ.
func (cm *CountMin) counter(i int, h uint64) *uint32 {
	g := uint32(h) + uint32(i)*(uint32(h>>32)|1)
	return &cm.rows[i*cm.width+int(uint64(g)*uint64(cm.width)>>32)]
}

// Add counts one occurrence of k.
func (cm *CountMin) Add(k packet.FlowKey) { cm.add(cm.seed.hash(k)) }

// add is Add for a caller that already holds h = cm.seed.hash(k).
func (cm *CountMin) add(h uint64) {
	for i := 0; i < cm.depth; i++ {
		if c := cm.counter(i, h); *c != math.MaxUint32 {
			*c++
		}
	}
}

// Estimate returns the (never under-) estimated count of k.
func (cm *CountMin) Estimate(k packet.FlowKey) uint32 { return cm.estimate(cm.seed.hash(k)) }

// estimate is Estimate for a caller that already holds h = cm.seed.hash(k).
func (cm *CountMin) estimate(h uint64) uint32 {
	est := uint32(math.MaxUint32)
	for i := 0; i < cm.depth; i++ {
		if v := *cm.counter(i, h); v < est {
			est = v
		}
	}
	return est
}

// Monitor is the FloWatcher application. It is single-writer: one queue's
// serialised service feeds it (see Sharded for the multi-queue shape).
type Monitor struct {
	table FlowTable
	// Sketch counts under the monitor's own hash seed — that is what lets
	// account feed it the flow table's hash. It is exported to be read
	// (Estimate); a sketch from NewCountMin hashes under a different seed
	// and must not be assigned here.
	Sketch *CountMin

	// Packet-level statistics.
	Sizes        stats.Welford
	Interarrival stats.Welford
	lastArrival  float64
	haveArrival  bool

	Packets, Malformed int64

	// Clock injects the observation timestamp (simulated or wall time in
	// seconds); defaults to a packet counter if nil.
	Clock func() float64

	top topSel // reusable TopK selection buffer

	stage stage // ProcessBurst's first-pass results, reused for every chunk
}

// stageChunk bounds how many packets ProcessBurst stages ahead of their
// accounting: enough that the first packet's lines have arrived when the
// second pass reaches it, few enough that the chunk's hinted lines (one index
// slot and the sketch's depth counters per packet) still fit L1 beside the
// frames.
const stageChunk = 64

// stage is what the first pass of a chunk leaves for the second: each
// parseable packet's key and hash, and the addresses the accounting will
// touch, collected so one call hints them all. It lives in the Monitor (not
// on the stack, which would be cleared per call) and holds no pointers.
type stage struct {
	keys   [stageChunk]packet.FlowKey
	hashes [stageChunk]uint64
	hints  []uintptr // sized for stageChunk * (1 + sketch depth) addresses
}

// New builds a monitor with an exact flow table and a 4x16384 sketch
// (FloWatcher's double-hash default scale).
func New() *Monitor { return newMonitor(newSeed()) }

// newMonitor builds a monitor whose table and sketch hash under s.
func newMonitor(s seed) *Monitor {
	m := &Monitor{
		table:  newFlowTable(s),
		Sketch: newCountMin(4, 16384, s),
	}
	m.stage.hints = make([]uintptr, 0, stageChunk*(1+m.Sketch.depth))
	return m
}

// Name implements apps.Processor.
func (m *Monitor) Name() string { return "flowatcher" }

// CyclesPerPacket implements apps.Processor.
func (m *Monitor) CyclesPerPacket() float64 { return cyclesPerPacket }

func (m *Monitor) now() float64 {
	if m.Clock != nil {
		return m.Clock()
	}
	return float64(m.Packets)
}

// account folds one accepted packet into every statistic — the shared body
// of Process and ProcessBurst, so the two paths agree by construction. The
// key is hashed once (h must be m.table.seed.hash(key)); the flow table and
// the sketch both work from that.
func (m *Monitor) account(key packet.FlowKey, h uint64, size int) {
	t := m.now()
	m.Packets++

	fs, isNew := m.table.get(key, h)
	if isNew {
		fs.FirstSeen = t
		fs.MinSize, fs.MaxSize = size, size
	}
	fs.Packets++
	fs.Bytes += int64(size)
	fs.LastSeen = t
	if size < fs.MinSize {
		fs.MinSize = size
	}
	if size > fs.MaxSize {
		fs.MaxSize = size
	}
	m.Sketch.add(h)

	m.Sizes.Add(float64(size))
	if m.haveArrival {
		m.Interarrival.Add(t - m.lastArrival)
	}
	m.lastArrival = t
	m.haveArrival = true
}

// Process implements apps.Processor.
func (m *Monitor) Process(buf *mbuf.Mbuf) apps.Verdict {
	var p packet.Parsed
	if err := p.Parse(buf.Bytes()); err != nil {
		m.Malformed++
		return apps.Drop
	}
	m.account(p.Key, m.table.seed.hash(p.Key), buf.Len)
	return apps.Consume
}

// ProcessBurst implements apps.BurstProcessor natively: one virtual
// dispatch per burst and the raw-offset header walk (packet.ParseLite) in
// place of the full layer decode — the statistics body is the same account
// the per-packet path runs, so verdicts and counters are byte-identical on
// any input stream (test-enforced). Steady state (no new flows) allocates
// nothing; a new flow costs only its amortised arena slot.
//
// The burst is worked in chunks of at most stageChunk packets, two passes
// each. The first parses and hashes every packet and hints the CPU at the
// lines the accounting will need — the flow's home index slot and its sketch
// counters, which on a table of any size are cache misses. The second runs
// account in arrival order on the saved keys and hashes, by which time the
// chunk's misses have overlapped instead of being taken one packet at a time.
// Everything observable — counters, Malformed included, and the clock reads —
// happens in the second pass, packet by packet, as on the per-packet path.
func (m *Monitor) ProcessBurst(ms []*mbuf.Mbuf, verdicts []apps.Verdict) {
	for len(ms) > 0 {
		n := min(len(ms), stageChunk)
		m.processChunk(ms[:n], verdicts[:n])
		ms, verdicts = ms[n:], verdicts[n:]
	}
}

// processChunk is ProcessBurst for at most stageChunk packets.
func (m *Monitor) processChunk(ms []*mbuf.Mbuf, verdicts []apps.Verdict) {
	st := &m.stage
	hints := st.hints[:0]
	mask := uint64(len(m.table.idx) - 1)
	depth := m.Sketch.depth
	for i, buf := range ms {
		var l packet.Lite
		if err := packet.ParseLite(buf.Bytes(), &l); err != nil {
			verdicts[i] = apps.Drop
			continue
		}
		verdicts[i] = apps.Consume
		h := m.table.seed.hash(l.Key)
		st.keys[i], st.hashes[i] = l.Key, h
		hints = append(hints, uintptr(unsafe.Pointer(&m.table.idx[h&mask])))
		for r := 0; r < depth; r++ {
			hints = append(hints, uintptr(unsafe.Pointer(m.Sketch.counter(r, h))))
		}
	}
	mbuf.PrefetchLines(hints)
	st.hints = hints[:0] // keeps the growth if a sketch deeper than New's was assigned
	for i, buf := range ms {
		if verdicts[i] == apps.Drop {
			m.Malformed++
			continue
		}
		m.account(st.keys[i], st.hashes[i], buf.Len)
	}
}

// FlowCount returns the number of distinct flows observed.
func (m *Monitor) FlowCount() int { return m.table.Len() }

// Flow returns the exact stats of flow k; the pointer stays valid (and
// live) for the monitor's lifetime.
func (m *Monitor) Flow(k packet.FlowKey) (*FlowStats, bool) { return m.table.Flow(k) }

// Range calls fn for every flow until it returns false, in first-seen order.
func (m *Monitor) Range(fn func(k packet.FlowKey, fs *FlowStats) bool) { m.table.Range(fn) }

// TopK returns the k busiest flows by exact packet count, descending, ties
// broken by ascending key. It is a partial selection over a reusable
// bounded heap — O(F log k) and no full key-slice materialisation, where
// the previous implementation allocated and fully sorted all F keys (with a
// string render per comparison) on every call.
func (m *Monitor) TopK(k int) []packet.FlowKey {
	m.top.reset(k)
	m.table.Range(func(key packet.FlowKey, fs *FlowStats) bool {
		m.top.offer(flowRef{key: key, packets: fs.Packets})
		return true
	})
	refs := m.top.sorted()
	out := make([]packet.FlowKey, len(refs))
	for i, r := range refs {
		out[i] = r.key
	}
	return out
}

var _ apps.BurstProcessor = (*Monitor)(nil)
