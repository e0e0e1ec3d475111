package flowatcher

import (
	"hash/maphash"
	"math/bits"
	"sort"

	"metronome/internal/packet"
)

// The arena geometry: FlowStats live in fixed-size blocks so the table can
// hold millions of flows without per-flow pointer churn, and the flow keys
// live in blocks of the same geometry beside them. Everything is pointer-free
// (index entries, keys, stats), so the GC never scans the table. Blocks never
// move once allocated (only the slices of block headers grow), so *FlowStats
// handed out by Flow/Range stay valid for the table's lifetime — the index
// is the only part that is ever rebuilt.
const (
	blockShift = 12 // 4096 flows per block (192 KiB of FlowStats, 64 KiB of keys)
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1

	minIndex = 1 << 10 // index slots of a fresh table (8 KiB)
)

// seed keys the one hash a monitor computes per packet. It is drawn per
// logical monitor (a Sharded's shards share theirs, so a read-time merge
// hashes a key once for all shards) because the Go map this table replaced
// was seeded too: a sender must not be able to pick its probe chain, or the
// sketch counters it lands on, from the wire.
type seed struct{ a, b uint64 }

// newSeed draws a seed from the runtime's per-process randomness: a fresh
// maphash.Hash seeds itself at random, so its empty sum is a random word.
func newSeed() seed {
	return seed{new(maphash.Hash).Sum64(), new(maphash.Hash).Sum64()}
}

// hash mixes the 5-tuple into 64 bits with two seeded 64x64->128 multiply
// folds (wyhash's 16-byte case): a handful of cycles, no loop over bytes.
// The flow table takes its home slot from the low bits and its tag from the
// high half; the sketch takes its two double-hashing words from the halves.
func (s seed) hash(k packet.FlowKey) uint64 {
	addrs := uint64(k.Src)<<32 | uint64(k.Dst)
	l4 := uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto)
	hi, lo := bits.Mul64(addrs^s.a, l4^s.b)
	hi, lo = bits.Mul64(lo^s.a, hi^s.b)
	return hi ^ lo
}

// slot is one index entry: the high half of the flow's hash, compared before
// the key is fetched from the arena, and the arena id plus one (0 = empty).
type slot struct {
	tag uint32
	ref uint32
}

// FlowTable is the arena-backed exact-counter flow table: an open-addressed,
// linear-probe index of power-of-two size, kept at most half full, over
// block-allocated keys and FlowStats. Flows are never deleted, so there are
// no tombstones and the arena id of a flow is its first-seen rank. The zero
// value is not usable; Monitor constructs its own.
type FlowTable struct {
	seed   seed
	idx    []slot
	n      int // flows stored; also the next free arena id
	keys   [][]packet.FlowKey
	blocks [][]FlowStats
}

func newFlowTable(s seed) FlowTable {
	return FlowTable{seed: s, idx: make([]slot, minIndex)}
}

// Len returns the number of distinct flows.
func (t *FlowTable) Len() int { return t.n }

func (t *FlowTable) at(id uint32) *FlowStats {
	return &t.blocks[id>>blockShift][id&blockMask]
}

func (t *FlowTable) key(id uint32) packet.FlowKey {
	return t.keys[id>>blockShift][id&blockMask]
}

// probe walks k's chain from its home slot and returns the position of k's
// entry, or of the empty slot that ends the chain (ref == 0). h must be
// t.seed.hash(k). The half-full bound guarantees the walk ends.
func (t *FlowTable) probe(k packet.FlowKey, h uint64) uint64 {
	mask := uint64(len(t.idx) - 1)
	tag := uint32(h >> 32)
	i := h & mask
	for {
		e := t.idx[i]
		if e.ref == 0 || (e.tag == tag && t.key(e.ref-1) == k) {
			return i
		}
		i = (i + 1) & mask
	}
}

// Flow returns the stats of flow k, valid for the table's lifetime.
func (t *FlowTable) Flow(k packet.FlowKey) (*FlowStats, bool) {
	return t.lookup(k, t.seed.hash(k))
}

// lookup is Flow for a caller that already holds h = t.seed.hash(k).
func (t *FlowTable) lookup(k packet.FlowKey, h uint64) (*FlowStats, bool) {
	e := t.idx[t.probe(k, h)]
	if e.ref == 0 {
		return nil, false
	}
	return t.at(e.ref - 1), true
}

// get returns the slot of flow k, creating it (zeroed) on first sight; isNew
// reports creation. h must be t.seed.hash(k).
func (t *FlowTable) get(k packet.FlowKey, h uint64) (fs *FlowStats, isNew bool) {
	i := t.probe(k, h)
	if e := t.idx[i]; e.ref != 0 {
		return t.at(e.ref - 1), false
	}
	if 2*(t.n+1) > len(t.idx) {
		t.grow()
		i = t.probe(k, h)
	}
	id := uint32(t.n)
	if int(id>>blockShift) == len(t.blocks) {
		t.blocks = append(t.blocks, make([]FlowStats, blockLen))
		t.keys = append(t.keys, make([]packet.FlowKey, blockLen))
	}
	t.keys[id>>blockShift][id&blockMask] = k
	t.idx[i] = slot{tag: uint32(h >> 32), ref: id + 1}
	t.n++
	return t.at(id), true
}

// grow doubles the index and re-enters every flow from the key arena (the
// entries keep only half of the hash). The arena itself is untouched.
func (t *FlowTable) grow() {
	t.idx = make([]slot, 2*len(t.idx))
	mask := uint64(len(t.idx) - 1)
	for id := uint32(0); id < uint32(t.n); id++ {
		h := t.seed.hash(t.key(id))
		i := h & mask
		for t.idx[i].ref != 0 {
			i = (i + 1) & mask
		}
		t.idx[i] = slot{tag: uint32(h >> 32), ref: id + 1}
	}
}

// Range calls fn for every flow until it returns false, in first-seen order
// (arena order). That order depends on packet arrival, which a live run does
// not repeat; deterministic reporting goes through TopK's total order.
func (t *FlowTable) Range(fn func(k packet.FlowKey, fs *FlowStats) bool) {
	for id := uint32(0); id < uint32(t.n); id++ {
		if !fn(t.key(id), t.at(id)) {
			return
		}
	}
}

// flowRef is one candidate in a top-k selection.
type flowRef struct {
	key     packet.FlowKey
	packets int64
}

// better reports whether a outranks b: more packets first, the numerically
// smaller key on ties (the allocation-free replacement for the String()
// comparison the old full sort paid per element).
func better(a, b flowRef) bool {
	if a.packets != b.packets {
		return a.packets > b.packets
	}
	return a.key.Less(b.key)
}

// topSel is a reusable bounded selection heap: offer every candidate, read
// the k best in rank order. It is a min-heap on better — the root is the
// worst kept candidate, evicted whenever a better one arrives — so selection
// is O(F log k) over F flows instead of the O(F log F) full sort, and the
// buffer is reused across calls.
type topSel struct {
	k    int
	heap []flowRef
}

func (s *topSel) reset(k int) {
	s.k = k
	if cap(s.heap) < k {
		s.heap = make([]flowRef, 0, k)
	}
	s.heap = s.heap[:0]
}

// worse orders the heap: the root floats the candidate that better ranks
// last.
func (s *topSel) worse(i, j int) bool { return better(s.heap[j], s.heap[i]) }

func (s *topSel) offer(r flowRef) {
	if s.k == 0 {
		return
	}
	if len(s.heap) < s.k {
		s.heap = append(s.heap, r)
		for i := len(s.heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if !s.worse(i, parent) {
				break
			}
			s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
			i = parent
		}
		return
	}
	if !better(r, s.heap[0]) {
		return
	}
	s.heap[0] = r
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		w := i
		if l < len(s.heap) && s.worse(l, w) {
			w = l
		}
		if rr < len(s.heap) && s.worse(rr, w) {
			w = rr
		}
		if w == i {
			return
		}
		s.heap[i], s.heap[w] = s.heap[w], s.heap[i]
		i = w
	}
}

// sorted orders the kept candidates best-first, in place.
func (s *topSel) sorted() []flowRef {
	sort.Slice(s.heap, func(i, j int) bool { return better(s.heap[i], s.heap[j]) })
	return s.heap
}
