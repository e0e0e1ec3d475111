// Package ring provides bounded lock-free rings in the mould of DPDK's
// rte_ring: a multi-producer/multi-consumer head/tail ring and a faster
// single-producer/single-consumer variant. The real-time Metronome runtime
// uses them as Rx queues between traffic sources and the retrieval threads,
// and internal/mbuf as the mempool's shared free store.
package ring

import (
	"errors"
	"runtime"
	"sync/atomic"
)

// ErrBadCapacity reports a capacity that is not a power of two >= 2.
var ErrBadCapacity = errors.New("ring: capacity must be a power of two >= 2")

// cursors is one side (producers or consumers) of an MPMC ring, rte_ring's
// rte_ring_headtail: head is the next position to reserve, tail the bound
// below which every position of this side is published. The pair fills one
// cache line, so the two sides never share one.
type cursors struct {
	head atomic.Uint64
	tail atomic.Uint64
	_    [48]byte
}

// reserve claims up to want consecutive positions with one CAS on head and
// returns the first and the count. The claim is bounded by slack plus the
// peer side's tail — what the peer has published: freed slots for a
// producer (slack = capacity), filled ones for a consumer (slack = 0). A
// zero count means the ring was full (empty) when head was read; reserve
// never waits. A head that went stale between the two loads can only
// overestimate the bound, and then the CAS fails and the loop re-reads.
func (c *cursors) reserve(peer *cursors, slack uint64, want int) (pos, n uint64) {
	for {
		pos = c.head.Load()
		n = slack + peer.tail.Load() - pos
		if n > uint64(want) {
			n = uint64(want)
		}
		if n == 0 || c.head.CompareAndSwap(pos, pos+n) {
			return pos, n
		}
	}
}

// publish makes the span [pos, pos+n) visible to the peer side with one
// ordered tail store — the operation's linearisation point. Spans publish
// in reservation order, so a span first waits for every earlier one of its
// side: a wait bounded by those peers' few remaining instructions (exactly
// rte_ring's tail-update wait), and the periodic Gosched keeps a peer that
// was preempted between its CAS and its tail store from starving us on a
// loaded machine.
func (c *cursors) publish(pos, n uint64) {
	for spin := 0; c.tail.Load() != pos; spin++ {
		if spin >= 128 {
			runtime.Gosched()
			spin = 0
		}
	}
	c.tail.Store(pos + n)
}

// store copies in into the ring's slots from index at on, wrapping at the
// end of buf: at most two block copies. len(in) <= len(buf).
func store[T any](buf []T, at uint64, in []T) {
	k := copy(buf[at:], in)
	copy(buf, in[k:])
}

// take moves len(out) elements out of the ring's slots from index at on,
// wrapping like store, and zeroes the vacated slots so the ring does not
// pin what it no longer holds.
func take[T any](buf []T, at uint64, out []T) {
	first := buf[at:]
	k := copy(out, first)
	clear(first[:k])
	w := copy(out[k:], buf)
	clear(buf[:w])
}

// count is both rings' Len: published minus released, clamped to capacity.
// The consumer-side cursor is read first: a caller overtaken between the two
// loads — any goroutine may probe, holding no role — can then only read past
// capacity, which the clamp catches, never below zero.
func count(released, published *atomic.Uint64, capacity int) int {
	rel := released.Load()
	d := published.Load() - rel
	if d > uint64(capacity) {
		return capacity
	}
	return int(d)
}

// MPMC is a bounded multi-producer/multi-consumer ring with rte_ring's
// head/tail protocol. All methods are safe for concurrent use.
//
// Every operation is a span of n >= 1 elements (Enqueue and Dequeue are the
// n = 1 case): one CAS on its side's head reserves the span, the elements
// move with plain loads and stores, and one ordered store of its side's
// tail publishes the whole span. The contract:
//
//   - An operation takes effect at its tail store. Elements of a span that
//     is reserved but not yet published do not exist for the other side:
//     consumers cannot see them, producers cannot reuse their slots, and Len
//     does not count them.
//   - Full and empty return false/0 immediately, like rte_ring's enqueue and
//     dequeue calls; a burst that fits partly moves what fits.
//   - Any operation, n = 1 included, may wait between moving its elements
//     and publishing them for a same-side peer that reserved earlier and has
//     not published yet (see cursors.publish). That wait depends on the
//     peer's scheduling, never on queue state.
type MPMC[T any] struct {
	mask uint64
	buf  []T
	_    [32]byte // keep the cursor pairs off the header's cache line
	prod cursors
	cons cursors
}

// NewMPMC returns a ring holding up to capacity items.
func NewMPMC[T any](capacity int) (*MPMC[T], error) {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return nil, ErrBadCapacity
	}
	return &MPMC[T]{mask: uint64(capacity - 1), buf: make([]T, capacity)}, nil
}

// Cap returns the ring capacity.
func (r *MPMC[T]) Cap() int { return len(r.buf) }

// Len returns the number of published elements not yet released by a
// consumer (rte_ring_count) — an instantaneous, racy figure for occupancy
// metrics, always within [0, Cap]. Spans still being written are not
// counted.
func (r *MPMC[T]) Len() int { return count(&r.cons.tail, &r.prod.tail, len(r.buf)) }

// Enqueue adds v; it reports false when the ring is full.
func (r *MPMC[T]) Enqueue(v T) bool {
	pos, n := r.prod.reserve(&r.cons, uint64(len(r.buf)), 1)
	if n == 0 {
		return false
	}
	r.buf[pos&r.mask] = v
	r.prod.publish(pos, 1)
	return true
}

// Dequeue removes the oldest element; ok is false when the ring is empty.
func (r *MPMC[T]) Dequeue() (v T, ok bool) {
	pos, n := r.cons.reserve(&r.prod, 0, 1)
	if n == 0 {
		return v, false
	}
	s := &r.buf[pos&r.mask]
	v = *s
	var zero T
	*s = zero
	r.cons.publish(pos, 1)
	return v, true
}

// EnqueueBurst adds as many elements of in as fit and returns the count
// (rte_ring's burst enqueue): O(1) atomic operations however long the
// burst, the elements themselves go in as at most two block copies.
func (r *MPMC[T]) EnqueueBurst(in []T) int {
	pos, n := r.prod.reserve(&r.cons, uint64(len(r.buf)), len(in))
	if n == 0 {
		return 0
	}
	store(r.buf, pos&r.mask, in[:n])
	r.prod.publish(pos, n)
	return int(n)
}

// DequeueBurst moves up to len(out) elements into out and returns the
// count, mirroring rte_eth_rx_burst semantics.
func (r *MPMC[T]) DequeueBurst(out []T) int {
	pos, n := r.cons.reserve(&r.prod, 0, len(out))
	if n == 0 {
		return 0
	}
	take(r.buf, pos&r.mask, out[:n])
	r.cons.publish(pos, n)
	return int(n)
}

// SPSC is a single-producer/single-consumer ring: no CAS, just two indexes
// with release/acquire ordering. At most one Enqueue*/producer call and one
// Dequeue*/consumer call may be in flight at a time — one goroutine per
// role, or several serialised by a lock whose hand-off synchronises (an
// atomic trylock does; Metronome's Runner drains queues under exactly such
// a lock). Race-detector builds enforce the contract: concurrent calls into
// the same role panic (see roleGuard); regular builds pay nothing.
type SPSC[T any] struct {
	mask uint64
	buf  []T
	prod roleGuard
	cons roleGuard
	_    [56]byte
	head atomic.Uint64 // next write
	_    [56]byte
	tail atomic.Uint64 // next read
}

// NewSPSC returns a single-producer/single-consumer ring.
func NewSPSC[T any](capacity int) (*SPSC[T], error) {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return nil, ErrBadCapacity
	}
	return &SPSC[T]{mask: uint64(capacity - 1), buf: make([]T, capacity)}, nil
}

// Cap returns the ring capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Len returns the instantaneous element count — a racy figure for occupancy
// metrics, always within [0, Cap], from any goroutine (the Runner's busy-try
// path probes it while holding neither role).
func (r *SPSC[T]) Len() int { return count(&r.tail, &r.head, len(r.buf)) }

// Enqueue adds v; it reports false when full.
func (r *SPSC[T]) Enqueue(v T) bool {
	r.prod.enter("producer")
	head := r.head.Load()
	if head-r.tail.Load() >= uint64(len(r.buf)) {
		r.prod.exit()
		return false
	}
	r.buf[head&r.mask] = v
	r.head.Store(head + 1)
	r.prod.exit()
	return true
}

// Dequeue removes the oldest element; ok is false when empty.
func (r *SPSC[T]) Dequeue() (v T, ok bool) {
	r.cons.enter("consumer")
	tail := r.tail.Load()
	if tail == r.head.Load() {
		r.cons.exit()
		return v, false
	}
	v = r.buf[tail&r.mask]
	var zero T
	r.buf[tail&r.mask] = zero
	r.tail.Store(tail + 1)
	r.cons.exit()
	return v, true
}

// EnqueueBurst adds as many elements of in as fit and returns the count.
// This is the single-producer bulk fast path: one acquire load of the
// consumer cursor bounds the batch, the slots are filled with plain stores,
// and a single release store of the producer cursor publishes the whole
// burst — the MPMC span protocol minus the CAS and the wait for earlier
// spans (there are none).
func (r *SPSC[T]) EnqueueBurst(in []T) int {
	r.prod.enter("producer")
	head := r.head.Load()
	n := uint64(len(r.buf)) - (head - r.tail.Load())
	if n > uint64(len(in)) {
		n = uint64(len(in))
	}
	if n > 0 {
		store(r.buf, head&r.mask, in[:n])
		r.head.Store(head + n)
	}
	r.prod.exit()
	return int(n)
}

// DequeueBurst moves up to len(out) elements into out, mirroring
// rte_eth_rx_burst semantics: one acquire load of the producer cursor
// bounds the batch, the slots are copied out and zeroed with plain stores,
// and a single release store of the consumer cursor frees the whole span.
func (r *SPSC[T]) DequeueBurst(out []T) int {
	r.cons.enter("consumer")
	tail := r.tail.Load()
	n := r.head.Load() - tail
	if n > uint64(len(out)) {
		n = uint64(len(out))
	}
	if n > 0 {
		take(r.buf, tail&r.mask, out[:n])
		r.tail.Store(tail + n)
	}
	r.cons.exit()
	return int(n)
}
