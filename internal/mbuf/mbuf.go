// Package mbuf provides packet buffers and a fixed-size buffer pool in the
// mould of DPDK's rte_mbuf/rte_mempool: buffers are built on first demand,
// up to the pool's size, then leased and returned without garbage, and the
// pool is safe for concurrent use by producer and consumer threads.
//
// The pool is built like rte_mempool: a lock-free shared backing store (an
// MPMC head/tail ring from internal/ring) fronted by optional per-thread
// magazine caches (Pool.NewCache). The cached burst paths — Cache.GetBurst
// and Cache.PutBurst — serve and absorb whole bursts out of thread-local
// storage and touch the shared ring only in watermark-sized spans, so the
// steady-state cost of leasing a buffer is a few local slice operations,
// and a spill or refill costs O(1) atomic operations plus a block copy
// however long the span. Pool.Get and Mbuf.Free remain as the
// degenerate single-element path (one lock-free ring operation each), so
// callers that predate the caches keep working unchanged.
package mbuf

import (
	"errors"
	"sync/atomic"
	"time"

	"metronome/internal/packet"
	"metronome/internal/ring"
)

// ErrExhausted reports an allocation from an empty pool — the software
// analogue of an Rx descriptor shortage, which on a real NIC turns into
// imissed drops.
var ErrExhausted = errors.New("mbuf: pool exhausted")

// epoch anchors the package's monotonic clock; see Nanotime. It sits one
// hour before process start so that zero stays reserved for "unstamped"
// even when a caller backdates a stamp (tests script stamps in the past).
var epoch = time.Now().Add(-time.Hour)

// Nanotime returns nanoseconds elapsed on the process-local monotonic
// clock (time.Since over a package-init epoch, so it never reads the wall
// clock and never goes backwards). It is the unit of Mbuf.RxStampNs:
// producers stamp arrivals with Nanotime(), consumers subtract their own
// Nanotime() read to get a latency. Values are only comparable within one
// process.
func Nanotime() int64 { return int64(time.Since(epoch)) }

// Mbuf is one packet buffer. Data aliases a fixed backing array owned by
// the pool; Len is the frame length in use.
type Mbuf struct {
	Data []byte // frame bytes (aliases the pool-owned backing array)
	Len  int    // frame length in use
	// RxStampNs is the arrival timestamp in Nanotime() nanoseconds
	// (process-local monotonic clock), used for latency accounting. Zero
	// means unstamped: consumers must skip, not record, such buffers. An
	// int64 instead of a time.Time keeps the 2KB buffer pointer-free (no
	// *time.Location for the GC to scan) and lets producers stamp with a
	// monotonic read instead of a full wall-clock read.
	RxStampNs int64
	Key       packet.FlowKey // parsed 5-tuple, filled by the Rx path
	Meta      uint64         // scratch for applications (e.g. next hop)
	pool      *Pool
	backing   [maxFrame]byte
}

const maxFrame = 2048 // covers standard MTU frames, like DPDK's default seg

// Bytes returns the in-use frame contents.
func (m *Mbuf) Bytes() []byte { return m.Data[:m.Len] }

// SetFrame copies frame into the buffer and sets Len.
func (m *Mbuf) SetFrame(frame []byte) {
	n := copy(m.backing[:], frame)
	m.Data = m.backing[:]
	m.Len = n
}

// Free returns the buffer to its pool's shared ring. Double-free panics:
// it is always a driver bug, and DPDK aborts on it too (in debug builds).
// Threads with a Cache should prefer Cache.PutBurst (or Recycler.FreeBurst
// for mixed-pool bursts), which batch the return.
//
// Overflow (a foreign or double-freed buffer pushing the ring past the
// pool size) panics. A legal Free never does: the ring counts a slot as
// taken until the consumer that emptied it has published, and a buffer only
// reaches a caller after that, so the pool's own buffers always fit.
func (m *Mbuf) Free() {
	if m.pool == nil {
		panic("mbuf: double free or foreign buffer")
	}
	p := m.pool
	m.pool = nil
	var one [1]*Mbuf
	one[0] = m
	p.putSpan(one[:])
}

// FreeBurst returns a whole burst to its pools' shared rings in bulk: runs
// of consecutive same-pool buffers go back in one ring enqueue instead of
// one per packet. It is stateless — threads that free repeatedly should
// hold a Recycler (or a Cache) so returns also coalesce across bursts.
// Double-free panics, exactly like Free.
func FreeBurst(ms []*Mbuf) {
	for len(ms) > 0 {
		p := ms[0].pool
		if p == nil {
			panic("mbuf: double free or foreign buffer")
		}
		k := 1
		for k < len(ms) && ms[k].pool == p {
			k++
		}
		span := ms[:k]
		for _, m := range span {
			m.pool = nil
		}
		p.putSpan(span)
		ms = ms[k:]
	}
}

// Pool is a fixed-size buffer pool over a lock-free MPMC ring. All methods
// are safe for concurrent use; per-thread Caches (NewCache) front it for
// burst workloads.
type Pool struct {
	free  *ring.MPMC[*Mbuf]
	size  int
	built atomic.Int64 // buffers allocated so far, never more than size

	allocs atomic.Int64
	fails  atomic.Int64
}

// NewPool returns a pool of up to size buffers. It allocates only the free
// ring: a buffer is built the first time a lease finds the ring short, so
// the pool's footprint is its high-water mark of demand — the most buffers
// ever out at once plus those parked in caches — and is never handed back.
// size stays the cap, and the figure the cache-sizing rule (NewCache)
// budgets against.
func NewPool(size int) *Pool {
	capacity := 2
	for capacity < size {
		capacity <<= 1
	}
	r, err := ring.NewMPMC[*Mbuf](capacity)
	if err != nil {
		panic(err) // unreachable: capacity is a power of two >= 2
	}
	return &Pool{size: size, free: r}
}

// Size returns the configured pool size.
func (p *Pool) Size() int { return p.size }

// Available returns the number of free buffers: those in the shared ring
// plus those not built yet, so Available() == Size() still means every
// buffer is home. Buffers resident in per-thread Caches are free but not
// counted here — Available undercounts by up to the summed cache occupancy
// until those caches spill or Flush. For an exact account, Flush every
// cache first (retiring threads must anyway).
func (p *Pool) Available() int { return p.free.Len() + p.size - int(p.built.Load()) }

// Get leases a buffer from the shared ring, or returns ErrExhausted. This
// is the degenerate single-element path; burst producers should lease
// through a Cache.
//
// ErrExhausted means every buffer was built and the ring held no published
// one at the attempt. Buffers a concurrent PutBurst spill is still writing
// into the ring do not count yet (see ring.MPMC), and others may be
// resident in per-thread Caches (see Available), so callers that must not
// drop should retry after yielding rather than charge a drop on the first
// failure.
func (p *Pool) Get() (*Mbuf, error) {
	var one [1]*Mbuf
	if p.getSpan(one[:]) == 0 {
		p.fails.Add(1)
		return nil, ErrExhausted
	}
	p.allocs.Add(1)
	p.lease(one[0])
	return one[0], nil
}

// lease resets a buffer's per-lease state as it leaves the free store.
func (p *Pool) lease(m *Mbuf) {
	m.pool = p
	m.Len = 0
	m.Meta = 0
	m.RxStampNs = 0
}

// putSpan bulk-returns freed buffers (pool already cleared) to the ring.
func (p *Pool) putSpan(ms []*Mbuf) {
	if n := p.free.EnqueueBurst(ms); n != len(ms) {
		panic("mbuf: pool overflow (foreign or double-freed buffer)")
	}
}

// getSpan bulk-leases up to len(dst) buffers without resetting them (the
// serving Cache resets on hand-out): from the ring first, and when the ring
// comes up short, the shortfall from the unbuilt budget — reserved with one
// CAS on built, and allocated straight into dst.
func (p *Pool) getSpan(dst []*Mbuf) int {
	n := p.free.DequeueBurst(dst)
	if n == len(dst) {
		return n
	}
	for {
		built := p.built.Load()
		k := min(int64(p.size)-built, int64(len(dst)-n))
		if k <= 0 {
			return n
		}
		if p.built.CompareAndSwap(built, built+k) {
			for i := n; i < n+int(k); i++ {
				m := &Mbuf{}
				m.Data = m.backing[:]
				dst[i] = m
			}
			return n + int(k)
		}
	}
}

// Stats reports allocation counters, aggregated across the pool's direct
// path and every Cache with relaxed atomic adds — one add per call or
// burst, never per packet. allocs counts buffers leased; fails counts
// distinct exhaustion events: one per failed Get and one per short
// GetBurst call regardless of the shortfall, so busy-retry loops around
// GetBurst inflate fails by at most one per spin and the counter keeps
// approximating "times a caller found the pool empty".
func (p *Pool) Stats() (allocs, fails int64) {
	return p.allocs.Load(), p.fails.Load()
}
