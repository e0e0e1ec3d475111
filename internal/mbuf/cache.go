package mbuf

// defaultWatermark sizes a Cache's keep level: the cache spills to the
// shared ring when it holds twice this many buffers (down to the
// watermark) and refills in watermark-sized spans on a miss — the
// rte_mempool per-lcore cache shape (size n, flush threshold above n).
const defaultWatermark = 256

// Cache is a per-thread magazine over a Pool, the rte_mempool per-lcore
// cache analogue: a LIFO stack of free buffers owned by ONE goroutine.
// GetBurst and PutBurst serve and absorb bursts out of the local stack and
// touch the shared ring only in watermark-sized spans, so steady-state
// producers and consumers pay a few local slice operations per burst
// instead of per-packet ring traffic. A Cache is NOT safe for concurrent
// use — one cache per goroutine, like one rte_mempool cache per lcore.
// Retiring goroutines must Flush, or the cached buffers stay invisible to
// the rest of the deployment until the Cache is garbage.
type Cache struct {
	pool *Pool
	buf  []*Mbuf // LIFO free stack; cap = 2*keep (the spill threshold)
	keep int     // watermark: refill span size and post-spill level
}

// NewCache builds a per-thread magazine cache over the pool with the
// default watermark (clamped to the pool size, so tiny pools get tiny
// caches). The caller owns single-threading it.
//
// Size the pool for its caches, the rte_mempool rule: a cache retains up
// to 2*watermark-1 free buffers between spills (it only drains fully on
// Flush), so a pool serving n caches needs size >= n*(2*watermark-1) plus
// the deployment's in-flight working set, or producers stall on a ring
// whose free buffers are all parked in idle caches. Deployments whose
// pools are tight relative to their thread count should size the
// watermark explicitly with NewCacheSize.
func (p *Pool) NewCache() *Cache {
	return p.NewCacheSize(defaultWatermark)
}

// NewCacheSize builds a per-thread magazine cache with an explicit
// watermark: the cache refills in watermark-sized spans on a miss and
// spills back down to the watermark when it fills to twice that level, so
// its steady-state residency is watermark..2*watermark-1 buffers. The
// watermark is clamped to [1, pool size]. See NewCache for the pool-sizing
// rule relating watermarks, cache count, and pool size.
func (p *Pool) NewCacheSize(watermark int) *Cache {
	if watermark > p.size {
		watermark = p.size
	}
	if watermark < 1 {
		watermark = 1
	}
	return &Cache{pool: p, buf: make([]*Mbuf, 0, 2*watermark), keep: watermark}
}

// GetBurst leases up to len(dst) buffers into dst and returns the count —
// rte_mempool_get_bulk with a cache. Local hits cost no atomics; a miss
// pulls the remainder straight from the pool in one span (the shared ring
// first, then buffers built on demand) and refills the cache with one
// watermark-sized span for the next calls. A short count means the pool
// (ring, unbuilt buffers and this cache) is exhausted; each short call
// counts one fail into Stats (an exhaustion event, not one per missing
// buffer, so retry loops don't inflate the counter).
func (c *Cache) GetBurst(dst []*Mbuf) int {
	want := len(dst)
	if want == 0 {
		return 0
	}
	// Serve the top of the local stack first.
	n := len(c.buf)
	if n > want {
		n = want
	}
	if n > 0 {
		cut := len(c.buf) - n
		copy(dst, c.buf[cut:])
		for i := cut; i < len(c.buf); i++ {
			c.buf[i] = nil
		}
		c.buf = c.buf[:cut]
	}
	if n < want {
		// Miss: bulk-pull the remainder directly, then refill one span so
		// the following bursts hit locally again.
		n += c.pool.getSpan(dst[n:])
		c.refill()
	}
	for _, m := range dst[:n] {
		c.pool.lease(m)
	}
	c.pool.allocs.Add(int64(n))
	if n < want {
		c.pool.fails.Add(1)
	}
	return n
}

// Get leases one buffer — the single-element cached path. Prefer GetBurst
// on hot paths.
func (c *Cache) Get() (*Mbuf, error) {
	if n := len(c.buf); n > 0 {
		m := c.buf[n-1]
		c.buf[n-1] = nil
		c.buf = c.buf[:n-1]
		c.pool.lease(m)
		c.pool.allocs.Add(1)
		return m, nil
	}
	c.refill()
	if len(c.buf) > 0 {
		return c.Get()
	}
	return c.pool.Get()
}

// refill tops the local stack up to the watermark with one span from the
// pool (fewer if the pool is short).
func (c *Cache) refill() {
	if len(c.buf) >= c.keep {
		return
	}
	span := c.buf[len(c.buf):c.keep]
	got := c.pool.getSpan(span)
	c.buf = c.buf[:len(c.buf)+got]
}

// PutBurst returns a whole burst of buffers leased from this cache's pool
// — rte_mempool_put_bulk with a cache. The burst lands on the local stack;
// when the stack passes twice the watermark it spills the excess back to
// the shared ring in one bulk enqueue, leaving the watermark level cached.
// Buffers from another pool, or already freed, panic exactly like Free.
func (c *Cache) PutBurst(ms []*Mbuf) {
	for _, m := range ms {
		if m.pool != c.pool {
			if m.pool == nil {
				panic("mbuf: double free or foreign buffer")
			}
			panic("mbuf: foreign pool's buffer in Cache.PutBurst")
		}
		m.pool = nil
	}
	for len(ms) > 0 {
		k := cap(c.buf) - len(c.buf)
		if k > len(ms) {
			k = len(ms)
		}
		c.buf = append(c.buf, ms[:k]...)
		ms = ms[k:]
		if len(c.buf) == cap(c.buf) {
			c.spill(len(c.buf) - c.keep)
		}
	}
}

// spill bulk-returns the k most recently cached buffers to the ring.
func (c *Cache) spill(k int) {
	cut := len(c.buf) - k
	c.pool.putSpan(c.buf[cut:])
	for i := cut; i < len(c.buf); i++ {
		c.buf[i] = nil
	}
	c.buf = c.buf[:cut]
}

// Flush spills every cached buffer back to the shared ring. Retiring
// goroutines must call it — an abandoned cache leaks its residents from
// the pool's point of view. The cache stays usable afterwards.
func (c *Cache) Flush() {
	if len(c.buf) > 0 {
		c.spill(len(c.buf))
	}
}

// Recycler is a per-goroutine bulk-free helper for consumers that see
// mixed bursts: it routes each same-pool run of a burst into a lazily
// created per-pool Cache, so returns batch across bursts and hit the
// shared rings only in spans. The zero value is ready to use. Like Cache,
// a Recycler belongs to ONE goroutine, and retiring goroutines must Flush.
type Recycler struct {
	caches []*Cache
}

// FreeBurst returns every buffer of the burst through per-pool caches.
// Double-free panics, exactly like Free.
func (r *Recycler) FreeBurst(ms []*Mbuf) {
	for len(ms) > 0 {
		p := ms[0].pool
		if p == nil {
			panic("mbuf: double free or foreign buffer")
		}
		k := 1
		for k < len(ms) && ms[k].pool == p {
			k++
		}
		r.cacheFor(p).PutBurst(ms[:k])
		ms = ms[k:]
	}
}

// Flush spills every underlying cache; call on goroutine retirement.
func (r *Recycler) Flush() {
	for _, c := range r.caches {
		c.Flush()
	}
}

// cacheFor finds or creates the cache fronting pool p. Deployments free
// into a handful of pools at most, so a linear scan beats a map.
func (r *Recycler) cacheFor(p *Pool) *Cache {
	for _, c := range r.caches {
		if c.pool == p {
			return c
		}
	}
	c := p.NewCache()
	r.caches = append(r.caches, c)
	return c
}
