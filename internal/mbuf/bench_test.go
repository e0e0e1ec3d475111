package mbuf

import (
	"sync"
	"testing"
)

// mutexPool replicates the pre-mempool pool exactly as it shipped — a
// mutex-guarded free slice with per-packet Get/put — and stays in the tree
// as the same-run baseline for the BENCH_mbuf.json ratio gate. Measuring
// the old design live (instead of against a committed ns/op number) makes
// the >=3x claim robust to runner speed: both sides of the ratio share the
// host and the run.
type mutexPool struct {
	mu   sync.Mutex
	free []*Mbuf
	size int
}

func newMutexPool(size int) *mutexPool {
	p := &mutexPool{size: size, free: make([]*Mbuf, 0, size)}
	for i := 0; i < size; i++ {
		m := &Mbuf{}
		m.Data = m.backing[:]
		p.free = append(p.free, m)
	}
	return p
}

func (p *mutexPool) get() *Mbuf {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		return nil
	}
	m := p.free[n-1]
	p.free = p.free[:n-1]
	p.mu.Unlock()
	m.Len = 0
	m.Meta = 0
	return m
}

func (p *mutexPool) put(m *Mbuf) {
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

const benchBurst = 32

// prime leases and returns one burst through c, so the pool builds the
// buffers c will cycle before the timer starts: setup, like creating the
// cache, and what keeps the timed loop at 0 B/op.
func prime(c *Cache) {
	var dst [benchBurst]*Mbuf
	n := c.GetBurst(dst[:])
	c.PutBurst(dst[:n])
}

// runContended4 splits b.N bursts across exactly 4 goroutines — the
// contention profile of the ISSUE's acceptance gate (4 queue consumers on
// one pool) — and times the whole drain. Both contended benchmarks use it,
// so their ns/op ratio compares like with like.
func runContended4(b *testing.B, worker func(bursts int)) {
	const goroutines = 4
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := (b.N + goroutines - 1) / goroutines
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(per)
		}()
	}
	wg.Wait()
}

// BenchmarkPoolCacheBurstContended4 is the gated path: 4 goroutines, each
// with its own magazine cache, leasing and returning 32-buffer bursts from
// one shared pool. Steady state never touches the shared ring (the cache
// absorbs the burst), so the op cost is pure local slice work.
func BenchmarkPoolCacheBurstContended4(b *testing.B) {
	p := NewPool(4096)
	caches := [4]*Cache{}
	for i := range caches {
		caches[i] = p.NewCache()
		prime(caches[i])
	}
	var next int
	var mu sync.Mutex
	runContended4(b, func(bursts int) {
		mu.Lock()
		c := caches[next]
		next++
		mu.Unlock()
		var dst [benchBurst]*Mbuf
		for i := 0; i < bursts; i++ {
			n := c.GetBurst(dst[:])
			c.PutBurst(dst[:n])
		}
	})
}

// BenchmarkPoolMutexBurstContended4 is the same workload on the old
// design: 4 goroutines, one mutex-guarded pool, a lock acquisition per
// packet on both the lease and the return — 64 contended critical sections
// per 32-packet burst.
func BenchmarkPoolMutexBurstContended4(b *testing.B) {
	p := newMutexPool(4096)
	runContended4(b, func(bursts int) {
		var dst [benchBurst]*Mbuf
		for i := 0; i < bursts; i++ {
			n := 0
			for n < benchBurst {
				m := p.get()
				if m == nil {
					break
				}
				dst[n] = m
				n++
			}
			for _, m := range dst[:n] {
				p.put(m)
			}
		}
	})
}

// BenchmarkPoolCacheBurst32 is the uncontended cached burst path — the
// per-burst floor a single producer pays — gated at zero allocations.
func BenchmarkPoolCacheBurst32(b *testing.B) {
	p := NewPool(1024)
	c := p.NewCache()
	prime(c)
	var dst [benchBurst]*Mbuf
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := c.GetBurst(dst[:])
		c.PutBurst(dst[:n])
	}
}
