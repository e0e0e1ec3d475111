package mbuf

import (
	"sync"
	"testing"

	"metronome/internal/xrand"
)

func TestCacheBurstRoundTrip(t *testing.T) {
	p := NewPool(64)
	c := p.NewCache()
	dst := make([]*Mbuf, 32)
	if n := c.GetBurst(dst); n != 32 {
		t.Fatalf("GetBurst = %d, want 32", n)
	}
	for i, m := range dst {
		if m == nil {
			t.Fatalf("slot %d nil", i)
		}
		if m.Len != 0 || m.Meta != 0 || m.RxStampNs != 0 {
			t.Fatalf("slot %d not reset on lease", i)
		}
		m.Meta = uint64(i)
	}
	c.PutBurst(dst)
	c.Flush()
	if p.Available() != 64 {
		t.Fatalf("after flush available = %d, want 64", p.Available())
	}
}

func TestCacheAvailableUndercountsResidency(t *testing.T) {
	p := NewPool(512)
	c := p.NewCache() // keep = defaultWatermark = 256
	m, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	// The single Get refilled one watermark span into the cache; those
	// buffers are free but invisible to Available until Flush.
	if got := p.Available(); got != 512-defaultWatermark {
		t.Fatalf("available = %d, want %d (cache holds a span)", got, 512-defaultWatermark)
	}
	c.Flush()
	m.Free()
	if p.Available() != 512 {
		t.Fatalf("after flush+free available = %d, want 512", p.Available())
	}
}

func TestCacheStatsExactUnderCaching(t *testing.T) {
	p := NewPool(8)
	c := p.NewCache()
	dst := make([]*Mbuf, 8)
	if n := c.GetBurst(dst); n != 8 {
		t.Fatalf("GetBurst = %d, want 8", n)
	}
	more := make([]*Mbuf, 4)
	if n := c.GetBurst(more); n != 0 {
		t.Fatalf("GetBurst on exhausted pool = %d, want 0", n)
	}
	if n := c.GetBurst(more); n != 0 {
		t.Fatalf("GetBurst on exhausted pool = %d, want 0", n)
	}
	allocs, fails := p.Stats()
	if allocs != 8 || fails != 2 {
		t.Fatalf("allocs=%d fails=%d, want 8 and 2 (one fail per short call)", allocs, fails)
	}
	c.PutBurst(dst)
	c.Flush()
	if p.Available() != 8 {
		t.Fatalf("available = %d", p.Available())
	}
	if allocs, _ := p.Stats(); allocs != 8 {
		t.Fatalf("PutBurst changed allocs to %d", allocs)
	}
}

func TestCacheSpillsAtThreshold(t *testing.T) {
	p := NewPool(8)
	c := p.NewCache() // keep = 8, spill threshold 16 — but pool only has 8
	dst := make([]*Mbuf, 8)
	if n := c.GetBurst(dst); n != 8 {
		t.Fatalf("GetBurst = %d", n)
	}
	// Return one at a time: the stack absorbs all 8 without spilling (below
	// the 2*keep threshold), so the ring stays empty until Flush.
	for _, m := range dst {
		c.PutBurst([]*Mbuf{m})
	}
	if p.Available() != 0 {
		t.Fatalf("cache spilled early: available = %d", p.Available())
	}
	c.Flush()
	if p.Available() != 8 {
		t.Fatalf("after flush available = %d", p.Available())
	}
}

func TestCacheDoubleFreeAcrossCachesPanics(t *testing.T) {
	p := NewPool(4)
	a := p.NewCache()
	b := p.NewCache()
	m, err := a.Get()
	if err != nil {
		t.Fatal(err)
	}
	a.PutBurst([]*Mbuf{m})
	defer func() {
		if recover() == nil {
			t.Fatal("double free across caches did not panic")
		}
	}()
	b.PutBurst([]*Mbuf{m})
}

func TestCachePutBurstForeignPoolPanics(t *testing.T) {
	p1 := NewPool(2)
	p2 := NewPool(2)
	c := p1.NewCache()
	m, err := p2.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("foreign pool's buffer did not panic")
		}
	}()
	c.PutBurst([]*Mbuf{m})
}

func TestRecyclerRoutesMixedBursts(t *testing.T) {
	p1 := NewPool(8)
	p2 := NewPool(8)
	var ms []*Mbuf
	for i := 0; i < 8; i++ {
		a, err := p1.Get()
		if err != nil {
			t.Fatal(err)
		}
		b, err := p2.Get()
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, a, b) // alternate pools: worst case for run grouping
	}
	var rec Recycler
	rec.FreeBurst(ms)
	rec.Flush()
	if p1.Available() != 8 || p2.Available() != 8 {
		t.Fatalf("available = %d, %d, want 8, 8", p1.Available(), p2.Available())
	}
	if len(rec.caches) != 2 {
		t.Fatalf("recycler built %d caches, want 2", len(rec.caches))
	}
}

// TestPoolConservationChaos is the conservation invariant under full
// concurrency: N producer caches lease bursts and hand them to M consumer
// caches over channels while consumers churn through "team resizes"
// (periodically flushing and replacing their cache mid-run, the way elastic
// shrinks retire worker goroutines). Every buffer must come back exactly
// once — a double return panics by construction — and after all caches
// flush, the pool must hold exactly its configured size. Run under -race
// this also checks the ring's release/acquire publication: producers write
// Meta on leased buffers and consumers read it back.
func TestPoolConservationChaos(t *testing.T) {
	const (
		producers = 4
		consumers = 3
		poolSize  = 512
		rounds    = 400
	)
	p := NewPool(poolSize)
	ch := make(chan []*Mbuf, 64)
	var wg sync.WaitGroup

	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := p.NewCache()
			defer c.Flush()
			r := xrand.New(uint64(100 + id))
			var dst [64]*Mbuf
			for i := 0; i < rounds; i++ {
				want := 1 + r.Intn(64)
				n := c.GetBurst(dst[:want])
				if n == 0 {
					continue // exhausted: consumers will return capacity
				}
				burst := make([]*Mbuf, n)
				copy(burst, dst[:n])
				for _, m := range burst {
					m.Meta = uint64(id+1)<<32 | uint64(i)
				}
				if i%7 == 0 {
					// Producer-side churn: spill mid-run like a parked thread.
					c.Flush()
				}
				ch <- burst
			}
		}(pr)
	}

	var cwg sync.WaitGroup
	for co := 0; co < consumers; co++ {
		cwg.Add(1)
		go func(id int) {
			defer cwg.Done()
			c := p.NewCache()
			defer func() { c.Flush() }() // c is rebound on resize below
			n := 0
			for burst := range ch {
				for _, m := range burst {
					if m.Meta == 0 {
						panic("unstamped buffer crossed the channel")
					}
				}
				c.PutBurst(burst)
				n++
				if n%13 == 0 {
					// Team resize: retire this cache and start a fresh one.
					c.Flush()
					c = p.NewCache()
				}
			}
		}(co)
	}

	wg.Wait()
	close(ch)
	cwg.Wait()
	if got := p.Available(); got != poolSize {
		t.Fatalf("conservation broken: available = %d, want %d", got, poolSize)
	}
	allocs, _ := p.Stats()
	if allocs <= 0 {
		t.Fatalf("chaos leased nothing (allocs=%d)", allocs)
	}
}
