package main

import (
	"runtime"
	"sync"
	"testing"

	"metronome/internal/mbuf"
)

// TestLeaseRetriesBeforeReportingExhaustion replays the producer's lease
// pattern against a pool so small that every buffer is usually on the
// consumer's side — handed over, sitting in its cache, or in a spill that
// has not published — when the producer asks for the next one. No buffer is
// ever lost, so a lease should not report exhaustion: the first miss yields
// to the consumer, whose spill completes, and the retry finds the buffer.
// Charging the first miss (what the replay loop used to do) reports a drop
// for every one of the thousands of first misses here. One P makes the
// hand-over deterministic — the yield runs the consumer until it has
// spilled everything it holds — except that Go's scheduler serves its
// global queue first on every 61st pass, and then the yielding producer
// gets itself back; hence the 1-in-20 allowance instead of zero.
func TestLeaseRetriesBeforeReportingExhaustion(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const poolSize = 8
	pool := mbuf.NewPool(poolSize)
	handoff := make(chan *mbuf.Mbuf, poolSize) // holds the whole pool: sends never block
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := pool.NewCacheSize(1)
		for m := range handoff {
			c.PutBurst([]*mbuf.Mbuf{m})
			c.Flush()
		}
	}()

	producer := pool.NewCacheSize(1)
	firstMisses, failed := 0, 0
	for i := 0; i < 20000; i++ {
		if pool.Available() == 0 {
			firstMisses++ // nothing published: the unretried Get would fail here
		}
		m, err := lease(producer)
		if err != nil {
			failed++
			continue
		}
		handoff <- m
	}
	close(handoff)
	wg.Wait()
	producer.Flush()
	if firstMisses < 1000 {
		t.Fatalf("the shared ring was empty at only %d of 20000 leases: the test did not exercise the retry", firstMisses)
	}
	if failed > firstMisses/20 {
		t.Errorf("%d leases reported exhaustion after %d first misses on a pool that lost nothing", failed, firstMisses)
	}
	if got := pool.Available(); got != poolSize {
		t.Errorf("pool holds %d of %d buffers after both caches flushed", got, poolSize)
	}
}
