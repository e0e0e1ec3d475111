package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSPSCBurstParityWithMPMC drives the identical deterministic mix of
// single and burst operations through an SPSC and an MPMC ring of the same
// capacity: every operation must return the same count and the same values,
// so the fast path is a drop-in specialisation, not a different queue.
func TestSPSCBurstParityWithMPMC(t *testing.T) {
	s, _ := NewSPSC[int](16)
	m, _ := NewMPMC[int](16)
	in := make([]int, 13)
	outS := make([]int, 13)
	outM := make([]int, 13)
	next := 0
	for step := 0; step < 500; step++ {
		// Deterministic op mix: burst sizes cycle 1..13, every third step
		// drains, every seventh uses the single-element path.
		size := 1 + step%13
		switch {
		case step%7 == 0:
			v := next
			okS, okM := s.Enqueue(v), m.Enqueue(v)
			if okS != okM {
				t.Fatalf("step %d: Enqueue parity %v vs %v", step, okS, okM)
			}
			if okS {
				next++
			}
		case step%3 == 0:
			nS := s.DequeueBurst(outS[:size])
			nM := m.DequeueBurst(outM[:size])
			if nS != nM {
				t.Fatalf("step %d: DequeueBurst %d vs %d", step, nS, nM)
			}
			for i := 0; i < nS; i++ {
				if outS[i] != outM[i] {
					t.Fatalf("step %d: out[%d] = %d vs %d", step, i, outS[i], outM[i])
				}
			}
		default:
			for i := 0; i < size; i++ {
				in[i] = next + i
			}
			nS := s.EnqueueBurst(in[:size])
			nM := m.EnqueueBurst(in[:size])
			if nS != nM {
				t.Fatalf("step %d: EnqueueBurst %d vs %d", step, nS, nM)
			}
			next += nS
		}
		if s.Len() != m.Len() {
			t.Fatalf("step %d: Len %d vs %d", step, s.Len(), m.Len())
		}
	}
}

// TestSPSCBulkWrapAround exercises the batch copy across the index wrap.
func TestSPSCBulkWrapAround(t *testing.T) {
	r, _ := NewSPSC[int](8)
	in := make([]int, 5)
	out := make([]int, 5)
	want := 0
	next := 0
	for round := 0; round < 100; round++ {
		for i := range in {
			in[i] = next + i
		}
		next += r.EnqueueBurst(in)
		n := r.DequeueBurst(out)
		for _, v := range out[:n] {
			if v != want {
				t.Fatalf("round %d: got %d want %d", round, v, want)
			}
			want++
		}
	}
	if want != next {
		t.Fatalf("drained %d of %d", want, next)
	}
	// Oversized requests truncate instead of wrapping into garbage.
	for i := 0; i < 8; i++ {
		r.Enqueue(100 + i)
	}
	if n := r.EnqueueBurst(in); n != 0 {
		t.Fatalf("enqueue into full ring took %d", n)
	}
	big := make([]int, 32)
	if n := r.DequeueBurst(big); n != 8 {
		t.Fatalf("oversized drain took %d, want 8", n)
	}
	if n := r.DequeueBurst(big); n != 0 {
		t.Fatalf("empty drain took %d", n)
	}
}

// TestSPSCBurstConcurrent streams values through the bulk paths with one
// producer and one consumer goroutine; FIFO order and exactly-once delivery
// must hold. Run with -race to exercise the release/acquire pairing of the
// cursor stores.
func TestSPSCBurstConcurrent(t *testing.T) {
	r, _ := NewSPSC[int](128)
	n := soak(t, 100000)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		in := make([]int, 16)
		next := 0
		for next < n {
			k := 0
			for k < len(in) && next+k < n {
				in[k] = next + k
				k++
			}
			sent := r.EnqueueBurst(in[:k])
			if sent == 0 {
				runtime.Gosched()
			}
			next += sent
		}
	}()
	out := make([]int, 16)
	want := 0
	for want < n {
		k := r.DequeueBurst(out)
		if k == 0 {
			runtime.Gosched()
			continue
		}
		for _, v := range out[:k] {
			if v != want {
				t.Fatalf("out of order: got %d want %d", v, want)
			}
			want++
		}
	}
	wg.Wait()
}

// TestSPSCLenInRangeUnderProbe pins Len's contract for a goroutine that
// holds neither role — the Runner's busy-try path publishes occupancy that
// way: whatever the producer and the consumer do between its two cursor
// loads, the figure stays within [0, Cap]. (Reading the producer cursor
// first let an overtaken prober return a negative count, which went into the
// bus's occupancy gauge and its EWMA.)
func TestSPSCLenInRangeUnderProbe(t *testing.T) {
	r, _ := NewSPSC[int](8)
	n := soak(t, 200000)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		in := make([]int, 8)
		for sent := 0; sent < n; {
			k := r.EnqueueBurst(in[:min(len(in), n-sent)])
			if k == 0 {
				runtime.Gosched()
			}
			sent += k
		}
	}()
	go func() { // prober
		defer wg.Done()
		for !stop.Load() {
			if l := r.Len(); l < 0 || l > r.Cap() {
				t.Errorf("Len = %d outside [0, %d]", l, r.Cap())
				return
			}
		}
	}()
	out := make([]int, 8)
	for got := 0; got < n; {
		k := r.DequeueBurst(out)
		if k == 0 {
			runtime.Gosched()
		}
		got += k
	}
	stop.Store(true)
	wg.Wait()
}

func benchSPSCBurst(b *testing.B, size int) {
	r, _ := NewSPSC[int](1024)
	in := make([]int, size)
	out := make([]int, size)
	for i := range in {
		in[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.EnqueueBurst(in)
		r.DequeueBurst(out)
	}
}

// BenchmarkSPSCBurst32 against BenchmarkMPMCBurst32Bulk (ring_test.go) is
// the committed fast-path comparison: same burst size, same capacity, the
// only delta is SPSC's two-loads-one-store cursor protocol vs MPMC's
// CAS on head and ordered tail store per side. BENCH_ring.json records the measured
// numbers.
func BenchmarkSPSCBurst32(b *testing.B) { benchSPSCBurst(b, 32) }

func BenchmarkSPSCBurst8(b *testing.B) { benchSPSCBurst(b, 8) }
