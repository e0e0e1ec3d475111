package ring

import (
	"runtime"
	"sync"
	"testing"
)

// soak scales a concurrency-soak iteration count: full size normally,
// a light pass under -short. The spin loops below yield between retries —
// on a single-core runner a bare spin starves the peer goroutine for whole
// scheduler quanta and the suite takes minutes instead of seconds.
func soak(t *testing.T, full int) int {
	if testing.Short() {
		return full / 10
	}
	return full
}

func TestBadCapacity(t *testing.T) {
	for _, c := range []int{0, 1, 3, 100} {
		if _, err := NewMPMC[int](c); err != ErrBadCapacity {
			t.Errorf("NewMPMC(%d) err = %v", c, err)
		}
		if _, err := NewSPSC[int](c); err != ErrBadCapacity {
			t.Errorf("NewSPSC(%d) err = %v", c, err)
		}
	}
}

func TestMPMCFIFO(t *testing.T) {
	r, _ := NewMPMC[int](8)
	for i := 0; i < 5; i++ {
		if !r.Enqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	for i := 0; i < 5; i++ {
		v, ok := r.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := r.Dequeue(); ok {
		t.Fatal("dequeue from empty succeeded")
	}
}

func TestMPMCFull(t *testing.T) {
	r, _ := NewMPMC[int](4)
	for i := 0; i < 4; i++ {
		if !r.Enqueue(i) {
			t.Fatalf("enqueue %d failed below capacity", i)
		}
	}
	if r.Enqueue(99) {
		t.Fatal("enqueue into full ring succeeded")
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("len=%d cap=%d", r.Len(), r.Cap())
	}
	// after one dequeue there is room again
	r.Dequeue()
	if !r.Enqueue(99) {
		t.Fatal("enqueue after dequeue failed")
	}
}

func TestMPMCWrapAround(t *testing.T) {
	r, _ := NewMPMC[int](4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !r.Enqueue(round*10 + i) {
				t.Fatal("enqueue failed")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := r.Dequeue()
			if !ok || v != round*10+i {
				t.Fatalf("round %d: got %d", round, v)
			}
		}
	}
}

func TestMPMCBurst(t *testing.T) {
	r, _ := NewMPMC[int](8)
	in := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if n := r.EnqueueBurst(in); n != 8 {
		t.Fatalf("enqueued %d, want 8 (capacity)", n)
	}
	out := make([]int, 5)
	if n := r.DequeueBurst(out); n != 5 {
		t.Fatalf("dequeued %d, want 5", n)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if n := r.DequeueBurst(make([]int, 16)); n != 3 {
		t.Fatalf("drain got %d, want 3", n)
	}
}

func TestMPMCConcurrent(t *testing.T) {
	// N producers, M consumers; every produced value must be consumed
	// exactly once. Run with -race to exercise the memory ordering.
	r, _ := NewMPMC[int](64)
	const producers, consumers = 4, 4
	perProducer := soak(t, 5000)
	var wg sync.WaitGroup
	seen := make([]int32, producers*perProducer)
	var mu sync.Mutex
	done := make(chan struct{})

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := p*perProducer + i
				for !r.Enqueue(v) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				v, ok := r.Dequeue()
				if !ok {
					select {
					case <-done:
						// final drain
						for {
							v, ok := r.Dequeue()
							if !ok {
								return
							}
							mu.Lock()
							seen[v]++
							mu.Unlock()
						}
					default:
						runtime.Gosched()
						continue
					}
				}
				mu.Lock()
				seen[v]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	cwg.Wait()
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d consumed %d times", v, n)
		}
	}
}

func TestSPSCFIFO(t *testing.T) {
	r, _ := NewSPSC[string](4)
	r.Enqueue("a")
	r.Enqueue("b")
	if v, _ := r.Dequeue(); v != "a" {
		t.Fatalf("got %q", v)
	}
	if v, _ := r.Dequeue(); v != "b" {
		t.Fatalf("got %q", v)
	}
	if _, ok := r.Dequeue(); ok {
		t.Fatal("empty dequeue succeeded")
	}
}

func TestSPSCFullAndWrap(t *testing.T) {
	r, _ := NewSPSC[int](2)
	if !r.Enqueue(1) || !r.Enqueue(2) {
		t.Fatal("fill failed")
	}
	if r.Enqueue(3) {
		t.Fatal("overfill succeeded")
	}
	for round := 0; round < 50; round++ {
		v, ok := r.Dequeue()
		if !ok || v != round+1 {
			t.Fatalf("round %d: %d %v", round, v, ok)
		}
		if !r.Enqueue(round + 3) {
			t.Fatal("refill failed")
		}
	}
}

func TestSPSCConcurrent(t *testing.T) {
	r, _ := NewSPSC[int](128)
	n := soak(t, 50000)
	go func() {
		for i := 0; i < n; i++ {
			for !r.Enqueue(i) {
				runtime.Gosched()
			}
		}
	}()
	next := 0
	for next < n {
		v, ok := r.Dequeue()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != next {
			t.Fatalf("out of order: got %d want %d", v, next)
		}
		next++
	}
}

func TestSPSCBurst(t *testing.T) {
	r, _ := NewSPSC[int](8)
	for i := 0; i < 6; i++ {
		r.Enqueue(i)
	}
	out := make([]int, 4)
	if n := r.DequeueBurst(out); n != 4 {
		t.Fatalf("burst = %d", n)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
}

func BenchmarkMPMCUncontended(b *testing.B) {
	r, _ := NewMPMC[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Enqueue(i)
		r.Dequeue()
	}
}

func BenchmarkSPSCUncontended(b *testing.B) {
	r, _ := NewSPSC[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Enqueue(i)
		r.Dequeue()
	}
}

func BenchmarkMPMCContended(b *testing.B) {
	r, _ := NewMPMC[int](1024)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if !r.Enqueue(1) {
				r.Dequeue()
			} else {
				r.Dequeue()
			}
		}
	})
}

// TestMPMCBurstContended hammers the bulk span-reservation path: several
// producers enqueue bursts of varying sizes while consumers drain with
// bursts, and every value must come out exactly once. Run with -race to
// exercise the publish ordering of the reserved spans.
func TestMPMCBurstContended(t *testing.T) {
	r, _ := NewMPMC[int](64)
	const producers, consumers = 4, 4
	perProducer := soak(t, 4000)
	seen := make([]int32, producers*perProducer)
	var mu sync.Mutex
	var wg, cwg sync.WaitGroup
	done := make(chan struct{})

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]int, 0, 8)
			next := 0
			for next < perProducer {
				buf = buf[:0]
				// bursts of 1..8, truncated at the tail
				for i := 0; i < 1+(next%8) && next+i < perProducer; i++ {
					buf = append(buf, p*perProducer+next+i)
				}
				sent := 0
				for sent < len(buf) {
					n := r.EnqueueBurst(buf[sent:])
					if n == 0 {
						runtime.Gosched()
						continue
					}
					sent += n
				}
				next += len(buf)
			}
		}(p)
	}
	drain := func(out []int) bool {
		n := r.DequeueBurst(out)
		if n == 0 {
			return false
		}
		mu.Lock()
		for _, v := range out[:n] {
			seen[v]++
		}
		mu.Unlock()
		return true
	}
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			out := make([]int, 8)
			for {
				if !drain(out) {
					select {
					case <-done:
						for drain(out) {
						}
						return
					default:
						runtime.Gosched()
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	cwg.Wait()
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d consumed %d times", v, n)
		}
	}
}

// TestMPMCBurstMixedWithSingle interleaves bulk and single-element
// operations on the same ring: n = 1 spans and longer ones must compose.
func TestMPMCBurstMixedWithSingle(t *testing.T) {
	r, _ := NewMPMC[int](32)
	n := soak(t, 20000)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]int, 4)
		i := 0
		for i < n {
			if i%5 == 0 {
				for !r.Enqueue(i) {
					runtime.Gosched()
				}
				i++
				continue
			}
			k := 0
			for k < len(buf) && i+k < n {
				buf[k] = i + k
				k++
			}
			sent := 0
			for sent < k {
				m := r.EnqueueBurst(buf[sent:k])
				if m == 0 {
					runtime.Gosched()
					continue
				}
				sent += m
			}
			i += k
		}
	}()
	got := make([]bool, n)
	out := make([]int, 4)
	read := 0
	for read < n {
		if read%3 == 0 {
			if v, ok := r.Dequeue(); ok {
				if got[v] {
					t.Fatalf("value %d duplicated", v)
				}
				got[v] = true
				read++
				continue
			}
			runtime.Gosched()
			continue
		}
		m := r.DequeueBurst(out)
		if m == 0 {
			runtime.Gosched()
			continue
		}
		for _, v := range out[:m] {
			if got[v] {
				t.Fatalf("value %d duplicated", v)
			}
			got[v] = true
		}
		read += m
	}
	wg.Wait()
	for v, ok := range got {
		if !ok {
			t.Fatalf("value %d lost", v)
		}
	}
}

// TestMPMCBurstSingleProducerFIFO checks bursts preserve FIFO order when
// one producer and one consumer use the bulk path end to end.
func TestMPMCBurstSingleProducerFIFO(t *testing.T) {
	r, _ := NewMPMC[int](16)
	in := make([]int, 11)
	out := make([]int, 16)
	next := 0
	want := 0
	for round := 0; round < 200; round++ {
		for i := range in {
			in[i] = next + i
		}
		next += r.EnqueueBurst(in)
		for {
			n := r.DequeueBurst(out)
			if n == 0 {
				break
			}
			for _, v := range out[:n] {
				if v != want {
					t.Fatalf("got %d want %d", v, want)
				}
				want++
			}
		}
	}
	if want != next {
		t.Fatalf("drained %d of %d", want, next)
	}
}

// perElementEnqueueBurst is the pre-bulk-path implementation (one CAS per
// element), kept as the benchmark baseline for the span-reservation path.
func perElementEnqueueBurst[T any](r *MPMC[T], in []T) int {
	n := 0
	for n < len(in) {
		if !r.Enqueue(in[n]) {
			break
		}
		n++
	}
	return n
}

func perElementDequeueBurst[T any](r *MPMC[T], out []T) int {
	n := 0
	for n < len(out) {
		v, ok := r.Dequeue()
		if !ok {
			break
		}
		out[n] = v
		n++
	}
	return n
}

func benchBurst(b *testing.B, size int, enq func(*MPMC[int], []int) int, deq func(*MPMC[int], []int) int) {
	r, _ := NewMPMC[int](1024)
	in := make([]int, size)
	out := make([]int, size)
	for i := range in {
		in[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enq(r, in)
		deq(r, out)
	}
}

func BenchmarkMPMCBurst32Bulk(b *testing.B) {
	benchBurst(b, 32, (*MPMC[int]).EnqueueBurst, (*MPMC[int]).DequeueBurst)
}

func BenchmarkMPMCBurst32PerElement(b *testing.B) {
	benchBurst(b, 32, perElementEnqueueBurst[int], perElementDequeueBurst[int])
}

func BenchmarkMPMCBurst32BulkContended(b *testing.B) {
	r, _ := NewMPMC[int](1024)
	b.RunParallel(func(pb *testing.PB) {
		in := make([]int, 32)
		out := make([]int, 32)
		for pb.Next() {
			r.EnqueueBurst(in)
			r.DequeueBurst(out)
		}
	})
}

func BenchmarkMPMCBurst32PerElementContended(b *testing.B) {
	r, _ := NewMPMC[int](1024)
	b.RunParallel(func(pb *testing.PB) {
		in := make([]int, 32)
		out := make([]int, 32)
		for pb.Next() {
			perElementEnqueueBurst(r, in)
			perElementDequeueBurst(r, out)
		}
	})
}
