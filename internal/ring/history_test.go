package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"metronome/internal/xrand"
)

// TestMPMCAgainstSequentialModel drives one seeded mix of n = 1 and burst
// operations, oversized and zero-length bursts included, through the ring
// and through a plain slice queue: every call must return the same count
// and the same values, Len must equal the model's length, and a full ring's
// enqueues and an empty ring's dequeues must return 0 (they return at all:
// nothing here can unblock them).
func TestMPMCAgainstSequentialModel(t *testing.T) {
	const capacity = 16
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		r, _ := NewMPMC[int](capacity)
		var model []int
		next := 0
		sawFull, sawEmpty := false, false
		for step := 0; step < 4000; step++ {
			switch rng.Intn(4) {
			case 0:
				ok := r.Enqueue(next)
				if want := len(model) < capacity; ok != want {
					t.Fatalf("seed %d step %d: Enqueue = %v with %d queued", seed, step, ok, len(model))
				}
				if ok {
					model = append(model, next)
					next++
				} else {
					sawFull = true
				}
			case 1:
				v, ok := r.Dequeue()
				if want := len(model) > 0; ok != want {
					t.Fatalf("seed %d step %d: Dequeue ok = %v with %d queued", seed, step, ok, len(model))
				}
				if ok {
					if v != model[0] {
						t.Fatalf("seed %d step %d: Dequeue = %d, want %d", seed, step, v, model[0])
					}
					model = model[1:]
				} else {
					sawEmpty = true
				}
			case 2:
				in := make([]int, rng.Intn(capacity+4))
				for i := range in {
					in[i] = next + i
				}
				want := min(len(in), capacity-len(model))
				if n := r.EnqueueBurst(in); n != want {
					t.Fatalf("seed %d step %d: EnqueueBurst(%d) = %d with %d queued, want %d", seed, step, len(in), n, len(model), want)
				}
				model = append(model, in[:want]...)
				next += want
				sawFull = sawFull || (want == 0 && len(in) > 0)
			case 3:
				out := make([]int, rng.Intn(capacity+4))
				want := min(len(out), len(model))
				if n := r.DequeueBurst(out); n != want {
					t.Fatalf("seed %d step %d: DequeueBurst(%d) = %d with %d queued, want %d", seed, step, len(out), n, len(model), want)
				}
				for i, v := range out[:want] {
					if v != model[i] {
						t.Fatalf("seed %d step %d: DequeueBurst out[%d] = %d, want %d", seed, step, i, v, model[i])
					}
				}
				model = model[want:]
				sawEmpty = sawEmpty || (want == 0 && len(out) > 0)
			}
			if r.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, model holds %d", seed, step, r.Len(), len(model))
			}
		}
		if !sawFull || !sawEmpty {
			t.Fatalf("seed %d: mix never hit full (%v) or empty (%v)", seed, sawFull, sawEmpty)
		}
	}
}

// TestMPMCConcurrentHistory records what every consumer saw while seeded
// producers and consumers mix n = 1 and burst spans on one small ring, and
// checks the history against what a sequential FIFO allows:
//
//   - exact conservation: every value enqueued comes out exactly once, none
//     is invented;
//   - per-producer FIFO: a producer's values occupy increasing ring
//     positions and each consumer's spans take increasing positions, so
//     within one consumer's log each producer's sequence numbers only rise;
//   - 0 <= Len <= Cap at every instant an observer samples it, and Len is
//     exact once everything has stopped.
//
// Run with -race: the element moves are plain loads and stores ordered only
// by the tail cursors.
func TestMPMCConcurrentHistory(t *testing.T) {
	const (
		capacity  = 32
		producers = 4
		consumers = 3
	)
	perProducer := soak(t, 20000)
	r, _ := NewMPMC[uint64](capacity)
	var produced sync.WaitGroup
	for p := 0; p < producers; p++ {
		produced.Add(1)
		go func(p int) {
			defer produced.Done()
			rng := xrand.New(uint64(100 + p))
			buf := make([]uint64, 0, 12)
			for seq := 0; seq < perProducer; {
				if rng.Intn(3) == 0 {
					if r.Enqueue(uint64(p)<<32 | uint64(seq)) {
						seq++
					} else {
						runtime.Gosched()
					}
					continue
				}
				buf = buf[:0]
				for i := 0; i < 1+rng.Intn(12) && seq+i < perProducer; i++ {
					buf = append(buf, uint64(p)<<32|uint64(seq+i))
				}
				n := r.EnqueueBurst(buf) // a partial burst is a prefix: resume after it
				if n == 0 {
					runtime.Gosched()
				}
				seq += n
			}
		}(p)
	}

	var stop atomic.Bool
	logs := make([][]uint64, consumers)
	var consumed sync.WaitGroup
	for c := 0; c < consumers; c++ {
		consumed.Add(1)
		go func(c int) {
			defer consumed.Done()
			rng := xrand.New(uint64(200 + c))
			out := make([]uint64, 12)
			for {
				var n int
				if rng.Intn(3) == 0 {
					if v, ok := r.Dequeue(); ok {
						out[0], n = v, 1
					}
				} else {
					n = r.DequeueBurst(out[:1+rng.Intn(12)])
				}
				logs[c] = append(logs[c], out[:n]...)
				if n == 0 {
					if stop.Load() && r.Len() == 0 {
						return
					}
					runtime.Gosched()
				}
			}
		}(c)
	}

	var observed sync.WaitGroup
	observed.Add(1)
	var badLen atomic.Int64
	badLen.Store(-1)
	go func() {
		defer observed.Done()
		for !stop.Load() {
			if l := r.Len(); l < 0 || l > capacity {
				badLen.Store(int64(l))
				return
			}
			runtime.Gosched()
		}
	}()

	produced.Wait()
	stop.Store(true) // producers are done: an empty ring now stays empty
	consumed.Wait()
	observed.Wait()

	if l := badLen.Load(); l != -1 {
		t.Fatalf("observer read Len = %d outside [0, %d]", l, capacity)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after everything drained", r.Len())
	}
	seen := make([][]bool, producers)
	for p := range seen {
		seen[p] = make([]bool, perProducer)
	}
	total := 0
	for c, log := range logs {
		last := [producers]int{}
		for p := range last {
			last[p] = -1
		}
		for _, v := range log {
			p, seq := int(v>>32), int(uint32(v))
			if p >= producers || seq >= perProducer {
				t.Fatalf("consumer %d read %#x, which nobody enqueued", c, v)
			}
			if seen[p][seq] {
				t.Fatalf("producer %d's value %d came out twice", p, seq)
			}
			seen[p][seq] = true
			if seq <= last[p] {
				t.Fatalf("consumer %d read producer %d's value %d after %d", c, p, seq, last[p])
			}
			last[p] = seq
		}
		total += len(log)
	}
	if total != producers*perProducer {
		t.Fatalf("%d values came out of %d enqueued", total, producers*perProducer)
	}
}
