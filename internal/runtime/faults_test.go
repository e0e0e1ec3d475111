package runtime

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metronome/internal/faults"
	"metronome/internal/mbuf"
	"metronome/internal/sched"
	"metronome/internal/telemetry"
)

// faultBench builds a 2-queue runner with a fault injector and a counting
// handler, returns it running plus a stop func that cancels and waits.
func faultBench(t *testing.T, m int, cfg Config) (*testBench, *Runner, *faults.Injector, *atomic.Uint64, func()) {
	t.Helper()
	bench := newBench(t, 2)
	var processed atomic.Uint64
	handler := func(batch []*mbuf.Mbuf) {
		for _, mb := range batch {
			processed.Add(1)
			mb.Free()
		}
	}
	inj := faults.New(32, 2)
	cfg.M = m
	cfg.Faults = inj
	if cfg.VBar == 0 {
		cfg.VBar = 100 * time.Microsecond
	}
	r := New(bench.queues, handler, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()
	return bench, r, inj, &processed, func() { cancel(); wg.Wait() }
}

// drainTo waits until processed reaches want or the deadline passes.
func drainTo(processed *atomic.Uint64, want uint64, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for processed.Load() < want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// Satellite: SetTeamSize racing a thread stall — a stalled member must park
// cleanly when the resize retires it mid-window and re-admit afterwards.
// The race detector is half the assertion.
func TestResizeRacesThreadStall(t *testing.T) {
	bench, r, inj, processed, stop := faultBench(t, 6, Config{Policy: sched.NameRMetronome, Seed: 21})
	defer stop()
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			inj.StallThread(i%6, r.Elapsed()+0.002)
			time.Sleep(500 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			r.SetTeamSize(2 + i%5)
			time.Sleep(500 * time.Microsecond)
		}
	}()
	sent := bench.produce(ctx, 20000)
	wg.Wait()
	r.SetTeamSize(6)
	if !drainTo(processed, uint64(sent), 5*time.Second) {
		t.Fatalf("processed %d of %d after stall/resize churn", processed.Load(), sent)
	}
	if bench.pool.Available() != bench.pool.Size() {
		t.Fatalf("pool leak: %d/%d", bench.pool.Available(), bench.pool.Size())
	}
}

// Satellite: a dead member (stalled until +Inf) is re-homed by a placement
// plan while dead, then revived by a stall that ends now — it must come
// back serving its new home without a restart.
func TestRehomeDeadMemberThenRevive(t *testing.T) {
	bench, r, inj, processed, stop := faultBench(t, 4, Config{Policy: sched.NameRMetronome, Seed: 22})
	defer stop()
	ctx := context.Background()
	inj.StallThread(1, math.Inf(1))
	time.Sleep(2 * time.Millisecond)
	// Re-home everything while thread 1 is dead: plans land per queue, so
	// the dead member's home may move under it.
	r.ApplyPlacement([]int{3, 1})
	r.ApplyPlacement([]int{1, 3})
	inj.StallThread(1, r.Elapsed())
	sent := bench.produce(ctx, 20000)
	if !drainTo(processed, uint64(sent), 5*time.Second) {
		t.Fatalf("processed %d of %d after dead-member re-home", processed.Load(), sent)
	}
	cycles := r.Stats.Cycles.Load()
	if cycles == 0 {
		t.Fatal("no cycles after revival")
	}
}

// countingSleeper counts the sleeps it starts.
type countingSleeper struct{ n atomic.Int64 }

func (c *countingSleeper) Sleep(d time.Duration) {
	c.n.Add(1)
	time.Sleep(d)
}

// A live thread under a stall without end re-asks the gate once per TL: it
// neither spins (every sleep lasts at least TL, so a window W holds at most
// ceil(W/TL)+1 of them) nor hands +Inf to the sleeper. Clearing the stall
// lets it serve again after at most the sleep in flight (<= TL) plus one
// wake, with no placement round-trip.
func TestLivePermanentStallWakesEveryTL(t *testing.T) {
	const tl = 2 * time.Millisecond
	b := newBench(t, 1)
	sl := &countingSleeper{}
	var servedAfter atomic.Int64 // sleeps started when the first packet was served
	servedAfter.Store(-1)
	handler := func(batch []*mbuf.Mbuf) {
		servedAfter.CompareAndSwap(-1, sl.n.Load())
		for _, mb := range batch {
			mb.Free()
		}
	}
	inj := faults.New(1, 1)
	inj.StallThread(0, math.Inf(1))
	r := New(b.queues, handler, Config{M: 1, TL: tl, Sleeper: sl, Faults: inj})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()
	defer func() { cancel(); wg.Wait() }()

	if b.produce(ctx, 1) != 1 {
		t.Fatal("could not enqueue the probe packet")
	}
	time.Sleep(5 * time.Millisecond)
	n0, began := sl.n.Load(), time.Now()
	time.Sleep(50 * time.Millisecond)
	wakes, window := sl.n.Load()-n0, time.Since(began)
	if limit := int64((window+tl-1)/tl) + 1; wakes > limit {
		t.Fatalf("dead thread woke %d times in %v, want <= %d (one per TL)", wakes, window, limit)
	}
	if wakes == 0 {
		t.Fatal("dead thread never re-checked its gate")
	}
	if c := r.Stats.Cycles.Load(); c != 0 || servedAfter.Load() != -1 {
		t.Fatalf("dead thread served: %d cycles", c)
	}

	cleared := sl.n.Load()
	inj.StallThread(0, r.Elapsed())
	for deadline := time.Now().Add(2 * time.Second); servedAfter.Load() < 0; {
		if time.Now().After(deadline) {
			t.Fatal("revived thread never served")
		}
		time.Sleep(time.Millisecond)
	}
	// The sleep in flight at the clear, plus one started by a gate check
	// that raced the clear.
	if got := servedAfter.Load() - cleared; got > 1 {
		t.Fatalf("revived thread slept %d more times before serving, want <= 1", got)
	}
}

// Satellite: resize during a queue blackout — the dark queue's ring backs up
// while the team churns; recovery must drain the full backlog.
func TestResizeDuringBlackout(t *testing.T) {
	bench, r, inj, processed, stop := faultBench(t, 4, Config{Policy: sched.NameRMetronome, Seed: 23})
	defer stop()
	ctx := context.Background()
	inj.SetQueueDark(0, true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			r.SetTeamSize(2 + i%4)
			time.Sleep(time.Millisecond)
		}
	}()
	// The 1024-slot ring holds the dark queue's share; keep the total under
	// capacity so nothing is lost producer-side and recovery is exact.
	sent := bench.produce(ctx, 1500)
	wg.Wait()
	inj.SetQueueDark(0, false)
	if !drainTo(processed, uint64(sent), 5*time.Second) {
		t.Fatalf("processed %d of %d after blackout recovery", processed.Load(), sent)
	}
	if bench.pool.Available() != bench.pool.Size() {
		t.Fatalf("pool leak: %d/%d", bench.pool.Available(), bench.pool.Size())
	}
}

// A frozen queue stops bumping its publish sequence while heartbeats keep
// moving — the clock-free staleness signal the health layer consumes.
func TestLiveFreezeStopsPubSeqNotHeartbeat(t *testing.T) {
	bus := telemetry.NewBus(2, 32)
	bench, _, inj, processed, stop := faultBench(t, 3, Config{Bus: bus, Seed: 24})
	defer stop()
	ctx := context.Background()
	sent := bench.produce(ctx, 4000)
	if !drainTo(processed, uint64(sent), 5*time.Second) {
		t.Fatalf("warm-up drain incomplete: %d of %d", processed.Load(), sent)
	}
	inj.FreezeTelemetry(0, true)
	// One settling cycle so in-flight publishes land before the baseline.
	time.Sleep(5 * time.Millisecond)
	seq0 := bus.Load(telemetry.PubSeq, 0)
	hb := make([]float64, 3)
	for i := range hb {
		hb[i] = bus.Thread(telemetry.Heartbeat, i)
	}
	sent2 := bench.produce(ctx, 4000)
	if !drainTo(processed, uint64(sent+sent2), 5*time.Second) {
		t.Fatalf("frozen-queue drain incomplete: %d of %d", processed.Load(), sent+sent2)
	}
	if got := bus.Load(telemetry.PubSeq, 0); got != seq0 {
		t.Fatalf("frozen queue kept publishing: seq %d -> %d", seq0, got)
	}
	moved := 0
	for i := range hb {
		if bus.Thread(telemetry.Heartbeat, i) > hb[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no heartbeat advanced during the freeze")
	}
	inj.FreezeTelemetry(0, false)
	sent3 := bench.produce(ctx, 2000)
	if !drainTo(processed, uint64(sent+sent2+sent3), 5*time.Second) {
		t.Fatalf("thawed drain incomplete")
	}
	if bus.Load(telemetry.PubSeq, 0) == seq0 {
		t.Fatal("thawed queue never resumed publishing")
	}
}
