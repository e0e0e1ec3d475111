package runtime

import (
	"context"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metronome/internal/obsv"
	"metronome/internal/sched"
	"metronome/internal/xrand"
)

// chaosEnv reads an integer knob from the environment, so a failing soak
// reproduces (CHAOS_SEED=n) and shrinks (CHAOS_OPS=m) from the shell.
func chaosEnv(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// The live-substrate chaos soak: a seeded schedule of stalls, deaths,
// blackouts, telemetry freezes, resizes and rebalances churns a running
// 2-queue team from outside goroutines while a producer pushes packets
// through. The race detector is half the assertion; the other half is
// conservation — once every fault clears, every produced packet drains and
// the pool balances, no matter how the schedule interleaved. Timing varies
// run to run (this is the live runner), but the op sequence is a pure
// function of CHAOS_SEED and CHAOS_OPS shrinks it.
func TestChaosSoakLive(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak runs in the dedicated non-short CI step")
	}
	seed := uint64(chaosEnv("CHAOS_SEED", 1))
	ops := chaosEnv("CHAOS_OPS", 80)
	t.Logf("chaos soak: CHAOS_SEED=%d CHAOS_OPS=%d (env to reproduce/shrink)", seed, ops)

	// The soak's black box: placement swaps and fault flips land in the
	// flight recorder from the racing goroutines (the ring is lock-free on
	// the live substrate too), dumped below iff the soak fails.
	rec := obsv.NewRecorder(1 << 14)
	bench, r, inj, processed, stop := faultBench(t, 4, Config{Policy: sched.NameRMetronome, Seed: seed, Recorder: rec})
	defer stop()
	obsv.AttachFaults(inj, rec)
	ctx := context.Background()

	var sent atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sent.Store(int64(bench.produce(ctx, 30000)))
	}()
	go func() {
		defer wg.Done()
		rng := xrand.New(seed + 7)
		pause := func(lo, hi int) {
			time.Sleep(time.Duration(lo+rng.Intn(hi-lo)) * time.Microsecond)
		}
		for i := 0; i < ops; i++ {
			switch rng.Intn(8) {
			case 0, 1:
				inj.StallThread(rng.Intn(4), r.Elapsed()+rng.Uniform(0.001, 0.004))
			case 2:
				// Death is a stall without end; revival ends it now.
				id := rng.Intn(4)
				inj.StallThread(id, math.Inf(1))
				pause(200, 2000)
				inj.StallThread(id, r.Elapsed())
			case 3:
				q := rng.Intn(2)
				inj.SetQueueDark(q, true)
				pause(200, 1500)
				inj.SetQueueDark(q, false)
			case 4:
				q := rng.Intn(2)
				inj.FreezeTelemetry(q, true)
				pause(200, 1500)
				inj.FreezeTelemetry(q, false)
			case 5, 6:
				r.SetTeamSize(2 + rng.Intn(3))
			default:
				plan := []int{1, 1}
				for j := 2; j < 2+rng.Intn(3); j++ {
					plan[rng.Intn(2)]++
				}
				r.ApplyPlacement(plan)
			}
			pause(100, 500)
		}
		// Clear everything: live revival is automatic (stalled members
		// re-check their gate every TL), and a zero end clears any stall.
		for id := 0; id < 4; id++ {
			inj.StallThread(id, 0)
		}
		for q := 0; q < 2; q++ {
			inj.SetQueueDark(q, false)
			inj.FreezeTelemetry(q, false)
		}
		r.SetTeamSize(4)
	}()
	wg.Wait()

	dump := func() {
		var b strings.Builder
		if err := rec.WriteText(&b); err == nil {
			t.Logf("flight recorder (last %d of %d events):\n%s",
				len(rec.Events(nil)), rec.Total(), b.String())
		}
	}
	if !drainTo(processed, uint64(sent.Load()), 10*time.Second) {
		dump()
		t.Fatalf("processed %d of %d after the soak cleared", processed.Load(), sent.Load())
	}
	if bench.pool.Available() != bench.pool.Size() {
		dump()
		t.Fatalf("pool leak: %d/%d", bench.pool.Available(), bench.pool.Size())
	}
	if cycles := r.Stats.Cycles.Load(); cycles == 0 {
		dump()
		t.Fatal("no cycles recorded through the soak")
	}
}
