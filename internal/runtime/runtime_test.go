package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metronome/internal/apps"
	"metronome/internal/mbuf"
	"metronome/internal/ring"
	"metronome/internal/sched"
	"metronome/internal/stats"
	"metronome/internal/telemetry"
	"metronome/internal/xrand"
)

// testBench wires a runner to rings fed by a producer goroutine.
type testBench struct {
	rings  []*ring.MPMC[*mbuf.Mbuf]
	queues []RxQueue
	pool   *mbuf.Pool
}

func newBench(t *testing.T, nQueues int) *testBench {
	t.Helper()
	b := &testBench{pool: mbuf.NewPool(4096)}
	for i := 0; i < nQueues; i++ {
		r, err := ring.NewMPMC[*mbuf.Mbuf](1024)
		if err != nil {
			t.Fatal(err)
		}
		b.rings = append(b.rings, r)
		b.queues = append(b.queues, RingQueue{R: r})
	}
	return b
}

// produce pushes n packets round-robin as fast as the pool allows.
func (b *testBench) produce(ctx context.Context, n int) int {
	sent := 0
	for sent < n && ctx.Err() == nil {
		m, err := b.pool.Get()
		if err != nil {
			time.Sleep(50 * time.Microsecond) // consumers lag; let them
			continue
		}
		m.SetFrame([]byte{byte(sent), byte(sent >> 8)})
		if !b.rings[sent%len(b.rings)].Enqueue(m) {
			m.Free()
			time.Sleep(50 * time.Microsecond)
			continue
		}
		sent++
	}
	return sent
}

func TestAllPacketsProcessedExactlyOnce(t *testing.T) {
	bench := newBench(t, 1)
	var processed atomic.Uint64
	handler := func(batch []*mbuf.Mbuf) {
		for _, m := range batch {
			processed.Add(1)
			m.Free()
		}
	}
	r := New(bench.queues, handler, Config{M: 3, VBar: 200 * time.Microsecond, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()

	const n = 20000
	sent := bench.produce(ctx, n)
	// Wait for drain.
	deadline := time.Now().Add(5 * time.Second)
	for processed.Load() < uint64(sent) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if processed.Load() != uint64(sent) {
		t.Fatalf("processed %d of %d", processed.Load(), sent)
	}
	// Every mbuf came back to the pool: nothing double-freed or leaked.
	if bench.pool.Available() != bench.pool.Size() {
		t.Fatalf("pool leak: %d/%d", bench.pool.Available(), bench.pool.Size())
	}
	if r.Stats.Cycles.Load() == 0 || r.Stats.Tries.Load() == 0 {
		t.Error("no cycles recorded")
	}
}

func TestLockExclusivityPerQueue(t *testing.T) {
	// At most one handler invocation in flight per queue, ever.
	bench := newBench(t, 2)
	var inFlight [2]atomic.Int32
	var violations atomic.Int32
	var processed atomic.Uint64
	handler := func(batch []*mbuf.Mbuf) {
		qi := int(batch[0].Bytes()[0]) % 2 // queue id smuggled in byte 0
		if inFlight[qi].Add(1) != 1 {
			violations.Add(1)
		}
		time.Sleep(20 * time.Microsecond) // widen the race window
		inFlight[qi].Add(-1)
		for _, m := range batch {
			processed.Add(1)
			m.Free()
		}
	}
	r := New(bench.queues, handler, Config{M: 5, VBar: 100 * time.Microsecond, Seed: 2})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()

	// Producer marks each packet with its queue index.
	sent := 0
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		m, err := bench.pool.Get()
		if err != nil {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		qi := sent % 2
		m.SetFrame([]byte{byte(qi)})
		if !bench.rings[qi].Enqueue(m) {
			m.Free()
			time.Sleep(100 * time.Microsecond)
			continue
		}
		sent++
	}
	time.Sleep(50 * time.Millisecond)
	cancel()
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d concurrent handler invocations on one queue", violations.Load())
	}
	if processed.Load() == 0 {
		t.Fatal("nothing processed")
	}
}

func TestAdaptiveTSRespondsToLoad(t *testing.T) {
	// Asserts on the policy engine the goroutines delegate to, instead of
	// racing a producer goroutine against the wall clock (the old version
	// was flaky on slow machines: loaded rho landed anywhere between 0.1
	// and 0.9 depending on scheduling).
	bench := newBench(t, 1)
	handler := func(batch []*mbuf.Mbuf) {
		for _, m := range batch {
			m.Free()
		}
	}
	cfg := Config{M: 3, VBar: 200 * time.Microsecond, Seed: 3}
	r := New(bench.queues, handler, cfg)

	// Idle: rho = 0, TS = M * VBar.
	idleTS := r.TS(0)
	if idleTS < 2*cfg.VBar {
		t.Errorf("idle TS = %v, want ~%v (M*VBar)", idleTS, 3*cfg.VBar)
	}
	// Saturate the estimator with busy-dominated cycles — exactly what the
	// retrieval goroutines feed it when the queue never drains.
	p := r.Policy()
	for i := 0; i < 50; i++ {
		p.ObserveCycle(0, (900 * time.Microsecond).Seconds(), (100 * time.Microsecond).Seconds())
	}
	if rho := r.Rho(0); rho < 0.8 {
		t.Errorf("loaded rho = %v, want ~0.9", rho)
	}
	loadedTS := r.TS(0)
	if loadedTS >= idleTS {
		t.Errorf("TS did not shrink under load: idle %v, loaded %v", idleTS, loadedTS)
	}
	// Eq. (13) bounds TS to [VBar, M*VBar]: adaptation approaches the
	// target from above, never undershoots it.
	if loadedTS < cfg.VBar*99/100 {
		t.Errorf("loaded TS = %v fell below the target %v", loadedTS, cfg.VBar)
	}
	// Load drains away: the estimate and the timeout recover.
	for i := 0; i < 50; i++ {
		p.ObserveCycle(0, (1 * time.Microsecond).Seconds(), (600 * time.Microsecond).Seconds())
	}
	if rho := r.Rho(0); rho > 0.1 {
		t.Errorf("drained rho = %v, want ~0", rho)
	}
	if recovered := r.TS(0); recovered <= loadedTS {
		t.Errorf("TS did not recover after drain: loaded %v, recovered %v", loadedTS, recovered)
	}
}

func TestThreadLoopFeedsPolicy(t *testing.T) {
	// End-to-end companion to TestAdaptiveTSRespondsToLoad: proves the
	// live retrieval goroutines actually wire their cycles into the policy
	// engine. A slow handler makes every busy period ~milliseconds against
	// a ~600us idle timeout, so any observed cycle under load must push
	// rho well above zero; polling with a generous deadline (instead of a
	// fixed sleep) keeps the test deterministic on slow machines.
	bench := newBench(t, 1)
	handler := func(batch []*mbuf.Mbuf) {
		time.Sleep(2 * time.Millisecond)
		for _, m := range batch {
			m.Free()
		}
	}
	cfg := Config{M: 3, VBar: 200 * time.Microsecond, Seed: 5}
	r := New(bench.queues, handler, cfg)
	idleTS := r.TS(0)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()

	// Bursts with a gap longer than their drain time, so every burst is a
	// complete cycle: busy ~2ms of handler time against a sub-millisecond
	// vacation-side timeout. A continuous producer would outpace the slow
	// handler and the busy period would never end.
	stop := make(chan struct{})
	var prodWG sync.WaitGroup
	prodWG.Add(1)
	go func() {
		defer prodWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < 20; i++ {
				if m, err := bench.pool.Get(); err == nil {
					m.SetFrame([]byte{1})
					if !bench.rings[0].Enqueue(m) {
						m.Free()
					}
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// The EWMA decays between bursts (empty polls contribute ~0 samples),
	// so assert on the peak observed, not a single instant.
	deadline := time.Now().Add(5 * time.Second)
	maxRho, minTS := 0.0, idleTS
	for time.Now().Before(deadline) {
		if rho := r.Rho(0); rho > maxRho {
			maxRho = rho
		}
		if ts := r.TS(0); ts < minTS {
			minTS = ts
		}
		if maxRho > 0.05 && minTS < idleTS {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	prodWG.Wait()
	cancel()
	wg.Wait()
	if maxRho <= 0.05 {
		t.Errorf("threadLoop never fed the estimator: peak rho = %v after 5s under load", maxRho)
	}
	if minTS >= idleTS {
		t.Errorf("TS did not move through the live path: idle %v, best loaded %v", idleTS, minTS)
	}
}

func TestBackupBehaviourMultiqueue(t *testing.T) {
	bench := newBench(t, 2)
	handler := func(batch []*mbuf.Mbuf) {
		for _, m := range batch {
			m.Free()
		}
	}
	r := New(bench.queues, handler, Config{M: 4, VBar: 100 * time.Microsecond, Seed: 4})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()
	time.Sleep(300 * time.Millisecond)
	cancel()
	wg.Wait()
	// With 4 threads over 2 queues some collisions are inevitable; the
	// counters must reflect them without deadlock.
	if r.Stats.Tries.Load() == 0 {
		t.Fatal("no tries")
	}
	if r.Stats.BusyTries.Load() == r.Stats.Tries.Load() {
		t.Fatal("every try failed: lock never released?")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.defaults()
	if c.M != 3 || c.VBar != 200*time.Microsecond || c.TL != 50*c.VBar || c.Sleeper == nil {
		t.Errorf("defaults wrong: %+v", c)
	}
}

func TestMRaisedToQueueCount(t *testing.T) {
	bench := newBench(t, 3)
	r := New(bench.queues, func(b []*mbuf.Mbuf) {}, Config{M: 1})
	if r.cfg.M != 3 {
		t.Errorf("M = %d, want raised to N=3", r.cfg.M)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty queues")
		}
	}()
	New(nil, func(b []*mbuf.Mbuf) {}, Config{})
}

// TestThreadRNGStreamsDependOnQueueCount is the regression test for the
// per-thread RNG seeding: two runners built from the same seed but
// different queue counts must not share backup-selection streams, and the
// streams must stay reproducible for identical deployments. It asserts on
// the same xrand.SeedFrom derivation threadLoop uses.
func TestThreadRNGStreamsDependOnQueueCount(t *testing.T) {
	draw := func(seed uint64, id, queues int) []uint64 {
		rng := xrand.New(xrand.SeedFrom(seed, uint64(id), uint64(queues)))
		out := make([]uint64, 8)
		for i := range out {
			out[i] = rng.Uint64()
		}
		return out
	}
	same := func(a, b []uint64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	// Reproducible per deployment shape.
	if !same(draw(42, 0, 2), draw(42, 0, 2)) {
		t.Fatal("same deployment, different streams")
	}
	// Different queue counts, same seed and thread id: different streams.
	for id := 0; id < 4; id++ {
		if same(draw(42, id, 2), draw(42, id, 3)) {
			t.Fatalf("thread %d shares its stream across queue counts", id)
		}
	}
	// Different threads of one runner: different streams.
	if same(draw(42, 0, 2), draw(42, 1, 2)) {
		t.Fatal("sibling threads share a stream")
	}
}

// TestRMetronomeLiveEndToEnd drives the shared-queue discipline on real
// goroutines: packets flow, turns are claimed, and backups return home.
func TestRMetronomeLiveEndToEnd(t *testing.T) {
	for _, policy := range []string{"rmetronome", "worksteal"} {
		bench := newBench(t, 2)
		var processed atomic.Uint64
		handler := func(batch []*mbuf.Mbuf) {
			for _, m := range batch {
				processed.Add(1)
				m.Free()
			}
		}
		r := New(bench.queues, handler, Config{M: 4, VBar: 100 * time.Microsecond, Seed: 6, Policy: policy})
		if r.cyc.Group() == nil {
			t.Fatalf("%s: runner has no GroupPolicy", policy)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); r.Run(ctx) }()
		sent := bench.produce(ctx, 5000)
		deadline := time.Now().Add(5 * time.Second)
		for processed.Load() < uint64(sent) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		cancel()
		wg.Wait()
		if processed.Load() != uint64(sent) {
			t.Fatalf("%s: processed %d of %d", policy, processed.Load(), sent)
		}
		turns := r.cyc.Group().Turns(0) + r.cyc.Group().Turns(1)
		if turns == 0 {
			t.Fatalf("%s: no service turns claimed", policy)
		}
		// Claims are admission: every completed cycle consumed a turn.
		if cycles := r.Stats.Cycles.Load(); turns < cycles {
			t.Fatalf("%s: %d turns < %d cycles", policy, turns, cycles)
		}
	}
}

// TestRunnerOnSPSCFastPath runs a full Runner over NewRxRing-selected SPSC
// queues: one producer goroutine per queue, the Runner as the single
// consuming entity (M > 1 is fine — the per-queue trylock serialises every
// PollBurst and its atomic hand-off publishes each drain to the next lock
// holder). Run with -race to check that claim.
func TestRunnerOnSPSCFastPath(t *testing.T) {
	pool := mbuf.NewPool(4096)
	rings := make([]RxRing, 2)
	queues := make([]RxQueue, 2)
	for i := range rings {
		rr, err := NewRxRing(1024, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rr.(SPSCQueue); !ok {
			t.Fatalf("NewRxRing(_, 1, 1) = %T, want the SPSC fast path", rr)
		}
		rings[i] = rr
		queues[i] = rr
	}
	if rr, _ := NewRxRing(1024, 2, 1); rr != nil {
		if _, ok := rr.(RingQueue); !ok {
			t.Fatalf("NewRxRing(_, 2, 1) = %T, want MPMC", rr)
		}
	}
	var processed atomic.Uint64
	r := New(queues, func(batch []*mbuf.Mbuf) {
		for _, m := range batch {
			processed.Add(1)
			m.Free()
		}
	}, Config{M: 3, VBar: 100 * time.Microsecond, Seed: 8})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()

	const perQueue = 5000
	var prodWG sync.WaitGroup
	for qi := range rings {
		prodWG.Add(1)
		go func(qi int) { // exactly one producer goroutine per SPSC ring
			defer prodWG.Done()
			burst := make([]*mbuf.Mbuf, 0, 16)
			sent := 0
			for sent < perQueue && ctx.Err() == nil {
				burst = burst[:0]
				for len(burst) < cap(burst) && sent+len(burst) < perQueue {
					m, err := pool.Get()
					if err != nil {
						break
					}
					m.SetFrame([]byte{byte(qi)})
					burst = append(burst, m)
				}
				if len(burst) == 0 {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				n := rings[qi].EnqueueBurst(burst)
				for _, m := range burst[n:] {
					m.Free()
				}
				sent += n
				if n == 0 {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(qi)
	}
	prodWG.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for processed.Load() < 2*perQueue && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if processed.Load() != 2*perQueue {
		t.Fatalf("processed %d of %d", processed.Load(), 2*perQueue)
	}
	if pool.Available() != pool.Size() {
		t.Fatalf("pool leak: %d/%d", pool.Available(), pool.Size())
	}
}

// TestResizeUnderLoadRace hammers SetTeamSize while packets flow — run
// with -race (CI does): goroutine spawn/park, the policy's layout swaps
// and the telemetry publishing must all be data-race free, every packet
// must still be processed exactly once, and the team must land on the
// final requested size.
func TestResizeUnderLoadRace(t *testing.T) {
	bench := newBench(t, 2)
	bus := telemetry.NewBus(2, 16)
	var processed atomic.Uint64
	handler := func(batch []*mbuf.Mbuf) {
		for _, m := range batch {
			processed.Add(1)
			m.Free()
		}
	}
	r := New(bench.queues, handler, Config{
		M: 2, VBar: 100 * time.Microsecond, Seed: 31,
		Policy: "worksteal", Bus: bus, Dephase: true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()

	// Resizer: sweep the team size up and down while the producer runs.
	sizes := []int{6, 3, 9, 2, 7, 4, 8, 2, 5, 6}
	var rz sync.WaitGroup
	rz.Add(1)
	go func() {
		defer rz.Done()
		for i := 0; ctx.Err() == nil && i < len(sizes)*5; i++ {
			r.SetTeamSize(sizes[i%len(sizes)])
			time.Sleep(2 * time.Millisecond)
		}
		r.SetTeamSize(6)
	}()

	sent := bench.produce(ctx, 20000)
	deadline := time.Now().Add(10 * time.Second)
	for processed.Load() < uint64(sent) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rz.Wait()
	if got := r.TeamSize(); got != 6 {
		t.Errorf("final team size %d, want 6", got)
	}
	cancel()
	wg.Wait()
	if processed.Load() != uint64(sent) {
		t.Fatalf("processed %d of %d under resizing", processed.Load(), sent)
	}
	if bench.pool.Available() != bench.pool.Size() {
		t.Fatalf("pool leak: %d/%d", bench.pool.Available(), bench.pool.Size())
	}
	// Telemetry flowed from the goroutines.
	if bus.Load(telemetry.Tries, 0)+bus.Load(telemetry.Tries, 1) == 0 {
		t.Error("no tries published to the bus")
	}
}

// TestRebalanceUnderLoadRace hammers ApplyPlacement with shifting plans
// while packets flow — run with -race (CI does): the policy's full-layout
// swaps, member re-homing through the cycle-end return path, goroutine
// spawn/park on total changes and telemetry publishing must all be
// data-race free, every packet must still be processed exactly once, and
// the final plan must land.
func TestRebalanceUnderLoadRace(t *testing.T) {
	bench := newBench(t, 3)
	bus := telemetry.NewBus(3, 16)
	var processed atomic.Uint64
	handler := func(batch []*mbuf.Mbuf) {
		for _, m := range batch {
			processed.Add(1)
			m.Free()
		}
	}
	r := New(bench.queues, handler, Config{
		M: 6, VBar: 100 * time.Microsecond, Seed: 47,
		Policy: "rmetronome", Bus: bus, Dephase: true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()

	// Sweep placement plans (including total changes and
	// clamped entries) while the producer runs.
	plans := [][]int{
		{4, 1, 1}, {1, 4, 1}, {1, 1, 4}, {2, 2, 2},
		{5, 2, 1}, {1, 1, 1}, {0, 3, 3}, {3, 3, 3},
	}
	var rz sync.WaitGroup
	rz.Add(1)
	go func() {
		defer rz.Done()
		for i := 0; ctx.Err() == nil && i < len(plans)*5; i++ {
			r.ApplyPlacement(plans[i%len(plans)])
			time.Sleep(2 * time.Millisecond)
		}
		r.ApplyPlacement([]int{2, 1, 3})
	}()

	sent := bench.produce(ctx, 20000)
	deadline := time.Now().Add(10 * time.Second)
	for processed.Load() < uint64(sent) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rz.Wait()
	if got := r.TeamSize(); got != 6 {
		t.Errorf("final team size %d, want 6", got)
	}
	if p := r.Placement(); !sched.PlacementEqual(p, []int{2, 1, 3}) {
		t.Errorf("final placement %v, want [2 1 3]", p)
	}
	cancel()
	wg.Wait()
	if processed.Load() != uint64(sent) {
		t.Fatalf("processed %d of %d under rebalancing", processed.Load(), sent)
	}
	if bench.pool.Available() != bench.pool.Size() {
		t.Fatalf("pool leak: %d/%d", bench.pool.Available(), bench.pool.Size())
	}
}

// TestRunnerImplementsElasticTeam pins the live substrate's Team contract:
// resizes before Run apply at spawn time, the floor is the queue count.
func TestRunnerImplementsElasticTeam(t *testing.T) {
	bench := newBench(t, 2)
	r := New(bench.queues, func(b []*mbuf.Mbuf) {}, Config{M: 4, Seed: 1})
	if got := r.TeamSize(); got != 4 {
		t.Fatalf("initial team %d", got)
	}
	if applied := r.SetTeamSize(1); applied != 2 {
		t.Fatalf("SetTeamSize(1) applied %d, want clamp to N=2", applied)
	}
	if applied := r.SetTeamSize(7); applied != 7 {
		t.Fatalf("SetTeamSize(7) applied %d", applied)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	wg.Wait()
	if got := r.TeamSize(); got != 7 {
		t.Fatalf("team after run %d, want 7", got)
	}
}

// countProc is a minimal BurstProcessor: counts bursts/packets and stamps a
// verdict derived from the frame so tests can check the emit contract.
type countProc struct {
	bursts, packets atomic.Int64
}

func (c *countProc) Name() string             { return "count" }
func (c *countProc) CyclesPerPacket() float64 { return 1 }
func (c *countProc) Process(m *mbuf.Mbuf) apps.Verdict {
	c.packets.Add(1)
	return verdictFor(m)
}
func (c *countProc) ProcessBurst(ms []*mbuf.Mbuf, verdicts []apps.Verdict) {
	c.bursts.Add(1)
	c.packets.Add(int64(len(ms)))
	for i, m := range ms {
		verdicts[i] = verdictFor(m)
	}
}

// verdictFor smuggles the expected verdict in frame byte 0's low bit.
func verdictFor(m *mbuf.Mbuf) apps.Verdict {
	if m.Bytes()[0]&1 == 1 {
		return apps.Drop
	}
	return apps.Forward
}

func TestProcRunnerDispatchesBursts(t *testing.T) {
	bench := newBench(t, 2)
	procs := []apps.BurstProcessor{&countProc{}, &countProc{}}
	var emitted atomic.Int64
	var badVerdicts atomic.Int64
	emit := func(q int, ms []*mbuf.Mbuf, verdicts []apps.Verdict) {
		if len(ms) != len(verdicts) {
			t.Errorf("emit: %d mbufs, %d verdicts", len(ms), len(verdicts))
		}
		for i, m := range ms {
			if verdicts[i] != verdictFor(m) {
				badVerdicts.Add(1)
			}
			emitted.Add(1)
			m.Free()
		}
	}
	r := NewProc(bench.queues, procs, emit, Config{M: 3, VBar: 200 * time.Microsecond, Seed: 7})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()

	const n = 10000
	sent := bench.produce(ctx, n)
	deadline := time.Now().Add(5 * time.Second)
	for emitted.Load() < int64(sent) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if emitted.Load() != int64(sent) {
		t.Fatalf("emitted %d of %d", emitted.Load(), sent)
	}
	if badVerdicts.Load() != 0 {
		t.Fatalf("%d verdicts did not match their packets", badVerdicts.Load())
	}
	var perProc int64
	for _, p := range procs {
		cp := p.(*countProc)
		perProc += cp.packets.Load()
		if cp.bursts.Load() == 0 {
			t.Error("a queue's processor never ran")
		}
	}
	if perProc != int64(sent) {
		t.Fatalf("processors saw %d of %d packets", perProc, sent)
	}
	if got := r.Stats.Packets.Load(); got != uint64(sent) {
		t.Fatalf("Stats.Packets = %d, want %d", got, sent)
	}
	if bench.pool.Available() != bench.pool.Size() {
		t.Fatalf("pool leak: %d/%d", bench.pool.Available(), bench.pool.Size())
	}
}

func TestProcRunnerDefaultEmitFrees(t *testing.T) {
	bench := newBench(t, 1)
	proc := &countProc{}
	r := NewProc(bench.queues, []apps.BurstProcessor{proc}, nil, Config{M: 2, VBar: 100 * time.Microsecond, Seed: 8})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()

	const n = 2000
	sent := bench.produce(ctx, n)
	deadline := time.Now().Add(5 * time.Second)
	for proc.packets.Load() < int64(sent) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if proc.packets.Load() != int64(sent) {
		t.Fatalf("processed %d of %d", proc.packets.Load(), sent)
	}
	// The nil emit recycled every mbuf.
	if bench.pool.Available() != bench.pool.Size() {
		t.Fatalf("pool leak: %d/%d", bench.pool.Available(), bench.pool.Size())
	}
}

func TestNewProcValidation(t *testing.T) {
	bench := newBench(t, 2)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("mismatched procs", func() {
		NewProc(bench.queues, []apps.BurstProcessor{&countProc{}}, nil, Config{})
	})
	mustPanic("nil proc", func() {
		NewProc(bench.queues, []apps.BurstProcessor{&countProc{}, nil}, nil, Config{})
	})
	mustPanic("no queues", func() {
		NewProc(nil, nil, nil, Config{})
	})
}

// TestBusSizedForDeployment: a telemetry bus with fewer queue slots than the
// deployment has queues is refused at construction, by a message naming both
// counts — not by an index panic from publishing Capacity or, for a queue
// without Cap, from adding Tries on a retrieval goroutine.
func TestBusSizedForDeployment(t *testing.T) {
	for _, tc := range []struct {
		name string
		bus  *telemetry.Bus
		ok   bool
	}{
		{"equal", telemetry.NewBus(2, 4), true},
		{"larger", telemetry.NewBus(5, 4), true},
		{"smaller", telemetry.NewBus(1, 4), false},
		{"nil bus", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if tc.ok && msg != "<nil>" {
					t.Fatalf("refused: %s", msg)
				}
				if !tc.ok && (!strings.Contains(msg, "1 queue slots") || !strings.Contains(msg, "2 queues")) {
					t.Fatalf("panic %q does not name both counts", msg)
				}
			}()
			bench := newBench(t, 2)
			procs := []apps.BurstProcessor{&countProc{}, &countProc{}}
			r := NewProc(bench.queues, procs, nil, Config{M: 2, Bus: tc.bus})
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); r.Run(ctx) }()
			sent := bench.produce(ctx, 64)
			for deadline := time.Now().Add(5 * time.Second); r.Stats.Packets.Load() < uint64(sent) && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			cancel()
			<-done
			if got := r.Stats.Packets.Load(); got != uint64(sent) {
				t.Fatalf("accepted deployment retrieved %d of %d", got, sent)
			}
		})
	}
}

// TestHandlerRunnerIsNewProc covers New's adapter over NewProc: every burst
// reaches the handler exactly once and in per-queue order, and the handler —
// not the runner — owns the buffers.
func TestHandlerRunnerIsNewProc(t *testing.T) {
	const nq, perQueue = 2, 1500
	bench := newBench(t, nq)
	var (
		next     [nq]atomic.Uint32 // next sequence number expected per queue
		disorder atomic.Int32
		got      atomic.Int32
		mu       sync.Mutex
		held     []*mbuf.Mbuf
	)
	handler := func(batch []*mbuf.Mbuf) {
		for _, m := range batch {
			b := m.Bytes()
			q, seq := int(b[0]), uint32(b[1])|uint32(b[2])<<8
			if next[q].Add(1)-1 != seq {
				disorder.Add(1)
			}
		}
		got.Add(int32(len(batch)))
		mu.Lock()
		held = append(held, batch...) // kept, not freed: the batch slice itself is the runner's
		mu.Unlock()
	}
	r := New(bench.queues, handler, Config{M: 3, VBar: 100 * time.Microsecond, Seed: 9})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()
	for seq := 0; seq < perQueue; seq++ {
		for q := 0; q < nq; q++ {
			m, err := bench.pool.Get()
			if err != nil {
				t.Fatal(err) // 4096 buffers, 3000 leased: the pool cannot run dry
			}
			m.SetFrame([]byte{byte(q), byte(seq), byte(seq >> 8)})
			for !bench.rings[q].Enqueue(m) {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); got.Load() < nq*perQueue && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if got.Load() != nq*perQueue || disorder.Load() != 0 {
		t.Fatalf("handler saw %d of %d packets, %d out of per-queue order", got.Load(), nq*perQueue, disorder.Load())
	}
	if want := bench.pool.Size() - nq*perQueue; bench.pool.Available() != want {
		t.Fatalf("pool has %d free with the handler holding every buffer, want %d: the runner freed what the handler owns",
			bench.pool.Available(), want)
	}
	mbuf.FreeBurst(held)
	if bench.pool.Available() != bench.pool.Size() {
		t.Fatalf("pool leak after the handler's Free: %d/%d", bench.pool.Available(), bench.pool.Size())
	}
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if msg := recover(); msg != "runtime: nil handler" {
			t.Fatalf("panic %v, want \"runtime: nil handler\"", msg)
		}
	}()
	New(newBench(t, 1).queues, nil, Config{})
}

// TestHandlerPathAllocatesNothingPerBurst: the adapter is a no-op processor
// and a closure built once in New, so the Handler path keeps the processor
// path's zero allocations per burst.
func TestHandlerPathAllocatesNothingPerBurst(t *testing.T) {
	bench := newBench(t, 1)
	var seen atomic.Int64
	r := New(bench.queues, func(batch []*mbuf.Mbuf) {
		seen.Add(int64(len(batch)))
		mbuf.FreeBurst(batch)
	}, Config{M: 1, VBar: 50 * time.Microsecond, Seed: 4})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()
	frame := []byte{0, 0}
	var sent int64
	round := func() {
		for i := 0; i < 4*32; i++ {
			m, err := bench.pool.Get()
			if err != nil {
				panic("a full pool refused one of 128 buffers")
			}
			m.SetFrame(frame)
			if !bench.rings[0].Enqueue(m) {
				panic("a drained 1024-slot ring refused one of 128 packets")
			}
			sent++
		}
		for seen.Load() < sent {
			goruntime.Gosched()
		}
	}
	round() // warm-up: goroutine stacks, the sleeper's timer
	allocs := testing.AllocsPerRun(20, round)
	cancel()
	<-done
	if allocs != 0 {
		t.Fatalf("handler path allocates %.1f per four bursts, want 0", allocs)
	}
}

func TestBusPublishesOccAvgLive(t *testing.T) {
	bench := newBench(t, 1)
	bus := telemetry.NewBus(1, 4)
	handler := func(batch []*mbuf.Mbuf) {
		time.Sleep(100 * time.Microsecond) // slow consumer: occupancy builds
		for _, m := range batch {
			m.Free()
		}
	}
	r := New(bench.queues, handler, Config{M: 3, VBar: 100 * time.Microsecond, Seed: 11, Bus: bus})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()

	deadline := time.Now().Add(3 * time.Second)
	seen := false
	for time.Now().Before(deadline) {
		bench.produce(ctx, 512)
		if bus.Get(telemetry.OccAvg, 0) > 0 {
			seen = true
			break
		}
	}
	cancel()
	wg.Wait()
	if !seen {
		t.Fatal("live runner never published a time-averaged occupancy")
	}
}

// TestLiveBusLatencyHistogram is the live half of the fidelity-plane
// equivalence contract: the drain loop measures per-packet latency from
// RxStampNs and publishes it into the same bus bucket layout the sim uses.
// Stamps are scripted one second in the past — three orders of magnitude
// above drain jitter, far inside one ~31ms-wide bucket — so the recorded
// quantiles are pinned; unstamped packets must be excluded, not recorded
// as epoch-sized garbage.
func TestLiveBusLatencyHistogram(t *testing.T) {
	bench := newBench(t, 1)
	bus := telemetry.NewBus(1, 4)
	handler := func(batch []*mbuf.Mbuf) {
		for _, m := range batch {
			m.Free()
		}
	}
	r := New(bench.queues, handler, Config{M: 2, VBar: 200 * time.Microsecond, Seed: 3, Bus: bus})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run(ctx) }()

	const stamped, unstamped = 400, 100
	sent := 0
	for sent < stamped+unstamped {
		m, err := bench.pool.Get()
		if err != nil {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		m.SetFrame([]byte{byte(sent)})
		if sent < stamped {
			m.RxStampNs = mbuf.Nanotime() - int64(time.Second)
		}
		if !bench.rings[0].Enqueue(m) {
			m.Free()
			time.Sleep(50 * time.Microsecond)
			continue
		}
		sent++
	}
	var h stats.LogHistogram
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h.Reset()
		bus.SampleLatency(0, &h)
		if h.N() >= stamped && bus.Load(telemetry.Rx, 0) >= stamped+unstamped {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if h.N() != stamped {
		t.Fatalf("histogram holds %d latencies, want %d (unstamped must not count)", h.N(), stamped)
	}
	p50, p999 := h.Quantile(0.5), h.Quantile(0.999)
	if p50 < 1e9 || p50 > 1.5e9 {
		t.Errorf("p50 = %d ns, want ~1s", p50)
	}
	if p999 < p50 || p999 > 3e9 {
		t.Errorf("p99.9 = %d ns, want in [p50, 3s]", p999)
	}
}

// TestBurstLatencyFoldMatchesPerPacket is the exactness property of the
// drain loop's latency recording: folding a burst (burstLatencies, then one
// Bus.RecordLatencyBurst) must leave every bucket of the bus histogram
// exactly where the per-packet loop it replaced — one Bus.RecordLatency per
// stamped packet with a positive latency — leaves it. Bursts are random in
// length (empty included) and mix packets that waited about equally long
// (long same-bucket runs, the common case), packets from another octave
// (run breaks), unstamped packets and packets stamped at or after the clock
// read (both excluded).
func TestBurstLatencyFoldMatchesPerPacket(t *testing.T) {
	const maxBurst = 64
	rng := xrand.New(11)
	pool := mbuf.NewPool(maxBurst)
	ms := make([]*mbuf.Mbuf, maxBurst)
	for i := range ms {
		m, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	folded, perPacket := telemetry.NewBus(2, 1), telemetry.NewBus(2, 1)
	lats := make([]uint64, 0, maxBurst)
	for round := 0; round < 5000; round++ {
		q := round & 1
		burst := ms[:rng.Intn(maxBurst+1)]
		now := int64(1)<<41 + int64(rng.Intn(1<<30))
		typical := int64(1) << uint(rng.Intn(36))
		for _, m := range burst {
			switch rng.Intn(10) {
			case 0:
				m.RxStampNs = 0
			case 1:
				m.RxStampNs = now + int64(rng.Intn(3)) // latency 0, -1 or -2
			case 2:
				m.RxStampNs = now - (int64(1) << uint(rng.Intn(40)))
			default:
				m.RxStampNs = now - typical - int64(rng.Intn(int(typical/16)+1))
			}
		}
		folded.RecordLatencyBurst(q, burstLatencies(lats, now, burst))
		for _, m := range burst {
			if m.RxStampNs > 0 {
				if lat := now - m.RxStampNs; lat > 0 {
					perPacket.RecordLatency(q, uint64(lat))
				}
			}
		}
	}
	for q := 0; q < 2; q++ {
		var got, want stats.LogHistogram
		folded.SampleLatency(q, &got)
		perPacket.SampleLatency(q, &want)
		if want.N() == 0 {
			t.Fatalf("queue %d: the reference recorded nothing", q)
		}
		for i := 0; i < stats.LogHistBuckets; i++ {
			if got.CountAt(i) != want.CountAt(i) {
				t.Fatalf("queue %d bucket %d: folded %d, per-packet %d", q, i, got.CountAt(i), want.CountAt(i))
			}
		}
	}
	mbuf.FreeBurst(ms)
}

// probeQueue is an RxQueue whose occupancy probe is scripted: Len reports 0
// until it has been asked emptyProbes times, then 1. PollBurst is never used.
type probeQueue struct {
	emptyProbes, probes int
}

func (q *probeQueue) PollBurst([]*mbuf.Mbuf) int { return 0 }
func (q *probeQueue) Len() int {
	q.probes++
	if q.probes > q.emptyProbes {
		return 1
	}
	return 0
}

// opaqueQueue hides a queue's Len, the way a source without an occupancy
// probe looks to the runner.
type opaqueQueue struct{ RxQueue }

// TestLingerRules pins the saturated-queue exception's three rules on the
// function itself: only a full stretch of lingerStretch*VBar earns a linger,
// a linger ends the moment the probe sees packets and starts a new stretch,
// and one that sees nothing gives up after VBar with the stretch unchanged.
func TestLingerRules(t *testing.T) {
	nop := func([]*mbuf.Mbuf) {}
	full := func(r *Runner) int64 { return r.nanotime() - lingerStretch*int64(r.cfg.VBar) }

	q := &probeQueue{emptyProbes: 4}
	r := New([]RxQueue{q}, nop, Config{M: 1, VBar: 20 * time.Millisecond})
	r.start = time.Now().Add(-time.Hour) // threadLoop's clock, normally set by Run

	// A stretch one microsecond short of full: no linger, the probe is not
	// even consulted.
	short := full(r) + int64(time.Millisecond)
	if next, ok := r.linger(0, short); ok || next != short || q.probes != 0 {
		t.Fatalf("short stretch: linger = (%d, %v) after %d probes, want (%d, false) after 0", next, ok, q.probes, short)
	}
	// A full stretch: the holder watches the probe until packets show up
	// (the fifth look) and a new stretch starts there.
	was := full(r)
	next, ok := r.linger(0, was)
	if !ok || q.probes != 5 {
		t.Fatalf("full stretch: linger ok = %v after %d probes, want true after 5", ok, q.probes)
	}
	if now := r.nanotime(); next <= was || next > now {
		t.Fatalf("new stretch starts at %d, want in (%d, %d]", next, was, now)
	}
	// The stretch that just started has earned nothing yet.
	if _, ok := r.linger(0, next); ok || q.probes != 5 {
		t.Fatalf("fresh stretch lingered (ok = %v, %d probes)", ok, q.probes)
	}

	// Nothing arrives: give up after VBar, stretch untouched.
	q = &probeQueue{emptyProbes: 1 << 62}
	r = New([]RxQueue{q}, nop, Config{M: 1, VBar: 2 * time.Millisecond})
	r.start = time.Now().Add(-time.Hour)
	was = full(r)
	t0 := time.Now()
	if next, ok := r.linger(0, was); ok || next != was {
		t.Fatalf("empty linger = (%d, %v), want (%d, false)", next, ok, was)
	}
	if waited := time.Since(t0); waited < r.cfg.VBar || q.probes == 0 {
		t.Fatalf("gave up after %v and %d probes, want at least VBar = %v", waited, q.probes, r.cfg.VBar)
	}

	// A queue without a probe never lingers.
	r = New([]RxQueue{opaqueQueue{q}}, nop, Config{M: 1, VBar: 2 * time.Millisecond})
	r.start = time.Now().Add(-time.Hour)
	was = full(r)
	if next, ok := r.linger(0, was); ok || next != was {
		t.Fatalf("probeless linger = (%d, %v), want (%d, false)", next, ok, was)
	}
}

// hiccupQueue scripts a saturated queue whose producer stalls once: full
// bursts for 12 vacation targets on end, one empty poll, then more bursts,
// then empty for good. Len says whether the next poll will find packets, so
// during the hiccup the first look already sees the producer back. Used by
// one retrieval goroutine, so the fields need no lock.
type hiccupQueue struct {
	vbar         time.Duration
	m            *mbuf.Mbuf
	first        time.Time
	hiccuped     bool
	afterHiccup  int // bursts still to hand out after the hiccup
	polls, empty int
}

func (q *hiccupQueue) PollBurst(out []*mbuf.Mbuf) int {
	q.polls++
	switch {
	case q.first.IsZero():
		q.first = time.Now()
	case !q.hiccuped && time.Since(q.first) >= 12*q.vbar:
		q.hiccuped = true
		q.empty++
		return 0
	case q.hiccuped && q.afterHiccup == 0:
		q.empty++
		return 0
	case q.hiccuped:
		q.afterHiccup--
	}
	for i := range out {
		out[i] = q.m
	}
	return len(out)
}

func (q *hiccupQueue) Len() int {
	if !q.hiccuped || q.afterHiccup > 0 {
		return 1
	}
	return 0
}

// TestLingerRidesOutProducerHiccup runs the drain loop over a saturated
// queue whose producer stalls for a moment. With an occupancy probe the lock
// holder lingers, sees the producer back and serves the rest in the same
// cycle; the same script behind a queue without a probe ends the cycle at the
// empty poll, as Listing 2 says, and the rest waits out a sleep.
func TestLingerRidesOutProducerHiccup(t *testing.T) {
	run := func(hide bool) (cyclesSeen map[uint64]int, q *hiccupQueue) {
		q = &hiccupQueue{vbar: 100 * time.Microsecond, m: &mbuf.Mbuf{}, afterHiccup: 8}
		var rq RxQueue = q
		if hide {
			rq = opaqueQueue{q}
		}
		cyclesSeen = map[uint64]int{}
		var r *Runner
		done := make(chan struct{})
		var once sync.Once
		r = New([]RxQueue{rq}, func(batch []*mbuf.Mbuf) {
			cyclesSeen[r.Stats.Cycles.Load()]++
			if q.hiccuped && q.afterHiccup == 0 {
				once.Do(func() { close(done) })
			}
		}, Config{M: 1, VBar: q.vbar, Policy: "adaptive"})
		ctx, cancel := context.WithCancel(context.Background())
		finished := make(chan struct{})
		go func() { defer close(finished); r.Run(ctx) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("script did not finish")
		}
		cancel()
		<-finished
		return cyclesSeen, q
	}

	seen, q := run(false)
	if len(seen) != 1 {
		t.Errorf("with a probe the bursts fell into %d cycles (%v), want 1: the hiccup must not end the cycle", len(seen), seen)
	}
	if q.empty < 2 {
		t.Errorf("saw %d empty polls, want the hiccup's and the final one", q.empty)
	}
	seen, _ = run(true)
	if len(seen) != 2 {
		t.Errorf("without a probe the bursts fell into %d cycles (%v), want 2: Listing 2 releases on the empty poll", len(seen), seen)
	}
}
