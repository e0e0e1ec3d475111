package telemetry

import (
	"sync"
	"testing"

	"metronome/internal/stats"
)

func TestGaugesAndCounters(t *testing.T) {
	b := NewBus(2, 3)
	if b.Queues() != 2 || b.Threads() != 3 {
		t.Fatalf("shape = %d queues / %d threads", b.Queues(), b.Threads())
	}
	b.SetOccupancy(0, 17.5)
	b.SetCapacity(0, 4096)
	b.SetRho(1, 0.42)
	b.SetDrops(0, 100)
	b.AddDrops(0, 5)
	b.AddRx(1, 7)
	b.SetTries(1, 9)
	b.AddBusyTries(1, 2)
	b.SetThreadBusy(2, 1.5)
	if got := b.Occupancy(0); got != 17.5 {
		t.Errorf("occupancy = %v", got)
	}
	if got := b.Capacity(0); got != 4096 {
		t.Errorf("capacity = %v", got)
	}
	if got := b.Rho(1); got != 0.42 {
		t.Errorf("rho = %v", got)
	}
	if got := b.Drops(0); got != 105 {
		t.Errorf("drops = %v", got)
	}
	if got := b.Rx(1); got != 7 {
		t.Errorf("rx = %v", got)
	}
	if got := b.Tries(1); got != 9 {
		t.Errorf("tries = %v", got)
	}
	if got := b.BusyTries(1); got != 2 {
		t.Errorf("busy tries = %v", got)
	}
	if got := b.ThreadBusy(2); got != 1.5 {
		t.Errorf("thread busy = %v", got)
	}
}

func TestOccSlopeGauge(t *testing.T) {
	b := NewBus(2, 4)
	b.SetOccSlope(0, 12.5)
	b.SetOccSlope(1, -3.25)
	if b.OccSlope(0) != 12.5 || b.OccSlope(1) != -3.25 {
		t.Fatalf("slope gauges: %v %v", b.OccSlope(0), b.OccSlope(1))
	}
	var s Snapshot
	b.Sample(&s)
	if s.OccSlope[0] != 12.5 || s.OccSlope[1] != -3.25 {
		t.Fatalf("snapshot slopes: %v", s.OccSlope)
	}
}

func TestThreadSlotsBeyondBudgetAreDropped(t *testing.T) {
	b := NewBus(1, 2)
	b.SetThreadBusy(5, 3.0) // must not panic
	if got := b.ThreadBusy(5); got != 0 {
		t.Errorf("out-of-budget slot = %v, want 0", got)
	}
}

func TestSampleFillsSnapshot(t *testing.T) {
	b := NewBus(2, 2)
	b.SetOccupancy(1, 3)
	b.SetRho(0, 0.9)
	b.AddDrops(1, 11)
	b.SetThreadBusy(0, 0.25)
	var s Snapshot
	b.Sample(&s)
	if len(s.Occ) != 2 || len(s.ThreadBusy) != 2 {
		t.Fatalf("snapshot shape: %d occ, %d busy", len(s.Occ), len(s.ThreadBusy))
	}
	if s.Occ[1] != 3 || s.Rho[0] != 0.9 || s.Drops[1] != 11 || s.ThreadBusy[0] != 0.25 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestHeartbeatGauge(t *testing.T) {
	b := NewBus(1, 2)
	if b.Heartbeat(0) != 0 {
		t.Fatal("fresh heartbeat not zero")
	}
	b.SetHeartbeat(0, 1.25)
	b.SetHeartbeat(1, 2.5)
	b.SetHeartbeat(9, 99) // beyond budget: dropped, not faulted
	if b.Heartbeat(0) != 1.25 || b.Heartbeat(1) != 2.5 || b.Heartbeat(9) != 0 {
		t.Fatalf("heartbeats: %v %v %v", b.Heartbeat(0), b.Heartbeat(1), b.Heartbeat(9))
	}
	var s Snapshot
	b.Sample(&s)
	if len(s.Heartbeat) != 2 || s.Heartbeat[1] != 2.5 {
		t.Fatalf("snapshot heartbeat: %v", s.Heartbeat)
	}
}

func TestPubSeqCounter(t *testing.T) {
	b := NewBus(2, 1)
	if b.PubSeq(0) != 0 {
		t.Fatal("fresh pub seq not zero")
	}
	b.BumpPub(0)
	b.BumpPub(0)
	b.BumpPub(1)
	if b.PubSeq(0) != 2 || b.PubSeq(1) != 1 {
		t.Fatalf("pub seqs: %d %d", b.PubSeq(0), b.PubSeq(1))
	}
	var s Snapshot
	b.Sample(&s)
	if s.PubSeq[0] != 2 || s.PubSeq[1] != 1 {
		t.Fatalf("snapshot pub seqs: %v", s.PubSeq)
	}
}

// The elastic controller samples the bus every control period; the hot path
// contract is zero allocations for both publish and (warm) sample.
func TestPublishAndSampleAllocationFree(t *testing.T) {
	b := NewBus(4, 8)
	var s Snapshot
	b.Sample(&s) // warm the snapshot buffers
	allocs := testing.AllocsPerRun(100, func() {
		b.SetOccupancy(2, 99)
		b.AddDrops(2, 1)
		b.SetRho(2, 0.5)
		b.SetThreadBusy(3, 1)
		b.SetHeartbeat(3, 1)
		b.BumpPub(2)
		b.Sample(&s)
	})
	if allocs != 0 {
		t.Fatalf("publish+sample allocates %v per run, want 0", allocs)
	}
}

// Concurrent publishers and a sampler: the race detector is the assertion.
func TestConcurrentPublishSample(t *testing.T) {
	b := NewBus(4, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b.SetOccupancy(w, float64(i))
				b.AddTries(w, 1)
				b.AddBusyTries(w, 1)
				b.SetThreadBusy(w, float64(i))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var s Snapshot
		for i := 0; i < 2000; i++ {
			b.Sample(&s)
		}
	}()
	wg.Wait()
	for w := 0; w < 4; w++ {
		if b.Tries(w) != 2000 {
			t.Errorf("queue %d tries = %d, want 2000", w, b.Tries(w))
		}
	}
}

// TestLatencyHistogram checks the publish/fold round trip: values
// recorded on the bus land in the same buckets a LogHistogram would put
// them in, folds accumulate across queues, and the caller's Reset
// windows the cumulative counters.
func TestLatencyHistogram(t *testing.T) {
	b := NewBus(2, 1)
	var want stats.LogHistogram
	for i := uint64(0); i < 1000; i++ {
		ns := i * i * 131
		b.RecordLatency(int(i&1), ns)
		want.Record(ns)
	}
	var got stats.LogHistogram
	b.SampleLatency(0, &got)
	b.SampleLatency(1, &got)
	if got.N() != want.N() {
		t.Fatalf("folded N=%d, want %d", got.N(), want.N())
	}
	for i := 0; i < stats.LogHistBuckets; i++ {
		if got.CountAt(i) != want.CountAt(i) {
			t.Fatalf("bucket %d: bus=%d direct=%d", i, got.CountAt(i), want.CountAt(i))
		}
	}
	got.Reset()
	b.SampleLatency(0, &got)
	if got.N() == 0 || got.N() == want.N() {
		t.Fatalf("per-queue fold N=%d, want strictly between 0 and %d", got.N(), want.N())
	}
}

// TestRecordLatencyBurstMatchesPerSample checks the burst fold on its edge
// cases: an empty burst, one sample, one long run, and a sequence that
// changes bucket at every step all leave the counters where the same
// samples recorded one by one leave them.
func TestRecordLatencyBurstMatchesPerSample(t *testing.T) {
	run := make([]uint64, 32)
	for i := range run {
		run[i] = 300_000 + uint64(i) // one bucket: sub-buckets are ~3% wide
	}
	alternating := make([]uint64, 33)
	for i := range alternating {
		alternating[i] = 100 << uint(i%2*4)
	}
	bursts := [][]uint64{nil, {}, {0}, {77}, run, alternating, append(append([]uint64{5}, run...), 1<<40)}
	burst, single := NewBus(1, 1), NewBus(1, 1)
	for _, ns := range bursts {
		burst.RecordLatencyBurst(0, ns)
		for _, v := range ns {
			single.RecordLatency(0, v)
		}
	}
	var got, want stats.LogHistogram
	burst.SampleLatency(0, &got)
	single.SampleLatency(0, &want)
	for i := 0; i < stats.LogHistBuckets; i++ {
		if got.CountAt(i) != want.CountAt(i) {
			t.Fatalf("bucket %d: burst=%d per-sample=%d", i, got.CountAt(i), want.CountAt(i))
		}
	}
	if want.N() != 1+1+32+33+34 {
		t.Fatalf("reference recorded %d samples", want.N())
	}
}

// TestLatencyHistogramAllocationFree pins the fidelity plane's hot-path
// contract: publishing a latency and folding a queue's block into a
// warm caller-owned histogram both allocate nothing.
func TestLatencyHistogramAllocationFree(t *testing.T) {
	b := NewBus(2, 1)
	var h stats.LogHistogram
	allocs := testing.AllocsPerRun(100, func() {
		b.RecordLatency(0, 4242)
		b.RecordLatency(1, 1<<20)
		h.Reset()
		b.SampleLatency(0, &h)
		b.SampleLatency(1, &h)
	})
	if allocs != 0 {
		t.Fatalf("record+sample allocates %v per run, want 0", allocs)
	}
}

func TestOccAvgAndArrivalRateGauges(t *testing.T) {
	b := NewBus(2, 1)
	b.SetOccAvg(0, 17.5)
	b.SetArrivalRate(1, 2.5e6)
	if got := b.OccAvg(0); got != 17.5 {
		t.Errorf("OccAvg = %v", got)
	}
	if got := b.OccAvg(1); got != 0 {
		t.Errorf("OccAvg(1) = %v, want 0", got)
	}
	if got := b.ArrivalRate(1); got != 2.5e6 {
		t.Errorf("ArrivalRate = %v", got)
	}
	var s Snapshot
	b.Sample(&s)
	if s.OccAvg[0] != 17.5 || s.Rate[1] != 2.5e6 {
		t.Errorf("snapshot missed the new gauges: %v %v", s.OccAvg, s.Rate)
	}
}
