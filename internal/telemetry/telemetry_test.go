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
	b.Set(Occupancy, 0, 17.5)
	b.Set(Capacity, 0, 4096)
	b.Set(Rho, 1, 0.42)
	b.Store(Drops, 0, 100)
	b.Add(Drops, 0, 5)
	b.Add(Rx, 1, 7)
	b.Store(Tries, 1, 9)
	b.Add(BusyTries, 1, 2)
	b.SetThread(BusySeconds, 2, 1.5)
	if got := b.Get(Occupancy, 0); got != 17.5 {
		t.Errorf("occupancy = %v", got)
	}
	if got := b.Get(Capacity, 0); got != 4096 {
		t.Errorf("capacity = %v", got)
	}
	if got := b.Get(Rho, 1); got != 0.42 {
		t.Errorf("rho = %v", got)
	}
	if got := b.Load(Drops, 0); got != 105 {
		t.Errorf("drops = %v", got)
	}
	if got := b.Load(Rx, 1); got != 7 {
		t.Errorf("rx = %v", got)
	}
	if got := b.Load(Tries, 1); got != 9 {
		t.Errorf("tries = %v", got)
	}
	if got := b.Load(BusyTries, 1); got != 2 {
		t.Errorf("busy tries = %v", got)
	}
	if got, alias := b.Thread(BusySeconds, 2), b.ThreadBusy(2); got != 1.5 || alias != got {
		t.Errorf("thread busy = %v (ThreadBusy %v)", got, alias)
	}
}

// Every row of the table is filled in, and no two rows share a name: the
// exposition, expvar and metrotop key on it.
func TestSeriesTable(t *testing.T) {
	rows := append(append(append([]Series{}, Gauges[:]...), Counters[:]...), ThreadGauges[:]...)
	rows = append(rows, Latency)
	seen := map[string]bool{}
	for _, s := range rows {
		if s.Name == "" || s.Help == "" || (s.Type != "gauge" && s.Type != "counter" && s.Type != "histogram") {
			t.Errorf("incomplete row %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate series name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestOccSlopeGauge(t *testing.T) {
	b := NewBus(2, 4)
	b.Set(OccSlope, 0, 12.5)
	b.Set(OccSlope, 1, -3.25)
	if b.Get(OccSlope, 0) != 12.5 || b.Get(OccSlope, 1) != -3.25 {
		t.Fatalf("slope gauges: %v %v", b.Get(OccSlope, 0), b.Get(OccSlope, 1))
	}
	var s Snapshot
	b.Sample(&s)
	if s.Gauge[OccSlope][0] != 12.5 || s.Gauge[OccSlope][1] != -3.25 {
		t.Fatalf("snapshot slopes: %v", s.Gauge[OccSlope])
	}
}

func TestThreadSlotsBeyondBudgetAreDropped(t *testing.T) {
	b := NewBus(1, 2)
	b.SetThread(BusySeconds, 5, 3.0) // must not panic
	if got := b.Thread(BusySeconds, 5); got != 0 {
		t.Errorf("out-of-budget slot = %v, want 0", got)
	}
}

// Sample fills every slot of every family, each from its own id.
func TestSampleFillsSnapshot(t *testing.T) {
	b := NewBus(2, 3)
	for g := range Gauges {
		for q := 0; q < 2; q++ {
			b.Set(Gauge(g), q, float64(10*g+q)+0.5)
		}
	}
	for c := range Counters {
		for q := 0; q < 2; q++ {
			b.Store(Counter(c), q, uint64(100*c+q))
		}
	}
	for g := range ThreadGauges {
		for th := 0; th < 3; th++ {
			b.SetThread(ThreadGauge(g), th, float64(1000*g+th))
		}
	}
	var s Snapshot
	b.Sample(&s)
	for g, vals := range s.Gauge {
		if len(vals) != 2 || vals[0] != float64(10*g)+0.5 || vals[1] != float64(10*g+1)+0.5 {
			t.Errorf("gauge %s: %v", Gauges[g].Name, vals)
		}
	}
	for c, vals := range s.Counter {
		if len(vals) != 2 || vals[0] != uint64(100*c) || vals[1] != uint64(100*c+1) {
			t.Errorf("counter %s: %v", Counters[c].Name, vals)
		}
	}
	for g, vals := range s.Thread {
		if len(vals) != 3 || vals[2] != float64(1000*g+2) {
			t.Errorf("thread gauge %s: %v", ThreadGauges[g].Name, vals)
		}
	}
}

func TestHeartbeatGauge(t *testing.T) {
	b := NewBus(1, 2)
	if b.Thread(Heartbeat, 0) != 0 {
		t.Fatal("fresh heartbeat not zero")
	}
	b.SetThread(Heartbeat, 0, 1.25)
	b.SetThread(Heartbeat, 1, 2.5)
	b.SetThread(Heartbeat, 9, 99) // beyond budget: dropped, not faulted
	if b.Thread(Heartbeat, 0) != 1.25 || b.Thread(Heartbeat, 1) != 2.5 || b.Thread(Heartbeat, 9) != 0 {
		t.Fatalf("heartbeats: %v %v %v", b.Thread(Heartbeat, 0), b.Thread(Heartbeat, 1), b.Thread(Heartbeat, 9))
	}
	var s Snapshot
	b.Sample(&s)
	if hb := s.Thread[Heartbeat]; len(hb) != 2 || hb[1] != 2.5 {
		t.Fatalf("snapshot heartbeat: %v", hb)
	}
}

func TestPubSeqCounter(t *testing.T) {
	b := NewBus(2, 1)
	if b.Load(PubSeq, 0) != 0 {
		t.Fatal("fresh pub seq not zero")
	}
	b.Add(PubSeq, 0, 1)
	b.Add(PubSeq, 0, 1)
	b.Add(PubSeq, 1, 1)
	if b.Load(PubSeq, 0) != 2 || b.Load(PubSeq, 1) != 1 {
		t.Fatalf("pub seqs: %d %d", b.Load(PubSeq, 0), b.Load(PubSeq, 1))
	}
	var s Snapshot
	b.Sample(&s)
	if seq := s.Counter[PubSeq]; seq[0] != 2 || seq[1] != 1 {
		t.Fatalf("snapshot pub seqs: %v", seq)
	}
}

// The elastic controller samples the bus every control period; the hot path
// contract is zero allocations for both publish and (warm) sample.
func TestPublishAndSampleAllocationFree(t *testing.T) {
	b := NewBus(4, 8)
	var s Snapshot
	b.Sample(&s) // warm the snapshot buffers
	allocs := testing.AllocsPerRun(100, func() {
		b.Set(Occupancy, 2, 99)
		b.Add(Drops, 2, 1)
		b.Set(Rho, 2, 0.5)
		b.SetThread(BusySeconds, 3, 1)
		b.SetThread(Heartbeat, 3, 1)
		b.Add(PubSeq, 2, 1)
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
				b.Set(Occupancy, w, float64(i))
				b.Add(Tries, w, 1)
				b.Add(BusyTries, w, 1)
				b.SetThread(BusySeconds, w, float64(i))
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
		if b.Load(Tries, w) != 2000 {
			t.Errorf("queue %d tries = %d, want 2000", w, b.Load(Tries, w))
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
	b.Set(OccAvg, 0, 17.5)
	b.Set(ArrivalRate, 1, 2.5e6)
	if got := b.Get(OccAvg, 0); got != 17.5 {
		t.Errorf("OccAvg = %v", got)
	}
	if got := b.Get(OccAvg, 1); got != 0 {
		t.Errorf("OccAvg(1) = %v, want 0", got)
	}
	if got := b.Get(ArrivalRate, 1); got != 2.5e6 {
		t.Errorf("ArrivalRate = %v", got)
	}
	var s Snapshot
	b.Sample(&s)
	if s.Gauge[OccAvg][0] != 17.5 || s.Gauge[ArrivalRate][1] != 2.5e6 {
		t.Errorf("snapshot missed the new gauges: %v %v", s.Gauge[OccAvg], s.Gauge[ArrivalRate])
	}
}
