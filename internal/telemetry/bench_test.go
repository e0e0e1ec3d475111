package telemetry

import (
	"testing"

	"metronome/internal/stats"
)

// BenchmarkTelemetrySample is the CI alloc gate for the telemetry plane
// (BENCH_telemetry.json): one publish of every per-queue signal plus a full
// controller-style Sample must not allocate — the bus sits on the retrieval
// hot path of both substrates.
func BenchmarkTelemetrySample(b *testing.B) {
	bus := NewBus(4, 16)
	var s Snapshot
	bus.Sample(&s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i & 3
		bus.Set(Occupancy, q, float64(i))
		bus.Set(OccSlope, q, float64(i)*1e-3)
		bus.Set(Rho, q, 0.5)
		bus.Store(Drops, q, uint64(i))
		bus.Store(Rx, q, uint64(i))
		bus.Store(Tries, q, uint64(i))
		bus.Store(BusyTries, q, uint64(i))
		bus.Add(PubSeq, q, 1)
		bus.SetThread(BusySeconds, i&15, float64(i))
		bus.SetThread(Heartbeat, i&15, float64(i))
		bus.Sample(&s)
	}
}

// BenchmarkTelemetryHistRecord is the CI alloc gate for the per-packet
// latency publish path: one RecordLatency must be a bucket computation
// plus one atomic add, zero allocations (BENCH_telemetry.json).
func BenchmarkTelemetryHistRecord(b *testing.B) {
	bus := NewBus(4, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.RecordLatency(i&3, uint64(i)*97)
	}
}

// BenchmarkTelemetryHistSample is the CI alloc gate for the observer side
// of the latency histograms: folding every queue's bucket block into one
// caller-owned histogram must not allocate (BENCH_telemetry.json).
func BenchmarkTelemetryHistSample(b *testing.B) {
	bus := NewBus(4, 16)
	for i := 0; i < 1<<16; i++ {
		bus.RecordLatency(i&3, uint64(i)*131)
	}
	var h stats.LogHistogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for q := 0; q < 4; q++ {
			bus.SampleLatency(q, &h)
		}
	}
}

// BenchmarkTelemetryHistRecordBurst is the CI alloc gate for the drain
// loop's latency publish path: one 32-packet burst whose packets waited
// about equally long — two buckets, as a ring drained at line rate gives —
// folds into two atomic adds, zero allocations (BENCH_telemetry.json).
// Compare 32x BenchmarkTelemetryHistRecord.
func BenchmarkTelemetryHistRecordBurst(b *testing.B) {
	bus := NewBus(4, 16)
	ns := make([]uint64, 32)
	for i := range ns {
		ns[i] = 300_000 + uint64(i)*200 // 8192 ns sub-buckets here: the burst straddles one edge
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.RecordLatencyBurst(i&3, ns)
	}
}
