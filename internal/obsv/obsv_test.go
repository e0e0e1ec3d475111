package obsv

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"metronome/internal/stats"
	"metronome/internal/telemetry"
)

// The ring keeps the newest capacity events in order, reports overwrites
// through Dropped, and survives capacity rounding.
func TestRecorderOrderAndWrap(t *testing.T) {
	r := NewRecorder(7) // rounds up to 8
	if r.Cap() != 8 {
		t.Fatalf("Cap() = %d, want 8", r.Cap())
	}
	for i := 0; i < 11; i++ {
		r.RecordExile(float64(i)*1e-3, i)
	}
	if r.Total() != 11 {
		t.Fatalf("Total() = %d, want 11", r.Total())
	}
	if r.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", r.Dropped())
	}
	evs := r.Events(nil)
	if len(evs) != 8 {
		t.Fatalf("Events holds %d, want 8", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(4 + i) // events 1..3 were lapped
		if e.Seq != wantSeq {
			t.Errorf("event %d: seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Kind != EvExile || e.Target() != int(wantSeq)-1 {
			t.Errorf("event %d: kind=%v target=%d, want exile of thread %d",
				i, e.Kind, e.Target(), wantSeq-1)
		}
	}
}

// Every Record helper round-trips through the slot encoding: the decode
// helpers recover exactly what was recorded.
func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(64)
	r.RecordDecision(0.125, 6, 4, 0x010203, 0.375, -1.5, 17.25, true, false, true)
	r.RecordPlacement(0.25, 5, 0x0302)
	r.RecordSafeMode(0.3, true, 7)
	r.RecordSafeMode(0.35, false, 3)
	r.RecordDarkLoss(0.4, 2, 1234)
	r.RecordFault(0.45, 3, 1)
	r.RecordRateLimit(0.5)
	r.RecordRecover(0.55, 9)
	r.RecordPanic(0.6, "boom", "stack\nframe")

	evs := r.Events(nil)
	if len(evs) != 9 {
		t.Fatalf("Events holds %d, want 9", len(evs))
	}
	d := evs[0]
	if d.Kind != EvDecision || d.At != 0.125 || d.Want() != 6 || d.Applied() != 4 ||
		d.Plan() != 0x010203 || d.F1 != 0.375 || d.F2 != -1.5 || d.F3 != 17.25 {
		t.Errorf("decision decoded as %+v", d)
	}
	if d.Flags != FlagResized|FlagSafeMode {
		t.Errorf("decision flags = %b, want resized|safe", d.Flags)
	}
	if p := evs[1]; p.Kind != EvPlacement || p.Applied() != 5 || p.Plan() != 0x0302 {
		t.Errorf("placement decoded as %+v", p)
	}
	if e := evs[2]; e.Kind != EvSafeEnter || e.Applied() != 7 {
		t.Errorf("safe-enter decoded as %+v", e)
	}
	if e := evs[3]; e.Kind != EvSafeExit || e.Applied() != 3 {
		t.Errorf("safe-exit decoded as %+v", e)
	}
	if e := evs[4]; e.Kind != EvDarkLoss || e.Target() != 2 || e.B != 1234 {
		t.Errorf("dark-loss decoded as %+v", e)
	}
	if e := evs[5]; e.Kind != EvFault || e.Target() != 1 || e.B != 3 {
		t.Errorf("fault decoded as %+v", e)
	}
	if e := evs[6]; e.Kind != EvRateLimit {
		t.Errorf("rate-limit decoded as %+v", e)
	}
	if e := evs[7]; e.Kind != EvRecover || e.Target() != 9 {
		t.Errorf("recover decoded as %+v", e)
	}
	if e := evs[8]; e.Kind != EvPanic || e.A != 0 {
		t.Errorf("panic decoded as %+v", e)
	}
	log := r.PanicLog()
	if len(log) != 1 || log[0].Msg != "boom" || log[0].Stack != "stack\nframe" {
		t.Errorf("panic log = %+v", log)
	}
	counts := r.CountByKind()
	if counts[EvDecision] != 1 || counts[EvSafeEnter] != 1 || counts[EvPanic] != 1 {
		t.Errorf("CountByKind = %v", counts)
	}
}

// Nil recorders are free no-ops at every entry point — the wiring contract
// the control planes rely on.
func TestRecorderNil(t *testing.T) {
	var r *Recorder
	r.RecordDecision(0, 1, 1, 0, 0, 0, 0, false, false, false)
	r.RecordRateLimit(0)
	r.RecordPanic(0, "x", "y")
	if r.Cap() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder reports non-zero state")
	}
	if evs := r.Events(nil); len(evs) != 0 {
		t.Errorf("nil recorder returned %d events", len(evs))
	}
	if log := r.PanicLog(); log != nil {
		t.Errorf("nil recorder returned panic log %v", log)
	}
	r.Reset()
}

// Racing writers and a racing reader: the race detector checks the slot
// protocol, and every event the reader observes must be internally
// consistent (a writer tags each event so torn payloads are detectable).
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(256)
	const writers, each = 4, 2000
	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		var scratch []Event
		for {
			select {
			case <-stop:
				return
			default:
			}
			scratch = r.Events(scratch)
			for _, e := range scratch {
				// Writers record exile(thread=w) at t = w+0.5: a torn slot
				// would decouple the two.
				if e.Kind != EvExile || e.At != float64(e.Target())+0.5 {
					t.Errorf("torn event: %+v", e)
					return
				}
			}
		}
	}()
	var writerDone sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerDone.Add(1)
		go func(w int) {
			defer writerDone.Done()
			for i := 0; i < each; i++ {
				r.RecordExile(float64(w)+0.5, w)
			}
		}(w)
	}
	writerDone.Wait()
	close(stop)
	readerDone.Wait()
	if r.Total() != writers*each {
		t.Errorf("Total() = %d, want %d", r.Total(), writers*each)
	}
}

// Text and Chrome-trace dumps are deterministic for a quiescent recorder,
// and the trace is valid JSON with the expected event count.
func TestTraceDumpsDeterministic(t *testing.T) {
	r := NewRecorder(64)
	r.RecordDecision(0.001, 3, 3, 0x0102, 0.25, 0.0, 9.5, false, false, false)
	r.RecordPlacement(0.002, 4, 0x0202)
	r.RecordExile(0.003, 1)
	r.RecordFault(0.004, 2, 0)
	r.RecordPanic(0.005, `quoted "msg"`, "line1\nline2")

	var a, b strings.Builder
	if err := r.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("WriteText is not deterministic")
	}
	for _, want := range []string{"decision want=3 applied=3 plan=2/1", "placement total=4 plan=2/2", "exile thread=1", "panic[0] quoted"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, a.String())
		}
	}

	var ta, tb strings.Builder
	if err := r.WriteTrace(&ta); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if ta.String() != tb.String() {
		t.Error("WriteTrace is not deterministic")
	}
	if !json.Valid([]byte(ta.String())) {
		t.Fatalf("trace is not valid JSON:\n%s", ta.String())
	}
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(ta.String()), &trace); err != nil {
		t.Fatal(err)
	}
	// 5 instants + 3 counters (decision: 2, placement: 1).
	if len(trace.TraceEvents) != 8 {
		t.Errorf("trace holds %d events, want 8", len(trace.TraceEvents))
	}
}

// promBus builds a bus with deterministic gauges and a latency spread
// covering several decades on queue 0.
func promBus() *telemetry.Bus {
	bus := telemetry.NewBus(2, 4)
	for q := 0; q < 2; q++ {
		bus.Set(telemetry.Occupancy, q, float64(10*(q+1)))
		bus.Set(telemetry.Capacity, q, 4096)
		bus.Set(telemetry.ArrivalRate, q, 1e6*float64(q+1))
		bus.Store(telemetry.Drops, q, uint64(5*q))
		bus.Store(telemetry.Rx, q, uint64(1000*(q+1)))
		bus.Add(telemetry.PubSeq, q, 1)
	}
	for t := 0; t < 4; t++ {
		bus.SetThread(telemetry.Heartbeat, t, float64(t)*0.25)
		bus.SetThread(telemetry.BusySeconds, t, float64(t)*0.5)
	}
	// A deterministic multiplicative spread: latencies from ~1 us to ~5 ms.
	v := uint64(997)
	for i := 0; i < 5000; i++ {
		bus.RecordLatency(0, 1000+v%5_000_000)
		v = v*6364136223846793005 + 1442695040888963407
	}
	bus.RecordLatency(1, 42_000)
	return bus
}

// The exposition is parseable, scalar gauges round-trip, and quantiles
// recomputed from the scraped histogram match the in-process fold
// bit-for-bit — the ISSUE's exactness gate.
func TestPromExpositionExactQuantiles(t *testing.T) {
	bus := promBus()
	rec := NewRecorder(64)
	rec.RecordDecision(0.01, 3, 2, 0x0101, 0.125, 0, 11.0, true, false, false)
	m := NewMetrics(ExportOptions{Bus: bus, Recorder: rec, TeamSize: func() int { return 2 }})

	srv := httptest.NewServer(m)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	scrape, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	if v, ok := scrape.Value(`metronome_queue_occupancy{queue="1"}`); !ok || v != 20 {
		t.Errorf("occupancy{1} = %v, %v", v, ok)
	}
	if v, ok := scrape.Value("metronome_team_size"); !ok || v != 2 {
		t.Errorf("team_size = %v, %v", v, ok)
	}
	if v, ok := scrape.Value("metronome_controller_want"); !ok || v != 3 {
		t.Errorf("controller_want = %v, %v", v, ok)
	}
	if v, ok := scrape.Value(`metronome_events_total{kind="decision"}`); !ok || v != 1 {
		t.Errorf(`events_total{decision} = %v, %v`, v, ok)
	}

	for q := 0; q < 2; q++ {
		key := fmt.Sprintf("metronome_queue_latency_seconds{queue=%q}", fmt.Sprint(q))
		h := scrape.Histogram(key)
		if h == nil {
			t.Fatalf("scrape lacks histogram %s", key)
		}
		var fold stats.LogHistogram
		bus.SampleLatency(q, &fold)
		if h.Count() != fold.N() {
			t.Errorf("queue %d: scraped count %d, fold %d", q, h.Count(), fold.N())
		}
		for _, quant := range []float64{0, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
			if got, want := h.Quantile(quant), fold.Quantile(quant); got != want {
				t.Errorf("queue %d: scraped p%g = %d ns, fold = %d ns", q, quant*100, got, want)
			}
		}
	}
}

// Two scrapes of a quiescent deployment are byte-identical (fixed emission
// order), and the +Inf bucket always matches _count.
func TestPromExpositionStable(t *testing.T) {
	m := NewMetrics(ExportOptions{Bus: promBus()})
	var a, b strings.Builder
	if err := m.WriteExposition(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("quiescent scrapes differ")
	}
	if !strings.Contains(a.String(), `le="+Inf"`) {
		t.Error("exposition lacks the +Inf bucket")
	}
}

// PublishExpvar is idempotent and the published func renders without
// panicking.
func TestPublishExpvarIdempotent(t *testing.T) {
	m := NewMetrics(ExportOptions{Bus: promBus(), TeamSize: func() int { return 3 }})
	m.PublishExpvar("metronome-test")
	m.PublishExpvar("metronome-test") // second publish must not panic
	v := expvar.Get("metronome-test")
	if v == nil {
		t.Fatal("expvar.Get returned nil after publish")
	}
	if s := v.String(); !strings.Contains(s, "team_size") {
		t.Errorf("expvar render lacks team_size: %s", s)
	}
}

// The recorder's record path allocates nothing — the benchgate asserts
// this in CI; the test catches it everywhere else.
func TestRecordAllocFree(t *testing.T) {
	r := NewRecorder(1024)
	allocs := testing.AllocsPerRun(1000, func() {
		r.RecordDecision(0.5, 4, 4, 0x0202, 0.3, 0.1, 12, false, false, false)
	})
	if allocs != 0 {
		t.Errorf("RecordDecision allocates %v per call, want 0", allocs)
	}
}

// BenchmarkObsvRecord is the benchgate's 0 allocs/event subject: one
// decision event per iteration through the full slot protocol.
func BenchmarkObsvRecord(b *testing.B) {
	r := NewRecorder(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RecordDecision(float64(i)*1e-4, 4, 4, 0x0202, 0.3, 0.1, 12, false, false, false)
	}
}

// BenchmarkPromExposition prices one full scrape of a 2-queue bus with a
// populated latency histogram.
func BenchmarkPromExposition(b *testing.B) {
	m := NewMetrics(ExportOptions{Bus: promBus(), TeamSize: func() int { return 4 }})
	var sink countingWriter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.n = 0
		if err := m.WriteExposition(&sink); err != nil {
			b.Fatal(err)
		}
	}
}

// countingWriter discards its input, counting bytes.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
