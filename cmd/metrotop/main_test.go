package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"metronome/internal/obsv"
	"metronome/internal/stats"
	"metronome/internal/telemetry"
)

// The end-to-end smoke: a bus with known state served by the obsv metrics
// handler, scraped over real HTTP, rendered as an operator frame. This is
// the CI metrics-endpoint smoke test.
func TestLiveFrameFromMetricsEndpoint(t *testing.T) {
	bus := telemetry.NewBus(2, 4)
	bus.Set(telemetry.Occupancy, 0, 1024)
	bus.Set(telemetry.Capacity, 0, 4096)
	bus.Set(telemetry.ArrivalRate, 0, 2.5e6)
	bus.Store(telemetry.Drops, 0, 7)
	bus.Set(telemetry.Capacity, 1, 4096)
	for i := 0; i < 100; i++ {
		bus.RecordLatency(0, uint64(1000*(i+1)))
	}
	rec := obsv.NewRecorder(64)
	rec.RecordDecision(0.5, 3, 3, 0, 0.25, 0, 14.5, false, false, false)
	rec.RecordExile(0.6, 2)

	m := obsv.NewMetrics(obsv.ExportOptions{Bus: bus, Recorder: rec, TeamSize: func() int { return 3 }})
	srv := httptest.NewServer(m)
	defer srv.Close()

	frame, err := scrapeFrame(srv.URL, "metronome")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"team 3", "want 3", "q0", "25.0%", "2.50 Mpps", "drops 7", "p99", "EXILED"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	// The rendered p99 is the in-process fold's conservative bucket edge,
	// rendered with the same formatter — what-you-see-is-what-it-measured.
	var fold stats.LogHistogram
	bus.SampleLatency(0, &fold)
	if want := "p99 " + fmtNs(fold.Quantile(0.99)); !strings.Contains(frame, want) {
		t.Errorf("frame lacks the exact fold quantile %q:\n%s", want, frame)
	}
}

// Trace mode folds a WriteText dump into the post-mortem frame.
func TestTracePostMortem(t *testing.T) {
	rec := obsv.NewRecorder(64)
	rec.RecordDecision(0.001, 4, 4, 0x0103, 0.5, 0, 16, true, false, false)
	rec.RecordExile(0.002, 1)
	rec.RecordSafeMode(0.003, true, 4)
	rec.RecordPanic(0.004, "boom", "stack")
	var dump strings.Builder
	if err := rec.WriteText(&dump); err != nil {
		t.Fatal(err)
	}
	out, err := renderTrace(strings.NewReader(dump.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"4 events", "1 PANICS", "SAFE MODE", "EXILED AT END: threads 1", "last decision", "plan=3/1"} {
		if !strings.Contains(out, want) {
			t.Errorf("post-mortem missing %q:\n%s", want, out)
		}
	}
}

// The frame of the observability plane's fixture scrape (every table row
// populated, a decision on the recorder) is unchanged.
func TestFrameGolden(t *testing.T) {
	body, err := os.ReadFile("../../internal/obsv/testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/frame.golden")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := renderScrape(bytes.NewReader(body), "metronome", "golden")
	if err != nil {
		t.Fatal(err)
	}
	if frame != string(want) {
		t.Errorf("frame drifted from testdata/frame.golden:\n%s", frame)
	}
}

// Gauges that are not finite, or a zero capacity, render an empty bar
// instead of killing the view.
func TestRenderScrapeNonFinite(t *testing.T) {
	for _, c := range []struct{ occ, capacity string }{
		{"NaN", "4096"},
		{"+Inf", "4096"},
		{"-Inf", "4096"},
		{"+Inf", "+Inf"},
		{"17", "0"},
	} {
		body := `metronome_queue_occupancy{queue="0"} ` + c.occ + "\n" +
			`metronome_queue_capacity{queue="0"} ` + c.capacity + "\n"
		frame, err := renderScrape(strings.NewReader(body), "metronome", "t")
		if err != nil {
			t.Fatalf("occ %s / cap %s: %v", c.occ, c.capacity, err)
		}
		if !strings.Contains(frame, "["+strings.Repeat("░", 24)+"]") {
			t.Errorf("occ %s / cap %s: bar not empty:\n%s", c.occ, c.capacity, frame)
		}
	}
}

// FuzzRenderScrape: rendering never panics on any body.
func FuzzRenderScrape(f *testing.F) {
	body, err := os.ReadFile("../../internal/obsv/testdata/exposition.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(body))
	f.Add(`metronome_queue_occupancy{queue="0"} NaN` + "\n" + `metronome_queue_capacity{queue="0"} 4096`)
	f.Add(`metronome_queue_occupancy{queue="0"} +Inf` + "\n" + `metronome_queue_capacity{queue="0"} +Inf`)
	f.Add(`metronome_safe_mode 1` + "\n" + `metronome_events_total{kind="exile"} 2`)
	f.Fuzz(func(t *testing.T, body string) {
		_, _ = renderScrape(strings.NewReader(body), "metronome", "t")
	})
}
