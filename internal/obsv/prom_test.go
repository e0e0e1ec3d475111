package obsv

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"os"
	"strings"
	"testing"

	"metronome/internal/stats"
	"metronome/internal/telemetry"
)

// scriptedBus builds the exposition fixture: 2 queues and 3 threads with a
// distinct value in every slot of every table row, latency samples spread
// over a dozen buckets, and (via scriptedMetrics) a recorder holding one
// decision. testdata/exposition.golden is its scrape.
func scriptedBus() *telemetry.Bus {
	bus := telemetry.NewBus(2, 3)
	for q := 0; q < 2; q++ {
		for g := range telemetry.Gauges {
			bus.Set(telemetry.Gauge(g), q, float64(100*(g+1)+q)+0.25)
		}
		for c := range telemetry.Counters {
			bus.Store(telemetry.Counter(c), q, uint64(1000*(c+1)+10*q+7))
		}
	}
	for th := 0; th < 3; th++ {
		bus.SetThread(telemetry.BusySeconds, th, 0.5*float64(th)+0.125)
		bus.SetThread(telemetry.Heartbeat, th, 1.75+float64(th))
	}
	for i := uint64(0); i < 13; i++ {
		bus.RecordLatency(0, 1000<<i+i)
	}
	for _, ns := range []uint64{500, 42_000, 42_000, 3_000_000} {
		bus.RecordLatency(1, ns)
	}
	return bus
}

func scriptedMetrics() (*Metrics, *telemetry.Bus) {
	bus := scriptedBus()
	rec := NewRecorder(64)
	rec.RecordDecision(0.01, 3, 2, 0x0101, 0.125, 0, 11.0, true, false, false)
	return NewMetrics(ExportOptions{Bus: bus, Recorder: rec}), bus
}

func scrapeOf(t testing.TB, m *Metrics) []byte {
	var b bytes.Buffer
	if err := m.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// The scrape of the scripted bus is byte-identical to the committed one,
// which the hand-written exposition produced before the bus became a table.
func TestPromExpositionGolden(t *testing.T) {
	m, _ := scriptedMetrics()
	want, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := scrapeOf(t, m); !bytes.Equal(got, want) {
		t.Errorf("exposition drifted from testdata/exposition.golden:\n%s", got)
	}
}

// Every table row appears in a scrape exactly once, with its HELP and TYPE
// and one sample per queue or thread.
func TestPromExpositionNamesEveryRowOnce(t *testing.T) {
	m, bus := scriptedMetrics()
	body := string(scrapeOf(t, m))
	check := func(s telemetry.Series, label string, n int) {
		name := "metronome_" + s.Name
		if c := strings.Count(body, "# HELP "+name+" "); c != 1 {
			t.Errorf("%s: %d HELP lines", s.Name, c)
		}
		if !strings.Contains(body, "# HELP "+name+" "+s.Help+"\n# TYPE "+name+" "+s.Type+"\n") {
			t.Errorf("%s: HELP/TYPE preamble missing or wrong", s.Name)
		}
		if c := strings.Count(body, "\n"+name+"{"+label+"="); c != n {
			t.Errorf("%s: %d sample lines, want %d", s.Name, c, n)
		}
	}
	for _, s := range telemetry.Gauges {
		check(s, "queue", bus.Queues())
	}
	for _, s := range telemetry.Counters {
		check(s, "queue", bus.Queues())
	}
	for _, s := range telemetry.ThreadGauges {
		check(s, "thread", bus.Threads())
	}
}

// checkRoundTrip asserts that a parsed scrape of bus carries every table
// row's value and every queue's exact latency quantiles.
func checkRoundTrip(t *testing.T, s *Scrape, bus *telemetry.Bus) {
	t.Helper()
	var snap telemetry.Snapshot
	bus.Sample(&snap)
	value := func(sr telemetry.Series, label string, i int, want float64) {
		key := fmt.Sprintf(`metronome_%s{%s="%d"}`, sr.Name, label, i)
		if got, ok := s.Value(key); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	for g, sr := range telemetry.Gauges {
		for q, v := range snap.Gauge[g] {
			value(sr, "queue", q, v)
		}
	}
	for c, sr := range telemetry.Counters {
		for q, v := range snap.Counter[c] {
			value(sr, "queue", q, float64(v))
		}
	}
	for g, sr := range telemetry.ThreadGauges {
		for th, v := range snap.Thread[g] {
			value(sr, "thread", th, v)
		}
	}
	for q := 0; q < bus.Queues(); q++ {
		h := s.Histogram(fmt.Sprintf(`metronome_%s{queue="%d"}`, telemetry.Latency.Name, q))
		var fold stats.LogHistogram
		bus.SampleLatency(q, &fold)
		if h.Count() != fold.N() {
			t.Errorf("queue %d: scraped count %d, fold %d", q, h.Count(), fold.N())
		}
		for _, quant := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			if got, want := h.Quantile(quant), fold.Quantile(quant); got != want {
				t.Errorf("queue %d: scraped p%g = %d ns, fold = %d ns", q, quant*100, got, want)
			}
		}
	}
}

func TestPromExpositionRoundTrip(t *testing.T) {
	m, bus := scriptedMetrics()
	s, err := ParseExposition(bytes.NewReader(scrapeOf(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, s, bus)
}

// expvar renders every table row under its exposition name.
func TestPublishExpvarRendersTable(t *testing.T) {
	m, bus := scriptedMetrics()
	m.PublishExpvar("metronome-table-test")
	var got map[string]json.RawMessage
	raw := expvar.Get("metronome-table-test").String()
	if err := json.Unmarshal([]byte(raw), &got); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	rowOf := func(key string) map[string]float64 {
		var row map[string]float64
		if err := json.Unmarshal(got[key], &row); err != nil {
			t.Fatalf("%s: %v in %s", key, err, raw)
		}
		return row
	}
	for q := 0; q < bus.Queues(); q++ {
		row := rowOf(fmt.Sprint("queue", q))
		for g, s := range telemetry.Gauges {
			if row[s.Name] != bus.Get(telemetry.Gauge(g), q) {
				t.Errorf("queue%d %s = %v", q, s.Name, row[s.Name])
			}
		}
		for c, s := range telemetry.Counters {
			if row[s.Name] != float64(bus.Load(telemetry.Counter(c), q)) {
				t.Errorf("queue%d %s = %v", q, s.Name, row[s.Name])
			}
		}
	}
	for th := 0; th < bus.Threads(); th++ {
		row := rowOf(fmt.Sprint("thread", th))
		for g, s := range telemetry.ThreadGauges {
			if row[s.Name] != bus.Thread(telemetry.ThreadGauge(g), th) {
				t.Errorf("thread%d %s = %v", th, s.Name, row[s.Name])
			}
		}
	}
}

// Exposition rows side by side with whether ParseExposition accepts them.
var parseCases = []struct {
	in string
	ok bool
}{
	{"", true},
	{"# HELP metronome_team_size Active retrieval team members.", true},
	{"metronome_team_size 3", true},
	{`metronome_queue_occupancy{queue="0"} 1.5`, true},
	{`metronome_queue_occupancy{queue="0"} 1` + "\n" + `metronome_queue_occupancy{queue="0"} 2`, true}, // duplicate series: the last wins
	{`metronome_queue_latency_seconds_bucket{queue="0",le="1e-06"} 4`, true},
	{`metronome_queue_latency_seconds_bucket{queue="0",le="+Inf"} 4`, true},
	{`metronome_queue_occupancy{queue="0" 1`, false},                      // unterminated label set
	{`metronome_queue_occupancy{queue} 1`, false},                         // label without a value
	{`metronome_queue_latency_seconds_bucket{queue="0",le="x"} 1`, false}, // bad le
	{`metronome_queue_occupancy{queue="0"} one`, false},                   // non-numeric value
	{"metronome_queue_occupancy", false},                                  // truncated: no value
}

func TestParseExpositionAcceptReject(t *testing.T) {
	for _, c := range parseCases {
		if _, err := ParseExposition(strings.NewReader(c.in)); (err == nil) != c.ok {
			t.Errorf("ParseExposition(%q): err = %v, want ok %v", c.in, err, c.ok)
		}
	}
	s, err := ParseExposition(strings.NewReader("x 1\nx 2"))
	if v, _ := s.Value("x"); err != nil || v != 2 {
		t.Errorf("duplicate series kept %v (err %v), want the last sample", v, err)
	}
}

// FuzzParseExposition: parsing never panics on any body, and the scripted
// bus's scrape round-trips every table row and every queue's exact
// quantiles.
func FuzzParseExposition(f *testing.F) {
	m, bus := scriptedMetrics()
	golden := string(scrapeOf(f, m))
	f.Add(golden)
	for _, cut := range []int{len(golden) / 3, len(golden) / 2, len(golden) - 5} {
		f.Add(golden[:cut])
	}
	for _, c := range parseCases {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s, err := ParseExposition(strings.NewReader(body))
		if err != nil {
			return
		}
		for _, h := range s.Hists {
			h.Quantile(0.99)
		}
		if body == golden {
			checkRoundTrip(t, s, bus)
		}
	})
}
