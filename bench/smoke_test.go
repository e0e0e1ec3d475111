package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"metronome/internal/stats"
)

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bm
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the tables the
// command prints from, so neither can drift from the other.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bm := loadBenchmarkJSON(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bm.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if bm.Workloads[i].Name != wl.name || bm.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json %+v != code {%s %s}", i, bm.Workloads[i], wl.name, wl.why)
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.Gated {
			gated = append(gated, d)
		}
	}
	if len(bm.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command gates %d", len(bm.EndToEnd), len(gated))
	}
	for i, d := range gated {
		if got := bm.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v != code %+v", i, got, d)
		}
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(bm.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := bm.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v != code %+v", i, got, d)
		}
	}
}

// TestSmoke runs every workload at 150 ms scale, traced path included, and
// checks the shape of what comes out — not the numbers, which mean nothing
// at this scale.
func TestSmoke(t *testing.T) {
	bm := loadBenchmarkJSON(t)
	goroutines := goruntime.NumGoroutine()
	procs := goruntime.GOMAXPROCS(0)
	out := t.TempDir()

	for _, wl := range workloads {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", wl.name, "-seed", "1", "-seconds", "0.15", "-trace", "1", "-json", "-out", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d\nstdout: %s\nstderr: %s", wl.name, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if len(lines) != 2 {
			t.Fatalf("%s: -json printed %d lines, want the report and the contract line", wl.name, len(lines))
		}

		// The -json document round-trips.
		var rep, again report
		if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
			t.Fatalf("%s: report: %v", wl.name, err)
		}
		re, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(re, &again); err != nil || !reflect.DeepEqual(rep, again) {
			t.Errorf("%s: -json report does not round-trip (err %v)", wl.name, err)
		}
		if len(rep.Results) != 1 || rep.Results[0].Workload != wl.name || !rep.Results[0].Traced {
			t.Fatalf("%s: unexpected report %+v", wl.name, rep.Results)
		}
		r := rep.Results[0]
		for _, c := range r.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", wl.name, c.Name, c.Detail)
			}
		}

		// The contract line of a traced invocation carries every per-layer
		// metric of BENCHMARK.json, that of an untraced one every
		// end-to-end metric: once, with its unit, finite.
		var traced driverLine
		if err := json.Unmarshal([]byte(lines[1]), &traced); err != nil {
			t.Fatalf("%s: contract line: %v", wl.name, err)
		}
		if !traced.Correct || traced.Attempted < 1 {
			t.Errorf("%s: contract line %+v", wl.name, traced)
		}
		r.Traced = false
		plain := r.driverLine()
		r.Traced = true
		if len(traced.Metrics) != len(bm.PerLayer) || len(plain.Metrics) != len(bm.EndToEnd) {
			t.Errorf("%s: contract lines carry %d per-layer and %d end-to-end metrics, BENCHMARK.json names %d and %d",
				wl.name, len(traced.Metrics), len(plain.Metrics), len(bm.PerLayer), len(bm.EndToEnd))
		}
		for _, d := range bm.PerLayer {
			if v, ok := traced.Metrics[d.Name]; !ok || v.Unit != d.Unit || !finite(v.Value) {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %q and a finite value", wl.name, d.Name, v, ok, d.Unit)
			}
		}
		for _, d := range bm.EndToEnd {
			v, ok := plain.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || !finite(v.Value) || (v.Value == 0 && rusageAvailable) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want unit %q and a finite non-zero value", wl.name, d.Name, v, ok, d.Unit)
			}
		}

		// The human report prints each of those names exactly once, with
		// its unit.
		var text bytes.Buffer
		r.print(&text)
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(d.Name) + `\s+\S+ ` + regexp.QuoteMeta(d.Unit) + `$`)
				if n := len(line.FindAllString(text.String(), -1)); n != 1 {
					t.Errorf("%s: %s printed %d times with unit %q, want once", wl.name, d.Name, n, d.Unit)
				}
			}
		}

		// The traced run wrote its span dump (the simulator has no spans).
		if !wl.sim {
			dump, err := os.ReadFile(out + "/" + wl.name + ".seed1.trace.json")
			if err != nil || !bytes.Contains(dump, []byte(`"name":"cycle"`)) || !json.Valid(dump) {
				t.Errorf("%s: span dump unreadable, not JSON or without a cycle span (err %v)", wl.name, err)
			}
		}
	}

	if got := goruntime.GOMAXPROCS(0); got != procs {
		t.Errorf("GOMAXPROCS left at %d, was %d", got, procs)
	}
	// Every generator and retrieval goroutine was waited for.
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines left behind (started with %d):\n%s", n, goroutines, buf[:goruntime.Stack(buf, true)])
	}
}

func TestQuantileInterpolates(t *testing.T) {
	var h stats.LogHistogram
	for v := uint64(1000); v < 2000; v++ {
		h.Record(v)
	}
	got := quantileNs(&h, 0.5)
	if math.Abs(got-1500) > 16 { // half a bucket at this octave
		t.Errorf("interpolated median of 1000..1999 = %v, want ~1500", got)
	}
}

func TestQuartileMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	vs := []float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46}
	if q1, q3 := quartile(vs, 1), quartile(vs, 3); q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
