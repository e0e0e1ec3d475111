package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCommittedBaselinesParse holds the repository's own BENCH_*.json files
// to the one schema the tool accepts.
func TestCommittedBaselinesParse(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json at the repository root (glob: %v)", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parseBaseline(raw); err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
		}
	}
}

// parseBaselineRows are the legal and illegal baseline files side by side.
var parseBaselineRows = []struct {
	name, input string
	ok          bool
	wantGates   int
	wantGuard   float64 // of gates[0]
	errHas      string
}{
	{"legal array", `{"gates":[{"benchmark":"BenchmarkA","max_allocs_per_op":0,"ns_per_op_ref":10,"time_guard_factor":4}]}`, true, 1, 4, ""},
	{"two gates, unknown keys ignored", `{"notes":["x"],"gates":[{"benchmark":"BenchmarkA","time_guard_factor":2,"command":"go test"},{"benchmark":"BenchmarkB"}]}`, true, 2, 2, ""},
	{"zero guard factor takes the default", `{"gates":[{"benchmark":"BenchmarkA","ns_per_op_ref":10,"time_guard_factor":0}]}`, true, 1, defaultGuard, ""},
	{"absent guard factor takes the default", `{"gates":[{"benchmark":"BenchmarkA"}]}`, true, 1, defaultGuard, ""},
	{"legacy gate object", `{"gate":{"benchmark":"BenchmarkA","max_allocs_per_op":86}}`, false, 0, 0, `"gate"`},
	{"legacy gate object beside an array", `{"gate":{"benchmark":"BenchmarkA"},"gates":[{"benchmark":"BenchmarkB"}]}`, false, 0, 0, `"gate"`},
	{"empty gates", `{"gates":[]}`, false, 0, 0, `"gates"`},
	{"no gates key", `{"benchmark":"BenchmarkA"}`, false, 0, 0, `"gates"`},
	{"malformed JSON", `{"gates":[{"benchmark":`, false, 0, 0, "unexpected end"},
	{"gates of the wrong type", `{"gates":{"benchmark":"BenchmarkA"}}`, false, 0, 0, "cannot unmarshal"},
}

// TestParseBaseline is the accept/reject table for baseline files, rejects
// checked for the word that tells the author what to fix.
func TestParseBaseline(t *testing.T) {
	for _, tc := range parseBaselineRows {
		gates, err := parseBaseline([]byte(tc.input))
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.errHas)
			} else if !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, tc.errHas)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(gates) != tc.wantGates || gates[0].TimeGuardFactor != tc.wantGuard {
			t.Errorf("%s: got %d gates, guard %v; want %d, %v", tc.name, len(gates), gates[0].TimeGuardFactor, tc.wantGates, tc.wantGuard)
		}
	}
}

// FuzzParseBaseline: any bytes either fail to parse or yield at least one
// gate, every gate with a positive guard factor, and the parsed gates
// re-encode as a "gates" array that parses back to themselves.
func FuzzParseBaseline(f *testing.F) {
	for _, tc := range parseBaselineRows {
		f.Add([]byte(tc.input))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		gates, err := parseBaseline(raw)
		if err != nil {
			return
		}
		if len(gates) == 0 {
			t.Fatal("accepted a baseline with no gates")
		}
		for _, g := range gates {
			if !(g.TimeGuardFactor > 0) {
				t.Fatalf("gate %q has guard factor %v", g.Benchmark, g.TimeGuardFactor)
			}
		}
		again, err := json.Marshal(map[string][]gate{"gates": gates})
		if err != nil {
			t.Fatal(err)
		}
		back, err := parseBaseline(again)
		if err != nil || !reflect.DeepEqual(back, gates) {
			t.Fatalf("round trip: %+v (%v), want %+v", back, err, gates)
		}
	})
}

// TestEvaluate judges hand-built sample sets: every failing row names its
// benchmark and what went over, and a run reports all violations at once.
func TestEvaluate(t *testing.T) {
	fast := gate{Benchmark: "BenchmarkFast", MaxAllocsPerOp: 0, NsPerOpRef: 100, TimeGuardFactor: 3,
		SpeedupOver: "BenchmarkSlow", MinSpeedupX: 2}
	plain := gate{Benchmark: "BenchmarkPlain", MaxAllocsPerOp: 2, NsPerOpRef: 1000, TimeGuardFactor: 3}
	tests := []struct {
		name  string
		gates []gate
		seen  map[string]*sample
		want  []string // one substring per expected failure line, in order
	}{
		{"within every budget", []gate{fast, plain}, map[string]*sample{
			"BenchmarkFast":  {n: 3, minNs: 120, maxAllocs: 0},
			"BenchmarkSlow":  {n: 3, minNs: 400, maxAllocs: 5},
			"BenchmarkPlain": {n: 3, minNs: 2999, maxAllocs: 2},
		}, nil},
		{"allocs over budget", []gate{plain}, map[string]*sample{
			"BenchmarkPlain": {n: 3, minNs: 900, maxAllocs: 3},
		}, []string{"BenchmarkPlain allocs/op 3 > baseline 2"}},
		{"ns over guard", []gate{plain}, map[string]*sample{
			"BenchmarkPlain": {n: 3, minNs: 3001, maxAllocs: 0},
		}, []string{"BenchmarkPlain best ns/op 3001 > 3.0x baseline 1000"}},
		{"no ns reference means no time gate", []gate{{Benchmark: "BenchmarkPlain", TimeGuardFactor: 3}}, map[string]*sample{
			"BenchmarkPlain": {n: 1, minNs: 1e9, maxAllocs: 0},
		}, nil},
		{"gated benchmark missing from stdin", []gate{plain}, map[string]*sample{},
			[]string{"no BenchmarkPlain samples"}},
		{"speedup reference missing from stdin", []gate{fast}, map[string]*sample{
			"BenchmarkFast": {n: 3, minNs: 120, maxAllocs: 0},
		}, []string{"no BenchmarkSlow samples on stdin (referenced by BenchmarkFast"}},
		{"speedup below the ratio", []gate{fast}, map[string]*sample{
			"BenchmarkFast": {n: 3, minNs: 120, maxAllocs: 0},
			"BenchmarkSlow": {n: 3, minNs: 180, maxAllocs: 0},
		}, []string{"BenchmarkFast only 1.50x faster than BenchmarkSlow"}},
		{"every violation in one run", []gate{fast, plain}, map[string]*sample{
			"BenchmarkFast":  {n: 3, minNs: 301, maxAllocs: 1},
			"BenchmarkSlow":  {n: 3, minNs: 400, maxAllocs: 0},
			"BenchmarkPlain": {n: 3, minNs: 900, maxAllocs: 9},
		}, []string{"BenchmarkFast allocs/op 1 > baseline 0", "BenchmarkFast best ns/op 301", "BenchmarkFast only 1.33x", "BenchmarkPlain allocs/op 9"}},
	}
	for _, tc := range tests {
		got := evaluate(tc.gates, tc.seen)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d failures %q, want %d", tc.name, len(got), got, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: failure %d = %q, want it to contain %q", tc.name, i, got[i], w)
			}
		}
	}
}
