// Command benchgate is the CI bench-regression gate: it reads `go test
// -bench` output on stdin, extracts every sample of the gated benchmarks,
// and fails (exit 1) when a measurement regresses past the committed
// baseline's gates.
//
// Allocations are deterministic for our hot paths, so allocs/op is
// compared exactly: one alloc over the baseline fails (a zero budget is
// expressed as max_allocs_per_op 0). Wall time on shared CI runners is not
// deterministic, so ns/op gets a generous guard factor, and the best of
// the -count samples is compared (the minimum is the least noisy location
// statistic for a time measurement).
//
// A baseline file carries a "gates" array — BENCH_simulate.json gates the
// simulator loop, BENCH_ring.json both ring specialisations,
// BENCH_telemetry.json pins the telemetry plane's publish+sample at zero
// allocations, BENCH_apps.json gates the application burst paths,
// BENCH_mbuf.json the mempool cache.
//
// A gate may also carry "min_speedup_over"/"min_speedup_x": the gated
// benchmark's best ns/op must then be at least min_speedup_x times faster
// than the named reference benchmark measured in the SAME run. Because both
// sides share the run, runner noise largely cancels, so a ratio gate can be
// tight where an absolute ns/op gate needs a generous guard.
//
// Usage:
//
//	go test -run=NONE -bench='^BenchmarkSimulateThroughput$' \
//	    -benchtime=3x -count=3 -benchmem . | benchgate -baseline BENCH_simulate.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// gate is one benchmark's regression budget.
type gate struct {
	Benchmark       string  `json:"benchmark"`
	MaxAllocsPerOp  int64   `json:"max_allocs_per_op"`
	NsPerOpRef      float64 `json:"ns_per_op_ref"`
	TimeGuardFactor float64 `json:"time_guard_factor"`
	// Optional same-run ratio gate: this benchmark's best ns/op must be at
	// least MinSpeedupX times lower than SpeedupOver's best ns/op.
	SpeedupOver string  `json:"min_speedup_over,omitempty"`
	MinSpeedupX float64 `json:"min_speedup_x,omitempty"`
}

// defaultGuard is the ns/op guard factor of a gate that names none.
const defaultGuard = 3

// sample aggregates the stdin measurements of one benchmark.
type sample struct {
	n         int
	minNs     float64
	maxAllocs int64
}

// parseBaseline extracts the gates of a BENCH_*.json file, filling in the
// default guard factor. The single "gate" object older baselines carried is
// refused by name rather than silently gating nothing.
func parseBaseline(raw []byte) ([]gate, error) {
	var b struct {
		Legacy json.RawMessage `json:"gate"`
		Gates  []gate          `json:"gates"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, err
	}
	if b.Legacy != nil {
		return nil, errors.New(`legacy "gate" object: list it in a "gates" array`)
	}
	if len(b.Gates) == 0 {
		return nil, errors.New(`no "gates"`)
	}
	for i := range b.Gates {
		if g := &b.Gates[i]; g.TimeGuardFactor <= 0 {
			g.TimeGuardFactor = defaultGuard
		}
	}
	return b.Gates, nil
}

// evaluate judges the collected samples against every gate and returns one
// line per violation, so one CI run surfaces them all; passes are printed.
func evaluate(gates []gate, seen map[string]*sample) []string {
	var fails []string
	for _, g := range gates {
		s := seen[g.Benchmark]
		if s == nil {
			fails = append(fails, fmt.Sprintf("no %s samples on stdin (did the benchmark run with -benchmem?)", g.Benchmark))
			continue
		}
		before := len(fails)
		if s.maxAllocs > g.MaxAllocsPerOp {
			fails = append(fails, fmt.Sprintf("FAIL %s allocs/op %d > baseline %d (allocations are deterministic: this is a real regression)",
				g.Benchmark, s.maxAllocs, g.MaxAllocsPerOp))
		}
		if limit := g.NsPerOpRef * g.TimeGuardFactor; g.NsPerOpRef > 0 && s.minNs > limit {
			fails = append(fails, fmt.Sprintf("FAIL %s best ns/op %.0f > %.1fx baseline %.0f (guard factor absorbs shared-runner noise; this is beyond it)",
				g.Benchmark, s.minNs, g.TimeGuardFactor, g.NsPerOpRef))
		}
		if g.SpeedupOver != "" && g.MinSpeedupX > 0 {
			if ref := seen[g.SpeedupOver]; ref == nil {
				fails = append(fails, fmt.Sprintf("no %s samples on stdin (referenced by %s's speedup gate)", g.SpeedupOver, g.Benchmark))
			} else if speedup := ref.minNs / s.minNs; speedup < g.MinSpeedupX {
				fails = append(fails, fmt.Sprintf("FAIL %s only %.2fx faster than %s, gate requires >= %.1fx (same-run ratio: noise cancels, this is a real regression)",
					g.Benchmark, speedup, g.SpeedupOver, g.MinSpeedupX))
			} else {
				fmt.Printf("benchgate: %s is %.2fx faster than %s (gate >= %.1fx)\n",
					g.Benchmark, speedup, g.SpeedupOver, g.MinSpeedupX)
			}
		}
		if len(fails) == before {
			fmt.Printf("benchgate: PASS %s: best %.0f ns/op (<= %.1fx %.0f), worst %d allocs/op (<= %d)\n",
				g.Benchmark, s.minNs, g.TimeGuardFactor, g.NsPerOpRef, s.maxAllocs, g.MaxAllocsPerOp)
		}
	}
	return fails
}

func main() {
	path := flag.String("baseline", "BENCH_simulate.json", "baseline JSON with a gates array")
	flag.Parse()

	raw, err := os.ReadFile(*path)
	if err != nil {
		fatal("read baseline: %v", err)
	}
	gates, err := parseBaseline(raw)
	if err != nil {
		fatal("baseline %s: %v", *path, err)
	}
	// Collect samples for every gated benchmark plus any speedup reference.
	watch := make(map[string]bool, len(gates))
	for _, g := range gates {
		watch[g.Benchmark] = true
		if g.SpeedupOver != "" {
			watch[g.SpeedupOver] = true
		}
	}

	seen := map[string]*sample{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// "BenchmarkName-8   3   1064763 ns/op   55243 B/op   85 allocs/op"
		if len(fields) < 2 {
			continue
		}
		name := strings.SplitN(fields[0], "-", 2)[0]
		if !watch[name] {
			continue
		}
		ns, okNs := valueBefore(fields, "ns/op")
		allocs, okAl := valueBefore(fields, "allocs/op")
		if !okNs || !okAl {
			continue
		}
		s := seen[name]
		if s == nil {
			s = &sample{minNs: ns, maxAllocs: int64(allocs)}
			seen[name] = s
		}
		if ns < s.minNs {
			s.minNs = ns
		}
		if a := int64(allocs); a > s.maxAllocs {
			s.maxAllocs = a
		}
		s.n++
		fmt.Printf("benchgate: %s sample %d: %.0f ns/op, %d allocs/op\n", name, s.n, ns, int64(allocs))
	}
	if err := sc.Err(); err != nil {
		fatal("read stdin: %v", err)
	}

	fails := evaluate(gates, seen)
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "benchgate: "+f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
}

// valueBefore returns the numeric field immediately preceding the given
// unit token.
func valueBefore(fields []string, unit string) (float64, bool) {
	for i := 1; i < len(fields); i++ {
		if fields[i] == unit {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
