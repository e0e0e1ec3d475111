package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"metronome/internal/stats"
)

// metricDef describes one reported number. The table below is the single
// source of the names, units and regression bounds: BENCHMARK.json at the
// repo root restates the gated subset and smoke_test.go asserts the two
// agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
	// Gated end-to-end metrics are the ones BENCHMARK.json bounds; every
	// workload reports every one of them. The ungated two (loss_pct,
	// sim_cycles_per_s) are printed for people: loss reaches the driver as
	// failed/attempted, and sim_cycles_per_s is delivered_mpps over a
	// constant on the one workload that has it.
	Gated bool
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "lat_p95_us", Unit: "us", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "retrieval_cpu_pct", Unit: "%", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "cpu_ns_per_pkt", Unit: "ns", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "delivered_mpps", Unit: "Mpps", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.20, Gated: true},
	{Name: "loss_pct", Unit: "%", Better: "lower"},
	{Name: "sim_cycles_per_s", Unit: "1/s", Better: "higher"},
}

// lossBoundPP is loss_pct's regression bound: absolute percentage points,
// because the healthy value is zero and a relative bound has no base.
const lossBoundPP = 0.05

// perLayer lists the single-layer metrics in print order; the part of the
// name before the first dot is the layer. Direction is informational — no
// per-layer metric is gated.
var perLayer = []metricDef{
	{Name: "generator.offered_pps", Unit: "1/s", Better: "higher"},
	{Name: "generator.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "generator.late_max_us", Unit: "us", Better: "lower"},
	{Name: "generator.cpu_pct", Unit: "%", Better: "lower"},

	{Name: "hrtimer.sleeps", Unit: "count", Better: "lower"},
	{Name: "hrtimer.requested_p50_us", Unit: "us", Better: "lower"},
	{Name: "hrtimer.overshoot_p50_us", Unit: "us", Better: "lower"},
	{Name: "hrtimer.overshoot_p99_us", Unit: "us", Better: "lower"},

	{Name: "sched.rho_est", Unit: "ratio", Better: "lower"},
	{Name: "sched.ts_us", Unit: "us", Better: "lower"},
	{Name: "sched.observe_ns", Unit: "ns", Better: "lower"},

	{Name: "runtime.tries", Unit: "count", Better: "lower"},
	{Name: "runtime.busy_try_pct", Unit: "%", Better: "lower"},
	{Name: "runtime.cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.pkts_per_cycle", Unit: "count", Better: "higher"},
	{Name: "runtime.pkts_per_burst", Unit: "count", Better: "higher"},
	{Name: "runtime.vacation_p50_us", Unit: "us", Better: "lower"},
	{Name: "runtime.vacation_p99_us", Unit: "us", Better: "lower"},
	{Name: "runtime.cycle_busy_p50_us", Unit: "us", Better: "lower"},
	{Name: "runtime.duty_pct", Unit: "%", Better: "lower"},
	{Name: "runtime.wake_cpu_us", Unit: "us", Better: "lower"},
	{Name: "runtime.self_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "runtime.allocs_per_mpkt", Unit: "count", Better: "lower"},
	{Name: "runtime.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "runtime.lat_p999_us", Unit: "us", Better: "lower"},
	{Name: "runtime.lat_max_us", Unit: "us", Better: "lower"},

	{Name: "ring.poll_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "ring.empty_polls", Unit: "count", Better: "lower"},
	{Name: "ring.enqueue_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "ring.full_rejects", Unit: "count", Better: "lower"},
	{Name: "ring.occupancy_max", Unit: "count", Better: "lower"},

	{Name: "mbuf.get_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "mbuf.recycle_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "mbuf.pool_fails", Unit: "count", Better: "lower"},
	{Name: "mbuf.pool_available_end", Unit: "count", Better: "higher"},

	{Name: "apps.process_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "apps.forward", Unit: "count", Better: "higher"},
	{Name: "apps.consume", Unit: "count", Better: "higher"},
	{Name: "apps.drop", Unit: "count", Better: "lower"},

	{Name: "telemetry.hist_n", Unit: "count", Better: "higher"},
	{Name: "telemetry.p50_ratio", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.sample_ns", Unit: "ns", Better: "lower"},

	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.allocs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "core.cpu_pct", Unit: "%", Better: "lower"},
	{Name: "core.loss_ppm", Unit: "ppm", Better: "lower"},
	{Name: "core.lat_mean_us", Unit: "us", Better: "lower"},
	{Name: "core.busy_try_pct", Unit: "%", Better: "lower"},
	{Name: "nic.drops", Unit: "count", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metrics maps a metric name to its measured value. A name a workload
// cannot measure (hrtimer.* on the simulator, sim.* on a live run) is
// simply absent.
type metrics map[string]float64

// check is one output-correctness verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

type checkList []check

func (c *checkList) add(name string, ok bool, format string, args ...any) {
	*c = append(*c, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// result is everything one workload run produced.
type result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Attempted uint64  `json:"attempted"` // packets offered in the measured window
	Failed    uint64  `json:"failed"`    // of those, dropped (simulated NIC only; the live generator waits)
	Samples   uint64  `json:"samples"`   // latency samples behind lat_p50/p95
	// E2E comes from the untraced run; Layers from the traced run when
	// there was one, else the counter-derived subset the untraced run saw.
	E2E    metrics   `json:"end_to_end"`
	Layers metrics   `json:"per_layer"`
	Traced bool      `json:"traced"`
	Checks checkList `json:"checks"`
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// print renders the human report: every metric by name with its unit.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d  measured=%.3gs  traced=%v ==\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "  offered=%d dropped=%d latency_samples=%d\n", r.Attempted, r.Failed, r.Samples)
	fmt.Fprintln(w, " end-to-end (untraced run)")
	printTable(w, endToEnd, r.E2E)
	fmt.Fprintln(w, " per-layer")
	printTable(w, perLayer, r.Layers)
	fmt.Fprintln(w, " checks")
	for _, c := range r.Checks {
		tag := "ok  "
		if !c.OK {
			tag = "FAIL"
		}
		fmt.Fprintf(w, "  %s %-18s %s\n", tag, c.Name, c.Detail)
	}
}

func printTable(w io.Writer, defs []metricDef, m metrics) {
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %16.6g %s\n", d.Name, v, d.Unit)
		} else {
			fmt.Fprintf(w, "  %-28s %16s %s\n", d.Name, "n/a", d.Unit)
		}
	}
}

// driverLine is the one-object summary the benchmark contract wants as the
// last line of stdout: the gated end-to-end metrics of an untraced
// invocation, every per-layer metric of a traced one (0 where the
// workload has no such layer).
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) driverLine() driverLine {
	out := driverLine{
		Correct:   r.correct(),
		Attempted: max(r.Attempted, 1),
		Failed:    r.Failed,
		Metrics:   map[string]driverValue{},
	}
	if r.Traced {
		for _, d := range perLayer {
			out.Metrics[d.Name] = driverValue{Value: r.Layers[d.Name], Unit: d.Unit}
		}
		return out
	}
	for _, d := range endToEnd {
		if d.Gated {
			out.Metrics[d.Name] = driverValue{Value: r.E2E[d.Name], Unit: d.Unit}
		}
	}
	return out
}

// quantileNs is LogHistogram.Quantile with linear interpolation inside the
// landing bucket. The stock Quantile returns the bucket's upper edge, so a
// median that sits in one ~3 %-wide bucket reads identically run after run
// and then jumps a whole bucket; interpolating reports the digits the
// counts actually carry.
func quantileNs(h *stats.LogHistogram, q float64) float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i := 0; i < stats.LogHistBuckets; i++ {
		c := float64(h.CountAt(i))
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			frac := (rank - cum) / c
			return float64(stats.LogBucketLower(i)) + frac*float64(stats.LogBucketWidth(i))
		}
		cum += c
	}
	return float64(h.Max())
}

func us(ns float64) float64 { return ns / 1e3 }

// ratio is a/b, or 0 when b is 0 (a count that never happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// median of vs (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quartile(s, 2)
}

// quartile k (1..3) of sorted vs by the exclusive method, matching Python's
// statistics.quantiles(vs, n=4), which is what the driver computes; k=2 is
// the ordinary median. Below three values the outer quartiles clamp to the
// ends.
func quartile(vs []float64, k int) float64 {
	n := len(vs)
	pos := float64(k*(n+1))/4 - 1
	lo := min(max(int(pos), 0), n-2)
	if n == 1 || pos <= 0 {
		return vs[0]
	}
	return vs[lo] + min(pos-float64(lo), 1)*(vs[lo+1]-vs[lo])
}
