// Command bench is the repository's benchmark: the live sleep&wake path
// (generator -> ring -> timed wake -> trylock -> drain -> process ->
// recycle in internal/runtime) measured end to end and layer by layer,
// plus the discrete-event twin at line rate. README.md beside this file is
// the metric dictionary; BENCHMARK.json at the repo root is the contract.
//
//	go run ./bench -workload all -seed 1            # every workload, human report
//	go run ./bench -workload light_cbr -trace 1     # + traced run, per-layer numbers, span dump
//	go run ./bench -workload all -repeat 5          # spreads against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named operating point. Later issues refer to the names.
type workload struct {
	name, why string
	seconds   float64 // measured seconds when -seconds is not given

	sim    bool // discrete-event twin instead of the live runner
	queues int
	policy string
	m      int
	app    string // "l3fwd" | "flowatcher"

	// Traffic. Open loop: `on` of every `period` at peakPPS (period 0: CBR
	// at peakPPS). Closed loop: back-to-back bursts, spinning for room on backpressure.
	closed     bool
	peakPPS    float64
	period, on time.Duration
}

var workloads = []*workload{
	{
		name: "light_cbr", seconds: 15,
		why:    "open loop, CBR 0.1 Mpps, 1 queue, adaptive M=3, l3fwd: CPU proportional to load; sleep precision, TS choice and wake-to-lock do all the work",
		queues: 1, policy: "adaptive", m: 3, app: "l3fwd", peakPPS: 0.1e6,
	},
	{
		name: "bursty_2q", seconds: 15,
		why:    "open loop, 2 Mpps bursts at 25% duty every 2 ms (0.5 Mpps mean), 2 RSS queues, rmetronome M=4, sharded flowatcher: group turns, swinging rho, per-flow state writes",
		queues: 2, policy: "rmetronome", m: 4, app: "flowatcher", peakPPS: 2e6,
		period: 2 * time.Millisecond, on: 500 * time.Microsecond,
	},
	{
		name: "saturate_l3fwd", seconds: 12,
		why:    "closed loop, 32-bursts with spin on backpressure, 1 queue, adaptive M=3, l3fwd: the retrieval team is the bottleneck, so per-packet cost sets the result and sleeping does nothing",
		queues: 1, policy: "adaptive", m: 3, app: "l3fwd", closed: true,
	},
	{
		name: "sim_linerate", seconds: 10,
		why: "discrete-event twin, rmetronome M=4, 2 queues x Poisson 7 Mpps: shares sched with the live runner and is what every metrobench sweep pays for; deterministic per seed",
		sim: true, queues: simQueues, policy: "rmetronome", m: 4,
	},
}

type options struct {
	workload string
	seed     uint64
	seconds  float64 // 0: each workload's own default
	trace    int
	json     bool
	repeat   int
	out      string
}

// quick marks sub-second smoke runs: one set-up instead of five, shorter
// isolated timing loops. Nothing measured at that scale is meaningful.
func (o options) quick() bool { return o.seconds < 1 }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed for frames, flows, RSS split and the simulator")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (0: the workload's default)")
	fs.IntVar(&o.trace, "trace", 0, "1: add a traced second run for the per-layer metrics and the span dump")
	fs.BoolVar(&o.json, "json", false, "print the full report as one JSON document instead of text")
	fs.IntVar(&o.repeat, "repeat", 0, "run N sets and print median, quartiles and spread per metric")
	fs.StringVar(&o.out, "out", "bench/out", "directory for the traced run's Chrome/Perfetto span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []*workload
	for _, wl := range workloads {
		if o.workload == "all" || o.workload == wl.name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 || o.seconds < 0 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintf(stderr, "bench: unknown workload %q or bad -seconds/-trace; workloads: %s\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	// Two Ps whatever the host has: one for the OS-thread-locked generator,
	// one for the retrieval team, so numbers do not depend on core count.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))

	rep := report{Host: hostInfo()}
	sets := max(o.repeat, 1)
	for set := 0; set < sets; set++ {
		for _, wl := range selected {
			var r *result
			if o.repeat == 0 {
				r = runWorkload(wl, o)
			} else {
				// One process per run, as the driver does it: rss_mb is a
				// process high-water mark and the heap starts clean.
				var err error
				if r, err = runInChild(wl, o); err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
			}
			rep.Results = append(rep.Results, r)
			if !o.json {
				r.print(stdout)
				fmt.Fprintf(stdout, " host: %s generator.late_max_us=%.1f\n\n", rep.Host, r.Layers["generator.late_max_us"])
			}
		}
	}
	if o.repeat > 0 && !o.json {
		printSpreads(stdout, rep.Results)
	}
	if o.json {
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// The contract line: last on stdout, one object, for the last workload run.
	last := rep.Results[len(rep.Results)-1]
	if err := json.NewEncoder(stdout).Encode(last.driverLine()); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, r := range rep.Results {
		if !r.correct() {
			fmt.Fprintf(stderr, "bench: %s seed %d failed a correctness check\n", r.Workload, r.Seed)
			return 1
		}
	}
	return 0
}

// runInChild re-executes this binary for one workload and returns the
// result from its -json report.
func runInChild(wl *workload, o options) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", wl.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-out", o.out, "-json")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var rep report
	// A failed check exits non-zero but still prints the report.
	if jerr := json.NewDecoder(bytes.NewReader(out)).Decode(&rep); jerr != nil || len(rep.Results) != 1 {
		return nil, fmt.Errorf("%s in a child process: %v, %v", wl.name, err, jerr)
	}
	return rep.Results[0], nil
}

func workloadNames() []string {
	var out []string
	for _, wl := range workloads {
		out = append(out, wl.name)
	}
	return out
}

// runWorkload makes the untraced run every end-to-end number comes from
// and, with -trace 1, a second, traced run for the per-layer numbers; the
// difference in retrieval CPU between the two is the tracing overhead.
func runWorkload(wl *workload, o options) *result {
	if o.seconds == 0 {
		o.seconds = wl.seconds
	}
	one := runLive
	if wl.sim {
		one = runSim
	}
	plain := one(wl, o, false)
	r := &result{
		Workload: wl.name, Seed: o.seed, Seconds: o.seconds,
		Attempted: plain.attempted, Failed: plain.failed, Samples: plain.samples,
		E2E: metrics{}, Layers: metrics{}, Checks: plain.checks,
	}
	layers := plain
	if o.trace == 1 {
		r.Traced = true
		layers = one(wl, o, true)
		for _, c := range layers.checks {
			c.Name = "traced." + c.Name
			r.Checks = append(r.Checks, c)
		}
		if rusageAvailable {
			a, b := plain.retrievalCPU/plain.wall, layers.retrievalCPU/layers.wall
			layers.m["trace.overhead_pct"] = 100 * ratio(b-a, a)
		}
	}
	for _, d := range endToEnd {
		if v, ok := plain.m[d.Name]; ok {
			r.E2E[d.Name] = v
		}
	}
	for _, d := range perLayer {
		if v, ok := layers.m[d.Name]; ok {
			r.Layers[d.Name] = v
		}
	}
	for _, m := range []metrics{r.E2E, r.Layers} {
		for name, v := range m {
			if !finite(v) {
				r.Checks.add("finite", false, "%s = %v", name, v)
			}
		}
	}
	return r
}

// report is the -json document.
type report struct {
	Host    host      `json:"host"`
	Results []*result `json:"results"`
}

// host is the fingerprint printed with every result: numbers from two
// hosts that differ here are not comparable.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	OSArch     string `json:"os_arch"`
}

func hostInfo() host {
	return host{
		NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), GoVersion: goruntime.Version(),
		Kernel: kernelRelease(), OSArch: goruntime.GOOS + "/" + goruntime.GOARCH,
	}
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s kernel=%s", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.Kernel)
}

// printSpreads folds -repeat's sets: per workload and metric the median,
// the quartiles, (max-min)/median, and for gated end-to-end metrics the
// interquartile spread against the bound — the acceptance rule of the
// benchmark contract.
func printSpreads(w io.Writer, results []*result) {
	byWL := map[string][]*result{}
	var order []string
	for _, r := range results {
		if _, seen := byWL[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		byWL[r.Workload] = append(byWL[r.Workload], r)
	}
	for _, name := range order {
		rs := byWL[name]
		fmt.Fprintf(w, "== %s: spread over %d sets ==\n", name, len(rs))
		fmt.Fprintf(w, "  %-28s %14s %14s %14s %10s %10s\n", "metric", "median", "q1", "q3", "range/med", "iqr/med")
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				var vs []float64
				for _, r := range rs {
					m := r.Layers
					if _, e2e := r.E2E[d.Name]; e2e {
						m = r.E2E
					}
					if v, ok := m[d.Name]; ok {
						vs = append(vs, v)
					}
				}
				if len(vs) == 0 {
					continue
				}
				sort.Float64s(vs)
				med, q1, q3 := median(vs), quartile(vs, 1), quartile(vs, 3)
				flag := ""
				switch {
				case d.Gated && d.Name != "setup_s" && ratio(q3-q1, med) > d.Bound:
					flag = fmt.Sprintf("  SPREAD > bound %.0f%%", 100*d.Bound)
				case d.Name == "loss_pct" && vs[len(vs)-1]-vs[0] > lossBoundPP:
					flag = fmt.Sprintf("  SPREAD > bound %.2f pp", lossBoundPP)
				}
				fmt.Fprintf(w, "  %-28s %14.4f %14.4f %14.4f %9.2f%% %9.2f%%%s\n", d.Name, med, q1, q3,
					100*ratio(vs[len(vs)-1]-vs[0], med), 100*ratio(q3-q1, med), flag)
			}
		}
		fmt.Fprintln(w)
	}
}
