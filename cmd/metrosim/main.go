// Command metrosim runs one parameterized Metronome simulation and prints
// its steady-state metrics — the quickest way to explore the design space
// (threads, timeouts, queues, load) without writing code.
//
// Example:
//
//	metrosim -gbps 10 -m 3 -vbar 10us -tl 500us -dur 1s
//	metrosim -mpps 37 -queues 4 -m 5 -vbar 15us
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"metronome"
	"metronome/internal/experiments"
	"metronome/internal/sched"
	"metronome/internal/trace"
)

func main() {
	var (
		gbps     = flag.Float64("gbps", 0, "offered load in Gbit/s of 64B frames (overrides -mpps)")
		mpps     = flag.Float64("mpps", 14.88, "offered load in Mpps")
		m        = flag.Int("m", 3, "number of Metronome threads")
		queues   = flag.Int("queues", 1, "number of Rx queues (load split evenly)")
		vbar     = flag.Duration("vbar", 10*time.Microsecond, "target vacation period")
		tl       = flag.Duration("tl", 500*time.Microsecond, "backup (long) timeout")
		mu       = flag.Float64("mu", 29.76, "service rate, Mpps (l3fwd=29.76, ipsec=5.61, flowatcher=28)")
		capacity = flag.Int64("cap", 0, "Rx descriptor-ring capacity per queue (0 = nic default 576; the elastic occupancy target is a fraction of this)")
		d        = flag.Duration("dur", time.Second, "virtual duration to simulate")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		policy   = flag.String("policy", sched.NameAdaptive, "scheduling discipline: "+strings.Join(sched.Names(), "|")+" (fixed sleeps -vbar)")
		doTrace  = flag.Bool("trace", false, "print a 1ms thread-state timeline (Fig 3 style)")
		runs     = flag.Int("runs", 1, "independent replicas over seeds seed..seed+runs-1 (summary table + mean row)")
		parallel = flag.Int("parallel", 0, "replicas to simulate concurrently (0 = GOMAXPROCS)")

		elastic       = flag.Bool("elastic", false, "attach the elastic control plane: autoscale the thread team between -elastic-min and -elastic-budget")
		elasticMin    = flag.Int("elastic-min", 0, "elastic team floor (default: queue count)")
		elasticBudget = flag.Int("elastic-budget", 0, "elastic core budget / team ceiling (default: 2*m)")
		elasticPeriod = flag.Duration("elastic-period", time.Millisecond, "elastic control period")
		elasticOcc    = flag.Float64("elastic-occ", 0.10, "elastic wake-time occupancy target (fraction of ring capacity)")
		placement     = flag.Bool("placement", false, "upgrade -elastic to the placement plane: apportion members per queue by wake-occupancy share (requires -elastic)")
		slopeGain     = flag.Float64("slope-gain", 0, "elastic occupancy-slope feedforward lookahead, in control periods (0 = off)")
		objective     = flag.String("objective", "thread-seconds", "elastic cost objective: thread-seconds|joules (joules inflates the shrink target by the modelled energy saving)")
	)
	flag.Parse()

	// core.New panics on these; reject them here with a message instead.
	switch {
	case *vbar < 0:
		fail("-vbar must be >= 0, not %v", *vbar)
	case *tl < 0:
		fail("-tl must be >= 0, not %v", *tl)
	case *mu <= 0:
		fail("-mu must be > 0, not %v", *mu)
	}
	if _, err := sched.New(*policy, sched.Config{}); err != nil {
		fail("%v", err)
	}
	pps := *mpps * 1e6
	if *gbps > 0 {
		pps = metronome.LineRate64B(*gbps)
	}
	cfg := metronome.DefaultSimConfig()
	cfg.M = *m
	cfg.VBar = vbar.Seconds()
	cfg.TL = tl.Seconds()
	cfg.Mu = *mu * 1e6
	cfg.RingCap = *capacity
	cfg.Seed = *seed
	cfg.Policy = *policy
	if *queues < 1 || *m < *queues {
		fail("need queues >= 1 and m >= queues")
	}
	if *placement && !*elastic {
		fail("-placement requires -elastic")
	}
	if *objective != "thread-seconds" && *objective != "joules" {
		fail("-objective must be thread-seconds or joules, not %q", *objective)
	}
	if *placement {
		// Plans only land per queue when the discipline binds placeable
		// groups; against a roaming policy the controller would silently
		// run the scalar law, so reject the combination outright.
		probe := sched.MustNew(cfg.Policy, sched.Config{M: *m, N: *queues})
		if _, ok := probe.(sched.GroupPolicy); !ok {
			fail("-placement needs a placement-capable policy (rmetronome|worksteal), not %q", cfg.Policy)
		}
	}
	arrivals := make([]metronome.Traffic, *queues)
	for i := range arrivals {
		arrivals[i] = metronome.CBR{PPS: pps / float64(*queues)}
	}

	if *runs > 1 {
		if *doTrace {
			fail("-trace applies to single runs only")
		}
		if *elastic {
			fail("-elastic applies to single runs only")
		}
		runReplicas(cfg, arrivals, *d, *runs, *parallel, pps, *queues)
		return
	}

	if *elastic {
		ecfg := metronome.DefaultElasticConfig(*elasticMin, *elasticBudget)
		if ecfg.MinThreads <= 0 {
			ecfg.MinThreads = *queues
		}
		if ecfg.Budget <= 0 {
			ecfg.Budget = 2 * *m
		}
		ecfg.Period = elasticPeriod.Seconds()
		ecfg.TargetOccupancy = *elasticOcc
		ecfg.Placement = *placement
		ecfg.SlopeGain = *slopeGain
		if *objective == "joules" {
			ecfg.Objective = metronome.ElasticObjectiveJoules
		}
		met, rep, joules := metronome.SimulatePower(cfg, ecfg, metronome.PowerConfig{}, arrivals, *d)
		mode := "elastic"
		if *placement {
			mode = "placement-elastic"
		}
		mode += " (" + *objective + ")"
		fmt.Printf("offered:        %.2f Mpps over %d queue(s), %v, policy %s, %s %d..%d\n",
			pps/1e6, *queues, *d, cfg.Policy, mode, ecfg.MinThreads, ecfg.Budget)
		fmt.Printf("throughput:     %.2f Mpps   loss: %.4f permille\n", met.ThroughputPPS/1e6, met.LossRate*1000)
		fmt.Printf("cpu:            %.1f%% total\n", met.CPUPercent)
		fmt.Printf("vacation:       mean %.2f us (target %v)\n", met.MeanVacation*1e6, *vbar)
		fmt.Printf("team:           %.2f mean threads (%d..%d seen), %d resizes, %.1f thread-ms provisioned, final M=%d\n",
			rep.MeanThreads, rep.MinThreads, rep.MaxThreads, rep.Resizes, rep.ThreadSeconds*1e3, rep.Final)
		if rep.FinalPlan != nil {
			fmt.Printf("placement:      %d rebalances, final plan %v\n", rep.Rebalances, rep.FinalPlan)
		}
		fmt.Printf("energy:         %.2f J modelled over the team budget (%.2f W mean; controller gauge %.2f W)\n",
			joules, joules/d.Seconds(), rep.MeanWatts)
		fmt.Printf("busy tries:     %.1f%% of %d lock attempts, %d cycles\n",
			met.BusyTryFrac*100, met.Tries, met.Cycles)
		return
	}

	var rec *trace.Recorder
	if *doTrace {
		// record a 1ms window from the middle of the run
		mid := d.Seconds() / 2
		rec = trace.NewRecorder(mid, mid+1e-3)
		cfg.Tracer = rec
	}

	met := metronome.Simulate(cfg, arrivals, *d)

	if rec != nil {
		rec.Render(os.Stdout, 110)
		fmt.Println()
	}

	fmt.Printf("offered:        %.2f Mpps over %d queue(s), %v, policy %s\n",
		pps/1e6, *queues, *d, cfg.Policy)
	fmt.Printf("throughput:     %.2f Mpps   loss: %.4f permille\n", met.ThroughputPPS/1e6, met.LossRate*1000)
	fmt.Printf("cpu:            %.1f%% total across %d threads (static polling would be %d00%%)\n",
		met.CPUPercent, *m, *queues)
	fmt.Printf("vacation:       mean %.2f us (target %v)\n", met.MeanVacation*1e6, *vbar)
	fmt.Printf("busy period:    mean %.2f us   N_V: %.1f pkts\n", met.MeanBusy*1e6, met.MeanNV)
	fmt.Printf("latency (us):   min=%.2f q1=%.2f med=%.2f q3=%.2f max=%.2f mean=%.2f (n=%d tagged)\n",
		met.Latency.Min*1e6, met.Latency.Q1*1e6, met.Latency.Median*1e6,
		met.Latency.Q3*1e6, met.Latency.Max*1e6, met.Latency.Mean*1e6, met.Latency.N)
	fmt.Printf("busy tries:     %.1f%% of %d lock attempts, %d cycles\n",
		met.BusyTryFrac*100, met.Tries, met.Cycles)
	for q := range arrivals {
		fmt.Printf("queue %d:        rho=%.3f  TS=%.2f us\n", q, met.RhoEst[q], met.TSNow[q]*1e6)
	}
}

// runReplicas simulates the same deployment across consecutive seeds on a
// bounded worker pool and prints one summary row per seed plus the mean —
// the quickest read on run-to-run variance for a design point. Results are
// collected by seed index, so output is identical at any -parallel.
func runReplicas(cfg metronome.SimConfig, arrivals []metronome.Traffic, d time.Duration, runs, parallel int, pps float64, queues int) {
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	mets := experiments.ParMap(workers, runs, func(i int) metronome.SimMetrics {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		return metronome.Simulate(c, arrivals, d)
	})

	fmt.Printf("offered:  %.2f Mpps over %d queue(s), %v x %d seeds, policy %s, %d worker(s)\n",
		pps/1e6, queues, d, runs, cfg.Policy, workers)
	fmt.Printf("%-6s %10s %9s %9s %10s %12s %12s\n",
		"seed", "tput_mpps", "cpu_pct", "V_us", "lat_us", "busy_tries%", "loss_permille")
	var tput, cpu, vac, lat, bt, loss float64
	for i, m := range mets {
		fmt.Printf("%-6d %10.2f %9.1f %9.2f %10.2f %12.1f %12.4f\n",
			cfg.Seed+uint64(i), m.ThroughputPPS/1e6, m.CPUPercent, m.MeanVacation*1e6,
			m.Latency.Mean*1e6, m.BusyTryFrac*100, m.LossRate*1000)
		tput += m.ThroughputPPS
		cpu += m.CPUPercent
		vac += m.MeanVacation
		lat += m.Latency.Mean
		bt += m.BusyTryFrac
		loss += m.LossRate
	}
	n := float64(runs)
	fmt.Printf("%-6s %10.2f %9.1f %9.2f %10.2f %12.1f %12.4f\n",
		"mean", tput/n/1e6, cpu/n, vac/n*1e6, lat/n*1e6, bt/n*100, loss/n*1000)
}

// fail reports a usage error and exits 1.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "metrosim: "+format+"\n", args...)
	os.Exit(1)
}
