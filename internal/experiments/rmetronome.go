package experiments

import (
	"fmt"

	"metronome/internal/core"
	"metronome/internal/sched"
	"metronome/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "fig13-15-rmetronome",
		Title: "Shared-queue r-Metronome: uniform vs work-stealing backup selection, 2/3/4 queues",
		Paper: "Fig 13-15 scenario space under the shared-queue variants: stable r-member service groups vs the drifting adaptive discipline, and occupancy-ranked stealing vs the Sec. IV-E uniform pick when traffic is unbalanced",
		Run:   runRMetronome,
	})
}

// rmetronomePolicies are compared side by side (the comparison *is* the
// experiment).
var rmetronomePolicies = []string{sched.NameAdaptive, sched.NameRMetronome, sched.NameWorkSteal}

// rmetronomeSpec builds an N-queue deployment pinned to one discipline,
// with two threads per queue (r = 2) and a per-queue share vector. Queues
// get the DPDK-default 4096-descriptor rings the paper used for its
// loss-sensitive multiqueue runs (the 576-packet single-queue default sits
// right on the N_V cliff at these vacation targets and would turn every
// vacation-length delta into a loss cliff instead of a CPU/latency story).
func rmetronomeSpec(o Options, policy string, shares []float64, totalPPS, d float64, seedOff uint64) runSpec {
	cfg := core.DefaultConfig()
	cfg.M = 2 * len(shares)
	cfg.VBar = 15e-6
	cfg.Policy = policy
	cfg.RingCap = 4096
	procs := make([]traffic.Process, len(shares))
	for i, s := range shares {
		procs[i] = traffic.CBR{PPS: totalPPS * s}
	}
	return runSpec{
		cfg:    cfg,
		procs:  procs,
		dur:    d,
		warmup: d * 0.2,
		seed:   o.Seed + seedOff,
		// The telemetry bus rides along so the work-stealing variant ranks
		// backups by live queue occupancy instead of the rho EWMA.
		telemetry: true,
	}
}

func evenShares(nq int) []float64 {
	s := make([]float64, nq)
	for i := range s {
		s[i] = 1 / float64(nq)
	}
	return s
}

func runRMetronome(o Options) []*Table {
	d := dur(o, 0.6)

	// Panel 1 — balanced line rate, 2/3/4 queues, M = 2N: the shared-queue
	// variants against the drifting adaptive baseline.
	type point struct {
		nq     int
		policy string
	}
	var pts []point
	for _, nq := range []int{2, 3, 4} {
		for _, p := range rmetronomePolicies {
			pts = append(pts, point{nq, p})
		}
	}
	rows := parMap(o, len(pts), func(i int) []string {
		p := pts[i]
		spec := rmetronomeSpec(o, p.policy, evenShares(p.nq), xl710Rate, d, uint64(1200+i))
		_, met := runMetronome(spec)
		return []string{
			fmt.Sprintf("%d", p.nq),
			p.policy,
			pct(met.CPUPercent),
			pct(met.BusyTryFrac * 100),
			us(met.MeanVacation),
			permille(met.LossRate),
		}
	})
	balanced := &Table{
		ID:    "fig13-15-rmetronome-balanced",
		Title: "balanced 37 Mpps over N queues, M=2N, V̄=15us",
		Columns: []string{
			"queues", "policy", "cpu_pct", "busy_tries_pct", "V_us", "loss_permille",
		},
		Rows: rows,
		Notes: []string{
			"rmetronome/worksteal bind stable 2-member service groups per queue; eq. (13) runs with the integer group size instead of eq. (14)'s M/N average",
		},
	}

	// Panel 2 — unbalanced traffic (Table III's 30% hot flow shape, 3
	// queues): where backup selection matters. Work stealing re-targets
	// lost-race threads at the hottest queue instead of uniformly. The
	// Toeplitz hash decides which queue the heavy flow lands on, so locate
	// it by share instead of assuming an index (cf. TestTab3's hot queue).
	shares := traffic.UnbalancedShares(0.30, 3)
	hot := 0
	for i, s := range shares {
		if s > shares[hot] {
			hot = i
		}
	}
	specs := parMap(o, len(rmetronomePolicies), func(i int) struct {
		rt  *core.Runtime
		met core.Metrics
	} {
		spec := rmetronomeSpec(o, rmetronomePolicies[i], shares, xl710Rate, d, uint64(1300+i))
		rt, met := runMetronome(spec)
		return struct {
			rt  *core.Runtime
			met core.Metrics
		}{rt, met}
	})
	unbalanced := &Table{
		ID: "fig13-15-rmetronome-unbalanced",
		Title: fmt.Sprintf("unbalanced traffic (one %.0f%% hot queue of 37 Mpps), 3 queues, M=6",
			shares[hot]*100),
		Columns: []string{
			"policy", "cpu_pct", "busy_tries_pct", "loss_permille",
			"hot_q_cycles", "cold_q_cycles", "hot_rho",
		},
	}
	for i, p := range rmetronomePolicies {
		rt, met := specs[i].rt, specs[i].met
		var cold int64
		for q, c := range met.CyclesQ {
			if q != hot {
				cold += c
			}
		}
		unbalanced.Rows = append(unbalanced.Rows, []string{
			p,
			pct(met.CPUPercent),
			pct(met.BusyTryFrac * 100),
			permille(met.LossRate),
			fmt.Sprintf("%d", met.CyclesQ[hot]),
			fmt.Sprintf("%d", cold),
			f3(rt.Rho(hot)),
		})
	}
	unbalanced.Notes = append(unbalanced.Notes,
		"hot_q_cycles uses the multi-thread-per-queue cycle accounting (core.CyclesQ); worksteal directs backup turns at the hot queue",
	)

	// Panel 3 — service-turn fairness inside one group: per-thread cycle
	// split of the balanced 2-queue deployment, observable only with the
	// per-thread accounting.
	spec := rmetronomeSpec(o, sched.NameRMetronome, evenShares(2), xl710Rate, d, 1400)
	rt, _ := runMetronome(spec)
	fair := &Table{
		ID:      "fig13-15-rmetronome-turns",
		Title:   "service-turn split, rmetronome, 2 queues x 2-member groups",
		Columns: []string{"thread", "home_queue", "cycles", "share_pct"},
	}
	total := rt.Cycles
	for id, c := range rt.CyclesByThread {
		share := 0.0
		if total > 0 {
			share = float64(c) / float64(total) * 100
		}
		fair.Rows = append(fair.Rows, []string{
			fmt.Sprintf("#%d", id),
			fmt.Sprintf("%d", rt.Group().HomeQueue(id)),
			fmt.Sprintf("%d", c),
			pct(share),
		})
	}
	fair.Notes = append(fair.Notes,
		"members of one group take comparable turn shares: the CAS-claimed rotation does not starve a sibling",
	)

	// Panel 4 — turn-aware wake de-phasing: the same balanced deployments
	// with members staggered by TS/r off the service-turn counter
	// (sched.GroupPolicy.Dephase). The delta column is the busy-try rate
	// the stagger buys back; the vacation columns show the eq. (13) target
	// surviving it (the stagger is mean-preserving across one rotation).
	type dpt struct {
		mpps     float64
		nq       int
		dephased bool
	}
	var dpts []dpt
	for _, mpps := range []float64{30, 37} {
		for _, nq := range []int{2, 3} {
			for _, de := range []bool{false, true} {
				dpts = append(dpts, dpt{mpps, nq, de})
			}
		}
	}
	dpRows := parMap(o, len(dpts), func(i int) []string {
		p := dpts[i]
		spec := rmetronomeSpec(o, sched.NameRMetronome, evenShares(p.nq), p.mpps*1e6, d, uint64(1450+i))
		spec.cfg.Dephase = p.dephased
		_, met := runMetronome(spec)
		return []string{
			fmt.Sprintf("%.0f", p.mpps),
			fmt.Sprintf("%d", p.nq),
			fmt.Sprintf("%v", p.dephased),
			pct(met.BusyTryFrac * 100),
			us(met.MeanVacation),
			pct(met.CPUPercent),
			permille(met.LossRate),
		}
	})
	dephase := &Table{
		ID:    "fig13-15-rmetronome-dephase",
		Title: "turn-aware wake de-phasing: busy-try delta, balanced traffic, M=2N",
		Columns: []string{
			"mpps", "queues", "dephased", "busy_tries_pct", "V_us", "cpu_pct", "loss_permille",
		},
		Rows: dpRows,
		Notes: []string{
			"lost-race members re-enter on the rotation clock (B̄/2 + V̄ + d·(V̄+B̄)) instead of a blind r·TS backoff; winners keep the eq. (13) timeout, active only at rho >= 0.45",
		},
	}
	for _, mpps := range []float64{30, 37} {
		for _, nq := range []int{2, 3} {
			var base, deph float64
			for i, p := range dpts {
				if p.mpps != mpps || p.nq != nq {
					continue
				}
				var f float64
				fmt.Sscanf(dpRows[i][3], "%f", &f)
				if p.dephased {
					deph = f
				} else {
					base = f
				}
			}
			dephase.Notes = append(dephase.Notes,
				fmt.Sprintf("%.0f Mpps, %d queues: busy tries %.1f%% -> %.1f%% (delta %+.1f pp)",
					mpps, nq, base, deph, deph-base))
		}
	}

	return []*Table{balanced, unbalanced, fair, dephase}
}
