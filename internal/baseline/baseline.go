// Package baseline implements the two comparators of the paper's
// evaluation: classic continuously-polling DPDK (Listing 1) and the
// XDP/NAPI interrupt path of Sec. V-D.
//
// The static poller is no longer a closed form: Static runs the shared
// sched engine's "busypoll" discipline over the discrete-event substrate —
// one pinned polling thread per queue, exactly Listing 1 — so its CPU,
// loss and latency come out of the same queue/NIC/Tx-batch model every
// Metronome number does, instead of a parallel set of formulas that could
// drift from it. Only the time-shared case (CPUShare < 1) keeps a thin
// analytical layer on top: CFS deschedules a poller for whole
// milliseconds-scale slices, far below the event resolution worth
// simulating, and no Rx ring buffers such an outage — so delivered
// throughput scales with the obtained share (Table II's observation).
//
// XDP stays closed-form: its behaviour is characterised by per-packet
// kernel-path cost and per-queue core binding, not by event dynamics this
// simulator models.
package baseline

import (
	"math"

	"metronome/internal/core"
	"metronome/internal/nic"
	"metronome/internal/sched"
	"metronome/internal/sim"
	"metronome/internal/stats"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// StaticConfig describes a static-polling deployment.
type StaticConfig struct {
	// Mu is the per-core service rate in packets/second at full speed.
	Mu float64
	// Cores is the number of polling cores (one queue each, as DPDK
	// requires without Metronome's lock sharing).
	Cores int
	// CPUShare scales the CPU fraction each polling thread actually
	// obtains (< 1 when time-sharing with other tasks, Table II).
	CPUShare float64
	// BaseLatency is the wire+NIC+DMA floor.
	BaseLatency float64
	// Burst is the rx/tx burst size (32 in the paper's appendix); it sets
	// the Tx flush batch of the simulated queues.
	Burst float64
	// Dur is the simulated steady-state window in seconds (default 50 ms,
	// after a 20% warm-up that is discarded).
	Dur float64
	// Seed drives the simulation's randomness.
	Seed uint64
}

// DefaultStatic mirrors the paper's l3fwd static deployment.
func DefaultStatic() StaticConfig {
	return StaticConfig{
		Mu: 29.76e6, Cores: 1, CPUShare: 1, BaseLatency: 6.8e-6, Burst: 32,
		Dur: 50e-3, Seed: 7,
	}
}

// Result is the steady-state outcome for a baseline under offered load.
type Result struct {
	CPUPercent    float64
	ThroughputPPS float64
	LossRate      float64
	LatencyMean   float64
	LatencyStd    float64
	Latency       stats.Boxplot
	CoresUsed     int
}

// Static evaluates continuous polling under an offered load of lambda
// packets/second split evenly over the configured cores, by simulating the
// sched engine's busypoll discipline: Cores pinned threads, one queue
// each, zero timeouts — Listing 1 on the discrete-event substrate.
func Static(cfg StaticConfig, lambda float64) Result {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.CPUShare <= 0 || cfg.CPUShare > 1 {
		cfg.CPUShare = 1
	}
	if cfg.Mu <= 0 {
		cfg.Mu = DefaultStatic().Mu
	}
	if cfg.Dur <= 0 {
		cfg.Dur = 50e-3
	}
	eng := sim.New()
	root := xrand.New(cfg.Seed ^ 0xd1b54a32d192ed03)
	queues := make([]*nic.Queue, cfg.Cores)
	for i := range queues {
		opt := nic.DefaultOptions()
		opt.BaseLatency = cfg.BaseLatency
		if cfg.Burst >= 1 {
			opt.TxBatch = int(cfg.Burst)
		}
		queues[i] = nic.NewQueue(i, traffic.CBR{PPS: lambda / float64(cfg.Cores)},
			root.Split(), opt)
	}
	simCfg := core.DefaultConfig()
	simCfg.M = cfg.Cores
	simCfg.Mu = cfg.Mu
	simCfg.Policy = sched.NameBusyPoll
	simCfg.Seed = cfg.Seed
	rt := core.New(eng, queues, simCfg)
	rt.Start()
	warm := cfg.Dur * 0.2
	eng.RunUntil(warm)
	rt.ResetWindow(eng.Now())
	eng.RunUntil(warm + cfg.Dur)
	m := rt.Snapshot(cfg.Dur)

	// Time sharing (CPUShare < 1) is sub-event-scale: CFS deschedules the
	// poller for whole milliseconds-scale slices no Rx ring can buffer, so
	// delivered throughput scales with the obtained share on top of the
	// full-share simulation.
	tput := m.ThroughputPPS * cfg.CPUShare
	loss := m.LossRate
	if cfg.CPUShare < 1 && lambda > 0 {
		loss = 1 - tput/lambda
		if loss < 0 {
			loss = 0
		}
	}
	return Result{
		CPUPercent:    m.CPUPercent, // ~100% per polling core, now measured
		ThroughputPPS: tput,
		LossRate:      loss,
		LatencyMean:   m.Latency.Mean,
		LatencyStd:    m.LatencyStd,
		Latency:       m.Latency,
		CoresUsed:     cfg.Cores,
	}
}

// XDPConfig describes the xdp_router_ipv4-style deployment of Sec. V-D.
type XDPConfig struct {
	// CostPerPkt is the kernel-path cost per packet in seconds (driver rx,
	// per-interrupt housekeeping amortised by NAPI, eBPF program, redirect).
	CostPerPkt float64
	// IRQCost is the extra per-interrupt cost paid when the rate is too
	// low for NAPI to stay in polling mode.
	IRQCost float64
	// NAPIBatch is the polling batch; rates above NAPIBatch interrupts/s
	// per core amortise IRQCost away.
	NAPIBatch float64
	// BaseLatency is the floor of the kernel path (higher than DPDK's).
	BaseLatency float64
}

// DefaultXDP is calibrated so that four ixgbe cores saturate at the
// 13.57 Mpps the paper measured on the X520 (Sec. V-D).
func DefaultXDP() XDPConfig {
	return XDPConfig{
		CostPerPkt:  295e-9,
		IRQCost:     2e-6,
		NAPIBatch:   64,
		BaseLatency: 9e-6,
	}
}

// XDP evaluates the interrupt-driven baseline with the load split over
// `cores` 1:1 queue-to-core bindings.
func XDP(cfg XDPConfig, lambda float64, cores int) Result {
	if cores < 1 {
		cores = 1
	}
	perCore := lambda / float64(cores)
	// Below ~NAPIBatch packets per interrupt the per-IRQ cost surfaces.
	cost := cfg.CostPerPkt
	if perCore > 0 {
		irqPerPacket := 1 / math.Max(1, perCore*cfg.CostPerPkt*cfg.NAPIBatch)
		if irqPerPacket > 1 {
			irqPerPacket = 1
		}
		cost += cfg.IRQCost * irqPerPacket / cfg.NAPIBatch * 4 // residual softirq work
	}
	util := perCore * cost
	muCore := 1 / cost
	tputCore := math.Min(perCore, muCore)
	loss := 0.0
	if lambda > 0 {
		loss = 1 - tputCore*float64(cores)/lambda
		if loss < 0 {
			loss = 0
		}
	}
	if util > 1 {
		util = 1
	}
	// NAPI sheds overload by dropping at the driver, so the softirq queue
	// saturates around ~90% effective occupancy rather than diverging; the
	// latency inflation is bounded accordingly (Fig 10a shows XDP worst at
	// line rate but not unbounded).
	rho := perCore / muCore
	if rho > 0.90 {
		rho = 0.90
	}
	mean := cfg.BaseLatency + cost + rho/(1-rho)*cost*10
	std := 2e-6 + rho/(1-rho)*1e-6
	return Result{
		CPUPercent:    util * 100 * float64(cores),
		ThroughputPPS: tputCore * float64(cores),
		LossRate:      loss,
		LatencyMean:   mean,
		LatencyStd:    std,
		Latency:       synthBox(mean, std, 1, cfg.BaseLatency),
		CoresUsed:     cores,
	}
}

// BurstAdaptationLoss estimates the packets XDP loses when a line-rate
// burst arrives while it is deployed on a single queue/core and must be
// manually re-scaled with ethtool (Sec. V-D: "some tens of thousands").
func BurstAdaptationLoss(cfg XDPConfig, burstPPS float64, reconfigDelay float64) float64 {
	muCore := 1 / cfg.CostPerPkt
	excess := burstPPS - muCore
	if excess <= 0 {
		return 0
	}
	return excess * reconfigDelay
}

// synthBox synthesises a five-number summary from a mean and standard
// deviation using normal-order statistics — the baselines are closed-form,
// but the figures want boxplots comparable to Metronome's sampled ones.
// floor clamps the physical minimum (no packet beats the wire+DMA path).
func synthBox(mean, std float64, seed uint64, floor float64) stats.Boxplot {
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	var s stats.Sample
	for i := 0; i < 2001; i++ {
		v := mean + std*rng.NormFloat64()
		if v < floor {
			v = floor
		}
		s.Add(v)
	}
	return s.Box()
}
