package baseline

import (
	"math"
	"testing"
)

// Static is now a measured quantity (the busypoll discipline simulated on
// the shared engine), so CPU is ~100% per core within the window-boundary
// rounding of the accounting, not 100 by construction.
func TestStaticAlwaysBurnsItsCores(t *testing.T) {
	cfg := DefaultStatic()
	for _, lambda := range []float64{0, 0.744e6, 14.88e6} {
		r := Static(cfg, lambda)
		if r.CPUPercent < 99.9 || r.CPUPercent > 100.1 {
			t.Errorf("lambda=%v: CPU=%v%%, polling must burn ~100%%", lambda, r.CPUPercent)
		}
	}
	cfg.Cores = 4
	if r := Static(cfg, 0); r.CPUPercent < 399.6 || r.CPUPercent > 400.4 {
		t.Errorf("4-core static CPU = %v%%", r.CPUPercent)
	}
}

func TestStaticLineRateNoLoss(t *testing.T) {
	r := Static(DefaultStatic(), 14.88e6)
	if r.LossRate != 0 {
		t.Errorf("loss = %v", r.LossRate)
	}
	if math.Abs(r.ThroughputPPS-14.88e6)/14.88e6 > 1e-3 {
		t.Errorf("tput = %v", r.ThroughputPPS)
	}
}

func TestStaticLatencyNearPaperFloor(t *testing.T) {
	r := Static(DefaultStatic(), 14.88e6)
	// Paper: DPDK minimum ~6.83us, mean ~7us, tight variance.
	if r.LatencyMean < 6.8e-6 || r.LatencyMean > 8.5e-6 {
		t.Errorf("static latency mean = %.2f us", r.LatencyMean*1e6)
	}
	if r.LatencyStd > 1e-6 {
		t.Errorf("static latency std = %v", r.LatencyStd)
	}
}

func TestStaticSharedCoreHalvesThroughput(t *testing.T) {
	// Table II: static DPDK sharing its core with ferret -> 7.34 Mpps.
	cfg := DefaultStatic()
	cfg.CPUShare = 0.5
	r := Static(cfg, 14.88e6)
	if r.ThroughputPPS < 6.5e6 || r.ThroughputPPS > 8.5e6 {
		t.Errorf("shared-core throughput = %.2f Mpps, paper 7.34", r.ThroughputPPS/1e6)
	}
	if r.LossRate < 0.4 {
		t.Errorf("loss = %v", r.LossRate)
	}
}

func TestXDPZeroTrafficZeroCPU(t *testing.T) {
	r := XDP(DefaultXDP(), 0, 4)
	if r.CPUPercent != 0 {
		t.Errorf("XDP idle CPU = %v%% (interrupt-driven must be 0)", r.CPUPercent)
	}
}

func TestXDPSaturationMatchesPaper(t *testing.T) {
	// Sec. V-D: 4 ixgbe cores top out at ~13.57 Mpps with 64B packets.
	r := XDP(DefaultXDP(), 14.88e6, 4)
	if r.ThroughputPPS < 13.0e6 || r.ThroughputPPS > 14.2e6 {
		t.Errorf("XDP max tput = %.2f Mpps, paper 13.57", r.ThroughputPPS/1e6)
	}
	if r.LossRate <= 0 {
		t.Error("XDP at line rate should lose packets")
	}
	if r.CPUPercent < 350 {
		t.Errorf("XDP at saturation CPU = %v%%, want ~400%%", r.CPUPercent)
	}
}

func TestXDPCPUHigherThanMetronomeWouldBe(t *testing.T) {
	// Fig 10b at 5 Gbps: XDP's 4-core kernel path costs much more CPU
	// than DPDK-class userspace processing.
	r := XDP(DefaultXDP(), 7.44e6, 4)
	if r.CPUPercent < 150 || r.CPUPercent > 280 {
		t.Errorf("XDP @5G CPU = %v%%, paper ~200%%+", r.CPUPercent)
	}
}

func TestXDPLowRateSingleCore(t *testing.T) {
	// 1 Gbps on one core: paper shows moderate CPU, far below 100%.
	r := XDP(DefaultXDP(), 1.488e6, 1)
	if r.CPUPercent < 30 || r.CPUPercent > 70 {
		t.Errorf("XDP @1G CPU = %v%%", r.CPUPercent)
	}
	if r.LossRate != 0 {
		t.Errorf("loss at 1G = %v", r.LossRate)
	}
}

func TestXDPLatencyAboveDPDK(t *testing.T) {
	x := XDP(DefaultXDP(), 1.488e6, 1)
	d := Static(DefaultStatic(), 1.488e6)
	if x.LatencyMean <= d.LatencyMean {
		t.Errorf("XDP latency %.1fus <= DPDK %.1fus", x.LatencyMean*1e6, d.LatencyMean*1e6)
	}
	// At saturation the interrupt path queues up hard (Fig 10a).
	sat := XDP(DefaultXDP(), 14.88e6, 4)
	if sat.LatencyMean < 2*x.LatencyMean {
		t.Errorf("saturated XDP latency %.1fus not clearly worse", sat.LatencyMean*1e6)
	}
}

func TestSynthBoxSane(t *testing.T) {
	b := synthBox(10e-6, 1e-6, 7, 0)
	if !(b.Min < b.Q1 && b.Q1 < b.Median && b.Median < b.Q3 && b.Q3 < b.Max) {
		t.Errorf("degenerate boxplot: %+v", b)
	}
	if math.Abs(b.Mean-10e-6) > 0.2e-6 {
		t.Errorf("synth mean = %v", b.Mean)
	}
}
