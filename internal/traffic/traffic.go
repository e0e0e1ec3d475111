// Package traffic models the workloads MoonGen generated in the paper's
// testbed: constant-bit-rate streams, Poisson arrivals, the
// rate-control-methods.lua ramp used in the adaptation experiment, ON/OFF
// bursts, and the unbalanced flow mix of the multiqueue tests.
//
// A Process answers two questions the cycle-level simulator asks:
// the instantaneous arrival rate (for fluid busy-period drains) and the
// number of arrivals in an interval (for vacation-period accumulation).
package traffic

import (
	"math"

	"metronome/internal/packet"
	"metronome/internal/xrand"
)

// Process is an arrival process over virtual time (seconds -> packets).
type Process interface {
	// Rate returns the instantaneous arrival rate in packets/second at t.
	Rate(t float64) float64
	// CountIn returns the number of arrivals in [t0, t1). Deterministic
	// processes ignore rng.
	CountIn(t0, t1 float64, rng *xrand.Rand) int64
}

// MeanIn integrates Rate over [t0,t1) by midpoint steps; processes with
// piecewise-constant rates are integrated exactly by construction.
func MeanIn(p Process, t0, t1 float64, steps int) float64 {
	if t1 <= t0 {
		return 0
	}
	if steps < 1 {
		steps = 1
	}
	h := (t1 - t0) / float64(steps)
	sum := 0.0
	for i := 0; i < steps; i++ {
		sum += p.Rate(t0+(float64(i)+0.5)*h) * h
	}
	return sum
}

// CBR is a constant-bit-rate stream of PPS packets per second, the
// p2p throughput workload of the paper (14.88 Mpps of 64B frames fills a
// 10G link).
type CBR struct {
	PPS float64
}

// Rate implements Process.
func (c CBR) Rate(float64) float64 { return c.PPS }

// CountIn returns the deterministic arrival count: arrivals sit on the
// grid k/PPS, so the count in [t0,t1) is floor(t1*PPS) - floor(t0*PPS).
func (c CBR) CountIn(t0, t1 float64, _ *xrand.Rand) int64 {
	if t1 <= t0 || c.PPS <= 0 {
		return 0
	}
	n := int64(math.Floor(t1*c.PPS)) - int64(math.Floor(t0*c.PPS))
	if n < 0 {
		return 0
	}
	return n
}

// Rate64B converts a line rate in Gbit/s to packets/second of 64-byte
// frames including the 20B/frame Ethernet overhead (preamble + IPG), the
// conversion behind the paper's 14.88 Mpps figure for 10G.
func Rate64B(gbps float64) float64 {
	const bitsPerFrame = (64 + 20) * 8
	return gbps * 1e9 / bitsPerFrame
}

// Poisson is a memoryless arrival process with mean rate Lambda.
type Poisson struct {
	Lambda float64
}

// Rate implements Process.
func (p Poisson) Rate(float64) float64 { return p.Lambda }

// CountIn samples a Poisson count with mean Lambda*(t1-t0).
func (p Poisson) CountIn(t0, t1 float64, rng *xrand.Rand) int64 {
	if t1 <= t0 || p.Lambda <= 0 {
		return 0
	}
	return rng.Poisson(p.Lambda * (t1 - t0))
}

// Ramp reproduces the modified rate-control-methods.lua run of Sec. V-B:
// over Duration seconds the rate climbs in steps of StepEvery seconds from
// ~0 to Peak at Duration/2, then descends symmetrically.
type Ramp struct {
	Peak      float64 // packets/second at the apex
	Duration  float64 // seconds for the full up-down sweep
	StepEvery float64 // step quantisation (2 s in the paper)
}

// Rate implements Process; it is piecewise constant over StepEvery buckets.
func (r Ramp) Rate(t float64) float64 {
	if t < 0 || t > r.Duration || r.Duration <= 0 {
		return 0
	}
	if r.StepEvery > 0 {
		t = math.Floor(t/r.StepEvery) * r.StepEvery
	}
	half := r.Duration / 2
	var frac float64
	if t <= half {
		frac = t / half
	} else {
		frac = (r.Duration - t) / half
	}
	return r.Peak * frac
}

// CountIn integrates the piecewise-constant rate exactly. Buckets iterate
// by integer index: floating-point boundary arithmetic must never be the
// loop variable, or a boundary that rounds onto itself spins forever.
func (r Ramp) CountIn(t0, t1 float64, _ *xrand.Rand) int64 {
	if t1 <= t0 {
		return 0
	}
	step := r.StepEvery
	if step <= 0 {
		return int64(r.Rate((t0+t1)/2) * (t1 - t0))
	}
	k0 := int64(math.Floor(t0 / step))
	k1 := int64(math.Floor(t1 / step))
	total := 0.0
	for k := k0; k <= k1; k++ {
		lo := math.Max(t0, float64(k)*step)
		hi := math.Min(t1, float64(k+1)*step)
		if hi > lo {
			total += r.Rate((lo+hi)/2) * (hi - lo)
		}
	}
	return int64(total)
}

// OnOff alternates OnDur seconds of CBR at PPS with OffDur seconds of
// silence — the burst-arrival shape used to contrast Metronome's
// reactivity with XDP's adaptation loss (Sec. V-D).
type OnOff struct {
	PPS             float64
	OnDur, OffDur   float64
	InitiallySilent bool
}

func (o OnOff) period() float64 { return o.OnDur + o.OffDur }

// Rate implements Process.
func (o OnOff) Rate(t float64) float64 {
	if o.period() <= 0 {
		return 0
	}
	phase := math.Mod(t, o.period())
	if o.InitiallySilent {
		if phase < o.OffDur {
			return 0
		}
		return o.PPS
	}
	if phase < o.OnDur {
		return o.PPS
	}
	return 0
}

// CountIn integrates the on fractions exactly, iterating whole periods by
// integer index so float boundary rounding cannot stall the loop.
func (o OnOff) CountIn(t0, t1 float64, _ *xrand.Rand) int64 {
	p := o.period()
	if t1 <= t0 || p <= 0 || o.PPS <= 0 {
		return 0
	}
	// The on-window within period k.
	onStart, onEnd := 0.0, o.OnDur
	if o.InitiallySilent {
		onStart, onEnd = o.OffDur, p
	}
	k0 := int64(math.Floor(t0 / p))
	k1 := int64(math.Floor(t1 / p))
	total := 0.0
	for k := k0; k <= k1; k++ {
		base := float64(k) * p
		lo := math.Max(t0, base+onStart)
		hi := math.Min(t1, base+onEnd)
		if hi > lo {
			total += o.PPS * (hi - lo)
		}
	}
	return int64(total)
}

// Sine is a diurnal-shaped arrival process: rate Base + Amp*sin(2*pi*t/
// Period), the day/night load curve of the elastic-scaling experiments
// compressed into simulation time. Amp is clamped to Base so the rate
// never goes negative, which keeps the cumulative count exactly
// integrable.
type Sine struct {
	Base   float64 // mean rate in packets/second
	Amp    float64 // swing around the mean (|Amp| <= Base effective)
	Period float64 // full day length in seconds
}

func (s Sine) amp() float64 {
	a := s.Amp
	if a > s.Base {
		a = s.Base
	}
	if a < -s.Base {
		a = -s.Base
	}
	return a
}

// Rate implements Process.
func (s Sine) Rate(t float64) float64 {
	if s.Period <= 0 {
		return s.Base
	}
	return s.Base + s.amp()*math.Sin(2*math.Pi*t/s.Period)
}

// cumulative is the exact integral of Rate over [0, t).
func (s Sine) cumulative(t float64) float64 {
	if s.Period <= 0 {
		return s.Base * t
	}
	w := 2 * math.Pi / s.Period
	return s.Base*t - s.amp()/w*(math.Cos(w*t)-1)
}

// CountIn places arrivals deterministically on the cumulative-rate grid,
// like CBR: the count in [t0,t1) is floor(F(t1)) - floor(F(t0)).
func (s Sine) CountIn(t0, t1 float64, _ *xrand.Rand) int64 {
	if t1 <= t0 || s.Base <= 0 {
		return 0
	}
	n := int64(math.Floor(s.cumulative(t1))) - int64(math.Floor(s.cumulative(t0)))
	if n < 0 {
		return 0
	}
	return n
}

// Step switches from one arrival process to another at time At — the
// flash-crowd edge and the hot-queue migration of the elastic experiments.
// Both sub-processes see absolute simulation time, so Step{At, CBR, CBR}
// is an exact rate step and Steps can nest for multi-phase shapes.
type Step struct {
	At            float64
	Before, After Process
}

// Rate implements Process.
func (s Step) Rate(t float64) float64 {
	if t < s.At {
		return s.Before.Rate(t)
	}
	return s.After.Rate(t)
}

// CountIn splits the interval at the switch point.
func (s Step) CountIn(t0, t1 float64, rng *xrand.Rand) int64 {
	if t1 <= t0 {
		return 0
	}
	if t1 <= s.At {
		return s.Before.CountIn(t0, t1, rng)
	}
	if t0 >= s.At {
		return s.After.CountIn(t0, t1, rng)
	}
	return s.Before.CountIn(t0, s.At, rng) + s.After.CountIn(s.At, t1, rng)
}

// UnbalancedShares reproduces the Sec. V-F.4 pcap: heavyShare of the
// traffic belongs to one UDP flow (pinned by the Toeplitz hash to a single
// queue) and the rest is uniformly random across flows, hence evenly split
// by RSS. It returns the per-queue fraction of the total rate.
func UnbalancedShares(heavyShare float64, queues int) []float64 {
	if queues <= 0 {
		return nil
	}
	shares := make([]float64, queues)
	even := (1 - heavyShare) / float64(queues)
	for i := range shares {
		shares[i] = even
	}
	// Hash the paper's single heavy UDP flow with the default RSS key to
	// pick its queue, exactly as the XL710 would.
	heavy := packet.FlowKey{
		Src:     packet.AddrFrom4(10, 0, 0, 1),
		Dst:     packet.AddrFrom4(10, 0, 0, 2),
		SrcPort: 5000, DstPort: 5001,
		Proto: packet.ProtoUDP,
	}
	q := packet.NewToeplitz(packet.DefaultRSSKey).QueueFor(heavy, queues)
	shares[q] += heavyShare
	return shares
}

// FrameGen synthesises real frames for the runtime and app tests: a mix of
// nFlows UDP flows with uniformly random 5-tuples, at the given frame size.
type FrameGen struct {
	rng   *xrand.Rand
	flows []packet.FlowKey
	buf   []byte
	Size  int
}

// NewFrameGen builds a generator over nFlows random flows.
func NewFrameGen(seed uint64, nFlows, size int) *FrameGen {
	r := xrand.New(seed)
	flows := make([]packet.FlowKey, nFlows)
	for i := range flows {
		flows[i] = packet.FlowKey{
			Src:     packet.Addr(r.Uint64()),
			Dst:     packet.Addr(r.Uint64()),
			SrcPort: uint16(1024 + r.Intn(60000)),
			DstPort: uint16(1024 + r.Intn(60000)),
			Proto:   packet.ProtoUDP,
		}
	}
	return &FrameGen{rng: r, flows: flows, buf: make([]byte, 2048), Size: size}
}

// Flows exposes the generated flow set.
func (g *FrameGen) Flows() []packet.FlowKey { return g.flows }

// Next returns the next frame (valid until the following call) and the
// flow it belongs to.
func (g *FrameGen) Next() ([]byte, packet.FlowKey) {
	k := g.flows[g.rng.Intn(len(g.flows))]
	frame, err := packet.BuildUDP(g.buf, g.Size, k.Src, k.Dst, k.SrcPort, k.DstPort)
	if err != nil {
		panic(err) // buffer is always large enough by construction
	}
	return frame, k
}
