package traffic

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"metronome/internal/packet"
	"metronome/internal/xrand"
)

func TestRate64B(t *testing.T) {
	// The canonical conversions the paper uses.
	if got := Rate64B(10); math.Abs(got-14.88e6)/14.88e6 > 0.001 {
		t.Errorf("10G of 64B = %v pps, want ~14.88M", got)
	}
	if got := Rate64B(1); math.Abs(got-1.488e6)/1.488e6 > 0.001 {
		t.Errorf("1G of 64B = %v pps", got)
	}
}

func TestCBRCount(t *testing.T) {
	c := CBR{PPS: 1e6}
	if got := c.CountIn(0, 1e-3, nil); got != 1000 {
		t.Errorf("1ms at 1Mpps = %d arrivals", got)
	}
	// Additivity: count over [0,T) equals sum over a partition.
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		t0 := r.Uniform(0, 1)
		mid := t0 + r.Uniform(0, 1)
		t1 := mid + r.Uniform(0, 1)
		whole := c.CountIn(t0, t1, nil)
		parts := c.CountIn(t0, mid, nil) + c.CountIn(mid, t1, nil)
		return whole == parts
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCBREdges(t *testing.T) {
	c := CBR{PPS: 1e6}
	if c.CountIn(5, 5, nil) != 0 || c.CountIn(5, 4, nil) != 0 {
		t.Error("empty/inverted interval must count 0")
	}
	if (CBR{}).CountIn(0, 1, nil) != 0 {
		t.Error("zero-rate CBR must count 0")
	}
}

func TestPoissonCountMean(t *testing.T) {
	p := Poisson{Lambda: 2e6}
	r := xrand.New(1)
	var sum float64
	const trials = 5000
	for i := 0; i < trials; i++ {
		sum += float64(p.CountIn(0, 1e-4, r))
	}
	mean := sum / trials
	if math.Abs(mean-200) > 2 {
		t.Errorf("Poisson mean arrivals = %v, want ~200", mean)
	}
}

func TestRampShape(t *testing.T) {
	// The Sec. V-B profile: 60 s, peak 14 Mpps at 30 s, 2 s steps.
	rp := Ramp{Peak: 14e6, Duration: 60, StepEvery: 2}
	if rp.Rate(-1) != 0 || rp.Rate(61) != 0 {
		t.Error("rate outside the sweep must be 0")
	}
	if got := rp.Rate(30); math.Abs(got-14e6) > 1e-6 {
		t.Errorf("apex rate = %v", got)
	}
	// Symmetry of the triangle at step resolution: bucket starting at t
	// mirrors the bucket starting at Duration-t.
	if rp.Rate(10) != rp.Rate(50) {
		t.Errorf("ramp asymmetric: %v vs %v", rp.Rate(10), rp.Rate(50))
	}
	// Monotone non-decreasing on the way up.
	prev := -1.0
	for x := 0.0; x <= 30; x += 2 {
		if rp.Rate(x) < prev {
			t.Fatalf("ramp not monotone at %v", x)
		}
		prev = rp.Rate(x)
	}
}

// integrate sums p's Rate over [t0, t1) by midpoint steps: the oracle the
// closed-form counts are checked against.
func integrate(p Process, t0, t1 float64, steps int) float64 {
	h := (t1 - t0) / float64(steps)
	sum := 0.0
	for i := 0; i < steps; i++ {
		sum += p.Rate(t0+(float64(i)+0.5)*h) * h
	}
	return sum
}

func TestRampCountMatchesIntegral(t *testing.T) {
	rp := Ramp{Peak: 10e6, Duration: 60, StepEvery: 2}
	got := float64(rp.CountIn(0, 60, nil))
	want := integrate(rp, 0, 60, 60000)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("CountIn=%v integral=%v", got, want)
	}
}

func TestOnOff(t *testing.T) {
	o := OnOff{PPS: 1e6, OnDur: 1, OffDur: 1}
	if o.Rate(0.5) != 1e6 || o.Rate(1.5) != 0 {
		t.Error("phases wrong")
	}
	if got := o.CountIn(0, 4, nil); got != 2e6 {
		t.Errorf("two on-phases = %d arrivals", got)
	}
	// Silent start flips the phases.
	s := OnOff{PPS: 1e6, OnDur: 1, OffDur: 1, InitiallySilent: true}
	if s.Rate(0.5) != 0 || s.Rate(1.5) != 1e6 {
		t.Error("silent-start phases wrong")
	}
}

func TestOnOffPartialPhase(t *testing.T) {
	o := OnOff{PPS: 2e6, OnDur: 1, OffDur: 3}
	if got := o.CountIn(0.5, 4.5, nil); got != 2e6 {
		t.Errorf("partial phases = %d, want 2M (0.5s of first on + 0.5s of second at 2Mpps)", got)
	}
}

func TestUnbalancedShares(t *testing.T) {
	shares := UnbalancedShares(0.30, 3)
	if len(shares) != 3 {
		t.Fatal("want 3 shares")
	}
	sum := 0.0
	heavy, light := 0, 0
	for _, s := range shares {
		sum += s
		if math.Abs(s-(0.30+0.70/3)) < 1e-9 {
			heavy++
		}
		if math.Abs(s-0.70/3) < 1e-9 {
			light++
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	// Paper: most stressed queue ~53%, other two ~23% each.
	if heavy != 1 || light != 2 {
		t.Errorf("share layout = %v, want one 53%% and two 23%%", shares)
	}
}

func TestUnbalancedSharesDegenerate(t *testing.T) {
	if UnbalancedShares(0.3, 0) != nil {
		t.Error("zero queues should yield nil")
	}
	one := UnbalancedShares(0.3, 1)
	if len(one) != 1 || math.Abs(one[0]-1) > 1e-9 {
		t.Errorf("single queue should carry everything: %v", one)
	}
}

func TestFrameGen(t *testing.T) {
	g := NewFrameGen(7, 16, 64)
	seen := map[packet.FlowKey]bool{}
	for i := 0; i < 200; i++ {
		frame, k := g.Next()
		if len(frame) != 64 {
			t.Fatalf("frame size = %d", len(frame))
		}
		var p packet.Parsed
		if err := p.Parse(frame); err != nil {
			t.Fatal(err)
		}
		if p.Key != k {
			t.Fatalf("frame key %v != declared %v", p.Key, k)
		}
		seen[k] = true
	}
	if len(seen) < 8 || len(seen) > 16 {
		t.Errorf("%d distinct flows in 200 draws over 16", len(seen))
	}
}

// refFrameGen is the generator that builds every frame on every draw: the
// same flow set and draw sequence as FrameGen, with no templates. It is the
// oracle the template path is checked against.
type refFrameGen struct {
	rng   *xrand.Rand
	flows []packet.FlowKey
	buf   []byte
	size  int
}

func newRefFrameGen(seed uint64, nFlows, size int) *refFrameGen {
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
	return &refFrameGen{rng: r, flows: flows, buf: make([]byte, 2048), size: size}
}

func (g *refFrameGen) next() ([]byte, packet.FlowKey) {
	k := g.flows[g.rng.Intn(len(g.flows))]
	frame, err := packet.BuildUDP(g.buf, g.size, k.Src, k.Dst, k.SrcPort, k.DstPort)
	if err != nil {
		panic(err)
	}
	return frame, k
}

func TestFrameGenMatchesPerDrawBuild(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, nFlows := range []int{1, 64, 4096} {
			for _, size := range []int{0, 60, 64, 128, 1514} {
				g, ref := NewFrameGen(seed, nFlows, size), newRefFrameGen(seed, nFlows, size)
				for i := 0; i < 10000; i++ {
					got, gk := g.Next()
					want, wk := ref.next()
					if gk != wk || !bytes.Equal(got, want) {
						t.Fatalf("seed %d flows %d size %d draw %d: frame/key differ from the per-draw build (key %v, want %v)",
							seed, nFlows, size, i, gk, wk)
					}
					if size < packet.MinFrame && len(got) != packet.MinFrame {
						t.Fatalf("size %d gave a %d-byte frame, want MinFrame", size, len(got))
					}
				}
			}
		}
	}
}

func TestFrameGenAppendLeavesTemplates(t *testing.T) {
	g := NewFrameGen(3, 64, 64)
	before := append([]byte(nil), g.tmpl...)
	for i := 0; i < 1000; i++ {
		frame, _ := g.Next()
		frame = append(frame, 0xff, 0xff, 0xff, 0xff)
		frame[len(frame)-1] = 0xee
	}
	if !bytes.Equal(g.tmpl, before) {
		t.Fatal("appending to a returned frame overwrote a template")
	}
}

func BenchmarkFrameGenNext(b *testing.B) {
	g := NewFrameGen(17, 4096, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func TestSineShapeAndCount(t *testing.T) {
	s := Sine{Base: 1e6, Amp: 0.5e6, Period: 0.4}
	if r := s.Rate(0); math.Abs(r-1e6) > 1 {
		t.Errorf("rate at t=0 = %v, want Base", r)
	}
	if r := s.Rate(0.1); math.Abs(r-1.5e6) > 1 {
		t.Errorf("rate at quarter period = %v, want Base+Amp", r)
	}
	if r := s.Rate(0.3); math.Abs(r-0.5e6) > 1 {
		t.Errorf("rate at three quarters = %v, want Base-Amp", r)
	}
	// One full period integrates to exactly Base*Period arrivals.
	got := s.CountIn(0, 0.4, nil)
	if want := int64(1e6 * 0.4); got < want-1 || got > want+1 {
		t.Errorf("count over one period = %d, want ~%d", got, want)
	}
	// Counts are additive over adjacent intervals (no double counting).
	split := s.CountIn(0, 0.13, nil) + s.CountIn(0.13, 0.4, nil)
	if split != got {
		t.Errorf("split count %d != whole count %d", split, got)
	}
	// Count matches the numeric integral on an asymmetric window.
	want := int64(integrate(s, 0.05, 0.31, 4000))
	if got := s.CountIn(0.05, 0.31, nil); got < want-2 || got > want+2 {
		t.Errorf("count = %d, integral says ~%d", got, want)
	}
}

func TestSineAmpClampsToBase(t *testing.T) {
	s := Sine{Base: 1e5, Amp: 9e5, Period: 1}
	for _, tt := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
		if r := s.Rate(tt); r < 0 {
			t.Fatalf("negative rate %v at t=%v", r, tt)
		}
	}
}

func TestStepSwitchesProcesses(t *testing.T) {
	s := Step{At: 0.5, Before: CBR{PPS: 1e6}, After: CBR{PPS: 3e6}}
	if r := s.Rate(0.49); r != 1e6 {
		t.Errorf("before rate = %v", r)
	}
	if r := s.Rate(0.5); r != 3e6 {
		t.Errorf("after rate = %v", r)
	}
	// Count across the edge = exact sum of both halves.
	got := s.CountIn(0.4, 0.6, nil)
	want := CBR{PPS: 1e6}.CountIn(0.4, 0.5, nil) + CBR{PPS: 3e6}.CountIn(0.5, 0.6, nil)
	if got != want {
		t.Errorf("count across edge = %d, want %d", got, want)
	}
	// Entirely on either side delegates cleanly.
	if got := s.CountIn(0, 0.25, nil); got != (CBR{PPS: 1e6}).CountIn(0, 0.25, nil) {
		t.Errorf("before-side count = %d", got)
	}
	if got := s.CountIn(0.7, 1.0, nil); got != (CBR{PPS: 3e6}).CountIn(0.7, 1.0, nil) {
		t.Errorf("after-side count = %d", got)
	}
}

func TestStepNestsForMultiPhase(t *testing.T) {
	// Flash crowd: low, spike at 0.2, back down at 0.6.
	crowd := Step{At: 0.2, Before: CBR{PPS: 1e6},
		After: Step{At: 0.6, Before: CBR{PPS: 10e6}, After: CBR{PPS: 1e6}}}
	if r := crowd.Rate(0.1); r != 1e6 {
		t.Errorf("pre-spike rate %v", r)
	}
	if r := crowd.Rate(0.4); r != 10e6 {
		t.Errorf("spike rate %v", r)
	}
	if r := crowd.Rate(0.8); r != 1e6 {
		t.Errorf("post-spike rate %v", r)
	}
	got := crowd.CountIn(0, 1, nil)
	want := int64(1e6*0.2 + 10e6*0.4 + 1e6*0.4)
	if got < want-3 || got > want+3 {
		t.Errorf("total count %d, want ~%d", got, want)
	}
}
