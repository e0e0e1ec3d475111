package stats

import (
	"math"
	"testing"
	"testing/quick"

	"metronome/internal/xrand"
)

func TestWelfordAgainstDirect(t *testing.T) {
	r := xrand.New(1)
	var w Welford
	xs := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		x := r.NormFloat64()*3 + 7
		xs = append(xs, x)
		w.Add(x)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Errorf("mean: welford %.12f direct %.12f", w.Mean(), mean)
	}
	if math.Abs(w.Var()-variance) > 1e-6 {
		t.Errorf("var: welford %.9f direct %.9f", w.Var(), variance)
	}
}

func TestWelfordMinMax(t *testing.T) {
	var w Welford
	for _, x := range []float64{3, -1, 4, 1, 5} {
		w.Add(x)
	}
	if w.Min() != -1 || w.Max() != 5 {
		t.Errorf("min/max = %v/%v, want -1/5", w.Min(), w.Max())
	}
}

func TestWelfordMergeEqualsSequential(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		var a, b, all Welford
		for i := 0; i < 300; i++ {
			x := r.NormFloat64()
			all.Add(x)
			if i%2 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Var()-all.Var()) < 1e-6
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(2)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 2 {
		t.Fatal("merge with empty changed accumulator")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 2 {
		t.Fatal("merge into empty did not copy")
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 25.75}, {0.5, 50.5}, {0.75, 75.25}, {1, 100},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) {
		t.Error("empty sample should yield NaN")
	}
}

func TestSampleQuantileMonotone(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		var s Sample
		for i := 0; i < 100; i++ {
			s.Add(r.Float64() * 50)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBoxplot(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	b := s.Box()
	if b.Min != 1 || b.Median != 3 || b.Max != 5 || b.Mean != 3 || b.N != 5 {
		t.Errorf("unexpected boxplot: %+v", b)
	}
	if b.String() == "" {
		t.Error("empty String()")
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	h := NewHistogram(0, 10, 50)
	r := xrand.New(2)
	for i := 0; i < 10000; i++ {
		h.Add(r.Uniform(0, 10))
	}
	w := 10.0 / 50
	total := 0.0
	for i := range h.Counts {
		total += h.Density(i) * w
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("density integrates to %v", total)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(99)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Errorf("out-of-range values not clamped: %v", h.Counts)
	}
	if h.N() != 2 {
		t.Errorf("N = %d", h.N())
	}
}

func TestHistogramKSAgainstUniform(t *testing.T) {
	h := NewHistogram(0, 1, 100)
	r := xrand.New(3)
	for i := 0; i < 200000; i++ {
		h.Add(r.Float64())
	}
	d := h.KSDistance(func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	})
	if d > 0.01 {
		t.Errorf("KS distance vs true CDF = %v, want < 0.01", d)
	}
}

func TestHistogramKSDetectsMismatch(t *testing.T) {
	h := NewHistogram(0, 1, 100)
	r := xrand.New(4)
	for i := 0; i < 50000; i++ {
		u := r.Float64()
		h.Add(u * u) // Beta-ish, not uniform
	}
	d := h.KSDistance(func(x float64) float64 { return x })
	if d < 0.1 {
		t.Errorf("KS distance for wrong model = %v, want clearly > 0.1", d)
	}
}

func TestHistogramPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for inverted bounds")
		}
	}()
	NewHistogram(5, 1, 10)
}

func TestCounterAndRatio(t *testing.T) {
	var c int64 // the twin's counters are plain tallies
	c++
	c += 9
	if Ratio(c, 40) != 0.25 {
		t.Errorf("Ratio = %v", Ratio(c, 40))
	}
	if Ratio(1, 0) != 0 {
		t.Errorf("Ratio with zero total should be 0")
	}
}

func TestSampleMergeEqualsAddAll(t *testing.T) {
	r := xrand.New(7)
	var a, b, merged, direct Sample
	for i := 0; i < 500; i++ {
		x := r.NormFloat64()
		if i%3 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	merged.Merge(&a)
	merged.Merge(&b)
	for _, x := range a.Values() {
		direct.Add(x)
	}
	for _, x := range b.Values() {
		direct.Add(x)
	}
	if merged.N() != direct.N() {
		t.Fatalf("N: merged %d direct %d", merged.N(), direct.N())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if merged.Quantile(q) != direct.Quantile(q) {
			t.Errorf("q%.2f: merged %v direct %v", q, merged.Quantile(q), direct.Quantile(q))
		}
	}
	if merged.Mean() != direct.Mean() {
		t.Errorf("mean: merged %v direct %v", merged.Mean(), direct.Mean())
	}
}

func TestSampleMergeEmptyAndNil(t *testing.T) {
	var s, empty Sample
	s.Add(1)
	s.Merge(&empty)
	s.Merge(nil)
	if s.N() != 1 || s.Quantile(0.5) != 1 {
		t.Fatalf("merge of empty changed the sample: n=%d", s.N())
	}
}

func TestSampleUncappedUnchanged(t *testing.T) {
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	if s.N() != 1000 {
		t.Fatalf("sample thinned: n=%d", s.N())
	}
}
