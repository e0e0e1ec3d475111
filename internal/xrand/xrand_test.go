package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided %d/1000 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("split children appear correlated")
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 8, 80000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean, variance := sum/n, sq/n-(sum/n)*(sum/n)
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %.4f, want ~1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 25, 100, 5000} {
		r := New(uint64(mean * 13))
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%g) sample mean = %.3f", mean, got)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		return r.Poisson(0) == 0 && r.Poisson(-3) == 0 && r.Poisson(1000) >= 0
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(8)
	for i := 0; i < 1000; i++ {
		if r.LogNormal(0, 1) <= 0 {
			t.Fatal("LogNormal produced non-positive value")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(16)
	}
}

func TestSeedFrom(t *testing.T) {
	if SeedFrom(1, 2, 3) != SeedFrom(1, 2, 3) {
		t.Fatal("SeedFrom not deterministic")
	}
	distinct := map[uint64]string{}
	for _, tc := range []struct {
		name  string
		parts []uint64
	}{
		{"empty", nil},
		{"1", []uint64{1}},
		{"1,2", []uint64{1, 2}},
		{"2,1", []uint64{2, 1}}, // order matters
		{"1,2,3", []uint64{1, 2, 3}},
		{"1,3,2", []uint64{1, 3, 2}},
		{"0,0", []uint64{0, 0}},
		{"0", []uint64{0}},
	} {
		s := SeedFrom(tc.parts...)
		if prev, dup := distinct[s]; dup {
			t.Errorf("SeedFrom(%s) collides with SeedFrom(%s)", tc.name, prev)
		}
		distinct[s] = tc.name
	}
	// Streams seeded from adjacent coordinates diverge immediately.
	a := New(SeedFrom(7, 0, 2))
	b := New(SeedFrom(7, 0, 3))
	same := 0
	for i := 0; i < 16; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent-coordinate streams shared %d of 16 draws", same)
	}
}
