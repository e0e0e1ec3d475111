// Package stats provides the streaming statistics the experiment harness
// uses to summarise simulation output: Welford accumulators, reservoir-free
// exact samples, boxplot five-number summaries and empirical distribution
// helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates mean and variance in a single pass without storing
// samples. The zero value is ready to use.
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples seen.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest sample (0 with no samples).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample (0 with no samples).
func (w *Welford) Max() float64 { return w.max }

// Merge combines another accumulator into w (parallel Welford merge).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Sample collects every raw value for exact quantiles. Memory grows with
// the stream; readers that need bounded memory should use LogHistogram,
// which keeps every observation at a bounded (~3.1%) bucket resolution.
type Sample struct {
	xs     []float64
	sorted bool
}

// Reset discards the retained values but keeps the backing array, so a
// Reset+Merge cycle allocates only when it outgrows the previous
// high-water mark — the reusable-buffer contract core.Snapshot leans on.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = false
}

// Add appends a value.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Merge folds another sample's values into s in one append — equivalent
// to Add-ing every element of o.Values(). o is left usable (its values get
// sorted, which Values does anyway).
func (s *Sample) Merge(o *Sample) {
	if o == nil || len(o.xs) == 0 {
		return
	}
	s.xs = append(s.xs, o.Values()...)
	s.sorted = false
}

// N returns the sample size.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the backing slice (sorted ascending).
func (s *Sample) Values() []float64 {
	s.sort()
	return s.xs
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear interpolation.
// It returns NaN for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s.xs) {
		return s.xs[i]
	}
	return s.xs[i]*(1-frac) + s.xs[i+1]*frac
}

// Mean returns the arithmetic mean (NaN for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// Boxplot is the five-number summary the paper's latency figures plot.
type Boxplot struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// Box computes the five-number summary of the sample.
func (s *Sample) Box() Boxplot {
	return Boxplot{
		Min:    s.Quantile(0),
		Q1:     s.Quantile(0.25),
		Median: s.Quantile(0.5),
		Q3:     s.Quantile(0.75),
		Max:    s.Quantile(1),
		Mean:   s.Mean(),
		N:      s.N(),
	}
}

// String renders the summary in a compact single line.
func (b Boxplot) String() string {
	return fmt.Sprintf("min=%.2f q1=%.2f med=%.2f q3=%.2f max=%.2f mean=%.2f n=%d",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean, b.N)
}

// Histogram is a fixed-width binned counter over [Lo, Hi); out-of-range
// values clamp to the edge bins, so no sample is lost.
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	n      int64
}

// NewHistogram builds a histogram with the given bounds and bin count.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || !(hi > lo) {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}
}

// Add counts x into its bin.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.n++
}

// N returns the total count.
func (h *Histogram) N() int64 { return h.n }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Density returns the empirical PDF value of bin i (integrates to ~1).
func (h *Histogram) Density(i int) float64 {
	if h.n == 0 {
		return 0
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return float64(h.Counts[i]) / (float64(h.n) * w)
}

// CDFAt returns the fraction of samples <= x (by whole bins).
func (h *Histogram) CDFAt(x float64) float64 {
	if h.n == 0 {
		return 0
	}
	var c int64
	for i := range h.Counts {
		if h.BinCenter(i) <= x {
			c += h.Counts[i]
		}
	}
	return float64(c) / float64(h.n)
}

// KSDistance returns the Kolmogorov–Smirnov distance between the
// histogram's empirical CDF and a reference CDF evaluated at bin centers.
// The experiment harness uses it to score model-vs-simulation agreement
// (Fig 4).
func (h *Histogram) KSDistance(cdf func(float64) float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	var cum int64
	worst := 0.0
	for i := range h.Counts {
		cum += h.Counts[i]
		emp := float64(cum) / float64(h.n)
		x := h.Lo + (float64(i)+1)*(h.Hi-h.Lo)/float64(len(h.Counts))
		d := math.Abs(emp - cdf(x))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Ratio returns c.Value / total (0 when total is 0).
func Ratio(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}
