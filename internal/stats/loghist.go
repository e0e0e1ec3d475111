package stats

import (
	"math"
	"math/bits"
)

// This file is the fidelity plane's latency histogram: a fixed-bucket
// log-scale counter layout in the style of P4TG's RTT histograms and
// HdrHistogram's sub-bucketed log2 binning. The domain is uint64
// nanoseconds; buckets are exact integers below 2*LogHistSub ns and then
// power-of-two octaves split into LogHistSub linear sub-buckets each, so
// the relative quantisation error is bounded by 1/LogHistSub (~3.1%)
// across the whole range while Record costs two shifts and one increment —
// cheap enough for a per-packet data path and layout-compatible with an
// atomic counter block on the telemetry bus.

const (
	// LogHistSubBits is the log2 of the sub-bucket count per octave.
	LogHistSubBits = 5
	// LogHistSub is the number of linear sub-buckets per power-of-two
	// octave: the worst-case relative resolution is 1/LogHistSub.
	LogHistSub = 1 << LogHistSubBits
	// logHistMaxExp is the shift of the widest (last) octave.
	logHistMaxExp = 30
	// LogHistBuckets is the total bucket count of the layout (1024):
	// 2*LogHistSub unit-width buckets for values < 2*LogHistSub, then
	// logHistMaxExp octaves of LogHistSub sub-buckets each.
	LogHistBuckets = (logHistMaxExp + 2) * LogHistSub
	// LogHistMax is the largest recordable value in nanoseconds
	// (2^36-1 ns ~= 68.7 s); larger values clamp into the top bucket.
	LogHistMax = uint64(1)<<36 - 1
)

// LogBucketIndex returns the bucket index of value v (nanoseconds).
// Values above LogHistMax clamp to the top bucket. The mapping is
// v -> exp*LogHistSub + (v >> exp) with exp = max(0, bitlen(v)-SubBits-1):
// two shifts, no branches beyond the clamp, fully deterministic.
func LogBucketIndex(v uint64) int {
	if v > LogHistMax {
		v = LogHistMax
	}
	exp := bits.Len64(v) - LogHistSubBits - 1
	if exp < 0 {
		exp = 0
	}
	return exp*LogHistSub + int(v>>uint(exp))
}

// LogBucketLower returns the smallest value mapped to bucket i.
func LogBucketLower(i int) uint64 {
	if i < 2*LogHistSub {
		return uint64(i)
	}
	exp := i/LogHistSub - 1
	return uint64(i-exp*LogHistSub) << uint(exp)
}

// LogBucketWidth returns the number of distinct values mapped to bucket i
// (1 in the unit region, 2^exp inside octave exp).
func LogBucketWidth(i int) uint64 {
	if i < 2*LogHistSub {
		return 1
	}
	return uint64(1) << uint(i/LogHistSub-1)
}

// LogBucketUpper returns the largest value mapped to bucket i.
func LogBucketUpper(i int) uint64 {
	return LogBucketLower(i) + LogBucketWidth(i) - 1
}

// SecondsToNs converts a non-negative duration in seconds to integer
// nanoseconds, rounding to nearest and clamping negatives to zero — the
// bridge from the sim substrate's float64 virtual clock to the
// histogram's nanosecond domain.
func SecondsToNs(s float64) uint64 {
	if s <= 0 || math.IsNaN(s) {
		return 0
	}
	return uint64(s*1e9 + 0.5)
}

// LogHistogram is a fixed-shape log-scale histogram over uint64
// nanoseconds. The zero value is empty and ready to use; the counter
// array is inline (no pointers), so the type can be embedded, copied for
// snapshots, and reset without allocating. All methods are exact over the
// bucketed representation: Merge equals concatenated Records, Quantile is
// a deterministic cumulative walk, and no sample is ever dropped (values
// past LogHistMax clamp into the top bucket rather than vanish).
type LogHistogram struct {
	counts [LogHistBuckets]uint64
	n      uint64
}

// Record counts one value (nanoseconds): two shifts plus one increment,
// zero allocations.
func (h *LogHistogram) Record(v uint64) {
	h.counts[LogBucketIndex(v)]++
	h.n++
}

// AddBucket adds c observations directly into bucket i — the folding
// primitive used when sampling an atomic counter block off the telemetry
// bus into a caller-owned histogram.
func (h *LogHistogram) AddBucket(i int, c uint64) {
	h.counts[i] += c
	h.n += c
}

// N returns the total number of recorded values.
func (h *LogHistogram) N() uint64 { return h.n }

// CountAt returns the count in bucket i.
func (h *LogHistogram) CountAt(i int) uint64 { return h.counts[i] }

// Merge folds o into h bucket-by-bucket; the result is identical to
// having Recorded both value streams into one histogram.
func (h *LogHistogram) Merge(o *LogHistogram) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Reset zeroes the counts without releasing any memory.
func (h *LogHistogram) Reset() {
	h.counts = [LogHistBuckets]uint64{}
	h.n = 0
}

// Quantile returns the value (nanoseconds) at quantile q in [0, 1]: the
// upper edge of the bucket holding the ceil(q*N)-th smallest sample, so
// the result is conservative for tail quantiles and never underestimates
// by more than the bucket's 1/LogHistSub relative width. It is exact for
// values below 2*LogHistSub ns (unit-width buckets), monotone in q, and
// returns 0 for an empty histogram.
func (h *LogHistogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return LogBucketUpper(i)
		}
	}
	return LogBucketUpper(LogHistBuckets - 1)
}

// Max returns the upper edge of the highest occupied bucket (0 when
// empty) — the histogram's view of the worst recorded latency.
func (h *LogHistogram) Max() uint64 {
	for i := LogHistBuckets - 1; i >= 0; i-- {
		if h.counts[i] != 0 {
			return LogBucketUpper(i)
		}
	}
	return 0
}
