// Package xrand provides the deterministic pseudo-random number generation
// used throughout the Metronome reproduction.
//
// The paper's multiqueue backup threads pick their next queue with DPDK's
// thread-safe high-performance PRNG (rte_random, a lcg128-based generator).
// We stand in a xoshiro256++ generator seeded through splitmix64: it is
// small, fast, has no shared state, and — unlike math/rand's global source —
// makes every simulation bit-reproducible from its seed.
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a xoshiro256++ pseudo-random generator. It is NOT safe for
// concurrent use; give each simulated entity its own stream via Split.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, so that nearby
// seeds yield uncorrelated streams.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not be seeded with all zeros.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Split derives an independent generator from r, advancing r. It is the
// mechanism by which one experiment seed fans out to per-thread and
// per-queue streams without correlation.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// SeedFrom folds structured coordinates (a run seed, a thread id, a queue
// count, ...) into one well-mixed 64-bit seed by chaining splitmix64 over
// the parts. Unlike xor-folding raw words — where (seed, id, n) tuples can
// collide structurally — the chaining feeds each part through the previous
// mixed state, so every coordinate perturbs the whole output and streams
// derived from nearby tuples stay uncorrelated. The live runtime uses it to
// give each retrieval goroutine a stream that depends on the deployment
// shape, not just the thread index.
func SeedFrom(parts ...uint64) uint64 {
	x, out := splitmix64(0x243f6a8885a308d3) // pi fractional bits: arbitrary non-zero salt
	for _, p := range parts {
		x, out = splitmix64(x ^ p)
	}
	return out
}

func splitmix64(x uint64) (next, out uint64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return x, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value of the xoshiro256++ sequence.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0,1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
// Used for the multiqueue backup thread's random queue re-targeting.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded rejection sampling.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	return int(hi)
}

// NormFloat64 returns a standard normal value using the polar
// (Marsaglia) method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogNormal returns exp(N(mu, sigma^2)); heavy-tailed draws of this kind
// model occasional long OS wake-up delays.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Uniform returns a uniform value in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli reports true with probability p.
func (r *Rand) Bernoulli(p float64) bool { return r.Float64() < p }

// Poisson returns a Poisson(mean) variate. For large means it uses the
// normal approximation with continuity correction, which is ample for
// packet-count sampling over vacation periods.
func (r *Rand) Poisson(mean float64) int64 {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		// Knuth inversion.
		l := math.Exp(-mean)
		var k int64
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := mean + math.Sqrt(mean)*r.NormFloat64() + 0.5
	if v < 0 {
		return 0
	}
	return int64(v)
}
