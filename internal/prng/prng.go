// Package prng provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// Workload generation and hash-family seeding must be reproducible across
// runs and across Go releases, so the experiment harness cannot depend on
// math/rand (whose stream is not guaranteed stable between versions).
// The generators here are fixed algorithms with fixed constants:
//
//   - SplitMix64: a tiny 64-bit generator used for seeding.
//   - Xoshiro256**: the main generator for workload synthesis.
//
// Neither is cryptographically secure; they are statistical-quality
// generators appropriate for simulation.
package prng

import "math"

// SplitMix64 is a 64-bit generator with a 64-bit state. It is primarily
// used to expand a single user seed into the larger state required by
// Xoshiro256 and into independent per-row hash seeds.
//
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 implements the xoshiro256** generator of Blackman and Vigna.
// It has a 256-bit state, passes stringent statistical test batteries, and
// is extremely fast, making it suitable for generating the 10^7-item
// streams used by the experiment harness.
type Xoshiro256 struct {
	s [4]uint64
}

// New returns a Xoshiro256 generator deterministically seeded from seed.
// Distinct seeds yield independent-looking streams.
func New(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// The all-zero state is invalid; SplitMix64 cannot produce four zero
	// outputs in a row, but guard anyway for safety.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 1
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit value.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift rejection method, which is unbiased.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return x.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits to remove modulo bias.
	threshold := -n % n // == (2^64 - n) mod n
	for {
		v := x.Uint64()
		lo, hi := bitsMul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// bitsMul64 returns the 128-bit product of a and b as (lo, hi).
func bitsMul64(a, b uint64) (lo, hi uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a0 * b0
	lo32 := t & mask32
	carry := t >> 32
	t = a1*b0 + carry
	m0 := t & mask32
	m1 := t >> 32
	t = a0*b1 + m0
	lo = t<<32 | lo32
	hi = a1*b1 + m1 + t>>32
	return lo, hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1,
// via inverse-CDF sampling. Used by the trace generators for
// inter-arrival gaps.
func (x *Xoshiro256) ExpFloat64() float64 {
	for {
		u := x.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Pareto returns a Pareto(alpha, xm)-distributed value: xm * U^(-1/alpha).
// Heavy-tailed flow sizes in the UDP trace generator use this.
func (x *Xoshiro256) Pareto(alpha, xm float64) float64 {
	for {
		u := x.Float64()
		if u > 0 {
			return xm * math.Pow(u, -1/alpha)
		}
	}
}
