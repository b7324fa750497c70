// Package hash implements the universal hash families that underpin every
// sketch in this repository.
//
// All sketch guarantees in the frequent-items literature are stated for
// pairwise (2-wise) or 4-wise independent hash functions. We implement the
// classic Carter–Wegman polynomial construction over the Mersenne prime
// field GF(2^61 − 1), which admits a very fast modular reduction, plus a
// ±1 "sign" family derived from it (as required by Count Sketch), and a
// strong 64-bit bit-mixing permutation used to scramble workload item
// identifiers.
//
// A k-wise independent family evaluated at any k distinct points yields
// uniformly and independently distributed values; pairwise independence is
// what the Count-Min and Count-Sketch analyses require, and degree-3
// polynomials (4-wise) are provided for the ablation study of hash
// strength (experiment BenchmarkAblationHash).
//
// A bucket index is the field value modulo the row width, computed
// without a hardware divide: each Bucket precomputes ⌊(2⁶⁴−1)/width⌋,
// and a high multiply by it estimates the quotient, which one multiply-
// subtract and at most one correcting subtract turn into the remainder
// (Granlund & Montgomery, "Division by Invariant Integers using
// Multiplication", PLDI 1994). The result is exact for every field value
// and every width, so the indices — and every sketch built on them — are
// those of the plain remainder. Buckets and Signs are the batch forms of
// Bucket.Hash and Sign.Hash: one call per slice, with the polynomial's
// coefficients held in registers across it.
package hash

import (
	"fmt"
	"math"
	"math/bits"

	"streamfreq/internal/prng"
)

// MersennePrime is 2^61 − 1, the modulus of the polynomial hash field.
const MersennePrime = (1 << 61) - 1

// mulmod returns (a * b) mod 2^61−1 using a 128-bit intermediate product.
// Both inputs must already be < 2^61−1.
func mulmod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo. With p = 2^61−1, 2^64 ≡ 2^3 (mod p), so fold the
	// product as (lo mod 2^61) + (hi*8 + lo>>61), then reduce once more.
	res := (lo & MersennePrime) + (hi<<3 | lo>>61)
	if res >= MersennePrime {
		res -= MersennePrime
	}
	return res
}

// addmod returns (a + b) mod 2^61−1 for a, b < 2^61−1.
func addmod(a, b uint64) uint64 {
	s := a + b
	if s >= MersennePrime {
		s -= MersennePrime
	}
	return s
}

// reduce maps an arbitrary 64-bit value into the field [0, 2^61−1).
func reduce(x uint64) uint64 {
	r := (x & MersennePrime) + (x >> 61)
	if r >= MersennePrime {
		r -= MersennePrime
	}
	return r
}

// Poly is a polynomial hash function h(x) = (c_{k-1} x^{k-1} + ... + c_0)
// mod p over GF(2^61−1). A degree-(k−1) polynomial with random
// coefficients is a k-wise independent family.
type Poly struct {
	coeff []uint64 // degree decreasing order: coeff[0] = c_{k-1}, ..., coeff[k-1] = c_0
}

// NewPoly draws a fresh k-wise independent polynomial hash using
// randomness from seed. k must be at least 2.
func NewPoly(k int, seed uint64) Poly {
	if k < 2 {
		panic("hash: polynomial family requires k >= 2")
	}
	sm := prng.NewSplitMix64(seed)
	coeff := make([]uint64, k)
	// Draws run from c_0 up to c_{k-1}.
	for i := k - 1; i >= 0; i-- {
		coeff[i] = reduce(sm.Next())
	}
	// The leading coefficient must be nonzero for full independence.
	for coeff[0] == 0 {
		coeff[0] = reduce(sm.Next())
	}
	return Poly{coeff: coeff}
}

// Hash evaluates the polynomial at x (reduced into the field first) and
// returns a value uniform on [0, 2^61−1).
func (p Poly) Hash(x uint64) uint64 {
	if len(p.coeff) == 2 {
		return line(p.coeff[0], p.coeff[1], x)
	}
	return horner(p.coeff, reduce(x))
}

// line evaluates the pairwise family's polynomial c1·x + c0 at item x:
// the one Horner step every sketch's hashes take.
func line(c1, c0, x uint64) uint64 {
	v := mulmod(c1, reduce(x)) + c0
	if v >= MersennePrime {
		v -= MersennePrime
	}
	return v
}

// horner evaluates the polynomial with coefficients c (degree decreasing)
// at the field element x.
func horner(c []uint64, x uint64) uint64 {
	acc := c[0]
	for _, ci := range c[1:] {
		acc = addmod(mulmod(acc, x), ci)
	}
	return acc
}

// K reports the independence of the family (the number of coefficients).
func (p Poly) K() int { return len(p.coeff) }

// Bucket is a hash function from items to a fixed range [0, width).
type Bucket struct {
	p     Poly
	width uint64
	recip uint64 // ⌊(2⁶⁴−1)/width⌋, the divisor's reciprocal for mod
}

// NewBucket returns a k-wise independent hash onto [0, width).
func NewBucket(k int, width int, seed uint64) Bucket {
	if width <= 0 {
		panic("hash: bucket width must be positive")
	}
	w := uint64(width)
	return Bucket{p: NewPoly(k, seed), width: w, recip: math.MaxUint64 / w}
}

// Hash returns the bucket index of x in [0, width): the field value
// modulo width. The field value is uniform on [0, p), so the remainder's
// bias is at most width/p < 2^-37 for any practical width, far below the
// sketch error terms. Hash inlines into its caller; index is its one
// out-of-line call, polynomial and reduction together.
func (b *Bucket) Hash(x uint64) int { return int(b.index(x)) }

// index repeats Poly.Hash's pairwise dispatch rather than calling it:
// Poly.Hash is too large to inline, and the second call per hash would
// show on every scalar sketch update.
func (b *Bucket) index(x uint64) uint64 {
	var v uint64
	if c := b.p.coeff; len(c) == 2 {
		v = line(c[0], c[1], x)
	} else {
		v = horner(c, reduce(x))
	}
	return mod(v, b.width, b.recip)
}

// mod returns v mod width for a field value v < 2^61−1, given recip =
// ⌊(2⁶⁴−1)/width⌋. The quotient estimate q = ⌊v·recip / 2⁶⁴⌋ never
// exceeds ⌊v/width⌋ and falls short of it by at most one: v·recip/2⁶⁴
// lies below v/width by less than 2v/2⁶⁴ < 1/4. So v − q·width lies in
// [0, 2·width), and one conditional subtract makes it the exact
// remainder.
func mod(v, width, recip uint64) uint64 {
	q, _ := bits.Mul64(v, recip)
	r := v - q*width
	if r >= width {
		r -= width
	}
	return r
}

// Width returns the bucket range.
func (b *Bucket) Width() int { return int(b.width) }

// Sign is a pairwise-independent hash from items to {+1, −1}, as required
// by the Count Sketch estimator. It is derived from a polynomial hash by
// taking one bit of the field value.
type Sign struct {
	p Poly
}

// NewSign returns a fresh ±1 family seeded by seed. k controls the
// independence of the underlying polynomial (2 suffices for the Count
// Sketch analysis).
func NewSign(k int, seed uint64) Sign {
	return Sign{p: NewPoly(k, seed)}
}

// Hash returns +1 or −1 for item x.
func (s Sign) Hash(x uint64) int64 {
	if s.p.Hash(x)&1 == 0 {
		return 1
	}
	return -1
}

// Buckets sets dst[i] = b.Hash(uint64(xs[i])) for every i; dst must be
// at least as long as xs. It is the batch form of Hash for the linear
// sketches' row updates: for the pairwise family every sketch uses,
// there is no call per item and both coefficients stay in registers;
// other families take Hash per item.
func Buckets[T ~uint64](b *Bucket, xs []T, dst []int) {
	dst = dst[:len(xs)]
	if len(b.p.coeff) != 2 {
		for i, x := range xs {
			dst[i] = b.Hash(uint64(x))
		}
		return
	}
	c1, c0, w, m := b.p.coeff[0], b.p.coeff[1], b.width, b.recip
	for i, x := range xs {
		dst[i] = int(mod(line(c1, c0, uint64(x)), w, m))
	}
}

// Signs sets dst[i] = s.Hash(uint64(xs[i])) for every i; dst must be at
// least as long as xs. It is the batch form of Sign.Hash, as Buckets is
// of Bucket.Hash.
func Signs[T ~uint64](s Sign, xs []T, dst []int64) {
	dst = dst[:len(xs)]
	if len(s.p.coeff) != 2 {
		for i, x := range xs {
			dst[i] = s.Hash(uint64(x))
		}
		return
	}
	c1, c0 := s.p.coeff[0], s.p.coeff[1]
	for i, x := range xs {
		dst[i] = 1 - 2*int64(line(c1, c0, uint64(x))&1)
	}
}

// Mix64 is a fixed bijective mixing permutation on 64-bit integers
// (the finalizer of SplitMix64). It is used to scramble sequential rank
// identifiers produced by the Zipf generator so that item IDs carry no
// structure a hash family could accidentally exploit.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Family bundles d independent bucket hashes and d sign hashes sharing a
// common base seed: row i uses deterministic sub-seeds, so two sketches
// constructed with the same (d, width, k, seed) are mergeable.
type Family struct {
	Buckets []Bucket
	Signs   []Sign
	seed    uint64
	k       int
}

// NewFamily constructs d rows of k-wise independent bucket hashes onto
// [0, width) with matching sign hashes.
func NewFamily(d, width, k int, seed uint64) *Family {
	if d <= 0 {
		panic("hash: family depth must be positive")
	}
	f := &Family{seed: seed, k: k}
	sm := prng.NewSplitMix64(seed)
	for i := 0; i < d; i++ {
		bseed := sm.Next()
		sseed := sm.Next()
		f.Buckets = append(f.Buckets, NewBucket(k, width, bseed))
		f.Signs = append(f.Signs, NewSign(k, sseed))
	}
	return f
}

// Seed returns the base seed the family was constructed with.
func (f *Family) Seed() uint64 { return f.seed }

// K returns the independence parameter.
func (f *Family) K() int { return f.k }

// Compatible reports whether two families were built with identical
// parameters and therefore index identical bucket layouts.
func (f *Family) Compatible(g *Family) error {
	switch {
	case g == nil:
		return fmt.Errorf("hash: nil family")
	case f.seed != g.seed:
		return fmt.Errorf("hash: seed mismatch (%d vs %d)", f.seed, g.seed)
	case f.k != g.k:
		return fmt.Errorf("hash: independence mismatch (%d vs %d)", f.k, g.k)
	case len(f.Buckets) != len(g.Buckets):
		return fmt.Errorf("hash: depth mismatch (%d vs %d)", len(f.Buckets), len(g.Buckets))
	case len(f.Buckets) > 0 && f.Buckets[0].width != g.Buckets[0].width:
		return fmt.Errorf("hash: width mismatch (%d vs %d)", f.Buckets[0].width, g.Buckets[0].width)
	}
	return nil
}
