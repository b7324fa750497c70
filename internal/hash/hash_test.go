package hash

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestMulmodMatchesBigInt(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime)
	f := func(a, b uint64) bool {
		a %= MersennePrime
		b %= MersennePrime
		got := mulmod(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestMulmodEdgeCases(t *testing.T) {
	max := uint64(MersennePrime - 1)
	cases := [][2]uint64{
		{0, 0}, {1, 1}, {max, max}, {max, 1}, {0, max}, {max, 2},
	}
	p := new(big.Int).SetUint64(MersennePrime)
	for _, c := range cases {
		want := new(big.Int).Mul(new(big.Int).SetUint64(c[0]), new(big.Int).SetUint64(c[1]))
		want.Mod(want, p)
		if got := mulmod(c[0], c[1]); got != want.Uint64() {
			t.Errorf("mulmod(%d,%d) = %d, want %d", c[0], c[1], got, want.Uint64())
		}
	}
}

func TestAddmodAndReduce(t *testing.T) {
	if got := addmod(MersennePrime-1, 1); got != 0 {
		t.Errorf("addmod(p-1,1) = %d, want 0", got)
	}
	if got := reduce(math.MaxUint64); got >= MersennePrime {
		t.Errorf("reduce(MaxUint64) = %d not in field", got)
	}
	// reduce must be the identity on field elements.
	for _, v := range []uint64{0, 1, 12345, MersennePrime - 1} {
		if reduce(v) != v {
			t.Errorf("reduce(%d) != identity", v)
		}
	}
}

func TestPolyDeterministicAndSeedSensitive(t *testing.T) {
	a := NewPoly(2, 11)
	b := NewPoly(2, 11)
	c := NewPoly(2, 12)
	diff := false
	for x := uint64(0); x < 100; x++ {
		if a.Hash(x) != b.Hash(x) {
			t.Fatal("same seed, different hashes")
		}
		if a.Hash(x) != c.Hash(x) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical hash functions")
	}
}

func TestPolyRejectsK1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k < 2")
		}
	}()
	NewPoly(1, 0)
}

func TestBucketRange(t *testing.T) {
	for _, w := range []int{1, 2, 7, 100, 1 << 16} {
		b := NewBucket(2, w, 99)
		for x := uint64(0); x < 5000; x++ {
			h := b.Hash(x)
			if h < 0 || h >= w {
				t.Fatalf("bucket hash %d out of [0,%d)", h, w)
			}
		}
		if int(b.width) != w {
			t.Fatalf("width = %d, want %d", int(b.width), w)
		}
	}
}

func TestBucketUniformity(t *testing.T) {
	const w, n = 64, 1 << 17
	b := NewBucket(2, w, 123)
	counts := make([]int, w)
	for x := uint64(0); x < n; x++ {
		counts[b.Hash(Mix64(x))]++
	}
	expected := float64(n) / w
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 6*math.Sqrt(expected) {
			t.Errorf("bucket %d count %d deviates from %.0f", i, c, expected)
		}
	}
}

func TestPairwiseIndependenceCollisions(t *testing.T) {
	// For a pairwise-independent family onto w buckets, Pr[h(x)=h(y)] ≈ 1/w
	// for x ≠ y. Estimate the collision rate over many function draws.
	const w = 16
	const trials = 4000
	collisions := 0
	for s := uint64(0); s < trials; s++ {
		b := NewBucket(2, w, s)
		if b.Hash(1) == b.Hash(2) {
			collisions++
		}
	}
	rate := float64(collisions) / trials
	want := 1.0 / w
	if math.Abs(rate-want) > 0.02 {
		t.Errorf("collision rate %.4f not ≈ %.4f", rate, want)
	}
}

func TestSignBalance(t *testing.T) {
	s := NewSign(2, 7)
	var sum int64
	const n = 1 << 16
	for x := uint64(0); x < n; x++ {
		v := s.Hash(Mix64(x))
		if v != 1 && v != -1 {
			t.Fatalf("sign hash returned %d", v)
		}
		sum += v
	}
	// Balanced within ~4 standard deviations (σ = √n = 256).
	if math.Abs(float64(sum)) > 4*math.Sqrt(n) {
		t.Errorf("sign sum %d too far from 0", sum)
	}
}

func TestSignDeterministic(t *testing.T) {
	a, b := NewSign(2, 5), NewSign(2, 5)
	for x := uint64(0); x < 1000; x++ {
		if a.Hash(x) != b.Hash(x) {
			t.Fatal("same-seed sign hashes diverge")
		}
	}
}

func TestMix64InjectiveOnSample(t *testing.T) {
	seen := make(map[uint64]uint64, 1<<16)
	for x := uint64(0); x < 1<<16; x++ {
		m := Mix64(x)
		if prev, ok := seen[m]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %d", prev, x, m)
		}
		seen[m] = x
	}
}

func TestFamilyCompatible(t *testing.T) {
	a := NewFamily(4, 128, 2, 9, false)
	b := NewFamily(4, 128, 2, 9, false)
	if err := a.Compatible(b); err != nil {
		t.Errorf("identical families incompatible: %v", err)
	}
	cases := []*Family{
		NewFamily(4, 128, 2, 10, false), // seed differs
		NewFamily(5, 128, 2, 9, false),  // depth differs
		NewFamily(4, 256, 2, 9, false),  // width differs
		NewFamily(4, 128, 4, 9, false),  // independence differs
	}
	for i, c := range cases {
		if err := a.Compatible(c); err == nil {
			t.Errorf("case %d: expected incompatibility", i)
		}
	}
	if err := a.Compatible(nil); err == nil {
		t.Error("nil family should be incompatible")
	}
}

func TestFamilyRowsIndependentlySeeded(t *testing.T) {
	f := NewFamily(3, 1024, 2, 21, false)
	// Rows must not be identical functions.
	same01, same12 := true, true
	for x := uint64(0); x < 200; x++ {
		if f.Buckets[0].Hash(x) != f.Buckets[1].Hash(x) {
			same01 = false
		}
		if f.Buckets[1].Hash(x) != f.Buckets[2].Hash(x) {
			same12 = false
		}
	}
	if same01 || same12 {
		t.Error("family rows are identical hash functions")
	}
}

func Test4WisePolyStillUniform(t *testing.T) {
	const w, n = 32, 1 << 16
	b := NewBucket(4, w, 77)
	counts := make([]int, w)
	for x := uint64(0); x < n; x++ {
		counts[b.Hash(Mix64(x))]++
	}
	expected := float64(n) / w
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 6*math.Sqrt(expected) {
			t.Errorf("bucket %d count %d deviates from %.0f", i, c, expected)
		}
	}
}

// TestBucketReductionExact pins the division-free reduction to the plain
// remainder it replaces: Bucket.Hash and the batch kernel must equal
// Poly.Hash(x) % width for every width (so no sketch counter moves), on
// Mix64 samples and on the field values at the reduction's edges.
func TestBucketReductionExact(t *testing.T) {
	type item uint64 // the kernel is generic over ~uint64 item types
	for _, width := range []int{1, 2, 3, 7, 2000, 2048, 65537, 1<<31 - 1} {
		w := uint64(width)
		for _, k := range []int{2, 4} {
			b := NewBucket(k, width, uint64(width)*31+uint64(k))
			xs := []item{0, 1, MersennePrime - 2, MersennePrime - 1, MersennePrime, math.MaxUint64}
			for i := uint64(0); i < 4096; i++ {
				xs = append(xs, item(Mix64(i)))
			}
			got := make([]int, len(xs))
			Buckets(&b, xs, got)
			for i, x := range xs {
				want := int(b.p.Hash(uint64(x)) % w)
				if h := b.Hash(uint64(x)); h != want || got[i] != want {
					t.Fatalf("width %d k %d: x=%d: Hash %d, Buckets %d, want %d", width, k, x, h, got[i], want)
				}
			}
		}
		// The reduction itself, on field values 0, 1, p−2, p−1 and
		// multiples of width ±1 at both ends of the field.
		vals := []uint64{0, 1, MersennePrime - 2, MersennePrime - 1}
		top := (MersennePrime - 1) / w
		for _, q := range []uint64{1, 2, 3, top - 1, top} {
			if q == 0 {
				continue
			}
			vals = append(vals, q*w-1, q*w, q*w+1)
		}
		for _, v := range vals {
			if v >= MersennePrime {
				continue
			}
			if got, want := mod(v, w, math.MaxUint64/w), v%w; got != want {
				t.Fatalf("width %d: mod(%d) = %d, want %d", width, v, got, want)
			}
		}
	}
}

// TestSignsMatchScalar: the batch sign kernel equals Sign.Hash.
func TestSignsMatchScalar(t *testing.T) {
	for _, k := range []int{2, 4} {
		s := NewSign(k, uint64(k)*7)
		xs := []uint64{0, 1, MersennePrime - 1, MersennePrime, math.MaxUint64}
		for i := uint64(0); i < 4096; i++ {
			xs = append(xs, Mix64(i))
		}
		got := make([]int64, len(xs))
		Signs(s, xs, got)
		for i, x := range xs {
			if want := s.Hash(x); got[i] != want {
				t.Fatalf("k %d: Signs(%d) = %d, Sign.Hash = %d", k, x, got[i], want)
			}
		}
	}
}
