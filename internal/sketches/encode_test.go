package sketches

import (
	"testing"

	"streamfreq/internal/zipf"
)

func TestCountMinRoundTrip(t *testing.T) {
	cm := NewCountMin(4, 256, 77)
	g, _ := zipf.NewGenerator(200, 1.0, 5, true)
	for i := 0; i < 10000; i++ {
		cm.Update(g.Next(), 1)
	}
	blob, err := cm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCountMin(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != cm.N() || got.depth != cm.depth || got.width != cm.width {
		t.Fatal("header fields lost")
	}
	for r := 1; r <= 200; r++ {
		it := g.ItemOfRank(r)
		if got.Estimate(it) != cm.Estimate(it) {
			t.Fatalf("estimate mismatch after round trip for item %d", it)
		}
	}
	// Behavioural identity: decoded sketch must be mergeable with the
	// original (same seed-derived hashes).
	if err := got.Merge(cm); err != nil {
		t.Fatalf("decoded sketch incompatible with original: %v", err)
	}
}

func TestCountMinConservativeRoundTrip(t *testing.T) {
	cm := NewCountMinConservative(3, 128, 9)
	cm.Update(1, 10)
	cm.Update(2, 5)
	blob, _ := cm.MarshalBinary()
	got, err := DecodeCountMin(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "CMC" {
		t.Errorf("conservative flag lost: %s", got.Name())
	}
	if got.Estimate(1) != cm.Estimate(1) {
		t.Error("estimate mismatch")
	}
}

func TestCountSketchRoundTrip(t *testing.T) {
	cs := NewCountSketch(5, 512, 13)
	g, _ := zipf.NewGenerator(300, 1.2, 8, true)
	for i := 0; i < 20000; i++ {
		cs.Update(g.Next(), 1)
	}
	cs.Update(42, -17)
	blob, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCountSketch(blob)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 300; r++ {
		it := g.ItemOfRank(r)
		if got.Estimate(it) != cs.Estimate(it) {
			t.Fatal("estimate mismatch after round trip")
		}
	}
	if got.N() != cs.N() {
		t.Errorf("N mismatch: %d vs %d", got.N(), cs.N())
	}
}

func TestCGTRoundTrip(t *testing.T) {
	c := NewCGT(3, 128, 64, 5)
	g, _ := zipf.NewGenerator(200, 1.3, 9, true)
	for i := 0; i < 15000; i++ {
		c.Update(g.Next(), 1)
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCGT(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Query(100)
	have := got.Query(100)
	if len(want) != len(have) {
		t.Fatalf("query sizes differ: %d vs %d", len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("query row %d differs", i)
		}
	}
}

func TestHierarchyRoundTrip(t *testing.T) {
	for _, mk := range []func(HierarchyConfig) (*Hierarchical, error){
		NewCountMinHierarchy, NewCountSketchHierarchy,
	} {
		h, err := mk(HierarchyConfig{Depth: 3, Width: 256, Bits: 8, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		g, _ := zipf.NewGenerator(150, 1.4, 10, true)
		for i := 0; i < 10000; i++ {
			h.Update(g.Next(), 1)
		}
		blob, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeHierarchical(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != h.Name() || len(got.levels) != len(h.levels) || got.N() != h.N() {
			t.Fatal("hierarchy metadata lost")
		}
		w := h.Query(50)
		v := got.Query(50)
		if len(w) != len(v) {
			t.Fatalf("%s: query sizes differ after round trip", h.Name())
		}
		for i := range w {
			if w[i] != v[i] {
				t.Fatalf("%s: query row %d differs", h.Name(), i)
			}
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	cm := NewCountMin(2, 64, 1)
	cm.Update(5, 9)
	blob, _ := cm.MarshalBinary()

	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("XX99"), blob[4:]...),
		"truncated":      blob[:len(blob)-5],
		"trailing bytes": append(append([]byte{}, blob...), 0xFF),
	}
	for name, data := range cases {
		if _, err := DecodeCountMin(data); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}

	// Implausible dimensions: forge depth=2^40.
	forged := append([]byte{}, blob...)
	for i := 12; i < 20; i++ {
		forged[i] = 0xFF
	}
	if _, err := DecodeCountMin(forged); err == nil {
		t.Error("forged dimensions: expected decode error")
	}
}

func TestDecodeWrongTypeMagic(t *testing.T) {
	cs := NewCountSketch(2, 64, 1)
	blob, _ := cs.MarshalBinary()
	if _, err := DecodeCountMin(blob); err == nil {
		t.Error("CM decoder accepted a CS blob")
	}
	if _, err := DecodeCGT(blob); err == nil {
		t.Error("CGT decoder accepted a CS blob")
	}
	if _, err := DecodeHierarchical(blob); err == nil {
		t.Error("hierarchy decoder accepted a CS blob")
	}
}

func TestHierarchyDecodeRejectsTruncatedLevel(t *testing.T) {
	h, _ := NewCountMinHierarchy(HierarchyConfig{Depth: 2, Width: 64, Bits: 8, Seed: 1})
	h.Update(3, 5)
	blob, _ := h.MarshalBinary()
	if _, err := DecodeHierarchical(blob[:len(blob)-9]); err == nil {
		t.Error("expected truncated-level error")
	}
}

// TestCheckSizeEdges pins the one size bound at its edges without
// allocating: a product of exactly 2^28 counters passes, one past it
// fails, and so does a triple whose product wraps past 2^64 to a small
// number (1 × 283,796,062,672,454,641 × 65 wraps to 49).
func TestCheckSizeEdges(t *testing.T) {
	for _, c := range []struct {
		depth, width, stride uint64
		ok                   bool
	}{
		{1, 1 << 28, 1, true},
		{4, 1 << 26, 1, true},
		{4, 1_032_444, 65, true}, // the registry's CGT: 268,435,440 counters
		{1 << 28, 1, 1, true},
		{1, 1, 1 << 28, true},
		{1, 1<<28 + 1, 1, false},
		{3, 89_478_486, 1, false}, // 2^28 + 2
		{4, 1_032_445, 65, false}, // 268,435,700
		{2, 1 << 27, 2, false},
		{1, 283_796_062_672_454_641, 65, false},
		{1 << 32, 1 << 32, 1, false},
		{0, 8, 1, false},
		{4, 0, 1, false},
		{4, 8, 0, false},
		{1<<64 - 1, 8, 1, false}, // depth −1 as an int
	} {
		if err := CheckSize(c.depth, c.width, c.stride); (err == nil) != c.ok {
			t.Errorf("CheckSize(%d, %d, %d) = %v, want ok=%v", c.depth, c.width, c.stride, err, c.ok)
		}
	}
}

// TestDecodeRefusesWrappingCGT: a 444-byte CG01 blob claiming depth 1,
// width 283,796,062,672,454,641 and 64 universe bits, whose 49 cells
// are the product wrapped past 2^64, must not decode: with the bound
// applied after the multiplication it did, and its first Update,
// Estimate or Query indexed out of range.
func TestDecodeRefusesWrappingCGT(t *testing.T) {
	blob := []byte(magicCG)
	for _, v := range []uint64{0, 1, 283_796_062_672_454_641, 64, 7, 0} { // flags, depth, width, universe bits, seed, n
		blob = le.AppendUint64(blob, v)
	}
	blob = append(blob, make([]byte, 8*49)...)
	if len(blob) != 444 {
		t.Fatalf("blob is %d bytes", len(blob))
	}
	if c, err := DecodeCGT(blob); err == nil {
		t.Fatalf("decoded a %d-cell CGT", len(c.cells))
	}
}

// TestConstructorsApplyTheBound: a constructor refuses what its decoder
// would, so every sketch it builds round-trips. Each request here is
// past the bound (TestCheckSizeEdges pins its edges) and panics, or
// errors for a hierarchy, before it allocates; the CGT one wraps to 49
// counters when multiplied unchecked.
func TestConstructorsApplyTheBound(t *testing.T) {
	for name, build := range map[string]func(){
		"CountMin":             func() { NewCountMin(1, 1<<47, 1) },
		"CountMinConservative": func() { NewCountMinConservative(1<<20, 1<<27, 1) },
		"CountSketch":          func() { NewCountSketch(2, 1<<46, 1) },
		"CGT":                  func() { NewCGT(1, 1<<47, 64, 1) },
		"CGT wrapping":         func() { NewCGT(1, 283_796_062_672_454_641, 64, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past the bound did not panic", name)
				}
			}()
			build()
		}()
	}
	if _, err := NewCountMinHierarchy(HierarchyConfig{Depth: 1, Width: 1 << 47}); err == nil {
		t.Error("hierarchy past the bound built")
	}
}

// TestSignsOnlyForCountSketch: Count Sketch's rows, alone of the
// sketches', read a sign hash, so only its family builds them, in a
// sketch built or decoded, flat or at every level of a hierarchy.
func TestSignsOnlyForCountSketch(t *testing.T) {
	const depth = 4
	cmh, err := NewCountMinHierarchy(HierarchyConfig{Depth: depth, Width: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	csh, err := NewCountSketchHierarchy(HierarchyConfig{Depth: depth, Width: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s      interface{ MarshalBinary() ([]byte, error) }
		decode func([]byte) (any, error)
		signs  int
	}{
		{NewCountMin(depth, 64, 3), func(b []byte) (any, error) { return DecodeCountMin(b) }, 0},
		{NewCGT(depth, 64, 32, 3), func(b []byte) (any, error) { return DecodeCGT(b) }, 0},
		{cmh, func(b []byte) (any, error) { return DecodeHierarchical(b) }, 0},
		{NewCountSketch(depth, 64, 3), func(b []byte) (any, error) { return DecodeCountSketch(b) }, depth},
		{csh, func(b []byte) (any, error) { return DecodeHierarchical(b) }, depth},
	} {
		blob, err := tc.s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := tc.decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		ms := append(matrices(tc.s), matrices(decoded)...)
		if len(ms) < 2 {
			t.Fatalf("%T: no counter matrix found", tc.s)
		}
		for _, m := range ms {
			if got := len(m.family.Signs); got != tc.signs {
				t.Fatalf("%T: a family of %d rows has %d sign hashes, want %d", tc.s, depth, got, tc.signs)
			}
		}
	}
}

// matrices returns the counter matrices of a flat or hierarchical
// sketch.
func matrices(s any) []*matrix {
	switch s := s.(type) {
	case *CountMin:
		return []*matrix{&s.matrix}
	case *CountSketch:
		return []*matrix{&s.matrix}
	case *CGT:
		return []*matrix{&s.matrix}
	case *Hierarchical:
		var out []*matrix
		for _, l := range s.levels {
			out = append(out, matrices(l)...)
		}
		return out
	}
	return nil
}
