package sketches

import (
	"fmt"

	"streamfreq/internal/core"
)

// pointSketch is the subset of sketch behaviour the hierarchy needs from
// each of its per-level sketches.
type pointSketch interface {
	core.Summary
	core.Merger
	core.Subtractor
	core.PairUpdater
}

// Hierarchical answers heavy-hitter queries from a sketch by the dyadic
// decomposition the paper uses for CMH (and equivalently over Count
// Sketch): one sketch per prefix granularity of the item universe. A
// query walks down from the coarsest level, expanding only the prefixes
// whose estimated weight reaches the threshold — the standard
// divide-and-conquer search, with expected O((1/φ)·b·log_b(U)) estimate
// evaluations for branching factor b.
//
// Because Count-Min never underestimates, a CM hierarchy has perfect
// recall; a Count-Sketch hierarchy (two-sided error) can miss items whose
// prefix estimates dip below threshold, the recall gap the paper's sketch
// plots show.
type Hierarchical struct {
	levels       []pointSketch // levels[j] sketches items >> (j*bits)
	bits         uint          // log2 of the branching factor
	universeBits uint
	n            int64
	name         string
	// maxCandidates caps the per-level frontier to bound worst-case query
	// work on adversarial thresholds.
	maxCandidates int
}

// HierarchyConfig parameterizes a Hierarchical sketch.
type HierarchyConfig struct {
	// Depth and Width are the per-level sketch dimensions.
	Depth, Width int
	// Bits is log2 of the branching factor (default 8: 256-way fanout,
	// 8 levels for a 64-bit universe).
	Bits uint
	// UniverseBits is the number of significant item bits (default 64).
	UniverseBits uint
	// Seed derives all per-level hash seeds deterministically.
	Seed uint64
}

func (cfg *HierarchyConfig) normalize() error {
	if cfg.Depth <= 0 || cfg.Width <= 0 {
		return fmt.Errorf("sketches: hierarchy requires positive depth and width")
	}
	if cfg.Bits == 0 {
		cfg.Bits = 8
	}
	if cfg.UniverseBits == 0 {
		cfg.UniverseBits = 64
	}
	if cfg.Bits > 16 {
		return fmt.Errorf("sketches: hierarchy branching 2^%d too large", cfg.Bits)
	}
	if cfg.UniverseBits > 64 {
		return fmt.Errorf("sketches: universe bits %d exceeds 64", cfg.UniverseBits)
	}
	return nil
}

// levelCount returns the number of levels for the configuration.
func (cfg HierarchyConfig) levelCount() int {
	return int((cfg.UniverseBits + cfg.Bits - 1) / cfg.Bits)
}

// NewCountMinHierarchy builds the paper's CMH structure.
func NewCountMinHierarchy(cfg HierarchyConfig) (*Hierarchical, error) {
	return newHierarchy(cfg, "CMH", func(level int, seed uint64) pointSketch {
		return NewCountMin(cfg.Depth, cfg.Width, seed)
	})
}

// NewCountSketchHierarchy builds the equivalent structure over Count
// Sketch rows ("CSH").
func NewCountSketchHierarchy(cfg HierarchyConfig) (*Hierarchical, error) {
	return newHierarchy(cfg, "CSH", func(level int, seed uint64) pointSketch {
		return NewCountSketch(cfg.Depth, cfg.Width, seed)
	})
}

func newHierarchy(cfg HierarchyConfig, name string, mk func(level int, seed uint64) pointSketch) (*Hierarchical, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	h := &Hierarchical{
		bits:          cfg.Bits,
		universeBits:  cfg.UniverseBits,
		name:          name,
		maxCandidates: 1 << 20,
	}
	for j := 0; j < cfg.levelCount(); j++ {
		// Per-level seeds derived from the base seed keep same-config
		// hierarchies mergeable.
		h.levels = append(h.levels, mk(j, cfg.Seed+uint64(j)*0x9e3779b97f4a7c15))
	}
	return h, nil
}

// Name implements core.Summary.
func (h *Hierarchical) Name() string { return h.name }

// N implements core.Summary.
func (h *Hierarchical) N() int64 { return h.n }

// Levels returns the number of dyadic levels.
func (h *Hierarchical) Levels() int { return len(h.levels) }

// Update feeds every level's sketch with the item's prefix at that
// level's granularity.
func (h *Hierarchical) Update(x core.Item, count int64) {
	h.n += count
	xv := uint64(x)
	if h.universeBits < 64 {
		xv &= (1 << h.universeBits) - 1
	}
	for j, s := range h.levels {
		s.Update(core.Item(xv>>(uint(j)*h.bits)), count)
	}
}

// UpdateBatch implements core.BatchUpdater: the batch is collapsed once
// for all levels (core.Collapse), and each level's sketch takes the
// distinct items' prefixes at its granularity, with their counts,
// through its pair path. The prefixes are computed in place, one shift
// per level. Distinct items may share a prefix at the coarse levels;
// every level sketch is linear, so the result is bit-identical to the
// scalar Update loop.
func (h *Hierarchical) UpdateBatch(items []core.Item) {
	core.Collapse(items, func(prefixes []core.Item, counts []int64) {
		if h.universeBits < 64 {
			mask := core.Item(1)<<h.universeBits - 1
			for i := range prefixes {
				prefixes[i] &= mask
			}
		}
		for j, s := range h.levels {
			if j > 0 {
				for i := range prefixes {
					prefixes[i] >>= h.bits
				}
			}
			s.UpdatePairs(prefixes, counts)
		}
	})
	h.n += int64(len(items))
}

// Estimate returns the full-resolution (level-0) estimate.
func (h *Hierarchical) Estimate(x core.Item) int64 {
	xv := uint64(x)
	if h.universeBits < 64 {
		xv &= (1 << h.universeBits) - 1
	}
	return h.levels[0].Estimate(core.Item(xv))
}

// Query descends the dyadic tree, returning the items whose level-0
// estimate reaches threshold, in descending estimate order.
func (h *Hierarchical) Query(threshold int64) []core.ItemCount {
	if threshold <= 0 {
		// A non-positive threshold would force full-universe enumeration.
		threshold = 1
	}
	top := len(h.levels) - 1
	topWidth := h.universeBits - uint(top)*h.bits // ≤ h.bits by construction
	frontier := make([]uint64, 0, 1<<topWidth)
	for p := uint64(0); p < 1<<topWidth; p++ {
		if h.levels[top].Estimate(core.Item(p)) >= threshold {
			frontier = append(frontier, p)
		}
	}
	for j := top - 1; j >= 0; j-- {
		next := frontier[:0:0]
		for _, p := range frontier {
			base := p << h.bits
			for c := uint64(0); c < 1<<h.bits; c++ {
				child := base | c
				if h.levels[j].Estimate(core.Item(child)) >= threshold {
					next = append(next, child)
				}
			}
			if len(next) > h.maxCandidates {
				break
			}
		}
		frontier = next
		if len(frontier) > h.maxCandidates {
			frontier = frontier[:h.maxCandidates]
		}
	}
	out := make([]core.ItemCount, 0, len(frontier))
	for _, p := range frontier {
		out = append(out, core.ItemCount{Item: core.Item(p), Count: h.levels[0].Estimate(core.Item(p))})
	}
	core.SortByCountDesc(out)
	return out
}

// Clone returns an independent deep copy, cloning every level sketch
// through its own Snapshotter implementation.
func (h *Hierarchical) Clone() *Hierarchical {
	nh := &Hierarchical{
		bits:          h.bits,
		universeBits:  h.universeBits,
		n:             h.n,
		name:          h.name,
		maxCandidates: h.maxCandidates,
		levels:        make([]pointSketch, len(h.levels)),
	}
	for j, lvl := range h.levels {
		sn, ok := lvl.(core.Snapshotter)
		if !ok {
			panic("sketches: hierarchy level sketch does not implement Snapshotter")
		}
		nh.levels[j] = sn.Snapshot().(pointSketch)
	}
	return nh
}

// Snapshot implements core.Snapshotter.
func (h *Hierarchical) Snapshot() core.Summary { return h.Clone() }

// Bytes sums the level sketches.
func (h *Hierarchical) Bytes() int {
	total := 0
	for _, s := range h.levels {
		total += s.Bytes()
	}
	return total
}

// Merge folds another hierarchy level-by-level. Both must have been built
// with identical configurations (including seed).
func (h *Hierarchical) Merge(other core.Summary) error {
	o, ok := other.(*Hierarchical)
	if !ok {
		return core.Incompatible("Hierarchical: cannot merge %T", other)
	}
	if err := h.compatible(o); err != nil {
		return err
	}
	for j := range h.levels {
		if err := h.levels[j].Merge(o.levels[j]); err != nil {
			return err
		}
	}
	h.n += o.n
	return nil
}

// Subtract removes another hierarchy's stream level-by-level.
func (h *Hierarchical) Subtract(other core.Summary) error {
	o, ok := other.(*Hierarchical)
	if !ok {
		return core.Incompatible("Hierarchical: cannot subtract %T", other)
	}
	if err := h.compatible(o); err != nil {
		return err
	}
	for j := range h.levels {
		if err := h.levels[j].Subtract(o.levels[j]); err != nil {
			return err
		}
	}
	h.n -= o.n
	return nil
}

func (h *Hierarchical) compatible(o *Hierarchical) error {
	if h.name != o.name || h.bits != o.bits || h.universeBits != o.universeBits || len(h.levels) != len(o.levels) {
		return core.Incompatible("Hierarchical: configuration mismatch")
	}
	return nil
}
