package streamfreq

import (
	"fmt"
	"sort"
	"strings"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/quantile"
	"streamfreq/internal/sketches"
	"streamfreq/internal/window"
)

// Algorithms returns the paper codes of every registered algorithm, in
// the order they appear in the paper's plots (counter-based first).
func Algorithms() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return factoryOrder[names[i]] < factoryOrder[names[j]] })
	return names
}

// CounterBased reports whether the paper code names a counter-based
// (rather than sketch-based) algorithm.
func CounterBased(name string) bool {
	switch strings.ToUpper(name) {
	case "F", "LC", "LCD", "SSL", "SSH":
		return true
	}
	return false
}

// New constructs the named algorithm provisioned for threshold phi: the
// counter budget is k = ⌈1/φ⌉ for counter-based summaries, and the sketch
// dimensions are chosen so the sketch spends a comparable number of
// counters per the paper's equal-resource methodology (width 2/φ, depth
// 4, plus the hierarchy/group-testing overheads inherent to each
// structure). seed drives all hash randomness; equal (name, phi, seed)
// summaries are mergeable. A φ whose structure its decoder would refuse
// is an error, never a clamp or a panic: a counter budget, a Tracked
// roster or Lossy Counting's 2/φ past counters.MaxBudget
// (counters.Budget), or a sketch past sketches.CheckSize's bound.
func New(name string, phi float64, seed uint64) (Summary, error) {
	if phi <= 0 || phi >= 1 {
		return nil, fmt.Errorf("streamfreq: phi must be in (0,1), got %g", phi)
	}
	f, ok := factories[strings.ToUpper(name)]
	if !ok {
		return nil, fmt.Errorf("streamfreq: unknown algorithm %q (have %s)",
			name, strings.Join(Algorithms(), ", "))
	}
	s, err := f(phi, seed)
	if err != nil {
		return nil, fmt.Errorf("streamfreq: %s: %w", strings.ToUpper(name), err)
	}
	return s, nil
}

// MustNew is New for static configurations known to be valid; it panics
// on error.
func MustNew(name string, phi float64, seed uint64) Summary {
	s, err := New(name, phi, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// budgeted builds a counter summary over scale·k counters, k the
// canonical budget for φ (counters.Budget). Lossy Counting at ε = φ/2
// passes scale 2 and ignores k: a budget within counters.MaxBudget
// puts 1/ε within it too, the bound its constructor and decoder apply.
func budgeted(phi float64, scale int, build func(k int) Summary) (Summary, error) {
	k, err := counters.Budget(phi, scale)
	if err != nil {
		return nil, err
	}
	return build(k), nil
}

// sketch sizing constants: depth 4 matches the paper's default of a few
// rows; width 2/φ gives ε = φ/2 collision noise so sketch precision is
// comparable to the counter algorithms' guarantee at equal order of
// space.
const sketchDepth = 4

// sketchWidth is 2/φ, at least 8. 2/φ is capped at 2^40 before the
// conversion, which would overflow past 2^63; a width that large is past
// every sketch's bound (sketches.CheckSize), which the hierarchy
// constructors and the CGT factory apply and counters.Budget implies for
// the tracked sketches.
func sketchWidth(phi float64) int {
	return max(int(min(2/phi, 1<<40)), 8)
}

var factories = map[string]func(phi float64, seed uint64) (Summary, error){
	"F": func(phi float64, _ uint64) (Summary, error) {
		return budgeted(phi, 1, func(k int) Summary { return counters.NewFrequent(k) })
	},
	"LC": func(phi float64, _ uint64) (Summary, error) {
		return budgeted(phi, 2, func(int) Summary { return counters.NewLossyCounting(phi/2, counters.VariantLC) })
	},
	"LCD": func(phi float64, _ uint64) (Summary, error) {
		return budgeted(phi, 2, func(int) Summary { return counters.NewLossyCounting(phi/2, counters.VariantLCD) })
	},
	"SSH": func(phi float64, _ uint64) (Summary, error) {
		return budgeted(phi, 1, func(k int) Summary { return counters.NewSpaceSavingHeap(k) })
	},
	"SSL": func(phi float64, _ uint64) (Summary, error) {
		return budgeted(phi, 1, func(k int) Summary { return counters.NewSpaceSavingList(k) })
	},
	"CM": func(phi float64, seed uint64) (Summary, error) {
		// Flat Count-Min with a top-2/φ heap tracker (point sketch made
		// enumerable, as in the paper's CS+heap usage).
		return budgeted(phi, 2, func(k int) Summary {
			return counters.NewTracked(sketches.NewCountMin(sketchDepth, sketchWidth(phi), seed), k)
		})
	},
	"CS": func(phi float64, seed uint64) (Summary, error) {
		return budgeted(phi, 2, func(k int) Summary {
			return counters.NewTracked(sketches.NewCountSketch(sketchDepth+1, sketchWidth(phi), seed), k)
		})
	},
	"CMH": func(phi float64, seed uint64) (Summary, error) {
		return sketches.NewCountMinHierarchy(sketches.HierarchyConfig{
			Depth: sketchDepth, Width: sketchWidth(phi), Bits: 8, Seed: seed,
		})
	},
	"CSH": func(phi float64, seed uint64) (Summary, error) {
		return sketches.NewCountSketchHierarchy(sketches.HierarchyConfig{
			Depth: sketchDepth + 1, Width: sketchWidth(phi), Bits: 8, Seed: seed,
		})
	},
	"CGT": func(phi float64, seed uint64) (Summary, error) {
		w := sketchWidth(phi)
		if err := sketches.CheckSize(sketchDepth, uint64(w), 1+64); err != nil {
			return nil, err
		}
		return sketches.NewCGT(sketchDepth, w, 64, seed), nil
	},
}

var factoryOrder = map[string]int{
	"F": 0, "LC": 1, "LCD": 2, "SSL": 3, "SSH": 4,
	"CM": 5, "CS": 6, "CMH": 7, "CSH": 8, "CGT": 9,
}

// decoders maps each wire-format magic to its decoder. Keep in sync with
// the MarshalBinary implementations in internal/counters and
// internal/sketches.
var decoders = map[string]func([]byte) (Summary, error){
	"CM01": func(b []byte) (Summary, error) { return sketches.DecodeCountMin(b) },
	"CS01": func(b []byte) (Summary, error) { return sketches.DecodeCountSketch(b) },
	"CG01": func(b []byte) (Summary, error) { return sketches.DecodeCGT(b) },
	"HI01": func(b []byte) (Summary, error) { return sketches.DecodeHierarchical(b) },
	"FQ02": func(b []byte) (Summary, error) { return counters.DecodeFrequent(b) },
	"SS02": func(b []byte) (Summary, error) { return counters.DecodeSpaceSavingHeap(b) },
	"LC02": func(b []byte) (Summary, error) { return counters.DecodeLossyCounting(b) },
	"SL02": func(b []byte) (Summary, error) { return counters.DecodeSpaceSavingList(b) },
	// The 02 counter formats' fixed-width predecessors, still read.
	"FQ01": func(b []byte) (Summary, error) { return counters.DecodeFrequent(b) },
	"SS01": func(b []byte) (Summary, error) { return counters.DecodeSpaceSavingHeap(b) },
	"LC01": func(b []byte) (Summary, error) { return counters.DecodeLossyCounting(b) },
	"SL01": func(b []byte) (Summary, error) { return counters.DecodeSpaceSavingList(b) },
	// WN01 is the sliding-window summary ("SSW"): not in the factories
	// roster — it answers a different question (last-W counts, not
	// whole-stream) and is provisioned by window geometry, not φ alone —
	// but a first-class wire citizen, so windowed checkpoints, /summary
	// pulls, and cluster merges dispatch like any flat summary.
	"WN01": func(b []byte) (Summary, error) { return window.DecodeWindowed(b) },
	// GK01 is the Greenwald–Khanna quantile summary ("GK"), the same
	// wire-citizen-not-roster arrangement as WN01: it answers rank/range
	// queries rather than FrequentItems(φ) and is provisioned by ε, but
	// its checkpoints, /summary pulls, and cluster merges dispatch
	// through the generic machinery.
	"GK01": func(b []byte) (Summary, error) { return quantile.DecodeGK(b) },
}

// The TK01 decoder recursively dispatches through Decode for the nested
// sketch blob, so it is registered in init to break the initialization
// cycle a map-literal entry would create.
func init() {
	decoders["TK01"] = func(b []byte) (Summary, error) { return counters.DecodeTracked(b, decodeTrackedInner) }
}

// decodeTrackedInner dispatches a Tracked wrapper's nested sketch blob.
// Nesting a Tracked inside a Tracked is not a configuration New can
// produce, and rejecting it here bounds decode recursion, so a forged
// blob cannot wind the stack (FuzzDecode leans on this).
func decodeTrackedInner(b []byte) (core.Summary, error) {
	if len(b) >= 4 && string(b[:4]) == "TK01" {
		return nil, fmt.Errorf("streamfreq: nested Tracked blobs are not supported")
	}
	return Decode(b)
}

// SupportedMagics returns the wire-format magics Decode can dispatch on,
// sorted for stable display.
func SupportedMagics() []string {
	out := make([]string, 0, len(decoders))
	for m := range decoders {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// MergeEncoded decodes each blob and merges them all into one summary —
// the coordinator primitive: per-node Encode blobs in, one summary of
// the union stream out. Every blob must decode to the same algorithm
// with the same parameters; the first failure names the offending blob
// by index (mixed-algorithm and parameter mismatches come back wrapping
// ErrIncompatible). The blobs themselves are not retained, and the
// result is independent of them: callers can merge the same stored
// blobs again on the next cycle.
func MergeEncoded(blobs ...[]byte) (Summary, error) {
	if len(blobs) == 0 {
		return nil, fmt.Errorf("streamfreq: MergeEncoded needs at least one blob")
	}
	merged, err := Decode(blobs[0])
	if err != nil {
		return nil, fmt.Errorf("streamfreq: blob 0: %w", err)
	}
	if len(blobs) == 1 {
		return merged, nil
	}
	m, ok := merged.(Merger)
	if !ok {
		return nil, fmt.Errorf("streamfreq: %s does not support merging", merged.Name())
	}
	for i, b := range blobs[1:] {
		s, err := Decode(b)
		if err != nil {
			return nil, fmt.Errorf("streamfreq: blob %d: %w", i+1, err)
		}
		if err := m.Merge(s); err != nil {
			return nil, fmt.Errorf("streamfreq: merging blob %d (%s into %s): %w",
				i+1, s.Name(), merged.Name(), err)
		}
	}
	return merged, nil
}

// Decode reconstructs a serialized summary, dispatching on the blob's
// 4-byte magic. It supports every type with a MarshalBinary method.
func Decode(data []byte) (Summary, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("streamfreq: blob too short to identify (%d bytes, magic needs 4)", len(data))
	}
	if d, ok := decoders[string(data[:4])]; ok {
		return d(data)
	}
	// The magic may be arbitrary (possibly non-printable) bytes — a
	// truncated upload, a foreign format — so render it as hex, and name
	// the formats this build can decode.
	return nil, fmt.Errorf("streamfreq: unknown blob magic 0x%x (supported: %s)",
		data[:4], strings.Join(SupportedMagics(), " "))
}
