package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func TestNormalize(t *testing.T) {
	for sym, want := range map[string]string{
		"streamfreq/internal/stream.(*Reader).NextBatch":                      "streamfreq/internal/stream.(*Reader).NextBatch",
		"streamfreq/internal/counters.(*store[go.shape.int64]).push":          "streamfreq/internal/counters.(*store).push",
		"streamfreq/internal/x.Map[go.shape.struct { A []int }].func1.2":      "streamfreq/internal/x.Map",
		"streamfreq/internal/x.F[streamfreq/internal/core.Item]":              "streamfreq/internal/x.F",
		"streamfreq/internal/x.(*T).M-fm":                                     "streamfreq/internal/x.(*T).M",
		"streamfreq/internal/x.F.deferwrap1":                                  "streamfreq/internal/x.F",
		"streamfreq/internal/x.T.M.gowrap2":                                   "streamfreq/internal/x.T.M",
		"streamfreq.init.0":                                                   "streamfreq.init",
		"streamfreq.NewFrequent":                                              "streamfreq.NewFrequent",
		"streamfreq/internal/obs.(*Registry).Stats.func1":                     "streamfreq/internal/obs.(*Registry).Stats",
		"streamfreq/internal/x.(*G[go.shape.uint64,go.shape.string]).M.func3": "streamfreq/internal/x.(*G).M",
	} {
		if got := normalize(sym); got != want {
			t.Errorf("normalize(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestFuncName(t *testing.T) {
	src := `package p
func F() {}
func (T) M() {}
func (t *T) P() {}
func (g *G[K]) Q() {}
func (g G[K, V]) R() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		got = append(got, funcName(d.(*ast.FuncDecl)))
	}
	want := []string{"F", "T.M", "(*T).P", "(*G).Q", "G.R"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("funcName = %q, want %q", got, want)
	}
}

func TestTextSymbols(t *testing.T) {
	nm := `  4a1b20 T streamfreq/internal/stream.(*Reader).NextBatch
  4a1c00 t streamfreq/internal/x.F[go.shape.struct { A int }]
  5b0000 D streamfreq/internal/x.table
  5c0000 R streamfreq/internal/x..dict.F[int]
         U runtime.morestack
`
	got := textSymbols(strings.NewReader(nm))
	want := []string{"streamfreq/internal/stream.(*Reader).NextBatch", "streamfreq/internal/x.F[go.shape.struct { A int }]"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("textSymbols = %q, want %q", got, want)
	}
}

func TestCheck(t *testing.T) {
	fns := []fn{{Symbol: "p.Linked"}, {Symbol: "p.Kept"}, {Symbol: "p.Dead"}}
	linked := map[string]bool{"p.Linked": true}
	for _, c := range []struct {
		name, list string
		problems   []string
		err        bool
	}{
		{name: "exact", list: "# header\np.Kept # test tool\np.Dead  # library API\n"},
		{name: "unlisted", list: "p.Kept # test tool\n",
			problems: []string{"unlisted: p.Dead (:0) is in no binary"}},
		{name: "stale", list: "p.Kept # a\np.Dead # b\np.Linked # c\np.Gone # d\n",
			problems: []string{"stale: p.Gone is no longer declared", "stale: p.Linked is now linked"}},
		{name: "no reason", list: "p.Kept\np.Dead # b\n", err: true},
		{name: "twice", list: "p.Kept # a\np.Kept # b\np.Dead # c\n", err: true},
	} {
		problems, err := check([]byte(c.list), fns, linked)
		if (err != nil) != c.err {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.err)
		}
		if !reflect.DeepEqual(problems, c.problems) {
			t.Errorf("%s: problems = %q, want %q", c.name, problems, c.problems)
		}
	}
}
