// Command linkprobe lists the functions no binary links. Run from the
// repository root, it builds every main package of the root module and
// of bench/ (cmd/*, examples/*, bench's freqload) with inlining off
// (-gcflags=all=-l), reads each binary's text symbols with `go tool nm`,
// and reports every function and method declared in the non-test files
// of the root module's non-main packages that none of the binaries
// contains:
//
//	go run ./cmd/linkprobe
//
// A generic function counts as linked when any of its instantiations
// is, and a closure, method value or defer wrapper counts for the
// function that declares it.
//
// allowlist.txt, beside this file, names the unlinked functions that
// stay, one symbol per line as linkprobe prints it, with its reason
// after a `#`. The probe exits 1 on an unlinked function the list does
// not name, and on a listed one that a binary now links or that is no
// longer declared, so the list stays exactly the set of unlinked code.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

//go:embed allowlist.txt
var allowlist []byte

// pkg is the part of `go list -json` the probe reads.
type pkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
}

// fn is one declared function or method.
type fn struct {
	Symbol string // as `go tool nm` names it, type arguments dropped
	File   string // relative to the root module
	Line   int
	Lines  int
}

func main() {
	fns, linked, bins, err := probe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkprobe:", err)
		os.Exit(2)
	}
	var unlinked []fn
	lines := 0
	for _, f := range fns {
		if !linked[f.Symbol] {
			unlinked = append(unlinked, f)
			lines += f.Lines
		}
	}
	for _, f := range unlinked {
		fmt.Printf("%s\t%s:%d\t%d lines\n", f.Symbol, f.File, f.Line, f.Lines)
	}
	fmt.Printf("linkprobe: %d binaries; %d of %d functions (%d lines) in no binary\n",
		bins, len(unlinked), len(fns), lines)
	problems, err := check(allowlist, fns, linked)
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkprobe: cmd/linkprobe/allowlist.txt:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "linkprobe: cmd/linkprobe/allowlist.txt is out of date (%d problems)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("linkprobe: cmd/linkprobe/allowlist.txt names every unlinked function")
}

// probe returns the functions declared in the root module's non-main
// packages, the set of those symbols some binary links, and how many
// binaries it built from the main packages of the root module and bench/.
func probe() ([]fn, map[string]bool, int, error) {
	root, err := filepath.Abs(".")
	if err != nil {
		return nil, nil, 0, err
	}
	out, err := os.MkdirTemp("", "linkprobe")
	if err != nil {
		return nil, nil, 0, err
	}
	defer os.RemoveAll(out)
	var fns []fn
	linked := map[string]bool{}
	bins := 0
	for i, mod := range []string{".", "bench"} {
		pkgs, err := list(mod)
		if err != nil {
			return nil, nil, 0, err
		}
		var mains []string
		for _, p := range pkgs {
			switch {
			case p.Name == "main":
				mains = append(mains, p.ImportPath)
			case mod == ".":
				declared, err := declarations(root, p)
				if err != nil {
					return nil, nil, 0, err
				}
				fns = append(fns, declared...)
			}
		}
		dir := filepath.Join(out, fmt.Sprint(i)) + string(filepath.Separator)
		args := append([]string{"-C", mod, "build", "-gcflags=all=-l", "-o", dir}, mains...)
		if err := run(nil, "go", args...); err != nil {
			return nil, nil, 0, err
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, nil, 0, err
		}
		for _, e := range ents {
			var nm bytes.Buffer
			if err := run(&nm, "go", "tool", "nm", filepath.Join(dir, e.Name())); err != nil {
				return nil, nil, 0, err
			}
			for _, s := range textSymbols(&nm) {
				linked[normalize(s)] = true
			}
			bins++
		}
	}
	return fns, linked, bins, nil
}

// list returns the packages of the module in dir.
func list(dir string) ([]pkg, error) {
	var buf bytes.Buffer
	if err := run(&buf, "go", "-C", dir, "list", "-json", "./..."); err != nil {
		return nil, err
	}
	var pkgs []pkg
	for dec := json.NewDecoder(&buf); ; {
		var p pkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// declarations parses p's non-test files (those its build selects) and
// returns each function and method they declare.
func declarations(root string, p pkg) ([]fn, error) {
	fset := token.NewFileSet()
	var fns []fn
	for _, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" {
				continue
			}
			start, end := fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
			fns = append(fns, fn{
				Symbol: p.ImportPath + "." + funcName(fd),
				File:   filepath.ToSlash(rel),
				Line:   start,
				Lines:  end - start + 1,
			})
		}
	}
	return fns, nil
}

// funcName spells fd the way the linker does: F, T.M or (*T).M.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ, star := fd.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fd.Name.Name
}

// textSymbols returns the names of the text (code) symbols in `go tool
// nm` output. A line is "address type name"; a name may hold spaces.
func textSymbols(r io.Reader) []string {
	var syms []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
			syms = append(syms, strings.Join(f[2:], " "))
		}
	}
	return syms
}

// generated matches the name parts the compiler appends to the function
// that holds them: closures (func1, and 2 for a closure within it),
// defer and go wrappers, and numbered init functions.
var generated = regexp.MustCompile(`^(func|deferwrap|gowrap)?[0-9]+$`)

// normalize maps a linker symbol to the symbol of the declaration it
// comes from: type arguments go, and so do closure suffixes and a
// method value's -fm.
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	sym = strings.TrimSuffix(b.String(), "-fm")
	slash := strings.LastIndex(sym, "/") + 1
	i := strings.IndexByte(sym[slash:], '.')
	if i < 0 {
		return sym
	}
	pkgPath, parts := sym[:slash+i], strings.Split(sym[slash+i+1:], ".")
	for len(parts) > 1 && generated.MatchString(parts[len(parts)-1]) {
		parts = parts[:len(parts)-1]
	}
	return pkgPath + "." + strings.Join(parts, ".")
}

// check compares an allowlist with the probe's findings and returns one
// line per problem: an unlinked function the list does not name, or an
// entry that is linked or no longer declared.
func check(allowlist []byte, fns []fn, linked map[string]bool) ([]string, error) {
	listed := map[string]bool{}
	for i, line := range strings.Split(string(allowlist), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, ok := strings.Cut(line, "#")
		sym = strings.TrimSpace(sym)
		if !ok || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("line %d: %s has no reason after #", i+1, sym)
		}
		if listed[sym] {
			return nil, fmt.Errorf("line %d: %s is listed twice", i+1, sym)
		}
		listed[sym] = true
	}
	declared := map[string]bool{}
	var problems []string
	for _, f := range fns {
		declared[f.Symbol] = true
		if !linked[f.Symbol] && !listed[f.Symbol] {
			problems = append(problems, fmt.Sprintf("unlisted: %s (%s:%d) is in no binary", f.Symbol, f.File, f.Line))
		}
	}
	var stale []string
	for sym := range listed {
		switch {
		case !declared[sym]:
			stale = append(stale, "stale: "+sym+" is no longer declared")
		case linked[sym]:
			stale = append(stale, "stale: "+sym+" is now linked")
		}
	}
	sort.Strings(stale)
	return append(problems, stale...), nil
}

// run runs a command, sending its output to out (or discarding it) and
// its errors to stderr.
func run(out io.Writer, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = out, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return nil
}
