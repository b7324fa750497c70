package obs

// Prometheus text exposition format 0.0.4: renderer for Registry and
// an in-tree parser used by the conformance tests to round-trip a
// scrape without a promtool dependency.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Render produces the full exposition: families sorted by name,
// series sorted by label fingerprint, histograms expanded into
// cumulative _bucket/_sum/_count lines with Scale applied.
func (r *Registry) Render() string {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()

	// Each Stats document is read once per scrape, on its first series.
	docs := make(map[*statsDoc]reflect.Value)
	var b strings.Builder
	for _, fam := range fams {
		if fam.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.typ)
		sorted := append([]*series(nil), fam.series...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
		for _, s := range sorted {
			switch {
			case s.hist != nil:
				renderHistogram(&b, fam.name, s)
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", fam.name, formatLabels(s.labels), formatValue(s.fn()))
			case s.doc != nil:
				if _, ok := docs[s.doc]; !ok {
					docs[s.doc] = reflect.ValueOf(s.doc.read())
				}
				if f, ok := statField(docs[s.doc], s.field); ok {
					v, _ := statValue(f)
					fmt.Fprintf(&b, "%s%s %s\n", fam.name, formatLabels(s.labels), formatValue(v))
				}
			case s.ctr != nil:
				fmt.Fprintf(&b, "%s%s %d\n", fam.name, formatLabels(s.labels), s.ctr.Value())
			}
		}
	}
	return b.String()
}

func renderHistogram(b *strings.Builder, name string, s *series) {
	h := s.hist
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		var le string
		if i == len(h.buckets)-1 {
			le = "+Inf"
		} else {
			le = formatValue(float64(int64(1)<<(h.base+i)) / h.scale)
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, formatLabels(s.labels, Label{"le", le}), cum)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, formatLabels(s.labels), formatValue(float64(h.sum.Load())/h.scale))
	fmt.Fprintf(b, "%s_count%s %d\n", name, formatLabels(s.labels), cum)
}

// ParsedSeries is one sample line from a scrape. Name is the raw
// sample name — for histograms that includes the _bucket/_sum/_count
// suffix, while the owning ParsedFamily carries the base name.
type ParsedSeries struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsedFamily is one metric family from a scrape: its TYPE, optional
// HELP, and every sample line carrying the family's name (for
// histograms that includes the _bucket/_sum/_count suffixed lines).
type ParsedFamily struct {
	Name   string
	Type   string
	Help   string
	Series []ParsedSeries
}

// ParseExposition parses Prometheus text format 0.0.4 and validates
// what a scraper would choke on: malformed lines, samples without a
// TYPE, duplicate series, and histogram buckets that are not
// cumulative or whose +Inf bucket disagrees with _count. It exists so
// the conformance tests can round-trip /v1/metrics in-tree.
func ParseExposition(rd io.Reader) (map[string]*ParsedFamily, error) {
	fams := make(map[string]*ParsedFamily)
	seen := make(map[string]bool) // name + sorted labels → dup detection
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if !nameOK(name) {
				return nil, fmt.Errorf("line %d: HELP for invalid name %q", lineNo, name)
			}
			fam := fams[name]
			if fam == nil {
				fam = &ParsedFamily{Name: name}
				fams[name] = fam
			}
			fam.Help = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			name, typ := fields[0], fields[1]
			if !nameOK(name) {
				return nil, fmt.Errorf("line %d: TYPE for invalid name %q", lineNo, name)
			}
			switch typ {
			case typeCounter, typeGauge, typeHistogram, "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
			}
			fam := fams[name]
			if fam == nil {
				fam = &ParsedFamily{Name: name}
				fams[name] = fam
			}
			if fam.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			fam.Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam := familyFor(fams, name)
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %s has no TYPE line", lineNo, name)
		}
		dupKey := name + "\x00" + canonLabels(labels)
		if seen[dupKey] {
			return nil, fmt.Errorf("line %d: duplicate series %s%v", lineNo, name, labels)
		}
		seen[dupKey] = true
		fam.Series = append(fam.Series, ParsedSeries{Name: name, Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fam := range fams {
		if fam.Type == "" {
			return nil, fmt.Errorf("family %s has HELP but no TYPE", fam.Name)
		}
		if fam.Type == typeHistogram {
			if err := checkHistogram(fam); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// familyFor resolves a sample name to its family, accounting for
// histogram suffixes.
func familyFor(fams map[string]*ParsedFamily, name string) *ParsedFamily {
	if fam := fams[name]; fam != nil {
		return fam
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if fam := fams[base]; fam != nil && fam.Type == typeHistogram {
				return fam
			}
		}
	}
	return nil
}

func canonLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(',')
	}
	return b.String()
}

// parseSample parses `name{k="v",...} value`.
func parseSample(line string) (string, map[string]string, float64, error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name := rest[:i]
	if !nameOK(name) {
		return "", nil, 0, fmt.Errorf("invalid sample name %q", name)
	}
	// histogram suffixes carry the family name; label names are checked below
	labels := make(map[string]string)
	rest = rest[i:]
	if rest[0] == '{' {
		end := -1
		inQuote, esc := false, false
		for j := 1; j < len(rest); j++ {
			c := rest[j]
			switch {
			case esc:
				esc = false
			case c == '\\' && inQuote:
				esc = true
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], labels); err != nil {
			return "", nil, 0, fmt.Errorf("%v in %q", err, line)
		}
		rest = rest[end+1:]
	}
	valStr := strings.TrimSpace(rest)
	if valStr == "" {
		return "", nil, 0, fmt.Errorf("sample %q has no value", line)
	}
	// timestamps (a second field) are legal in 0.0.4; we never emit
	// them, so reject to keep the round-trip strict.
	if strings.ContainsAny(valStr, " \t") {
		return "", nil, 0, fmt.Errorf("unexpected extra fields in %q", line)
	}
	v, err := parseValue(valStr)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q in %q", valStr, line)
	}
	return name, labels, v, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func parseLabels(s string, into map[string]string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("malformed label pair %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		if !nameOK(key) {
			return fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("label %s value not quoted", key)
		}
		var val strings.Builder
		j := 1
		for ; j < len(s); j++ {
			c := s[j]
			if c == '\\' && j+1 < len(s) {
				j++
				switch s[j] {
				case 'n':
					val.WriteByte('\n')
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				default:
					return fmt.Errorf("bad escape \\%c in label %s", s[j], key)
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if j >= len(s) {
			return fmt.Errorf("unterminated value for label %s", key)
		}
		if _, dup := into[key]; dup {
			return fmt.Errorf("duplicate label %s", key)
		}
		into[key] = val.String()
		s = s[j+1:]
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
		s = strings.TrimSpace(s)
	}
	return nil
}

// checkHistogram validates, per label set: cumulative bucket counts,
// a +Inf bucket present, and _count equal to the +Inf bucket.
func checkHistogram(fam *ParsedFamily) error {
	type hs struct {
		buckets  []ParsedSeries // in appearance order
		infCount float64
		sawInf   bool
		count    float64
		sawCount bool
	}
	groups := make(map[string]*hs)
	group := func(labels map[string]string) *hs {
		cp := make(map[string]string, len(labels))
		for k, v := range labels {
			if k != "le" {
				cp[k] = v
			}
		}
		key := canonLabels(cp)
		g := groups[key]
		if g == nil {
			g = &hs{}
			groups[key] = g
		}
		return g
	}
	for _, s := range fam.Series {
		switch s.Name {
		case fam.Name + "_bucket":
			g := group(s.Labels)
			g.buckets = append(g.buckets, s)
			if s.Labels["le"] == "+Inf" {
				g.sawInf, g.infCount = true, s.Value
			}
		case fam.Name + "_count":
			g := group(s.Labels)
			g.sawCount, g.count = true, s.Value
		case fam.Name + "_sum":
		default:
			return fmt.Errorf("%s: unexpected sample name %s in histogram family", fam.Name, s.Name)
		}
	}
	for key, g := range groups {
		var prev float64
		for _, b := range g.buckets {
			if b.Value < prev {
				return fmt.Errorf("%s{%s}: bucket counts not cumulative", fam.Name, key)
			}
			prev = b.Value
		}
		if !g.sawInf {
			return fmt.Errorf("%s{%s}: histogram missing +Inf bucket", fam.Name, key)
		}
		if !g.sawCount || g.count != g.infCount {
			return fmt.Errorf("%s{%s}: _count %v disagrees with +Inf bucket %v", fam.Name, key, g.count, g.infCount)
		}
	}
	return nil
}
