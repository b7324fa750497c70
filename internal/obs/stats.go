package obs

import (
	"fmt"
	"reflect"
	"strings"
)

// statsDoc is one registered stats document.
type statsDoc struct{ read func() any }

// Stats registers a stats document: the struct read returns, which a
// daemon's GET /stats also marshals. Each field tagged metric:"name"
// becomes a series with its help tag as HELP, a counter when the name
// ends in _total and a gauge otherwise. A field with a Seconds method
// (time.Duration, core.Millis) renders in seconds. Untagged exported
// struct fields, embedded or pointed to, are sections, searched in
// turn. A section that is nil now is never registered, and one that is
// nil at a scrape is left out of it.
//
// Every Render reads the document once, so the series of one document
// agree with each other. A field whose series another Stats
// registration already feeds is skipped, so a component that registers
// its own document (persist.Store.Instrument) can also be a section of
// a daemon's; any other second registration of a name panics.
func (r *Registry) Stats(read func() any) {
	d := &statsDoc{read: read}
	var walk func(v reflect.Value, index []int)
	walk = func(v reflect.Value, index []int) {
		for v.Kind() == reflect.Pointer && !v.IsNil() {
			v = v.Elem()
		}
		if v.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			at := append(index[:len(index):len(index)], i)
			name := f.Tag.Get("metric")
			switch {
			case !f.IsExported():
				continue
			case name == "":
				walk(v.Field(i), at)
				continue
			}
			if _, ok := statValue(v.Field(i)); !ok {
				panic(fmt.Sprintf("obs: field %s (%s) cannot be series %s", f.Name, f.Type, name))
			}
			typ := typeGauge
			if strings.HasSuffix(name, "_total") {
				typ = typeCounter
			}
			s := r.lookup(name, f.Tag.Get("help"), typ, nil)
			r.mu.Lock()
			taken := s.ctr != nil || s.fn != nil || s.doc == d
			if !taken && s.doc == nil {
				s.doc, s.field = d, at
			}
			r.mu.Unlock()
			if taken {
				panic(fmt.Sprintf("obs: metric %s registered twice", name))
			}
		}
	}
	walk(reflect.ValueOf(read()), nil)
}

// statField follows index from a document to one tagged field; false
// when a section on the way is nil.
func statField(v reflect.Value, index []int) (reflect.Value, bool) {
	for _, i := range index {
		for v.Kind() == reflect.Pointer && !v.IsNil() {
			v = v.Elem()
		}
		if v.Kind() != reflect.Struct {
			return v, false
		}
		v = v.Field(i)
	}
	return v, true
}

// statValue is a tagged field's sample value; false for a kind no
// series can carry.
func statValue(v reflect.Value) (float64, bool) {
	if d, ok := v.Interface().(interface{ Seconds() float64 }); ok {
		return d.Seconds(), true
	}
	switch {
	case v.CanInt():
		return float64(v.Int()), true
	case v.CanUint():
		return float64(v.Uint()), true
	case v.CanFloat():
		return v.Float(), true
	}
	return 0, false
}
