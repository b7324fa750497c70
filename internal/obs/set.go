package obs

// Set is the serving path's named-counter set, whose Add is lock-free
// (one atomic add after a lock-free map lookup). Keys are dotted
// ("ingest.items", "queries.topk") and read back as the /stats JSON
// "counters" section, while each key is also registered with the
// Prometheus registry as freq_<key>_total.
//
// The map is copy-on-write behind an atomic pointer: the steady state
// (every key already created) never takes the mutex, and key creation
// — a handful of times per process lifetime — copies a small map.

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Set is a lock-free named counter set. The zero value is not usable;
// call NewSet.
type Set struct {
	reg    *Registry
	prefix string
	mu     sync.Mutex // serializes key creation only
	m      atomic.Pointer[map[string]*Counter]
}

// NewSet returns a counter set registering its keys on reg as
// prefix_<key>_total, with dots and dashes in key flattened to
// underscores. reg may be nil for a set that only serves Snapshot.
func NewSet(reg *Registry, prefix string) *Set {
	s := &Set{reg: reg, prefix: prefix}
	empty := make(map[string]*Counter)
	s.m.Store(&empty)
	return s
}

// promName flattens a dotted key to a metric name component.
func promName(prefix, key string) string {
	flat := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, key)
	return prefix + "_" + flat + "_total"
}

// Counter returns the counter for key, creating and registering it on
// first use.
func (s *Set) Counter(key string) *Counter {
	if c := (*s.m.Load())[key]; c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.m.Load()
	if c := old[key]; c != nil {
		return c
	}
	var c *Counter
	if s.reg != nil {
		c = s.reg.Counter(promName(s.prefix, key), "Counter "+key+" (also in /stats counters).")
	} else {
		c = &Counter{}
	}
	next := make(map[string]*Counter, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = c
	s.m.Store(&next)
	return c
}

// Add increments key by d.
func (s *Set) Add(key string, d int64) { s.Counter(key).Add(d) }

// Get returns the current value of key (0 if never written).
func (s *Set) Get(key string) int64 {
	if c := (*s.m.Load())[key]; c != nil {
		return c.Value()
	}
	return 0
}

// Snapshot returns a copy of all counters under their legacy dotted
// keys — the /stats JSON "counters" section.
func (s *Set) Snapshot() map[string]int64 {
	m := *s.m.Load()
	out := make(map[string]int64, len(m))
	for k, c := range m {
		out[k] = c.Value()
	}
	return out
}
