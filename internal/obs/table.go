package obs

import (
	"sort"
	"strings"
	"sync"
)

// table is the one name → metric registry: counters, gauges and histograms
// each keep one. Metrics that share a name form one labeled family of the
// /metrics exposition; an instance's constant Prometheus label pairs (e.g.
// `code="200",endpoint="knn"`) are part of its key — "name|pairs", bare
// "name" for none — so the hot path sees no map of maps: call sites resolve
// their pointer once per label combination and pay one atomic add after
// that. Entries are registered at package init, startup or the first use of
// a runtime-derived name; no query path touches the table.
type table[M any] struct {
	mu sync.RWMutex
	m  map[string]*M // made at declaration: there is no constructor
}

// labelSep joins a metric name and its label pairs inside a key. '|' cannot
// appear in a Prometheus metric name, so splitting on the first occurrence
// is unambiguous.
const labelSep = "|"

// labeledKey is the table key of (name, labels).
func labeledKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + labelSep + labels
}

// splitLabeled splits a table key into its metric name and label pairs.
func splitLabeled(key string) (name, labels string) {
	name, labels, _ = strings.Cut(key, labelSep)
	return name, labels
}

// lookup returns the entry under key, or nil.
func (t *table[M]) lookup(key string) *M {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[key]
}

// getOrNew returns the entry under key, installing mk(key) when there is
// none. With mustBeNew an existing entry is a panic instead: two subsystems
// silently sharing a statically named metric is a bug.
func (t *table[M]) getOrNew(key string, mk func(key string) *M, mustBeNew bool) *M {
	if !mustBeNew {
		if e := t.lookup(key); e != nil {
			return e
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.m[key]; e != nil {
		if mustBeNew {
			panic("obs: duplicate metric " + key)
		}
		return e
	}
	e := mk(key)
	t.m[key] = e
	return e
}

// family returns a copy of one family's entries by key — name itself and
// every labeled instance of it; every entry when name is "". The table lock
// is released before family returns, so callers may run entry callbacks.
func (t *table[M]) family(name string) map[string]*M {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]*M)
	for key, e := range t.m {
		if n, _ := splitLabeled(key); name == "" || n == name {
			out[key] = e
		}
	}
	return out
}

// labeledKeys returns m's table keys in exposition order: by (name, labels),
// not by raw key. '|' sorts after '_', so raw order could split a labeled
// family around an unrelated longer name and emit its # TYPE line twice.
func labeledKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		ni, li := splitLabeled(keys[i])
		nj, lj := splitLabeled(keys[j])
		if ni != nj {
			return ni < nj
		}
		return li < lj
	})
	return keys
}
