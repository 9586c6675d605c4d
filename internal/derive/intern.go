package derive

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/catalog"
)

// Interner gives every physical design structure a dense, append-only ID,
// keyed by its canonical Structure.Key(), and remembers the first structure
// interned under each key. A session's evaluator and its derivation engine
// share one interner, so cost-cache keys, skeleton scopes and tops are all
// sets of the same small integers; the canonical key strings reappear only
// where state is persisted (Snapshot, the evaluator's cost-cache
// checkpoints), rendered by Join and parsed back by Split. IDs are never
// reused or renumbered: merged and lazily-aligned structures born during the
// search are simply appended. Safe for concurrent use.
type Interner struct {
	mu      sync.RWMutex
	ids     map[string]int32
	keys    []string
	structs []catalog.Structure // zero until a structure is interned
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{ids: map[string]int32{}} }

// ID returns the key's ID, assigning the next free one on first sight.
func (in *Interner) ID(key string) int32 {
	id, _ := in.Intern(key, catalog.Structure{})
	return id
}

// Intern returns the ID of s, whose canonical key is key, and the structure
// recorded for that ID: the first non-zero one interned under the key (s
// itself on first sight).
func (in *Interner) Intern(key string, s catalog.Structure) (int32, catalog.Structure) {
	in.mu.RLock()
	id, ok := in.ids[key]
	if ok && (isZero(s) || !isZero(in.structs[id])) {
		rec := in.structs[id]
		in.mu.RUnlock()
		return id, rec
	}
	in.mu.RUnlock()
	in.mu.Lock()
	defer in.mu.Unlock()
	id, ok = in.ids[key]
	if !ok {
		id = int32(len(in.keys))
		in.keys = append(in.keys, key)
		in.structs = append(in.structs, catalog.Structure{})
		in.ids[key] = id
	}
	if isZero(in.structs[id]) {
		in.structs[id] = s
	}
	return id, in.structs[id]
}

// Lookup returns the key's ID without assigning one.
func (in *Interner) Lookup(key string) (int32, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	id, ok := in.ids[key]
	return id, ok
}

// Key returns the canonical key of an interned ID.
func (in *Interner) Key(id int32) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.keys[id]
}

// Structure returns the structure recorded for an interned ID (zero when the
// ID was only ever parsed from a persisted key).
func (in *Interner) Structure(id int32) catalog.Structure {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.structs[id]
}

// isZero reports whether s names no structure.
func isZero(s catalog.Structure) bool { return s.Index == nil && s.View == nil && s.Part == nil }

// Join renders an ID set in its persisted form: the canonical keys, sorted,
// joined by "|" (no structure key contains "|").
func (in *Interner) Join(ids []int32) string {
	keys := make([]string, len(ids))
	in.mu.RLock()
	for i, id := range ids {
		keys[i] = in.keys[id]
	}
	in.mu.RUnlock()
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// Split parses Join's form back into IDs, sorted ascending ("" is the empty
// set).
func (in *Interner) Split(s string) []int32 {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, "|")
	ids := make([]int32, len(parts))
	for i, k := range parts {
		ids[i] = in.ID(k)
	}
	slices.Sort(ids)
	return ids
}

// union merges two ascending ID lists into a new ascending list without
// duplicates.
func union(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// idString packs an ID list into a comparable map key.
func idString(ids []int32) string {
	b := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}
