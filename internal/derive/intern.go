package derive

import (
	"slices"
	"sync"

	"repro/internal/catalog"
)

// Interner gives every physical design structure a dense, append-only ID,
// keyed by its canonical Structure.Key(), and remembers the first structure
// interned under each key. A session's evaluator and its derivation engine
// share one interner, so cost-cache keys, skeleton scopes, tops and compiled
// replay gates are all sets of the same small integers. Interner IDs depend
// on interning order, so persisted state never carries them: a Snapshot (and
// the evaluator's persisted cost cache) spells each key once in a sorted
// table and refers to structures by their position in it. IDs are never
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

// Len returns the number of interned keys; every ID is below it.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.keys)
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

// Remap translates table positions — structures as a persisted table numbers
// them — into interned IDs through ids (position → interned ID) and appends
// them to dst, ascending. ok is false, and dst comes back unchanged, when a
// position is out of range or two positions name the same structure, which
// no well-formed state produces.
func Remap(dst, positions, ids []int32) (out []int32, ok bool) {
	n := len(dst)
	for _, p := range positions {
		if p < 0 || int(p) >= len(ids) {
			return dst[:n], false
		}
		dst = append(dst, ids[p])
	}
	set := dst[n:]
	slices.Sort(set)
	for i := 1; i < len(set); i++ {
		if set[i] == set[i-1] {
			return dst[:n], false
		}
	}
	return dst, true
}

// union appends the merge of two ascending ID lists to out[:0], ascending
// and without duplicates, and returns it.
func union(out, a, b []int32) []int32 {
	out = out[:0]
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
