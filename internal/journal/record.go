package journal

import (
	"fmt"
	"time"
)

// record is one event as a journal stores it: fixed-width and pointer-free,
// so a ring of records is one allocation the garbage collector never scans.
// Strings are IDs into a string table — the journal's, or a Buffer's local
// list — where ID 0 is "". Query, Step and Alternatives are kept as int32.
type record struct {
	seq int64
	// at is the append time as a monotonic offset from the journal's
	// creation, in nanoseconds.
	at                                int64
	before, after, gain, runnerUpCost float64
	query, step, alts                 int32
	// text holds the first of SQL, Phase and Reason that is set; the
	// flags say which.
	structure, runnerUp, text uint32
	// a and b are the event's two Parents (flagParents), or the offset and
	// length of its block in the arena (flagBlock).
	a, b               uint32
	kind, scope, flags uint8
}

// The record's flags.
const (
	flagAccepted uint8 = 1 << iota
	flagParents
	flagBlock
	flagTextPhase  // text holds Phase
	flagTextReason // text holds Reason (neither flag: SQL)
)

// textFlags marks which of SQL, Phase and Reason the text slot holds.
var textFlags = [...]uint8{0, flagTextPhase, flagTextReason}

// A block holds what does not fit a record's fixed fields: Structures, any
// Parents but a lone pair, the text fields after the first, Site and Err.
// It is a run of entries, each a tag followed by its IDs: for tagStructures
// and tagParents a count and that many IDs, for the text tags one ID.
const (
	tagStructures uint32 = iota
	tagParents
	tagSQL
	tagPhase
	tagReason
	tagSite
	tagErr
)

// entry splits the block entry at the start of block into its head (the
// tag, and a list's count) and its IDs, and returns the length of both.
func entry(block []uint32) (head, ids []uint32, n uint32) {
	if block[0] == tagStructures || block[0] == tagParents {
		n = 2 + block[1]
		return block[:2], block[2:n], n
	}
	return block[:1], block[1:2], 2
}

// copyBlock appends src's entries to dst with every string ID mapped
// through id.
func copyBlock(dst, src []uint32, id func(uint32) uint32) []uint32 {
	for len(src) > 0 {
		head, ids, n := entry(src)
		dst = append(dst, head...)
		for _, s := range ids {
			dst = append(dst, id(s))
		}
		src = src[n:]
	}
	return dst
}

// eachID calls fn on every string ID r names, its block read from arena.
func (r *record) eachID(arena []uint32, fn func(uint32)) {
	fn(r.structure)
	fn(r.runnerUp)
	fn(r.text)
	switch {
	case r.flags&flagParents != 0:
		fn(r.a)
		fn(r.b)
	case r.flags&flagBlock != 0:
		for block := arena[r.a : r.a+r.b]; len(block) > 0; {
			_, ids, n := entry(block)
			for _, id := range ids {
				fn(id)
			}
			block = block[n:]
		}
	}
}

// kindCode returns k's index in kinds; it panics on an unknown kind.
func kindCode(k Kind) uint8 {
	for c, kk := range kinds {
		if kk == k {
			return uint8(c)
		}
	}
	panic(fmt.Sprintf("journal: unknown event kind %q", k))
}

var mergeCode = kindCode(KindMerge)

// scopes lists the scope values a record can hold, by code.
var scopes = [...]string{"", ScopeQuery, ScopeEnumeration}

// scopeCode returns s's index in scopes; it panics on an unknown scope.
func scopeCode(s string) uint8 {
	for c, ss := range scopes {
		if ss == s {
			return uint8(c)
		}
	}
	panic(fmt.Sprintf("journal: unknown event scope %q", s))
}

// event renders r as the public Event, its strings read from strs and its
// block from arena; created anchors its time.
func (r *record) event(strs []string, arena []uint32, created time.Time) Event {
	e := Event{
		Seq:          r.seq,
		T:            created.Add(time.Duration(r.at)).UTC(),
		Kind:         kinds[r.kind],
		Scope:        scopes[r.scope],
		Query:        int(r.query),
		Step:         int(r.step),
		Structure:    strs[r.structure],
		Accepted:     r.flags&flagAccepted != 0,
		CostBefore:   r.before,
		CostAfter:    r.after,
		Gain:         r.gain,
		Alternatives: int(r.alts),
		RunnerUp:     strs[r.runnerUp],
		RunnerUpCost: r.runnerUpCost,
	}
	switch {
	case r.flags&flagTextPhase != 0:
		e.Phase = strs[r.text]
	case r.flags&flagTextReason != 0:
		e.Reason = strs[r.text]
	default:
		e.SQL = strs[r.text]
	}
	switch {
	case r.flags&flagParents != 0:
		e.Parents = []string{strs[r.a], strs[r.b]}
	case r.flags&flagBlock != 0:
		for block := arena[r.a : r.a+r.b]; len(block) > 0; {
			head, ids, n := entry(block)
			switch tag := head[0]; tag {
			case tagStructures, tagParents:
				list := make([]string, len(ids))
				for i, id := range ids {
					list[i] = strs[id]
				}
				if tag == tagStructures {
					e.Structures = list
				} else {
					e.Parents = list
				}
			default:
				*e.text(tag) = strs[ids[0]]
			}
			block = block[n:]
		}
	}
	return e
}

// text returns the Event's string field a block text tag names.
func (e *Event) text(tag uint32) *string {
	switch tag {
	case tagSQL:
		return &e.SQL
	case tagPhase:
		return &e.Phase
	case tagReason:
		return &e.Reason
	case tagSite:
		return &e.Site
	default:
		return &e.Err
	}
}

// Buffer collects events away from any journal — a per-query search on a
// pool worker, or the merge fold — in record form, for Journal.AppendBuffer
// to append in one step. Its strings live in a local list, mapped into the
// journal's table once, at append time. The zero value is an empty buffer;
// Reset empties one for reuse. A Buffer is not safe for concurrent use.
type Buffer struct {
	recs []record
	// strs is the local string list: local ID n names strs[n-1], 0 is "".
	strs  []string
	arena []uint32
}

// Reset empties the buffer, keeping its capacity.
func (b *Buffer) Reset() {
	clear(b.strs)
	b.recs, b.strs, b.arena = b.recs[:0], b.strs[:0], b.arena[:0]
}

// Intern returns a local ID for s, valid in this buffer until Reset. An
// emit site that names one string in many events — a candidate merged with
// many others — interns it once and passes the ID.
func (b *Buffer) Intern(s string) uint32 {
	if s == "" {
		return 0
	}
	b.strs = append(b.strs, s)
	return uint32(len(b.strs))
}

// AddMerge adds a merge event: the merged structure, its two parents (all
// local IDs from Intern) and whether it was kept.
func (b *Buffer) AddMerge(structure, parentA, parentB uint32, accepted bool) {
	r := record{kind: mergeCode, query: -1, step: -1,
		structure: structure, a: parentA, b: parentB, flags: flagParents}
	if accepted {
		r.flags |= flagAccepted
	}
	b.recs = append(b.recs, r)
}

// Add adds e. Seq and T are stamped when the buffer is appended to a
// journal. It panics as Journal.Append does on an unknown kind or scope.
func (b *Buffer) Add(e Event) {
	r := record{
		kind: kindCode(e.Kind), scope: scopeCode(e.Scope),
		query: int32(e.Query), step: int32(e.Step), alts: int32(e.Alternatives),
		before: e.CostBefore, after: e.CostAfter, gain: e.Gain, runnerUpCost: e.RunnerUpCost,
		structure: b.Intern(e.Structure), runnerUp: b.Intern(e.RunnerUp),
	}
	if e.Accepted {
		r.flags |= flagAccepted
	}
	// The text slot takes the first of SQL, Phase and Reason; the block
	// takes the others that are set.
	start := len(b.arena)
	slotted := false
	for i, s := range [...]string{e.SQL, e.Phase, e.Reason} {
		switch {
		case s == "":
		case slotted:
			b.arena = append(b.arena, tagSQL+uint32(i), b.Intern(s))
		default:
			r.text, r.flags, slotted = b.Intern(s), r.flags|textFlags[i], true
		}
	}
	if e.Site != "" {
		b.arena = append(b.arena, tagSite, b.Intern(e.Site))
	}
	if e.Err != "" {
		b.arena = append(b.arena, tagErr, b.Intern(e.Err))
	}
	b.addList(tagStructures, e.Structures)
	if len(e.Parents) == 2 && len(b.arena) == start {
		r.a, r.b, r.flags = b.Intern(e.Parents[0]), b.Intern(e.Parents[1]), r.flags|flagParents
	} else {
		b.addList(tagParents, e.Parents)
	}
	if n := len(b.arena) - start; n > 0 {
		r.a, r.b, r.flags = uint32(start), uint32(n), r.flags|flagBlock
	}
	b.recs = append(b.recs, r)
}

// addList appends a list entry to the arena, unless list is empty.
func (b *Buffer) addList(tag uint32, list []string) {
	if len(list) == 0 {
		return
	}
	b.arena = append(b.arena, tag, uint32(len(list)))
	for _, s := range list {
		b.arena = append(b.arena, b.Intern(s))
	}
}
