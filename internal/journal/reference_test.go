package journal

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
	"sync"
	"time"
)

// referenceJournal is the journal as it was before records: one ring of
// whole Events per kind. The record journal must behave exactly like it
// (TestJournalMatchesReference); only the storage differs.
type referenceJournal struct {
	mu    sync.Mutex
	seq   int64
	limit int
	rings map[Kind]*referenceRing
}

type referenceRing struct {
	buf     []Event
	next    int
	full    bool
	dropped int64
}

func (r *referenceRing) append(e Event, limit int) {
	if len(r.buf) < limit && !r.full {
		r.buf = append(r.buf, e)
		if len(r.buf) == limit {
			r.next = 0
			r.full = true
		}
		return
	}
	if r.next >= len(r.buf) {
		r.next = 0
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	r.full = true
	r.dropped++
}

func newReference() *referenceJournal {
	return &referenceJournal{limit: DefaultPerKindLimit, rings: map[Kind]*referenceRing{}}
}

func (j *referenceJournal) SetLimit(n int) {
	j.mu.Lock()
	j.limit = max(n, 1)
	j.mu.Unlock()
}

func (j *referenceJournal) ring(k Kind) *referenceRing {
	r := j.rings[k]
	if r == nil {
		r = &referenceRing{}
		j.rings[k] = r
	}
	return r
}

func (j *referenceJournal) Append(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Seq = j.seq
	e.T = time.Now().UTC()
	j.ring(e.Kind).append(e, j.limit)
}

func (j *referenceJournal) Reserve(kind Kind, n int) {
	if n <= 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.ring(kind)
	if room := j.limit - len(r.buf); !r.full && room > 0 {
		r.buf = slices.Grow(r.buf, min(n, room))
	}
}

func (j *referenceJournal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, r := range j.rings {
		n += len(r.buf)
	}
	return n
}

func (j *referenceJournal) DroppedByKind() map[Kind]int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := map[Kind]int64{}
	for k, r := range j.rings {
		if r.dropped > 0 {
			out[k] = r.dropped
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func (j *referenceJournal) Events(kinds ...Kind) []Event {
	j.mu.Lock()
	var out []Event
	for k, r := range j.rings {
		if len(kinds) > 0 && !slices.Contains(kinds, k) {
			continue
		}
		out = append(out, r.buf...)
	}
	j.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

func (j *referenceJournal) WriteNDJSON(w io.Writer, filter map[Kind]bool) error {
	enc := json.NewEncoder(w)
	for _, e := range j.Events() {
		if filter != nil && !filter[e.Kind] {
			continue
		}
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
