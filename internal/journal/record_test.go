package journal

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestJournalRecordCompact: a stored event is at most 96 bytes and holds no
// pointer, so a ring of them is allocated noscan and the garbage collector
// never walks the journal's rings.
func TestJournalRecordCompact(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 96 {
		t.Errorf("record is %d bytes, want at most 96", n)
	}
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					t.Errorf("record field %s (%s) holds a pointer", ty.Field(i).Name, ty.Field(i).Type)
					return false
				}
			}
			return true
		}
		return false
	}
	pointerFree(reflect.TypeOf(record{}))
}

// referenced counts the table entries and arena words the live records of j
// name.
func referenced(j *Journal) (strs, words int) {
	ids := map[uint32]bool{}
	for k := range j.rings {
		for _, r := range j.rings[k].buf {
			r.eachID(j.arena, func(id uint32) {
				if id != 0 {
					ids[id] = true
				}
			})
			if r.flags&flagBlock != 0 {
				words += int(r.b)
			}
		}
	}
	return len(ids) + 1, words // and ""
}

// TestJournalStringTableBounded: rings overwrite records but the journal
// lives on (a daemon's, through every re-tune), so the string table and the
// arena must not keep what overwritten records named. Ten times the limit
// of events, each naming fresh strings, leave both within twice what the
// live records name plus compactSlack.
func TestJournalStringTableBounded(t *testing.T) {
	const limit = 1000
	j := New("bounded")
	j.SetLimit(limit)
	var b Buffer
	for i := 0; i < 10*limit; i++ {
		e := Ev(KindSeed)
		e.Structures = []string{fmt.Sprint("s", i), fmt.Sprint("t", i)}
		j.Append(e)
		b.AddMerge(b.Intern(fmt.Sprint("m", i)), b.Intern(fmt.Sprint("a", i)), b.Intern(fmt.Sprint("b", i)), true)
		if i%100 == 99 {
			j.AppendBuffer(&b)
			b.Reset()
		}
		if i%500 == 0 || i == 10*limit-1 {
			j.mu.Lock()
			strs, words := referenced(j)
			if len(j.strs) > 2*strs+compactSlack || len(j.arena) > 2*words+compactSlack {
				t.Fatalf("after %d events: table %d strings for %d referenced, arena %d words for %d referenced",
					i+1, len(j.strs), strs, len(j.arena), words)
			}
			j.mu.Unlock()
		}
	}
	if j.Len() != 2*limit || j.Dropped() != 2*9*limit {
		t.Fatalf("Len %d, Dropped %d", j.Len(), j.Dropped())
	}
	evs := j.Events(KindMerge)
	if last := evs[len(evs)-1]; last.Structure != fmt.Sprint("m", 10*limit-1) || last.Parents[1] != fmt.Sprint("b", 10*limit-1) {
		t.Fatalf("newest merge renders as %+v", last)
	}
}

// randomEvent draws an event of any kind with any field set: strings from a
// small pool (so the table shares them) or fresh, lists of zero to three
// keys, and Parents most often a merge's pair.
func randomEvent(rng *rand.Rand, fresh *int) Event {
	str := func() string {
		if rng.Intn(4) == 0 {
			*fresh++
			return fmt.Sprint("fresh-", *fresh)
		}
		return fmt.Sprint("key-", rng.Intn(40))
	}
	maybe := func() string {
		if rng.Intn(3) == 0 {
			return str()
		}
		return ""
	}
	list := func(n int) []string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, str())
		}
		return out
	}
	cost := func() float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return (rng.Float64() - 0.2) * 1e4
	}
	e := Ev(kinds[rng.Intn(numKinds)])
	e.Scope = scopes[rng.Intn(len(scopes))]
	e.Query, e.Step, e.Alternatives = rng.Intn(200)-1, rng.Intn(30)-1, rng.Intn(60)
	e.Phase, e.SQL, e.Structure, e.RunnerUp = maybe(), maybe(), maybe(), maybe()
	e.Reason, e.Site, e.Err = maybe(), maybe(), maybe()
	e.Structures = list(rng.Intn(4))
	if rng.Intn(2) == 0 {
		e.Parents = list(2)
	} else {
		e.Parents = list(rng.Intn(4))
	}
	e.Accepted = rng.Intn(2) == 0
	e.CostBefore, e.CostAfter, e.Gain, e.RunnerUpCost = cost(), cost(), cost(), cost()
	return e
}

// masked zeroes the events' times, the one thing the two journals stamp
// differently.
func masked(evs []Event) []Event {
	for i := range evs {
		evs[i].T = time.Time{}
	}
	return evs
}

var ndjsonTimes = regexp.MustCompile(`"t":"[^"]*"`)

// TestJournalMatchesReference: over random event sequences of all fourteen
// kinds — ring overwrites, limits shrunk and grown, reservations, trims,
// events appended one by one and in buffers, merges by interned ID — the record
// journal reads exactly as the reference journal of whole Events: the same
// Events (all, and by kind), NDJSON bytes (filtered and not), Len and
// DroppedByKind, times masked.
func TestJournalMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		j, ref := New("s"), newReference()
		limit := 1 + rng.Intn(40)
		j.SetLimit(limit)
		ref.SetLimit(limit)
		fresh := 0
		var b Buffer
		check := func(op int) {
			t.Helper()
			if got, want := masked(j.Events()), masked(ref.Events()); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d: Events differ:\n got %+v\nwant %+v", seed, op, got, want)
			}
			k := kinds[rng.Intn(numKinds)]
			if got, want := masked(j.Events(k, KindMerge)), masked(ref.Events(k, KindMerge)); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d: Events(%s, merge) differ", seed, op, k)
			}
			for _, filter := range []map[Kind]bool{nil, {k: true, KindStep: true}} {
				var got, want bytes.Buffer
				if err := j.WriteNDJSON(&got, filter); err != nil {
					t.Fatal(err)
				}
				if err := ref.WriteNDJSON(&want, filter); err != nil {
					t.Fatal(err)
				}
				g, w := ndjsonTimes.ReplaceAll(got.Bytes(), nil), ndjsonTimes.ReplaceAll(want.Bytes(), nil)
				if !bytes.Equal(g, w) {
					t.Fatalf("seed %d op %d: NDJSON (filter %v) differs:\n got %s\nwant %s", seed, op, filter, g, w)
				}
			}
			if j.Len() != ref.Len() || !reflect.DeepEqual(j.DroppedByKind(), ref.DroppedByKind()) {
				t.Fatalf("seed %d op %d: Len %d / %d, DroppedByKind %v / %v",
					seed, op, j.Len(), ref.Len(), j.DroppedByKind(), ref.DroppedByKind())
			}
		}
		for op := 0; op < 3000; op++ {
			switch p := rng.Intn(100); {
			case p < 70:
				e := randomEvent(rng, &fresh)
				j.Append(e)
				ref.Append(e)
			case p < 85:
				for n := rng.Intn(12); n > 0; n-- {
					if rng.Intn(3) == 0 {
						k, pa, pb := fmt.Sprint("m-", rng.Intn(60)), fmt.Sprint("key-", rng.Intn(40)), fmt.Sprint("key-", rng.Intn(40))
						accepted := rng.Intn(2) == 0
						b.AddMerge(b.Intern(k), b.Intern(pa), b.Intern(pb), accepted)
						e := Ev(KindMerge)
						e.Structure, e.Parents, e.Accepted = k, []string{pa, pb}, accepted
						ref.Append(e)
						continue
					}
					e := randomEvent(rng, &fresh)
					b.Add(e)
					ref.Append(e)
				}
				j.AppendBuffer(&b)
				b.Reset()
			case p < 92:
				limit = 1 + rng.Intn(40)
				j.SetLimit(limit)
				ref.SetLimit(limit)
			case p < 94:
				j.Trim()
			default:
				k, n := kinds[rng.Intn(numKinds)], rng.Intn(50)
				j.Reserve(k, n)
				ref.Reserve(k, n)
			}
			if op%97 == 0 {
				check(op)
			}
		}
		check(-1)
		if j.Dropped() == 0 || fresh < 2*compactSlack {
			t.Fatalf("seed %d: %d drops, %d fresh strings: overwrites or table rebuilds not exercised", seed, j.Dropped(), fresh)
		}
	}
}

// TestJournalReadWhileAppending: HTTP handlers read a session's journal
// (/journal, /explain) while the session appends to it. Readers loop over
// Events, WriteNDJSON and Explain against writers appending one by one and
// in buffers, with a small limit and fresh strings so rings overwrite and
// the table is rebuilt under the readers. Run it under -race.
func TestJournalReadWhileAppending(t *testing.T) {
	j := New("s")
	j.SetLimit(64)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b Buffer
			for i := 0; i < 3000; i++ {
				key := fmt.Sprint("ix-", w, "-", i)
				e := Ev(KindStep)
				e.Scope, e.Structure, e.Accepted, e.Step = ScopeEnumeration, key, true, i
				j.Append(e)
				c := Ev(KindCandidate)
				c.Query, c.Structure, c.Accepted = i, key, true
				b.Add(c)
				b.AddMerge(b.Intern(key+"+"), b.Intern(key), b.Intern("base"), true)
				if i%10 == 9 {
					j.AppendBuffer(&b)
					b.Reset()
				}
				if i%500 == 499 {
					j.Trim()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			if reads == 0 {
				t.Fatal("no read overlapped the appends")
			}
			return
		default:
		}
		evs := j.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq <= evs[i-1].Seq {
				t.Fatalf("Events out of order: %d after %d", evs[i].Seq, evs[i-1].Seq)
			}
		}
		if err := j.WriteNDJSON(io.Discard, nil); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, e := range evs {
			if e.Kind == KindStep {
				keys = append(keys, e.Structure, e.Structure+"+")
			}
		}
		Explain(j.Events(), keys).WriteText(io.Discard)
	}
}

// BenchmarkJournalAppend measures the record path on the two streams that
// dominate a session's journal: a merge fold of 14k attempts over 170
// candidates (SYNT1's merging phase), and per-query buffers of a seed,
// growth steps, the query summary and candidate verdicts folded in query
// order. Each op fills a fresh journal; the merge/reference leg appends the
// same merge stream as whole Events to the reference journal.
func BenchmarkJournalAppend(b *testing.B) {
	const cands, merges = 170, 14000
	keys := make([]string, cands)
	for i := range keys {
		keys[i] = fmt.Sprintf("ix:lineitem(l_col%03d,l_shipdate)", i)
	}
	merged := make([]string, merges)
	for i := range merged {
		merged[i] = fmt.Sprintf("ix:lineitem(l_col%03d,l_col%03d)", i%cands, (i/cands)%cands)
	}
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		var buf Buffer
		ids := make([]uint32, cands)
		for n := 0; n < b.N; n++ {
			j := New("bench")
			j.Reserve(KindMerge, merges)
			for i := range keys {
				ids[i] = buf.Intern(keys[i])
			}
			for i, k := range merged {
				buf.AddMerge(buf.Intern(k), ids[i%cands], ids[(i+1)%cands], i%3 == 0)
			}
			j.AppendBuffer(&buf)
			buf.Reset()
		}
	})
	b.Run("merge/reference", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			j := newReference()
			j.Reserve(KindMerge, merges)
			for i, k := range merged {
				e := Ev(KindMerge)
				e.Structure, e.Parents, e.Accepted = k, []string{keys[i%cands], keys[(i+1)%cands]}, i%3 == 0
				j.Append(e)
			}
		}
	})
	b.Run("query-fold", func(b *testing.B) {
		const queries, perQuery = 100, 12
		b.ReportAllocs()
		bufs := make([]Buffer, queries)
		for n := 0; n < b.N; n++ {
			j := New("bench")
			for q := range bufs {
				buf := &bufs[q]
				seed := Ev(KindSeed)
				seed.Scope, seed.Query, seed.Structures = ScopeQuery, q, keys[q%cands:q%cands+2]
				buf.Add(seed)
				for s := 0; s < 3; s++ {
					e := Ev(KindStep)
					e.Scope, e.Query, e.Step, e.Structure, e.RunnerUp = ScopeQuery, q, s, keys[(q+s)%cands], keys[(q+s+1)%cands]
					e.CostBefore, e.CostAfter, e.RunnerUpCost, e.Alternatives = 100, 90, 95, perQuery
					buf.Add(e)
				}
				qe := Ev(KindQuery)
				qe.Query, qe.SQL, qe.CostBefore, qe.CostAfter, qe.Gain = q, "SELECT l_col001 FROM lineitem WHERE l_shipdate > ?", 100, 80, 20
				buf.Add(qe)
				for c := 0; c < perQuery; c++ {
					ce := Ev(KindCandidate)
					ce.Query, ce.Structure, ce.Accepted = q, keys[(q+c)%cands], c < 2
					buf.Add(ce)
				}
			}
			for q := range bufs {
				j.AppendBuffer(&bufs[q])
				bufs[q].Reset()
			}
		}
	})
}
