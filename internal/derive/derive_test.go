package derive

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
)

func keyed(s catalog.Structure) Keyed { return Keyed{Key: s.Key(), Structure: s} }

func ixKeyed(table string, cols ...string) Keyed {
	return keyed(catalog.Structure{Index: catalog.NewIndex(table, cols...)})
}

// ids interns the structures into e's interner and returns their IDs,
// ascending — the form Resolve takes a cost-cache key and an additive pool
// subset in.
func ids(e *Engine, ks ...Keyed) []int32 {
	var out []int32
	for _, k := range ks {
		id, _ := e.Interner().Intern(k.Key, k.Structure)
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Mode
		err  string // substring of the expected error ("" = none)
	}{
		{"", On, ""},
		{"on", On, ""},
		{"ON", On, ""},
		{"verify", Verify, ""},
		{"Verify", Verify, ""},
		{"off", "", "was removed"},
		{"OFF", "", "was removed"},
		{"sometimes", "", "unknown mode"},
	} {
		got, err := ParseMode(c.in)
		switch {
		case c.err == "" && (err != nil || got != c.want):
			t.Errorf("ParseMode(%q) = %q, %v; want %q", c.in, got, err, c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("ParseMode(%q) error = %v; want one containing %q", c.in, err, c.err)
		}
	}
}

func TestNilEngineIsInert(t *testing.T) {
	var e *Engine
	e.Register([]Keyed{ixKeyed("t", "x")})
	e.BumpEpoch()
	e.FallbackDML(0)
	e.VerifyOutcome(true, nil)
	e.AttachMetrics(nil)
	e.Restore(nil)
	if e.Mode() != "" || e.Atoms() != 0 || e.Derivations() != 0 || e.Fallbacks() != 0 || e.Snapshot() != nil {
		t.Fatal("nil engine must report zeros")
	}
	if _, ok := e.Resolve(0, false, nil, nil, nil); ok {
		t.Fatal("nil engine must never derive")
	}
	if New("").Mode() != On {
		t.Fatal(`New("") must be On`)
	}
}

// skeletonBackend is a fake alternatives backend over indexes i1 (plan at
// 120) and i2 (plan at 90) beside a base scan at 500: fetch returns that
// skeleton for whatever top it is asked about and logs the top's index keys.
type skeletonBackend struct {
	i1, i2 Keyed
	mu     sync.Mutex
	tops   []string
	err    error                   // when set, fetches fail
	alts   *optimizer.Alternatives // when set, overrides the skeleton
	noAlts bool                    // fetches succeed without a skeleton
	gate   chan struct{}           // when set, fetches block until it closes
}

func newSkeletonBackend() *skeletonBackend {
	return &skeletonBackend{i1: ixKeyed("t", "x"), i2: ixKeyed("t", "a")}
}

func (b *skeletonBackend) fetch(top *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
	var keys []string
	for _, ix := range top.Indexes {
		keys = append(keys, ix.Key())
	}
	b.mu.Lock()
	b.tops = append(b.tops, strings.Join(keys, "|"))
	b.mu.Unlock()
	if b.gate != nil {
		<-b.gate
	}
	if b.err != nil {
		return 0, nil, nil, b.err
	}
	if b.noAlts {
		return 90, []string{b.i2.Key}, nil, nil
	}
	alts := b.alts
	if alts == nil {
		alts = &optimizer.Alternatives{Components: []optimizer.AltComponent{
			{Structure: "", Op: "HeapScan", Pre: 480, Final: 500},
			{Structure: b.i1.Key, Op: "IndexSeek", Pre: 100, Final: 120, Used: []string{b.i1.Key}},
			{Structure: b.i2.Key, Op: "IndexSeek", Pre: 70, Final: 90, Used: []string{b.i2.Key}},
		}}
	}
	return 90, []string{b.i2.Key}, alts, nil
}

func (b *skeletonBackend) fetches() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.tops)
}

func TestResolveFetchesTopOnceAndReplays(t *testing.T) {
	e := New(On)
	b := newSkeletonBackend()
	e.Register([]Keyed{b.i1, b.i2})
	pool := ids(e, b.i1, b.i2)
	top := b.i2.Key + "|" + b.i1.Key // sorted: ix:t(a) < ix:t(x)

	// S = {i1}: the top {i1,i2} is fetched once and {i1} replays from it.
	res, ok := e.Resolve(7, false, ids(e, b.i1), pool, b.fetch)
	if !ok || res.Cost != 120 || len(res.Used) != 1 || res.Used[0] != b.i1.Key {
		t.Fatalf("replay for {i1}: %+v ok=%v", res, ok)
	}
	if b.fetches() != 1 || b.tops[0] != top {
		t.Fatalf("want exactly one fetch of the top %s, got %v", top, b.tops)
	}

	// Every other subset of the same event — the empty set and the top
	// itself included — replays without another call.
	for _, c := range []struct {
		rel  []Keyed
		cost float64
	}{{nil, 500}, {[]Keyed{b.i2}, 90}, {[]Keyed{b.i2, b.i1}, 90}} {
		res, ok := e.Resolve(7, false, ids(e, c.rel...), pool, b.fetch)
		if !ok || res.Cost != c.cost {
			t.Fatalf("replay for %v: %+v ok=%v, want cost %v", c.rel, res, ok, c.cost)
		}
	}
	if b.fetches() != 1 {
		t.Fatalf("subsets must replay from the one skeleton, fetches: %v", b.tops)
	}
	if e.Atoms() != 1 || e.Derivations() != 4 {
		t.Fatalf("atoms=%d derivations=%d, want 1 and 4", e.Atoms(), e.Derivations())
	}

	// Different event: skeletons must not leak across events.
	e.Resolve(8, false, ids(e, b.i1), pool, b.fetch)
	if b.fetches() != 2 {
		t.Fatal("another event must not reuse event 7's skeleton")
	}

	// Structures that are not additive for the event stay out of its top.
	e.Resolve(9, false, ids(e, b.i1), ids(e, b.i1), b.fetch)
	if got := b.tops[len(b.tops)-1]; got != b.i1.Key {
		t.Fatalf("non-additive pool structure leaked into the top: %s", got)
	}
}

// TestResolveFallbackReasons shows a live producer for every reason key the
// engine reports.
func TestResolveFallbackReasons(t *testing.T) {
	// Atom: every fetch is one, split by shape; with an empty pool S is its
	// own top.
	e := New(On)
	b := newSkeletonBackend()
	if _, ok := e.Resolve(0, false, ids(e, b.i1), nil, b.fetch); !ok {
		t.Fatal("empty pool: S is its own top and must replay from its own skeleton")
	}
	if _, ok := e.Resolve(1, true, ids(e, b.i1), nil, b.fetch); !ok {
		t.Fatal("join event must resolve too")
	}
	if by := e.FallbacksByReason(); by[ReasonAtom] != 1 || by[ReasonAtom+joinSuffix] != 1 || len(by) != 2 {
		t.Fatalf("atom fallbacks must split by shape, got %v", by)
	}

	// Error: the fetch fails. The failed slot is dropped, so the next
	// resolution fetches again — and succeeds once the backend recovers.
	e = New(On)
	b = newSkeletonBackend()
	e.Register([]Keyed{b.i1, b.i2})
	pool := ids(e, b.i1, b.i2)
	b.err = errors.New("backend down")
	if _, ok := e.Resolve(0, false, ids(e, b.i1), pool, b.fetch); ok {
		t.Fatal("failed fetch must fall back")
	}
	if by := e.FallbacksByReason(); by[ReasonError] != 1 || by[ReasonAtom] != 1 {
		t.Fatalf("failed fetch must count one atom and one eval-error, got %v", by)
	}
	if e.Atoms() != 0 {
		t.Fatal("a failed fetch records no skeleton")
	}
	b.err = nil
	if _, ok := e.Resolve(0, false, ids(e, b.i1), pool, b.fetch); !ok || b.fetches() != 2 {
		t.Fatalf("a failed fetch must not poison the scope (ok=%v fetches=%v)", ok, b.tops)
	}

	// Escape: the backend returns no skeleton, or one nothing can be
	// selected from.
	e = New(On)
	b = newSkeletonBackend()
	b.noAlts = true
	if _, ok := e.Resolve(0, false, ids(e, b.i1), nil, b.fetch); ok {
		t.Fatal("a fetch without a skeleton must fall back")
	}
	b.noAlts, b.alts = false, &optimizer.Alternatives{}
	if _, ok := e.Resolve(1, true, ids(e, b.i1), nil, b.fetch); ok {
		t.Fatal("a skeleton without a selectable alternative must fall back")
	}
	if by := e.FallbacksByReason(); by[ReasonEscape] != 1 || by[ReasonEscape+joinSuffix] != 1 {
		t.Fatalf("used-escape fallbacks must be counted by shape, got %v", by)
	}

	// DML accounting.
	e = New(On)
	e.FallbackDML(0)
	if by := e.FallbacksByReason(); by[ReasonDML] != 1 || e.Fallbacks() != 1 {
		t.Fatalf("dml fallback key must stay unsplit, got %v", by)
	}
}

func TestEpochInvalidatesSkeletons(t *testing.T) {
	e := New(On)
	b := newSkeletonBackend()
	e.Register([]Keyed{b.i1, b.i2})
	pool := ids(e, b.i1, b.i2)

	if _, ok := e.Resolve(0, false, ids(e, b.i1), pool, b.fetch); !ok {
		t.Fatal("first resolve should derive")
	}
	e.BumpEpoch()
	// Skeletons of the previous epoch must not answer: the next resolution
	// fetches exactly once at the new epoch and replays again.
	for i := 0; i < 2; i++ {
		if _, ok := e.Resolve(0, false, ids(e, b.i1), pool, b.fetch); !ok {
			t.Fatal("post-bump resolve should derive from a fresh skeleton")
		}
	}
	if b.fetches() != 2 {
		t.Fatalf("want one fetch per epoch, got %v", b.tops)
	}
	// Only the current epoch persists.
	if s := e.Snapshot(); len(s.Facts) != 1 {
		t.Fatalf("snapshot must carry current-epoch facts only, got %d", len(s.Facts))
	}
}

// TestConcurrentResolversShareOneFetch: resolvers of distinct subsets of one
// event that miss at the same time coalesce onto a single skeleton fetch.
func TestConcurrentResolversShareOneFetch(t *testing.T) {
	e := New(On)
	b := newSkeletonBackend()
	b.gate = make(chan struct{})
	e.Register([]Keyed{b.i1, b.i2})
	pool := ids(e, b.i1, b.i2)

	subsets := [][]int32{nil, ids(e, b.i1), ids(e, b.i2), ids(e, b.i2, b.i1)}
	want := []float64{500, 120, 90, 90}
	const rounds = 4
	got := make([]float64, rounds*len(subsets))
	var started, wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for j, rel := range subsets {
			started.Add(1)
			wg.Add(1)
			go func(slot int, rel []int32) {
				defer wg.Done()
				started.Done()
				res, ok := e.Resolve(3, false, rel, pool, b.fetch)
				if ok {
					got[slot] = res.Cost
				}
			}(r*len(subsets)+j, rel)
		}
	}
	started.Wait()
	close(b.gate)
	wg.Wait()
	if b.fetches() != 1 {
		t.Fatalf("concurrent resolvers must share one fetch, got %v", b.tops)
	}
	for slot, c := range got {
		if c != want[slot%len(subsets)] {
			t.Fatalf("slot %d: cost %v, want %v", slot, c, want[slot%len(subsets)])
		}
	}
}

func TestSnapshotRestoreAnswersWithoutFetching(t *testing.T) {
	e := New(On)
	b := newSkeletonBackend()
	e.Register([]Keyed{b.i1, b.i2})
	if _, ok := e.Resolve(0, false, ids(e, b.i1), ids(e, b.i1, b.i2), b.fetch); !ok {
		t.Fatal("resolve should derive")
	}

	r := New(Verify)
	r.Restore(e.Snapshot())
	r.Register([]Keyed{b.i1, b.i2})
	res, ok := r.Resolve(0, false, ids(r, b.i2), ids(r, b.i1, b.i2), func(*catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
		t.Fatal("a restored skeleton must answer without a fetch")
		return 0, nil, nil, nil
	})
	if !ok || res.Cost != 90 {
		t.Fatalf("restored replay for {i2}: %+v ok=%v", res, ok)
	}
}

func TestVerifyOutcome(t *testing.T) {
	e := New(Verify)
	if e.Mode() != Verify {
		t.Fatal("mode must round-trip")
	}
	// Counters only exist with metrics attached; the calls must not panic
	// without them.
	e.VerifyOutcome(true, nil)
	e.VerifyOutcome(false, nil)
	e.VerifyOutcome(false, errors.New("x"))
}
