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
	e.BumpEpoch()
	e.VerifyOutcome(true, nil)
	e.AttachMetrics(nil)
	e.Restore(nil)
	e.Settle()
	if _, ok := e.Lookup(0, nil); ok {
		t.Fatal("nil engine must answer no lookup")
	}
	if n, err := e.CheckCovering(0, nil, 1); n != 0 || err != nil {
		t.Fatal("nil engine must check nothing")
	}
	if e.Mode() != "" || e.Atoms() != 0 || e.AtomsByShape() != nil || e.Derivations() != 0 || e.Snapshot() != nil {
		t.Fatal("nil engine must report zeros")
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

func (b *skeletonBackend) fetch(top *catalog.Configuration) (*optimizer.Alternatives, error) {
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
		return nil, b.err
	}
	if b.noAlts {
		return nil, nil
	}
	alts := b.alts
	if alts == nil {
		alts = &optimizer.Alternatives{Components: []optimizer.AltComponent{
			{Structure: "", Op: "HeapScan", Pre: 480, Final: 500},
			{Structure: b.i1.Key, Op: "IndexSeek", Pre: 100, Final: 120, Used: []string{b.i1.Key}},
			{Structure: b.i2.Key, Op: "IndexSeek", Pre: 70, Final: 90, Used: []string{b.i2.Key}},
		}}
	}
	return alts, nil
}

func (b *skeletonBackend) fetches() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.tops)
}

func TestResolveFetchesTopOnceAndReplays(t *testing.T) {
	e := New(On)
	b := newSkeletonBackend()
	pool := ids(e, b.i1, b.i2)
	top := b.i2.Key + "|" + b.i1.Key // sorted: ix:t(a) < ix:t(x)

	// S = {i1}: the top {i1,i2} is fetched once and {i1} replays from it.
	cost, err := e.Resolve(7, false, ids(e, b.i1), pool, b.fetch)
	if err != nil || cost != 120 {
		t.Fatalf("replay for {i1}: %v, %v", cost, err)
	}
	if used, ok := e.Used(7, ids(e, b.i1)); !ok || !slices.Equal(used, []string{b.i1.Key}) {
		t.Fatalf("used for {i1}: %v, %v", used, ok)
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
		cost, err := e.Resolve(7, false, ids(e, c.rel...), pool, b.fetch)
		if err != nil || cost != c.cost {
			t.Fatalf("replay for %v: %v, %v; want cost %v", c.rel, cost, err, c.cost)
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

// TestResolveFallbackReasons: the engine has no second costing path. Every
// fetch is an atom counted by event shape; a failed fetch returns its error
// to the resolver that issued it and to every resolver waiting on it, and
// leaves nothing behind, so a later resolution fetches afresh; a fetch
// without a skeleton, or a skeleton with nothing selectable, is an error
// too, and nothing is derived from it.
func TestResolveFallbackReasons(t *testing.T) {
	// Atoms, by shape; with an empty pool S is its own top.
	e := New(On)
	b := newSkeletonBackend()
	if _, err := e.Resolve(0, false, ids(e, b.i1), nil, b.fetch); err != nil {
		t.Fatalf("empty pool: S is its own top and must replay from its own skeleton: %v", err)
	}
	if _, err := e.Resolve(1, true, ids(e, b.i1), nil, b.fetch); err != nil {
		t.Fatalf("join event must resolve too: %v", err)
	}
	if by := e.AtomsByShape(); by["atom"] != 1 || by["atom-join"] != 1 || len(by) != 2 || e.Atoms() != 2 {
		t.Fatalf("atoms must split by shape, got %v", by)
	}

	// A failed fetch: its leader and every waiter get its error.
	e = New(On)
	b = newSkeletonBackend()
	pool := ids(e, b.i1, b.i2)
	down := errors.New("backend down")
	b.err, b.gate = down, make(chan struct{})
	const resolvers = 4
	errs := make([]error, resolvers)
	var started, wg sync.WaitGroup
	for r := 0; r < resolvers; r++ {
		started.Add(1)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			started.Done()
			_, errs[r] = e.Resolve(0, false, ids(e, b.i1), pool, b.fetch)
		}(r)
	}
	started.Wait()
	close(b.gate)
	wg.Wait()
	for r, err := range errs {
		if !errors.Is(err, down) {
			t.Fatalf("resolver %d: %v, want the fetch's own error", r, err)
		}
	}
	if b.fetches() > resolvers || e.Atoms() != 0 || e.Derivations() != 0 {
		t.Fatalf("fetches %d, atoms %d, derivations %d: a failed fetch records nothing", b.fetches(), e.Atoms(), e.Derivations())
	}
	// The failed fact is gone: the next resolution fetches afresh and
	// succeeds once the backend recovers.
	fetched := b.fetches()
	b.err, b.gate = nil, nil
	if _, err := e.Resolve(0, false, ids(e, b.i1), pool, b.fetch); err != nil || b.fetches() != fetched+1 {
		t.Fatalf("a failed fetch must not poison the scope (%v, fetches %v)", err, b.tops)
	}

	// A fetch without a skeleton, and a skeleton nothing can be selected
	// from: backend bugs, reported as errors naming the event.
	e = New(On)
	b = newSkeletonBackend()
	b.noAlts = true
	if _, err := e.Resolve(3, false, ids(e, b.i1), nil, b.fetch); err == nil || !strings.Contains(err.Error(), "event 3") {
		t.Fatalf("a fetch without a skeleton must fail naming its event, got %v", err)
	}
	b.noAlts, b.alts = false, &optimizer.Alternatives{}
	if _, err := e.Resolve(4, true, ids(e, b.i1), nil, b.fetch); err == nil || !strings.Contains(err.Error(), "event 4") {
		t.Fatalf("a skeleton without a selectable alternative must fail naming its event, got %v", err)
	}
	if e.Derivations() != 0 {
		t.Fatalf("derivations = %d from broken skeletons", e.Derivations())
	}
}

// TestResolveReplaysMaintenanceSkeleton: a DML event resolves like any other —
// one atom per top, then every subset replays the maintenance sum, its access
// alternatives and terms gated by the compiled IDs of the top's structures.
func TestResolveReplaysMaintenanceSkeleton(t *testing.T) {
	e := New(On)
	b := newSkeletonBackend()
	b.alts = &optimizer.Alternatives{Maint: &optimizer.Maintenance{
		Fixed: 1,
		Access: []optimizer.ScopeAlt{
			{Op: "HeapScan", Pre: 100},
			{Gate: b.i1.Key, Op: "IndexSeek", Struct: b.i1.Key, Pre: 10},
		},
		Terms: []optimizer.MaintTerm{
			{Gate: b.i2.Key, Struct: b.i2.Key, Cost: 7},
			{Gate: b.i1.Key, Struct: b.i1.Key, Cost: 5},
		},
	}}
	pool := ids(e, b.i1, b.i2)
	for _, c := range []struct {
		rel  []int32
		cost float64
		used []string
	}{
		{nil, 101, nil},
		{ids(e, b.i1), 16, []string{b.i1.Key}},
		{ids(e, b.i2), 108, []string{b.i2.Key}},
		{pool, 23, []string{b.i2.Key, b.i1.Key}},
	} {
		cost, err := e.Resolve(0, false, c.rel, pool, b.fetch)
		used, ok := e.Used(0, c.rel)
		if err != nil || !ok || cost != c.cost || !slices.Equal(used, c.used) {
			t.Fatalf("rel %v: %v %v (%v, %v), want %v %v", c.rel, cost, used, err, ok, c.cost, c.used)
		}
	}
	if by := e.AtomsByShape(); b.fetches() != 1 || by["atom"] != 1 || len(by) != 1 {
		t.Fatalf("fetches %d, atoms %v: want one single-scope atom", b.fetches(), by)
	}
}

func TestEpochInvalidatesSkeletons(t *testing.T) {
	e := New(On)
	b := newSkeletonBackend()
	pool := ids(e, b.i1, b.i2)

	if _, err := e.Resolve(0, false, ids(e, b.i1), pool, b.fetch); err != nil {
		t.Fatalf("first resolve should derive: %v", err)
	}
	e.BumpEpoch()
	// Skeletons of the previous epoch must not answer: the next resolution
	// fetches exactly once at the new epoch and replays again.
	for i := 0; i < 2; i++ {
		if _, err := e.Resolve(0, false, ids(e, b.i1), pool, b.fetch); err != nil {
			t.Fatalf("post-bump resolve should derive from a fresh skeleton: %v", err)
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
				cost, err := e.Resolve(3, false, rel, pool, b.fetch)
				if err == nil {
					got[slot] = cost
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
	ids(e, ixKeyed("t", "unused")) // interned, but named by no fact
	if _, err := e.Resolve(0, false, ids(e, b.i1), ids(e, b.i1, b.i2), b.fetch); err != nil {
		t.Fatalf("resolve should derive: %v", err)
	}
	snap := e.Snapshot()
	if len(snap.Structs) != 2 || snap.Structs[0] != b.i2 || snap.Structs[1] != b.i1 {
		t.Fatalf("snapshot table %v, want exactly the fact's structures, sorted by key", snap.Structs)
	}

	// The restoring engine has interned other structures first, so the
	// snapshot's table positions are not its IDs; i1 it has never seen, so
	// its structure comes from the snapshot.
	r := New(Verify)
	ids(r, ixKeyed("t", "pad"), b.i2)
	r.Restore(snap)
	if id, _ := r.Interner().Intern(b.i1.Key, catalog.Structure{}); r.Interner().Structure(id).Index == nil {
		t.Fatal("restore must record a structure the interner had not seen")
	}
	cost, err := r.Resolve(0, false, ids(r, b.i2), ids(r, b.i1, b.i2), func(*catalog.Configuration) (*optimizer.Alternatives, error) {
		t.Fatal("a restored skeleton must answer without a fetch")
		return nil, nil
	})
	if err != nil || cost != 90 {
		t.Fatalf("restored replay for {i2}: %v, %v", cost, err)
	}
	if used, ok := r.Used(0, ids(r, b.i1)); !ok || !slices.Equal(used, []string{b.i1.Key}) {
		t.Fatalf("restored fact must answer used for {i1}: %v, %v", used, ok)
	}
}

// TestResolveAnswersFromCoveringRestoredFact: a resolution whose own top no
// fact matches replays a restored fact of its event and base part whose top
// holds every structure it asks for, without a fetch; it fetches when the
// request names a structure outside every such top, another base part or
// another event. Facts the engine fetched itself answer no other top before
// a phase barrier (TestSettleBarrierRule) — so a session's fetches depend on
// what it asks alone — and restored facts answer nothing after the epoch
// they were restored into.
func TestResolveAnswersFromCoveringRestoredFact(t *testing.T) {
	e := New(On)
	b := newSkeletonBackend()
	if _, err := e.Resolve(0, false, nil, ids(e, b.i1, b.i2), b.fetch); err != nil {
		t.Fatal(err)
	}
	// The engine's own fact answers only its own top.
	if _, err := e.Resolve(0, false, ids(e, b.i2), ids(e, b.i2), b.fetch); err != nil || b.fetches() != 2 {
		t.Fatalf("a fetched fact answered another top: %v, fetches %v", err, b.tops)
	}

	r := New(On)
	rb := newSkeletonBackend()
	i3, cl := ixKeyed("t", "z"), keyed(catalog.Structure{Index: &catalog.Index{Table: "t", KeyColumns: []string{"a"}, Clustered: true}})
	r.Restore(e.Snapshot())
	for _, c := range []struct {
		what          string
		event         int
		rel, additive []Keyed
		cost          float64
		fetched       int
	}{
		{"a smaller top", 0, []Keyed{b.i2}, []Keyed{b.i2}, 90, 0},
		{"a top with a structure the request lacks", 0, []Keyed{b.i1}, []Keyed{b.i1, i3}, 120, 0},
		{"the empty set under a new pool", 0, nil, []Keyed{i3}, 500, 0},
		{"a structure outside every top", 0, []Keyed{i3}, nil, 500, 1},
		{"another base part", 0, []Keyed{cl, b.i1}, nil, 120, 2},
		{"another event", 1, []Keyed{b.i1}, nil, 120, 3},
	} {
		cost, err := r.Resolve(c.event, false, ids(r, c.rel...), ids(r, c.additive...), rb.fetch)
		if err != nil || cost != c.cost || rb.fetches() != c.fetched {
			t.Fatalf("%s: cost %v, %v, fetches %v; want %v after %d fetches", c.what, cost, err, rb.tops, c.cost, c.fetched)
		}
	}
	if r.Atoms() != 3 || r.Derivations() != 6 {
		t.Fatalf("atoms %d, derivations %d; want 3 and 6", r.Atoms(), r.Derivations())
	}
	r.BumpEpoch()
	if _, err := r.Resolve(0, false, ids(r, b.i2), ids(r, b.i2), rb.fetch); err != nil || rb.fetches() != 4 {
		t.Fatalf("a restored fact answered after the epoch bump: %v, fetches %v", err, rb.tops)
	}
}

// TestSettleBarrierRule: after a phase barrier (Settle) a fact fetched
// before it answers any request it covers, without a fetch, whatever top
// the request asks for; a ready fact of the running phase answers only its
// own top, so a request it merely covers fetches its own; restored facts
// keep covering across a barrier; and BumpEpoch empties the index, so no
// fact of the previous epoch answers a resolution.
func TestSettleBarrierRule(t *testing.T) {
	e := New(On)
	b := newSkeletonBackend()
	pool := ids(e, b.i1, b.i2)
	resolve := func(rel, additive []int32, cost float64, fetches int) {
		t.Helper()
		got, err := e.Resolve(0, false, rel, additive, b.fetch)
		if err != nil || got != cost || b.fetches() != fetches {
			t.Fatalf("Resolve(%v, %v) = %v, %v after fetches %v; want %v after %d", rel, additive, got, err, b.tops, cost, fetches)
		}
	}
	resolve(nil, pool, 500, 1) // the running phase fetches the top {i1, i2}
	// That ready fact covers {i2}, but it is of the running phase: the
	// request fetches its own top {i2}.
	resolve(ids(e, b.i2), ids(e, b.i2), 90, 2)

	e.Settle()
	// Both facts are settled now: {i1} under the pool {i1} is answered by
	// the fact of top {i1, i2}, and {} under a new pool {i1} by either.
	resolve(ids(e, b.i1), ids(e, b.i1), 120, 2)
	resolve(nil, ids(e, b.i1), 500, 2)
	// A fact fetched after the barrier is of the running phase again: a
	// request it covers under another top fetches its own.
	i3 := ixKeyed("t", "z")
	resolve(ids(e, i3), ids(e, b.i1, i3), 500, 3)
	resolve(ids(e, i3), ids(e, i3), 500, 4)

	// Restored facts cover across a barrier, beside the facts fetched
	// since the restore.
	r := New(On)
	rb := newSkeletonBackend()
	r.Restore(e.Snapshot())
	if _, err := r.Resolve(1, false, ids(r, b.i1), nil, rb.fetch); err != nil || rb.fetches() != 1 {
		t.Fatalf("another event must fetch: %v, %v", err, rb.tops)
	}
	r.Settle()
	if c, err := r.Resolve(0, false, ids(r, b.i1), nil, rb.fetch); err != nil || c != 120 || rb.fetches() != 1 {
		t.Fatalf("a restored fact stopped covering after a barrier: %v, %v, fetches %v", c, err, rb.tops)
	}

	e.BumpEpoch()
	resolve(ids(e, b.i1), ids(e, b.i1), 120, 5)
}

// TestLookupNeverFetches: Lookup — a stopped session's read — answers from
// a ready current-epoch fact that covers the request, settled or not, else
// from a covering fact of the previous epoch, and never fetches; a request
// no fact covers gets no answer.
func TestLookupNeverFetches(t *testing.T) {
	e := New(On)
	b := newSkeletonBackend()
	i3 := ixKeyed("t", "z")
	if _, err := e.Resolve(0, false, nil, ids(e, b.i1, b.i2), b.fetch); err != nil {
		t.Fatal(err)
	}
	lookup := func(what string, event int, rel []int32, cost float64, ok bool) {
		t.Helper()
		if got, found := e.Lookup(event, rel); found != ok || got != cost {
			t.Fatalf("%s: Lookup = %v, %v; want %v, %v", what, got, found, cost, ok)
		}
	}
	lookup("a running-phase fact", 0, ids(e, b.i1), 120, true)
	lookup("a structure outside the top", 0, ids(e, i3), 0, false)
	lookup("another event", 1, ids(e, b.i1), 0, false)
	e.BumpEpoch()
	lookup("a previous-epoch fact", 0, ids(e, b.i2), 90, true)
	b.alts = &optimizer.Alternatives{Components: []optimizer.AltComponent{{Structure: "", Op: "HeapScan", Pre: 400, Final: 450}}}
	if _, err := e.Resolve(0, false, nil, ids(e, i3), b.fetch); err != nil {
		t.Fatal(err)
	}
	lookup("the current epoch before the previous one", 0, nil, 450, true)
	e.BumpEpoch()
	lookup("a fact two epochs old", 0, ids(e, b.i2), 0, false)
	if b.fetches() != 2 {
		t.Fatalf("Lookup must never fetch, got %v", b.tops)
	}
}

// TestCheckCoveringFindsDisagreement: CheckCovering compares every ready
// current-epoch fact covering a key — two here — and names the event when
// one replays a different cost.
func TestCheckCoveringFindsDisagreement(t *testing.T) {
	e := New(Verify)
	b := newSkeletonBackend()
	if _, err := e.Resolve(5, false, nil, ids(e, b.i1, b.i2), b.fetch); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Resolve(5, false, nil, ids(e, b.i1), b.fetch); err != nil {
		t.Fatal(err)
	}
	if n, err := e.CheckCovering(5, ids(e, b.i1), 120); n != 2 || err != nil {
		t.Fatalf("two agreeing facts: compared %d, %v", n, err)
	}
	if n, err := e.CheckCovering(5, ids(e, b.i2), 90); n != 1 || err != nil {
		t.Fatalf("one covering fact: compared %d, %v", n, err)
	}
	if _, err := e.CheckCovering(5, ids(e, b.i1), 121); err == nil || !strings.Contains(err.Error(), "event 5") {
		t.Fatalf("a disagreeing fact must fail naming its event, got %v", err)
	}
}

// TestUsedReplaysCoveringFact: Used answers from any current-epoch fact of
// the event whose top holds the key and whose base part the key holds whole
// — never from a fact of another event, of another base part or of an
// older epoch.
func TestUsedReplaysCoveringFact(t *testing.T) {
	e := New(On)
	b := newSkeletonBackend()
	cl := keyed(catalog.Structure{Index: &catalog.Index{Table: "t", KeyColumns: []string{"a"}, Clustered: true}})
	pool := ids(e, b.i1, b.i2)
	if _, err := e.Resolve(0, false, nil, pool, b.fetch); err != nil {
		t.Fatal(err)
	}
	if used, ok := e.Used(0, ids(e, b.i2)); !ok || !slices.Equal(used, []string{b.i2.Key}) {
		t.Fatalf("a subset of the top: used %v, %v", used, ok)
	}
	for _, c := range []struct {
		what  string
		event int
		rel   []int32
	}{
		{"another event", 1, ids(e, b.i2)},
		{"a structure outside the top", 0, ids(e, b.i2, ixKeyed("t", "z"))},
		{"another base part", 0, ids(e, cl, b.i2)},
	} {
		if used, ok := e.Used(c.event, c.rel); ok {
			t.Fatalf("%s: answered %v", c.what, used)
		}
	}
	// A fact whose base part the key lacks does not cover it either.
	if _, err := e.Resolve(2, false, ids(e, cl), pool, b.fetch); err != nil {
		t.Fatal(err)
	}
	if used, ok := e.Used(2, ids(e, b.i1)); ok {
		t.Fatalf("a fact with a clustered index answered a key without it: %v", used)
	}
	if _, ok := e.Used(2, ids(e, cl, b.i1)); !ok {
		t.Fatal("the key of the fact's own scope must be answered")
	}
	e.BumpEpoch()
	if used, ok := e.Used(0, ids(e, b.i2)); ok {
		t.Fatalf("a fact of an older epoch answered: %v", used)
	}
	if b.fetches() != 2 {
		t.Fatalf("Used must never fetch, got %v", b.tops)
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
