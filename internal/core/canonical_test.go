package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/derive"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// checkCanonical fails unless the pool's canonical writer emits exactly the
// bytes json.Marshal produces for it, or fails exactly as json.Marshal does.
func checkCanonical(t testing.TB, p *CostedPool) {
	t.Helper()
	want, wantErr := json.Marshal(p)
	var got bytes.Buffer
	err := p.WriteCanonical(&got)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("WriteCanonical error %v, json.Marshal error %v", err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("WriteCanonical error %q, json.Marshal error %q", err, wantErr)
		}
	case !bytes.Equal(got.Bytes(), want):
		n := 0
		for n < min(got.Len(), len(want)) && got.Bytes()[n] == want[n] {
			n++
		}
		t.Fatalf("WriteCanonical differs from json.Marshal at byte %d of %d/%d: …%q… vs …%q…",
			n, got.Len(), len(want), window(got.Bytes(), n), window(want, n))
	}
}

// window is the few bytes around offset n.
func window(b []byte, n int) []byte {
	return b[max(0, n-40):min(len(b), n+40)]
}

// canonicalToys are the toy generators the canonical-bytes tests seal:
// SYNT1 (indexes only), and TPC-H, PSOFT and CUST1 with every feature, so
// views, partitionings, join skeletons and DML maintenance skeletons are all
// written.
var canonicalToys = []struct {
	name string
	f    FeatureMask
}{{"synt1", FeatureIndexes}, {"tpch", FeatureAll}, {"psoft", FeatureAll}, {"cust", FeatureAll}}

// TestWriteCanonicalMatchesMarshal: the canonical writer is byte-equal to
// json.Marshal on every toy generator's sealed pool, fresh from the seal and
// decoded from its file, with its optional fields both present and absent,
// and fails as json.Marshal does on a value JSON cannot hold.
func TestWriteCanonicalMatchesMarshal(t *testing.T) {
	var views, parts, maint, joins bool
	for _, c := range canonicalToys {
		t.Run(c.name, func(t *testing.T) {
			_, _, pool, _ := sealedToy(t, c.name, c.f)
			for _, s := range pool.Candidates {
				views = views || s.View != nil
				parts = parts || s.Part != nil
			}
			for _, f := range pool.Skeletons.Facts {
				maint = maint || f.Alts.Maint != nil
				joins = joins || f.Alts.Join != nil
			}
			checkCanonical(t, pool)

			data, err := json.Marshal(pool)
			if err != nil {
				t.Fatal(err)
			}
			var decoded CostedPool
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatal(err)
			}
			if err := decoded.Check(); err != nil {
				t.Fatal(err)
			}
			checkCanonical(t, &decoded)

			// Every optional field, emptied and set.
			bare := decoded
			bare.Base, bare.Candidates, bare.Gains, bare.StatBatches = nil, nil, nil, nil
			bare.Cache.Structs, bare.Cache.Entries, bare.Skeletons, bare.Fingerprint = nil, nil, nil, ""
			bare.StatsCreated, bare.TemplatesTuned, bare.Compressed = 0, 0, false
			checkCanonical(t, &bare)
			full := decoded
			full.Compressed, full.StatsCreated, full.IngestedEvents, full.IngestedBytes = true, 3, 1<<40, -5
			full.Skeletons = &derive.Snapshot{Mode: "<&>", Facts: []derive.FactRecord{{Event: 2, Cost: 1e-9, Used: []string{" \xff"}}}}
			checkCanonical(t, &full)

			// NaN fails both ways, in a cost-cache entry and inside a skeleton
			// (a fresh one: published skeletons are immutable).
			nan := decoded
			nan.Cache.Entries = slices.Clone(nan.Cache.Entries)
			nan.Cache.Entries[0].Cost = math.NaN()
			checkCanonical(t, &nan)
			inf := decoded
			inf.Skeletons = &derive.Snapshot{Mode: derive.On, Facts: []derive.FactRecord{{Alts: &optimizer.Alternatives{
				Components: []optimizer.AltComponent{{Pre: math.Inf(-1)}}}}}}
			checkCanonical(t, &inf)
		})
	}
	if !views || !parts || !maint || !joins {
		t.Fatalf("toy pools lack a shape: views %v, partitionings %v, maintenance skeletons %v, join skeletons %v", views, parts, maint, joins)
	}
}

// TestReviseKeepsPoolWhenNothingIsNew: a revision that completes no new
// cost evaluation and fetches no skeleton hands PoolSink its input pool
// itself, and resealing its state anyway reproduces that pool's fingerprint,
// so nothing is lost by not sealing; a revision that does cost something new
// seals exactly the state it ends with. Every toy's revision under its own
// constraints must take the first branch; its storage-halved revision takes
// whichever its search calls for, and vetoing the recommendation must force
// new search on some toy.
func TestReviseKeepsPoolWhenNothingIsNew(t *testing.T) {
	vetoAdded := false
	for _, c := range canonicalToys {
		t.Run(c.name, func(t *testing.T) {
			srv, w, base := toyBackend(t, c.name)
			var pool *CostedPool
			opts := Options{Features: c.f, BaseConfig: base, Parallelism: 1, SkipReports: true, PoolSink: func(p *CostedPool) { pool = p }}
			rec, err := Tune(srv, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			var vetoed []string
			for _, s := range rec.NewStructures {
				vetoed = append(vetoed, s.Key())
			}
			for _, r := range []struct {
				name string
				cons Constraints
			}{
				{"same", Constraints{}},
				{"storage-halved", Constraints{StorageBudget: rec.StorageBytes / 2}},
				{"veto", Constraints{Vetoed: vetoed}},
			} {
				var got *CostedPool
				if _, err := Revise(context.Background(), srv, pool, r.cons, Options{Parallelism: 1, SkipReports: true, PoolSink: func(p *CostedPool) { got = p }}); err != nil {
					t.Fatal(err)
				}

				// Reseal anyway: the same search over the same warm state.
				ropts := pool.Knobs.apply(Options{Parallelism: 1, SkipReports: true}).withDefaults()
				tuned, err := workload.FromStatements(pool.Statements)
				if err != nil {
					t.Fatal(err)
				}
				st := pool.warmState(srv, tuned, pool.Base.Clone(), ropts.Derive, newTracker(context.Background(), ropts, time.Now()))
				if _, err := runSearch(srv, st, &Recommendation{}, r.cons.normalize(), ropts, time.Now()); err != nil {
					t.Fatal(err)
				}
				again := st.seal(ropts)
				added, atoms := st.ev.added.Load(), st.ev.drv.Atoms()
				t.Logf("%s: %d evaluations completed, %d skeletons fetched", r.name, added, atoms)
				switch {
				case added == 0 && atoms == 0:
					if got != pool {
						t.Errorf("%s: nothing new, yet a new pool was sealed", r.name)
					}
					if again.Fingerprint != pool.Fingerprint {
						t.Errorf("%s: resealed fingerprint %s, want the input's %s", r.name, again.Fingerprint, pool.Fingerprint)
					}
				case r.name == "same":
					t.Errorf("same constraints: the revision costed something new")
				default:
					if got == pool || got.Fingerprint != again.Fingerprint || got.Fingerprint == pool.Fingerprint {
						t.Errorf("%s: sealed %s, resealed %s, input %s", r.name, got.Fingerprint, again.Fingerprint, pool.Fingerprint)
					}
					if err := got.Check(); err != nil {
						t.Fatal(err)
					}
					vetoAdded = vetoAdded || r.name == "veto"
				}
			}
		})
	}
	if !vetoAdded {
		t.Error("no toy's veto forced new search")
	}
}

// TestConcurrentSealsShareSkeletons runs sessions at once over one what-if
// server, so they share its plan cache's skeletons — and each skeleton's
// memoized JSON — while they seal, then revises every sealed pool at once
// with a veto that forces a new seal. Run under -race; every session of a
// round must seal the same pool.
func TestConcurrentSealsShareSkeletons(t *testing.T) {
	srv, w, base := toyBackend(t, "tpch")
	// The first session on a server creates its statistics, so it costs
	// under a different statistics history than every later one: warm the
	// server first.
	if _, err := Tune(srv, w, Options{Features: FeatureAll, BaseConfig: base, SkipReports: true}); err != nil {
		t.Fatal(err)
	}
	const sessions = 3
	pools := make([]*CostedPool, sessions)
	recs := make([]*Recommendation, sessions)
	run := func(f func(i int) error) {
		var wg sync.WaitGroup
		errs := make([]error, sessions)
		for i := range pools {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = f(i)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < sessions; i++ {
			if pools[i].Fingerprint != pools[0].Fingerprint {
				t.Fatalf("session %d sealed %s, session 0 %s", i, pools[i].Fingerprint, pools[0].Fingerprint)
			}
		}
	}
	run(func(i int) (err error) {
		opts := Options{Features: FeatureAll, BaseConfig: base, Parallelism: 2, SkipReports: true, PoolSink: func(p *CostedPool) { pools[i] = p }}
		recs[i], err = Tune(srv, w, opts)
		return err
	})
	var vetoed []string
	for _, s := range recs[0].NewStructures {
		vetoed = append(vetoed, s.Key())
	}
	parents := slices.Clone(pools)
	run(func(i int) error {
		opts := Options{Parallelism: 2, SkipReports: true, PoolSink: func(p *CostedPool) { pools[i] = p }}
		_, err := Revise(context.Background(), srv, parents[i], Constraints{Vetoed: vetoed}, opts)
		if err == nil && pools[i] == parents[i] {
			err = fmt.Errorf("session %d: the veto sealed no new pool", i)
		}
		return err
	})
}

// TestCanonicalCheckDetectsEdits: UnmarshalJSON's canonical check (the
// canonical writer compared against the compacted input) accepts a pool
// file however it is indented and refuses one whose bytes differ from the
// canonical form — a reordered field, an escaped character spelled another
// way, a trailing field — though each decodes to the same value.
func TestCanonicalCheckDetectsEdits(t *testing.T) {
	_, _, pool, _ := sealedToy(t, "tpch", FeatureAll)
	data, err := json.Marshal(pool)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(pool, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`,"knobs":`))
	j := bytes.Index(data, []byte(`,"fingerprint":`))
	for _, c := range []struct {
		name      string
		data      []byte
		canonical bool
	}{
		{"compact", data, true},
		{"indented", indented, true},
		{"reordered", slices.Concat(data[:i], data[j:len(data)-1], data[i:j], []byte("}")), false},
		{"escaped", bytes.Replace(data, []byte(`"statements":[{"sql":"S`), []byte(`"statements":[{"sql":"\u0053`), 1), false},
		{"trailing", slices.Concat(data[:len(data)-1], []byte(`,"fingerprint":"`+pool.Fingerprint+`"}`)), false},
	} {
		var p CostedPool
		if err := json.Unmarshal(c.data, &p); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := p.Check(); (err == nil) != c.canonical {
			t.Errorf("%s: Check = %v", c.name, err)
		}
	}
}
