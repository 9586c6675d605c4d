package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen/cust"
	"repro/internal/datagen/psoft"
	"repro/internal/datagen/setquery"
	"repro/internal/datagen/tpch"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// testTracker is the session tracker tests build bare evaluators under: a
// real one at Parallelism 1, with no progress callback, journal or metrics.
func testTracker() *tracker {
	return newTracker(context.Background(), Options{Parallelism: 1}, time.Now())
}

// toyBackend builds one of the demonstration databases at toy scale with
// its constraint base configuration: SYNT1 (single table, SELECT-only),
// TPC-H (joins, views), PSOFT (DML beside reads) or CUST1 (the §7.1
// order-management mix, primary keys as its base).
func toyBackend(tb testing.TB, name string) (*whatif.Server, *workload.Workload, *catalog.Configuration) {
	tb.Helper()
	var cat *catalog.Catalog
	var db *engine.Database
	var err error
	var w *workload.Workload
	switch name {
	case "synt1":
		cat = setquery.Catalog(4000)
		db, err = setquery.Load(cat, 1)
		w = setquery.Workload(cat, 400, 30, 1)
	case "tpch":
		cat = tpch.Catalog(0.002)
		db, err = tpch.Load(cat, 1)
		w = tpch.Workload()
	case "psoft":
		cat = psoft.Catalog(0.005)
		db, err = psoft.Load(cat, 1)
		if err == nil {
			w = psoft.Workload(cat, 300, 1)
		}
	case "cust":
		sc := cust.Cust1(0.005)
		if db, err = sc.Load(1); err != nil {
			tb.Fatal(err)
		}
		s := whatif.NewServer(name, sc.Catalog, optimizer.DefaultHardware())
		s.AttachData(db)
		return s, sc.Workload(200, 1), sc.ConstraintConfig()
	}
	if err != nil {
		tb.Fatal(err)
	}
	s := whatif.NewServer(name, cat, optimizer.DefaultHardware())
	s.AttachData(db)
	return s, w, demo.ConstraintConfig(name, cat)
}

// TestIncrementalCostsMatchFromScratch is the equivalence property of the
// dense evaluator: over seeded random walks through each toy workload's
// candidate pool — Greedy-style growth, lazily aligned growth and
// repartitioning, drop-style removal, and toggling a clustered index under
// a partitioned table — every per-event cost an incremental evaluation
// carries or re-costs, and every weighted total it folds, is bit-identical
// to a from-scratch evaluation of the same configuration on a fresh
// evaluator, which also issues exactly as many real calls and derivations
// and ends with a byte-identical cost cache. The dense form of every child
// must equal the interned form of its materialized catalog configuration.
func TestIncrementalCostsMatchFromScratch(t *testing.T) {
	for _, name := range []string{"synt1", "tpch", "psoft"} {
		t.Run(name, func(t *testing.T) {
			srv, w, base := toyBackend(t, name)
			var pool *CostedPool
			if _, err := Tune(srv, w, Options{BaseConfig: base, Parallelism: 1, PoolSink: func(p *CostedPool) { pool = p }}); err != nil {
				t.Fatal(err)
			}
			tuned, err := workload.FromStatements(pool.Statements)
			if err != nil {
				t.Fatal(err)
			}
			// The walk draws from the sealed pool plus every structure
			// candidate generation proposes for the first templates, so
			// clustered indexes and partitionings are always on offer.
			cands := slices.Clone(pool.Candidates)
			seen := map[string]bool{}
			for _, s := range cands {
				seen[s.Key()] = true
			}
			for _, e := range tuned.Events[:10] {
				q, err := optimizer.Analyze(srv.Catalog(), e.Stmt)
				if err != nil {
					continue
				}
				for _, s := range GenerateCandidates(srv.Catalog(), q, Options{}) {
					if !seen[s.Key()] {
						seen[s.Key()] = true
						cands = append(cands, s)
					}
				}
			}
			inc := newEvaluator(srv, tuned, "", testTracker())
			ref := newEvaluator(srv, tuned, "", testTracker())
			inc.setQueryPools(inc.sharedPools(cands))
			ref.setQueryPools(ref.sharedPools(cands))

			fromScratch := func(c *config) *costed {
				t.Helper()
				want, err := ref.costAll(ref.all, ref.config(c.catalog().Clone()))
				if err != nil {
					t.Fatal(err)
				}
				return want
			}
			check := func(step int, op string, got *costed) {
				t.Helper()
				want := fromScratch(got.c)
				for i := range want.costs {
					if math.Float64bits(got.costs[i]) != math.Float64bits(want.costs[i]) {
						t.Fatalf("step %d (%s) event %d: carried cost %v, from scratch %v", step, op, i, got.costs[i], want.costs[i])
					}
					// The cache key itself is checked against an uncached
					// optimizer call: two configurations may share an
					// event's cost only when they truly cost the same.
					if inc.analyzed(i) != nil {
						real, _, err := srv.WhatIfCost(tuned.Events[i].Stmt, got.c.catalog())
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(real) != math.Float64bits(got.costs[i]) {
							t.Fatalf("step %d (%s) event %d: cached cost %v, real what-if cost %v", step, op, i, got.costs[i], real)
						}
					}
				}
				if math.Float64bits(got.total) != math.Float64bits(want.total) {
					t.Fatalf("step %d (%s): incremental total %v, from scratch %v", step, op, got.total, want.total)
				}
				if !slices.Equal(got.c.ents, inc.config(got.c.catalog()).ents) {
					t.Fatalf("step %d (%s): dense configuration differs from its catalog form", step, op)
				}
				if inc.calls.Load() != ref.calls.Load() || inc.drv.Derivations() != ref.drv.Derivations() || inc.drv.Atoms() != ref.drv.Atoms() {
					t.Fatalf("step %d (%s): calls/derived/atoms %d/%d/%d incrementally, %d/%d/%d from scratch", step, op,
						inc.calls.Load(), inc.drv.Derivations(), inc.drv.Atoms(), ref.calls.Load(), ref.drv.Derivations(), ref.drv.Atoms())
				}
			}

			cur, err := inc.costAll(inc.all, inc.config(base.Clone()))
			if err != nil {
				t.Fatal(err)
			}
			check(0, "root", cur)
			rnd := rand.New(rand.NewSource(int64(len(name)) * 7919))
			var clustered, parts []catalog.Structure
			for _, s := range cands {
				switch {
				case s.Index != nil && s.Index.Clustered:
					clustered = append(clustered, s)
				case s.Part != nil:
					parts = append(parts, s)
				}
			}
			ops := map[string]int{}
			for step := 1; step <= 80; step++ {
				var c *config
				ok := false
				op := ""
				switch r := rnd.Intn(8); {
				case r < 3: // Greedy-style growth
					s := cands[rnd.Intn(len(cands))]
					op = "grow"
					c, ok = inc.extend(cur.c, s, inc.candidates([]catalog.Structure{s})[0].x, false)
				case r < 5: // lazily aligned growth, repartitioning when a partitioning is drawn
					s := cands[rnd.Intn(len(cands))]
					if len(parts) > 0 && rnd.Intn(2) == 0 {
						s = parts[rnd.Intn(len(parts))]
					}
					op = "grow-aligned"
					c, ok = inc.extend(cur.c, s, inc.candidates([]catalog.Structure{s})[0].x, true)
				case r < 7: // drop-style removal
					cfg := cur.c.catalog().Clone()
					all := cfg.Structures()
					if len(all) == 0 {
						continue
					}
					s := all[rnd.Intn(len(all))]
					op = "drop"
					removeStructure(cfg, s)
					c, ok = inc.config(cfg), true
				default: // toggle a clustered index under a partitioned table
					cfg := cur.c.catalog()
					tables := cfg.PartitionedTables()
					if len(tables) == 0 {
						continue
					}
					table := tables[rnd.Intn(len(tables))]
					if ix := cfg.ClusteredIndex(table); ix != nil {
						clone := cfg.Clone()
						removeStructure(clone, catalog.Structure{Index: ix})
						op = "unclustered"
						c, ok = inc.config(clone), true
					} else if s := clusteredCandidate(clustered, table); s != nil {
						op = "clustered"
						c, ok = inc.extend(cur.c, *s, inc.candidates([]catalog.Structure{*s})[0].x, false)
					}
				}
				if !ok {
					continue
				}
				total, ov, err := inc.child(inc.all, cur, c)
				if err != nil {
					t.Fatal(err)
				}
				next := cur.with(c, total, ov)
				ops[op]++
				check(step, op, next)
				if rnd.Intn(4) > 0 { // otherwise stay: the next child is a sibling
					cur = next
				}
			}
			t.Logf("ops %v, calls %d, derived %d", ops, inc.calls.Load(), inc.drv.Derivations())
			if ops["clustered"] == 0 || ops["unclustered"] == 0 {
				t.Fatalf("the walk never toggled a clustered index under a partitioned table: %v", ops)
			}
			if got, want := fmt.Sprint(inc.snapshotCache()()), fmt.Sprint(ref.snapshotCache()()); got != want {
				t.Fatal("incremental and from-scratch cost caches differ")
			}
		})
	}
}

// removeStructure deletes s from cfg the way drop analysis does.
func removeStructure(cfg *catalog.Configuration, s catalog.Structure) {
	key := s.Key()
	switch {
	case s.Index != nil:
		cfg.Indexes = slices.DeleteFunc(cfg.Indexes, func(ix *catalog.Index) bool { return ix.Key() == key })
	case s.View != nil:
		cfg.Views = slices.DeleteFunc(cfg.Views, func(v *catalog.MaterializedView) bool { return v.Key() == key })
	default:
		cfg.SetTablePartitioning(s.PartTable, nil)
	}
}

// clusteredCandidate returns the first clustered index candidate on the table.
func clusteredCandidate(cands []catalog.Structure, table string) *catalog.Structure {
	for i := range cands {
		if cands[i].Index.Table == table {
			return &cands[i]
		}
	}
	return nil
}

// TestSealedPoolFingerprintGolden pins, exactly, what a P=1 tune of each
// input produces: the sealed pool's content address (the persisted cost
// cache and derive facts, numbered by sorted structure key), the real what-if
// calls, the derived evaluations and the improvement. The inputs are a
// plain pool, one with drops, partitioning and lazy alignment, and the
// three toy demonstration databases (SYNT1 indexes only; TPC-H and PSOFT
// with every feature, so join and maintenance replay are covered). An
// accidental change to call counts or recommendations fails here; a
// deliberate one (a new skeleton shape that removes a fallback, say)
// updates the pins in the same change and says why. Every input holding DML
// (the plain pool, the one with drops, PSOFT) moved once when INSERT/UPDATE/
// DELETE gained maintenance skeletons: fewer calls, more derived
// evaluations, new skeleton facts in the pool, the same improvement. Every
// fingerprint moved again when candidate selection began creating all
// statistics before costing any query: on these cold backends the skeletons
// are now fetched under one statistics epoch, so the pools hold different
// facts, and the pool with drops saves one call: drop analysis reuses a
// skeleton selection fetched, which an earlier query's epoch used to expire.
// They moved once more when a skeleton fetch stopped filing its answer under
// the top's own cost-cache key (checkpoints persist skeletons now): asking
// for a fetched top derives instead of hitting the cache, so only the
// derived counts and the cache section changed. The three toy fingerprints
// moved when the skeleton section's structure table came to hold exactly the
// structures its facts name, not every candidate the session registered
// (SYNT1 155 → 143 entries, TPC-H 257 → 233, PSOFT 159 → 147); the facts,
// read by key, and the cost cache did not change.
func TestSealedPoolFingerprintGolden(t *testing.T) {
	type input func(testing.TB) (*whatif.Server, *workload.Workload, Options)
	toy := func(name string, f FeatureMask) input {
		return func(tb testing.TB) (*whatif.Server, *workload.Workload, Options) {
			srv, w, base := toyBackend(tb, name)
			return srv, w, Options{Features: f, BaseConfig: base}
		}
	}
	for _, c := range []struct {
		name        string
		in          input
		fingerprint string
		calls       int64
		derived     int64
		improvement float64
	}{
		{"parallel-workload", func(tb testing.TB) (*whatif.Server, *workload.Workload, Options) {
			return testServer(tb), parallelWorkload(tb), Options{}
		}, "4a496e238b3324a7d1af7b877db8827e75a1cae17e2a3f0839a3b2697ba95d1f", 36, 368, 0.9008311029433221},
		{"aligned-with-drops", func(tb testing.TB) (*whatif.Server, *workload.Workload, Options) {
			return reviseServer(tb), reviseWorkload(tb), Options{
				Features: FeatureIndexes | FeaturePartitioning, BaseConfig: reviseBase(),
				AllowDrops: true, StorageBudget: 64 << 20, Aligned: true,
			}
		}, "e63fb48a7a08dc023796e31b063210f08c25ed2bf9ac90848c5921be584669b3", 44, 405, 0.6957172156094855},
		{"toy-synt1", toy("synt1", FeatureIndexes),
			"09d20bbf17d65d092db7522799deed2a73b4f933bca60d08c42b945f9394c27b", 354, 22800, 0.9005732641167159},
		{"toy-tpch", toy("tpch", FeatureAll),
			"f28a6b544738f7ebbdc1e36e0491fa4758420ac79dfc2db224204dac340b5e52", 171, 4582, 0.6838914950249153},
		{"toy-psoft", toy("psoft", FeatureAll),
			"74e1d78857fcfa729ac44676f4ddea6fe98c495f8ac6f6ea56165d47b74f0f7f", 1084, 4127, 0.5572800445626688},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, w, opts := c.in(t)
			var pool *CostedPool
			opts.Parallelism = 1
			opts.PoolSink = func(p *CostedPool) { pool = p }
			rec, err := Tune(srv, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if pool.Fingerprint != c.fingerprint {
				t.Errorf("sealed pool fingerprint %s, want %s", pool.Fingerprint, c.fingerprint)
			}
			if rec.WhatIfCalls != c.calls || rec.DerivedEvals != c.derived {
				t.Errorf("what-if calls %d, derived evaluations %d; want %d, %d", rec.WhatIfCalls, rec.DerivedEvals, c.calls, c.derived)
			}
			if rec.Improvement != c.improvement {
				t.Errorf("improvement %v, want %v", rec.Improvement, c.improvement)
			}
		})
	}
}

// TestCacheHitAllocatesNothing: an evaluation served from the cost cache —
// the search's innermost operation — takes one read lock and allocates
// nothing, metrics attached.
func TestCacheHitAllocatesNothing(t *testing.T) {
	w := parallelWorkload(t)
	ev := newEvaluator(testServer(t), w, "", newTracker(context.Background(), Options{Metrics: obs.NewRegistry()}.withDefaults(), time.Now()))
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("t", "x"))
	cfg.AddIndex(catalog.NewIndex("t", "a").WithInclude("amt"))
	cfg.AddIndex(catalog.NewIndex("d", "grp"))
	c := ev.config(cfg)
	for i := range w.Events {
		if _, _, err := ev.cost(i, c); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range w.Events {
			ev.cost(i, c)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached evaluations allocated %.1f times per sweep, want 0", allocs)
	}
}

// sealedToy tunes a toy database at P=1 and returns its backend, the pool's
// own tuned workload, the sealed pool and the options a revision of it runs
// under.
func sealedToy(tb testing.TB, name string, f FeatureMask) (*whatif.Server, *workload.Workload, *CostedPool, Options) {
	tb.Helper()
	srv, w, base := toyBackend(tb, name)
	var pool *CostedPool
	opts := Options{Features: f, BaseConfig: base, Parallelism: 1, SkipReports: true, PoolSink: func(p *CostedPool) { pool = p }}
	if _, err := Tune(srv, w, opts); err != nil {
		tb.Fatal(err)
	}
	tuned, err := workload.FromStatements(pool.Statements)
	if err != nil {
		tb.Fatal(err)
	}
	return srv, tuned, pool, pool.Knobs.apply(Options{Parallelism: 1}).withDefaults()
}

// TestWarmStartResealsIdentically: warm-starting an evaluator from a sealed
// pool and sealing it again reproduces the pool byte for byte — the cost
// cache and skeleton facts survive the round trip through the ID-keyed
// format, whatever order the second session interned the tables in.
func TestWarmStartResealsIdentically(t *testing.T) {
	for _, c := range []struct {
		name string
		f    FeatureMask
	}{{"synt1", FeatureIndexes}, {"tpch", FeatureAll}, {"psoft", FeatureAll}} {
		t.Run(c.name, func(t *testing.T) {
			srv, w, pool, opts := sealedToy(t, c.name, c.f)
			again := pool.warmState(srv, w, pool.Base, opts.Derive, testTracker()).seal(opts)
			if again.Fingerprint != pool.Fingerprint {
				t.Fatalf("resealed fingerprint %s, want %s", again.Fingerprint, pool.Fingerprint)
			}
		})
	}
}

// BenchmarkSeal times the persisted costing section end to end over a toy
// pool: per iteration, a revision's warm start (intern the tables once,
// remap every entry), a seal (canonical renumbering, the skeleton snapshot,
// the fingerprint) and Check. The PSOFT pool splits its bytes between the
// cost cache and the skeletons; the TPC-H pool's are mostly join skeletons,
// as a tpch-fleet pool's are. Run with -benchmem.
func BenchmarkSeal(b *testing.B) {
	for _, c := range []struct {
		name string
		f    FeatureMask
	}{{"psoft", FeatureAll}, {"tpch", FeatureAll}} {
		b.Run(c.name, func(b *testing.B) {
			srv, w, pool, opts := sealedToy(b, c.name, c.f)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sealed := pool.warmState(srv, w, pool.Base, opts.Derive, testTracker()).seal(opts)
				if err := sealed.Check(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnumerate times the search layer over a sealed toy SYNT1 pool:
// one storage-halved revision per iteration — drop analysis, merging, and
// the enumeration Greedy(m,k) — every evaluation served by the pool's cost
// cache and derive facts. Run with -benchmem; ns/op and allocs/op track the
// evaluator's hit path without the repository benchmark's full runs.
func BenchmarkEnumerate(b *testing.B) {
	srv, w, base := toyBackend(b, "synt1")
	var pool *CostedPool
	opts := Options{Features: FeatureIndexes, BaseConfig: base, StorageBudget: 8 << 20, Parallelism: 1, SkipReports: true,
		PoolSink: func(p *CostedPool) { pool = p }}
	if _, err := Tune(srv, w, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Revise(context.Background(), srv, pool, Constraints{StorageBudget: opts.StorageBudget / 2}, Options{Parallelism: 1, SkipReports: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectCandidates times candidate selection alone — per-query
// candidate generation, statistics requests and every query's Greedy(m,k)
// — over the toy PSOFT workload on a backend warmed by one full tune, at
// Parallelism 1 and 2. Each iteration starts from a fresh evaluator
// (baseline costing and column groups run untimed), so every selection
// pays its own skeleton fetches, as a new session does. Run with
// -benchmem.
func BenchmarkSelectCandidates(b *testing.B) {
	srv, w, base := toyBackend(b, "psoft")
	opts := Options{Features: FeatureAll, BaseConfig: base, NoCompression: true, SkipReports: true}.withDefaults()
	if _, err := Tune(srv, w, opts); err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", par), func(b *testing.B) {
			o := opts
			o.Parallelism = par
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := newTracker(context.Background(), o, time.Now())
				ev := newEvaluator(srv, w, o.Derive, tr)
				tr.setPhase(PhaseBaseline)
				if _, err := ev.configCost(base); err != nil {
					b.Fatal(err)
				}
				groups, err := interestingColumnGroups(srv, ev, w, o)
				if err != nil {
					b.Fatal(err)
				}
				tr.setPhase(PhaseCandidates)
				b.StartTimer()
				if _, _, _, _, err := selectCandidates(srv, ev, w, base, groups, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
