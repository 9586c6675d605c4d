package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/canonjson"
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
// evaluator, which also issues exactly as many real calls and skeleton
// fetches and ends holding the same skeleton facts: byte-identical canonical
// engine snapshots. The incremental walk derives no more than the
// from-scratch one: every evaluation is a replay, and the walk carries
// the parent's cost of every event the child cannot change instead of
// evaluating it. The dense form of every child must equal the interned form
// of its materialized catalog configuration.
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
			inc.setQueryPools(inc.sharedPools(keyed(cands)))
			ref.setQueryPools(ref.sharedPools(keyed(cands)))

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
				if inc.tr.calls.Load() != ref.tr.calls.Load() || inc.drv.Derivations() > ref.drv.Derivations() || inc.drv.Atoms() != ref.drv.Atoms() {
					t.Fatalf("step %d (%s): calls/derived/atoms %d/%d/%d incrementally, %d/%d/%d from scratch (derived may only be fewer)", step, op,
						inc.tr.calls.Load(), inc.drv.Derivations(), inc.drv.Atoms(), ref.tr.calls.Load(), ref.drv.Derivations(), ref.drv.Atoms())
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
					c, ok = inc.extend(cur.c, s, inc.candidates(keyed([]catalog.Structure{s}))[0].x, false)
				case r < 5: // lazily aligned growth, repartitioning when a partitioning is drawn
					s := cands[rnd.Intn(len(cands))]
					if len(parts) > 0 && rnd.Intn(2) == 0 {
						s = parts[rnd.Intn(len(parts))]
					}
					op = "grow-aligned"
					c, ok = inc.extend(cur.c, s, inc.candidates(keyed([]catalog.Structure{s}))[0].x, true)
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
						c, ok = inc.extend(cur.c, *s, inc.candidates(keyed([]catalog.Structure{*s}))[0].x, false)
					}
				}
				if !ok {
					continue
				}
				total, ov, err := inc.child(inc.all, cur, c, &scratch{})
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
			t.Logf("ops %v, calls %d, derived %d", ops, inc.tr.calls.Load(), inc.drv.Derivations())
			if ops["clustered"] == 0 || ops["unclustered"] == 0 {
				t.Fatalf("the walk never toggled a clustered index under a partitioned table: %v", ops)
			}
			got, want := snapshotBytes(t, inc), snapshotBytes(t, ref)
			if !bytes.Equal(got, want) {
				t.Fatalf("incremental and from-scratch engines hold different facts (%d and %d snapshot bytes)", len(got), len(want))
			}
			t.Logf("snapshot %d bytes", len(got))
		})
	}
}

// snapshotBytes renders an evaluator's engine state as its canonical
// Snapshot JSON, which names structures by key, so two engines compare
// whatever order they interned their structures in.
func snapshotBytes(tb testing.TB, ev *evaluator) []byte {
	tb.Helper()
	var b bytes.Buffer
	w := canonjson.NewWriter(&b)
	ev.drv.Snapshot().WriteCanonical(w)
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
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
// input produces: the sealed pool's content address (the persisted derive
// facts, numbered by sorted structure key), the real what-if
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
// read by key, and the cost cache did not change. Every pin moved once more
// with the costing format 3 bump: the pools lost the fields the format
// dropped, and the cost cache became scoped to the statistics epoch, so the
// baseline is re-costed after candidate selection creates statistics — more
// derived evaluations, one re-fetched skeleton per event whose base
// configuration no post-statistics fact covers yet (aligned-with-drops +1
// call, PSOFT +16), and every improvement measured against the
// post-statistics BaseCost. Every fingerprint moved once more with the
// costing format 4 bump, which drops the persisted cost cache: a pool's
// costing section is its facts alone; calls, derived evaluations and
// improvements did not move. The derived column moved alone when flat
// (single-scope and DML) evaluations stopped taking a cost-cache entry:
// every flat evaluation is now a replay and counted, where only a cache miss
// was (375 → 521, 408 → 770, 22,918 → 42,178, 4,604 → 5,163, 4,280 →
// 13,391); fingerprints, calls and improvements did not move. It moved alone
// again when join evaluations stopped taking a cost-cache entry too: every
// join evaluation is now a counted replay, where only a join cache miss was
// (521 → 534, 770 → 805, 5,163 → 7,759, 13,391 → 14,646; SYNT1, which has
// no joins, stays at 42,178); fingerprints, calls and improvements did not
// move.
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
		}, "29400e9aa05745fefe65ad4179f79a77939632a5161924e4fe37d964b2a09f42", 36, 534, 0.9007869434316275},
		{"aligned-with-drops", func(tb testing.TB) (*whatif.Server, *workload.Workload, Options) {
			return reviseServer(tb), reviseWorkload(tb), Options{
				Features: FeatureIndexes | FeaturePartitioning, BaseConfig: reviseBase(),
				AllowDrops: true, StorageBudget: 64 << 20, Aligned: true,
			}
		}, "bb7261bd1e38cb75c613bf6522ac64bf515b53ccfcbbe24484307f39afc05951", 45, 805, 0.6956985672804847},
		{"toy-synt1", toy("synt1", FeatureIndexes),
			"9a0713aa885c80ec92e164ed5a862bce89aa6639ab7fea6f64fc3afdc8b59d30", 354, 42178, 0.9005581123088328},
		{"toy-tpch", toy("tpch", FeatureAll),
			"9c1534791057b60e3037bb7e84743da7e69bd25fa40bf69d74ae4c94b9f84c8b", 171, 7759, 0.6840020359076524},
		{"toy-psoft", toy("psoft", FeatureAll),
			"6748a7eed30fceb4213fb0e03c4fdf8e11c340ae25538183ce164bab63398cdf", 1100, 14646, 0.5558741812917586},
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

// TestCacheHitAllocatesNothing: a repeated evaluation — the search's
// innermost operation — allocates nothing, metrics attached: every event's,
// join or flat, is replayed from its ready fact. A join replay's working
// memory is pooled, and the race detector's sync.Pool drops pooled items at
// random, so under it the sweep covers the flat events only.
func TestCacheHitAllocatesNothing(t *testing.T) {
	w := parallelWorkload(t)
	ev := newEvaluator(testServer(t), w, "", newTracker(context.Background(), Options{Metrics: obs.NewRegistry()}.withDefaults(), time.Now()))
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("t", "x"))
	cfg.AddIndex(catalog.NewIndex("t", "a").WithInclude("amt"))
	cfg.AddIndex(catalog.NewIndex("d", "grp"))
	c := ev.config(cfg)
	var events []int
	for i := range w.Events {
		if _, err := ev.eval(i, c, nil); err != nil {
			t.Fatal(err)
		}
		if q := ev.analyzed(i); !raceEnabled || q == nil || len(q.Scopes) <= 1 {
			events = append(events, i)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, i := range events {
			ev.eval(i, c, nil)
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
// pool and sealing it again reproduces the pool byte for byte — the
// skeleton facts survive the round trip through the ID-keyed format,
// whatever order the second session interned the tables in.
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
// pool: per iteration, a revision's warm start (intern the table once,
// restore and compile every fact), a seal (canonical renumbering, the
// skeleton snapshot, the fingerprint) and Check. The TPC-H pool's bytes are
// mostly join skeletons, as a tpch-fleet pool's are. Run with -benchmem.
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

// BenchmarkRevise times a whole revision as the service runs one, over the
// toy PSOFT, TPC-H and SYNT1 pools with the storage budget halved: the warm
// start (restoring the pool's facts), the search with every evaluation
// replayed from a fact that covers it, and the PoolSink hand-off — the
// input pool itself when the revision fetched nothing, else a new seal. Run
// with -benchmem; pool-bytes is the size of the pool file the revision
// leaves, its canonical JSON.
func BenchmarkRevise(b *testing.B) {
	for _, c := range []struct {
		name string
		f    FeatureMask
	}{{"psoft", FeatureAll}, {"tpch", FeatureAll}, {"synt1", FeatureIndexes}} {
		b.Run(c.name, func(b *testing.B) {
			srv, w, base := toyBackend(b, c.name)
			var pool, sealed *CostedPool
			rec, err := Tune(srv, w, Options{Features: c.f, BaseConfig: base, Parallelism: 1, SkipReports: true, PoolSink: func(p *CostedPool) { pool = p }})
			if err != nil {
				b.Fatal(err)
			}
			cons := Constraints{StorageBudget: rec.StorageBytes / 2}
			opts := Options{Parallelism: 1, SkipReports: true, PoolSink: func(p *CostedPool) { sealed = p }}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Revise(context.Background(), srv, pool, cons, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var size countingWriter
			if err := sealed.WriteCanonical(&size); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(size), "pool-bytes")
		})
	}
}

// countingWriter counts the bytes written to it.
type countingWriter int64

func (n *countingWriter) Write(p []byte) (int, error) {
	*n += countingWriter(len(p))
	return len(p), nil
}

// BenchmarkEnumerate times the search layer over a sealed toy SYNT1 pool:
// one storage-halved revision per iteration — drop analysis, merging, and
// the enumeration Greedy(m,k) — every evaluation replayed from the pool's
// derive facts. Run with -benchmem; ns/op and allocs/op track the search
// layer without the repository benchmark's full runs.
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

// BenchmarkFrontier times one enumeration step over the toy PSOFT pool: the
// pool's warm-started evaluator, its candidates as enumeration's shared pool,
// and per iteration one frontier — every candidate grown onto the base
// configuration and its touched events re-costed (evalFrontier) — after a
// first frontier has handed every event its slots, as a search's later
// steps find them. It reports the time and the allocations per evaluation.
func BenchmarkFrontier(b *testing.B) {
	srv, w, pool, opts := sealedToy(b, "psoft", FeatureAll)
	ev := pool.warmState(srv, w, pool.Base, opts.Derive, testTracker()).ev
	cands := keyed(pool.Candidates)
	ev.setQueryPools(ev.sharedPools(cands))
	root, err := ev.costAll(ev.all, ev.config(pool.Base))
	if err != nil {
		b.Fatal(err)
	}
	cs := ev.candidates(cands)
	o := greedyOptions{m: 1, k: 1}
	fits := func(*config) bool { return true }
	step := func() (evals int) {
		fs := ev.frontier()
		defer ev.release(fs)
		res, _ := evalFrontier(ev, o, ev.all, root, cs, fits, fs)
		for _, r := range res {
			if r.err != nil {
				b.Fatal(r.err)
			}
			evals += len(r.ov)
		}
		return evals
	}
	evals := step()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(evals) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/eval")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/eval")
	b.ReportMetric(float64(evals), "evals/op")
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
