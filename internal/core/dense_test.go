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

// toyBackend builds one of the demonstration databases at toy scale with
// its constraint base configuration: SYNT1 (single table, SELECT-only),
// TPC-H (joins, views) or PSOFT (DML beside reads).
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
			inc := newEvaluator(srv, tuned, "")
			ref := newEvaluator(srv, tuned, "")
			inc.setDerivePool(cands)
			ref.setDerivePool(cands)

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
			if got, want := fmt.Sprint(inc.snapshotCache()), fmt.Sprint(ref.snapshotCache()); got != want {
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
// cache and derive facts, rendered from interned IDs), the real what-if
// calls, the derived evaluations and the improvement. The inputs are a
// plain pool, one with drops, partitioning and lazy alignment, and the
// three toy demonstration databases (SYNT1 indexes only; TPC-H and PSOFT
// with every feature, so join replay and the DML fallback are covered). An
// accidental change to call counts or recommendations fails here; a
// deliberate one (a new skeleton shape that removes a fallback, say)
// updates the pins in the same change and says why.
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
		}, "5f878efe76ec68e637fdf293ac9d1667d8d541eb7071764d6fb048ff8bbe3692", 160, 236, 0.9008311029433221},
		{"aligned-with-drops", func(tb testing.TB) (*whatif.Server, *workload.Workload, Options) {
			return reviseServer(tb), reviseWorkload(tb), Options{
				Features: FeatureIndexes | FeaturePartitioning, BaseConfig: reviseBase(),
				AllowDrops: true, StorageBudget: 64 << 20, Aligned: true,
			}
		}, "e64e7a6daf66d448da27add30ec241f7643559110928f0669c54eef74b5edcd2", 169, 270, 0.6957172156094855},
		{"toy-synt1", toy("synt1", FeatureIndexes),
			"a493db10a430372fc4432114e52fb94f5292e0de0df749b6f7a1ec85654088f5", 354, 22760, 0.9005732641167159},
		{"toy-tpch", toy("tpch", FeatureAll),
			"77c09cc3903fb0dbd44273421b98d780d5591c3508d3ed29ab788203d71f6784", 171, 4581, 0.6838914950249153},
		{"toy-psoft", toy("psoft", FeatureAll),
			"4b4a330d4c8d67f2f39842eb7e62466c122a3526804251bbb09fffad2b4ced97", 1607, 3461, 0.5572800445626688},
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
	ev := newEvaluator(testServer(t), w, "")
	ev.attach(newTracker(context.Background(), Options{Metrics: obs.NewRegistry()}.withDefaults(), time.Now()))
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
