package core

import (
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/derive"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// reviseServer builds a small two-table server (20k-row fact, 1k-row
// dimension) with data attached. Each call builds an identical, independent
// server, so fresh-run comparisons start from first-touch statistics state.
func reviseServer(tb testing.TB) *whatif.Server {
	tb.Helper()
	cat := catalog.New()
	db := catalog.NewDatabase("db")
	db.AddTable(catalog.NewTable("db", "t", 0,
		&catalog.Column{Name: "id", Type: catalog.TypeInt, Width: 8, Distinct: 20000, Min: 0, Max: 19999},
		&catalog.Column{Name: "x", Type: catalog.TypeInt, Width: 8, Distinct: 2000, Min: 0, Max: 1999},
		&catalog.Column{Name: "a", Type: catalog.TypeInt, Width: 8, Distinct: 50, Min: 0, Max: 49},
		&catalog.Column{Name: "d_id", Type: catalog.TypeInt, Width: 8, Distinct: 1000, Min: 0, Max: 999},
		&catalog.Column{Name: "amt", Type: catalog.TypeFloat, Width: 8, Distinct: 500, Min: 0, Max: 499},
		&catalog.Column{Name: "pad", Type: catalog.TypeString, Width: 60, Distinct: 20000, Min: 0, Max: 19999},
	))
	db.AddTable(catalog.NewTable("db", "d", 0,
		&catalog.Column{Name: "d_id", Type: catalog.TypeInt, Width: 8, Distinct: 1000, Min: 0, Max: 999},
		&catalog.Column{Name: "grp", Type: catalog.TypeInt, Width: 8, Distinct: 10, Min: 0, Max: 9},
	))
	cat.AddDatabase(db)

	data := engine.NewDatabase(cat)
	const rows = 20000
	trows := make([][]engine.Value, 0, rows)
	for i := 0; i < rows; i++ {
		trows = append(trows, []engine.Value{
			engine.Num(float64(i)),
			engine.Num(float64((i * 37) % 2000)),
			engine.Num(float64(i % 50)),
			engine.Num(float64(i % 1000)),
			engine.Num(float64((i * 13) % 500)),
			engine.Str(fmt.Sprintf("pad%05d", i)),
		})
	}
	if err := data.Load("t", trows); err != nil {
		tb.Fatal(err)
	}
	drows := make([][]engine.Value, 0, 1000)
	for i := 0; i < 1000; i++ {
		drows = append(drows, []engine.Value{engine.Num(float64(i)), engine.Num(float64(i % 10))})
	}
	if err := data.Load("d", drows); err != nil {
		tb.Fatal(err)
	}
	s := whatif.NewServer("db", cat, optimizer.DefaultHardware())
	s.AttachData(data)
	return s
}

func reviseWorkload(tb testing.TB) *workload.Workload {
	tb.Helper()
	return workload.MustNew(
		"SELECT id FROM t WHERE x = 42",
		"SELECT id FROM t WHERE x = 99",
		"SELECT amt FROM t WHERE a = 7 AND x > 100",
		"SELECT t.id FROM t, d WHERE t.d_id = d.d_id AND d.grp = 3",
		"SELECT a, SUM(amt) FROM t GROUP BY a",
		"SELECT id FROM t WHERE amt = 250",
		"UPDATE t SET amt = 0 WHERE x = 5",
	)
}

// normalizeRec serializes a recommendation with its run-accounting fields
// (call counts, derive stats, stats created, duration) blanked: everything
// else — configuration, costs, improvement, storage, reports, usage, drops
// — must be byte-identical between a revision and a fresh run.
func normalizeRec(tb testing.TB, r *Recommendation) string {
	tb.Helper()
	c := *r
	c.WhatIfCalls = 0
	c.DerivedEvals = 0
	c.DeriveFallbacks = nil
	c.StatsCreated = 0
	c.Duration = 0
	b, err := json.MarshalIndent(&c, "", " ")
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// reviseBase returns the existing physical design the equivalence matrix
// runs against: one useful index and one useless one, so drop analysis has
// a real decision to make per constraint set.
func reviseBase() *catalog.Configuration {
	base := catalog.NewConfiguration()
	base.AddIndex(catalog.NewIndex("t", "a", "pad"))
	base.AddIndex(catalog.NewIndex("d", "grp"))
	return base
}

// TestReviseEquivalence is the revision-equivalence property test: for a
// matrix of costing legs (the real-call oracle over a skeleton-less tuner,
// derive on, derive verify) and parallelism levels, Revise(pool, C) must
// produce a byte-identical recommendation to a fresh full TuneContext run
// under constraints C (on an identically built fresh server), with
// search-only what-if calls never exceeding the full run's — across
// storage-bound changes, pinned and vetoed structures, and workload-slice
// reweighting. A revision to the pool's own constraints must reproduce the
// original recommendation exactly.
func TestReviseEquivalence(t *testing.T) {
	const oracle = "real-call"
	var oracleRec string // the oracle leg's recommendation: every leg's reference
	for _, leg := range []string{oracle, "on", "verify"} {
		// backend builds a fresh server; the oracle leg hides its skeletons.
		backend := func(tb testing.TB) Tuner { return reviseServer(tb) }
		mode := derive.Mode(leg)
		if leg == oracle {
			backend = func(tb testing.TB) Tuner { return realCallTuner{reviseServer(tb)} }
			mode = ""
		}
		for _, par := range []int{1, 4} {
			if mode == derive.Verify && par != 1 {
				continue // verify doubles backend load; one level covers it
			}
			t.Run(fmt.Sprintf("%s/P=%d", leg, par), func(t *testing.T) {
				w := reviseWorkload(t)
				origOpts := Options{
					Features:      FeatureIndexes | FeaturePartitioning,
					BaseConfig:    reviseBase(),
					AllowDrops:    true,
					StorageBudget: 64 << 20,
					Derive:        mode,
					Parallelism:   par,
					SkipReports:   false,
				}

				var pool *CostedPool
				origOpts.PoolSink = func(p *CostedPool) { pool = p }
				srv := backend(t)
				orig, err := TuneContext(context.Background(), srv, w, origOpts)
				if err != nil {
					t.Fatal(err)
				}
				if pool == nil {
					t.Fatal("PoolSink never received a costed pool")
				}
				if oracleRec == "" {
					oracleRec = normalizeRec(t, orig)
				} else if got := normalizeRec(t, orig); got != oracleRec {
					t.Errorf("recommendation differs from the real-call oracle's\ngot: %s\noracle: %s", got, oracleRec)
				}
				if (pool.Skeletons == nil) != (leg == oracle) {
					t.Fatalf("pool carries skeletons iff the backend offers them; leg %s, snapshot %v", leg, pool.Skeletons != nil)
				}
				if err := pool.Check(); err != nil {
					t.Fatal(err)
				}
				// Serialize and reload: Revise must work from the persisted
				// form, exactly as dta -revise and the service use it.
				raw, err := json.Marshal(pool)
				if err != nil {
					t.Fatal(err)
				}
				var loaded CostedPool
				if err := json.Unmarshal(raw, &loaded); err != nil {
					t.Fatal(err)
				}
				if err := loaded.Check(); err != nil {
					t.Fatalf("pool fingerprint broken by JSON round trip: %v", err)
				}

				if len(orig.NewStructures) == 0 {
					t.Fatal("original run recommended nothing; constraint variants need a structure to pin/veto")
				}
				pin := catalog.NewConfiguration()
				orig.NewStructures[0].ApplyTo(pin)
				vetoKey := orig.NewStructures[0].Key()
				sig := w.Events[0].Signature()

				variants := []struct {
					name string
					cons Constraints
					// mutate builds the fresh-run Options for the same
					// constraints from the original ones.
					mutate func(o Options) Options
				}{
					{"same", Constraints{StorageBudget: origOpts.StorageBudget},
						func(o Options) Options { return o }},
					{"half-budget", Constraints{StorageBudget: origOpts.StorageBudget / 8},
						func(o Options) Options { o.StorageBudget = origOpts.StorageBudget / 8; return o }},
					{"pin", Constraints{StorageBudget: origOpts.StorageBudget, Pinned: pin},
						func(o Options) Options { o.UserConfig = pin; return o }},
					{"veto", Constraints{StorageBudget: origOpts.StorageBudget, Vetoed: []string{vetoKey}},
						func(o Options) Options { o.Vetoed = []string{vetoKey}; return o }},
					{"reweight", Constraints{StorageBudget: origOpts.StorageBudget, SliceWeights: map[string]float64{sig: 25}},
						func(o Options) Options { o.SliceWeights = map[string]float64{sig: 25}; return o }},
				}
				for _, v := range variants {
					t.Run(v.name, func(t *testing.T) {
						revised, err := Revise(context.Background(), srv, &loaded, v.cons, Options{Parallelism: par})
						if err != nil {
							t.Fatal(err)
						}
						freshOpts := v.mutate(origOpts)
						freshOpts.PoolSink = nil
						fresh, err := TuneContext(context.Background(), backend(t), w, freshOpts)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := normalizeRec(t, revised), normalizeRec(t, fresh); got != want {
							t.Errorf("revised recommendation differs from fresh run under same constraints\nrevised: %s\nfresh: %s", got, want)
						}
						if revised.WhatIfCalls > fresh.WhatIfCalls {
							t.Errorf("revision issued more what-if calls (%d) than the fresh run (%d)", revised.WhatIfCalls, fresh.WhatIfCalls)
						}
						if v.name == "same" {
							if got, want := normalizeRec(t, revised), normalizeRec(t, orig); got != want {
								t.Errorf("same-constraints revision differs from the original recommendation\nrevised: %s\noriginal: %s", got, want)
							}
						}
					})
				}
			})
		}
	}
}

// TestVetoExcludesMergedStructures: a vetoed structure must not reappear
// in a revision even when it is a *merged* structure — one synthesized by
// candidate merging and therefore absent from the pool's sealed candidate
// list. The veto filter used to run only before merging, so merging could
// rebuild the vetoed structure from unvetoed parents and re-recommend it
// (first seen live as a daemon re-proposing a vetoed index).
func TestVetoExcludesMergedStructures(t *testing.T) {
	w := reviseWorkload(t)
	opts := Options{Features: FeatureIndexes, StorageBudget: 64 << 20, AllowDrops: true}
	var pool *CostedPool
	opts.PoolSink = func(p *CostedPool) { pool = p }
	srv := reviseServer(t)
	rec, err := TuneContext(context.Background(), srv, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	inPool := map[string]bool{}
	for _, c := range pool.Candidates {
		inPool[c.Key()] = true
	}
	var merged string
	for _, s := range rec.NewStructures {
		if !inPool[s.Key()] {
			merged = s.Key()
			break
		}
	}
	if merged == "" {
		t.Fatal("no recommended structure is a merged one; the harness no longer covers the post-merge veto path — adjust the workload")
	}
	cons := Constraints{StorageBudget: opts.StorageBudget, Vetoed: []string{merged}}
	revised, err := Revise(context.Background(), srv, pool, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range revised.NewStructures {
		if s.Key() == merged {
			t.Fatalf("vetoed merged structure %q re-recommended by revision", merged)
		}
	}
	// The revision must still match a fresh full run under the same veto.
	freshOpts := opts
	freshOpts.PoolSink = nil
	freshOpts.Vetoed = []string{merged}
	fresh, err := TuneContext(context.Background(), reviseServer(t), w, freshOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizeRec(t, revised), normalizeRec(t, fresh); got != want {
		t.Errorf("veto revision differs from fresh run under the same veto\nrevised: %s\nfresh: %s", got, want)
	}
}

// TestReviseZeroCallsOnSelectOnlyWorkload checks the CoPhy headline on a
// SELECT-only workload with derivation on: a storage-bound revision against
// the pool answers every evaluation from cached atoms or derived facts —
// zero new what-if optimizer calls.
func TestReviseZeroCallsOnSelectOnlyWorkload(t *testing.T) {
	w := workload.MustNew(
		"SELECT id FROM t WHERE x = 42",
		"SELECT amt FROM t WHERE a = 7 AND x > 100",
		"SELECT t.id FROM t, d WHERE t.d_id = d.d_id AND d.grp = 3",
		"SELECT a, SUM(amt) FROM t GROUP BY a",
		"SELECT id FROM t WHERE amt = 250",
	)
	var pool *CostedPool
	srv := reviseServer(t)
	_, err := TuneContext(context.Background(), srv, w, Options{
		Features:      FeatureIndexes,
		StorageBudget: 64 << 20,
		Derive:        derive.On,
		PoolSink:      func(p *CostedPool) { pool = p },
	})
	if err != nil {
		t.Fatal(err)
	}
	if pool == nil {
		t.Fatal("no pool captured")
	}
	for _, budget := range []int64{8 << 20, 32 << 20, 128 << 20} {
		rec, err := Revise(context.Background(), srv, pool, Constraints{StorageBudget: budget}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rec.WhatIfCalls != 0 {
			t.Errorf("budget %d: revision issued %d what-if calls, want 0", budget, rec.WhatIfCalls)
		}
	}
}

// TestRevisePoolCheck ensures tampered pools, and pools whose cost-cache
// section predates the current format, are rejected.
func TestRevisePoolCheck(t *testing.T) {
	p := &CostedPool{Statements: []workload.Statement{{SQL: "SELECT 1", Weight: 1}}, CostingSection: CostingSection{Cache: CostCache{Format: CostCacheFormat}}}
	if err := p.Check(); err == nil {
		t.Fatal("unstamped pool passed Check")
	}
	p.Fingerprint = p.ComputeFingerprint()
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	p.Statements[0].Weight = 2
	if err := p.Check(); err == nil {
		t.Fatal("tampered pool passed Check")
	}

	old := &CostedPool{Statements: p.Statements}
	old.Fingerprint = old.ComputeFingerprint()
	if err := old.Check(); err == nil || !strings.Contains(err.Error(), "format 0") {
		t.Fatalf("format-0 pool: Check = %v, want a refusal naming the format", err)
	}
	if _, err := Revise(context.Background(), testServer(t), old, Constraints{}, Options{}); err == nil || !strings.Contains(err.Error(), "format 0") {
		t.Fatalf("format-0 pool: Revise = %v, want a refusal naming the format", err)
	}
}

// TestReviseRevisesPoolWithoutDMLFacts: a pool whose skeleton section holds
// SELECT facts only, with the DML costs in its cost cache — one sealed before
// DML statements had skeletons, carried over to the current costing format
// by dropping the fields that format no longer has — is a valid pool. A
// revision over it that reaches uncached DML costs fetches their maintenance
// skeletons and derives the rest, so it returns the recommendation the
// sealing binary's own revision returned — pinned below — with fewer real
// calls than that revision's 16.
func TestReviseRevisesPoolWithoutDMLFacts(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "psoft-pool-no-dml-facts.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var pool CostedPool
	if err := json.NewDecoder(zr).Decode(&pool); err != nil {
		t.Fatal(err)
	}
	if err := pool.Check(); err != nil {
		t.Fatalf("a pool without DML facts must stay valid: %v", err)
	}
	srv, _, _ := toyBackend(t, "psoft")
	rec, err := Revise(context.Background(), srv, &pool, Constraints{StorageBudget: 47104}, Options{Parallelism: 1, SkipReports: true})
	if err != nil {
		t.Fatal(err)
	}
	// The sealing binary's revision, reduced by planFingerprint and hashed.
	const (
		sealerPrint = "a0f1e4745d134b69a694a4be697617f06ba007904df2d9ca40f07b76455b2313"
		sealerCalls = 16
	)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(planFingerprint(rec)))); got != sealerPrint {
		t.Fatalf("revision differs from the sealing binary's (improvement %v):\n%s", rec.Improvement, planFingerprint(rec))
	}
	if rec.WhatIfCalls == 0 || rec.WhatIfCalls >= sealerCalls {
		t.Fatalf("revision issued %d real calls, want some but fewer than the sealing binary's %d", rec.WhatIfCalls, sealerCalls)
	}
}

// TestReportUsedWithoutFacts: the per-query report replays each event's
// used structures from a skeleton fact covering its cost-cache key. A
// revision over the intact pool finds one for every event and issues no
// call; one over the same pool with its skeleton section gone fetches the
// facts the report needs and reports exactly the same.
func TestReportUsedWithoutFacts(t *testing.T) {
	srv := testServer(t)
	var pool *CostedPool
	if _, err := Tune(srv, parallelWorkload(t), Options{Parallelism: 1, SkipReports: true, PoolSink: func(p *CostedPool) { pool = p }}); err != nil {
		t.Fatal(err)
	}
	intact, err := Revise(context.Background(), srv, pool, Constraints{}, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	bare := *pool
	bare.Skeletons = nil
	stripped, err := Revise(context.Background(), srv, &bare, Constraints{}, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(intact.Reports) == 0 || planFingerprint(stripped) != planFingerprint(intact) {
		t.Fatalf("reports over the pool without facts differ:\n%s\nvs\n%s", planFingerprint(stripped), planFingerprint(intact))
	}
	if intact.WhatIfCalls != 0 || stripped.WhatIfCalls == 0 {
		t.Fatalf("what-if calls %d over the intact pool (want 0), %d without its facts (want some)", intact.WhatIfCalls, stripped.WhatIfCalls)
	}
}
