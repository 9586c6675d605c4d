package core

import (
	"compress/gzip"
	"context"
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
// the pool answers every evaluation by replaying its facts —
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

// TestRevisePoolCheck ensures tampered pools, and pools whose costing
// section predates the current format, are rejected.
func TestRevisePoolCheck(t *testing.T) {
	p := &CostedPool{Statements: []workload.Statement{{SQL: "SELECT 1", Weight: 1}}, CostingSection: CostingSection{Format: CostingFormat}}
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
// SELECT facts only — one sealed before DML statements had skeletons,
// carried over to the current costing format by dropping what that format
// no longer has — is a valid pool. A revision over it replays the SELECT
// facts it holds and fetches the maintenance skeletons (and any other top
// no fact covers) it needs, so it returns exactly the recommendation the
// real-call oracle's revision of the same pool returns, with fewer calls;
// the pool it seals holds those facts, and revising that one again costs
// nothing and returns the same.
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
	revise := func(srv Tuner, p *CostedPool) (*Recommendation, *CostedPool) {
		t.Helper()
		sealed := p
		rec, err := Revise(context.Background(), srv, p, Constraints{StorageBudget: 47104}, Options{Parallelism: 1, SkipReports: true, PoolSink: func(q *CostedPool) { sealed = q }})
		if err != nil {
			t.Fatal(err)
		}
		return rec, sealed
	}
	srv, _, _ := toyBackend(t, "psoft")
	rec, sealed := revise(srv, &pool)
	oracleSrv, _, _ := toyBackend(t, "psoft")
	oracle, _ := revise(realCallTuner{oracleSrv}, &pool)
	if got, want := planFingerprint(rec), planFingerprint(oracle); got != want {
		t.Fatalf("revision differs from the real-call oracle's:\n%s\nvs\n%s", got, want)
	}
	if rec.WhatIfCalls == 0 || rec.WhatIfCalls >= oracle.WhatIfCalls || sealed == &pool {
		t.Fatalf("revision issued %d calls (the oracle %d) and sealed a new pool %v: want some calls, fewer than the oracle's, and a new pool",
			rec.WhatIfCalls, oracle.WhatIfCalls, sealed != &pool)
	}
	again, kept := revise(srv, sealed)
	if planFingerprint(again) != planFingerprint(rec) || again.WhatIfCalls != 0 || kept != sealed {
		t.Fatalf("revising the sealed pool again: %d calls, pool kept %v, plan\n%s", again.WhatIfCalls, kept == sealed, planFingerprint(again))
	}
	t.Logf("calls: revision %d, oracle %d", rec.WhatIfCalls, oracle.WhatIfCalls)
}

// TestReportUsedWithoutFacts: the per-query report replays each event's
// used structures from a skeleton fact covering its cost-cache key. A
// revision over the intact pool finds one for every event and issues no
// call; one over the same pool with its skeleton section gone fetches the
// facts its search and report need and reports exactly the same.
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

// TestReviseAnswersFromRestoredFacts: a revision replays every evaluation a
// restored skeleton fact covers, whatever top it asks for, so it fetches
// only for structures its pool never costed for the event. On every toy,
// at P=1 and P=4, the revisions under the pool's own constraints and with
// the storage budget halved fetch nothing and hand back their input pool;
// a veto of a recommended structure changes what merging builds, and it may
// fetch only tops naming a structure no restored fact of their event names.
// Every revision's recommendation is byte-identical to a fresh tune's under
// the same constraints, and its call count is the same at both
// parallelisms.
func TestReviseAnswersFromRestoredFacts(t *testing.T) {
	for _, c := range canonicalToys {
		t.Run(c.name, func(t *testing.T) {
			calls := map[string]int64{}
			for _, par := range []int{1, 4} {
				srv, w, base := toyBackend(t, c.name)
				opts := Options{Features: c.f, BaseConfig: base, Parallelism: par}
				var pool *CostedPool
				sealing := opts
				sealing.PoolSink = func(p *CostedPool) { pool = p }
				rec, err := Tune(srv, w, sealing)
				if err != nil {
					t.Fatal(err)
				}
				veto := rec.NewStructures[0].Key()
				for _, leg := range []struct {
					name  string
					cons  Constraints
					fresh func(Options) Options
				}{
					{"same", Constraints{}, func(o Options) Options { return o }},
					{"storage-halved", Constraints{StorageBudget: rec.StorageBytes / 2},
						func(o Options) Options { o.StorageBudget = rec.StorageBytes / 2; return o }},
					{"veto", Constraints{Vetoed: []string{veto}},
						func(o Options) Options { o.Vetoed = []string{veto}; return o }},
				} {
					var got *CostedPool
					rev, err := Revise(context.Background(), srv, pool, leg.cons, Options{Parallelism: par, PoolSink: func(p *CostedPool) { got = p }})
					if err != nil {
						t.Fatal(err)
					}
					fresh := rec
					if leg.name != "same" {
						if fresh, err = Tune(srv, w, leg.fresh(opts)); err != nil {
							t.Fatal(err)
						}
					}
					if a, b := normalizeRec(t, rev), normalizeRec(t, fresh); a != b {
						t.Errorf("P=%d %s: revision differs from a fresh tune\nrevised: %s\nfresh: %s", par, leg.name, a, b)
					}
					fetched := rev.DeriveFallbacks != nil
					if fetched != (rev.WhatIfCalls > 0) || fetched != (got != pool) {
						t.Errorf("P=%d %s: %d calls, fetched %v, input pool kept %v", par, leg.name, rev.WhatIfCalls, rev.DeriveFallbacks, got == pool)
					}
					if fetched && leg.name != "veto" {
						t.Errorf("P=%d %s: fetched %v, want nothing", par, leg.name, rev.DeriveFallbacks)
					}
					if fetched {
						if n := factsOfKnownStructures(pool, got); n > 0 {
							t.Errorf("P=%d %s: %d fetched facts name only structures the pool's facts of their event name", par, leg.name, n)
						}
					}
					if par == 1 {
						calls[leg.name] = rev.WhatIfCalls
					} else if rev.WhatIfCalls != calls[leg.name] {
						t.Errorf("%s: %d calls at P=4, %d at P=1", leg.name, rev.WhatIfCalls, calls[leg.name])
					}
				}
			}
			t.Logf("revision calls %v", calls)
		})
	}
}

// factsOfKnownStructures counts the facts of sealed that pool lacks whose top
// names only structures some fact of pool names for the same event.
func factsOfKnownStructures(pool, sealed *CostedPool) int {
	type top struct {
		event int
		keys  string
	}
	known := map[int]map[string]bool{}
	old := map[top]bool{}
	for _, f := range pool.Skeletons.Facts {
		if known[f.Event] == nil {
			known[f.Event] = map[string]bool{}
		}
		var keys []string
		for _, p := range f.Node {
			known[f.Event][pool.Skeletons.Structs[p].Key] = true
			keys = append(keys, pool.Skeletons.Structs[p].Key)
		}
		old[top{f.Event, strings.Join(keys, "\n")}] = true
	}
	n := 0
	for _, f := range sealed.Skeletons.Facts {
		var keys []string
		all := true
		for _, p := range f.Node {
			k := sealed.Skeletons.Structs[p].Key
			keys = append(keys, k)
			all = all && known[f.Event][k]
		}
		if all && !old[top{f.Event, strings.Join(keys, "\n")}] {
			n++
		}
	}
	return n
}
