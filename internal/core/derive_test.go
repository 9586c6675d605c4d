package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/derive"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// planFingerprint reduces a recommendation to what derivation must preserve:
// every cost, structure, and per-statement report — but not WhatIfCalls,
// which derivation exists to reduce.
func planFingerprint(rec *Recommendation) string {
	s := fmt.Sprintf("base=%v cost=%v improvement=%v storage=%d stop=%q\n",
		rec.BaseCost, rec.Cost, rec.Improvement, rec.StorageBytes, rec.StopReason)
	for _, st := range rec.NewStructures {
		s += "new " + st.Key() + "\n"
	}
	for _, st := range rec.DroppedStructures {
		s += "drop " + st.Key() + "\n"
	}
	for _, r := range rec.Reports {
		s += fmt.Sprintf("report %q before=%v after=%v used=%v\n", r.SQL, r.CostBefore, r.CostAfter, r.UsedStructures)
	}
	return s
}

// realCallTuner hides the backend's AlternativesTuner, so the evaluator runs
// without a derivation engine and every miss is a real call: the oracle that
// derived costs and recommendations must equal.
type realCallTuner struct{ Tuner }

// TestDeriveModeEquivalence runs the full advisor against the real-call
// oracle, deriving, and verifying, each at parallelism 1 and 4, over three
// inputs: a mixed workload (selective lookups, aggregations, a join, an
// update), the toy TPC-H database with every feature (joins, views and
// partitioning, so composed join-skeleton replay is exercised) and the toy
// PSOFT database with every feature (INSERT/UPDATE/DELETE beside reads, so
// maintenance-skeleton replay is exercised). For each input every leg must
// produce the identical recommendation; within a leg neither
// the what-if call count nor the derived-evaluation count (every flat
// evaluation is a replay, every join one a cache miss's) may depend on
// parallelism (on TPC-H only the
// derive-on leg runs at both levels there and on PSOFT: the oracle and verify
// legs pay a real call per evaluation and dominate the test's run time);
// derivation must actually cut calls; on TPC-H the fallbacks must be split by
// query shape, with multi-scope ("atom-join") fetches reported as such; and
// no leg may report a DML fallback.
func TestDeriveModeEquivalence(t *testing.T) {
	type leg struct {
		name string
		mode derive.Mode
		par  int
	}
	const oracle = "real-call"
	var legs []leg
	for _, name := range []string{oracle, "on", "verify"} {
		for _, par := range []int{1, 4} {
			l := leg{name: name, par: par}
			if name != oracle {
				l.mode = derive.Mode(name)
			}
			legs = append(legs, l)
		}
	}
	for _, in := range []struct {
		name     string
		setup    func(testing.TB) (*whatif.Server, *workload.Workload, Options)
		onlyOnP4 bool // run only the derive-on leg at parallelism 4
	}{
		{"parallel-workload", func(tb testing.TB) (*whatif.Server, *workload.Workload, Options) {
			return testServer(tb), parallelWorkload(tb), Options{}
		}, false},
		{"toy-tpch", func(tb testing.TB) (*whatif.Server, *workload.Workload, Options) {
			srv, w, base := toyBackend(tb, "tpch")
			return srv, w, Options{Features: FeatureAll, BaseConfig: base}
		}, true},
		{"toy-psoft", func(tb testing.TB) (*whatif.Server, *workload.Workload, Options) {
			srv, w, base := toyBackend(tb, "psoft")
			return srv, w, Options{Features: FeatureAll, BaseConfig: base}
		}, true},
	} {
		t.Run(in.name, func(t *testing.T) {
			prints := map[string]string{}
			calls := map[string]int64{}
			derived := map[string]int64{}
			fallbacks := map[string]map[string]int64{}
			id := func(name string, par int) string { return fmt.Sprintf("%s/P%d", name, par) }
			for _, l := range legs {
				if in.onlyOnP4 && l.par != 1 && l.name != "on" {
					continue
				}
				srv, w, opts := in.setup(t)
				var s Tuner = srv
				if l.name == oracle {
					s = realCallTuner{s}
				}
				opts.Parallelism, opts.Derive = l.par, l.mode
				rec, err := Tune(s, w, opts)
				if err != nil {
					t.Fatalf("%s: %v", id(l.name, l.par), err)
				}
				prints[id(l.name, l.par)] = planFingerprint(rec)
				calls[id(l.name, l.par)] = rec.WhatIfCalls
				derived[id(l.name, l.par)] = rec.DerivedEvals
				fallbacks[id(l.name, l.par)] = rec.DeriveFallbacks
				if l.name == oracle && rec.DeriveFallbacks != nil {
					t.Errorf("%s: a skeleton-less backend must run without an engine, got fallbacks %v", id(l.name, l.par), rec.DeriveFallbacks)
				}
			}
			ref := prints[id(oracle, 1)]
			for _, l := range legs[1:] {
				if got, ok := prints[id(l.name, l.par)]; ok && got != ref {
					t.Errorf("recommendation drifts under %s:\n--- %s ---\n%s--- %s ---\n%s",
						id(l.name, l.par), id(oracle, 1), ref, id(l.name, l.par), got)
				}
			}
			for _, name := range []string{oracle, "on", "verify"} {
				if p4, ok := calls[id(name, 4)]; ok && calls[id(name, 1)] != p4 {
					t.Errorf("%s: WhatIfCalls depends on parallelism: P1=%d P4=%d", name, calls[id(name, 1)], p4)
				}
				if p4, ok := derived[id(name, 4)]; ok && derived[id(name, 1)] != p4 {
					t.Errorf("%s: DerivedEvals depends on parallelism: P1=%d P4=%d", name, derived[id(name, 1)], p4)
				}
			}
			if calls[id("on", 1)] >= calls[id(oracle, 1)] {
				t.Errorf("derivation must reduce what-if calls: on=%d oracle=%d", calls[id("on", 1)], calls[id(oracle, 1)])
			}
			if derived[id("on", 1)] == 0 || derived[id("verify", 1)] == 0 {
				t.Error("DerivedEvals must be > 0 with a skeleton backend")
			}
			if derived[id(oracle, 1)] != 0 {
				t.Error("DerivedEvals must be 0 on the real-call oracle")
			}
			if in.name == "toy-tpch" && fallbacks[id("on", 1)]["atom-join"] == 0 {
				t.Errorf("TPC-H derive=on recorded no join-shaped fallbacks: %v", fallbacks[id("on", 1)])
			}
			for leg, by := range fallbacks {
				if _, ok := by["dml"]; ok {
					t.Errorf("%s: DML evaluations must derive, got fallbacks %v", leg, by)
				}
			}
		})
	}
}

// TestDeriveMatchesRealCostsOnRandomConfigs is the equivalence property at
// the evaluator level: over seeded-random configurations drawn from a pool
// of indexes and views, every derived (cost, used) pair equals the pair the
// real-call oracle (an evaluator over a skeleton-less tuner) computes — exactly,
// not within a tolerance. The workload mixes single-scope statements with
// multi-scope join templates (selective join, grouped join, ordered join)
// and DML (an INSERT, a DELETE, UPDATEs of an unindexed and of an indexed
// column), so flat, composed join-skeleton and maintenance replay are all
// exercised; the pool includes a grouped multi-table view that substitutes
// for the grouped join and two single-table views every DML on t maintains.
func TestDeriveMatchesRealCostsOnRandomConfigs(t *testing.T) {
	s := testServer(t)
	w := workload.MustNew(
		"SELECT id FROM t WHERE x = 42",
		"SELECT a, COUNT(*) FROM t WHERE x < 100 GROUP BY a",
		"SELECT SUM(amt) FROM t WHERE a = 7",
		"SELECT id FROM t WHERE amt > 900 ORDER BY amt",
		"SELECT t.id, d.grp FROM t, d WHERE t.d_id = d.d_id AND d.grp = 3",
		"SELECT t.id, d.name FROM t, d WHERE t.d_id = d.d_id AND t.x = 42",
		"SELECT d.grp, COUNT(*) FROM t, d WHERE t.d_id = d.d_id GROUP BY d.grp",
		"SELECT t.id FROM t, d WHERE t.d_id = d.d_id AND d.grp = 5 ORDER BY t.amt",
		"UPDATE t SET amt = 0 WHERE id = 17",
		"UPDATE t SET x = 5 WHERE a = 3",
		"INSERT INTO t (id, x, a, d_id, amt, pad) VALUES (1, 2, 3, 4, 5, 'p')",
		"DELETE FROM t WHERE x < 50",
	)
	pool := []catalog.Structure{
		{Index: catalog.NewIndex("t", "x")},
		{Index: catalog.NewIndex("t", "x", "a")},
		{Index: catalog.NewIndex("t", "a").WithInclude("amt")},
		{Index: catalog.NewIndex("t", "amt").WithInclude("id")},
		{Index: catalog.NewIndex("t", "d_id")},
		{Index: catalog.NewIndex("d", "d_id").WithInclude("grp")},
		{Index: catalog.NewIndex("d", "grp").WithInclude("d_id", "name")},
		{View: catalog.NewMaterializedView(
			[]string{"t"}, nil, nil,
			[]catalog.ColRef{catalog.NewColRef("t", "a")},
			[]catalog.Agg{{Func: "COUNT"}},
			100,
		)},
		{View: catalog.NewMaterializedView(
			[]string{"t"}, nil,
			[]catalog.ColRef{catalog.NewColRef("t", "id"), catalog.NewColRef("t", "x")},
			nil, nil, 200000,
		)},
		{View: catalog.NewMaterializedView(
			[]string{"t", "d"},
			[]catalog.JoinPred{{Left: catalog.NewColRef("t", "d_id"), Right: catalog.NewColRef("d", "d_id")}},
			nil,
			[]catalog.ColRef{catalog.NewColRef("d", "grp")},
			[]catalog.Agg{{Func: "COUNT"}},
			20,
		)},
	}

	evOn := newEvaluator(s, w, derive.On, testTracker())
	evOn.setQueryPools(evOn.sharedPools(keyed(pool)))
	evOff := newEvaluator(realCallTuner{s}, w, derive.On, testTracker())
	if evOff.drv != nil {
		t.Fatal("a skeleton-less tuner must not get a derivation engine")
	}

	rnd := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 150; trial++ {
		cfg := catalog.NewConfiguration()
		for _, st := range pool {
			if rnd.Intn(2) == 1 {
				st.ApplyTo(cfg)
			}
		}
		for i := range w.Events {
			// Costs through the search's path; used structures through the
			// report's, which replays them from a covering fact.
			con, coff := evOn.config(cfg), evOff.config(cfg)
			cOn, err := evOn.eval(i, con, nil)
			if err != nil {
				t.Fatalf("trial %d event %d (derive on): %v", trial, i, err)
			}
			uOn, err := evOn.used(i, con)
			if err != nil {
				t.Fatalf("trial %d event %d (derive on, used): %v", trial, i, err)
			}
			cOff, err := evOff.eval(i, coff, nil)
			if err != nil {
				t.Fatalf("trial %d event %d (real-call oracle): %v", trial, i, err)
			}
			uOff, err := evOff.used(i, coff)
			if err != nil {
				t.Fatalf("trial %d event %d (real-call oracle, used): %v", trial, i, err)
			}
			if cOn != cOff {
				t.Fatalf("trial %d event %d: derived cost %v != real cost %v", trial, i, cOn, cOff)
			}
			if strings.Join(uOn, ",") != strings.Join(uOff, ",") {
				t.Fatalf("trial %d event %d: derived used %v != real used %v", trial, i, uOn, uOff)
			}
		}
	}
	if evOn.drv.Derivations() == 0 {
		t.Fatal("no derivations happened; the property test is vacuous")
	}
	if evOn.tr.calls.Load() >= evOff.tr.calls.Load() {
		t.Fatalf("derivation must cut real calls: on=%d oracle=%d", evOn.tr.calls.Load(), evOff.tr.calls.Load())
	}
}

// altCountingTuner counts every what-if optimization the backend actually
// serves, including skeleton calls, to pin session-exact call accounting;
// plain counts the calls that asked for no skeleton.
type altCountingTuner struct {
	*whatif.Server
	served, plain atomic.Int64
}

func (a *altCountingTuner) WhatIfCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error) {
	a.served.Add(1)
	a.plain.Add(1)
	return a.Server.WhatIfCost(stmt, cfg)
}

func (a *altCountingTuner) WhatIfAlternativesCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
	a.served.Add(1)
	return a.Server.WhatIfAlternativesCost(stmt, cfg)
}

// TestDeriveCallAccountingSessionExact: with derivation on,
// Recommendation.WhatIfCalls still equals the number of optimizations the
// backend served — derived evaluations are not calls and must not be
// counted, and skeleton calls count once like any other call.
func TestDeriveCallAccountingSessionExact(t *testing.T) {
	a := &altCountingTuner{Server: testServer(t)}
	rec, err := Tune(a, parallelWorkload(t), Options{Parallelism: 4, Derive: derive.On})
	if err != nil {
		t.Fatal(err)
	}
	if rec.WhatIfCalls != a.served.Load() {
		t.Fatalf("rec.WhatIfCalls = %d, backend served %d", rec.WhatIfCalls, a.served.Load())
	}
	if rec.DerivedEvals == 0 {
		t.Fatal("expected derived evaluations")
	}
}

// corruptAltTuner doubles every end-to-end cost in the skeletons it returns,
// simulating a backend whose decomposition disagrees with its optimizer.
type corruptAltTuner struct {
	*whatif.Server
}

func (c *corruptAltTuner) WhatIfAlternativesCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
	cost, used, alts, err := c.Server.WhatIfAlternativesCost(stmt, cfg)
	if alts != nil {
		for i := range alts.Components {
			alts.Components[i].Final *= 2
		}
	}
	return cost, used, alts, err
}

// TestDeriveVerifyCatchesBadSkeleton: verify mode must fail the session when
// a derived cost diverges from the real optimizer's answer beyond
// derive.VerifyTolerance — for a corrupted single-scope SELECT skeleton and
// for a corrupted maintenance term of a DML skeleton.
func TestDeriveVerifyCatchesBadSkeleton(t *testing.T) {
	for name, c := range map[string]Tuner{
		"select": &corruptAltTuner{Server: testServer(t)},
		"dml":    &corruptMaintTuner{Server: testServer(t)},
	} {
		w := workload.MustNew(
			"SELECT id FROM t WHERE x = 42",
			"SELECT a, COUNT(*) FROM t WHERE x < 100 GROUP BY a",
			"UPDATE t SET x = 7 WHERE a = 3",
		)
		_, err := Tune(c, w, Options{Derive: derive.Verify})
		if err == nil {
			t.Fatalf("%s: verify mode must reject a skeleton that disagrees with the optimizer", name)
		}
		if !strings.Contains(err.Error(), "verify mismatch") {
			t.Fatalf("%s: expected a verify mismatch error, got: %v", name, err)
		}
	}
}

// corruptMaintTuner doubles the first maintenance term of every DML skeleton
// it returns — one term, so only the subsets holding that structure replay
// a wrong cost.
type corruptMaintTuner struct {
	*whatif.Server
}

func (c *corruptMaintTuner) WhatIfAlternativesCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
	cost, used, alts, err := c.Server.WhatIfAlternativesCost(stmt, cfg)
	if alts != nil && alts.Maint != nil && len(alts.Maint.Terms) > 0 {
		alts.Maint.Terms[0].Cost *= 2
	}
	return cost, used, alts, err
}

// corruptJoinTuner rescales every per-scope access-path cost inside the
// composed join skeletons it returns, leaving single-scope skeletons intact
// — the join analogue of corruptAltTuner.
type corruptJoinTuner struct {
	*whatif.Server
}

func (c *corruptJoinTuner) WhatIfAlternativesCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
	cost, used, alts, err := c.Server.WhatIfAlternativesCost(stmt, cfg)
	if alts != nil && alts.Join != nil {
		for i := range alts.Join.Scopes {
			for k := range alts.Join.Scopes[i].Alts {
				alts.Join.Scopes[i].Alts[k].Pre *= 2
			}
		}
	}
	return cost, used, alts, err
}

// TestDeriveVerifyCatchesBadJoinSkeleton: a corrupted join skeleton must be
// caught the same way a corrupted flat skeleton is — replayed join-plan
// arithmetic that disagrees with the real optimizer fails the session in
// verify mode.
func TestDeriveVerifyCatchesBadJoinSkeleton(t *testing.T) {
	c := &corruptJoinTuner{Server: testServer(t)}
	w := workload.MustNew(
		"SELECT t.id, d.grp FROM t, d WHERE t.d_id = d.d_id AND d.grp = 3",
		"SELECT d.grp, COUNT(*) FROM t, d WHERE t.d_id = d.d_id GROUP BY d.grp",
	)
	_, err := Tune(c, w, Options{Derive: derive.Verify})
	if err == nil {
		t.Fatal("verify mode must reject a join skeleton that disagrees with the optimizer")
	}
	if !strings.Contains(err.Error(), "verify mismatch") {
		t.Fatalf("expected a verify mismatch error, got: %v", err)
	}
}

// TestDeriveModeNormalisedAtBoundary: Options.Derive is parsed once, case-
// insensitively, where Tune and Revise accept it, so "Verify" verifies and
// "ON" derives instead of silently running without an engine; the removed
// "off" and unknown modes fail with the parser's message.
func TestDeriveModeNormalisedAtBoundary(t *testing.T) {
	w := workload.MustNew(
		"SELECT id FROM t WHERE x = 42",
		"SELECT a, COUNT(*) FROM t WHERE x < 100 GROUP BY a",
	)
	for _, c := range []struct {
		mode    derive.Mode
		verify  bool   // cross-checks must have run
		wantErr string // substring of the expected error ("" = success)
	}{
		{"", false, ""},
		{"on", false, ""},
		{"ON", false, ""},
		{"Verify", true, ""},
		{"off", false, "was removed"},
		{"bogus", false, "unknown mode"},
	} {
		t.Run("mode="+string(c.mode), func(t *testing.T) {
			srv := testServer(t)
			var pool *CostedPool
			reg := obs.NewRegistry()
			rec, err := Tune(srv, w, Options{Derive: c.mode, Metrics: reg, PoolSink: func(p *CostedPool) { pool = p }})
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("Tune error = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rec.DerivedEvals == 0 {
				t.Fatal("no derived evaluations: the mode was accepted but ran without an engine")
			}
			checks := reg.Counter("dta_derive_verify_total", "", "result", "match").Value()
			if c.verify != (checks > 0) {
				t.Fatalf("verify cross-checks = %v, want verification %v", checks, c.verify)
			}
			want := derive.On
			if c.verify {
				want = derive.Verify
			}
			if pool == nil || pool.Knobs.Derive != want {
				t.Fatalf("pool knobs carry %q, want the normalised %q", pool.Knobs.Derive, want)
			}

			// Revise normalises the same way: the knob as a user might have
			// spelled it in a hand-edited pool (the revision derives every
			// cost from the pool's skeletons).
			pool.Knobs.Derive = c.mode
			reg = obs.NewRegistry()
			rev, err := Revise(context.Background(), srv, pool, Constraints{StorageBudget: 1 << 20}, Options{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if rev.DerivedEvals == 0 {
				t.Fatal("revision ran without an engine")
			}
			checks = reg.Counter("dta_derive_verify_total", "", "result", "match").Value()
			if c.verify != (checks > 0) {
				t.Fatalf("revise: verify cross-checks = %v, want verification %v", checks, c.verify)
			}
		})
	}

	// A persisted pool costed under the removed mode is rejected by name.
	_, err := Revise(context.Background(), testServer(t), &CostedPool{Knobs: PoolKnobs{Derive: "off"}}, Constraints{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "was removed") {
		t.Fatalf("Revise over a derive=off pool: %v, want the removal message", err)
	}
}

// TestConcurrentSubsetsShareOneSkeletonFetch: goroutines costing distinct
// configurations of one event at the same time coalesce onto a single
// skeleton fetch — one backend call in total — and read the costs the
// real-call oracle computes, whatever GOMAXPROCS is.
func TestConcurrentSubsetsShareOneSkeletonFetch(t *testing.T) {
	w := workload.MustNew("SELECT id, amt FROM t WHERE x = 42 AND a = 7")
	pool := []catalog.Structure{
		{Index: catalog.NewIndex("t", "x")},
		{Index: catalog.NewIndex("t", "a")},
		{Index: catalog.NewIndex("t", "x", "a")},
		{Index: catalog.NewIndex("t", "a", "x").WithInclude("amt")},
	}
	var cfgs []*catalog.Configuration
	for mask := 0; mask < 1<<len(pool); mask++ {
		cfg := catalog.NewConfiguration()
		for b, st := range pool {
			if mask&(1<<b) != 0 {
				st.ApplyTo(cfg)
			}
		}
		cfgs = append(cfgs, cfg)
	}
	srv := testServer(t)
	oracle := newEvaluator(realCallTuner{srv}, w, "", testTracker())
	want := make([]float64, len(cfgs))
	for j, cfg := range cfgs {
		c, err := oracle.eval(0, oracle.config(cfg), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = c
	}

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			a := &altCountingTuner{Server: srv}
			ev := newEvaluator(a, w, "", testTracker())
			ev.setQueryPools(ev.sharedPools(keyed(pool)))
			got := make([]float64, len(cfgs))
			errs := make([]error, len(cfgs))
			var wg sync.WaitGroup
			for j, cfg := range cfgs {
				wg.Add(1)
				go func(j int, cfg *catalog.Configuration) {
					defer wg.Done()
					got[j], errs[j] = ev.eval(0, ev.config(cfg), nil)
				}(j, cfg)
			}
			wg.Wait()
			for j := range cfgs {
				if errs[j] != nil {
					t.Fatal(errs[j])
				}
				if got[j] != want[j] {
					t.Errorf("configuration %d: derived cost %v != oracle cost %v", j, got[j], want[j])
				}
			}
			if a.served.Load() != 1 || ev.tr.calls.Load() != 1 {
				t.Fatalf("backend served %d calls (accounted %d), want exactly one skeleton fetch", a.served.Load(), ev.tr.calls.Load())
			}
			if by := ev.drv.AtomsByShape(); by["atom"] != 1 || len(by) != 1 {
				t.Fatalf("atoms = %v, want exactly one single-scope atom", by)
			}
		})
	}
}

// TestDeriveFallbacksSumToWhatIfCalls: every accounted what-if call of a
// derivation session is a skeleton fetch — an alternatives call, for SELECTs
// and DML alike — so on a fault-free run Σ atoms by shape (DeriveFallbacks)
// = WhatIfCalls = the calls the backend served, and it serves no plain call.
// The inputs cover single-scope, join and DML events: the mixed workload at
// P∈{1,4} and the toy PSOFT database with every feature.
func TestDeriveFallbacksSumToWhatIfCalls(t *testing.T) {
	for _, c := range []struct {
		name  string
		setup func(testing.TB) (*whatif.Server, *workload.Workload, Options)
	}{
		{"parallel-workload/P1", func(tb testing.TB) (*whatif.Server, *workload.Workload, Options) {
			return testServer(tb), parallelWorkload(tb), Options{Parallelism: 1}
		}},
		{"parallel-workload/P4", func(tb testing.TB) (*whatif.Server, *workload.Workload, Options) {
			return testServer(tb), parallelWorkload(tb), Options{Parallelism: 4}
		}},
		{"toy-psoft", func(tb testing.TB) (*whatif.Server, *workload.Workload, Options) {
			srv, w, base := toyBackend(tb, "psoft")
			return srv, w, Options{Features: FeatureAll, BaseConfig: base}
		}},
	} {
		srv, w, opts := c.setup(t)
		a := &altCountingTuner{Server: srv}
		rec, err := Tune(a, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		by := rec.DeriveFallbacks
		if by["atom"] == 0 || by["atom-join"] == 0 || len(by) != 2 {
			t.Errorf("%s: want atoms of both shapes and nothing else: %v", c.name, by)
		}
		if sum := by["atom"] + by["atom-join"]; sum != rec.WhatIfCalls || a.served.Load() != rec.WhatIfCalls {
			t.Errorf("%s: Σ atoms = %d, WhatIfCalls = %d, backend served %d (%v)", c.name, sum, rec.WhatIfCalls, a.served.Load(), by)
		}
		if a.plain.Load() != 0 {
			t.Errorf("%s: %d real calls asked for no skeleton; every call must be a skeleton fetch", c.name, a.plain.Load())
		}
	}
}

// flakyAltTuner fails every alternatives call while down is set, can strip
// the skeleton from the ones it serves, and counts the plain calls it serves.
type flakyAltTuner struct {
	*whatif.Server
	down, noSkeleton atomic.Bool
	plain            atomic.Int64
}

func (f *flakyAltTuner) WhatIfCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error) {
	f.plain.Add(1)
	return f.Server.WhatIfCost(stmt, cfg)
}

func (f *flakyAltTuner) WhatIfAlternativesCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
	if f.down.Load() {
		return 0, nil, nil, fmt.Errorf("alternatives endpoint down")
	}
	cost, used, alts, err := f.Server.WhatIfAlternativesCost(stmt, cfg)
	if f.noSkeleton.Load() {
		alts = nil
	}
	return cost, used, alts, err
}

// TestDeriveFallbackProducersThroughEvaluator: derivation has no fallback.
// For a SELECT and a DML event alike, a failed skeleton fetch and a backend
// that returns no skeleton each fail the evaluation, and the session the
// outage hits in its baseline costing; nothing is derived, and no plain
// what-if call reaches the backend. (TestSkeletonFetchFaultRetryBudget
// covers the outage that degrades a session in its search.)
func TestDeriveFallbackProducersThroughEvaluator(t *testing.T) {
	w := workload.MustNew("SELECT id FROM t WHERE x = 42", "UPDATE t SET x = 1 WHERE id = 5")
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("t", "x"))
	srv := testServer(t)
	for name, breakIt := range map[string]func(*flakyAltTuner){
		"fetch-fails": func(f *flakyAltTuner) { f.down.Store(true) },
		"no-skeleton": func(f *flakyAltTuner) { f.noSkeleton.Store(true) },
	} {
		f := &flakyAltTuner{Server: srv}
		breakIt(f)
		ev := newEvaluator(f, w, "", testTracker())
		for i := range w.Events {
			if _, err := ev.eval(i, ev.config(cfg), nil); err == nil {
				t.Fatalf("%s: event %d costed without a skeleton", name, i)
			}
		}
		if ev.drv.Derivations() != 0 || ev.drv.Atoms() != 0 {
			t.Fatalf("%s: derivations %d, atoms %d from a broken fetch", name, ev.drv.Derivations(), ev.drv.Atoms())
		}
		_, err := Tune(f, w, Options{Retry: fault.Policy{BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}})
		if err == nil {
			t.Fatalf("%s: a session whose baseline cannot be costed must fail", name)
		}
		if f.plain.Load() != 0 {
			t.Fatalf("%s: backend served %d plain calls; a failed skeleton fetch must not be re-issued as one", name, f.plain.Load())
		}
	}
}

// TestCoveringReplayExact is the property the engine's settled facts rest
// on, run as Verify mode runs it: at every derived evaluation of a full tune
// — toy SYNT1, TPC-H and PSOFT with every feature, at parallelism 1 and 4 —
// every ready fact of the event that covers the evaluation's key replays the
// derived cost bit for bit (derive.Engine.CheckCovering), so whichever fact
// answers a request, the cost is the same. The check must actually compare
// facts beyond the one that answered, and the recommendation must equal the
// derive-on one.
func TestCoveringReplayExact(t *testing.T) {
	for _, name := range []string{"synt1", "tpch", "psoft"} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P%d", name, par), func(t *testing.T) {
				var prints [2]string
				var cover, bad float64
				var derived int64
				for leg, mode := range []derive.Mode{derive.On, derive.Verify} {
					srv, w, base := toyBackend(t, name)
					reg := obs.NewRegistry()
					rec, err := Tune(srv, w, Options{Features: FeatureAll, BaseConfig: base, Parallelism: par, Derive: mode, Metrics: reg})
					if err != nil {
						t.Fatalf("%s: %v", mode, err)
					}
					prints[leg], derived = planFingerprint(rec), rec.DerivedEvals
					const help = "Verify-mode cross-checks of derived costs against real optimizer calls."
					cover = reg.Counter("dta_derive_verify_total", help, "result", "cover").Value()
					bad = reg.Counter("dta_derive_verify_total", help, "result", "mismatch").Value()
				}
				if bad != 0 {
					t.Fatalf("%v covering-fact or real-call mismatches", bad)
				}
				// Each derived evaluation's own fact covers its key; only
				// more agreeing facts than evaluations show that other
				// covering facts were compared.
				if cover <= float64(derived) {
					t.Fatalf("%v covering facts cross-checked over %d derived evaluations: no fact beyond the answering one was compared", cover, derived)
				}
				if prints[0] != prints[1] {
					t.Fatalf("verify-mode recommendation drifts from derive-on:\n%s\n%s", prints[0], prints[1])
				}
				t.Logf("%v covering facts cross-checked over %d derived evaluations", cover, derived)
			})
		}
	}
}

// TestVerifyRemembersRealCosts: Verify mode calls the real optimizer once per
// (event, key) and statistics epoch. A repeated sweep over the same
// configuration issues no cross-check call; after the epoch bump every key
// is called afresh, because new statistics change the real cost. A
// remembered cost still checks every derived one: a wrong one fails the
// evaluation.
func TestVerifyRemembersRealCosts(t *testing.T) {
	a := &altCountingTuner{Server: testServer(t)}
	w := parallelWorkload(t)
	ev := newEvaluator(a, w, derive.Verify, testTracker())
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("t", "x"))
	c := ev.config(cfg)
	sweep := func() int64 {
		t.Helper()
		before := a.plain.Load()
		for i := range w.Events {
			if _, err := ev.eval(i, c, nil); err != nil {
				t.Fatal(err)
			}
		}
		return a.plain.Load() - before
	}
	first := sweep()
	if first == 0 {
		t.Fatal("no cross-check call issued")
	}
	if again := sweep(); again != 0 {
		t.Fatalf("a repeated sweep issued %d cross-check calls, want 0", again)
	}
	ev.bumpEpoch()
	if fresh := sweep(); fresh != first {
		t.Fatalf("after the epoch bump a sweep issued %d cross-check calls, want %d", fresh, first)
	}
	for k, real := range ev.verified {
		ev.verified[k] = real*2 + 1
	}
	var failed int
	for i := range w.Events {
		if _, err := ev.eval(i, c, nil); err != nil {
			failed++
		}
	}
	if failed != len(ev.verified) {
		t.Fatalf("%d evaluations failed against %d wrong remembered costs", failed, len(ev.verified))
	}
}
