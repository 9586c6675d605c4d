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

	"repro/internal/catalog"
	"repro/internal/derive"
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
// oracle, deriving, and verifying, each at parallelism 1 and 4, over two
// inputs: a mixed workload (selective lookups, aggregations, a join, an
// update) and the toy TPC-H database with every feature (joins, views and
// partitioning, so composed join-skeleton replay is exercised). For each
// input every leg must produce the identical recommendation; within a leg
// the what-if call count must not depend on parallelism (on TPC-H only the
// derive-on leg runs at both levels: the oracle and verify legs pay a real
// call per evaluation and dominate the test's run time); derivation must
// actually cut calls; and on TPC-H the fallbacks must be split by query
// shape, with multi-scope ("atom-join") fetches reported as such.
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
			if in.name == "toy-tpch" && fallbacks[id("on", 1)][derive.ReasonAtom+"-join"] == 0 {
				t.Errorf("TPC-H derive=on recorded no join-shaped fallbacks: %v", fallbacks[id("on", 1)])
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
// so both flat replay and composed join-skeleton replay are exercised, and
// the pool includes a grouped multi-table view that substitutes for the
// grouped join.
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
			[]string{"t", "d"},
			[]catalog.JoinPred{{Left: catalog.NewColRef("t", "d_id"), Right: catalog.NewColRef("d", "d_id")}},
			nil,
			[]catalog.ColRef{catalog.NewColRef("d", "grp")},
			[]catalog.Agg{{Func: "COUNT"}},
			20,
		)},
	}

	evOn := newEvaluator(s, w, derive.On)
	evOn.setDerivePool(pool)
	evOff := newEvaluator(realCallTuner{s}, w, derive.On)
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
			cOn, uOn, err := evOn.cost(i, evOn.config(cfg))
			if err != nil {
				t.Fatalf("trial %d event %d (derive on): %v", trial, i, err)
			}
			cOff, uOff, err := evOff.cost(i, evOff.config(cfg))
			if err != nil {
				t.Fatalf("trial %d event %d (real-call oracle): %v", trial, i, err)
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
	if evOn.calls.Load() >= evOff.calls.Load() {
		t.Fatalf("derivation must cut real calls: on=%d oracle=%d", evOn.calls.Load(), evOff.calls.Load())
	}
}

// altCountingTuner counts every what-if optimization the backend actually
// serves, including skeleton calls, to pin session-exact call accounting.
type altCountingTuner struct {
	*whatif.Server
	served atomic.Int64
}

func (a *altCountingTuner) WhatIfCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error) {
	a.served.Add(1)
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
// derive.VerifyTolerance.
func TestDeriveVerifyCatchesBadSkeleton(t *testing.T) {
	c := &corruptAltTuner{Server: testServer(t)}
	w := workload.MustNew(
		"SELECT id FROM t WHERE x = 42",
		"SELECT a, COUNT(*) FROM t WHERE x < 100 GROUP BY a",
	)
	_, err := Tune(c, w, Options{Derive: derive.Verify})
	if err == nil {
		t.Fatal("verify mode must reject a skeleton that disagrees with the optimizer")
	}
	if !strings.Contains(err.Error(), "verify mismatch") {
		t.Fatalf("expected a verify mismatch error, got: %v", err)
	}
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
			// spelled it in a hand-edited pool (cost cache dropped, so the
			// revision has to derive from the pool's skeletons again).
			pool.Knobs.Derive = c.mode
			pool.Cache = nil
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
	oracle := newEvaluator(realCallTuner{srv}, w, "")
	want := make([]float64, len(cfgs))
	for j, cfg := range cfgs {
		c, _, err := oracle.cost(0, oracle.config(cfg))
		if err != nil {
			t.Fatal(err)
		}
		want[j] = c
	}

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			a := &altCountingTuner{Server: srv}
			ev := newEvaluator(a, w, "")
			ev.setDerivePool(pool)
			got := make([]float64, len(cfgs))
			errs := make([]error, len(cfgs))
			var wg sync.WaitGroup
			for j, cfg := range cfgs {
				wg.Add(1)
				go func(j int, cfg *catalog.Configuration) {
					defer wg.Done()
					got[j], _, errs[j] = ev.cost(0, ev.config(cfg))
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
			if a.served.Load() != 1 || ev.calls.Load() != 1 {
				t.Fatalf("backend served %d calls (accounted %d), want exactly one skeleton fetch", a.served.Load(), ev.calls.Load())
			}
			if by := ev.drv.FallbacksByReason(); by[derive.ReasonAtom] != 1 || len(by) != 1 {
				t.Fatalf("fallbacks = %v, want exactly one atom", by)
			}
		})
	}
}

// TestDeriveFallbacksSumToWhatIfCalls: on a fault-free run every accounted
// what-if call has exactly one fallback behind it — a skeleton fetch (atom)
// or a DML evaluation — so the per-reason breakdown sums to WhatIfCalls and
// holds no other key.
func TestDeriveFallbacksSumToWhatIfCalls(t *testing.T) {
	for _, par := range []int{1, 4} {
		rec, err := Tune(testServer(t), parallelWorkload(t), Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for reason, n := range rec.DeriveFallbacks {
			switch reason {
			case derive.ReasonDML, derive.ReasonAtom, derive.ReasonAtom + "-join":
				sum += n
			default:
				t.Errorf("P=%d: unexpected fallback reason %q on a fault-free run: %v", par, reason, rec.DeriveFallbacks)
			}
		}
		if rec.DeriveFallbacks[derive.ReasonDML] == 0 || rec.DeriveFallbacks[derive.ReasonAtom] == 0 || rec.DeriveFallbacks[derive.ReasonAtom+"-join"] == 0 {
			t.Errorf("P=%d: workload must exercise dml, atom and atom-join: %v", par, rec.DeriveFallbacks)
		}
		if sum != rec.WhatIfCalls {
			t.Errorf("P=%d: Σ fallbacks = %d, WhatIfCalls = %d (%v)", par, sum, rec.WhatIfCalls, rec.DeriveFallbacks)
		}
	}
}

// flakyAltTuner fails every alternatives call while down is set, and can
// strip the skeleton from the ones it serves.
type flakyAltTuner struct {
	*whatif.Server
	down, noSkeleton atomic.Bool
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

// TestDeriveFallbackProducersThroughEvaluator shows the evaluator-level
// producers of the two non-routine reasons: a failed skeleton fetch
// (eval-error) and a backend that returns no skeleton (used-escape) both
// leave the evaluation to the caller's ordinary real call, which still
// returns the oracle's cost.
func TestDeriveFallbackProducersThroughEvaluator(t *testing.T) {
	w := workload.MustNew("SELECT id FROM t WHERE x = 42")
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("t", "x"))
	srv := testServer(t)
	oracle := newEvaluator(realCallTuner{srv}, w, "")
	want, _, err := oracle.cost(0, oracle.config(cfg))
	if err != nil {
		t.Fatal(err)
	}

	for reason, breakIt := range map[string]func(*flakyAltTuner){
		derive.ReasonError:  func(f *flakyAltTuner) { f.down.Store(true) },
		derive.ReasonEscape: func(f *flakyAltTuner) { f.noSkeleton.Store(true) },
	} {
		f := &flakyAltTuner{Server: srv}
		breakIt(f)
		ev := newEvaluator(f, w, "")
		got, _, err := ev.cost(0, ev.config(cfg))
		if err != nil || got != want {
			t.Fatalf("%s: cost %v, %v; want the oracle's %v", reason, got, err, want)
		}
		if by := ev.drv.FallbacksByReason(); by[reason] != 1 || by[derive.ReasonAtom] != 1 {
			t.Fatalf("%s: fallbacks = %v", reason, by)
		}
		if ev.drv.Derivations() != 0 {
			t.Fatalf("%s: nothing may be derived from a broken fetch", reason)
		}
	}
}
