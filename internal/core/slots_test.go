package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/derive"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// slotPin is what a slot leg must reproduce exactly: the what-if calls of
// the tune and of its storage-halved revision, and a digest of each
// recommendation (planFingerprint plus the recommended configuration).
type slotPin struct {
	tuneCalls, reviseCalls   int64
	tuneDigest, reviseDigest string
}

// slotPins are each leg's calls and digests when every evaluation goes
// through derive.Engine.Resolve, with no slot: per database, without and
// with a storage budget, unaligned and aligned.
var slotPins = map[string]slotPin{
	"synt1/budget=0/aligned=false":       {520, 0, "1df44640fec937e2", "2ff5176746543ac2"},
	"synt1/budget=0/aligned=true":        {520, 0, "1df44640fec937e2", "2ff5176746543ac2"},
	"synt1/budget=2097152/aligned=false": {520, 0, "61efb442514d29bc", "efb0be6768478cad"},
	"synt1/budget=2097152/aligned=true":  {520, 0, "61efb442514d29bc", "efb0be6768478cad"},
	"tpch/budget=0/aligned=false":        {171, 0, "3452cfdc1d1d6cf8", "79c87a91ed39ed90"},
	"tpch/budget=0/aligned=true":         {171, 0, "3452cfdc1d1d6cf8", "79c87a91ed39ed90"},
	"tpch/budget=5242880/aligned=false":  {171, 0, "c96ea9dab1fdcc2d", "844781a2cc21920a"},
	"tpch/budget=5242880/aligned=true":   {171, 0, "c96ea9dab1fdcc2d", "844781a2cc21920a"},
	"psoft/budget=0/aligned=false":       {1100, 0, "60e689041c9aea77", "c4fae95b9854cc64"},
	"psoft/budget=0/aligned=true":        {1732, 0, "36d9464377071183", "c4fae95b9854cc64"},
	"psoft/budget=81920/aligned=false":   {1064, 20, "c4fae95b9854cc64", "1aaaa7d9c62d6d6b"},
	"psoft/budget=81920/aligned=true":    {1267, 187, "c4fae95b9854cc64", "ddfd795fae25b51c"},
	"cust/budget=0/aligned=false":        {132, 0, "b2a0dfce7e960c7e", "be74eea5da943078"},
	"cust/budget=0/aligned=true":         {180, 0, "c4a971e585bba93e", "fff3c863f28cf024"},
	"cust/budget=409600/aligned=false":   {132, 0, "be74eea5da943078", "08fdebd729bb8a9e"},
	"cust/budget=409600/aligned=true":    {180, 0, "fff3c863f28cf024", "08fdebd729bb8a9e"},
	"drops/budget=0/aligned=false":       {44, 0, "2176e0fd70f512fe", "f72b6d334d6e3484"},
	"drops/budget=0/aligned=true":        {45, 0, "3365c68cea0a6689", "8de05d4be0ba7740"},
	"drops/budget=1572864/aligned=false": {44, 0, "2016875030598ba8", "88e3fea2f37c9a21"},
	"drops/budget=1572864/aligned=true":  {45, 0, "8ac9eb5a8db55a28", "5f7445210ba08932"},
}

// slotBudgets are the storage budgets of the budgeted legs: about half of
// what each toy's unbudgeted tune recommends.
var slotBudgets = map[string]int64{"synt1": 2 << 20, "tpch": 5 << 20, "psoft": 80 << 10, "cust": 400 << 10, "drops": 1536 << 10}

// recDigest digests a recommendation's costs, structures, reports and
// configuration.
func recDigest(rec *Recommendation) string {
	s := planFingerprint(rec)
	for _, st := range rec.Config.Structures() {
		s += "config " + st.Key() + "\n"
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

// slotBackend builds a leg's backend, workload and base configuration: a toy
// database with every feature, or "drops", the revision tests' database
// whose base holds two droppable indexes, with indexes and partitioning.
func slotBackend(t *testing.T, name string) (*whatif.Server, *workload.Workload, *catalog.Configuration, FeatureMask) {
	if name == "drops" {
		return reviseServer(t), reviseWorkload(t), reviseBase(), FeatureIndexes | FeaturePartitioning
	}
	srv, w, base := toyBackend(t, name)
	return srv, w, base, FeatureAll
}

// slotLeg runs one leg: a tune with drops allowed, then a revision of its
// pool at half its storage.
func slotLeg(t *testing.T, name string, budget int64, aligned bool, par int) slotPin {
	t.Helper()
	srv, w, base, features := slotBackend(t, name)
	var pool *CostedPool
	rec, err := Tune(srv, w, Options{Features: features, BaseConfig: base, AllowDrops: true,
		StorageBudget: budget, Aligned: aligned, Parallelism: par,
		PoolSink: func(p *CostedPool) { pool = p }})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Revise(context.Background(), srv, pool, Constraints{StorageBudget: max(rec.StorageBytes/2, 1), Aligned: aligned}, Options{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return slotPin{rec.WhatIfCalls, rev.WhatIfCalls, recDigest(rec), recDigest(rev)}
}

// TestSearchSlotsMatchResolve: an evaluation answered from a slot is one
// derive.Engine.Resolve would answer from the same fact without a fetch,
// with the same cost bit for bit. Over the toy SYNT1, TPC-H, PSOFT and CUST
// databases with every feature, without and with a storage budget,
// unaligned and aligned, at P∈{1,4}, a tune and its storage-halved revision
// re-resolve every slot answer (through the slotAnswered hook, with a fetch
// that fails the test) and compare; the what-if calls and the recommendation
// digests equal the pins of evaluations that all go through Resolve. The
// "drops" database's base holds droppable indexes, so drop analysis asks
// for configurations below a fact's top.
// Slots are dropped at every phase barrier and statistics epoch, and Verify
// mode cross-checks every slot answer.
func TestSearchSlotsMatchResolve(t *testing.T) {
	var answered, wrong, fetched atomic.Int64
	slotAnswered = func(ev *evaluator, i int, c *config, cost float64) {
		answered.Add(1)
		ids := c.key(i, nil)
		want, err := ev.drv.Resolve(i, len(ev.infos[i].q.Scopes) > 1, ids, ev.additive[i], func(*catalog.Configuration) (*optimizer.Alternatives, error) {
			fetched.Add(1)
			return nil, errors.New("a slot answered an evaluation Resolve fetches")
		})
		if err != nil || math.Float64bits(want) != math.Float64bits(cost) {
			wrong.Add(1)
		}
	}
	defer func() { slotAnswered = nil }()
	t.Run("barriers", func(t *testing.T) {
		srv, w, base := toyBackend(t, "tpch")
		ev := newEvaluator(srv, w, "", testTracker())
		c := ev.config(base)
		held := func() (n int) {
			for i := range ev.slots {
				if ev.slots[i].Load() != nil {
					n++
				}
			}
			return n
		}
		for _, barrier := range []struct {
			name string
			drop func()
		}{{"setQueryPools", func() { ev.setQueryPools(nil) }}, {"bumpEpoch", ev.bumpEpoch}} {
			if _, err := ev.costAll(ev.all, c); err != nil {
				t.Fatal(err)
			}
			if held() == 0 {
				t.Fatal("costing the workload kept no slot")
			}
			barrier.drop()
			if n := held(); n != 0 {
				t.Fatalf("%d events keep slots across %s", n, barrier.name)
			}
		}
	})
	t.Run("verify", func(t *testing.T) {
		// Every derived evaluation, slot answers included, is cross-checked
		// against a real call (or its remembered cost): one match each.
		prev := slotAnswered
		defer func() { slotAnswered = prev }()
		slotAnswered = func(*evaluator, int, *config, float64) { answered.Add(1) }
		for _, name := range []string{"tpch", "psoft"} {
			answered.Store(0)
			srv, w, base := toyBackend(t, name)
			reg := obs.NewRegistry()
			rec, err := Tune(srv, w, Options{Features: FeatureAll, BaseConfig: base, Parallelism: 1, Derive: derive.Verify, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			const help = "Verify-mode cross-checks of derived costs against real optimizer calls."
			match := reg.Counter("dta_derive_verify_total", help, "result", "match").Value()
			failed := reg.Counter("dta_derive_verify_total", help, "result", "error").Value()
			if answered.Load() == 0 || match+failed != float64(rec.DerivedEvals) {
				t.Fatalf("%s: %v cross-checks (%v failed) over %d derived evaluations, %d of them slot answers", name, match+failed, failed, rec.DerivedEvals, answered.Load())
			}
		}
	})
	for _, name := range []string{"synt1", "tpch", "psoft", "cust", "drops"} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P%d", name, par), func(t *testing.T) {
				for _, budget := range []int64{0, slotBudgets[name]} {
					for _, aligned := range []bool{false, true} {
						leg := fmt.Sprintf("%s/budget=%d/aligned=%v", name, budget, aligned)
						answered.Store(0)
						got := slotLeg(t, name, budget, aligned, par)
						if n := fetched.Load(); n != 0 {
							t.Fatalf("%s: %d slot answers were evaluations Resolve fetches", leg, n)
						}
						if n := wrong.Load(); n != 0 {
							t.Fatalf("%s: %d slot answers differ from Resolve's", leg, n)
						}
						if answered.Load() == 0 {
							t.Fatalf("%s: no evaluation was answered from a slot", leg)
						}
						t.Logf("%s: %+v, %d slot answers", leg, got, answered.Load())
						if want, ok := slotPins[leg]; !ok || got != want {
							t.Errorf("%s: got %+v, want %+v", leg, got, want)
						}
					}
				}
			})
		}
	}
}
