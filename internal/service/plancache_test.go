package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen/tpch"
	"repro/internal/optimizer"
	"repro/internal/service"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// TestSharedPlanCacheMatchesPrivateServers: concurrent sessions over
// overlapping TPC-H variants on one server — answering one another's
// what-if questions from its plan cache — produce recommendations and
// sealed pools byte-identical to the same sessions on cold private servers,
// and each is charged exactly the what-if calls it would have been charged
// alone.
func TestSharedPlanCacheMatchesPrivateServers(t *testing.T) {
	cat := tpch.Catalog(0.002)
	db, err := tpch.Load(cat, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := tpch.ConstraintConfig(cat)
	queries := tpch.Queries()
	const sessions = 4
	variant := func(k int) *workload.Workload {
		var sqls []string
		for i := 0; i < 10; i++ {
			sqls = append(sqls, queries[(4*k+i)%len(queries)])
		}
		return workload.MustNew(sqls...)
	}

	// Statistics first: one session over every query creates all the
	// statistics the variants ask for, so every server below tunes under
	// the same statistics.
	shared := whatif.NewServer("tpch", cat, optimizer.DefaultHardware())
	shared.AttachData(db)
	if _, err := core.Tune(shared, workload.MustNew(queries...), core.Options{BaseConfig: base, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}

	m := service.NewManager(sessions)
	if err := m.Register(&service.Backend{Name: "shared", Tuner: shared, BaseConfig: base}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < sessions; k++ {
		private := whatif.NewServer("tpch", cat, optimizer.DefaultHardware())
		for _, st := range shared.Stats.All() {
			private.Stats.Add(st)
		}
		private.AttachData(db)
		if err := m.Register(&service.Backend{Name: fmt.Sprintf("private-%d", k), Tuner: private, BaseConfig: base}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// run starts one session per variant on the named backends at once and
	// returns each one's normalized recommendation and pool fingerprint.
	run := func(backend func(k int) string) (recs, pools []string) {
		t.Helper()
		var started []*service.Session
		for k := 0; k < sessions; k++ {
			s, err := m.Create(service.Request{Backend: backend(k), Workload: variant(k)})
			if err != nil {
				t.Fatal(err)
			}
			started = append(started, s)
		}
		for _, s := range started {
			if err := s.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			rec, err := s.Result()
			if err != nil || s.State() != service.StateDone {
				t.Fatalf("session %s: state %s, error %v", s.ID(), s.State(), err)
			}
			if rec.StatsCreated != 0 {
				t.Fatalf("session %s created %d statistics: the comparison needs every server under the same statistics", s.ID(), rec.StatsCreated)
			}
			c := *rec
			c.Duration = 0
			b, err := json.Marshal(&c)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, string(b))
			pools = append(pools, s.Pool().Fingerprint)
		}
		return recs, pools
	}

	before := shared.Acct()
	sharedRecs, sharedPools := run(func(int) string { return "shared" })
	after := shared.Acct()
	privateRecs, privatePools := run(func(k int) string { return fmt.Sprintf("private-%d", k) })
	for k := 0; k < sessions; k++ {
		if sharedRecs[k] != privateRecs[k] {
			t.Errorf("variant %d: recommendation on the shared server\n%s\ndiffers from a private server's\n%s", k, sharedRecs[k], privateRecs[k])
		}
		if sharedPools[k] != privatePools[k] {
			t.Errorf("variant %d: pool fingerprint %s on the shared server, %s on a private one", k, sharedPools[k], privatePools[k])
		}
	}
	if after.PlanCacheHits == before.PlanCacheHits {
		t.Fatal("the shared server's plan cache answered no call: the test exercised nothing")
	}
	t.Logf("shared server: %d what-if calls, %d answered from the plan cache", after.WhatIfCalls-before.WhatIfCalls, after.PlanCacheHits-before.PlanCacheHits)
}
