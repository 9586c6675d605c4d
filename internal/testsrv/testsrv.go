// Package testsrv implements tuning in the production/test server scenario
// of paper §5.3: the test server imports only metadata (Step 1), tuning's
// what-if optimizations all run on the test server under the production
// server's simulated hardware parameters (Step 2), and the only load imposed
// on production is the creation of statistics the optimizer turns out to
// need, which are imported on demand. The recommendation is then applied to
// production (Step 3).
package testsrv

import (
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/stats"
	"repro/internal/whatif"
)

// Session pairs a production server with a test server and satisfies
// core.Tuner, routing what-if calls to the test server and statistics
// creation to production (followed by import). A Session may be shared by
// concurrent tuning sessions: statistics imports are serialized so the
// production server is sampled once per statistic.
type Session struct {
	Prod *whatif.Server
	Test *whatif.Server

	statsMu sync.Mutex

	// faults, when attached via SetFaults, injects failures into the
	// statistics import path (site "import") — the scenario-specific
	// failure mode this package adds over a single server. Atomic so a
	// late attach never races with in-flight imports.
	faults atomic.Pointer[fault.Injector]
}

// NewSession imports the production server's metadata into a fresh test
// server (charging production the metadata-scripting cost) and returns the
// tuning session.
func NewSession(prod *whatif.Server) *Session {
	return &Session{Prod: prod, Test: whatif.NewTestServer(prod.Name+"-test", prod)}
}

// SetMetrics attaches a registry to both halves of the session: the test
// server's series record the what-if load, the production server's series
// the sampling I/O of statistics creation (the two sides of Figure 3).
func (s *Session) SetMetrics(reg *obs.Registry) {
	s.Test.SetMetrics(reg)
	s.Prod.SetMetrics(reg)
}

// SetFaults attaches a fault injector to the session's import path (site
// "import") and to both servers (sites "whatif" and "stats"), so a single
// spec exercises every backend failure mode of the production/test
// scenario. Pass nil to detach.
func (s *Session) SetFaults(in *fault.Injector) {
	s.faults.Store(in)
	s.Test.SetFaults(in)
	s.Prod.SetFaults(in)
}

// Catalog returns the test server's (imported) catalog.
func (s *Session) Catalog() *catalog.Catalog { return s.Test.Cat }

// WhatIfCost runs the what-if optimization on the test server.
func (s *Session) WhatIfCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error) {
	return s.Test.WhatIfCost(stmt, cfg)
}

// WhatIfAlternativesCost runs the what-if optimization on the test server,
// returning the plan skeleton too (core.AlternativesTuner), so cost
// derivation works identically in the production/test scenario.
func (s *Session) WhatIfAlternativesCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
	return s.Test.WhatIfAlternativesCost(stmt, cfg)
}

// WhatIfCallCount reports test-server what-if calls (production receives
// none in this scenario).
func (s *Session) WhatIfCallCount() int64 { return s.Test.WhatIfCallCount() }

// EnsureStatistics makes the needed statistics available on the test
// server: missing ones are created on the production server (the sampling
// I/O is the production overhead) and imported. Reduction (§5.2) applies
// before anything touches production.
func (s *Session) EnsureStatistics(reqs []stats.Request, reduce bool) (int, error) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	created := 0
	for _, r := range s.Test.Stats.Missing(reqs, reduce) {
		// Imports already performed stay on the test server, so a retried
		// EnsureStatistics call after an injected failure resumes with the
		// remaining statistics — the loop is idempotent.
		if err := s.faults.Load().Inject(fault.SiteImport); err != nil {
			return created, err
		}
		if err := s.Test.ImportStatistic(s.Prod, r.Table, r.Columns); err != nil {
			return created, err
		}
		created++
	}
	return created, nil
}

// ProductionOverhead reports the total simulated duration of statements the
// tuning session submitted to the production server — the quantity Figure 3
// compares against tuning directly on production.
func (s *Session) ProductionOverhead() float64 { return s.Prod.Acct().Overhead }
