// Package whatif provides the what-if analysis interfaces of [9] that the
// tuning advisor is built on: given a statement and a hypothetical
// configuration, obtain the optimizer-estimated cost as if the configuration
// were materialized — without materializing anything.
//
// A Server bundles the catalog, statistics, hardware model, and (on a
// production server) the actual data. Every what-if optimizer call and every
// statistics creation is charged to the server that performs it, which is
// what makes the production/test experiment (§5.3, Figure 3) measurable.
//
// A Server is safe for concurrent use by multiple tuning sessions and by
// the pool workers of a parallel session: the accounting counters are
// atomic, statistics creation is single-flight per statistic (concurrent
// requests for the same statistic coalesce onto one build; distinct
// statistics build concurrently), the plan cache is single-flight per
// question, and the optimizer itself carries no per-call mutable state.
package whatif

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/stats"
)

// WhatIfCallCost is the simulated overhead (in sequential-page units) one
// what-if optimization imposes on the server that runs it. Optimizing a
// query is CPU over metadata — roughly the work of reading a hundred pages —
// and tuning issues thousands of such calls, which is why offloading them to
// a test server pays off (§5.3).
const WhatIfCallCost = 100.0

// MetadataImportCost is the (small) overhead of scripting out metadata —
// a catalog-only operation independent of data size (§5.3 Step 1).
const MetadataImportCost = 50.0

// Accounting is a consistent snapshot of the load tuning imposed on a
// server, obtained from Server.Acct.
type Accounting struct {
	WhatIfCalls  int64
	StatsCreated int64
	// PlanCacheHits counts the alternatives calls the plan cache answered
	// with another call's optimization. Each is also one of WhatIfCalls: a
	// hit is charged like any call.
	PlanCacheHits int64
	// Overhead is the total simulated duration of statements submitted to
	// this server, in sequential-page units.
	Overhead float64
}

// Server is one database server.
type Server struct {
	Name  string
	Cat   *catalog.Catalog
	Stats *stats.Store
	HW    optimizer.Hardware
	// Data is the actual stored data; nil on a test server, which holds
	// only metadata and imported statistics.
	Data *engine.Database

	// Accounting counters; atomic so concurrent tuning sessions sharing
	// this server never lose an increment.
	whatIfCalls  atomic.Int64
	statsCreated atomic.Int64
	overheadBits atomic.Uint64 // float64 bits of the Overhead counter

	// statsMu guards inflight, the single-flight table for statistics
	// creation: per statistic key, the first caller builds (outside the
	// lock, so distinct statistics build concurrently) while later callers
	// wait on the flight's done channel. Each statistic is built and
	// charged exactly once however many sessions or pool workers race
	// for it.
	statsMu  sync.Mutex
	inflight map[string]*statFlight

	// metrics, when attached via SetMetrics, receives the server's what-if
	// call latency and statistics-creation observations. Atomic so a late
	// SetMetrics never races with in-flight calls.
	metrics atomic.Pointer[serverMetrics]

	// faults, when attached via SetFaults, injects failures into every
	// what-if call (site "whatif") and statistics build (site "stats") —
	// the chaos-testing hook the robustness layer is exercised with.
	// Atomic for the same late-attach reason as metrics.
	faults atomic.Pointer[fault.Injector]

	// plans is the plan cache behind WhatIfAlternativesCost; attaches
	// counts AttachData calls, the one rewrite of catalog row counts, and
	// is half of the optimizer-input version that scopes the cache.
	plans    planCache
	attaches atomic.Uint64

	opt *optimizer.Optimizer
}

// serverMetrics caches the registry series the hot path observes into, so a
// what-if call costs two histogram observations and no registry lookups.
type serverMetrics struct {
	latency      *obs.Histogram
	structsIdx   *obs.Histogram
	structsView  *obs.Histogram
	structsPart  *obs.Histogram
	statsCreated *obs.Counter
	statsPages   *obs.Counter
	planHit      *obs.Counter
	planMiss     *obs.Counter
}

// SetMetrics attaches a metrics registry: every subsequent what-if call
// feeds a latency histogram and per-structure-kind configuration-size
// histograms, and statistics creation feeds counters. All series carry a
// server label, so several servers (production + test) can share one
// registry. Every what-if call is observed exactly once — a plan-cache hit,
// a miss, and a call failed or delayed by the fault injector alike, timed
// from before the injection — so the latency histogram's _count equals
// WhatIfCallCount, the paper's tuning-cost metric, which is what lets a
// scrape cross-check the advisor's exact accounting.
func (s *Server) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		s.metrics.Store(nil)
		return
	}
	m := &serverMetrics{
		latency: reg.Histogram("dta_whatif_call_duration_seconds",
			"Latency of what-if optimizer calls.", obs.LatencyBuckets, "server", s.Name),
		structsIdx: reg.Histogram("dta_whatif_config_structures",
			"Structures per what-if configuration, by kind.", obs.CountBuckets, "server", s.Name, "kind", "index"),
		structsView: reg.Histogram("dta_whatif_config_structures",
			"Structures per what-if configuration, by kind.", obs.CountBuckets, "server", s.Name, "kind", "view"),
		structsPart: reg.Histogram("dta_whatif_config_structures",
			"Structures per what-if configuration, by kind.", obs.CountBuckets, "server", s.Name, "kind", "partitioning"),
		statsCreated: reg.Counter("dta_stats_created_total",
			"Statistics built from data samples.", "server", s.Name),
		statsPages: reg.Counter("dta_stats_sampled_pages_total",
			"Pages sampled building statistics.", "server", s.Name),
		planHit: reg.Counter("dta_whatif_plan_cache_total",
			"Alternatives calls by plan-cache outcome.", "server", s.Name, "outcome", "hit"),
		planMiss: reg.Counter("dta_whatif_plan_cache_total",
			"Alternatives calls by plan-cache outcome.", "server", s.Name, "outcome", "miss"),
	}
	s.metrics.Store(m)
}

// SetFaults attaches (or, with nil, detaches) a fault injector consulted on
// every what-if call and statistics build. The injected error, latency, or
// panic surfaces exactly where a real backend failure would, so the
// advisor's retry/breaker path is exercised end to end.
func (s *Server) SetFaults(in *fault.Injector) { s.faults.Store(in) }

// injectFault fires the server's injector at site (no-op when detached).
func (s *Server) injectFault(site string) error {
	return s.faults.Load().Inject(site)
}

// NewServer creates a server over the catalog with empty statistics.
func NewServer(name string, cat *catalog.Catalog, hw optimizer.Hardware) *Server {
	s := &Server{Name: name, Cat: cat, Stats: stats.NewStore(), HW: hw}
	s.opt = optimizer.New(cat, s.Stats, hw)
	return s
}

// AttachData associates actual data (making this a production server) and
// syncs catalog row counts — which changes the optimizer's input, so the
// plan cache starts afresh.
func (s *Server) AttachData(db *engine.Database) {
	s.Data = db
	db.SyncRowCounts()
	s.attaches.Add(1)
}

// inputVersion is the optimizer-input version that scopes the plan cache:
// the statistics store's Add count plus the AttachData count. Both only
// grow, so the sum changes whenever either does.
func (s *Server) inputVersion() uint64 { return s.Stats.Version() + s.attaches.Load() }

// Optimizer returns the server's optimizer (for direct plan inspection).
func (s *Server) Optimizer() *optimizer.Optimizer { return s.opt }

// Acct returns a snapshot of the server's accounting counters.
func (s *Server) Acct() Accounting {
	return Accounting{
		WhatIfCalls:   s.whatIfCalls.Load(),
		StatsCreated:  s.statsCreated.Load(),
		PlanCacheHits: s.plans.hits.Load(),
		Overhead:      math.Float64frombits(s.overheadBits.Load()),
	}
}

// addOverhead atomically adds simulated load to the server.
func (s *Server) addOverhead(d float64) {
	for {
		old := s.overheadBits.Load()
		if s.overheadBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// WhatIf optimizes the statement as if cfg were materialized, charging the
// call to this server.
func (s *Server) WhatIf(stmt sqlparser.Statement, cfg *catalog.Configuration) (*optimizer.Result, error) {
	var res *optimizer.Result
	err := s.call(cfg, func() (err error) {
		res, err = s.opt.Optimize(stmt, cfg)
		return err
	})
	return res, err
}

// call is the one what-if call: it charges the call to this server,
// consults the fault injector, and runs answer, observing latency (from
// before the injection) and configuration size when metrics are attached —
// whether answer runs, fails or panics, and whether the injector fails the
// call first. A failed call is still charged: a real backend does the
// accounting before the optimizer can fail, and retries must show up in the
// server's load figures.
func (s *Server) call(cfg *catalog.Configuration, answer func() error) error {
	s.whatIfCalls.Add(1)
	s.addOverhead(WhatIfCallCost)
	defer s.observe(time.Now(), cfg)
	if err := s.injectFault(fault.SiteWhatIf); err != nil {
		return err
	}
	return answer()
}

// observe records one what-if call's latency and configuration size.
func (s *Server) observe(start time.Time, cfg *catalog.Configuration) {
	m := s.metrics.Load()
	if m == nil {
		return
	}
	m.latency.Observe(time.Since(start).Seconds())
	if cfg != nil {
		m.structsIdx.Observe(float64(len(cfg.Indexes)))
		m.structsView.Observe(float64(len(cfg.Views)))
		m.structsPart.Observe(float64(len(cfg.TableParts)))
	}
}

// Cost is WhatIf returning only the estimated cost.
func (s *Server) Cost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, error) {
	res, err := s.WhatIf(stmt, cfg)
	if err != nil {
		return 0, err
	}
	return res.Cost, nil
}

// statFlight is one in-flight statistics build: done closes once st/err are
// final, and every caller that found the flight in the inflight table reads
// the result instead of building a duplicate.
type statFlight struct {
	done chan struct{}
	st   *stats.Statistic
	err  error
}

// CreateStatistic builds one statistic from the server's own data (sampling
// I/O charged to this server). It fails on a server without data — a test
// server must import statistics instead (§5.3).
func (s *Server) CreateStatistic(table string, cols []string) (*stats.Statistic, error) {
	st, _, err := s.createStatistic(table, cols)
	return st, err
}

// createStatistic is the single-flight core of CreateStatistic: built
// reports whether THIS call performed the build (false for an existing
// statistic and for a wait coalesced onto another caller's build), which is
// what keeps EnsureStatistics' created count exact under concurrency.
func (s *Server) createStatistic(table string, cols []string) (*stats.Statistic, bool, error) {
	key := stats.StatKey(table, cols)
	s.statsMu.Lock()
	if s.Stats.Has(table, cols) {
		st := s.Stats.Lookup(table, cols)
		s.statsMu.Unlock()
		return st, false, nil
	}
	if fl, ok := s.inflight[key]; ok {
		s.statsMu.Unlock()
		<-fl.done
		return fl.st, false, fl.err
	}
	fl := &statFlight{done: make(chan struct{})}
	if s.inflight == nil {
		s.inflight = map[string]*statFlight{}
	}
	s.inflight[key] = fl
	s.statsMu.Unlock()

	fl.st, fl.err = s.buildStatistic(table, cols)
	s.statsMu.Lock()
	delete(s.inflight, key)
	s.statsMu.Unlock()
	close(fl.done)
	return fl.st, fl.err == nil, fl.err
}

// buildStatistic samples, builds, stores, and charges one statistic. Called
// only by a flight leader, outside the statsMu lock.
func (s *Server) buildStatistic(table string, cols []string) (*stats.Statistic, error) {
	if s.Data == nil {
		return nil, fmt.Errorf("whatif: server %q holds no data; import statistics from the production server", s.Name)
	}
	if err := s.injectFault(fault.SiteStats); err != nil {
		return nil, err
	}
	st, err := stats.Build(s.Cat, table, cols, engine.NewSampler(s.Data), stats.BuildOptions{})
	if err != nil {
		return nil, err
	}
	s.Stats.Add(st)
	s.statsCreated.Add(1)
	s.addOverhead(float64(st.SampledPages))
	if m := s.metrics.Load(); m != nil {
		m.statsCreated.Inc()
		m.statsPages.Add(float64(st.SampledPages))
	}
	return st, nil
}

// EnsureStatistics creates the missing statistics among reqs on this server.
// With reduce set, the redundant ones are eliminated first (§5.2) — the
// H-List/D-List greedy cover — so fewer create-statistics statements run.
// It returns the number of statistics actually created.
func (s *Server) EnsureStatistics(reqs []stats.Request, reduce bool) (int, error) {
	created := 0
	for _, r := range s.Stats.Missing(reqs, reduce) {
		_, built, err := s.createStatistic(r.Table, r.Columns)
		if err != nil {
			return created, err
		}
		// Count only builds this call performed: when a concurrent session
		// built (or is building) the same statistic, it is charged there,
		// so per-session created counts stay exact and sum to the server's
		// statsCreated counter.
		if built {
			created++
		}
	}
	return created, nil
}

// ImportStatistic copies one statistic from another server (creating it
// there if necessary — that sampling cost lands on the source server, the
// only tuning overhead a test-server session imposes on production).
func (s *Server) ImportStatistic(from *Server, table string, cols []string) error {
	st := from.Stats.Lookup(table, cols)
	if st == nil {
		var err error
		st, err = from.CreateStatistic(table, cols)
		if err != nil {
			return err
		}
	}
	s.Stats.Add(st)
	return nil
}

// NewTestServer creates a test server from a production server per §5.3
// Step 1: metadata is imported (no data), statistics start empty, and the
// production server's hardware parameters are simulated so the optimizer
// produces the same plans it would produce on production.
func NewTestServer(name string, prod *Server) *Server {
	prod.addOverhead(MetadataImportCost)
	t := NewServer(name, prod.Cat.Clone(), prod.HW)
	return t
}

// Catalog returns the server's catalog (core.Tuner interface).
func (s *Server) Catalog() *catalog.Catalog { return s.Cat }

// WhatIfCost returns the estimated cost of stmt under cfg together with the
// structures the chosen plan uses (core.Tuner interface).
func (s *Server) WhatIfCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error) {
	res, err := s.WhatIf(stmt, cfg)
	if err != nil {
		return 0, nil, err
	}
	return res.Cost, res.UsedStructures, nil
}

// WhatIfAlternativesCost is WhatIfCost returning, in addition, the plan
// skeleton of the optimized statement (flat components for single-scope
// SELECTs, composed join skeletons for multi-scope ones, maintenance sums
// for INSERT/UPDATE/DELETE). It is charged exactly like a single
// what-if call — same counter, same overhead, same fault site — because it
// performs one optimization and the skeleton falls out of work the optimizer
// already did. The answer comes from the server's plan cache when any
// session asked the same question under the same optimizer input before
// (see plan); it is shared, so the caller must not modify the used slice
// or the skeleton.
func (s *Server) WhatIfAlternativesCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
	var p *plan
	err := s.call(cfg, func() (err error) {
		p, err = s.plan(stmt, cfg)
		return err
	})
	if err != nil {
		return 0, nil, nil, err
	}
	return p.cost, p.used, p.alts, nil
}

// WhatIfCallCount reports the number of what-if calls issued so far
// (core.Tuner interface).
func (s *Server) WhatIfCallCount() int64 { return s.whatIfCalls.Load() }
