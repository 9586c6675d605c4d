package whatif

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
)

// planCacheSize bounds the plan cache. A cache that reaches it is cleared
// rather than evicted from, so a server never holds more skeletons than
// this however many sessions it serves.
const planCacheSize = 4096

// planCache is the server's what-if plan cache: the answers of alternatives
// calls — cost, used structures and plan skeleton — keyed by the question,
// the statement's text and the configuration's identity, and scoped to the
// optimizer-input version the answers were computed under. The tuning
// sessions sharing a server ask it the same questions over and over (every
// session over an overlapping workload re-fetches the same skeletons, §5.3's
// load), and the optimizer is a pure function of the question, the
// statistics and the catalog, so one optimization answers them all.
//
// Every entry was computed under the cache's version: a lookup that sees a
// newer version drops the whole cache, and a leader publishes only if the
// version did not move while it optimized. Lookups are single-flight:
// concurrent identical calls wait for one leader, and a waiter whose leader
// failed, panicked or could not publish asks again — as the leader when no
// other is in flight — so one session's fault never fails another's call.
type planCache struct {
	mu      sync.Mutex
	version uint64
	plans   map[string]*plan

	hits atomic.Int64
}

// plan is one plan-cache slot: ready closes when the leader is done, and
// ok — written before, read after the close — reports whether cost, used
// and alts are the published answer.
type plan struct {
	ready   chan struct{}
	version uint64
	ok      bool
	cost    float64
	used    []string
	alts    *optimizer.Alternatives
}

// planKey is the question an alternatives call asks: the statement's text
// and the configuration's identity.
func planKey(stmt sqlparser.Statement, cfg *catalog.Configuration) string {
	text := sqlparser.Text(stmt)
	b := make([]byte, 0, len(text)+512)
	b = append(append(b, text...), 0)
	return string(cfg.AppendIdentity(b))
}

// plan answers one alternatives call from the plan cache, optimizing the
// statement when no other call has answered the question under the current
// optimizer input.
func (s *Server) plan(stmt sqlparser.Statement, cfg *catalog.Configuration) (*plan, error) {
	key := planKey(stmt, cfg)
	for {
		p, leader := s.claim(key)
		if leader {
			return s.lead(key, p, stmt, cfg)
		}
		<-p.ready
		if p.ok {
			s.plans.hits.Add(1)
			if m := s.metrics.Load(); m != nil {
				m.planHit.Inc()
			}
			return p, nil
		}
	}
}

// claim returns the key's slot, and whether the caller is its leader (the
// slot is new and the caller must fill it). The version is read under the
// cache lock, so the versions claims see never go backwards.
func (s *Server) claim(key string) (*plan, bool) {
	c := &s.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := s.inputVersion(); v != c.version || c.plans == nil {
		c.version, c.plans = v, map[string]*plan{}
	}
	if p, ok := c.plans[key]; ok {
		return p, false
	}
	if len(c.plans) >= planCacheSize {
		c.plans = map[string]*plan{}
	}
	p := &plan{ready: make(chan struct{}), version: c.version}
	c.plans[key] = p
	return p, true
}

// lead optimizes the statement for the slot and settles it: published when
// the optimization succeeded under an unchanged input version, removed
// otherwise — on error and on panic alike, so its waiters ask again. The
// leader's own caller gets the optimization's answer either way.
func (s *Server) lead(key string, p *plan, stmt sqlparser.Statement, cfg *catalog.Configuration) (*plan, error) {
	if m := s.metrics.Load(); m != nil {
		m.planMiss.Inc()
	}
	done := false
	defer func() {
		c := &s.plans
		c.mu.Lock()
		p.ok = done && s.inputVersion() == p.version
		if !p.ok && c.plans[key] == p {
			delete(c.plans, key)
		}
		c.mu.Unlock()
		close(p.ready)
	}()
	res, alts, err := s.opt.OptimizeAlternatives(stmt, cfg)
	if err != nil {
		return nil, err
	}
	p.cost, p.used, p.alts = res.Cost, slices.Clip(res.UsedStructures), alts
	done = true
	return p, nil
}
