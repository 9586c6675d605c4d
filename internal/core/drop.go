package core

import (
	"repro/internal/catalog"
	"repro/internal/journal"
)

// greedyDrop removes existing structures whose maintenance cost outweighs
// their benefit for the workload: repeatedly drop the structure whose
// removal lowers the workload cost most, until nothing improves. Constraint
// structures — and any structure whose key is pinned by the session's
// Constraints — are never considered. Returns the reduced configuration and
// the drops in order.
//
// Each round's removal frontier is enumerated in a fixed order — indexes,
// views, then table partitionings by sorted table name (a map iteration
// would make drop order, and with it the whole session, nondeterministic) —
// costed in parallel, each removal incrementally from the current
// configuration's per-event costs, and reduced sequentially in that order.
func greedyDrop(ev *evaluator, base *catalog.Configuration, pinned map[string]bool) (*catalog.Configuration, []catalog.Structure, error) {
	cur, err := ev.costAll(ev.all, ev.config(base.Clone()))
	if err != nil {
		return nil, nil, err
	}
	var dropped []catalog.Structure
	for {
		type removal struct {
			c    *config
			cost float64
			ov   []override
			err  error
			s    catalog.Structure
		}
		curCfg := cur.c.catalog()
		var frontier []*removal
		for i, ix := range curCfg.Indexes {
			if ix.FromConstraint || pinned[ix.Key()] {
				continue
			}
			cfg := curCfg.Clone()
			cfg.Indexes = append(cfg.Indexes[:i:i], cfg.Indexes[i+1:]...)
			frontier = append(frontier, &removal{c: ev.config(cfg), s: catalog.Structure{Index: ix}})
		}
		for i, v := range curCfg.Views {
			if pinned[v.Key()] {
				continue
			}
			cfg := curCfg.Clone()
			cfg.Views = append(cfg.Views[:i:i], cfg.Views[i+1:]...)
			frontier = append(frontier, &removal{c: ev.config(cfg), s: catalog.Structure{View: v}})
		}
		for _, table := range curCfg.PartitionedTables() {
			s := catalog.Structure{PartTable: table, Part: curCfg.TableParts[table]}
			if pinned[s.Key()] {
				continue
			}
			cfg := curCfg.Clone()
			cfg.SetTablePartitioning(table, nil)
			frontier = append(frontier, &removal{c: ev.config(cfg), s: s})
		}

		ev.pool().each(len(frontier), func(i int) {
			r := frontier[i]
			r.cost, r.ov, r.err = ev.child(ev.all, cur, r.c)
		})
		var best *removal
		for _, r := range frontier {
			if r.err != nil {
				return nil, nil, r.err
			}
			if best == nil || r.cost < best.cost {
				best = r
			}
		}
		if best != nil && ev.tr.journaling() {
			// One event per round: the cheapest removal and whether it was
			// actually taken (the final round's best is a rejection).
			e := journal.Ev(journal.KindDrop)
			e.Structure = best.s.Key()
			e.Accepted = best.cost < cur.total
			e.CostBefore, e.CostAfter = cur.total, best.cost
			ev.tr.record(e)
		}
		if best == nil || best.cost >= cur.total {
			return curCfg, dropped, nil
		}
		cur = cur.with(best.c, best.cost, best.ov)
		dropped = append(dropped, best.s)
	}
}
