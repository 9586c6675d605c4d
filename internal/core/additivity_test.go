package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
)

// maintenanceParts splits a DML plan into its access cost (0 for an INSERT)
// and its per-structure maintenance terms, by structure key.
func maintenanceParts(p *optimizer.Plan) (access float64, terms map[string]float64) {
	terms = map[string]float64{}
	for _, c := range p.Children {
		if c.Op == "IndexMaintenance" || c.Op == "ViewMaintenance" {
			terms[c.Structure] = c.Cost
		} else {
			access = c.Cost
		}
	}
	return access, terms
}

// TestAdditivityOracle is the property DML skeleton replay relies on, checked
// against the real optimizer over seeded random (configuration, added
// additive structure) pairs on the toy SYNT1, TPC-H and PSOFT statements:
//
//   - a SELECT's cost never rises when a non-clustered index or a view is
//     added;
//   - a DML's access part (UPDATE/DELETE) never rises;
//   - its maintenance terms are those of the smaller configuration,
//     bit-identical, plus exactly one new term — the added structure's,
//     with the same value under every configuration — when the structure is
//     maintained (every index or view over the target table for an
//     INSERT/DELETE; for an UPDATE, an index holding a modified column), and
//     none otherwise; the cost minus its access part rises by that term,
//     and is bit-unchanged when nothing is maintained and the access part
//     is;
//   - an INSERT (no access part) therefore always costs strictly more with a
//     maintained structure.
//
// Adding a structure can lower an UPDATE's or a DELETE's cost — the new index
// may also be a cheaper access path — so "a touching DML always costs more"
// holds only for INSERT.
func TestAdditivityOracle(t *testing.T) {
	for _, name := range []string{"synt1", "tpch", "psoft"} {
		t.Run(name, func(t *testing.T) {
			srv, w, base := toyBackend(t, name)
			cat := srv.Catalog()
			o := srv.Optimizer()

			type stmtInfo struct {
				sql  string
				stmt sqlparser.Statement
				q    *optimizer.QueryInfo
			}
			var sels, dmls []stmtInfo
			var additive, shaping []catalog.Structure
			seenSig, seenKey := map[string]bool{}, map[string]bool{}
			for _, e := range w.Events {
				if seenSig[e.Signature()] {
					continue
				}
				seenSig[e.Signature()] = true
				q, err := optimizer.Analyze(cat, e.Stmt)
				if err != nil {
					continue
				}
				if q.Kind == optimizer.KindSelect {
					sels = append(sels, stmtInfo{e.SQL, e.Stmt, q})
				} else {
					dmls = append(dmls, stmtInfo{e.SQL, e.Stmt, q})
				}
				for _, s := range GenerateCandidates(cat, q, Options{Features: FeatureAll}) {
					if seenKey[s.Key()] {
						continue
					}
					seenKey[s.Key()] = true
					if s.View != nil || (s.Index != nil && !s.Index.Clustered) {
						additive = append(additive, s)
					} else {
						shaping = append(shaping, s)
					}
				}
			}
			onTable := func(s catalog.Structure, table string) bool {
				if s.Index != nil {
					return s.Index.Table == table
				}
				return s.View.References(table)
			}

			rnd := rand.New(rand.NewSource(20261016 + int64(len(name))))
			termOf := map[string]float64{} // (statement, structure) → its term
			var nSel, nDML, nMaint int
			for trial := 0; trial < 800; trial++ {
				var si stmtInfo
				if len(dmls) > 0 && trial%2 == 1 {
					si = dmls[rnd.Intn(len(dmls))]
				} else {
					si = sels[rnd.Intn(len(sels))]
				}
				target := si.q.Scopes[0].Table.Name
				cfg := base.Clone()
				if len(shaping) > 0 && rnd.Intn(2) == 0 {
					shaping[rnd.Intn(len(shaping))].ApplyTo(cfg)
				}
				for _, s := range additive {
					if rnd.Intn(6) == 0 {
						s.ApplyTo(cfg)
					}
				}
				// Half the additions land on the statement's own table.
				var x catalog.Structure
				for tries := 0; tries < 20; tries++ {
					x = additive[rnd.Intn(len(additive))]
					if rnd.Intn(2) == 0 || onTable(x, target) {
						break
					}
				}
				grown := cfg.Clone()
				if !x.ApplyTo(grown) {
					continue
				}
				before, err := o.Optimize(si.stmt, cfg)
				if err != nil {
					t.Fatal(err)
				}
				after, err := o.Optimize(si.stmt, grown)
				if err != nil {
					t.Fatal(err)
				}
				sql := si.sql
				if si.q.Kind == optimizer.KindSelect {
					nSel++
					if after.Cost > before.Cost {
						t.Fatalf("%q: adding %s raised a SELECT's cost %v → %v", sql, x.Key(), before.Cost, after.Cost)
					}
					continue
				}
				nDML++
				accB, termsB := maintenanceParts(before.Plan)
				accA, termsA := maintenanceParts(after.Plan)
				if accA > accB {
					t.Fatalf("%q: adding %s raised the access part %v → %v", sql, x.Key(), accB, accA)
				}
				for k, c := range termsB {
					if math.Float64bits(termsA[k]) != math.Float64bits(c) {
						t.Fatalf("%q: adding %s changed the term of %s: %v → %v", sql, x.Key(), k, c, termsA[k])
					}
				}
				term, maintained := termsA[x.Key()]
				wantTerms := len(termsB)
				if maintained {
					wantTerms++
				}
				if len(termsA) != wantTerms {
					t.Fatalf("%q: adding %s: terms %v → %v", sql, x.Key(), termsB, termsA)
				}
				// Whether a view is maintained by an UPDATE depends on every
				// column it reads; the oracle checks indexes and the other kinds.
				wantMaint := onTable(x, target)
				if si.q.Kind == optimizer.KindUpdate && x.Index != nil && wantMaint {
					wantMaint = slices.ContainsFunc(x.Index.AllColumns(), func(col string) bool {
						return slices.Contains(si.q.SetColumns, col)
					})
				}
				if (si.q.Kind != optimizer.KindUpdate || x.Index != nil) && maintained != wantMaint {
					t.Fatalf("%q: %s maintained = %v, want %v", sql, x.Key(), maintained, wantMaint)
				}
				restB, restA := before.Cost-accB, after.Cost-accA
				if !maintained {
					if math.Float64bits(accA) == math.Float64bits(accB) && math.Float64bits(after.Cost) != math.Float64bits(before.Cost) {
						t.Fatalf("%q: adding unmaintained %s moved the cost %v → %v", sql, x.Key(), before.Cost, after.Cost)
					}
					continue
				}
				nMaint++
				if !(term > 0) || math.Abs(restA-(restB+term)) > 1e-12*math.Max(restA, 1) {
					t.Fatalf("%q: adding %s: cost minus access %v → %v, want a rise by its term %v", sql, x.Key(), restB, restA, term)
				}
				id := sql + "|" + x.Key()
				if prev, ok := termOf[id]; ok && math.Float64bits(prev) != math.Float64bits(term) {
					t.Fatalf("%q: the term of %s depends on the configuration: %v vs %v", sql, x.Key(), prev, term)
				}
				termOf[id] = term
				if si.q.Kind == optimizer.KindInsert && !(after.Cost > before.Cost) {
					t.Fatalf("%q: maintaining %s did not raise an INSERT's cost: %v → %v", sql, x.Key(), before.Cost, after.Cost)
				}
			}
			t.Logf("%d SELECT and %d DML pairs, %d with a maintained addition", nSel, nDML, nMaint)
			if nSel < 100 || (len(dmls) > 0 && nMaint < 50) {
				t.Fatalf("too few informative pairs: %d SELECT, %d DML, %d maintained", nSel, nDML, nMaint)
			}
		})
	}
}
