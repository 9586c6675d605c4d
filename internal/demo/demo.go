// Package demo builds the built-in demonstration servers the command-line
// tools tune: the TPC-H and PSoft-style benchmark databases and the SetQuery
// synthetic of the paper's §7 evaluation, each with data loaded and its
// built-in workload. Both cmd/dta (one-shot sessions) and cmd/dtaserver
// (the tuning service) register their tunable databases through this
// package, so a database behaves identically whichever front end drives it.
package demo

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/datagen/psoft"
	"repro/internal/datagen/setquery"
	"repro/internal/datagen/tpch"
	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Build creates one of the demonstration servers with data loaded and
// returns it with the database's built-in workload.
func Build(name string, sf float64) (*whatif.Server, *workload.Workload, error) {
	switch name {
	case "tpch":
		cat := tpch.Catalog(sf)
		db, err := tpch.Load(cat, 1)
		if err != nil {
			return nil, nil, err
		}
		s := whatif.NewServer("tpch", cat, optimizer.DefaultHardware())
		s.AttachData(db)
		return s, tpch.Workload(), nil
	case "psoft":
		cat := psoft.Catalog(sf)
		db, err := psoft.Load(cat, 1)
		if err != nil {
			return nil, nil, err
		}
		s := whatif.NewServer("psoft", cat, optimizer.DefaultHardware())
		s.AttachData(db)
		return s, psoft.Workload(cat, 2000, 1), nil
	case "synt1":
		rows := int64(sf * 1000000)
		if rows < 1000 {
			rows = 1000
		}
		cat := setquery.Catalog(rows)
		db, err := setquery.Load(cat, 1)
		if err != nil {
			return nil, nil, err
		}
		s := whatif.NewServer("synt1", cat, optimizer.DefaultHardware())
		s.AttachData(db)
		return s, setquery.Workload(cat, 2000, 100, 1), nil
	default:
		return nil, nil, fmt.Errorf("unknown database %q (want tpch, psoft, or synt1)", name)
	}
}

// ConstraintConfig returns the database's constraint-enforcing base
// configuration: the structures that exist before tuning and are never
// dropped (primary-key clustered indexes).
func ConstraintConfig(name string, cat *catalog.Catalog) *catalog.Configuration {
	if name == "tpch" {
		return tpch.ConstraintConfig(cat)
	}
	cfg := catalog.NewConfiguration()
	for _, t := range cat.Tables() {
		if len(t.PrimaryKey) > 0 {
			ix := catalog.NewIndex(t.Name, t.PrimaryKey...)
			ix.Clustered = true
			ix.FromConstraint = true
			cfg.AddIndex(ix)
		}
	}
	return cfg
}
