// Package experiments implements the evaluation of paper §7: one function
// per table and figure, each regenerating the corresponding rows/series.
// Absolute numbers differ from the paper's (the substrate is this
// repository's simulator, not the authors' testbed); the shapes — who wins,
// by roughly what factor, where the crossovers fall — are the reproduction
// target. EXPERIMENTS.md records paper-vs-measured for each entry.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen/psoft"
	"repro/internal/datagen/setquery"
	"repro/internal/datagen/tpch"
	"repro/internal/derive"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Config scales the experiments. The defaults run the full suite in a few
// minutes on a laptop; Quick shrinks everything for tests.
type Config struct {
	TPCHSF      float64 // scale factor for tuning experiments (§7.3–7.6)
	TPCHExecSF  float64 // scale factor for actual-execution runs (§7.2)
	PSOFTScale  float64 // data scale for the PSOFT schema
	PSOFTEvents int     // trace length (paper: ~6000)
	SYNT1Rows   int64   // BENCH rows
	SYNT1Events int     // paper: 8000
	SYNT1Templ  int     // paper: ~100
	CustScale   float64 // data scale for CUST1–4
	CustEvents  int     // trace length per customer (paper: 9K–252K)
	StorageX    float64 // storage budget as a multiple of raw data (paper: 3x)
	WarmRuns    int     // §7.2 warm runs per query (paper: 5)
	Seed        int64
	// Derive is the cost-derivation mode every tuning run uses ("" = on, or
	// "verify", per core.Options.Derive). dtabench -derive sets it.
	Derive string
}

// Default returns the standard experiment configuration.
func Default() Config {
	return Config{
		TPCHSF:      0.01,
		TPCHExecSF:  0.02,
		PSOFTScale:  0.02,
		PSOFTEvents: 6000,
		SYNT1Rows:   100000,
		SYNT1Events: 8000,
		SYNT1Templ:  100,
		CustScale:   0.01,
		CustEvents:  4000,
		StorageX:    3,
		WarmRuns:    5,
		Seed:        1,
	}
}

// Quick returns a configuration small enough for unit tests.
func Quick() Config {
	return Config{
		TPCHSF:      0.002,
		TPCHExecSF:  0.005,
		PSOFTScale:  0.005,
		PSOFTEvents: 600,
		SYNT1Rows:   20000,
		SYNT1Events: 600,
		SYNT1Templ:  40,
		CustScale:   0.003,
		CustEvents:  600,
		StorageX:    3,
		WarmRuns:    3,
		Seed:        1,
	}
}

// newTPCHServer builds a production server with TPC-H data loaded.
func newTPCHServer(sf float64, seed int64) (*whatif.Server, *engine.Database, error) {
	cat := tpch.Catalog(sf)
	db, err := tpch.Load(cat, seed)
	if err != nil {
		return nil, nil, err
	}
	s := whatif.NewServer("tpch", cat, optimizer.DefaultHardware())
	s.AttachData(db)
	return s, db, nil
}

// newPSOFTServer builds a production server with PSOFT data loaded.
func newPSOFTServer(scale float64, seed int64) (*whatif.Server, error) {
	cat := psoft.Catalog(scale)
	db, err := psoft.Load(cat, seed)
	if err != nil {
		return nil, err
	}
	s := whatif.NewServer("psoft", cat, optimizer.DefaultHardware())
	s.AttachData(db)
	return s, nil
}

// newSYNT1Server builds a production server with SYNT1 data loaded.
func newSYNT1Server(rows int64, seed int64) (*whatif.Server, error) {
	cat := setquery.Catalog(rows)
	db, err := setquery.Load(cat, seed)
	if err != nil {
		return nil, err
	}
	s := whatif.NewServer("synt1", cat, optimizer.DefaultHardware())
	s.AttachData(db)
	return s, nil
}

// workloadCost sums the optimizer-estimated cost of the workload under cfg.
func workloadCost(s *whatif.Server, w *workload.Workload, cfg *catalog.Configuration) (float64, error) {
	var total float64
	for _, e := range w.Events {
		c, err := s.Cost(e.Stmt, cfg)
		if err != nil {
			return 0, err
		}
		total += e.Weight * c
	}
	return total, nil
}

// quality is the paper's metric: the percentage reduction of the workload
// cost relative to the raw configuration, (Craw − C)/Craw.
func quality(craw, c float64) float64 {
	if craw <= 0 {
		return 0
	}
	return (craw - c) / craw
}

// tuneOpts builds the standard tuning options: storage budget = StorageX ×
// raw data size.
func (c Config) tuneOpts(s *whatif.Server, features core.FeatureMask) core.Options {
	return core.Options{
		Features:      features,
		StorageBudget: int64(c.StorageX * float64(s.Cat.Bytes())),
		Derive:        derive.Mode(c.Derive),
	}
}

// renderTable renders rows as a fixed-width text table.
func renderTable(title string, headers []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func pct(f float64) string { return fmt.Sprintf("%.0f%%", 100*f) }

func pct1(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
