package experiments

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen/cust"
	"repro/internal/optimizer"
	"repro/internal/whatif"
)

// Table1Row is one row of Table 1 (customer database overview).
type Table1Row struct {
	Name      string
	Databases int
	Tables    int
	SizeGB    float64
}

// Table1 regenerates the customer-database overview (paper Table 1).
// Sizes describe the full-scale scenarios; the tuning experiments run on
// scaled-down instances with identical structure.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, s := range cust.All(1) {
		rows = append(rows, Table1Row{Name: s.Name, Databases: s.Databases, Tables: s.TablesN, SizeGB: s.DataGB})
	}
	return rows
}

// Table1String renders Table 1.
func Table1String() string {
	var rows [][]string
	for _, r := range Table1() {
		rows = append(rows, []string{r.Name, fmt.Sprint(r.Databases), fmt.Sprint(r.Tables), fmt.Sprintf("%.1f", r.SizeGB)})
	}
	return renderTable("Table 1: Overview of customer databases and workloads",
		[]string{"Database", "#DBs", "#Tables", "Total size (GB)"}, rows)
}

// Table2Row is one row of Table 2 (quality of DTA vs hand-tuned design).
type Table2Row struct {
	Name         string
	QualityHand  float64 // (Craw − Ccurrent)/Craw
	QualityDTA   float64 // (Craw − Cdta)/Craw
	Events       float64 // workload events
	TuningTime   time.Duration
	EventsPerMin float64
	NewCount     int
}

// Table2 regenerates the DTA-vs-hand-tuned comparison (paper Table 2,
// methodology of §7.1): for each customer workload, tune with DTA from the
// constraint indexes alone, then cost the whole workload — not the
// compressed one the tune searched — under the DBA's current design
// (Ccurrent), under the constraint indexes alone (Craw) and under DTA's
// recommendation (Cdta), and report percentage reductions relative to Craw.
// All three are costed after the tune, so they share one statistics state:
// costing Craw before the tune would compare estimates made without the
// statistics the tune creates with estimates made with them.
func Table2(cfg Config) ([]Table2Row, error) {
	var rows []Table2Row
	for _, s := range cust.All(cfg.CustScale) {
		data, err := s.Load(cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		srv := whatif.NewServer(s.Name, s.Catalog, optimizer.DefaultHardware())
		srv.AttachData(data)
		w := s.Workload(cfg.CustEvents, cfg.Seed)
		raw := s.ConstraintConfig()

		opts := cfg.tuneOpts(srv, core.FeatureAll)
		opts.BaseConfig = raw
		opts.SkipReports = true
		rec, err := core.Tune(srv, w, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}

		current := raw.Clone()
		current.Merge(s.HandTuned)
		var costs [3]float64
		for i, c := range []*catalog.Configuration{raw, current, rec.Config} {
			if costs[i], err = workloadCost(srv, w, c); err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name, err)
			}
		}
		craw, ccur, cdta := costs[0], costs[1], costs[2]

		row := Table2Row{
			Name:        s.Name,
			QualityHand: quality(craw, ccur),
			QualityDTA:  quality(craw, cdta),
			Events:      w.TotalWeight(),
			TuningTime:  rec.Duration,
			NewCount:    len(rec.NewStructures),
		}
		if rec.Duration > 0 {
			row.EventsPerMin = row.Events / rec.Duration.Minutes()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2String renders Table 2.
func Table2String(rows []Table2Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Name, pct(r.QualityHand), pct(r.QualityDTA),
			fmt.Sprintf("%.0fK", r.Events/1000),
			r.TuningTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.EventsPerMin),
		})
	}
	return renderTable("Table 2: Quality of DTA vs hand-tuned design on customer workloads",
		[]string{"Workload", "Quality hand-tuned", "Quality DTA", "#events", "Tuning time", "events/min"}, out)
}
