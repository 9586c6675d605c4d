package experiments

import (
	"encoding/json"
	"os"
)

// BenchRecord is one machine-readable benchmark result: one case of an
// experiment, with its computed — machine-independent — outcome (quality
// expressed as an improvement percentage over the baseline the experiment
// defines). dtabench -json collects these for CI artifacts and regression
// tracking; timing belongs to the repository benchmark (bench/).
type BenchRecord struct {
	Experiment     string  `json:"experiment"`
	Case           string  `json:"case,omitempty"`
	WhatIfCalls    int64   `json:"whatIfCalls,omitempty"`
	ImprovementPct float64 `json:"improvementPct,omitempty"`
	// Events is the raw trace size of an ingest-sweep case.
	Events int64 `json:"events,omitempty"`
	// Ratio is the workload compression ratio (raw events per kept
	// representative) an ingest-sweep case achieved — or, for derive-sweep
	// cases, the what-if call reduction factor over the real-call run.
	Ratio float64 `json:"ratio,omitempty"`
	// DerivedEvals is the number of cost evaluations the derivation layer
	// answered without an optimizer call (derive-sweep and parallel-sweep
	// cases).
	DerivedEvals int64 `json:"derivedEvals,omitempty"`
}

// WriteBenchJSON writes the records as an indented JSON array.
func WriteBenchJSON(path string, records []BenchRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SummarizeTable2 flattens the customer-workload comparison (§7.1).
func SummarizeTable2(rows []Table2Row) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out, BenchRecord{
			Experiment:     "table2",
			Case:           r.Name,
			ImprovementPct: 100 * r.QualityDTA,
		})
	}
	return out
}

// SummarizeSec72 reports the expected-vs-actual improvement run (§7.2).
func SummarizeSec72(r *Sec72Result) []BenchRecord {
	return []BenchRecord{
		{Experiment: "sec72", Case: "expected", ImprovementPct: 100 * r.ExpectedImprovement},
		{Experiment: "sec72", Case: "actual", ImprovementPct: 100 * r.ActualImprovement},
	}
}

// SummarizeFigure3 reports the production-overhead reduction of tuning
// through a test server (§7.3) as the improvement percentage.
func SummarizeFigure3(rows []Figure3Row) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out, BenchRecord{
			Experiment:     "figure3",
			Case:           r.Name,
			WhatIfCalls:    r.ProdWhatIfDirect,
			ImprovementPct: 100 * r.Reduction,
		})
	}
	return out
}

// SummarizeTable3 reports workload compression (§7.4): the compressed run's
// quality and time per case.
func SummarizeTable3(rows []Table3Row) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out, BenchRecord{
			Experiment:     "table3",
			Case:           r.Name,
			ImprovementPct: 100 * r.QualityCompress,
		})
	}
	return out
}

// SummarizeSec75 reports reduced statistics (§7.5): quality with the
// technique on, per case.
func SummarizeSec75(rows []Sec75Row) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out, BenchRecord{
			Experiment:     "sec75",
			Case:           r.Name,
			ImprovementPct: 100 * r.QualityReduced,
		})
	}
	return out
}

// SummarizeFigure45 reports the DTA side of the DTA-vs-ITW comparison
// (§7.6).
func SummarizeFigure45(rows []Figure45Row) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out, BenchRecord{
			Experiment:     "figure45",
			Case:           r.Name,
			WhatIfCalls:    r.CallsDTA,
			ImprovementPct: 100 * r.QualityDTA,
		})
	}
	return out
}

// SummarizeSec3 reports the integrated-vs-staged comparison (§3).
func SummarizeSec3(r *Sec3Result) []BenchRecord {
	return []BenchRecord{
		{Experiment: "sec3", Case: "integrated", ImprovementPct: 100 * r.IntegratedQuality},
		{Experiment: "sec3", Case: "staged", ImprovementPct: 100 * r.StagedQuality},
	}
}

// SummarizeAblation reports one ablation's technique-on run.
func SummarizeAblation(r *AblationRow) []BenchRecord {
	return []BenchRecord{{
		Experiment:     "ablations",
		Case:           r.Name,
		WhatIfCalls:    r.CallsOn,
		ImprovementPct: 100 * r.QualityOn,
	}}
}
