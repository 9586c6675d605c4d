package experiments

import (
	"testing"
)

// The experiment suite runs at Quick scale here; shape assertions are loose
// (the tight comparisons live in EXPERIMENTS.md at Default scale).

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if Table1String() == "" {
		t.Fatal("render failed")
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	rows, err := Table2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.QualityDTA < -0.001 {
			t.Errorf("%s: DTA must never be worse than raw: %.3f", r.Name, r.QualityDTA)
		}
	}
	// CUST1: hand-tuned good, DTA at least comparable.
	if c1 := byName["CUST1"]; c1.QualityDTA < c1.QualityHand-0.05 {
		t.Errorf("CUST1: DTA %.2f should be ≥ hand %.2f", c1.QualityDTA, c1.QualityHand)
	}
	// CUST2: DTA clearly better than the weak hand design.
	if c2 := byName["CUST2"]; c2.QualityDTA <= c2.QualityHand {
		t.Errorf("CUST2: DTA %.2f should beat hand %.2f", c2.QualityDTA, c2.QualityHand)
	}
	// CUST3: hand-tuned hurts (negative), DTA near zero.
	if c3 := byName["CUST3"]; c3.QualityHand >= 0.02 {
		t.Errorf("CUST3: hand-tuned should hurt: %.3f", c3.QualityHand)
	}
	// CUST4: hand = 0 by construction, DTA positive.
	if c4 := byName["CUST4"]; c4.QualityHand != 0 || c4.QualityDTA <= 0.05 {
		t.Errorf("CUST4: hand=%.2f dta=%.2f", c4.QualityHand, c4.QualityDTA)
	}
	t.Log("\n" + Table2String(rows))
}

func TestSec72Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end execution")
	}
	res, err := Sec72(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpectedImprovement < 0.3 {
		t.Errorf("expected improvement too small: %.2f", res.ExpectedImprovement)
	}
	// The actual side is asserted on the engine's work counters, not on
	// wall clock: the tuned configuration must touch ≥ 5% fewer rows and
	// return exactly the same ones.
	if got := res.ScanImprovement(); got < 0.05 {
		t.Errorf("rows-scanned improvement too small: %.3f (%d → %d)", got, res.RawStats.RowsScanned, res.TunedStats.RowsScanned)
	}
	if res.RawStats.RowsReturned != res.TunedStats.RowsReturned {
		t.Errorf("rows returned differ: raw %d, tuned %d", res.RawStats.RowsReturned, res.TunedStats.RowsReturned)
	}
	t.Log("\n" + res.String())
}

func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	rows, err := Figure3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Reduction <= 0 {
			t.Errorf("%s: test server must reduce overhead: %.2f", r.Name, r.Reduction)
		}
	}
	// More complex tuning benefits more: TPCH22-A ≥ TPCHQ1-I.
	if rows[3].Reduction < rows[0].Reduction {
		t.Errorf("TPCH22-A (%.2f) should reduce at least as much as TPCHQ1-I (%.2f)",
			rows[3].Reduction, rows[0].Reduction)
	}
	t.Log("\n" + Figure3String(rows))
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	rows, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// TPCH22: all-distinct queries, no compression possible.
	if r := byName["TPCH22"]; r.EventsTuned != r.Events {
		t.Errorf("TPCH22 should not compress: %d of %d", r.EventsTuned, r.Events)
	}
	// PSOFT and SYNT1 compress hard and speed up.
	for _, name := range []string{"PSOFT", "SYNT1"} {
		r := byName[name]
		if float64(r.EventsTuned) > 0.5*float64(r.Events) {
			t.Errorf("%s should compress: tuned %d of %d", name, r.EventsTuned, r.Events)
		}
		if r.Speedup < 1.2 {
			t.Errorf("%s speedup = %.1fx", name, r.Speedup)
		}
		if r.QualityDecrease > 0.10 {
			t.Errorf("%s quality decrease = %.3f", name, r.QualityDecrease)
		}
	}
	// SYNT1 compresses more than PSOFT (more events per template).
	if byName["SYNT1"].Speedup < byName["PSOFT"].Speedup {
		t.Logf("note: SYNT1 speedup %.1fx < PSOFT %.1fx at quick scale",
			byName["SYNT1"].Speedup, byName["PSOFT"].Speedup)
	}
	t.Log("\n" + Table3String(rows))
}

func TestSec75Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	rows, err := Sec75(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.StatsReduced > r.StatsNaive {
			t.Errorf("%s: reduction increased stats: %d vs %d", r.Name, r.StatsReduced, r.StatsNaive)
		}
		if r.CountReduction <= 0 {
			t.Errorf("%s: no reduction: %+v", r.Name, r)
		}
		// No difference in the quality of DTA's recommendation.
		if d := r.QualityNaive - r.QualityReduced; d > 0.02 || d < -0.02 {
			t.Errorf("%s: quality changed: %.3f vs %.3f", r.Name, r.QualityNaive, r.QualityReduced)
		}
	}
	t.Log("\n" + Sec75String(rows))
}

func TestFigure45Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	rows, err := Figure45(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Figure45Row{}
	for _, r := range rows {
		byName[r.Name] = r
		// Comparable quality.
		if r.QualityITW-r.QualityDTA > 0.08 {
			t.Errorf("%s: DTA quality %.3f far below ITW %.3f", r.Name, r.QualityDTA, r.QualityITW)
		}
	}
	// DTA issues fewer what-if calls on the large templatized workloads.
	for _, name := range []string{"PSOFT", "SYNT1"} {
		r := byName[name]
		if r.CallsDTA >= r.CallsITW {
			t.Errorf("%s: DTA calls %d should be below ITW %d", name, r.CallsDTA, r.CallsITW)
		}
	}
	t.Log("\n" + Figure45String(rows))
}

func TestSec3AndAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	cfg := Quick()
	sec3, err := Sec3IntegratedVsStaged(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sec3.IntegratedQuality < sec3.StagedQuality-0.01 {
		t.Errorf("integrated %.3f must not lose to staged %.3f", sec3.IntegratedQuality, sec3.StagedQuality)
	}
	t.Log("\n" + sec3.String())

	for name, fn := range map[string]func(Config) (*AblationRow, error){
		"colgroup":  AblationColumnGroupRestriction,
		"merging":   AblationMerging,
		"alignment": AblationLazyAlignment,
		"greedy":    AblationGreedySeed,
	} {
		r, err := fn(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Log("\n" + AblationString(r))
	}
}
