package xmlio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

func sampleConfig() *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	ix := catalog.NewIndex("orders", "o_custkey", "o_orderdate").WithInclude("o_totalprice")
	cfg.AddIndex(ix)
	cix := catalog.NewIndex("lineitem", "l_shipdate")
	cix.Clustered = true
	cix.Partitioning = catalog.NewPartitionScheme("l_shipdate", 100, 200, 300)
	cfg.AddIndex(cix)
	cfg.SetTablePartitioning("lineitem", catalog.NewPartitionScheme("l_shipdate", 100, 200, 300))
	cfg.AddView(catalog.NewMaterializedView(
		[]string{"orders", "lineitem"},
		[]catalog.JoinPred{{Left: catalog.NewColRef("orders", "o_orderkey"), Right: catalog.NewColRef("lineitem", "l_orderkey")}},
		[]catalog.ColRef{catalog.NewColRef("lineitem", "l_shipdate")},
		[]catalog.ColRef{catalog.NewColRef("orders", "o_orderpriority")},
		[]catalog.Agg{{Func: "COUNT"}, {Func: "SUM", Col: catalog.NewColRef("lineitem", "l_quantity")}},
		1234,
	))
	return cfg
}

func TestConfigurationRoundTrip(t *testing.T) {
	cfg := sampleConfig()
	x := FromConfiguration(cfg)
	back := ToConfiguration(x)
	if back.Key() != cfg.Key() {
		t.Fatalf("round trip changed the configuration:\n in: %s\nout: %s", cfg.Key(), back.Key())
	}
}

// sampleInput is a session input document with every Input element set.
func sampleInput() *DTAXML {
	return &DTAXML{
		Input: &Input{
			Server:    "prod",
			Databases: []string{"tpch"},
			Workload: &Workload{Statements: []Statement{
				{Weight: 5, SQL: "SELECT a FROM t WHERE x = 1"},
				{SQL: "UPDATE t SET a = 2 WHERE id = 3"},
			}},
			Options: &TuningOptions{
				FeatureSet:          "IDX_MV",
				StorageBudgetMB:     512,
				AlignedPartitioning: true,
				TimeLimitMinutes:    30,
			},
			Configuration: FromConfiguration(sampleConfig()),
		},
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	doc := sampleInput()
	var buf bytes.Buffer
	if err := Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), Namespace) {
		t.Fatal("namespace missing")
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Input == nil || back.Input.Server != "prod" {
		t.Fatalf("input lost: %+v", back.Input)
	}
	if len(back.Input.Workload.Statements) != 2 || back.Input.Workload.Statements[0].Weight != 5 {
		t.Fatalf("workload lost: %+v", back.Input.Workload)
	}
	if !back.Input.Options.AlignedPartitioning || back.Input.Options.StorageBudgetMB != 512 {
		t.Fatalf("options lost: %+v", back.Input.Options)
	}
	cfg := ToConfiguration(back.Input.Configuration)
	if cfg.Key() != sampleConfig().Key() {
		t.Fatal("embedded configuration lost")
	}
}

// TestDecodeInput: the input's options, evaluate-only flag, user
// configuration and workload all reach the advisor's inputs; a document
// without an Input element, or with an unknown feature set, is refused.
func TestDecodeInput(t *testing.T) {
	in := sampleInput().Input
	in.EvaluateOnly = true
	opts, w, err := DecodeInput(in)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Features != core.FeatureIndexes|core.FeatureViews || opts.StorageBudget != 512<<20 ||
		!opts.Aligned || !opts.EvaluateOnly {
		t.Fatalf("options = %+v", opts)
	}
	if opts.UserConfig == nil || opts.UserConfig.Key() != sampleConfig().Key() {
		t.Fatal("user configuration lost")
	}
	if w == nil || w.Len() != 2 {
		t.Fatalf("workload = %v, want 2 events", w)
	}
	in.Workload = nil
	if _, w, err := DecodeInput(in); err != nil || w != nil {
		t.Fatalf("input without a workload: w=%v err=%v, want neither", w, err)
	}
	if _, _, err := DecodeInput(nil); err == nil || !strings.Contains(err.Error(), "no Input element") {
		t.Fatalf("nil input: %v", err)
	}
	in.Options.FeatureSet = "BOGUS"
	if _, _, err := DecodeInput(in); err == nil {
		t.Fatal("bogus feature set must fail")
	}
}

func TestOptionsConversion(t *testing.T) {
	o, err := OptionsFromXML(&TuningOptions{FeatureSet: "IDX", StorageBudgetMB: 2, TimeLimitMinutes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.Features != core.FeatureIndexes || o.StorageBudget != 2<<20 {
		t.Fatalf("options = %+v", o)
	}
	if _, err := OptionsFromXML(&TuningOptions{FeatureSet: "BOGUS"}); err == nil {
		t.Fatal("bogus feature set must fail")
	}
	if o2, err := OptionsFromXML(nil); err != nil || o2.Features != 0 {
		t.Fatal("nil options should be zero values")
	}
	for _, m := range []core.FeatureMask{core.FeatureAll, core.FeatureIndexes, core.FeatureViews,
		core.FeaturePartitioning, core.FeatureIndexes | core.FeatureViews, core.FeatureIndexes | core.FeaturePartitioning} {
		s := FeatureMaskToString(m)
		back, err := FeatureMaskFromString(s)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if back != m && !(m == 0 && back == core.FeatureAll) {
			t.Fatalf("feature mask round trip: %v → %q → %v", m, s, back)
		}
	}
}

func TestFromRecommendation(t *testing.T) {
	rec := &core.Recommendation{
		Config:      sampleConfig(),
		BaseCost:    100,
		Cost:        40,
		Improvement: 0.6,
		Reports: []core.QueryReport{
			{SQL: "SELECT a FROM t", Weight: 1, CostBefore: 10, CostAfter: 4, UsedStructures: []string{"ix:t(a)"}},
		},
		NewStructures: sampleConfig().Structures(),
	}
	x := FromRecommendation(rec)
	if x.ImprovementPct != 60 {
		t.Fatalf("improvement = %g", x.ImprovementPct)
	}
	if len(x.DDL) != len(rec.NewStructures) {
		t.Fatalf("DDL entries = %d", len(x.DDL))
	}
	if len(x.Reports) != 1 || x.Reports[0].CostAfter != 4 {
		t.Fatalf("reports = %+v", x.Reports)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, &DTAXML{Output: &Output{Recommendation: x}}); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ToConfiguration(back.Output.Recommendation.Configuration)
	if cfg.Key() != sampleConfig().Key() {
		t.Fatal("recommendation configuration lost in round trip")
	}
}

// TestConfigurationEncodingIsByteStable pins the output order of table
// partitionings, which live in a Go map: a configuration with several
// partitioned tables must encode to the same bytes every time.
func TestConfigurationEncodingIsByteStable(t *testing.T) {
	cfg := sampleConfig()
	for _, table := range []string{"orders", "customer", "part", "supplier"} {
		cfg.SetTablePartitioning(table, catalog.NewPartitionScheme("k", 10, 20))
	}
	encode := func() string {
		var buf bytes.Buffer
		if err := Encode(&buf, &DTAXML{Input: &Input{Configuration: FromConfiguration(cfg)}}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := encode()
	for i := 0; i < 50; i++ {
		if got := encode(); got != want {
			t.Fatalf("encoding %d differs:\n%s\nvs\n%s", i, got, want)
		}
	}
}
