// Package xmlio defines the public XML schema for physical database design
// that forms the basis of the advisor's input and output (paper §6.1).
// A public schema makes the tool scriptable, lets other tools program
// against it, and lets users feed one run's output configuration — possibly
// modified — into a subsequent run (iterative tuning, §6.3).
package xmlio

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/workload"
)

// Namespace is the schema namespace identifier.
const Namespace = "urn:repro:dta:2005:xml"

// DTAXML is the document root: an Input (what to tune) and, after tuning,
// an Output (the recommendation).
type DTAXML struct {
	XMLName xml.Name `xml:"DTAXML"`
	Xmlns   string   `xml:"xmlns,attr,omitempty"`
	Input   *Input   `xml:"Input,omitempty"`
	Output  *Output  `xml:"Output,omitempty"`
}

// Input describes one tuning request.
type Input struct {
	Server        string         `xml:"Server,omitempty"`
	Databases     []string       `xml:"Database,omitempty"`
	Workload      *Workload      `xml:"Workload,omitempty"`
	Options       *TuningOptions `xml:"TuningOptions,omitempty"`
	Configuration *Configuration `xml:"Configuration,omitempty"` // user-specified (§6.2)
	EvaluateOnly  bool           `xml:"EvaluateOnly,omitempty"`
}

// Workload is a list of weighted statements.
type Workload struct {
	Statements []Statement `xml:"Statement"`
}

// Statement is one workload event.
type Statement struct {
	Weight   float64 `xml:"Weight,attr,omitempty"`
	Duration float64 `xml:"Duration,attr,omitempty"`
	SQL      string  `xml:",chardata"`
}

// TuningOptions mirror core.Options.
type TuningOptions struct {
	FeatureSet          string `xml:"FeatureSet,omitempty"` // IDX, IDX_MV, IDX_PARTITIONING, ALL
	StorageBudgetMB     int64  `xml:"StorageBudgetMB,omitempty"`
	AlignedPartitioning bool   `xml:"AlignedPartitioning,omitempty"`
	TimeLimitMinutes    int    `xml:"TimeLimitMinutes,omitempty"`
	DisableCompression  bool   `xml:"DisableCompression,omitempty"`
	GreedySeedSize      int    `xml:"GreedySeedSize,omitempty"`
	MaxStructures       int    `xml:"MaxStructures,omitempty"`
	AllowDrops          bool   `xml:"AllowDropExistingStructures,omitempty"`
}

// Configuration is the XML form of a physical design.
type Configuration struct {
	Indexes       []Index             `xml:"Index,omitempty"`
	Views         []MaterializedView  `xml:"MaterializedView,omitempty"`
	Partitionings []TablePartitioning `xml:"TablePartitioning,omitempty"`
}

// Index is the XML form of one index.
type Index struct {
	Table        string           `xml:"Table,attr"`
	Clustered    bool             `xml:"Clustered,attr,omitempty"`
	KeyColumns   []string         `xml:"KeyColumn"`
	IncludeCols  []string         `xml:"IncludeColumn,omitempty"`
	Partitioning *PartitionScheme `xml:"Partition,omitempty"`
}

// PartitionScheme is the XML form of single-column range partitioning.
type PartitionScheme struct {
	Column     string    `xml:"Column,attr"`
	Boundaries []float64 `xml:"Boundary"`
}

// TablePartitioning partitions a table's heap/clustered data.
type TablePartitioning struct {
	Table string `xml:"Table,attr"`
	PartitionScheme
}

// MaterializedView is the XML form of one view.
type MaterializedView struct {
	Tables        []string         `xml:"Table"`
	Joins         []Join           `xml:"Join,omitempty"`
	OutputColumns []Column         `xml:"OutputColumn,omitempty"`
	GroupBy       []Column         `xml:"GroupByColumn,omitempty"`
	Aggregates    []Aggregate      `xml:"Aggregate,omitempty"`
	EstimatedRows int64            `xml:"EstimatedRows,attr,omitempty"`
	Partitioning  *PartitionScheme `xml:"Partition,omitempty"`
}

// Join is one equality join predicate.
type Join struct {
	LeftTable   string `xml:"LeftTable,attr"`
	LeftColumn  string `xml:"LeftColumn,attr"`
	RightTable  string `xml:"RightTable,attr"`
	RightColumn string `xml:"RightColumn,attr"`
}

// Column is a table-qualified column.
type Column struct {
	Table  string `xml:"Table,attr"`
	Column string `xml:"Column,attr"`
}

// Aggregate is one view aggregate.
type Aggregate struct {
	Func   string `xml:"Func,attr"`
	Table  string `xml:"Table,attr,omitempty"`
	Column string `xml:"Column,attr,omitempty"`
}

// Output carries the recommendation and analysis reports.
type Output struct {
	Recommendation *RecommendationXML `xml:"Recommendation,omitempty"`
}

// RecommendationXML is the XML form of a core.Recommendation.
type RecommendationXML struct {
	BaseCost        float64        `xml:"BaseCost,attr"`
	RecommendedCost float64        `xml:"RecommendedCost,attr"`
	ImprovementPct  float64        `xml:"ImprovementPct,attr"`
	StorageMB       float64        `xml:"StorageMB,attr"`
	EventsTuned     int            `xml:"EventsTuned,attr"`
	WhatIfCalls     int64          `xml:"WhatIfCalls,attr"`
	DurationMS      int64          `xml:"DurationMS,attr"`
	Configuration   *Configuration `xml:"Configuration"`
	Reports         []QueryReport  `xml:"Report>Query,omitempty"`
	Usage           []UsageXML     `xml:"UsageReport>Structure,omitempty"`
	DDL             []string       `xml:"DDL>Statement,omitempty"`
}

// UsageXML is the XML form of one structure-usage row (§6.3).
type UsageXML struct {
	Queries      int     `xml:"Queries,attr"`
	WeightedUses float64 `xml:"WeightedUses,attr"`
	CostSharePct float64 `xml:"CostSharePct,attr"`
	Key          string  `xml:",chardata"`
}

// QueryReport is the XML form of one per-query analysis row (§6.3).
type QueryReport struct {
	Weight     float64  `xml:"Weight,attr"`
	CostBefore float64  `xml:"CostBefore,attr"`
	CostAfter  float64  `xml:"CostAfter,attr"`
	SQL        string   `xml:"SQL"`
	Structures []string `xml:"UsedStructure,omitempty"`
}

// Encode writes the document with the standard XML header.
func Encode(w io.Writer, doc *DTAXML) error {
	if doc.Xmlns == "" {
		doc.Xmlns = Namespace
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("xmlio: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// Decode parses a document.
func Decode(r io.Reader) (*DTAXML, error) {
	var doc DTAXML
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("xmlio: %w", err)
	}
	return &doc, nil
}

// FromConfiguration converts a catalog configuration to its XML form.
func FromConfiguration(cfg *catalog.Configuration) *Configuration {
	if cfg == nil {
		return nil
	}
	out := &Configuration{}
	for _, ix := range cfg.Indexes {
		out.Indexes = append(out.Indexes, Index{
			Table:        ix.Table,
			Clustered:    ix.Clustered,
			KeyColumns:   append([]string(nil), ix.KeyColumns...),
			IncludeCols:  append([]string(nil), ix.IncludeCols...),
			Partitioning: fromScheme(ix.Partitioning),
		})
	}
	for _, v := range cfg.Views {
		mv := MaterializedView{
			Tables:        append([]string(nil), v.Tables...),
			EstimatedRows: v.Rows,
			Partitioning:  fromScheme(v.Partitioning),
		}
		for _, j := range v.JoinPreds {
			mv.Joins = append(mv.Joins, Join{
				LeftTable: j.Left.Table, LeftColumn: j.Left.Column,
				RightTable: j.Right.Table, RightColumn: j.Right.Column,
			})
		}
		for _, c := range v.OutputColumns {
			mv.OutputColumns = append(mv.OutputColumns, Column{Table: c.Table, Column: c.Column})
		}
		for _, c := range v.GroupBy {
			mv.GroupBy = append(mv.GroupBy, Column{Table: c.Table, Column: c.Column})
		}
		for _, a := range v.Aggs {
			mv.Aggregates = append(mv.Aggregates, Aggregate{Func: a.Func, Table: a.Col.Table, Column: a.Col.Column})
		}
		out.Views = append(out.Views, mv)
	}
	for table, p := range cfg.TableParts {
		out.Partitionings = append(out.Partitionings, TablePartitioning{
			Table:           table,
			PartitionScheme: *fromScheme(p),
		})
	}
	// TableParts is a map: sort so the document is byte-stable across runs.
	sort.Slice(out.Partitionings, func(i, j int) bool {
		return out.Partitionings[i].Table < out.Partitionings[j].Table
	})
	return out
}

// ToConfiguration converts the XML form back to a catalog configuration.
func ToConfiguration(x *Configuration) *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	if x == nil {
		return cfg
	}
	for _, xi := range x.Indexes {
		ix := catalog.NewIndex(xi.Table, xi.KeyColumns...)
		ix.Clustered = xi.Clustered
		if len(xi.IncludeCols) > 0 {
			ix = ix.WithInclude(xi.IncludeCols...)
		}
		ix.Partitioning = toScheme(xi.Partitioning)
		cfg.AddIndex(ix)
	}
	for _, xv := range x.Views {
		var joins []catalog.JoinPred
		for _, j := range xv.Joins {
			joins = append(joins, catalog.JoinPred{
				Left:  catalog.NewColRef(j.LeftTable, j.LeftColumn),
				Right: catalog.NewColRef(j.RightTable, j.RightColumn),
			})
		}
		var outs, groups []catalog.ColRef
		for _, c := range xv.OutputColumns {
			outs = append(outs, catalog.NewColRef(c.Table, c.Column))
		}
		for _, c := range xv.GroupBy {
			groups = append(groups, catalog.NewColRef(c.Table, c.Column))
		}
		var aggs []catalog.Agg
		for _, a := range xv.Aggregates {
			ag := catalog.Agg{Func: strings.ToUpper(a.Func)}
			if a.Column != "" {
				ag.Col = catalog.ColRef{Table: strings.ToLower(a.Table), Column: strings.ToLower(a.Column)}
			}
			aggs = append(aggs, ag)
		}
		v := catalog.NewMaterializedView(xv.Tables, joins, outs, groups, aggs, xv.EstimatedRows)
		v.Partitioning = toScheme(xv.Partitioning)
		cfg.AddView(v)
	}
	for _, tp := range x.Partitionings {
		cfg.SetTablePartitioning(tp.Table, catalog.NewPartitionScheme(tp.Column, tp.Boundaries...))
	}
	return cfg
}

func fromScheme(p *catalog.PartitionScheme) *PartitionScheme {
	if p == nil {
		return nil
	}
	return &PartitionScheme{Column: p.Column, Boundaries: append([]float64(nil), p.Boundaries...)}
}

func toScheme(p *PartitionScheme) *catalog.PartitionScheme {
	if p == nil {
		return nil
	}
	return catalog.NewPartitionScheme(p.Column, p.Boundaries...)
}

// FromRecommendation converts a core recommendation to its XML output form,
// including DDL-like statements for readability.
func FromRecommendation(rec *core.Recommendation) *RecommendationXML {
	out := &RecommendationXML{
		BaseCost:        rec.BaseCost,
		RecommendedCost: rec.Cost,
		ImprovementPct:  100 * rec.Improvement,
		StorageMB:       float64(rec.StorageBytes) / (1 << 20),
		EventsTuned:     rec.EventsTuned,
		WhatIfCalls:     rec.WhatIfCalls,
		DurationMS:      rec.Duration.Milliseconds(),
		Configuration:   FromConfiguration(rec.Config),
	}
	for _, r := range rec.Reports {
		out.Reports = append(out.Reports, QueryReport{
			Weight: r.Weight, CostBefore: r.CostBefore, CostAfter: r.CostAfter,
			SQL: r.SQL, Structures: r.UsedStructures,
		})
	}
	for _, u := range rec.Usage {
		out.Usage = append(out.Usage, UsageXML{
			Queries: u.Queries, WeightedUses: u.WeightedUses,
			CostSharePct: 100 * u.CostShare, Key: u.Structure,
		})
	}
	for _, s := range rec.NewStructures {
		out.DDL = append(out.DDL, "CREATE "+s.String())
	}
	for _, s := range rec.DroppedStructures {
		out.DDL = append(out.DDL, "DROP "+s.String())
	}
	return out
}

// ToWorkload converts the XML workload element to a core workload — the one
// decode path shared by the command-line tool and the tuning service's HTTP
// endpoint, so an XML session file works identically over both.
func ToWorkload(x *Workload) (*workload.Workload, error) {
	if x == nil || len(x.Statements) == 0 {
		return nil, fmt.Errorf("xmlio: input has no workload statements")
	}
	stmts := make([]workload.Statement, 0, len(x.Statements))
	for _, st := range x.Statements {
		stmts = append(stmts, workload.Statement{SQL: strings.TrimSpace(st.SQL), Weight: st.Weight})
	}
	return workload.FromStatements(stmts)
}

// FeatureMaskFromString parses the FeatureSet field.
func FeatureMaskFromString(s string) (core.FeatureMask, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "", "ALL", "IDX_MV_PARTITIONING":
		return core.FeatureAll, nil
	case "IDX":
		return core.FeatureIndexes, nil
	case "MV":
		return core.FeatureViews, nil
	case "PARTITIONING":
		return core.FeaturePartitioning, nil
	case "IDX_MV":
		return core.FeatureIndexes | core.FeatureViews, nil
	case "IDX_PARTITIONING":
		return core.FeatureIndexes | core.FeaturePartitioning, nil
	default:
		return 0, fmt.Errorf("xmlio: unknown feature set %q", s)
	}
}

// FeatureMaskToString renders a feature mask for the XML form.
func FeatureMaskToString(m core.FeatureMask) string {
	switch m {
	case core.FeatureAll, 0:
		return "ALL"
	case core.FeatureIndexes:
		return "IDX"
	case core.FeatureViews:
		return "MV"
	case core.FeaturePartitioning:
		return "PARTITIONING"
	case core.FeatureIndexes | core.FeatureViews:
		return "IDX_MV"
	case core.FeatureIndexes | core.FeaturePartitioning:
		return "IDX_PARTITIONING"
	default:
		return "ALL"
	}
}

// DecodeInput converts a session's Input element into what the advisor
// runs: the options, carrying the evaluate-only flag and the user-specified
// configuration, and the workload (nil when the input names none, so the
// caller's default applies). The one conversion shared by the command-line
// tool's -input and the tuning service's XML create body.
func DecodeInput(in *Input) (core.Options, *workload.Workload, error) {
	if in == nil {
		return core.Options{}, nil, fmt.Errorf("xmlio: DTAXML document has no Input element")
	}
	opts, err := OptionsFromXML(in.Options)
	if err != nil {
		return core.Options{}, nil, err
	}
	opts.EvaluateOnly = in.EvaluateOnly
	if in.Configuration != nil {
		opts.UserConfig = ToConfiguration(in.Configuration)
	}
	var w *workload.Workload
	if in.Workload != nil {
		if w, err = ToWorkload(in.Workload); err != nil {
			return core.Options{}, nil, err
		}
	}
	return opts, w, nil
}

// OptionsFromXML converts TuningOptions to core.Options.
func OptionsFromXML(x *TuningOptions) (core.Options, error) {
	var o core.Options
	if x == nil {
		return o, nil
	}
	m, err := FeatureMaskFromString(x.FeatureSet)
	if err != nil {
		return o, err
	}
	o.Features = m
	o.StorageBudget = x.StorageBudgetMB << 20
	o.Aligned = x.AlignedPartitioning
	o.TimeLimit = time.Duration(x.TimeLimitMinutes) * time.Minute
	o.NoCompression = x.DisableCompression
	o.GreedyM = x.GreedySeedSize
	o.GreedyK = x.MaxStructures
	o.AllowDrops = x.AllowDrops
	return o, nil
}
