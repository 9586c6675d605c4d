package workload_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen/cust"
	"repro/internal/datagen/psoft"
	"repro/internal/datagen/setquery"
	"repro/internal/datagen/tpch"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

type generatorTrace struct {
	name string
	w    *workload.Workload
}

// generatorTraces returns the workload generators' workloads, each with its
// statement texts collapsed onto one line (the TPC-H texts span several) so
// that it renders as a trace.
func generatorTraces() []generatorTrace {
	synt1 := setquery.Catalog(100000)
	out := []generatorTrace{
		// The continuous tuning daemon's stable and shift template sets.
		{"setquery-stable", setquery.Workload(synt1, 3000, 60, 1)},
		{"setquery-shift", setquery.Workload(synt1, 3000, 60, 1001)},
		{"psoft", psoft.Workload(psoft.Catalog(0.005), 3000, 1)},
		{"tpch", tpch.Workload()},
	}
	for i, s := range cust.All(0.01) {
		out = append(out, generatorTrace{fmt.Sprintf("cust%d", i+1), s.Workload(1500, 1)})
	}
	for _, g := range out {
		w := g.w
		for i, e := range w.Events {
			cp := *e
			cp.SQL = strings.Join(strings.Fields(e.SQL), " ")
			w.Events[i] = &cp
		}
	}
	return out
}

// TestStreamTraceMatchesParseOnGenerators is the template key's property
// test over every workload generator: each event StreamTrace hands out
// carries exactly the signature and constant vector a full parse gives, and
// a Compressor fed by StreamTrace ends in the same state, byte for byte, as
// one fed a freshly parsed event per line.
func TestStreamTraceMatchesParseOnGenerators(t *testing.T) {
	for _, g := range generatorTraces() {
		w := g.w
		t.Run(g.name, func(t *testing.T) {
			var b strings.Builder
			if err := workload.WriteTrace(&b, w); err != nil {
				t.Fatal(err)
			}
			fast := workload.NewCompressor(workload.CompressOptions{})
			unparsed := 0
			err := workload.StreamTrace(strings.NewReader(b.String()), func(e *workload.Event, _ int) error {
				if err := workload.CheckStreamed(e); err != nil {
					return err
				}
				if e.Stmt == nil {
					unparsed++
				}
				return fast.Add(e)
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := workload.NewCompressor(workload.CompressOptions{})
			for _, e := range w.Events {
				stmt, err := sqlparser.Parse(e.SQL)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.Add(&workload.Event{SQL: e.SQL, Stmt: stmt, Weight: e.Weight, Duration: e.Duration}); err != nil {
					t.Fatal(err)
				}
			}
			for _, part := range []struct {
				what      string
				fast, ref any
			}{
				{"State", fast.State(), ref.State()},
				{"TemplateWeights", fast.TemplateWeights(), ref.TemplateWeights()},
			} {
				fj, err := json.Marshal(part.fast)
				if err != nil {
					t.Fatal(err)
				}
				rj, err := json.Marshal(part.ref)
				if err != nil {
					t.Fatal(err)
				}
				if string(fj) != string(rj) {
					t.Fatalf("%s differs from the parse-every-line reference:\n%s\nvs\n%s", part.what, fj, rj)
				}
			}
			for _, e := range fast.Workload().Events {
				if e.Stmt == nil {
					t.Fatalf("representative %q has no statement", e.SQL)
				}
			}
			if w.Len() > 2*fast.Templates() && unparsed == 0 {
				t.Fatalf("%d events of %d templates: every event was parsed", w.Len(), fast.Templates())
			}
		})
	}
}
