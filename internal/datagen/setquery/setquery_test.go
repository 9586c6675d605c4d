package setquery

import (
	"testing"

	"repro/internal/optimizer"
	"repro/internal/workload"
)

func TestCatalogAndWorkload(t *testing.T) {
	cat := Catalog(100000)
	bench := cat.ResolveTable("bench")
	if bench == nil || bench.Rows != 100000 {
		t.Fatal("bench table wrong")
	}
	if bench.DistinctOf("k500k") != 100000 {
		t.Fatal("distinct counts must cap at row count")
	}
	if bench.DistinctOf("k25") != 25 {
		t.Fatal("k25 distinct wrong")
	}

	w := Workload(cat, 800, 100, 7)
	if w.Len() != 800 {
		t.Fatalf("events = %d", w.Len())
	}
	// ~100 distinct templates.
	tmpls := w.Templates()
	if len(tmpls) < 80 || len(tmpls) > 100 {
		t.Fatalf("templates = %d, want ~100", len(tmpls))
	}
	// All events analyze against the catalog.
	for _, e := range w.Events {
		if _, err := optimizer.Analyze(cat, e.Stmt); err != nil {
			t.Fatalf("%s: %v", e.SQL, err)
		}
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	cat := Catalog(10000)
	a := Workload(cat, 50, 10, 3)
	b := Workload(cat, 50, 10, 3)
	for i := range a.Events {
		if a.Events[i].SQL != b.Events[i].SQL {
			t.Fatal("workload generation must be deterministic")
		}
	}
}

// TestTraceMatchesWorkload: the lazily rendered trace parses back to the
// statement sequence Workload generates for the same arguments, in order —
// the promise streaming ingestion of a synthetic trace relies on to tune
// the same events as the batch path.
func TestTraceMatchesWorkload(t *testing.T) {
	cat := Catalog(10000)
	for _, c := range []struct {
		events, templates int
		seed              int64
	}{{300, 40, 1}, {1000, 7, 42}} {
		want := Workload(cat, c.events, c.templates, c.seed)
		got, err := workload.ReadTrace(Trace(cat, c.events, c.templates, c.seed))
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%+v: trace has %d events, workload %d", c, got.Len(), want.Len())
		}
		for i := range want.Events {
			if got.Events[i].SQL != want.Events[i].SQL {
				t.Fatalf("%+v: event %d: trace %q, workload %q", c, i, got.Events[i].SQL, want.Events[i].SQL)
			}
		}
	}
}

func TestLoad(t *testing.T) {
	cat := Catalog(2000)
	db, err := Load(cat, 5)
	if err != nil {
		t.Fatal(err)
	}
	if db.Table("bench").LiveRows() != 2000 {
		t.Fatal("row count wrong")
	}
	p, err := db.Materialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ExecSQL("SELECT COUNT(*) FROM bench WHERE k2 = 1")
	if err != nil {
		t.Fatal(err)
	}
	// k2 has two values; roughly half the rows match.
	if c := res.Rows[0][0].F; c < 800 || c > 1200 {
		t.Fatalf("k2=1 count = %g, want ~1000", c)
	}
}
