package journal

import (
	"bytes"
	"strings"
	"testing"
)

// synthJournal builds an event stream modeling a small but complete
// pipeline: two queries select candidates, two candidates merge, the
// enumeration greedy seeds with one structure and accepts the merged one
// at step 1.
func synthJournal() []Event {
	var evs []Event
	seq := int64(0)
	add := func(e Event) {
		seq++
		e.Seq = seq
		evs = append(evs, e)
	}

	q0 := Ev(KindQuery)
	q0.Query, q0.SQL = 0, "SELECT a FROM t WHERE a = 1"
	q0.CostBefore, q0.CostAfter, q0.Gain = 100, 40, 60
	add(q0)

	c0 := Ev(KindCandidate)
	c0.Query, c0.Structure, c0.Accepted, c0.Gain = 0, "ix:t(a)", true, 60
	add(c0)
	c0r := Ev(KindCandidate)
	c0r.Query, c0r.Structure, c0r.Accepted = 0, "ix:t(z)", false
	add(c0r)

	q1 := Ev(KindQuery)
	q1.Query, q1.SQL = 1, "SELECT b FROM t WHERE b = 2"
	q1.CostBefore, q1.CostAfter, q1.Gain = 80, 30, 50
	add(q1)
	c1 := Ev(KindCandidate)
	c1.Query, c1.Structure, c1.Accepted, c1.Gain = 1, "ix:t(b)", true, 50
	add(c1)

	m := Ev(KindMerge)
	m.Structure, m.Parents, m.Accepted = "ix:t(a,b)", []string{"ix:t(a)", "ix:t(b)"}, true
	add(m)

	seed := Ev(KindSeed)
	seed.Scope, seed.Structures, seed.Accepted = "enumeration", []string{"ix:u(c)"}, true
	seed.CostBefore, seed.CostAfter = 180, 150
	add(seed)

	st := Ev(KindStep)
	st.Scope, st.Step, st.Structure, st.Accepted = "enumeration", 1, "ix:t(a,b)", true
	st.CostBefore, st.CostAfter, st.Alternatives = 150, 90, 3
	st.RunnerUp, st.RunnerUpCost = "ix:t(a)", 110
	add(st)

	return evs
}

func TestExplainStepAdmissionWithMergeLineage(t *testing.T) {
	exp := Explain(synthJournal(), []string{"ix:t(a,b)"})
	if len(exp.Structures) != 1 {
		t.Fatalf("structures: %d, want 1", len(exp.Structures))
	}
	p := exp.Structures[0]
	if p.AdmittedBy != "greedy-step" || p.Step != 1 {
		t.Fatalf("AdmittedBy=%q Step=%d, want greedy-step/1", p.AdmittedBy, p.Step)
	}
	if p.CostBefore != 150 || p.CostAfter != 90 || p.Alternatives != 3 {
		t.Errorf("costs/alternatives = %v/%v/%d", p.CostBefore, p.CostAfter, p.Alternatives)
	}
	if p.RunnerUp != "ix:t(a)" || p.RunnerUpCost != 110 {
		t.Errorf("runner-up = %q/%v", p.RunnerUp, p.RunnerUpCost)
	}
	if len(p.MergedFrom) != 2 || p.MergedFrom[0] != "ix:t(a)" || p.MergedFrom[1] != "ix:t(b)" {
		t.Errorf("MergedFrom = %v", p.MergedFrom)
	}
	// Benefiting queries are the union over the merge leaves.
	if len(p.BenefitingQueries) != 2 {
		t.Fatalf("BenefitingQueries = %v, want both queries", p.BenefitingQueries)
	}
	if q := p.BenefitingQueries[0]; q.Query != 0 || q.CostBefore != 100 || q.CostAfter != 40 || q.Gain != 60 || q.SQL == "" {
		t.Errorf("query 0 benefit = %+v", q)
	}
	if q := p.BenefitingQueries[1]; q.Query != 1 || q.Gain != 50 {
		t.Errorf("query 1 benefit = %+v", q)
	}
}

func TestExplainSeedAdmission(t *testing.T) {
	exp := Explain(synthJournal(), []string{"ix:u(c)"})
	p := exp.Structures[0]
	if p.AdmittedBy != "greedy-seed" || p.Step != -1 {
		t.Fatalf("AdmittedBy=%q Step=%d, want greedy-seed/-1", p.AdmittedBy, p.Step)
	}
	if p.CostBefore != 180 || p.CostAfter != 150 {
		t.Errorf("seed costs = %v -> %v", p.CostBefore, p.CostAfter)
	}
	if len(p.MergedFrom) != 0 {
		t.Errorf("unmerged structure has MergedFrom = %v", p.MergedFrom)
	}
}

func TestExplainUnexplainedStructure(t *testing.T) {
	exp := Explain(synthJournal(), []string{"ix:never(seen)"})
	p := exp.Structures[0]
	if p.AdmittedBy != "" || p.Step != -1 {
		t.Fatalf("unknown structure explained: %+v", p)
	}
	if len(p.BenefitingQueries) != 0 {
		t.Errorf("unknown structure has benefiting queries: %v", p.BenefitingQueries)
	}
}

// Rejected candidate events and query-scoped greedy events must not leak
// into provenance.
func TestExplainIgnoresRejectedAndQueryScoped(t *testing.T) {
	evs := synthJournal()
	qs := Ev(KindStep)
	qs.Scope, qs.Step, qs.Structure, qs.Accepted = "query", 0, "ix:t(z)", true
	evs = append(evs, qs)

	exp := Explain(evs, []string{"ix:t(z)"})
	p := exp.Structures[0]
	if p.AdmittedBy != "" {
		t.Fatalf("query-scoped step treated as enumeration admission: %+v", p)
	}
	if len(p.BenefitingQueries) != 0 {
		t.Errorf("rejected candidate counted as benefiting: %v", p.BenefitingQueries)
	}
}

func TestMergeLeavesCycleSafe(t *testing.T) {
	parents := map[string][]string{
		"a": {"b", "c"},
		"b": {"a", "d"}, // cycle back to a
	}
	leaves := mergeLeaves("a", parents)
	if len(leaves) != 2 || leaves[0] != "c" || leaves[1] != "d" {
		t.Fatalf("leaves = %v, want [c d]", leaves)
	}
}

func TestWriteText(t *testing.T) {
	exp := Explain(synthJournal(), []string{"ix:t(a,b)", "ix:u(c)", "ix:never(seen)"})
	exp.DroppedEvents = map[Kind]int64{KindRetry: 7}
	var buf bytes.Buffer
	if err := exp.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"structure ix:t(a,b)",
		"admitted at enumeration greedy step 1",
		"runner-up: ix:t(a)",
		"merged from:",
		"benefiting queries:",
		"admitted by the enumeration seed",
		"admission not recorded in the journal",
		"warning: journal dropped events",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := (&Explanation{}).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no recommended structures") {
		t.Errorf("empty explanation report = %q", buf.String())
	}
}
