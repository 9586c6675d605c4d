package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTrace("s-0001")
	ctx := WithTrace(context.Background(), tr)

	ctx, root := StartSpan(ctx, "session", "session s-0001")
	phaseCtx, phase := StartSpan(ctx, "phase", "candidate-selection")
	_, call := StartSpan(phaseCtx, "whatif", "what-if")
	call.SetInt("event", 3)
	call.End()
	phase.End()
	root.End()

	if tr.SpanCount() != 3 {
		t.Fatalf("spans = %d", tr.SpanCount())
	}
	// Parent links reflect the context chain.
	byName := map[string]spanRecord{}
	for _, r := range tr.spans {
		byName[r.name] = r
	}
	if byName["session s-0001"].parent != 0 {
		t.Fatalf("root has parent %d", byName["session s-0001"].parent)
	}
	if byName["candidate-selection"].parent != byName["session s-0001"].id {
		t.Fatal("phase not parented to session")
	}
	if byName["what-if"].parent != byName["candidate-selection"].id {
		t.Fatal("what-if not parented to phase")
	}
	if args := byName["what-if"].args; len(args) != 1 || args[0].value() != int64(3) {
		t.Fatalf("args = %v", byName["what-if"].args)
	}
}

func TestNilSpanAndNoTraceContext(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "x", "y")
	if sp != nil {
		t.Fatal("expected nil span without a trace")
	}
	sp.SetString("k", "v").SetInt("n", 1).SetFloat("f", 1).SetBool("b", true) // must not panic
	sp.End()
	if TraceFrom(ctx) != nil {
		t.Fatal("trace appeared from nowhere")
	}
}

func TestSpanLimit(t *testing.T) {
	tr := NewTrace("bounded")
	tr.SetLimit(2)
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, sp := StartSpan(ctx, "c", "s")
		sp.End()
	}
	if tr.SpanCount() != 2 || tr.Dropped() != 3 {
		t.Fatalf("spans=%d dropped=%d", tr.SpanCount(), tr.Dropped())
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTrace("s-0042")
	ctx := WithTrace(context.Background(), tr)
	ctx, root := StartSpan(ctx, "session", "session s-0042")
	_, child := StartSpan(ctx, "phase", "enumeration")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" || doc.OtherData["trace"] != "s-0042" {
		t.Fatalf("metadata off: %+v", doc.OtherData)
	}
	// One metadata event plus the two spans.
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events = %d", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" {
		t.Fatalf("first event %+v not process metadata", doc.TraceEvents[0])
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents[1:] {
		if e.Ph != "X" || e.Ts < 0 || e.Pid != 1 {
			t.Fatalf("bad event %+v", e)
		}
		seen[e.Cat] = true
	}
	if !seen["session"] || !seen["phase"] {
		t.Fatalf("categories missing: %v", seen)
	}
}

// TestTraceTrim: Trim cuts the span list to its length, exports the same
// Chrome trace as before it, and spans collected afterwards still land.
func TestTraceTrim(t *testing.T) {
	var nilTrace *Trace
	nilTrace.Trim()
	tr := NewTrace("s-0007")
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, sp := StartSpan(ctx, "c", "s")
		sp.SetInt("i", i).End()
	}
	if tr.SpanCap() == tr.SpanCount() {
		t.Fatalf("5 appended spans left no spare capacity (cap %d); the test exercises nothing", tr.SpanCap())
	}
	var before, after bytes.Buffer
	if err := tr.WriteChromeTrace(&before); err != nil {
		t.Fatal(err)
	}
	tr.Trim()
	if tr.SpanCap() != tr.SpanCount() || tr.SpanCount() != 5 {
		t.Fatalf("after Trim: cap %d, len %d; want both 5", tr.SpanCap(), tr.SpanCount())
	}
	if err := tr.WriteChromeTrace(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("Trim changed the export:\n%s\n%s", before.String(), after.String())
	}
	_, sp := StartSpan(ctx, "c", "late")
	sp.End()
	if tr.SpanCount() != 6 {
		t.Fatalf("a span after Trim was lost: %d spans", tr.SpanCount())
	}
}
