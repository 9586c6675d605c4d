package journal

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestAppendStampsSequenceAndTime(t *testing.T) {
	j := New("s1")
	for i := 0; i < 5; i++ {
		e := Ev(KindStep)
		e.Step = i
		j.Append(e)
	}
	evs := j.Events()
	if len(evs) != 5 {
		t.Fatalf("Events: got %d, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.T.IsZero() {
			t.Errorf("event %d: zero timestamp", i)
		}
		if e.Step != i {
			t.Errorf("event %d: Step = %d (events not in append order)", i, e.Step)
		}
	}
}

func TestEvDefaults(t *testing.T) {
	e := Ev(KindPhase)
	if e.Query != -1 || e.Step != -1 {
		t.Fatalf("Ev: Query=%d Step=%d, want -1/-1", e.Query, e.Step)
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	// Query and Step must serialize even at their zero-ish values so a
	// consumer never confuses "query 0" with "not query-scoped".
	for _, want := range []string{`"query":-1`, `"step":-1`, `"accepted":false`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("marshaled event %s missing %s", b, want)
		}
	}
}

// TestPerKindBounds checks the journal's central memory property: each
// kind has its own ring, so a noisy kind can only evict its own history.
func TestPerKindBounds(t *testing.T) {
	j := New("s1")
	j.SetLimit(4)

	// Two scarce decision events first.
	for i := 0; i < 2; i++ {
		e := Ev(KindStep)
		e.Step = i
		j.Append(e)
	}
	// Then a flood of retries far over the limit, room reserved for all of
	// them first: the reservation stops at the bound.
	j.Reserve(KindRetry, 100)
	for i := 0; i < 100; i++ {
		e := Ev(KindRetry)
		e.Site = "whatif"
		j.Append(e)
	}

	steps := j.Events(KindStep)
	if len(steps) != 2 {
		t.Fatalf("flood of retry events evicted greedy steps: %d retained, want 2", len(steps))
	}
	retries := j.Events(KindRetry)
	if len(retries) != 4 {
		t.Fatalf("retry ring holds %d, want limit 4", len(retries))
	}
	// The ring keeps the newest events.
	if got := retries[len(retries)-1].Seq; got != int64(2+100) {
		t.Errorf("newest retry Seq = %d, want %d", got, 2+100)
	}
	if got := j.Dropped(); got != 96 {
		t.Errorf("Dropped = %d, want 96", got)
	}
	byKind := j.DroppedByKind()
	if byKind[KindRetry] != 96 || len(byKind) != 1 {
		t.Errorf("DroppedByKind = %v, want {retry: 96}", byKind)
	}
	if j.Len() != 6 {
		t.Errorf("Len = %d, want 6", j.Len())
	}
	// A reservation after the bound shrank below a ring's length is a no-op.
	j.SetLimit(1)
	j.Reserve(KindStep, 3)
	if len(j.Events(KindStep)) != 2 {
		t.Errorf("a reservation changed the retained steps")
	}
}

func TestEventsFilterAndOrder(t *testing.T) {
	j := New("s1")
	j.Append(Ev(KindPhase))
	j.Append(Ev(KindStep))
	j.Append(Ev(KindPhase))
	j.Append(Ev(KindMerge))

	all := j.Events()
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("Events not sequence-ordered: %d after %d", all[i].Seq, all[i-1].Seq)
		}
	}
	phases := j.Events(KindPhase)
	if len(phases) != 2 {
		t.Fatalf("Events(KindPhase): got %d, want 2", len(phases))
	}
	// The copy must be independent of the journal's storage.
	phases[0].Phase = "mutated"
	if j.Events(KindPhase)[0].Phase == "mutated" {
		t.Error("Events returned a view into the journal's storage")
	}
}

func TestWriteNDJSON(t *testing.T) {
	j := New("s1")
	e := Ev(KindStep)
	e.Structure = "ix:t(a)"
	j.Append(e)
	j.Append(Ev(KindPhase))

	var buf bytes.Buffer
	if err := j.WriteNDJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines+1, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("NDJSON lines = %d, want 2", lines)
	}

	buf.Reset()
	filter, err := ParseKinds("greedy-step")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteNDJSON(&buf, filter); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(buf.String())
	if strings.Count(out, "\n")+1 != 1 || !strings.Contains(out, "ix:t(a)") {
		t.Fatalf("filtered NDJSON = %q, want the one greedy-step line", out)
	}
}

func TestParseKinds(t *testing.T) {
	f, err := ParseKinds(" candidate , merge ")
	if err != nil {
		t.Fatal(err)
	}
	if !f[KindCandidate] || !f[KindMerge] || len(f) != 2 {
		t.Fatalf("ParseKinds = %v", f)
	}
	if f, err := ParseKinds(""); err != nil || f != nil {
		t.Fatalf("ParseKinds(\"\") = %v, %v; want nil, nil", f, err)
	}
	if _, err := ParseKinds("candidate,bogus"); err == nil {
		t.Fatal("ParseKinds accepted an unknown kind")
	}
}

func TestAttachMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	j := New("s1")
	j.SetLimit(2)
	j.AttachMetrics(reg)
	for i := 0; i < 5; i++ {
		j.Append(Ev(KindRetry))
	}
	var text bytes.Buffer
	reg.WritePrometheus(&text)
	s := text.String()
	if !strings.Contains(s, `dta_journal_events_total{kind="retry"} 5`) {
		t.Errorf("missing events counter in exposition:\n%s", s)
	}
	if !strings.Contains(s, `dta_journal_dropped_total{kind="retry"} 3`) {
		t.Errorf("missing dropped counter in exposition:\n%s", s)
	}
}

func TestNilJournalIsSafe(t *testing.T) {
	var j *Journal
	j.Append(Ev(KindStep)) // must not panic
	j.Reserve(KindStep, 10)
	j.SetLimit(10)
	j.AttachMetrics(obs.NewRegistry())
	if j.Len() != 0 || j.Dropped() != 0 || j.Events() != nil || j.Name() != "" {
		t.Error("nil journal accessors not zero-valued")
	}
	if j.DroppedByKind() != nil {
		t.Error("nil journal DroppedByKind not nil")
	}
	if err := j.WriteNDJSON(&bytes.Buffer{}, nil); err != nil {
		t.Error(err)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context carries a journal")
	}
	j := New("s1")
	ctx := WithContext(context.Background(), j)
	if FromContext(ctx) != j {
		t.Fatal("journal did not round-trip through the context")
	}
	// Attaching nil is a no-op, and FromContext(nil) is safe.
	if WithContext(ctx, nil) != ctx {
		t.Fatal("WithContext(nil) should return the context unchanged")
	}
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil) should be nil")
	}
}

func TestConcurrentAppend(t *testing.T) {
	j := New("s1")
	j.SetLimit(64)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				j.Append(Ev(KindRetry))
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := j.Len(); got != 64 {
		t.Fatalf("Len = %d, want 64", got)
	}
	if got := j.Dropped(); got != 8*200-64 {
		t.Fatalf("Dropped = %d, want %d", got, 8*200-64)
	}
	// Sequence numbers must be unique.
	seen := map[int64]bool{}
	for _, e := range j.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate Seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}
