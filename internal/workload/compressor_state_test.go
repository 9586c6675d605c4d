package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// stateEvents generates a deterministic event stream with several templates,
// varying constants (so clusters split), and mixed weights/durations.
func stateEvents(t testing.TB, n int, seed int64) []*Event {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{}
	for i := 0; i < n; i++ {
		var sql string
		switch i % 3 {
		case 0:
			sql = fmt.Sprintf("SELECT a FROM t WHERE a = %d", rng.Intn(1000))
		case 1:
			sql = fmt.Sprintf("SELECT b FROM t WHERE b BETWEEN %d AND %d", rng.Intn(100), 100+rng.Intn(100))
		default:
			sql = fmt.Sprintf("SELECT a, b FROM t WHERE a = %d AND b = %d", rng.Intn(50), rng.Intn(50))
		}
		if err := w.Add(sql, float64(1+rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
		w.Events[len(w.Events)-1].Duration = float64(rng.Intn(100))
	}
	return w.Events
}

// TestCompressorStateRoundTrip snapshots a compressor mid-stream, restores
// it through a JSON round trip, streams the identical remaining events into
// both, and requires identical representatives, weights, and template
// distributions — the invariant daemon restart-resume depends on.
func TestCompressorStateRoundTrip(t *testing.T) {
	events := stateEvents(t, 400, 3)
	split := 250

	orig := NewCompressor(CompressOptions{})
	for _, e := range events[:split] {
		if err := orig.Add(e); err != nil {
			t.Fatal(err)
		}
	}

	data, err := json.Marshal(orig.State())
	if err != nil {
		t.Fatal(err)
	}
	var st CompressorState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreCompressor(&st)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []*Compressor{orig, restored} {
		for _, e := range events[split:] {
			if err := c.Add(e); err != nil {
				t.Fatal(err)
			}
		}
	}

	if orig.Events() != restored.Events() || orig.TotalWeight() != restored.TotalWeight() {
		t.Fatalf("counters diverged: events %d vs %d, weight %v vs %v",
			orig.Events(), restored.Events(), orig.TotalWeight(), restored.TotalWeight())
	}
	if orig.Len() != restored.Len() || orig.Templates() != restored.Templates() {
		t.Fatalf("retained state diverged: %d/%d reps, %d/%d templates",
			orig.Len(), restored.Len(), orig.Templates(), restored.Templates())
	}
	if !reflect.DeepEqual(orig.TemplateWeights(), restored.TemplateWeights()) {
		t.Fatalf("template weights diverged:\n%v\nvs\n%v", orig.TemplateWeights(), restored.TemplateWeights())
	}
	ow, rw := orig.Workload(), restored.Workload()
	for i := range ow.Events {
		a, b := ow.Events[i], rw.Events[i]
		if a.SQL != b.SQL || a.Weight != b.Weight || a.Duration != b.Duration {
			t.Fatalf("representative %d diverged: %q w=%v d=%v vs %q w=%v d=%v",
				i, a.SQL, a.Weight, a.Duration, b.SQL, b.Weight, b.Duration)
		}
	}
	// And the snapshots of the two continued compressors agree too.
	oState, _ := json.Marshal(orig.State())
	rState, _ := json.Marshal(restored.State())
	if string(oState) != string(rState) {
		t.Fatalf("continued snapshots diverged:\n%s\nvs\n%s", oState, rState)
	}
}

func TestRestoreCompressorRejectsBadState(t *testing.T) {
	if _, err := RestoreCompressor(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	bad := &CompressorState{Templates: []TemplateState{{}}}
	if _, err := RestoreCompressor(bad); err == nil {
		t.Fatal("template without representatives accepted")
	}
	bad = &CompressorState{Templates: []TemplateState{{
		Reps: []RepState{{SQL: "not sql at all ((", Weight: 1}},
	}}}
	if _, err := RestoreCompressor(bad); err == nil {
		t.Fatal("unparseable representative accepted")
	}
	bad = &CompressorState{Templates: []TemplateState{{
		Reps: []RepState{{SQL: "SELECT a FROM t WHERE a = 1", Weight: 1}},
		Lo:   []float64{0}, Hi: []float64{0, 1}, Seen: []bool{true},
	}}}
	if _, err := RestoreCompressor(bad); err == nil {
		t.Fatal("inconsistent range arrays accepted")
	}
	bad = &CompressorState{Templates: []TemplateState{
		{Reps: []RepState{{SQL: "SELECT a FROM t WHERE a = 1", Weight: 1}}, Lo: []float64{1}, Hi: []float64{1}, Seen: []bool{true}},
		{Reps: []RepState{{SQL: "SELECT a FROM t WHERE a = 2", Weight: 1}}, Lo: []float64{2}, Hi: []float64{2}, Seen: []bool{true}},
	}}
	if _, err := RestoreCompressor(bad); err == nil {
		t.Fatal("duplicate template signature accepted")
	}
}

// TestRestoreCompressorRejectsImpossibleState mutates a real snapshot into
// ones Add can never produce; each must be refused with a message naming
// the offending template where there is one.
func TestRestoreCompressorRejectsImpossibleState(t *testing.T) {
	c := NewCompressor(CompressOptions{})
	for _, e := range stateEvents(t, 120, 9) {
		if err := c.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RestoreCompressor(c.State()); err != nil {
		t.Fatalf("a real snapshot must restore: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(st *CompressorState)
		want   string
	}{
		{"negative rep weight", func(st *CompressorState) { st.Templates[0].Reps[0].Weight = -5 }, "template 0 rep 0: negative weight"},
		{"negative rep duration", func(st *CompressorState) { st.Templates[1].Reps[0].Duration = -2 }, "template 1 rep 0: negative duration"},
		{"infinite rep weight", func(st *CompressorState) { st.Templates[0].Reps[1].Weight = math.Inf(1) }, "template 0 rep 1: non-finite weight"},
		{"negative events", func(st *CompressorState) { st.Events = -3 }, "negative events"},
		{"negative total weight", func(st *CompressorState) { st.Weight = -7 }, "negative weight"},
		{"NaN total weight", func(st *CompressorState) { st.Weight = math.NaN() }, "non-finite weight"},
		{"fewer events than representatives", func(st *CompressorState) { st.Events = 2 }, "2 events but"},
		{"lo above hi on a seen position", func(st *CompressorState) {
			st.Templates[2].Lo[0], st.Templates[2].Hi[0] = 5, 1
		}, "template 2 has lo 5 > hi 1"},
		{"non-finite range", func(st *CompressorState) { st.Templates[1].Hi[0] = math.Inf(1) }, "template 1 has a non-finite range"},
		{"more reps than the knob", func(st *CompressorState) { st.MaxPerTemplate = 1 }, "more than maxPerTemplate 1"},
		{"zero maxPerTemplate", func(st *CompressorState) { st.MaxPerTemplate = 0 }, "must be positive"},
		{"zero threshold", func(st *CompressorState) { st.Threshold = 0 }, "must be positive"},
		{"negative threshold", func(st *CompressorState) { st.Threshold = -0.1 }, "must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := c.State()
			if len(st.Templates) != 3 || len(st.Templates[0].Reps) < 2 {
				t.Fatalf("fixture changed shape: %d templates", len(st.Templates))
			}
			tc.mutate(st)
			_, err := RestoreCompressor(st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
	// An unseen position's range is not checked: Add leaves it at 0, 0.
	st := c.State()
	st.Templates[0].Lo = append(st.Templates[0].Lo, 3)
	st.Templates[0].Hi = append(st.Templates[0].Hi, 1)
	st.Templates[0].Seen = append(st.Templates[0].Seen, false)
	if _, err := RestoreCompressor(st); err != nil {
		t.Fatalf("unseen position with lo > hi refused: %v", err)
	}
}
