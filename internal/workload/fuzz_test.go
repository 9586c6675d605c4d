package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to the trace reader and checks the
// ingestion invariants end to end: no panic on any input; the streaming and
// batch readers agree exactly (same error or same events — ReadTrace is a
// StreamTrace sink, so disagreement means state leaked between lines); every
// accepted event carries finite, strictly positive weight and finite,
// non-negative duration (the NaN/Inf/negative rejection this reader exists
// for); every streamed event's template, parsed or read off a known key,
// is what a parse of its SQL gives; and whatever is accepted survives a
// WriteTrace → ReadTrace round trip byte-for-byte.
func FuzzReadTrace(f *testing.F) {
	for _, seed := range []string{
		"SELECT a FROM t WHERE x = 1\n",
		"2\tSELECT a FROM t WHERE x = 1\n# comment\n\n3\t1.5\tSELECT b FROM t\n",
		"2\t0.5\tSELECT a\tFROM t WHERE x = 1\n",     // tab inside SQL
		"NaN\tSELECT a FROM t\n",                     // poisoned weight
		"1\t-Inf\tSELECT a FROM t\n",                 // poisoned duration
		"-2\tSELECT a FROM t\n",                      // negative weight
		"0\tSELECT a FROM t",                         // zero weight, no trailing newline
		"1e300\t1e18\tSELECT a FROM t WHERE x = 1\n", // extreme finite fields
		"2\tnot-a-duration\tignored\n",               // duration folds into SQL, then fails parse
		"0x1p-3\tSELECT a FROM t\n",                  // hex float weight
		"1e309\tSELECT a FROM t\n",                   // weight out of float64 range
		"1\t1e400\tSELECT a FROM t\n",                // duration out of float64 range
		"#\n#only comments\n",
		"not sql at all\n",
		"\t\t\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := ReadTrace(bytes.NewReader(data))

		var streamed []*Event
		serr := StreamTrace(bytes.NewReader(data), func(e *Event, line int) error {
			streamed = append(streamed, e)
			return nil
		})

		if (err == nil) != (serr == nil) {
			t.Fatalf("readers disagree: ReadTrace err=%v, StreamTrace err=%v", err, serr)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "line ") {
				t.Fatalf("trace error lost its line number: %v", err)
			}
			return
		}

		if len(w.Events) != len(streamed) {
			t.Fatalf("readers disagree: ReadTrace %d events, StreamTrace %d", len(w.Events), len(streamed))
		}
		total := 0.0
		for i, e := range w.Events {
			s := streamed[i]
			if e.SQL != s.SQL || e.Weight != s.Weight || e.Duration != s.Duration {
				t.Fatalf("event %d differs between readers: %+v vs %+v", i, e, s)
			}
			if err := CheckStreamed(s); err != nil {
				t.Fatalf("streamed event %d: %v", i, err)
			}
			if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) || e.Weight <= 0 {
				t.Fatalf("accepted event %d has weight %v", i, e.Weight)
			}
			if math.IsNaN(e.Duration) || math.IsInf(e.Duration, 0) || e.Duration < 0 {
				t.Fatalf("accepted event %d has duration %v", i, e.Duration)
			}
			total += e.Weight
		}
		if got := w.TotalWeight(); math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("TotalWeight %v is not finite", got)
		} else if got != total {
			t.Fatalf("TotalWeight %v != sum of accepted weights %v", got, total)
		}

		// Round trip: re-serializing the re-read serialization is a fixed
		// point (%g round-trips float64 exactly; tabs in SQL re-split the
		// same way because the weight and duration fields are always
		// written).
		fp := fingerprint(t, w)
		w2, err := ReadTrace(strings.NewReader(fp))
		if err != nil {
			t.Fatalf("round trip failed to re-read: %v\ntrace:\n%s", err, fp)
		}
		if fp2 := fingerprint(t, w2); fp2 != fp {
			t.Fatalf("round trip not a fixed point:\nfirst:\n%s\nsecond:\n%s", fp, fp2)
		}
	})
}

// FuzzRestoreCompressor feeds arbitrary bytes to the compressor-state
// decoder a continuous tuning daemon resumes from: json.Unmarshal then
// RestoreCompressor must never panic, and a snapshot it accepts must be one
// State can write — restoring it and snapshotting again gives the input
// back, and a second State → Restore → State cycle is the identity.
func FuzzRestoreCompressor(f *testing.F) {
	c := NewCompressor(CompressOptions{})
	for _, e := range stateEvents(f, 60, 5) {
		if err := c.Add(e); err != nil {
			f.Fatal(err)
		}
	}
	real, err := json.Marshal(c.State())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	// The compressor section of a daemon state file the service wrote.
	raw, err := os.ReadFile("../service/testdata/state-pr45/d-0001.daemon.json")
	if err != nil {
		f.Fatal(err)
	}
	var daemon struct {
		Compressor json.RawMessage `json:"compressor"`
	}
	if err := json.Unmarshal(raw, &daemon); err != nil || len(daemon.Compressor) == 0 {
		f.Fatalf("daemon state file has no compressor section: %v", err)
	}
	f.Add([]byte(daemon.Compressor))
	f.Add([]byte(`{"maxPerTemplate":4,"threshold":0.1,"events":3,"weight":-7,"templates":[{"reps":[{"sql":"SELECT a FROM t WHERE x = 1","weight":-5,"duration":-2}],"lo":[5],"hi":[1],"seen":[true]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st CompressorState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		c, err := RestoreCompressor(&st)
		if err != nil {
			return
		}
		in, err := json.Marshal(&st)
		if err != nil {
			t.Fatal(err)
		}
		s1 := c.State()
		out, err := json.Marshal(s1)
		if err != nil {
			t.Fatal(err)
		}
		if string(in) != string(out) {
			t.Fatalf("accepted snapshot does not round-trip:\n%s\nvs\n%s", in, out)
		}
		c2, err := RestoreCompressor(s1)
		if err != nil {
			t.Fatalf("State of a restored compressor does not restore: %v", err)
		}
		if s2 := c2.State(); !reflect.DeepEqual(s1, s2) {
			t.Fatalf("State → Restore → State is not the identity:\n%+v\nvs\n%+v", s1, s2)
		}
		for sig, w := range c.TemplateWeights() {
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				t.Fatalf("template %q restored with weight %v", sig, w)
			}
		}
	})
}
