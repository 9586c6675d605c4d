package workload

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlparser"
)

// A statement with a >1 MiB constant used to kill ReadTrace's bufio.Scanner
// ("token too long", with no line number); the streaming reader must take it
// in stride.
func longLineSQL() string {
	return "SELECT a FROM t WHERE s = '" + strings.Repeat("x", 2<<20) + "'"
}

func TestStreamTraceArbitraryLineLength(t *testing.T) {
	in := "SELECT a FROM t WHERE x = 1\n" + "3\t" + longLineSQL() + "\n"
	w, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatalf("long line must parse: %v", err)
	}
	if w.Len() != 2 || w.Events[1].Weight != 3 {
		t.Fatalf("len=%d weight=%g", w.Len(), w.Events[1].Weight)
	}
	if len(w.Events[1].SQL) < 2<<20 {
		t.Fatalf("long SQL truncated to %d bytes", len(w.Events[1].SQL))
	}
}

func TestStreamTraceRejectsPoisonedFields(t *testing.T) {
	cases := []struct {
		name string
		line string
		want string // substring of the error
	}{
		{"nan weight", "NaN\tSELECT a FROM t", "line 3: non-finite weight"},
		{"inf weight", "+Inf\tSELECT a FROM t", "line 3: non-finite weight"},
		{"neg inf weight", "-Inf\tSELECT a FROM t", "line 3: non-finite weight"},
		{"negative weight", "-2\tSELECT a FROM t", "line 3: negative weight"},
		{"nan duration", "2\tNaN\tSELECT a FROM t", "line 3: non-finite duration"},
		{"inf duration", "2\tInf\tSELECT a FROM t", "line 3: non-finite duration"},
		{"negative duration", "2\t-0.5\tSELECT a FROM t", "line 3: negative duration"},
		// Out of float64 range: a numeric field, not SQL.
		{"overflowing weight", "1e309\tSELECT a FROM t", "line 3: non-finite weight +Inf"},
		{"overflowing duration", "1\t1e400\tSELECT a FROM t", "line 3: non-finite duration +Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Two valid leading lines so the reported line number is load-bearing.
			in := "# header\nSELECT a FROM t WHERE x = 1\n" + tc.line + "\n"
			if _, err := ReadTrace(strings.NewReader(in)); err == nil {
				t.Fatalf("poisoned line %q must be rejected", tc.line)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not carry %q", err, tc.want)
			}
			// The same guard holds on the streaming path.
			err := StreamTrace(strings.NewReader(in), func(*Event, int) error { return nil })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("StreamTrace error %v does not carry %q", err, tc.want)
			}
		})
	}
}

func TestStreamTraceLineNumbersInParseErrors(t *testing.T) {
	in := "SELECT a FROM t\n\n# comment\nSELECT a FROM\n"
	_, err := ReadTrace(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("want line-4 parse error, got %v", err)
	}
}

func TestStreamTraceSinkErrorCarriesLine(t *testing.T) {
	in := "SELECT a FROM t WHERE x = 1\nSELECT a FROM t WHERE x = 2\n"
	n := 0
	err := StreamTrace(strings.NewReader(in), func(*Event, int) error {
		n++
		if n == 2 {
			return fmt.Errorf("sink full")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("sink error not propagated with line: %v", err)
	}
}

func TestStreamTraceMatchesReadTrace(t *testing.T) {
	in := strings.Join([]string{
		"# comment",
		"SELECT a FROM t WHERE x = 1",
		"",
		"5\tSELECT a FROM t WHERE x = 2",
		"3\t1.5\tSELECT b FROM t WHERE y = 9",
		"2\tnot-a-duration\tignored",
	}, "\n")
	// On the last line the duration field fails to parse, so it folds back
	// into the SQL text — which then fails to parse as SQL. Both paths must
	// agree on that error and its line.
	_, rerr := ReadTrace(strings.NewReader(in))
	serr := StreamTrace(strings.NewReader(in), func(*Event, int) error { return nil })
	if rerr == nil || serr == nil || rerr.Error() != serr.Error() {
		t.Fatalf("paths disagree: ReadTrace=%v StreamTrace=%v", rerr, serr)
	}

	valid := strings.Join([]string{
		"SELECT a FROM t WHERE x = 1",
		"5\tSELECT a FROM t WHERE x = 2",
		"3\t1.5\tSELECT b FROM t WHERE y = 9",
	}, "\n") // no trailing newline: the final unterminated line still counts
	w, err := ReadTrace(strings.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []*Event
	if err := StreamTrace(strings.NewReader(valid), func(e *Event, _ int) error {
		streamed = append(streamed, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != w.Len() {
		t.Fatalf("streamed %d events, read %d", len(streamed), w.Len())
	}
	for i, e := range streamed {
		b := w.Events[i]
		if e.SQL != b.SQL || e.Weight != b.Weight || e.Duration != b.Duration {
			t.Fatalf("event %d differs: %+v vs %+v", i, e, b)
		}
	}
}

// parseEveryLine is the reference ingest path for the template-key tests: a
// Compressor fed one freshly parsed, unit-weight event per line.
func parseEveryLine(t *testing.T, lines []string) *Compressor {
	t.Helper()
	c := NewCompressor(CompressOptions{})
	for _, l := range lines {
		stmt, err := sqlparser.Parse(l)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Add(&Event{SQL: l, Stmt: stmt, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// streamLines streams lines through StreamTrace into a Compressor and
// returns it with the events the sink saw.
func streamLines(t *testing.T, lines []string) (*Compressor, []*Event) {
	t.Helper()
	c := NewCompressor(CompressOptions{})
	var seen []*Event
	err := StreamTrace(strings.NewReader(strings.Join(lines, "\n")), func(e *Event, _ int) error {
		seen = append(seen, e)
		return c.Add(e)
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, seen
}

func sameState(t *testing.T, got, want *Compressor) {
	t.Helper()
	g, err := json.Marshal(got.State())
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want.State())
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("compressor state differs from the parse-every-line reference:\n%s\nvs\n%s", g, w)
	}
}

func TestStreamTraceTemplateKeys(t *testing.T) {
	cases := []struct {
		name      string
		lines     []string
		templates int
		parsed    int // events that reach the sink with a statement
	}{
		{"repeats are not parsed", []string{
			"SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 500", "SELECT a FROM t WHERE x = 1000",
		}, 1, 1},
		{"TOP counts are templates", []string{
			"SELECT TOP 5 a FROM t WHERE x = 1", "SELECT TOP 10 a FROM t WHERE x = 1", "SELECT TOP 5 a FROM t WHERE x = 2",
		}, 2, 2},
		{"unary minus parses every event", []string{
			"SELECT a FROM t WHERE x = -5", "SELECT a FROM t WHERE x = -700", "SELECT a FROM t WHERE x = -5",
		}, 1, 3},
		{"IN-list lengths share a template", []string{
			"SELECT a FROM t WHERE x IN (1, 2)", "SELECT a FROM t WHERE x IN (1, 2, 3)", "SELECT a FROM t WHERE x IN (4, 5, 6)",
		}, 1, 2},
		{"keyword case and white space", []string{
			"SELECT a FROM t WHERE x = 1", "select a from t where x = 2", "SELECT  a FROM\tt WHERE x=3",
		}, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, seen := streamLines(t, tc.lines)
			sameState(t, c, parseEveryLine(t, tc.lines))
			if c.Templates() != tc.templates {
				t.Fatalf("%d templates, want %d", c.Templates(), tc.templates)
			}
			parsed := 0
			for _, e := range seen {
				if e.Stmt != nil {
					parsed++
				}
				if err := CheckStreamed(e); err != nil {
					t.Fatal(err)
				}
			}
			if parsed != tc.parsed {
				t.Fatalf("%d events parsed, want %d", parsed, tc.parsed)
			}
		})
	}
}

// An invalid statement never hides behind a known template: a malformed
// line after a known one fails with the parser's own error and its line.
func TestStreamTraceMalformedAfterKnownTemplate(t *testing.T) {
	for _, bad := range []string{
		"SELECT a FROM t WHERE x = 'open", // lexer
		"SELECT a FROM t WHERE x = 1 2",   // parser
		"SELECT a FROM t WHERE x =",       // parser, a prefix of the template
	} {
		in := "SELECT a FROM t WHERE x = 1\n" + bad + "\n"
		_, perr := sqlparser.Parse(bad)
		want := fmt.Sprintf("workload: line 2: %v", perr)
		for name, read := range map[string]func() error{
			"StreamTrace": func() error { return StreamTrace(strings.NewReader(in), func(*Event, int) error { return nil }) },
			"ReadTrace":   func() error { _, err := ReadTrace(strings.NewReader(in)); return err },
		} {
			if err := read(); err == nil || err.Error() != want {
				t.Fatalf("%s of %q: error %v, want %s", name, bad, err, want)
			}
		}
	}
}

// A trace with more distinct template keys than the stream's table holds
// clears the table and re-parses, ending in the same compressor state.
func TestStreamTraceTemplateTableBound(t *testing.T) {
	var lines []string
	for i := 0; i < maxKnownTemplates+100; i++ {
		for j := 0; j < 3; j++ {
			lines = append(lines, fmt.Sprintf("SELECT a FROM t WHERE c%d = %d", i, i+1000*j))
		}
	}
	// The first templates again, after the table was cleared.
	lines = append(lines, lines[:30]...)
	c, seen := streamLines(t, lines)
	sameState(t, c, parseEveryLine(t, lines))
	if c.Templates() <= maxKnownTemplates {
		t.Fatalf("%d templates do not overflow the table bound %d", c.Templates(), maxKnownTemplates)
	}
	unparsed := 0
	for _, e := range seen {
		if err := CheckStreamed(e); err != nil {
			t.Fatal(err)
		}
		if e.Stmt == nil {
			unparsed++
		}
	}
	if want := 2 * (maxKnownTemplates + 100 + 10); unparsed != want {
		t.Fatalf("%d events unparsed, want %d", unparsed, want)
	}
}
