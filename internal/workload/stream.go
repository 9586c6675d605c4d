package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/sqlparser"
)

// StreamTrace incrementally reads a profiler-style trace in the ReadTrace
// format — one statement per line with optional leading weight and duration
// fields separated by tabs — and hands each event to sink as it arrives,
// together with its 1-based line number. Unlike ReadTrace it never
// materializes the trace: memory use is one line at a time, lines may be
// arbitrarily long (no bufio.Scanner token cap), and a sink that folds
// events into a Compressor tunes multi-million-event traces in
// O(templates × MaxPerTemplate) space.
//
// Each template is parsed once. Every line is lexed into its template key
// (sqlparser.TemplateScanner), and only the first line of each key is
// parsed; it fixes the template's signature. A later line with a known key
// reaches sink with its signature and constant vector already computed and
// Stmt nil, unless the template's constants cannot be read off its tokens
// (a unary minus), in which case the line is parsed too. Compressor.Add
// parses only the events it keeps as representatives, and ReadTrace parses
// every event. A sink that needs a statement of its own parses e.SQL.
//
// Every error — unparseable SQL, a non-finite or negative weight or
// duration, or an I/O failure — is reported with the line it occurred on.
// The *Event passed to sink is freshly allocated and never retained or
// reused by the reader, so the sink may keep it. A non-nil error returned
// by the sink stops the stream and is returned wrapped with the line
// number.
func StreamTrace(r io.Reader, sink func(e *Event, line int) error) error {
	return streamTrace(r, false, sink)
}

// streamTrace is StreamTrace; parseAll gives every event its Stmt.
func streamTrace(r io.Reader, parseAll bool, sink func(e *Event, line int) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	lp := lineParser{parseAll: parseAll}
	lineNo := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return fmt.Errorf("workload: line %d: %w", lineNo+1, err)
		}
		if line != "" {
			lineNo++
			e, perr := lp.parse(line)
			if perr != nil {
				return fmt.Errorf("workload: line %d: %w", lineNo, perr)
			}
			if e != nil {
				if serr := sink(e, lineNo); serr != nil {
					return fmt.Errorf("workload: line %d: %w", lineNo, serr)
				}
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}

// maxKnownTemplates bounds a stream's template table. A trace with more
// distinct keys clears the table when it fills, which costs only re-parses,
// so a stream's memory stays O(1) in its length.
const maxKnownTemplates = 4096

// knownTemplate is what a stream remembers of a template key: the signature
// its first line parsed to, and whether the key's token literals are its
// constant vector (sqlparser.TemplateScanner.Parse's exact).
type knownTemplate struct {
	sig   string
	exact bool
}

// lineParser turns trace lines into events, parsing each template key once.
type lineParser struct {
	sc       sqlparser.TemplateScanner
	known    map[string]knownTemplate
	parseAll bool
}

// parse parses one physical trace line into an event; it returns (nil, nil)
// for blank and comment lines. Weight and duration fields must be finite and
// non-negative: strconv.ParseFloat happily parses "NaN" and "Inf", and a NaN
// weight silently poisons TotalWeight, percent-improvement math, and every
// greedy cost comparison downstream (NaN compares false everywhere, so the
// search loses determinism instead of failing loudly). Rejecting them here,
// with the line number, is the only place the information still exists.
func (lp *lineParser) parse(line string) (*Event, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil, nil
	}
	weight, duration, sql, err := traceFields(line)
	if err != nil {
		return nil, err
	}
	if weight == 0 {
		weight = 1 // unspecified, same convention as Workload.Add
	}
	if err := lp.sc.Scan(sql); err != nil {
		return nil, err
	}
	e := &Event{SQL: sql, Weight: weight, Duration: duration}
	k, hit := lp.known[string(lp.sc.Key())]
	if hit && k.exact && !lp.parseAll {
		e.sig, e.vec = k.sig, tokenVector(lp.sc.Literals())
		return e, nil
	}
	// A new key, a key whose constants the tokens do not spell, or a reader
	// that keeps every statement: parse, from the tokens already lexed. A
	// new key's error is the parser's own, so an invalid statement never
	// hides behind a known template.
	stmt, exact, err := lp.sc.Parse()
	if err != nil {
		return nil, err
	}
	if !hit {
		k = knownTemplate{sig: sqlparser.Signature(stmt), exact: exact}
		if lp.known == nil || len(lp.known) >= maxKnownTemplates {
			lp.known = make(map[string]knownTemplate)
		}
		lp.known[string(lp.sc.Key())] = k
	}
	e.Stmt, e.sig = stmt, k.sig
	if k.exact {
		e.vec = tokenVector(lp.sc.Literals())
	} else {
		e.vec = litVector(stmt)
	}
	return e, nil
}

// traceFields splits a trimmed, non-blank trace line into its weight and
// duration fields (0 when absent) and its SQL. The first tab-separated field
// is a weight when it parses as a number; after a weight, the second field
// is a duration when it does too. Anything that is not a number is SQL. A
// number too large for a float64 is a number — ParseFloat's ErrRange with
// ±Inf — so checkField rejects it as non-finite instead of letting it fall
// through into the SQL.
func traceFields(line string) (weight, duration float64, sql string, err error) {
	tab := strings.IndexByte(line, '\t')
	if tab < 0 {
		return 0, 0, line, nil
	}
	w, ok := numericField(line[:tab])
	if !ok {
		return 0, 0, line, nil
	}
	if err := checkField("weight", w); err != nil {
		return 0, 0, "", err
	}
	rest := line[tab+1:]
	tab = strings.IndexByte(rest, '\t')
	if tab < 0 {
		return w, 0, rest, nil
	}
	d, ok := numericField(rest[:tab])
	if !ok {
		return w, 0, rest, nil
	}
	if err := checkField("duration", d); err != nil {
		return 0, 0, "", err
	}
	return w, d, rest[tab+1:], nil
}

// numericField parses a weight or duration field; a value out of float64
// range counts as numeric (and is ±Inf).
func numericField(s string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return 0, false
	}
	return f, true
}

// checkField rejects the non-finite and negative numeric trace fields that
// would otherwise corrupt downstream weight arithmetic.
func checkField(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("non-finite %s %v", name, v)
	}
	if v < 0 {
		return fmt.Errorf("negative %s %v", name, v)
	}
	return nil
}
