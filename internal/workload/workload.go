// Package workload models the workload a DBA hands to the tuning advisor —
// a set of SQL statements obtained from a profiler-style trace or a SQL
// file — and implements workload compression (paper §5.1): partition the
// workload by query signature (template), then pick a small set of
// representatives per partition with a clustering-based method, so tuning
// time drops dramatically with almost no loss in recommendation quality.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/sqlparser"
)

// Event is one workload statement with its execution weight (how many times
// it runs in the traced interval) and, when known, an observed duration from
// the trace.
type Event struct {
	SQL    string
	Stmt   sqlparser.Statement
	Weight float64
	// Duration is the traced per-execution duration (arbitrary units);
	// zero when the trace carries no timing.
	Duration float64

	// sig and vec memoize Signature() and litVector(Stmt) for events the
	// trace reader built: it knows both from the line's template key, so a
	// repeat of a known template reaches the sink unparsed (Stmt nil). sig
	// is "" for events built any other way, and vec is valid iff sig is set.
	sig string
	vec []lit
}

// Signature returns the event's templatization key.
func (e *Event) Signature() string {
	if e.sig != "" {
		return e.sig
	}
	return sqlparser.Signature(e.Stmt)
}

// template returns the event's signature and constant vector, from the
// trace reader's memos when it set them.
func (e *Event) template() (string, []lit) {
	if e.sig != "" {
		return e.sig, e.vec
	}
	return sqlparser.Signature(e.Stmt), litVector(e.Stmt)
}

// Workload is an ordered multiset of events.
type Workload struct {
	Events []*Event
}

// New parses the given SQL texts into a workload with unit weights.
func New(sqls ...string) (*Workload, error) {
	w := &Workload{}
	for i, q := range sqls {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("workload: statement %d: %w", i+1, err)
		}
		w.Events = append(w.Events, &Event{SQL: q, Stmt: stmt, Weight: 1})
	}
	return w, nil
}

// Statement is the wire form of one weighted workload event — the session
// input the tuning service and the XML schema both decode into.
type Statement struct {
	SQL    string  `json:"sql"`
	Weight float64 `json:"weight,omitempty"`
}

// FromStatements parses weighted statements into a workload. A weight of 0
// counts as 1, mirroring trace semantics; negative or non-finite weights are
// rejected. An empty list is an error: a tuning session needs something to
// tune.
func FromStatements(stmts []Statement) (*Workload, error) {
	w := &Workload{}
	for i, st := range stmts {
		if strings.TrimSpace(st.SQL) == "" {
			return nil, fmt.Errorf("workload: statement %d is empty", i+1)
		}
		if err := w.Add(st.SQL, st.Weight); err != nil {
			return nil, fmt.Errorf("workload: statement %d: %w", i+1, err)
		}
	}
	if w.Len() == 0 {
		return nil, fmt.Errorf("workload: no statements")
	}
	return w, nil
}

// MustNew is New for statically known workloads; it panics on parse errors.
func MustNew(sqls ...string) *Workload {
	w, err := New(sqls...)
	if err != nil {
		panic(err)
	}
	return w
}

// Add appends a parsed statement with the given weight. A weight of 0 means
// "unspecified" and counts as 1; negative, NaN, and ±Inf weights are
// rejected — a single NaN weight would poison TotalWeight and every cost
// comparison the advisor makes (NaN compares false everywhere), so it must
// not enter the workload at all.
func (w *Workload) Add(sql string, weight float64) error {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if err := checkField("weight", weight); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if weight == 0 {
		weight = 1
	}
	w.Events = append(w.Events, &Event{SQL: sql, Stmt: stmt, Weight: weight})
	return nil
}

// Len returns the number of distinct events.
func (w *Workload) Len() int { return len(w.Events) }

// TotalWeight returns the summed event weights (total traced statements).
func (w *Workload) TotalWeight() float64 {
	var t float64
	for _, e := range w.Events {
		t += e.Weight
	}
	return t
}

// Templates partitions the workload by signature, preserving first-seen
// template order.
func (w *Workload) Templates() []Template {
	idx := map[string]int{}
	var out []Template
	for _, e := range w.Events {
		sig := e.Signature()
		i, ok := idx[sig]
		if !ok {
			i = len(out)
			idx[sig] = i
			out = append(out, Template{Signature: sig})
		}
		out[i].Events = append(out[i].Events, e)
	}
	return out
}

// Template is one signature partition of a workload.
type Template struct {
	Signature string
	Events    []*Event
}

// Weight returns the total weight of the template's events.
func (t Template) Weight() float64 {
	var s float64
	for _, e := range t.Events {
		s += e.Weight
	}
	return s
}

// ReadTrace reads a profiler-style trace: one statement per line, with
// optional leading "weight" and "duration" numeric fields separated by tabs:
//
//	SQL
//	weight <TAB> SQL
//	weight <TAB> duration <TAB> SQL
//
// Blank lines and lines starting with '#' are skipped. Lines may be
// arbitrarily long (a giant IN-list is still one statement), parse errors
// and invalid weight/duration fields carry the line number, and non-finite
// or negative numeric fields are rejected. ReadTrace materializes the whole
// trace, and every event it returns is parsed (Stmt set); for traces too
// large to hold in memory, stream it through StreamTrace into a Compressor
// instead.
func ReadTrace(r io.Reader) (*Workload, error) {
	w := &Workload{}
	// Every event is kept, so every event is parsed.
	err := streamTrace(r, true, func(e *Event, _ int) error {
		w.Events = append(w.Events, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// WriteTrace writes the workload in the format ReadTrace consumes.
func WriteTrace(w io.Writer, wl *Workload) error {
	bw := bufio.NewWriter(w)
	for _, e := range wl.Events {
		if _, err := fmt.Fprintf(bw, "%g\t%g\t%s\n", e.Weight, e.Duration, e.SQL); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CompressOptions tunes workload compression.
type CompressOptions struct {
	// MaxPerTemplate caps the representatives kept per template partition
	// (default 4).
	MaxPerTemplate int
	// Threshold stops adding representatives to a partition once the
	// farthest remaining event is within this normalized constant-space
	// distance of an existing representative (default 0.1).
	Threshold float64
}

// Compress implements workload compression (paper §5.1, following the
// technique of Chaudhuri, Gupta, Narasayya [7]): the workload is partitioned
// by statement signature — exploiting the inherent templatization of real
// workloads — and a small subset of each partition is chosen with a greedy
// k-center clustering over the statements' constant vectors. Each surviving
// representative absorbs the weight (and, weighted, the traced duration) of
// the events in its cluster, so the compressed workload preserves total cost
// structure.
//
// Uniform random sampling ignores cost and structure; tuning the top-k
// queries by cost can starve whole templates. Compression avoids both
// failure modes by construction.
//
// Compress is the batch entry point of the online Compressor: it feeds the
// events through one in order, so batch and streaming compression of the
// same input produce identical representatives. An event whose weight or
// duration is invalid (possible only in a hand-built workload — every
// ingestion path rejects them) passes through uncompressed rather than
// poisoning a cluster. An empty workload compresses to an empty workload.
func Compress(w *Workload, opt CompressOptions) *Workload {
	c := NewCompressor(opt)
	var passthrough []*Event
	for _, e := range w.Events {
		if err := c.Add(e); err != nil {
			cp := *e
			passthrough = append(passthrough, &cp)
		}
	}
	out := c.Workload()
	out.Events = append(out.Events, passthrough...)
	return out
}

// lit is a constant in normalized form for distance computation.
type lit struct {
	num   float64
	str   string
	isNum bool
}

func litVector(s sqlparser.Statement) []lit {
	var out []lit
	for _, l := range sqlparser.Constants(s) {
		out = append(out, litOf(l))
	}
	return out
}

// tokenVector is litVector from a template scan's token literals; it equals
// litVector(stmt) when the scan's Parse reports the statement exact.
func tokenVector(ls []sqlparser.Literal) []lit {
	if len(ls) == 0 {
		return nil
	}
	out := make([]lit, len(ls))
	for i := range ls {
		out[i] = litOf(&ls[i])
	}
	return out
}

func litOf(l *sqlparser.Literal) lit {
	switch l.Kind {
	case sqlparser.LitNumber:
		return lit{num: l.F, isNum: true}
	case sqlparser.LitString:
		return lit{str: l.S}
	default:
		return lit{}
	}
}

// litDistance is the normalized L∞ distance between two constant vectors of
// the same template: numeric positions contribute their normalized absolute
// difference; string positions contribute 0 when equal and 1 otherwise.
func litDistance(a, b []lit, scale []float64) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	var d float64
	for p := 0; p < n; p++ {
		if p >= len(a) || p >= len(b) {
			d = max64(d, 1)
			continue
		}
		switch {
		case a[p].isNum && b[p].isNum:
			if scale[p] > 0 {
				d = max64(d, abs64(a[p].num-b[p].num)/scale[p])
			}
		case !a[p].isNum && !b[p].isNum:
			if a[p].str != b[p].str {
				d = max64(d, 1)
			}
		default:
			d = max64(d, 1)
		}
	}
	return d
}

func abs64(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
