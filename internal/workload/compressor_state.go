package workload

import (
	"fmt"
	"math"

	"repro/internal/sqlparser"
)

// CompressorState is the serializable form of a Compressor's entire retained
// state: the per-template representatives with their folded weights and
// durations, and the per-constant-position normalization ranges the distance
// computations depend on. RestoreCompressor rebuilds a compressor that is
// behaviourally identical to the snapshotted one — feeding both the same
// subsequent events produces the same representatives, weights, and template
// distribution — which is what lets a continuous tuning daemon survive a
// server restart without replaying its whole trace. Float fields round-trip
// exactly through encoding/json (shortest round-trip formatting), so a
// snapshot-restore cycle is lossless.
type CompressorState struct {
	// MaxPerTemplate and Threshold pin the clustering knobs the compressor
	// ran under; a restore under different knobs would diverge.
	MaxPerTemplate int     `json:"maxPerTemplate"`
	Threshold      float64 `json:"threshold"`
	// Events and Weight are the raw-event count and summed weight absorbed.
	Events int64   `json:"events"`
	Weight float64 `json:"weight"`
	// Templates holds the per-template clustering state in first-seen order.
	Templates []TemplateState `json:"templates,omitempty"`
}

// TemplateState is one template's snapshotted clustering state.
type TemplateState struct {
	// Reps are the representatives in creation order.
	Reps []RepState `json:"reps"`
	// Lo, Hi, and Seen are the per-constant-position numeric ranges observed
	// across every event of the template (not only the kept representatives).
	Lo   []float64 `json:"lo,omitempty"`
	Hi   []float64 `json:"hi,omitempty"`
	Seen []bool    `json:"seen,omitempty"`
}

// RepState is one representative event in serializable form; the parsed
// statement and constant vector are rebuilt from SQL on restore.
type RepState struct {
	SQL      string  `json:"sql"`
	Weight   float64 `json:"weight"`
	Duration float64 `json:"duration,omitempty"`
}

// State snapshots the compressor. The snapshot copies every mutable field,
// so streaming more events into the compressor afterwards does not alter it.
func (c *Compressor) State() *CompressorState {
	st := &CompressorState{
		MaxPerTemplate: c.maxPer,
		Threshold:      c.threshold,
		Events:         c.events,
		Weight:         c.weight,
	}
	for _, t := range c.order {
		ts := TemplateState{
			Lo:   append([]float64(nil), t.lo...),
			Hi:   append([]float64(nil), t.hi...),
			Seen: append([]bool(nil), t.seen...),
		}
		for _, r := range t.reps {
			ts.Reps = append(ts.Reps, RepState{SQL: r.SQL, Weight: r.Weight, Duration: r.Duration})
		}
		st.Templates = append(st.Templates, ts)
	}
	return st
}

// RestoreCompressor rebuilds a compressor from a snapshot. Representative
// statements are re-parsed and their constant vectors recomputed — both are
// pure functions of the SQL — while the range state is taken verbatim from
// the snapshot. A snapshot Add could never have produced is an error, and
// the message names the template: SQL that no longer parses or mixes
// templates; range arrays that are inconsistent, non-finite, or hold a seen
// position with lo > hi; negative or non-finite weights, durations or
// totals; knobs that are not positive and finite; more representatives in a
// template than MaxPerTemplate, or in all than events.
func RestoreCompressor(st *CompressorState) (*Compressor, error) {
	if st == nil {
		return nil, fmt.Errorf("workload: nil compressor state")
	}
	if st.MaxPerTemplate <= 0 || !(st.Threshold > 0) || math.IsInf(st.Threshold, 0) {
		return nil, fmt.Errorf("workload: compressor state knobs maxPerTemplate %d, threshold %v must be positive and finite", st.MaxPerTemplate, st.Threshold)
	}
	if st.Events < 0 {
		return nil, fmt.Errorf("workload: compressor state has negative events %d", st.Events)
	}
	if err := checkField("weight", st.Weight); err != nil {
		return nil, fmt.Errorf("workload: compressor state: %w", err)
	}
	c := NewCompressor(CompressOptions{MaxPerTemplate: st.MaxPerTemplate, Threshold: st.Threshold})
	c.events = st.Events
	c.weight = st.Weight
	for i, ts := range st.Templates {
		if len(ts.Reps) == 0 {
			return nil, fmt.Errorf("workload: compressor state template %d has no representatives", i)
		}
		if len(ts.Reps) > c.maxPer {
			return nil, fmt.Errorf("workload: compressor state template %d has %d representatives, more than maxPerTemplate %d", i, len(ts.Reps), c.maxPer)
		}
		if len(ts.Lo) != len(ts.Hi) || len(ts.Lo) != len(ts.Seen) {
			return nil, fmt.Errorf("workload: compressor state template %d has inconsistent range arrays", i)
		}
		t := &templateCluster{
			lo:    append([]float64(nil), ts.Lo...),
			hi:    append([]float64(nil), ts.Hi...),
			seen:  append([]bool(nil), ts.Seen...),
			scale: make([]float64, len(ts.Lo)),
		}
		for p := range t.lo {
			if math.IsNaN(t.lo[p]) || math.IsInf(t.lo[p], 0) || math.IsNaN(t.hi[p]) || math.IsInf(t.hi[p], 0) {
				return nil, fmt.Errorf("workload: compressor state template %d has a non-finite range at position %d", i, p)
			}
			if t.seen[p] && t.lo[p] > t.hi[p] {
				return nil, fmt.Errorf("workload: compressor state template %d has lo %v > hi %v at position %d", i, t.lo[p], t.hi[p], p)
			}
			t.scale[p] = t.hi[p] - t.lo[p]
		}
		var sig string
		for j, r := range ts.Reps {
			if err := checkField("weight", r.Weight); err != nil {
				return nil, fmt.Errorf("workload: compressor state template %d rep %d: %w", i, j, err)
			}
			if err := checkField("duration", r.Duration); err != nil {
				return nil, fmt.Errorf("workload: compressor state template %d rep %d: %w", i, j, err)
			}
			stmt, err := sqlparser.Parse(r.SQL)
			if err != nil {
				return nil, fmt.Errorf("workload: compressor state template %d rep %d: %w", i, j, err)
			}
			e := &Event{SQL: r.SQL, Stmt: stmt, Weight: r.Weight, Duration: r.Duration}
			if j == 0 {
				sig = e.Signature()
			} else if got := e.Signature(); got != sig {
				return nil, fmt.Errorf("workload: compressor state template %d mixes signatures %q and %q", i, sig, got)
			}
			vec := litVector(stmt)
			if len(vec) > len(t.lo) {
				return nil, fmt.Errorf("workload: compressor state template %d rep %d has %d constants but ranges cover %d", i, j, len(vec), len(t.lo))
			}
			t.reps = append(t.reps, e)
			t.vecs = append(t.vecs, vec)
		}
		if _, dup := c.bySig[sig]; dup {
			return nil, fmt.Errorf("workload: compressor state repeats template signature %q", sig)
		}
		c.bySig[sig] = t
		c.order = append(c.order, t)
	}
	if reps := c.Len(); c.events < int64(reps) {
		return nil, fmt.Errorf("workload: compressor state has %d events but %d representatives", c.events, reps)
	}
	return c, nil
}
