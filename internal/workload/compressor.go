package workload

import (
	"fmt"

	"repro/internal/sqlparser"
)

// Compressor is the online form of workload compression (paper §5.1): it
// maintains, per statement template, a bounded greedy k-center clustering of
// the events seen so far — at most MaxPerTemplate representative events plus
// per-constant-position normalization ranges — and folds every other event's
// weight and traced duration into its nearest representative as it arrives.
//
// Memory is O(templates × MaxPerTemplate) regardless of how many events are
// streamed through, which is what lets a multi-million-event profiler trace
// be ingested without ever materializing it (see StreamTrace). Batch
// Compress is implemented as a Compressor fed the workload in order, so for
// identical in-order input the two produce identical representatives by
// construction.
type Compressor struct {
	maxPer    int
	threshold float64

	bySig map[string]*templateCluster
	order []*templateCluster // first-seen template order

	events int64
	weight float64
}

// templateCluster is the bounded per-template clustering state: the chosen
// representatives with folded weights/durations, their constant vectors, and
// the running numeric range per constant position used to normalize
// distances into [0,1]. The ranges evolve as events arrive; distance
// computations always use the range observed so far, which keeps the
// algorithm deterministic for a given input order.
type templateCluster struct {
	reps []*Event
	vecs [][]lit

	lo, hi []float64 // per-position numeric range
	seen   []bool    // position has seen a numeric value
	scale  []float64 // hi - lo, maintained incrementally
}

// NewCompressor returns an empty online compressor; zero option fields take
// the Compress defaults (4 representatives per template, threshold 0.1).
func NewCompressor(opt CompressOptions) *Compressor {
	maxPer := opt.MaxPerTemplate
	if maxPer <= 0 {
		maxPer = 4
	}
	threshold := opt.Threshold
	if threshold <= 0 {
		threshold = 0.1
	}
	return &Compressor{maxPer: maxPer, threshold: threshold, bySig: map[string]*templateCluster{}}
}

// Add folds one event into the compressor. The event's weight and duration
// must be finite and non-negative (the same guard as Workload.Add — a NaN
// folded in here would poison every representative weight after it); a
// weight of zero counts as 1. The event itself is not retained: a new
// representative is a copy, and when the event came from StreamTrace
// unparsed, the copy is where its SQL is parsed — so a trace costs one
// parse per representative, not per event.
func (c *Compressor) Add(e *Event) error {
	if err := checkField("weight", e.Weight); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if err := checkField("duration", e.Duration); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	w := e.Weight
	if w == 0 {
		w = 1
	}
	sig, vec := e.template()
	t := c.bySig[sig]
	if t == nil {
		t = &templateCluster{}
	}
	t.extend(vec)

	// Nearest representative under the ranges observed so far.
	best, bestD := -1, 0.0
	for i, rv := range t.vecs {
		d := litDistance(vec, rv, t.scale)
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	// Far from every representative and there is room: the event opens its
	// own cluster, as a copy that needs its own statement.
	open := best < 0 || (bestD > c.threshold && len(t.reps) < c.maxPer)
	stmt := e.Stmt
	if open && stmt == nil {
		var err error
		if stmt, err = sqlparser.Parse(e.SQL); err != nil {
			// Unreachable for StreamTrace's events: an unparsed event's
			// template key is that of a statement that parsed.
			return fmt.Errorf("workload: %w", err)
		}
	}
	c.events++
	c.weight += w
	if open {
		if len(t.reps) == 0 {
			c.bySig[sig] = t
			c.order = append(c.order, t)
		}
		cp := *e
		cp.Stmt, cp.Weight = stmt, w
		t.reps = append(t.reps, &cp)
		t.vecs = append(t.vecs, vec)
		return nil
	}
	// Fold weight and traced duration into the nearest representative; the
	// representative's duration stays the weighted mean of its cluster so
	// weight×duration totals survive compression.
	rep := t.reps[best]
	tw := rep.Weight + w
	if tw > 0 {
		rep.Duration = (rep.Duration*rep.Weight + e.Duration*w) / tw
	}
	rep.Weight = tw
	return nil
}

// extend grows the cluster's per-position range state to cover vec and
// updates the ranges with vec's numeric values.
func (t *templateCluster) extend(vec []lit) {
	for len(t.lo) < len(vec) {
		t.lo = append(t.lo, 0)
		t.hi = append(t.hi, 0)
		t.seen = append(t.seen, false)
		t.scale = append(t.scale, 0)
	}
	for p, l := range vec {
		if !l.isNum {
			continue
		}
		if !t.seen[p] {
			t.lo[p], t.hi[p], t.seen[p] = l.num, l.num, true
		} else {
			if l.num < t.lo[p] {
				t.lo[p] = l.num
			}
			if l.num > t.hi[p] {
				t.hi[p] = l.num
			}
		}
		t.scale[p] = t.hi[p] - t.lo[p]
	}
}

// Events returns the number of raw events absorbed so far.
func (c *Compressor) Events() int64 { return c.events }

// TotalWeight returns the summed weight absorbed so far; it equals the
// TotalWeight of the compressed workload.
func (c *Compressor) TotalWeight() float64 { return c.weight }

// Templates returns the number of distinct statement templates seen.
func (c *Compressor) Templates() int { return len(c.order) }

// Len returns the number of representatives currently held — the size of
// Workload() and the compressor's entire retained state, bounded by
// Templates() × MaxPerTemplate.
func (c *Compressor) Len() int {
	n := 0
	for _, t := range c.order {
		n += len(t.reps)
	}
	return n
}

// Ratio returns the compression ratio achieved so far (raw events per
// representative; 1 when nothing folded).
func (c *Compressor) Ratio() float64 {
	if n := c.Len(); n > 0 {
		return float64(c.events) / float64(n)
	}
	return 1
}

// TemplateWeights returns the total folded weight per statement template
// signature. Every event's weight lands in its template's total no matter
// which representative absorbed it, so the result depends only on the
// multiset of events streamed in, not their order (exactly so for the
// integral weights profiler traces carry; fractional weights agree up to
// float summation rounding) — the property the drift scorer's determinism
// rests on.
func (c *Compressor) TemplateWeights() map[string]float64 {
	out := make(map[string]float64, len(c.bySig))
	for sig, t := range c.bySig {
		var w float64
		for _, r := range t.reps {
			w += r.Weight
		}
		out[sig] = w
	}
	return out
}

// Workload returns the compressed workload: the representatives in template
// first-seen order, each carrying its cluster's folded weight and
// weighted-mean duration. The returned events are the compressor's own;
// streaming more events into the compressor after calling Workload mutates
// them, so finish ingesting first.
func (c *Compressor) Workload() *Workload {
	out := &Workload{Events: make([]*Event, 0, c.Len())}
	for _, t := range c.order {
		out.Events = append(out.Events, t.reps...)
	}
	return out
}
