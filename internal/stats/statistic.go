package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
)

// Statistic is one multi-column statistics object, mirroring what SQL Server
// creates: a histogram on the leading column and density information for
// each leading prefix. Density of a column set is the average fraction of
// rows sharing one value combination — 1/distinct — and is order-insensitive:
// Density(A,B) = Density(B,A) (paper §5.2).
type Statistic struct {
	Table   string
	Columns []string // ordered, lower-case
	Hist    *Histogram
	// Densities[i] is the density of the leading prefix Columns[:i+1].
	Densities []float64
	// SampledPages is the I/O charged when this statistic was created.
	SampledPages int64
}

// Key identifies the statistic by table and ordered column list.
func (s *Statistic) Key() string { return StatKey(s.Table, s.Columns) }

// StatKey builds the canonical key for a statistic request.
func StatKey(table string, cols []string) string {
	lc := make([]string, len(cols))
	for i, c := range cols {
		lc[i] = strings.ToLower(c)
	}
	return strings.ToLower(table) + "(" + strings.Join(lc, ",") + ")"
}

// PrefixDensity returns the density of the first n columns (1-based count).
func (s *Statistic) PrefixDensity(n int) float64 {
	if n <= 0 || n > len(s.Densities) {
		return 1
	}
	return s.Densities[n-1]
}

// String renders the statistic for reports.
func (s *Statistic) String() string {
	return fmt.Sprintf("STATISTICS %s %s", s.Key(), s.Hist)
}

// Sampler provides access to actual column data for statistics creation.
// The engine implements it on the production server; on a test server no
// sampler exists and statistics must be imported (paper §5.3).
type Sampler interface {
	// SampleColumn returns up to n values of the column in its numeric
	// encoding, or nil if the table/column has no data.
	SampleColumn(table, column string, n int) []float64
	// SampleRows returns up to n rows projected to the given columns,
	// for multi-column density estimation.
	SampleRows(table string, columns []string, n int) [][]float64
}

// DefaultSampleRows is the number of rows sampled per statistic.
const DefaultSampleRows = 30000

// Build creates a statistic on the ordered column list of the table. When a
// sampler is available the statistic is computed from sampled data;
// otherwise it is synthesized from catalog metadata under independence and
// uniformity assumptions. The returned statistic carries the sampling I/O
// cost that its creation would impose on the server holding the data.
func Build(cat *catalog.Catalog, table string, cols []string, sampler Sampler) (*Statistic, error) {
	t := cat.ResolveTable(table)
	if t == nil {
		return nil, fmt.Errorf("stats: unknown table %q", table)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("stats: empty column list for table %q", table)
	}
	lc := make([]string, len(cols))
	for i, c := range cols {
		lc[i] = strings.ToLower(c)
		if !t.HasColumn(lc[i]) {
			return nil, fmt.Errorf("stats: table %q has no column %q", table, c)
		}
	}
	st := &Statistic{Table: strings.ToLower(t.Name), Columns: lc}
	// Creating a statistic samples a fixed number of pages from the table
	// regardless of how many columns the statistic has — which is exactly
	// why creating fewer, wider statistics wins (paper §5.2).
	samplePages := catalog.PagesFor(int64(DefaultSampleRows), t.RowWidth())
	if tp := t.Pages(); samplePages > tp {
		samplePages = tp
	}
	st.SampledPages = samplePages

	lead := t.Column(lc[0])
	if sampler != nil {
		if vals := sampler.SampleColumn(t.Name, lc[0], DefaultSampleRows); len(vals) > 0 {
			st.Hist = NewHistogramFromValues(vals, t.Rows, DefaultBuckets)
		}
	}
	if st.Hist == nil {
		st.Hist = NewUniformHistogram(lead.Min, lead.Max, t.Rows, lead.Distinct, DefaultBuckets)
	}

	// Densities per leading prefix.
	if sampler != nil {
		if rows := sampler.SampleRows(t.Name, lc, DefaultSampleRows); len(rows) > 0 {
			st.Densities = densitiesFromSample(rows, t.Rows, len(lc))
		}
	}
	if st.Densities == nil {
		st.Densities = densitiesFromMetadata(t, lc)
	}
	return st, nil
}

// densitiesFromSample estimates prefix densities from sampled rows using a
// first-order scale-up of observed distinct counts.
func densitiesFromSample(rows [][]float64, totalRows int64, ncols int) []float64 {
	out := make([]float64, ncols)
	n := len(rows)
	var buf []byte
	for p := 1; p <= ncols; p++ {
		seen := make(map[string]struct{}, n)
		for _, r := range rows {
			buf = buf[:0]
			for _, v := range r[:p] {
				bits := math.Float64bits(v)
				for shift := 0; shift < 64; shift += 8 {
					buf = append(buf, byte(bits>>shift))
				}
			}
			seen[string(buf)] = struct{}{}
		}
		d := float64(len(seen))
		// If nearly every sampled row is distinct, assume the column scales
		// with the table; otherwise the distinct count is likely saturated.
		if d > 0.9*float64(n) && int64(n) < totalRows {
			d = d * float64(totalRows) / float64(n)
		}
		if d < 1 {
			d = 1
		}
		if d > float64(totalRows) {
			d = float64(totalRows)
		}
		out[p-1] = 1 / d
	}
	return out
}

// densitiesFromMetadata synthesizes prefix densities from per-column
// distinct counts assuming independence, capped by the row count.
func densitiesFromMetadata(t *catalog.Table, cols []string) []float64 {
	out := make([]float64, len(cols))
	distinct := 1.0
	for i, c := range cols {
		distinct *= float64(t.DistinctOf(c))
		if distinct > float64(t.Rows) {
			distinct = float64(t.Rows)
		}
		if distinct < 1 {
			distinct = 1
		}
		out[i] = 1 / distinct
	}
	return out
}

// Store holds the statistics present on one server, keyed by table and
// ordered column list, with fast lookups by leading column and by
// unordered prefix set. A Store is safe for concurrent use: several tuning
// sessions can share one server, creating statistics while others'
// optimizations read them.
type Store struct {
	mu    sync.RWMutex
	stats map[string]*Statistic
	// hists indexes histograms by "table|leadingColumn".
	hists map[string]*Histogram
	// dens indexes prefix densities by "table|sortedColumnSet".
	dens map[string]float64
	// version counts Adds: a reader that saw version v before an
	// optimization and v again after it read one statistics state.
	version atomic.Uint64
}

// NewStore creates an empty statistics store.
func NewStore() *Store {
	return &Store{
		stats: make(map[string]*Statistic),
		hists: make(map[string]*Histogram),
		dens:  make(map[string]float64),
	}
}

// Add registers a statistic (replacing any identical one).
func (s *Store) Add(st *Statistic) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats[st.Key()] = st
	if st.Hist != nil {
		s.hists[st.Table+"|"+st.Columns[0]] = st.Hist
	}
	for p := 1; p <= len(st.Columns) && p <= len(st.Densities); p++ {
		s.dens[st.Table+"|"+canonSet(st.Columns[:p])] = st.Densities[p-1]
	}
	s.version.Add(1)
}

// Version returns the number of Adds so far. It only grows, and it is
// bumped under the write lock, so a lookup that follows a Version read
// sees at least the statistics that version counts: equal versions before
// and after a computation mean it read one statistics state.
func (s *Store) Version() uint64 { return s.version.Load() }

// Lookup returns the statistic with exactly this ordered column list, or nil.
func (s *Store) Lookup(table string, cols []string) *Statistic {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats[StatKey(table, cols)]
}

// Has reports whether an exact statistic exists.
func (s *Store) Has(table string, cols []string) bool {
	return s.Lookup(table, cols) != nil
}

// Len returns the number of statistics in the store.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.stats)
}

// All returns the statistics in deterministic (key) order.
func (s *Store) All() []*Statistic {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.stats))
	for k := range s.stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Statistic, len(keys))
	for i, k := range keys {
		out[i] = s.stats[k]
	}
	return out
}

// HistogramFor returns a histogram on the column: any statistic whose
// leading column matches serves (SQL Server behaviour: histograms exist only
// on leading columns).
func (s *Store) HistogramFor(table, column string) *Histogram {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hists[strings.ToLower(table)+"|"+strings.ToLower(column)]
}

// DensityFor returns the density of the unordered column set if any
// statistic has exactly that set as a leading prefix (in any order) —
// density is order-insensitive. The second result reports availability.
func (s *Store) DensityFor(table string, cols []string) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.dens[strings.ToLower(table)+"|"+canonSet(cols)]
	return d, ok
}

// CoversHistogram reports whether a histogram on the column exists.
func (s *Store) CoversHistogram(table, column string) bool {
	return s.HistogramFor(table, column) != nil
}

// Clone returns a copy of the store sharing the (immutable) statistics.
func (s *Store) Clone() *Store {
	out := NewStore()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, v := range s.stats {
		out.Add(v)
	}
	return out
}

func canonSet(cols []string) string {
	lc := make([]string, len(cols))
	for i, c := range cols {
		lc[i] = strings.ToLower(c)
	}
	sort.Strings(lc)
	return strings.Join(lc, ",")
}
