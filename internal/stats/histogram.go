// Package stats implements the statistics subsystem the optimizer relies on:
// single-column histograms with multi-column density information (the shape
// SQL Server creates for a statistic on columns (A,B,C): a histogram on the
// leading column A and densities for each leading prefix (A), (A,B), (A,B,C)
// — paper §5.2), sampled statistic creation with I/O accounting, selectivity
// estimation, and the reduced-statistics-creation greedy algorithm.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// DefaultBuckets is the number of histogram steps built per statistic.
const DefaultBuckets = 64

// Histogram is an equi-depth histogram over numeric values (strings are
// dictionary-encoded upstream).
type Histogram struct {
	Min       float64
	TotalRows float64
	Buckets   []Bucket
}

// Bucket covers the half-open value range (prevHi, Hi] — with the first
// bucket covering [Min, Hi] — holding Rows rows and Distinct distinct values.
type Bucket struct {
	Hi       float64
	Rows     float64
	Distinct float64
}

// NewHistogramFromValues builds an equi-depth histogram from a sorted-or-not
// sample of values, scaled so the histogram's total mass equals totalRows.
func NewHistogramFromValues(values []float64, totalRows int64, buckets int) *Histogram {
	if len(values) == 0 || totalRows <= 0 {
		return &Histogram{TotalRows: float64(totalRows)}
	}
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if buckets > len(v) {
		buckets = len(v)
	}
	scale := float64(totalRows) / float64(len(v))
	h := &Histogram{Min: v[0], TotalRows: float64(totalRows)}
	per := len(v) / buckets
	rem := len(v) % buckets
	idx := 0
	for b := 0; b < buckets; b++ {
		n := per
		if b < rem {
			n++
		}
		if n == 0 {
			continue
		}
		chunk := v[idx : idx+n]
		idx += n
		distinct := 1.0
		for i := 1; i < len(chunk); i++ {
			if chunk[i] != chunk[i-1] {
				distinct++
			}
		}
		h.Buckets = append(h.Buckets, Bucket{
			Hi:       chunk[len(chunk)-1],
			Rows:     float64(n) * scale,
			Distinct: distinct,
		})
	}
	// Merge buckets that ended on the same Hi (possible with heavy dups).
	merged := h.Buckets[:0]
	for _, b := range h.Buckets {
		if n := len(merged); n > 0 && merged[n-1].Hi == b.Hi {
			merged[n-1].Rows += b.Rows
			continue
		}
		merged = append(merged, b)
	}
	h.Buckets = merged
	return h
}

// NewUniformHistogram synthesizes a histogram for a column assumed uniform
// over [min, max] with the given row and distinct counts. Used when only
// catalog metadata (no data) is available.
func NewUniformHistogram(min, max float64, rows, distinct int64, buckets int) *Histogram {
	if rows <= 0 {
		return &Histogram{TotalRows: 0}
	}
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	if distinct <= 0 {
		distinct = rows
	}
	if int64(buckets) > distinct {
		buckets = int(distinct)
	}
	if max < min {
		max = min
	}
	h := &Histogram{Min: min, TotalRows: float64(rows)}
	span := max - min
	for b := 1; b <= buckets; b++ {
		hi := min + span*float64(b)/float64(buckets)
		h.Buckets = append(h.Buckets, Bucket{
			Hi:       hi,
			Rows:     float64(rows) / float64(buckets),
			Distinct: float64(distinct) / float64(buckets),
		})
	}
	return h
}

// Rows returns the total row mass of the histogram.
func (h *Histogram) Rows() float64 {
	if h == nil {
		return 0
	}
	return h.TotalRows
}

// Max returns the upper bound of the histogram's domain.
func (h *Histogram) Max() float64 {
	if h == nil || len(h.Buckets) == 0 {
		return 0
	}
	return h.Buckets[len(h.Buckets)-1].Hi
}

// SelLess estimates the fraction of rows with value < v (strict), using
// linear interpolation within the containing bucket.
func (h *Histogram) SelLess(v float64) float64 {
	if h == nil || h.TotalRows <= 0 || len(h.Buckets) == 0 {
		return 0.3 // guess in the absence of a histogram
	}
	if v <= h.Min {
		return 0
	}
	lo := h.Min
	var acc float64
	for _, b := range h.Buckets {
		if v > b.Hi {
			acc += b.Rows
			lo = b.Hi
			continue
		}
		width := b.Hi - lo
		if width <= 0 {
			// Point bucket: v in (lo, hi] with lo==hi means v==hi; strict
			// less-than excludes the bucket.
			break
		}
		acc += b.Rows * (v - lo) / width
		break
	}
	return clamp01(acc / h.TotalRows)
}

// SelEq estimates the fraction of rows with value == v.
func (h *Histogram) SelEq(v float64) float64 {
	if h == nil || h.TotalRows <= 0 || len(h.Buckets) == 0 {
		return 0.01
	}
	if v < h.Min {
		return 0
	}
	lo := h.Min
	for _, b := range h.Buckets {
		if v > b.Hi {
			lo = b.Hi
			continue
		}
		_ = lo
		d := b.Distinct
		if d < 1 {
			d = 1
		}
		return clamp01((b.Rows / d) / h.TotalRows)
	}
	return 0
}

// SelRange estimates the fraction of rows in the range between lo and hi.
// Either bound may be infinite (use math.Inf). Inclusive bounds widen the
// estimate by the equality mass at the bound.
func (h *Histogram) SelRange(lo, hi float64, incLo, incHi bool) float64 {
	if h == nil {
		return 0.3
	}
	if hi < lo {
		return 0
	}
	s := h.SelLess(hi) - h.SelLess(lo)
	if incHi && !math.IsInf(hi, 1) {
		s += h.SelEq(hi)
	}
	if !incLo && !math.IsInf(lo, -1) {
		s -= h.SelEq(lo)
	}
	return clamp01(s)
}

// String renders a compact description for debugging.
func (h *Histogram) String() string {
	if h == nil {
		return "hist(nil)"
	}
	return fmt.Sprintf("hist(rows=%.0f steps=%d min=%g max=%g)", h.TotalRows, len(h.Buckets), h.Min, h.Max())
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	if math.IsNaN(f) {
		return 0
	}
	return f
}
