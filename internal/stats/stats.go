// Package stats provides the small statistical helpers the analyses use:
// CDFs, percentiles, and rate helpers.
package stats

import "sort"

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64 // P(X <= Value)
}

// HistCDF computes the empirical CDF of the integer values whose
// histogram is hist (hist[v] of them equal v): one point per value
// present, ascending, at the share of values at or below it — point for
// point what sorting the values themselves and walking them gives,
// without the values. It returns nil when hist counts nothing.
func HistCDF(hist []int) []CDFPoint {
	total := 0
	for _, k := range hist {
		total += k
	}
	var out []CDFPoint
	below := 0
	for v, k := range hist {
		if k == 0 {
			continue
		}
		below += k
		out = append(out, CDFPoint{Value: float64(v), Fraction: float64(below) / float64(total)})
	}
	return out
}

// Percentile returns the p-th percentile (0..100) of vals using
// nearest-rank on a sorted copy. ok is false for empty input.
func Percentile(vals []float64, p float64) (float64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0], true
	}
	if p >= 100 {
		return sorted[len(sorted)-1], true
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank], true
}

// Rate returns num/den as a fraction, or 0 when den is 0.
func Rate(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Pct returns num/den as a percentage, or 0 when den is 0.
func Pct(num, den int) float64 {
	return Rate(num, den) * 100
}
