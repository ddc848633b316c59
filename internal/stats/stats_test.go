package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// refCDF is the empirical CDF of vals by its definition: sort the
// values, and give each distinct one the share of values at or below
// it.
func refCDF(vals []float64) []CDFPoint {
	if len(vals) == 0 {
		return nil
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	var out []CDFPoint
	n := float64(len(sorted))
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		out = append(out, CDFPoint{Value: sorted[i], Fraction: float64(j) / n})
		i = j
	}
	return out
}

// histogram returns the histogram of vals, as HistCDF takes it.
func histogram(vals []int) []int {
	var hist []int
	for _, v := range vals {
		for len(hist) <= v {
			hist = append(hist, 0)
		}
		hist[v]++
	}
	return hist
}

func TestCDF(t *testing.T) {
	points := HistCDF(histogram([]int{1, 1, 2, 4}))
	want := []CDFPoint{{1, 0.5}, {2, 0.75}, {4, 1.0}}
	if len(points) != len(want) {
		t.Fatalf("HistCDF = %v", points)
	}
	for i := range want {
		if points[i] != want[i] {
			t.Errorf("HistCDF[%d] = %v, want %v", i, points[i], want[i])
		}
	}
	if HistCDF(nil) != nil || HistCDF([]int{0, 0}) != nil {
		t.Error("HistCDF of no values != nil")
	}
}

// TestCDFMonotone: HistCDF gives exactly the definition's points, which
// rise in both value and share and end at 1.
func TestCDFMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]int, len(raw))
		fvals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i], fvals[i] = int(r), float64(r)
		}
		points := HistCDF(histogram(vals))
		if !slices.Equal(points, refCDF(fvals)) {
			return false
		}
		prevV, prevF := math.Inf(-1), 0.0
		for _, p := range points {
			if p.Value <= prevV || p.Fraction <= prevF {
				return false
			}
			prevV, prevF = p.Value, p.Fraction
		}
		return len(points) == 0 || points[len(points)-1].Fraction == 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntCDF(t *testing.T) {
	points := HistCDF(histogram([]int{1, 2, 2}))
	if len(points) != 2 || points[1].Value != 2 || points[1].Fraction != 1 {
		t.Errorf("HistCDF = %v", points)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10},
		{50, 50},
		{100, 100},
		{90, 90},
	}
	for _, tc := range cases {
		got, ok := Percentile(vals, tc.p)
		if !ok || got != tc.want {
			t.Errorf("Percentile(%v) = %v, %v; want %v", tc.p, got, ok, tc.want)
		}
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Error("Percentile(nil) ok")
	}
}

func TestRateAndPct(t *testing.T) {
	if Rate(1, 0) != 0 {
		t.Error("Rate with zero denominator")
	}
	if Rate(1, 4) != 0.25 {
		t.Error("Rate(1,4)")
	}
	if Pct(1, 4) != 25 {
		t.Error("Pct(1,4)")
	}
}
