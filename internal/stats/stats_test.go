package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCDF(t *testing.T) {
	points := CDF([]float64{1, 1, 2, 4})
	want := []CDFPoint{{1, 0.5}, {2, 0.75}, {4, 1.0}}
	if len(points) != len(want) {
		t.Fatalf("CDF = %v", points)
	}
	for i := range want {
		if points[i] != want[i] {
			t.Errorf("CDF[%d] = %v, want %v", i, points[i], want[i])
		}
	}
	if CDF(nil) != nil {
		t.Error("CDF(nil) != nil")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
		}
		points := CDF(vals)
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
	points := IntCDF([]int{1, 2, 2})
	if len(points) != 2 || points[1].Value != 2 || points[1].Fraction != 1 {
		t.Errorf("IntCDF = %v", points)
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
