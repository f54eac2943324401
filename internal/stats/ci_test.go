package stats

import (
	"math"
	"testing"
)

func TestTCrit95KnownValues(t *testing.T) {
	// Two-sided 95% critical values from the standard printed t-table.
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {3, 3.182}, {4, 2.776}, {5, 2.571},
		{9, 2.262}, {10, 2.228}, {20, 2.086}, {29, 2.045}, {30, 2.042},
		{40, 2.021}, {60, 2.000}, {120, 1.980}, {1000, 1.960}, {1 << 20, 1.960},
	}
	for _, c := range cases {
		if got := TCrit95(c.df); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("TCrit95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	// Between table rows the value must stay bracketed and monotone.
	prev := TCrit95(30)
	for df := 31; df <= 130; df++ {
		got := TCrit95(df)
		if got > prev || got < 1.960 {
			t.Fatalf("TCrit95(%d) = %v not monotone within [1.960, %v]", df, got, prev)
		}
		prev = got
	}
	if TCrit95(0) != 0 || TCrit95(-3) != 0 {
		t.Errorf("TCrit95 of nonpositive df must be 0")
	}
}

func TestCI95(t *testing.T) {
	cases := []struct {
		name     string
		xs       []float64
		mean     float64
		half     float64
		contains []float64
		excludes []float64
	}{
		{
			// n=5, mean 3, sample std 1.581139; half = 2.776*std/sqrt(5).
			name:     "five-point series",
			xs:       []float64{1, 2, 3, 4, 5},
			mean:     3,
			half:     2.776 * math.Sqrt(2.5) / math.Sqrt(5),
			contains: []float64{3, 2, 4.9},
			excludes: []float64{0.5, 5.5},
		},
		{
			// n=2, df=1: half = 12.706*std/sqrt(2), std = sqrt(2)/2... for
			// {10, 12}: mean 11, std sqrt(2), half = 12.706.
			name:     "two points, df 1",
			xs:       []float64{10, 12},
			mean:     11,
			half:     12.706 * math.Sqrt2 / math.Sqrt2,
			contains: []float64{11, 0, 23},
			excludes: []float64{-2, 24},
		},
		{
			name:     "constant series",
			xs:       []float64{7, 7, 7, 7},
			mean:     7,
			half:     0,
			contains: []float64{7},
			excludes: []float64{6.999, 7.001},
		},
		{name: "single sample", xs: []float64{42}, mean: 42, half: 0},
		{name: "empty", xs: nil, mean: 0, half: 0},
	}
	for _, c := range cases {
		ci := CI95(c.xs)
		if math.Abs(ci.Mean-c.mean) > 1e-9 || math.Abs(ci.Half-c.half) > 1e-9 {
			t.Errorf("%s: CI95 = (%v ±%v), want (%v ±%v)", c.name, ci.Mean, ci.Half, c.mean, c.half)
		}
		if ci.N != len(c.xs) {
			t.Errorf("%s: N = %d, want %d", c.name, ci.N, len(c.xs))
		}
		for _, v := range c.contains {
			if !ci.Contains(v) {
				t.Errorf("%s: interval [%v, %v] should contain %v", c.name, ci.Low(), ci.High(), v)
			}
		}
		for _, v := range c.excludes {
			if ci.Contains(v) {
				t.Errorf("%s: interval [%v, %v] should exclude %v", c.name, ci.Low(), ci.High(), v)
			}
		}
	}
}

func TestCIRelHalf(t *testing.T) {
	if got := (CI{Mean: 10, Half: 0.5}).RelHalf(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("RelHalf = %v, want 0.05", got)
	}
	if got := (CI{Mean: -10, Half: 0.5}).RelHalf(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("RelHalf of negative mean = %v, want 0.05", got)
	}
	if got := (CI{Mean: 0, Half: 1}).RelHalf(); !math.IsInf(got, 1) {
		t.Errorf("RelHalf of zero mean = %v, want +Inf", got)
	}
	if got := (CI{}).RelHalf(); got != 0 {
		t.Errorf("RelHalf of degenerate interval = %v, want 0", got)
	}
}

func TestCIString(t *testing.T) {
	if got := (CI{Mean: 1.2345, Half: 0.056, N: 9}).String(); got != "1.23 ±0.06" {
		t.Errorf("String = %q, want %q", got, "1.23 ±0.06")
	}
}

func TestSummarizeSmallSeries(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero Summary", s)
	}
	s := Summarize([]float64{5})
	if s.Mean != 5 || s.Std != 0 || s.Min != 5 || s.Max != 5 {
		t.Errorf("Summarize single = %+v, want Mean/Min/Max 5 and Std 0", s)
	}
	if math.IsNaN(s.Std) {
		t.Errorf("Summarize must not produce NaN Std for n<2")
	}
}
