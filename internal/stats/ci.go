package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for an empty series).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// CI is a two-sided confidence interval around a sample mean.
type CI struct {
	Mean float64
	Half float64 // half-width: the interval is [Mean-Half, Mean+Half]
	N    int     // sample count the interval was computed from
}

// Low returns the interval's lower bound.
func (c CI) Low() float64 { return c.Mean - c.Half }

// High returns the interval's upper bound.
func (c CI) High() float64 { return c.Mean + c.Half }

// Contains reports whether v falls inside the interval (inclusive).
func (c CI) Contains(v float64) bool { return v >= c.Low() && v <= c.High() }

// RelHalf returns the relative half-width Half/|Mean|: the adaptive
// sampling stop criterion. It returns +Inf for a zero mean with a
// nonzero half-width, and 0 when both are zero (a constant series).
func (c CI) RelHalf() float64 {
	if c.Mean == 0 {
		if c.Half == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return c.Half / math.Abs(c.Mean)
}

// String renders the interval as "mean ±half", the table cell format
// sampled sweeps report.
func (c CI) String() string { return fmt.Sprintf("%.2f ±%.2f", c.Mean, c.Half) }

// tCrit95 holds two-sided 95% Student-t critical values for 1..30
// degrees of freedom; larger df interpolate the standard 40/60/120/∞
// rows. Embedding the table keeps the repo dependency-free — the exact
// inverse CDF would need a special-function library.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit95Tail are the standard table rows beyond df=30, keyed by df.
var tCrit95Tail = []struct {
	df int
	t  float64
}{{40, 2.021}, {60, 2.000}, {120, 1.980}}

// TCrit95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom (df <= 0 returns 0: no interval can be formed).
// Values above 30 follow the conventional printed table: the bracketing
// 40/60/120 rows interpolated linearly in 1/df, 1.960 beyond 120.
func TCrit95(df int) float64 {
	if df <= 0 {
		return 0
	}
	if df <= len(tCrit95) {
		return tCrit95[df-1]
	}
	lo, loT := len(tCrit95), tCrit95[len(tCrit95)-1]
	for _, row := range tCrit95Tail {
		if df <= row.df {
			// Linear in 1/df, the spacing printed t-tables assume.
			f := (1/float64(lo) - 1/float64(df)) / (1/float64(lo) - 1/float64(row.df))
			return loT + f*(row.t-loT)
		}
		lo, loT = row.df, row.t
	}
	return 1.960
}

// CI95 returns the 95% Student-t confidence interval of the mean of xs.
// With fewer than two samples no dispersion estimate exists: the
// half-width is 0 and the caller must treat the interval as degenerate
// (N reports the sample count for exactly this purpose).
func CI95(xs []float64) CI {
	ci := CI{Mean: Mean(xs), N: len(xs)}
	if len(xs) < 2 {
		return ci
	}
	s := Summarize(xs)
	ci.Half = TCrit95(len(xs)-1) * s.Std / math.Sqrt(float64(len(xs)))
	return ci
}
