package main

import (
	"math"
	"sort"
)

// Summary digests one metric's samples. The quartiles follow Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), so the spread
// questperf reports is the spread an outside check computes from the same
// values.
type Summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return Summary{N: len(s), Min: s[0], Q1: q1, Median: median(s), Q3: q3, Max: s[len(s)-1]}
}

// spread is the interquartile distance as a share of the median (0 when the
// median is 0).
func (s Summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// median of sorted values.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted values by the exclusive method: for the i-th of the
// n=4 cut points, j = i(len+1)/4 clamped to [1, len-1], interpolated between
// s[j-1] and s[j].
func quartiles(s []float64) (q1, q3 float64) {
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// percentile of sorted values at q in [0, 1], by linear interpolation between
// closest ranks.
func percentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// worsening is how much worse cur is than base, as a share of base, given
// which direction is better ("lower" or "higher"). Negative means better.
func worsening(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	return d
}

// verdict compares a metric's value with a baseline's under its regression
// bound: "regressed" when it worsened by more than the bound, "unresolved"
// when the samples' spread is wider than the bound (a change that small
// cannot be told from noise), and "ok" otherwise.
func verdict(base, cur, spread float64, better string, bound float64) string {
	switch {
	case worsening(base, cur, better) > bound:
		return "regressed"
	case spread > bound:
		return "unresolved"
	default:
		return "ok"
	}
}
