package main

import (
	"math"
	"testing"
)

var inf = math.Inf(1)

func same(a, b float64) bool {
	return a == b || math.Abs(a-b) < 1e-12 || (math.IsNaN(a) && math.IsNaN(b))
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, math.NaN()},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, inf, 2}, 2},     // one failure among three
		{[]float64{1, inf, inf}, inf}, // a majority of failures
		{[]float64{1, 2, 3, inf}, 2.5},
		{[]float64{1, 2, inf, inf}, inf},
	} {
		if got := median(c.xs); !same(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// computation external tooling applies to the benchmark's output.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 40, 60},
		{[]float64{1, 2, 3, 4, 5, 6, inf}, 2, 4, 6},
		{[]float64{1, 2, 3, 4, 5, inf, inf}, 2, 4, inf},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !same(q1, c.q1) || !same(q2, c.q2) || !same(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one value = %v, want NaN", q1)
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		name  string
		xs    []float64
		pct   float64
		value float64
		ok    bool
	}{
		{"empty", nil, 0, 0, false},
		{"19 samples leave 9 beyond the median", seq(19), 0, 0, false},
		{"20 samples support only the median", seq(20), 50, 10, true},
		{"40 samples reach p75", seq(40), 75, 30, true},
		{"1000 samples reach p99", seq(1000), 99, 990, true},
		{"1009 samples still stop at p99", seq(1009), 99, 999, true},
		{"2000 samples reach p99.5", seq(2000), 99.5, 1990, true},
		{"100000 samples reach p99.99", seq(100000), 99.99, 99990, true},
		{"failures count as +Inf", append(seq(985), inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf), 99, inf, true},
	} {
		pct, value, ok := tail(c.xs)
		if ok != c.ok || pct != c.pct || !same(value, c.value) {
			t.Errorf("%s: tail = p%v %v %v, want p%v %v %v", c.name, pct, value, ok, c.pct, c.value, c.ok)
		}
	}
}
