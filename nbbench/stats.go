package main

import (
	"math"
	"sort"
)

// Sample statistics. A failed operation enters a latency sample as +Inf,
// so it counts as missing every latency limit: it sorts above every real
// value and drags any percentile it reaches to +Inf.

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, or the mean of the two middle
// values when len(xs) is even; NaN for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return mean2(s[n/2-1], s[n/2])
}

// mean2 averages two values, keeping +Inf when either is +Inf.
func mean2(a, b float64) float64 {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.Inf(1)
	}
	return (a + b) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads this program reports are the ones external tooling computes
// from the same values. It needs at least two values (NaN otherwise).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		// (s[j-1]*(4-delta) + s[j]*delta) / 4, skipping zero weights so
		// that +Inf times 0 never turns into NaN.
		switch delta {
		case 0:
			q[i-1] = s[j-1]
		case 4:
			q[i-1] = s[j]
		default:
			if math.IsInf(s[j], 1) {
				q[i-1] = math.Inf(1)
			} else {
				q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
			}
		}
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-th percentile of an ascending
// sample, and how many samples lie beyond it.
func percentile(s []float64, p float64) (value float64, beyond int) {
	n := len(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n - rank
}

// tailLadder lists the percentiles tail considers, lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99, 99.999}

// minBeyond is how many samples a reported tail percentile must have
// above it, so that the tail rests on more than a handful of outliers.
const minBeyond = 10

// tail returns the highest percentile of tailLadder that still has at
// least minBeyond samples beyond it, with its value; ok is false when
// even the median lacks that support.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 0, false
	}
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if v, beyond := percentile(s, tailLadder[i]); beyond >= minBeyond {
			return tailLadder[i], v, true
		}
	}
	return 0, 0, false
}
