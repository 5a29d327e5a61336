package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4),
// so spreads printed here match the ones an external checker computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// spread returns the interquartile distance of xs as a share of its
// median: the run-to-run variation the benchmark's bounds are set
// against. It is 0 when it cannot be computed.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// minBeyond is how many samples must lie above a percentile before it
// is reported: with fewer, the "tail" is one or two unlucky samples.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie strictly beyond its rank. ok is false when fewer than
// minBeyond samples lie beyond it, in which case the value must not be
// reported as that percentile.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 100 {
		return 0, 0, false
	}
	// 1-based nearest rank; the epsilon keeps p*n/100 landing exactly on
	// an integer from rounding up past it.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	s := sorted(xs)
	beyond = n - rank
	return s[rank-1], beyond, beyond >= minBeyond
}
