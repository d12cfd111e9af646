package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method): the driver that
// judges this benchmark's steadiness uses that function, so the spreads
// printed here are the ones it will see. Fewer than two samples yield the
// sample itself three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle of xs (mean of the two middle values for an even
// count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentileSorted reads the p'th percentile (0..100) off an ascending
// slice by the nearest-rank rule; exact virtual latencies need no
// interpolation.
func percentileSorted(s []int64, p float64) int64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// medianInt64 is the nearest-rank median of an unsorted sample; it sorts a
// copy.
func medianInt64(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentileSorted(s, 50)
}
