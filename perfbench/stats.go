package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples a reported percentile must have beyond
// it: a p90 needs at least 100 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank. It
// refuses when fewer than minBeyond samples lie above the rank, because
// such a percentile is set by one or two samples and does not repeat.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, max(n-rank, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value of xs (the mean of the middle two for an even
// count), or 0 for none. It summarises repeated passes of one run, where
// the sample count is fixed by the benchmark rather than by traffic.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
