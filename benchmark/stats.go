package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the figure is one or two slow requests, not a
// property of the system.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule. It refuses a percentile with fewer than minBeyond
// samples beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 0.9*100 must not round up to rank 91
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// tailPercentile returns the highest percentile, capped at p99, that
// still has minBeyond samples beyond it, and which percentile that was.
func tailPercentile(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n <= minBeyond {
		return 0, 0
	}
	p := math.Min(0.99, float64(n-minBeyond)/float64(n))
	v, err := percentile(sorted, p)
	if err != nil {
		return 0, 0
	}
	return v, p * 100
}

// median returns the middle value of v (mean of the middle two when even),
// 0 when empty. It does not modify v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// quartileSpread is the distance between the first and third quartile of
// v as a share of its median — the run-to-run spread the bounds are
// judged against. Quartiles follow Python's statistics.quantiles(v, n=4)
// (the "exclusive" method), so the figure matches the driver's.
func quartileSpread(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := sortedCopy(v)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / math.Abs(med)
}
