package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples, a median at least 20.
const minBeyond = 10

// percentile is one reported order statistic with its sample count.
type percentile struct {
	P     float64 // e.g. 50 or 99
	Value float64
	N     int // samples the percentile was taken over
}

// percentileOf returns the p-th percentile (nearest rank) of samples.
// It refuses a percentile with fewer than minBeyond samples beyond it,
// since such a tail is one or two unlucky requests, not a measurement.
func percentileOf(samples []float64, p float64) (percentile, error) {
	n := len(samples)
	if beyond := float64(n) * (100 - p) / 100; beyond < minBeyond {
		return percentile{}, fmt.Errorf("p%g of %d samples has %.1f beyond it; need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return percentile{P: p, Value: s[rank], N: n}, nil
}

// median is the middle value (mean of the middle two for even counts);
// it is how every repeated measurement of one run is reduced.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
