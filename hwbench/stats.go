package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the quantiles the tail metric may report, highest
// first. A coarse ladder keeps the reported percentile the same across
// runs whose sample counts differ by up to a factor of two or more: p75
// for 40..99 samples, p90 for 100..999, p99 from 1000.
var tailLadder = []float64{0.99, 0.9, 0.75}

// minTailSamples is the sample count below which a tail percentile
// would have fewer than ten samples beyond it even at the ladder's
// lowest rung; below it the tail metric reports the median.
const minTailSamples = 40

// tailQuantile returns the highest ladder quantile that leaves at least
// ten of n samples beyond it, or 0.5 (the median) when n < 40.
func tailQuantile(n int) float64 {
	if n < minTailSamples {
		return 0.5
	}
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

// quantile returns the nearest-rank q-quantile of xs (q = 0.5 gives the
// median, averaging the middle pair for an even count). xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 {
		m := len(s) / 2
		if len(s)%2 == 0 {
			return (s[m-1] + s[m]) / 2
		}
		return s[m]
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durMedian is the median of ds in the unit of per.
func durMedian(ds []time.Duration, per time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(per)
	}
	return median(xs)
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
