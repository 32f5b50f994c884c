package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first, in tenths of a percent so the rank arithmetic is exact.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile applies the reporting rule for tail latencies: the
// highest percentile on tailLadder that has at least ten samples beyond
// it. With fewer than twenty samples no percentile qualifies and the
// median is reported. It returns the percentile used and its value.
func tailPercentile(samples []float64) (pct, value float64) {
	n := len(samples)
	pm := 500
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			pm = p
			break
		}
	}
	return float64(pm) / 10, percentile(samples, pm)
}

// rank is the 1-based nearest rank of the pm-per-mille percentile among
// n samples.
func rank(pm, n int) int { return (pm*n + 999) / 1000 }

// percentile returns the nearest-rank percentile of samples given in
// tenths of a percent (0 for an empty slice). samples is not modified.
func percentile(samples []float64, pm int) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := rank(pm, len(s))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle value (the mean of the two middle values for
// an even count), 0 for an empty slice.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive values; 0 if any value
// is not positive or the slice is empty.
func geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var logSum float64
	for _, v := range values {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(values)))
}

// mean returns the arithmetic mean, 0 for an empty slice.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
