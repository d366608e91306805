package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest value with at least p% of the samples at or below it. It
// never interpolates, so the result is always a latency that was observed.
// Returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value of xs (mean of the two middle values for an
// even count). Returns 0 for an empty slice.
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

// geomeanOfMedians is the geometric mean over groups of each group's median.
// Request latency is a mixture of one cluster per design (5 ms to 100 ms), and
// the median of the pooled mixture sits in a gap between clusters, where a
// small shift moves it a long way and a change to any design above it moves
// it not at all. The per-design medians are each inside a cluster; their
// geometric mean responds to every design in proportion. Returns 0 for no
// groups.
func geomeanOfMedians(groups map[string][]float64) float64 {
	if len(groups) == 0 {
		return 0
	}
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names) // a fixed summation order: the same samples give the same digits
	var logSum float64
	for _, name := range names {
		logSum += math.Log(median(groups[name]))
	}
	return math.Exp(logSum / float64(len(names)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile of xs by the exclusive
// method — the cut points Python's statistics.quantiles(xs, n=4) gives, which
// is what the driver uses to judge run-to-run spread. Needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
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
	return cut(1), cut(3)
}

// spreadRatio is the interquartile range of xs as a share of its median: the
// run's own noise reading. Returns 0 when the median is 0.
func spreadRatio(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// ratio is num/den, 0 when den is 0 — for per-request and hit ratios whose
// denominator is legitimately zero on workloads that bypass the layer.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
