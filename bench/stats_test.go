package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100} // 10..100
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {95, 100}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 95) != 0 || median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty input must read 0")
	}
}

func TestMedianAndQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) || !near(median(xs), 5.5) {
		t.Errorf("q1 %v median %v q3 %v, want 2.75 5.5 8.25", q1, median(xs), q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if !near(q1, 1) || !near(q3, 4.5) {
		t.Errorf("q1 %v q3 %v, want 1 4.5", q1, q3)
	}
	if got := spreadRatio(xs); !near(got, 1) {
		t.Errorf("spreadRatio = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if spreadRatio([]float64{0, 0, 0}) != 0 {
		t.Error("spreadRatio of zeros must read 0, not NaN")
	}
}

// The closed loop's throughput is the median over cycles of each cycle's own
// rate: one stalled cycle must not move it.
func TestSliceMedianIgnoresOneStalledCycle(t *testing.T) {
	ends := []time.Duration{1 * time.Second, 2 * time.Second, 7 * time.Second, 8 * time.Second, 9 * time.Second}
	var rps []float64
	prev := time.Duration(0)
	for _, e := range ends {
		rps = append(rps, ratio(50, (e-prev).Seconds()))
		prev = e
	}
	if got := median(rps); got != 50 {
		t.Errorf("median slice rate = %v, want 50 (the stalled cycle ran at 10)", got)
	}
	if whole := ratio(250, 9); whole > 30 {
		t.Errorf("whole-window rate %v should show how far a mean is dragged", whole)
	}
}

// lat_p50_ms must respond to every design and must not jump when the pooled
// median crosses the gap between two designs' clusters.
func TestGeomeanOfMediansWeighsEveryGroup(t *testing.T) {
	groups := map[string][]float64{
		"small": {4, 5, 6},
		"large": {70, 80, 90, 1000}, // median 85: the outlier does not count
	}
	if got, want := geomeanOfMedians(groups), math.Sqrt(5*85); !near(got, want) {
		t.Errorf("geomeanOfMedians = %v, want sqrt(5*85) = %v", got, want)
	}
	// Halving the slow design moves the metric by sqrt(2); the pooled median
	// (6 before, 6 after) would not see it.
	groups["large"] = []float64{35, 40, 45, 500}
	if got, want := geomeanOfMedians(groups), math.Sqrt(5*42.5); !near(got, want) {
		t.Errorf("after halving the slow group: %v, want %v", got, want)
	}
	if geomeanOfMedians(nil) != 0 {
		t.Error("no groups must read 0")
	}
}
