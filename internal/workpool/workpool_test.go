package workpool

import (
	"sync/atomic"
	"testing"
)

func TestRunVisitsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{4, 0}, {4, 1}, {1, 100}, {0, 7}, {-3, 7}, {4, 100}, {16, 3}, {100, 100}, {3, 1000},
	} {
		hits := make([]atomic.Int32, tc.n)
		Run(tc.workers, tc.n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("Run(%d, %d): index %d visited %d times, want 1", tc.workers, tc.n, i, got)
			}
		}
	}
}

func TestRunNothingToDo(t *testing.T) {
	for _, n := range []int{0, -1} {
		Run(4, n, func(i int) { t.Errorf("Run(4, %d) called fn(%d)", n, i) })
	}
}

// TestRunInlineWhenSerial: with at most one worker (or one index) fn runs on
// the caller's goroutine, in index order. The unsynchronised append is the
// check on the first half — under -race a second goroutine would be reported.
func TestRunInlineWhenSerial(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 50}, {0, 50}, {-1, 50}, {8, 1}} {
		var order []int
		Run(tc.workers, tc.n, func(i int) { order = append(order, i) })
		if len(order) != tc.n {
			t.Fatalf("Run(%d, %d) made %d calls", tc.workers, tc.n, len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("Run(%d, %d): call %d was fn(%d), want index order", tc.workers, tc.n, i, got)
			}
		}
	}
}

// TestRunBoundsConcurrency: no more than workers calls are ever in progress,
// and no more than n.
func TestRunBoundsConcurrency(t *testing.T) {
	for _, tc := range []struct{ workers, n, limit int }{{3, 200, 3}, {16, 4, 4}} {
		var now, peak atomic.Int32
		Run(tc.workers, tc.n, func(int) {
			cur := now.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			now.Add(-1)
		})
		if got := int(peak.Load()); got > tc.limit {
			t.Errorf("Run(%d, %d) ran %d calls at once, want at most %d", tc.workers, tc.n, got, tc.limit)
		}
	}
}
