package work

import (
	"context"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// TestScopes: a context carries the Counts it was given, a bare one none,
// adds through a nil Counts count nothing, and concurrent adds all land.
func TestScopes(t *testing.T) {
	if c := From(context.Background()); c != nil {
		t.Fatalf("a bare context carries %p", c)
	}
	var nilCounts *Counts
	nilCounts.Add(Parses)
	nilCounts.Dirty(3)

	c := &Counts{DirtyNodes: metrics.NewRegistry().NewHistogram("dirty", "", []float64{1, 8})}
	ctx := With(context.Background(), c)
	if From(ctx) != c {
		t.Fatal("From does not return the Counts With attached")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				From(ctx).Add(FullAnalyses)
			}
			From(ctx).Dirty(2)
		}()
	}
	wg.Wait()
	if got := c.Get(FullAnalyses); got != 800 {
		t.Errorf("full analyses %d, want 800", got)
	}
	if got := c.Get(Parses); got != 0 {
		t.Errorf("parses %d, want 0: nothing was parsed in this scope", got)
	}
	if n, sum := c.DirtyNodes.Count(), c.DirtyNodes.Sum(); n != 8 || sum != 16 {
		t.Errorf("dirty nodes observed %d times summing %v, want 8 and 16", n, sum)
	}
}
