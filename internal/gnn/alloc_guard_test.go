//go:build !race

package gnn

import "testing"

// TestStepAllocGuard pins a steady-state training step. The trainer keeps
// its forward states, gradient shares, loss buffers and summed gradient from
// step to step, so after one warm-up step only the two fan-out closures
// remain. Skipped under -race, which changes allocation counts.
func TestStepAllocGuard(t *testing.T) {
	m := New(Config{InDim: 4, Hidden: 8, OutDim: 6, Agg: AggMean, Seed: 11})
	tr := NewTrainer(m, DefaultTrainConfig(), 1)
	batch := trainSamples(100, 6)
	if _, err := tr.Step(batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tr.Step(batch); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 2
	if allocs > budget {
		t.Errorf("Trainer.Step allocs/op = %v, budget %d", allocs, budget)
	}
}
