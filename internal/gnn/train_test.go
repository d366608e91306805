package gnn

import (
	"math"
	"slices"
	"testing"
)

// weightBits returns every parameter of m as raw float bits, in a fixed order.
func weightBits(m *Model) []uint64 {
	var out []uint64
	for _, p := range [][]float64{m.WSelf1.Data, m.WNb1.Data, m.B1, m.WSelf2.Data, m.WNb2.Data, m.B2} {
		for _, v := range p {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

func trainedBits(t *testing.T, loss LossKind, workers int) []uint64 {
	t.Helper()
	m := New(Config{InDim: 4, Hidden: 8, OutDim: 6, Agg: AggMean, Seed: 11})
	cfg := DefaultTrainConfig()
	cfg.Loss = loss
	if _, err := NewTrainer(m, cfg, workers).Train(trainSamples(100, 6), 20); err != nil {
		t.Fatal(err)
	}
	return weightBits(m)
}

// TestTrainingIsReproducible trains twice from one seed under each loss and
// requires bit-identical weights. The multi-similarity loss once summed its
// pair gradients by ranging over a map, so no two runs agreed.
func TestTrainingIsReproducible(t *testing.T) {
	for _, loss := range []LossKind{LossContrastive, LossMultiSimilarity} {
		if !slices.Equal(trainedBits(t, loss, 1), trainedBits(t, loss, 1)) {
			t.Errorf("loss %d: two trainings from one seed differ", loss)
		}
	}
}

// TestTrainingWorkerCountInvariant: the per-graph fan-out sums the gradient
// shares in batch order, so the trained weights do not depend on how many
// workers ran the graphs.
func TestTrainingWorkerCountInvariant(t *testing.T) {
	for _, loss := range []LossKind{LossContrastive, LossMultiSimilarity} {
		serial := trainedBits(t, loss, 1)
		for _, w := range []int{2, 3, 8} {
			if !slices.Equal(serial, trainedBits(t, loss, w)) {
				t.Errorf("loss %d: workers=%d weights differ from serial", loss, w)
			}
		}
	}
}
