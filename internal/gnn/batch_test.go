package gnn

import (
	"math/rand"
	"testing"
)

// TestEmbedBatchByteIdentical: EmbedGlobalBatch must return, for every
// aggregator, exactly the bits EmbedGlobal returns for each graph.
func TestEmbedBatchByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gs := []*Graph{
		makeGraph(rng, 4, testPatterns),
		makeGraph(rng, 7, testPatterns[:2]),
		makeGraph(rng, 2, testPatterns),
		makeGraph(rng, 9, testPatterns[:1]),
	}
	for _, agg := range []Aggregator{AggMean, AggMax, AggSum} {
		m := New(Config{InDim: len(testPatterns[0]), Hidden: 8, OutDim: 5, Agg: agg, Seed: 3})
		batched := m.EmbedGlobalBatch(gs)
		if len(batched) != len(gs) {
			t.Fatalf("agg %d: EmbedGlobalBatch returned %d results for %d graphs", agg, len(batched), len(gs))
		}
		for i, g := range gs {
			serial := m.EmbedGlobal(g)
			for j := range serial {
				if serial[j] != batched[i][j] {
					t.Errorf("agg %d graph %d: global[%d] batched %v != serial %v",
						agg, i, j, batched[i][j], serial[j])
					break
				}
			}
		}
	}
}

func TestEmbedBatchEdgeCases(t *testing.T) {
	m := New(Config{InDim: 4, Hidden: 6, OutDim: 3, Agg: AggMean, Seed: 1})
	if got := m.EmbedGlobalBatch(nil); got != nil {
		t.Errorf("EmbedGlobalBatch(nil) = %v, want nil", got)
	}
	g := makeGraph(rand.New(rand.NewSource(5)), 3, testPatterns)
	one, serial := m.EmbedGlobalBatch([]*Graph{g}), m.EmbedGlobal(g)
	if len(one) != 1 || len(one[0]) != len(serial) {
		t.Fatalf("single-graph batch = %v, want [%v]", one, serial)
	}
	for j := range serial {
		if one[0][j] != serial[j] {
			t.Fatalf("single-graph batch = %v, want [%v]", one[0], serial)
		}
	}
}
