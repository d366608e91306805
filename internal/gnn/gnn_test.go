package gnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// makeGraph builds a synthetic graph of two modules: module 0 nodes carry
// feature pattern A (strong dim 0), module 1 pattern B (strong dim 1), with
// intra-module ring edges.
func makeGraph(rng *rand.Rand, perModule int, patterns [][]float64) *Graph {
	nm := len(patterns)
	n := perModule * nm
	f := len(patterns[0])
	feats := tensor.NewMatrix(n, f)
	adj := make([][]int, n)
	moduleOf := make([]int, n)
	for m := 0; m < nm; m++ {
		base := m * perModule
		for i := 0; i < perModule; i++ {
			v := base + i
			moduleOf[v] = m
			for j := 0; j < f; j++ {
				feats.Set(v, j, patterns[m][j]+0.1*rng.NormFloat64())
			}
			adj[v] = append(adj[v], base+(i+1)%perModule)
			adj[v] = append(adj[v], base+(i+perModule-1)%perModule)
		}
	}
	return &Graph{Feats: feats, Adj: adj, ModuleOf: moduleOf, NumModule: nm}
}

var testPatterns = [][]float64{
	{2, 0, 0, 0.5},
	{0, 2, 0, 0.5},
	{0, 0, 2, 0.5},
}

func TestGraphValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := makeGraph(rng, 5, testPatterns)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Graph{Feats: tensor.NewMatrix(2, 3), Adj: [][]int{{5}, {}}, ModuleOf: []int{0, 0}, NumModule: 1}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range neighbour should fail validation")
	}
	bad2 := &Graph{Feats: tensor.NewMatrix(2, 3), Adj: [][]int{{}, {}}, ModuleOf: []int{0, 3}, NumModule: 1}
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range module should fail validation")
	}
}

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := makeGraph(rng, 6, testPatterns)
	m := New(Config{InDim: 4, Hidden: 8, OutDim: 5, Agg: AggMean, Seed: 7})
	emb := m.Embed(g)
	if emb.Rows != 3 || emb.Cols != 5 {
		t.Fatalf("module embeddings shape %dx%d, want 3x5", emb.Rows, emb.Cols)
	}
	nodes := m.EmbedNodes(g)
	if nodes.Rows != 18 || nodes.Cols != 5 {
		t.Fatalf("node embeddings shape %dx%d, want 18x5", nodes.Rows, nodes.Cols)
	}
	global := m.EmbedGlobal(g)
	if len(global) != 5 {
		t.Fatalf("global embedding length %d, want 5", len(global))
	}
	// Global pooling = mean of module embeddings.
	for j := 0; j < 5; j++ {
		want := (emb.At(0, j) + emb.At(1, j) + emb.At(2, j)) / 3
		if math.Abs(global[j]-want) > 1e-9 {
			t.Errorf("global[%d] = %g, want %g", j, global[j], want)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := makeGraph(rng, 4, testPatterns)
	a := New(Config{InDim: 4, Hidden: 6, OutDim: 4, Agg: AggMean, Seed: 42}).Embed(g)
	b := New(Config{InDim: 4, Hidden: 6, OutDim: 4, Agg: AggMean, Seed: 42}).Embed(g)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed must give identical embeddings")
		}
	}
	c := New(Config{InDim: 4, Hidden: 6, OutDim: 4, Agg: AggMean, Seed: 43}).Embed(g)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different embeddings")
	}
}

func TestAggregators(t *testing.T) {
	// Two nodes, node 0 neighbours {1}, node 1 isolated.
	feats := tensor.NewMatrix(2, 2)
	feats.Set(1, 0, 3)
	feats.Set(1, 1, -1)
	adj := [][]int{{1}, {}}
	aggregate := func(h *tensor.Matrix, adj [][]int, agg Aggregator) *tensor.Matrix {
		out := tensor.NewMatrix(h.Rows, h.Cols)
		aggregateInto(out, h, adj, agg)
		return out
	}
	mean := aggregate(feats, adj, AggMean)
	if mean.At(0, 0) != 3 || mean.At(0, 1) != -1 {
		t.Errorf("mean agg wrong: %v", mean.Row(0))
	}
	if mean.At(1, 0) != 0 {
		t.Error("isolated node should aggregate to zero")
	}
	sum := aggregate(feats, adj, AggSum)
	if sum.At(0, 0) != 3 {
		t.Errorf("sum agg wrong: %v", sum.Row(0))
	}
	maxa := aggregate(feats, adj, AggMax)
	if maxa.At(0, 0) != 3 || maxa.At(0, 1) != -1 {
		t.Errorf("max agg wrong: %v", maxa.Row(0))
	}
}

// clusterQuality measures mean intra-category cosine minus inter-category
// cosine over module embeddings from several graphs.
func clusterQuality(m *Model, samples []Sample) float64 {
	var embs [][]float64
	var labels []string
	for _, s := range samples {
		e := m.Embed(s.G)
		for i := 0; i < e.Rows; i++ {
			embs = append(embs, append([]float64(nil), e.Row(i)...))
			labels = append(labels, s.Labels[i])
		}
	}
	var intra, inter float64
	var ni, nx int
	for i := range embs {
		for j := i + 1; j < len(embs); j++ {
			c := tensor.Cosine(embs[i], embs[j])
			if labels[i] == labels[j] {
				intra += c
				ni++
			} else {
				inter += c
				nx++
			}
		}
	}
	return intra/float64(ni) - inter/float64(nx)
}

func trainSamples(seed int64, n int) []Sample {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"arith", "memory", "control"}
	var out []Sample
	for i := 0; i < n; i++ {
		g := makeGraph(rng, 4+rng.Intn(4), testPatterns)
		out = append(out, Sample{G: g, Labels: labels})
	}
	return out
}

func TestMetricLearningImprovesClustering(t *testing.T) {
	for _, loss := range []LossKind{LossContrastive, LossMultiSimilarity} {
		m := New(Config{InDim: 4, Hidden: 8, OutDim: 6, Agg: AggMean, Seed: 11})
		train := trainSamples(100, 6)
		test := trainSamples(200, 4)
		before := clusterQuality(m, test)
		cfg := DefaultTrainConfig()
		cfg.Loss = loss
		tr := NewTrainer(m, cfg, 0)
		curve, err := tr.Train(train, 60)
		if err != nil {
			t.Fatalf("loss %d: %v", loss, err)
		}
		if curve[len(curve)-1] >= curve[0] {
			t.Errorf("loss %d: did not decrease: %g -> %g", loss, curve[0], curve[len(curve)-1])
		}
		after := clusterQuality(m, test)
		if after <= before {
			t.Errorf("loss %d: clustering quality did not improve: %g -> %g", loss, before, after)
		}
	}
}

func TestTrainerErrors(t *testing.T) {
	m := New(Config{InDim: 4, Hidden: 4, OutDim: 4, Agg: AggMean, Seed: 1})
	tr := NewTrainer(m, DefaultTrainConfig(), 0)
	if _, err := tr.Step(nil); err == nil {
		t.Error("empty batch should error")
	}
	g := makeGraph(rand.New(rand.NewSource(5)), 3, testPatterns)
	if _, err := tr.Step([]Sample{{G: g, Labels: []string{"one"}}}); err == nil {
		t.Error("label count mismatch should error")
	}
}

// Gradient check: numeric vs analytic gradient through the whole network
// over a batch of two tiny graphs (of two and three modules), each
// backpropagated into its own share and the shares summed in batch order.
// Both losses run: the contrastive one sees only differences of embeddings,
// so its bias gradients are zero, and the multi-similarity one checks them.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gs := []*Graph{makeGraph(rng, 3, testPatterns[:2]), makeGraph(rng, 2, testPatterns)}
	labels := []string{"a", "b", "a", "b", "c"}
	for _, kind := range []LossKind{LossContrastive, LossMultiSimilarity} {
		m := New(Config{InDim: 4, Hidden: 5, OutDim: 3, Agg: AggMean, Seed: 21})

		// lossOf runs the forward passes and the loss, returning the states
		// and the per-module embedding gradients.
		lossOf := func() (float64, []*forwardState, [][]float64) {
			var sts []*forwardState
			var embs, dEmb [][]float64
			for _, g := range gs {
				st := m.forward(g)
				sts = append(sts, st)
				for mi := 0; mi < g.NumModule; mi++ {
					embs = append(embs, st.modules.Row(mi))
					dEmb = append(dEmb, make([]float64, 3))
				}
			}
			if kind == LossContrastive {
				return contrastiveLoss(embs, labels, 1.0, dEmb, make([]float64, 3)), sts, dEmb
			}
			return multiSimilarityLoss(embs, labels, DefaultTrainConfig(), dEmb), sts, dEmb
		}
		// Analytic gradient.
		grads := newGrads(m.cfg)
		_, sts, dEmb := lossOf()
		shares := make([]gradShare, len(gs))
		for i, off := 0, 0; i < len(gs); i++ {
			shares[i].backward(m, sts[i], dEmb[off:off+gs[i].NumModule])
			off += gs[i].NumModule
		}
		for i := range shares {
			shares[i].add(grads)
		}

		// Numeric check on a few entries of every parameter.
		check := func(w []float64, gw []float64, name string) {
			const eps = 1e-5
			for _, idx := range []int{0, 3, 7} {
				if idx >= len(w) {
					continue
				}
				orig := w[idx]
				w[idx] = orig + eps
				lp, _, _ := lossOf()
				w[idx] = orig - eps
				lm, _, _ := lossOf()
				w[idx] = orig
				numeric := (lp - lm) / (2 * eps)
				// Some gradients here are ~1e-4, so the bound is relative.
				if math.Abs(numeric-gw[idx]) > 1e-6*math.Abs(numeric)+1e-10 {
					t.Errorf("loss %d: %s[%d]: numeric %g vs analytic %g", kind, name, idx, numeric, gw[idx])
				}
			}
		}
		check(m.WSelf1.Data, grads.WSelf1.Data, "WSelf1")
		check(m.WNb1.Data, grads.WNb1.Data, "WNb1")
		check(m.WSelf2.Data, grads.WSelf2.Data, "WSelf2")
		check(m.WNb2.Data, grads.WNb2.Data, "WNb2")
		check(m.B1, grads.B1, "B1")
		check(m.B2, grads.B2, "B2")
	}
}
