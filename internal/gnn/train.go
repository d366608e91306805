package gnn

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/tensor"
	"repro/internal/workpool"
)

// Sample is one training graph with a category label per module.
type Sample struct {
	G      *Graph
	Labels []string
}

// LossKind selects the metric-learning objective (paper §IV-A cites both
// contrastive and multi-similarity losses).
type LossKind int

const (
	LossContrastive LossKind = iota
	LossMultiSimilarity
)

// TrainConfig configures the trainer.
type TrainConfig struct {
	Loss   LossKind
	LR     float64
	Margin float64 // contrastive margin (L2 distance)
	// Multi-similarity hyperparameters.
	Alpha, Beta, Lambda float64
}

// DefaultTrainConfig returns sensible defaults.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Loss:   LossContrastive,
		LR:     0.01,
		Margin: 1.0,
		Alpha:  2.0,
		Beta:   10.0,
		Lambda: 0.5,
	}
}

// Trainer performs metric-learning training with Adam.
type Trainer struct {
	M       *Model
	Cfg     TrainConfig
	workers int
	step    int
	// Adam first/second moment estimates, matching Grads layout.
	m1, m2 *Grads

	// Step buffers, reused from step to step: a forward state and gradient
	// share per batch graph, the loss's inputs and outputs (offs[i] is graph
	// i's first row in embs), the contrastive diff, and the summed gradient.
	states []forwardState
	shares []gradShare
	embs   [][]float64
	labels []string
	offs   []int
	dEmb   *tensor.Matrix
	dRows  [][]float64
	diff   []float64
	grads  *Grads
}

// NewTrainer creates a trainer for a model. Each step runs the batch's
// graphs on up to workers goroutines (0 = GOMAXPROCS, 1 = serial); the
// trained model is bit-identical for any worker count.
func NewTrainer(m *Model, cfg TrainConfig, workers int) *Trainer {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Trainer{M: m, Cfg: cfg, workers: workers, m1: newGrads(m.cfg), m2: newGrads(m.cfg),
		grads: newGrads(m.cfg), diff: make([]float64, m.cfg.OutDim)}
}

// Step runs one optimization step over the batch and returns the loss.
func (t *Trainer) Step(batch []Sample) (float64, error) {
	if len(batch) == 0 {
		return 0, fmt.Errorf("empty batch")
	}
	for si, s := range batch {
		if len(s.Labels) != s.G.NumModule {
			return 0, fmt.Errorf("sample %d: %d labels for %d modules", si, len(s.Labels), s.G.NumModule)
		}
	}
	if grow := len(batch) - len(t.states); grow > 0 {
		t.states = append(t.states, make([]forwardState, grow)...)
		t.shares = append(t.shares, make([]gradShare, grow)...)
	}
	// Forward every graph on its own worker (the model is only read), then
	// collect module embeddings and labels in batch order.
	workpool.Run(t.workers, len(batch), func(i int) { t.M.forwardInto(&t.states[i], batch[i].G) })
	t.embs, t.labels, t.offs = t.embs[:0], t.labels[:0], t.offs[:0]
	for si, s := range batch {
		t.offs = append(t.offs, len(t.embs))
		for mi := 0; mi < s.G.NumModule; mi++ {
			t.embs = append(t.embs, t.states[si].modules.Row(mi))
			t.labels = append(t.labels, s.Labels[mi])
		}
	}

	var loss float64
	t.dEmb = tensor.EnsureZero(t.dEmb, len(t.embs), t.M.cfg.OutDim)
	t.dRows = t.dRows[:0]
	for i := range t.embs {
		t.dRows = append(t.dRows, t.dEmb.Row(i))
	}
	switch t.Cfg.Loss {
	case LossContrastive:
		loss = contrastiveLoss(t.embs, t.labels, t.Cfg.Margin, t.dRows, t.diff)
	case LossMultiSimilarity:
		loss = multiSimilarityLoss(t.embs, t.labels, t.Cfg, t.dRows)
	default:
		return 0, fmt.Errorf("unknown loss kind %d", t.Cfg.Loss)
	}

	// Backprop every graph into its own share on its own worker, then sum
	// the shares in batch order.
	workpool.Run(t.workers, len(batch), func(i int) {
		lo := t.offs[i]
		t.shares[i].backward(t.M, &t.states[i], t.dRows[lo:lo+batch[i].G.NumModule])
	})
	t.grads.zero()
	for i := range batch {
		t.shares[i].add(t.grads)
	}
	t.applyAdam(t.grads)
	return loss, nil
}

// Train runs full-batch epochs and returns the loss curve.
func (t *Trainer) Train(samples []Sample, epochs int) ([]float64, error) {
	curve := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		l, err := t.Step(samples)
		if err != nil {
			return curve, err
		}
		curve = append(curve, l)
	}
	return curve, nil
}

// contrastiveLoss computes pairwise contrastive loss and fills dEmb.
// Positive pairs are pulled (d^2), negatives pushed to margin. diff is
// scratch of the embedding width.
func contrastiveLoss(embs [][]float64, labels []string, margin float64, dEmb [][]float64, diff []float64) float64 {
	var loss float64
	pairs := 0
	for i := 0; i < len(embs); i++ {
		for j := i + 1; j < len(embs); j++ {
			pairs++
			for k := range diff {
				diff[k] = embs[i][k] - embs[j][k]
			}
			d := tensor.Norm(diff)
			if labels[i] == labels[j] {
				loss += d * d
				tensor.Axpy(dEmb[i], 2, diff)
				tensor.Axpy(dEmb[j], -2, diff)
			} else if d < margin {
				gap := margin - d
				loss += gap * gap
				if d > 1e-9 {
					scale := -2 * gap / d
					tensor.Axpy(dEmb[i], scale, diff)
					tensor.Axpy(dEmb[j], -scale, diff)
				}
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	inv := 1.0 / float64(pairs)
	for i := range dEmb {
		tensor.Scale(dEmb[i], inv)
	}
	return loss * inv
}

// multiSimilarityLoss implements the MS loss of Wang et al. on cosine
// similarities of L2-normalized embeddings, with normalization backprop.
func multiSimilarityLoss(embs [][]float64, labels []string, cfg TrainConfig, dEmb [][]float64) float64 {
	n := len(embs)
	norms := make([]float64, n)
	unit := make([][]float64, n)
	for i := range embs {
		norms[i] = tensor.Norm(embs[i])
		unit[i] = tensor.Normalize(embs[i])
	}
	sim := func(i, j int) float64 { return tensor.Dot(unit[i], unit[j]) }

	var loss float64
	// dSim[i*n+j] accumulates dL/dS_ij; the backprop below walks it in (i, j)
	// order, so the float additions into dEmb run in one fixed order.
	dSim := make([]float64, n*n)
	for i := 0; i < n; i++ {
		var posSum, negSum float64
		var posPairs, negPairs []int
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			s := sim(i, j)
			if labels[i] == labels[j] {
				posSum += math.Exp(-cfg.Alpha * (s - cfg.Lambda))
				posPairs = append(posPairs, j)
			} else {
				negSum += math.Exp(cfg.Beta * (s - cfg.Lambda))
				negPairs = append(negPairs, j)
			}
		}
		if len(posPairs) > 0 {
			loss += math.Log(1+posSum) / cfg.Alpha
			for _, j := range posPairs {
				e := math.Exp(-cfg.Alpha * (sim(i, j) - cfg.Lambda))
				dSim[i*n+j] += -e / (1 + posSum)
			}
		}
		if len(negPairs) > 0 {
			loss += math.Log(1+negSum) / cfg.Beta
			for _, j := range negPairs {
				e := math.Exp(cfg.Beta * (sim(i, j) - cfg.Lambda))
				dSim[i*n+j] += e / (1 + negSum)
			}
		}
	}
	if n == 0 {
		return 0
	}
	// Backprop S_ij = unit_i . unit_j through normalization:
	// dS/dx_i = (unit_j - S*unit_i)/||x_i||.
	for p, g := range dSim {
		i, j := p/n, p%n
		if i == j {
			continue // never a pair
		}
		if norms[i] > 1e-9 {
			s := sim(i, j)
			for k := range dEmb[i] {
				dEmb[i][k] += g * (unit[j][k] - s*unit[i][k]) / norms[i]
			}
		}
		if norms[j] > 1e-9 {
			s := sim(i, j)
			for k := range dEmb[j] {
				dEmb[j][k] += g * (unit[i][k] - s*unit[j][k]) / norms[j]
			}
		}
	}
	inv := 1.0 / float64(n)
	for i := range dEmb {
		tensor.Scale(dEmb[i], inv)
	}
	return loss * inv
}

// applyAdam updates model parameters from accumulated gradients.
func (t *Trainer) applyAdam(g *Grads) {
	t.step++
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	bc1 := 1 - math.Pow(beta1, float64(t.step))
	bc2 := 1 - math.Pow(beta2, float64(t.step))
	update := func(w, grad, m1, m2 []float64) {
		for i := range w {
			m1[i] = beta1*m1[i] + (1-beta1)*grad[i]
			m2[i] = beta2*m2[i] + (1-beta2)*grad[i]*grad[i]
			mh := m1[i] / bc1
			vh := m2[i] / bc2
			w[i] -= t.Cfg.LR * mh / (math.Sqrt(vh) + eps)
		}
	}
	update(t.M.WSelf1.Data, g.WSelf1.Data, t.m1.WSelf1.Data, t.m2.WSelf1.Data)
	update(t.M.WNb1.Data, g.WNb1.Data, t.m1.WNb1.Data, t.m2.WNb1.Data)
	update(t.M.B1, g.B1, t.m1.B1, t.m2.B1)
	update(t.M.WSelf2.Data, g.WSelf2.Data, t.m1.WSelf2.Data, t.m2.WSelf2.Data)
	update(t.M.WNb2.Data, g.WNb2.Data, t.m1.WNb2.Data, t.m2.WNb2.Data)
	update(t.M.B2, g.B2, t.m1.B2, t.m2.B2)
}
