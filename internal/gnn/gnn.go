// Package gnn implements the hierarchical GraphSAGE network CircuitMentor
// uses to embed circuit modules (paper §IV-A, Eq. 3): two SAGE layers with a
// mean/max/sum neighbourhood aggregator, per-module mean pooling into module
// embeddings, and global mean pooling into a design embedding. Training uses
// metric learning (contrastive or multi-similarity loss) so same-category
// modules cluster in the embedding space, with gradients computed by full
// backpropagation through the pooling and aggregation operators.
package gnn

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// Graph is one circuit graph: node features, adjacency (undirected
// neighbour lists), and the module each node belongs to.
type Graph struct {
	Feats     *tensor.Matrix // N x F input features
	Adj       [][]int        // neighbour lists, N entries
	ModuleOf  []int          // node -> module index, N entries
	NumModule int
}

// Validate checks internal consistency.
func (g *Graph) Validate() error {
	n := g.Feats.Rows
	if len(g.Adj) != n || len(g.ModuleOf) != n {
		return fmt.Errorf("graph size mismatch: feats %d, adj %d, moduleOf %d", n, len(g.Adj), len(g.ModuleOf))
	}
	for i, nbrs := range g.Adj {
		for _, u := range nbrs {
			if u < 0 || u >= n {
				return fmt.Errorf("node %d has out-of-range neighbour %d", i, u)
			}
		}
	}
	for i, m := range g.ModuleOf {
		if m < 0 || m >= g.NumModule {
			return fmt.Errorf("node %d has out-of-range module %d", i, m)
		}
	}
	return nil
}

// Aggregator selects the neighbourhood aggregation function.
type Aggregator int

const (
	AggMean Aggregator = iota
	AggMax
	AggSum
)

// Config describes the model shape.
type Config struct {
	InDim  int
	Hidden int
	OutDim int
	Agg    Aggregator
	Seed   int64
}

// Model is a two-layer GraphSAGE with hierarchical pooling.
type Model struct {
	cfg Config
	// Layer parameters: self and neighbour weights plus bias.
	WSelf1, WNb1 *tensor.Matrix
	B1           []float64
	WSelf2, WNb2 *tensor.Matrix
	B2           []float64
}

// New creates a model with seeded Xavier initialization.
func New(cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Model{
		cfg:    cfg,
		WSelf1: tensor.NewRandom(cfg.InDim, cfg.Hidden, rng),
		WNb1:   tensor.NewRandom(cfg.InDim, cfg.Hidden, rng),
		B1:     make([]float64, cfg.Hidden),
		WSelf2: tensor.NewRandom(cfg.Hidden, cfg.OutDim, rng),
		WNb2:   tensor.NewRandom(cfg.Hidden, cfg.OutDim, rng),
		B2:     make([]float64, cfg.OutDim),
	}
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// aggParallelWork is the gather size (neighbour rows times feature width)
// above which aggregate fans out across cores. Each output row is gathered
// entirely by one goroutine in neighbour-list order, so the parallel path is
// bit-identical to the serial one.
const aggParallelWork = 1 << 17

// aggregateInto applies the neighbourhood aggregator: out[v] = agg(h[u] for
// u in N(v)), writing into out, a zeroed h.Rows×h.Cols matrix. Isolated
// nodes aggregate to zero. Large graphs aggregate with output rows sharded
// across cores; h is only read.
func aggregateInto(out, h *tensor.Matrix, adj [][]int, agg Aggregator) {
	edges := 0
	for _, nbrs := range adj {
		edges += len(nbrs)
	}
	if edges*h.Cols >= aggParallelWork && runtime.GOMAXPROCS(0) > 1 {
		tensor.ParallelRows(len(adj), func(lo, hi int) {
			aggregateRows(out, h, adj[lo:hi], lo, agg)
		})
	} else {
		aggregateRows(out, h, adj, 0, agg)
	}
}

func aggregateRows(out, h *tensor.Matrix, adj [][]int, base int, agg Aggregator) {
	for dv, nbrs := range adj {
		v := base + dv
		if len(nbrs) == 0 {
			continue
		}
		orow := out.Row(v)
		switch agg {
		case AggMean, AggSum:
			for _, u := range nbrs {
				urow := h.Row(u)
				for j := range orow {
					orow[j] += urow[j]
				}
			}
			if agg == AggMean {
				inv := 1.0 / float64(len(nbrs))
				for j := range orow {
					orow[j] *= inv
				}
			}
		case AggMax:
			first := true
			for _, u := range nbrs {
				urow := h.Row(u)
				for j := range orow {
					if first || urow[j] > orow[j] {
						orow[j] = urow[j]
					}
				}
				first = false
			}
		}
	}
}

// aggregateTInto applies the transpose of the mean/sum aggregation operator,
// needed for backpropagation: out[u] += g[v]/|N(v)| for each v with u in
// N(v), into out, a zeroed g.Rows×g.Cols matrix.
func aggregateTInto(out, g *tensor.Matrix, adj [][]int, agg Aggregator) {
	for v, nbrs := range adj {
		if len(nbrs) == 0 {
			continue
		}
		w := 1.0
		if agg == AggMean {
			w = 1.0 / float64(len(nbrs))
		}
		grow := g.Row(v)
		for _, u := range nbrs {
			orow := out.Row(u)
			for j := range orow {
				orow[j] += w * grow[j]
			}
		}
	}
}

// forwardState retains intermediates for backprop. Inference states come
// from a process-wide pool: forward draws one and release returns it with
// its matrices attached, so steady-state inference reuses the same buffers
// instead of re-allocating every intermediate per call. A state must not be
// touched after release. The trainer owns its states instead (forwardInto).
type forwardState struct {
	g       *Graph
	h0      *tensor.Matrix
	agg0    *tensor.Matrix
	h1      *tensor.Matrix
	mask1   []bool
	agg1    *tensor.Matrix
	h2      *tensor.Matrix // node embeddings
	modules *tensor.Matrix // module embeddings (mean pooled)
	modSize []int
}

var statePool = sync.Pool{New: func() any { return new(forwardState) }}

// release returns the state's buffers to the pool. The graph references are
// dropped; the matrices stay attached for capacity reuse.
func (st *forwardState) release() {
	st.g, st.h0 = nil, nil
	statePool.Put(st)
}

// forward computes node, module, and global embeddings into a pooled state.
// The caller owns the returned state and must release it.
func (m *Model) forward(g *Graph) *forwardState {
	st := statePool.Get().(*forwardState)
	m.forwardInto(st, g)
	return st
}

// forwardInto is forward into a state the caller keeps, reusing its buffers;
// the trainer holds one per batch graph from step to step.
func (m *Model) forwardInto(st *forwardState, g *Graph) {
	st.g, st.h0 = g, g.Feats
	st.agg0 = tensor.EnsureZero(st.agg0, g.Feats.Rows, g.Feats.Cols)
	aggregateInto(st.agg0, st.h0, g.Adj, m.cfg.Agg)
	z1 := tensor.EnsureZero(st.h1, st.h0.Rows, m.cfg.Hidden)
	tensor.MatMulInto(st.h0, m.WSelf1, z1)
	nb1 := tensor.GetMatrix(st.agg0.Rows, m.cfg.Hidden)
	tensor.MatMulInto(st.agg0, m.WNb1, nb1)
	tensor.AddInPlace(z1, nb1)
	tensor.PutMatrix(nb1)
	tensor.AddRowVector(z1, m.B1)
	st.mask1 = tensor.ReLUMaskInto(z1, st.mask1)
	st.h1 = z1

	st.agg1 = tensor.EnsureZero(st.agg1, st.h1.Rows, st.h1.Cols)
	aggregateInto(st.agg1, st.h1, g.Adj, m.cfg.Agg)
	z2 := tensor.EnsureZero(st.h2, st.h1.Rows, m.cfg.OutDim)
	tensor.MatMulInto(st.h1, m.WSelf2, z2)
	nb2 := tensor.GetMatrix(st.agg1.Rows, m.cfg.OutDim)
	tensor.MatMulInto(st.agg1, m.WNb2, nb2)
	tensor.AddInPlace(z2, nb2)
	tensor.PutMatrix(nb2)
	tensor.AddRowVector(z2, m.B2)
	st.h2 = z2

	// Hierarchical pooling: module embedding = mean of its node embeddings.
	st.modules = tensor.EnsureZero(st.modules, g.NumModule, m.cfg.OutDim)
	if cap(st.modSize) < g.NumModule {
		st.modSize = make([]int, g.NumModule)
	} else {
		st.modSize = st.modSize[:g.NumModule]
		for i := range st.modSize {
			st.modSize[i] = 0
		}
	}
	for v := 0; v < g.Feats.Rows; v++ {
		mi := g.ModuleOf[v]
		st.modSize[mi]++
		mrow := st.modules.Row(mi)
		vrow := st.h2.Row(v)
		for j := range mrow {
			mrow[j] += vrow[j]
		}
	}
	for mi := 0; mi < g.NumModule; mi++ {
		if st.modSize[mi] > 0 {
			inv := 1.0 / float64(st.modSize[mi])
			mrow := st.modules.Row(mi)
			for j := range mrow {
				mrow[j] *= inv
			}
		}
	}
}

// Embed returns the module embeddings (one row per module) for a graph.
func (m *Model) Embed(g *Graph) *tensor.Matrix {
	st := m.forward(g)
	out := st.modules.Clone()
	st.release()
	return out
}

// EmbedGlobal returns the design-level embedding: the mean of all module
// embeddings (paper: global pooling so flattened or single-module designs
// still embed meaningfully).
func (m *Model) EmbedGlobal(g *Graph) []float64 {
	st := m.forward(g)
	out := meanRows(st.modules)
	st.release()
	return out
}

// EmbedNodes returns per-node embeddings.
func (m *Model) EmbedNodes(g *Graph) *tensor.Matrix {
	st := m.forward(g)
	out := st.h2.Clone()
	st.release()
	return out
}

// meanRows returns the column-wise mean of m's rows (nil for zero rows). It
// accumulates row by row and divides like tensor.Mean over the row views, so
// the result is bit-identical without materializing the [][]float64.
func meanRows(m *tensor.Matrix) []float64 {
	if m.Rows == 0 {
		return nil
	}
	out := make([]float64, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := range row {
			out[i] += row[i]
		}
	}
	for i := range out {
		out[i] /= float64(m.Rows)
	}
	return out
}

// gradShare is one batch graph's share of a training step's gradient: its
// weight-gradient products, the node gradients whose column sums are its
// bias shares, and the scratch behind them. The trainer keeps one per batch
// graph and reuses its buffers from step to step.
type gradShare struct {
	wSelf1, wNb1, wSelf2, wNb2 *tensor.Matrix
	dH1, dH2                   *tensor.Matrix
	dPool, dSelf, dNb          *tensor.Matrix // per module
	dAgg1, aggT                *tensor.Matrix // per node
}

// backward propagates one graph's module-embedding gradients (a row per
// module) into the share. It writes nothing else, so the graphs of a batch
// run it concurrently; add then sums the shares in batch order.
func (s *gradShare) backward(m *Model, st *forwardState, dModules [][]float64) {
	g := st.g
	n, hid := st.h2.Rows, m.cfg.Hidden
	// Unpool: node gradient = module gradient / module size. Every node of a
	// module gets the same row, so its products with the layer-2 weights are
	// taken once per module and copied to the module's nodes.
	s.dPool = tensor.EnsureZero(s.dPool, g.NumModule, m.cfg.OutDim)
	for mi, size := range st.modSize {
		if size > 0 {
			inv := 1.0 / float64(size)
			prow := s.dPool.Row(mi)
			for j, d := range dModules[mi] {
				prow[j] = inv * d
			}
		}
	}
	s.dSelf = tensor.Ensure(s.dSelf, g.NumModule, hid)
	tensor.MatMulABTInto(s.dPool, m.WSelf2, s.dSelf)
	s.dNb = tensor.Ensure(s.dNb, g.NumModule, hid)
	tensor.MatMulABTInto(s.dPool, m.WNb2, s.dNb)
	s.dH2 = tensor.Ensure(s.dH2, n, m.cfg.OutDim)
	s.dH1 = tensor.Ensure(s.dH1, n, hid)
	s.dAgg1 = tensor.Ensure(s.dAgg1, n, hid)
	for v, mi := range g.ModuleOf {
		copy(s.dH2.Row(v), s.dPool.Row(mi))
		copy(s.dH1.Row(v), s.dSelf.Row(mi))
		copy(s.dAgg1.Row(v), s.dNb.Row(mi))
	}
	s.aggT = tensor.EnsureZero(s.aggT, n, hid)
	aggregateTInto(s.aggT, s.dAgg1, g.Adj, m.cfg.Agg)
	tensor.AddInPlace(s.dH1, s.aggT)
	tensor.MaskInPlace(s.dH1, st.mask1)
	// Weight products of both layers.
	s.wSelf2 = tensor.EnsureZero(s.wSelf2, hid, m.cfg.OutDim)
	tensor.MatMulATBInto(st.h1, s.dH2, s.wSelf2)
	s.wNb2 = tensor.EnsureZero(s.wNb2, hid, m.cfg.OutDim)
	tensor.MatMulATBInto(st.agg1, s.dH2, s.wNb2)
	s.wSelf1 = tensor.EnsureZero(s.wSelf1, m.cfg.InDim, hid)
	tensor.MatMulATBInto(st.h0, s.dH1, s.wSelf1)
	s.wNb1 = tensor.EnsureZero(s.wNb1, m.cfg.InDim, hid)
	tensor.MatMulATBInto(st.agg0, s.dH1, s.wNb1)
}

// add sums the share into grads: a whole-matrix add per weight and a
// row-by-row column sum per bias. Called once per graph in batch order,
// these are the additions a serial backward makes, in its order, so the
// gradient is bit-identical for any number of workers.
func (s *gradShare) add(grads *Grads) {
	tensor.AddInPlace(grads.WSelf2, s.wSelf2)
	tensor.AddInPlace(grads.WNb2, s.wNb2)
	addColSums(grads.B2, s.dH2)
	tensor.AddInPlace(grads.WSelf1, s.wSelf1)
	tensor.AddInPlace(grads.WNb1, s.wNb1)
	addColSums(grads.B1, s.dH1)
}

func addColSums(dst []float64, m *tensor.Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range dst {
			dst[j] += row[j]
		}
	}
}

// Grads accumulates parameter gradients.
type Grads struct {
	WSelf1, WNb1 *tensor.Matrix
	B1           []float64
	WSelf2, WNb2 *tensor.Matrix
	B2           []float64
}

func newGrads(cfg Config) *Grads {
	return &Grads{
		WSelf1: tensor.NewMatrix(cfg.InDim, cfg.Hidden),
		WNb1:   tensor.NewMatrix(cfg.InDim, cfg.Hidden),
		B1:     make([]float64, cfg.Hidden),
		WSelf2: tensor.NewMatrix(cfg.Hidden, cfg.OutDim),
		WNb2:   tensor.NewMatrix(cfg.Hidden, cfg.OutDim),
		B2:     make([]float64, cfg.OutDim),
	}
}

func (g *Grads) zero() {
	for _, p := range [...][]float64{g.WSelf1.Data, g.WNb1.Data, g.B1, g.WSelf2.Data, g.WNb2.Data, g.B2} {
		clear(p)
	}
}
