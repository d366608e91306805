// Package circuitmentor implements CircuitMentor (paper §IV-A): the
// graph-based circuit analysis assistant. It converts RTL into a
// hierarchical graph — design, modules, and component nodes with structural
// features — loads that graph into the property-graph database for Cypher
// retrieval, embeds modules with the hierarchical GraphSAGE model, and
// computes the design-characteristics analysis (fanout profile, stage
// balance, hierarchy overhead, path shape) that grounds the LLM's command
// selection.
package circuitmentor

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/gnn"
	"repro/internal/graphdb"
	"repro/internal/tensor"
	"repro/internal/verilog"
)

// FeatureDim is the input feature width of component nodes.
const FeatureDim = 12

// Feature indexes.
const (
	fAssign = iota
	fReg
	fInstance
	fXor
	fAndOr
	fAddSub
	fMul
	fMux
	fShift
	fCmp
	fWidth
	fFanin
)

// ModuleInfo describes one module of a design graph.
type ModuleInfo struct {
	Name      string
	Code      string
	Instances int // times instantiated within the design
	Nodes     int // component nodes contributed to the graph
}

// DesignGraph is the hierarchical graph CircuitMentor builds from RTL.
type DesignGraph struct {
	Top     string
	File    *verilog.SourceFile
	Modules []ModuleInfo
	G       *gnn.Graph
}

// ModuleIndex returns the index of a module by name, or -1.
func (dg *DesignGraph) ModuleIndex(name string) int {
	for i, m := range dg.Modules {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// Mentor holds the trained embedding model.
type Mentor struct {
	Model *gnn.Model
}

// New creates a mentor with a freshly initialized (untrained) GraphSAGE
// model of the standard shape.
func New(seed int64) *Mentor {
	return &Mentor{Model: gnn.New(gnn.Config{
		InDim:  FeatureDim,
		Hidden: 24,
		OutDim: 16,
		Agg:    gnn.AggMean,
		Seed:   seed,
	})}
}

// BuildGraph parses RTL and constructs the design graph: one component node
// per assign statement, register group, or instance, with edges following
// signal dataflow inside each module. Each *used* module contributes one
// subgraph (modules instantiated multiple times contribute once, like the
// paper's module-level hierarchy).
func BuildGraph(src, top string) (*DesignGraph, error) {
	file, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	return BuildGraphFromFile(file, top)
}

// BuildGraphFromFile is BuildGraph over an already-parsed file.
func BuildGraphFromFile(file *verilog.SourceFile, top string) (*DesignGraph, error) {
	topMod := file.FindModule(top)
	if topMod == nil {
		return nil, fmt.Errorf("top module %q not found", top)
	}
	// Collect used modules breadth-first from the top.
	used := []*verilog.Module{topMod}
	seen := map[string]bool{top: true}
	instCount := map[string]int{top: 1}
	for i := 0; i < len(used); i++ {
		for _, item := range used[i].Items {
			inst, ok := item.(*verilog.Instance)
			if !ok {
				continue
			}
			instCount[inst.ModuleName]++
			if seen[inst.ModuleName] {
				continue
			}
			sub := file.FindModule(inst.ModuleName)
			if sub == nil {
				return nil, fmt.Errorf("module %q not found", inst.ModuleName)
			}
			seen[inst.ModuleName] = true
			used = append(used, sub)
		}
	}

	dg := &DesignGraph{Top: top, File: file}
	var feats [][]float64
	var edges [][2]int // graph-wide node numbers
	var moduleOf []int
	df := new(dataflow)

	for mi, mod := range used {
		nodes, modEdges := moduleComponents(mod, df)
		base := len(feats)
		feats = append(feats, nodes...)
		for range nodes {
			moduleOf = append(moduleOf, mi)
		}
		for _, e := range modEdges {
			edges = append(edges, [2]int{base + e[0], base + e[1]})
		}
		dg.Modules = append(dg.Modules, ModuleInfo{
			Name:      mod.Name,
			Code:      mod.Source,
			Instances: instCount[mod.Name],
			Nodes:     len(nodes),
		})
	}
	fm := tensor.NewMatrix(len(feats), FeatureDim)
	for i, f := range feats {
		copy(fm.Row(i), f)
	}
	dg.G = &gnn.Graph{Feats: fm, Adj: adjacency(len(feats), edges), ModuleOf: moduleOf, NumModule: len(used)}
	return dg, dg.G.Validate()
}

// adjacency returns the neighbour lists of an n-node graph with the given
// undirected edges: each edge (a, b) appends b to a's list and a to b's, in
// edge order. The lists are carved out of one slab, each capped at its
// length; a node with no edge has a nil list.
func adjacency(n int, edges [][2]int) [][]int {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	adj := make([][]int, n)
	slab := make([]int, 2*len(edges))
	off := 0
	for i, d := range deg {
		if d > 0 {
			adj[i] = slab[off : off : off+d]
			off += d
		}
	}
	for _, e := range edges {
		a, b := e[0], e[1]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	return adj
}

// dataflow is the working storage of moduleComponents: the module's signals,
// numbered in first-seen order, and the signals each component defines and
// reads, component by component. One is reused across a graph's modules.
type dataflow struct {
	ids        map[string]int32
	defs, uses []int32 // signal numbers; component i's end at defEnd[i], useEnd[i]
	defEnd     []int32
	useEnd     []int32
}

// reset empties df for the next module.
func (df *dataflow) reset() {
	if df.ids == nil {
		df.ids = make(map[string]int32)
	}
	clear(df.ids)
	df.defs, df.uses = df.defs[:0], df.uses[:0]
	df.defEnd, df.useEnd = df.defEnd[:0], df.useEnd[:0]
}

// collect appends the number of every identifier in e to *into.
func (df *dataflow) collect(e verilog.Expr, into *[]int32) {
	switch v := e.(type) {
	case *verilog.Ident:
		id, ok := df.ids[v.Name]
		if !ok {
			id = int32(len(df.ids))
			df.ids[v.Name] = id
		}
		*into = append(*into, id)
	case *verilog.Unary:
		df.collect(v.X, into)
	case *verilog.Binary:
		df.collect(v.L, into)
		df.collect(v.R, into)
	case *verilog.Ternary:
		df.collect(v.Cond, into)
		df.collect(v.T, into)
		df.collect(v.F, into)
	case *verilog.Index:
		df.collect(v.X, into)
	case *verilog.Slice:
		df.collect(v.X, into)
	case *verilog.Concat:
		for _, p := range v.Parts {
			df.collect(p, into)
		}
	case *verilog.Repl:
		df.collect(v.X, into)
	}
}

// endComponent closes the current component's defs and uses.
func (df *dataflow) endComponent() {
	df.defEnd = append(df.defEnd, int32(len(df.defs)))
	df.useEnd = append(df.useEnd, int32(len(df.uses)))
}

// edges returns an edge i -> j for every pair of distinct components where i
// defines a signal j reads, i ascending and, for each i, j ascending — the
// order a pairwise comparison of the components produces. The pairs come
// from an index of each signal's readers, so the work is the reads the
// module's definitions reach, not the square of its component count.
func (df *dataflow) edges() [][2]int {
	n, nsig := len(df.defEnd), len(df.ids)
	// readers[first[s]:first[s+1]] are the components that read signal s,
	// ascending (one that reads s twice is listed twice).
	first := make([]int32, nsig+1)
	for _, s := range df.uses {
		first[s+1]++
	}
	for s := 0; s < nsig; s++ {
		first[s+1] += first[s]
	}
	next := append([]int32(nil), first[:nsig]...)
	readers := make([]int32, len(df.uses))
	lo := int32(0)
	for i, hi := range df.useEnd {
		for _, s := range df.uses[lo:hi] {
			readers[next[s]] = int32(i)
			next[s]++
		}
		lo = hi
	}

	var edges [][2]int
	mark := make([]int32, n) // mark[j] == i+1: j is already one of i's targets
	var targets []int32
	lo = 0
	for i, hi := range df.defEnd {
		targets = targets[:0]
		for _, s := range df.defs[lo:hi] {
			for _, j := range readers[first[s]:first[s+1]] {
				if j != int32(i) && mark[j] != int32(i)+1 {
					mark[j] = int32(i) + 1
					targets = append(targets, j)
				}
			}
		}
		lo = hi
		slices.Sort(targets)
		for _, j := range targets {
			edges = append(edges, [2]int{i, int(j)})
		}
	}
	return edges
}

// moduleComponents converts a module body into component nodes and
// dataflow edges. Node i produces the signals it defines and reads the ones
// it uses; an edge connects i -> j when i defines something j uses. df is
// working storage, overwritten.
func moduleComponents(mod *verilog.Module, df *dataflow) (feats [][]float64, edges [][2]int) {
	df.reset()
	// One feature slab for the module: at most one node an item, or the
	// placeholder.
	slab := make([]float64, FeatureDim*max(len(mod.Items), 1))
	newFeats := func() []float64 {
		f := slab[:FeatureDim:FeatureDim]
		slab = slab[FeatureDim:]
		return f
	}
	addNode := func(f []float64) {
		feats = append(feats, f)
		df.endComponent()
	}

	for _, item := range mod.Items {
		switch it := item.(type) {
		case *verilog.Assign:
			f := newFeats()
			f[fAssign] = 1
			st := exprStats(it.RHS)
			st.fill(f)
			df.collect(it.LHS, &df.defs)
			df.collect(it.RHS, &df.uses)
			addNode(f)

		case *verilog.AlwaysFF:
			f := newFeats()
			f[fReg] = 1
			var st stats
			var walk func(stmts []verilog.Stmt)
			walk = func(stmts []verilog.Stmt) {
				for _, s := range stmts {
					switch v := s.(type) {
					case *verilog.NonBlocking:
						df.collect(v.LHS, &df.defs)
						df.collect(v.RHS, &df.uses)
						st.add(exprStats(v.RHS))
					case *verilog.IfStmt:
						df.collect(v.Cond, &df.uses)
						st.add(exprStats(v.Cond))
						st.mux++
						walk(v.Then)
						walk(v.Else)
					}
				}
			}
			walk(it.Body)
			st.fill(f)
			addNode(f)

		case *verilog.Instance:
			f := newFeats()
			f[fInstance] = 1
			// Without the callee's port directions we treat all
			// connections as both used and defined, which still yields the
			// right connectivity.
			for _, c := range it.Conns {
				if c.Expr != nil {
					df.collect(c.Expr, &df.defs)
					df.collect(c.Expr, &df.uses)
				}
			}
			f[fFanin] = math.Log1p(float64(len(it.Conns)))
			addNode(f)

		case *verilog.GatePrim:
			f := newFeats()
			f[fAssign] = 1
			f[fAndOr] = 1
			if len(it.Args) > 0 {
				df.collect(it.Args[0], &df.defs)
				for _, a := range it.Args[1:] {
					df.collect(a, &df.uses)
				}
			}
			addNode(f)
		}
	}

	// Modules with no items still get one placeholder node so pooling works.
	if len(feats) == 0 {
		addNode(newFeats())
	}
	return feats, df.edges()
}

// stats accumulates expression operator counts.
type stats struct {
	xor, andor, addsub, mul, mux, shift, cmp int
	width, fanin                             int
}

func (s *stats) add(o stats) {
	s.xor += o.xor
	s.andor += o.andor
	s.addsub += o.addsub
	s.mul += o.mul
	s.mux += o.mux
	s.shift += o.shift
	s.cmp += o.cmp
	if o.width > s.width {
		s.width = o.width
	}
	s.fanin += o.fanin
}

func (s stats) fill(f []float64) {
	f[fXor] = math.Log1p(float64(s.xor))
	f[fAndOr] = math.Log1p(float64(s.andor))
	f[fAddSub] = math.Log1p(float64(s.addsub))
	f[fMul] = math.Log1p(float64(s.mul))
	f[fMux] = math.Log1p(float64(s.mux))
	f[fShift] = math.Log1p(float64(s.shift))
	f[fCmp] = math.Log1p(float64(s.cmp))
	f[fWidth] = math.Log1p(float64(s.width))
	f[fFanin] = math.Log1p(float64(s.fanin))
}

func exprStats(e verilog.Expr) stats {
	var s stats
	var walk func(e verilog.Expr)
	walk = func(e verilog.Expr) {
		switch v := e.(type) {
		case *verilog.Ident:
			s.fanin++
		case *verilog.Number:
			if v.Width > s.width {
				s.width = v.Width
			}
		case *verilog.Unary:
			switch v.Op {
			case "^", "~^":
				s.xor++
			case "&", "|", "~&", "~|":
				s.andor++
			}
			walk(v.X)
		case *verilog.Binary:
			switch v.Op {
			case "^", "~^", "^~":
				s.xor++
			case "&", "|", "&&", "||":
				s.andor++
			case "+", "-":
				s.addsub++
			case "*":
				s.mul++
			case "<<", ">>", "<<<", ">>>":
				s.shift++
			case "==", "!=", "<", "<=", ">", ">=":
				s.cmp++
			}
			walk(v.L)
			walk(v.R)
		case *verilog.Ternary:
			s.mux++
			walk(v.Cond)
			walk(v.T)
			walk(v.F)
		case *verilog.Index:
			walk(v.X)
		case *verilog.Slice:
			walk(v.X)
		case *verilog.Concat:
			for _, p := range v.Parts {
				walk(p)
			}
		case *verilog.Repl:
			walk(v.X)
		}
	}
	walk(e)
	return s
}

// EmbedModules returns one embedding per module of the design graph.
func (m *Mentor) EmbedModules(dg *DesignGraph) [][]float64 {
	mat := m.Model.Embed(dg.G)
	out := make([][]float64, mat.Rows)
	for i := range out {
		out[i] = append([]float64(nil), mat.Row(i)...)
	}
	return out
}

// EmbedGlobal returns the design-level embedding (global mean pooling).
func (m *Mentor) EmbedGlobal(dg *DesignGraph) []float64 {
	return m.Model.EmbedGlobal(dg.G)
}

// TrainSample pairs a design graph with per-module category labels.
type TrainSample struct {
	DG     *DesignGraph
	Labels []string
}

// Train runs metric learning so same-category modules cluster, each step
// spreading the samples' graphs over up to workers goroutines (0 =
// GOMAXPROCS, 1 = serial); the trained model is the same for any count.
func (m *Mentor) Train(samples []TrainSample, epochs int, cfg gnn.TrainConfig, workers int) ([]float64, error) {
	batch := make([]gnn.Sample, len(samples))
	for i, s := range samples {
		batch[i] = gnn.Sample{G: s.DG.G, Labels: s.Labels}
	}
	tr := gnn.NewTrainer(m.Model, cfg, workers)
	return tr.Train(batch, epochs)
}

// LoadIntoDB stores the hierarchical design graph in the property-graph
// database: a Design node containing Module nodes, with INSTANTIATES edges
// following the hierarchy, so SynthRAG's Cypher queries can fetch module
// code and structure.
func LoadIntoDB(db *graphdb.DB, dg *DesignGraph, designProps map[string]any) *graphdb.Node {
	props := map[string]any{"name": dg.Top}
	for k, v := range designProps {
		props[k] = v
	}
	designName, _ := props["name"].(string)
	dNode := db.CreateNode([]string{"Design"}, props)
	modNodes := make(map[string]*graphdb.Node, len(dg.Modules))
	for _, mi := range dg.Modules {
		n := db.CreateNode([]string{"Module"}, map[string]any{
			"name":      mi.Name,
			"design":    designName,
			"code":      mi.Code,
			"instances": int64(mi.Instances),
			"nodes":     int64(mi.Nodes),
		})
		modNodes[mi.Name] = n
		db.CreateRel(dNode, n, "CONTAINS", nil)
	}
	// INSTANTIATES edges from the AST.
	for _, mi := range dg.Modules {
		mod := dg.File.FindModule(mi.Name)
		if mod == nil {
			continue
		}
		linked := map[string]bool{}
		for _, item := range mod.Items {
			if inst, ok := item.(*verilog.Instance); ok && !linked[inst.ModuleName] {
				if child, ok := modNodes[inst.ModuleName]; ok {
					db.CreateRel(modNodes[mi.Name], child, "INSTANTIATES", nil)
					linked[inst.ModuleName] = true
				}
			}
		}
	}
	return dNode
}
