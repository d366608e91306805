package circuitmentor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/designs"
	"repro/internal/verilog"
)

// refModuleComponents is moduleComponents as it was before it numbered
// signals: a defs and a uses set of names per component, and an edge i -> j
// wherever a name in i's defs is in j's uses. It is the oracle the faster
// form is held to.
func refModuleComponents(mod *verilog.Module) (feats [][]float64, edges [][2]int) {
	type comp struct {
		defs map[string]bool
		uses map[string]bool
	}
	var comps []comp
	addNode := func(f []float64, defs, uses map[string]bool) {
		feats = append(feats, f)
		comps = append(comps, comp{defs: defs, uses: uses})
	}

	for _, item := range mod.Items {
		switch it := item.(type) {
		case *verilog.Assign:
			f := make([]float64, FeatureDim)
			f[fAssign] = 1
			st := exprStats(it.RHS)
			st.fill(f)
			defs := map[string]bool{}
			refCollectIdents(it.LHS, defs)
			uses := map[string]bool{}
			refCollectIdents(it.RHS, uses)
			addNode(f, defs, uses)

		case *verilog.AlwaysFF:
			f := make([]float64, FeatureDim)
			f[fReg] = 1
			defs := map[string]bool{}
			uses := map[string]bool{}
			var st stats
			var walk func(stmts []verilog.Stmt)
			walk = func(stmts []verilog.Stmt) {
				for _, s := range stmts {
					switch v := s.(type) {
					case *verilog.NonBlocking:
						refCollectIdents(v.LHS, defs)
						refCollectIdents(v.RHS, uses)
						st.add(exprStats(v.RHS))
					case *verilog.IfStmt:
						refCollectIdents(v.Cond, uses)
						st.add(exprStats(v.Cond))
						st.mux++
						walk(v.Then)
						walk(v.Else)
					}
				}
			}
			walk(it.Body)
			st.fill(f)
			addNode(f, defs, uses)

		case *verilog.Instance:
			f := make([]float64, FeatureDim)
			f[fInstance] = 1
			defs := map[string]bool{}
			uses := map[string]bool{}
			for _, c := range it.Conns {
				if c.Expr != nil {
					refCollectIdents(c.Expr, defs)
					refCollectIdents(c.Expr, uses)
				}
			}
			f[fFanin] = math.Log1p(float64(len(it.Conns)))
			addNode(f, defs, uses)

		case *verilog.GatePrim:
			f := make([]float64, FeatureDim)
			f[fAssign] = 1
			f[fAndOr] = 1
			defs := map[string]bool{}
			uses := map[string]bool{}
			if len(it.Args) > 0 {
				refCollectIdents(it.Args[0], defs)
				for _, a := range it.Args[1:] {
					refCollectIdents(a, uses)
				}
			}
			addNode(f, defs, uses)
		}
	}

	if len(feats) == 0 {
		addNode(make([]float64, FeatureDim), map[string]bool{}, map[string]bool{})
	}

	for i := range comps {
		for j := range comps {
			if i == j {
				continue
			}
			for d := range comps[i].defs {
				if comps[j].uses[d] {
					edges = append(edges, [2]int{i, j})
					break
				}
			}
		}
	}
	return feats, edges
}

func refCollectIdents(e verilog.Expr, into map[string]bool) {
	switch v := e.(type) {
	case *verilog.Ident:
		into[v.Name] = true
	case *verilog.Unary:
		refCollectIdents(v.X, into)
	case *verilog.Binary:
		refCollectIdents(v.L, into)
		refCollectIdents(v.R, into)
	case *verilog.Ternary:
		refCollectIdents(v.Cond, into)
		refCollectIdents(v.T, into)
		refCollectIdents(v.F, into)
	case *verilog.Index:
		refCollectIdents(v.X, into)
	case *verilog.Slice:
		refCollectIdents(v.X, into)
	case *verilog.Concat:
		for _, p := range v.Parts {
			refCollectIdents(p, into)
		}
	case *verilog.Repl:
		refCollectIdents(v.X, into)
	}
}

// oracleDesigns is the 48 graphs the oracle covers: the benchmarks, the
// corpus with its variants, the training variants and twenty SoCs drawn
// from a fixed seed.
func oracleDesigns() []*designs.Design {
	ds := append(designs.Benchmarks(), designs.DatabaseDesigns()...)
	ds = append(ds, designs.DatabaseVariants()...)
	ds = append(ds, designs.TrainingVariants()...)
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 20; i++ {
		ds = append(ds, designs.SoC(designs.RandomSoCConfig(fmt.Sprintf("o%d", i), rng)))
	}
	return ds
}

// TestModuleComponentsMatchOracle holds every module of every oracle graph
// to the map-based form: the same feature bits and the same edges in the
// same order, and every graph's neighbour lists to the ones appending those
// edges one by one builds.
func TestModuleComponentsMatchOracle(t *testing.T) {
	ds := oracleDesigns()
	if len(ds) != 48 {
		t.Fatalf("%d oracle designs, want 48", len(ds))
	}
	modules := 0
	for _, d := range ds {
		dg, err := BuildGraph(d.Source, d.Top)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		df := new(dataflow) // reused across the graph's modules, as BuildGraph does
		var wantAdj [][]int
		for _, mi := range dg.Modules {
			mod := dg.File.FindModule(mi.Name)
			modules++
			feats, edges := moduleComponents(mod, df)
			wantFeats, wantEdges := refModuleComponents(mod)
			base := len(wantAdj)
			wantAdj = append(wantAdj, make([][]int, len(wantFeats))...)
			for _, e := range wantEdges {
				a, b := base+e[0], base+e[1]
				wantAdj[a] = append(wantAdj[a], b)
				wantAdj[b] = append(wantAdj[b], a)
			}
			if len(feats) != len(wantFeats) {
				t.Fatalf("%s/%s: %d nodes, want %d", d.Name, mi.Name, len(feats), len(wantFeats))
			}
			for i := range feats {
				for k := range feats[i] {
					if math.Float64bits(feats[i][k]) != math.Float64bits(wantFeats[i][k]) {
						t.Fatalf("%s/%s: node %d feature %d = %v, want %v", d.Name, mi.Name, i, k, feats[i][k], wantFeats[i][k])
					}
				}
			}
			if len(edges) != len(wantEdges) {
				t.Fatalf("%s/%s: %d edges, want %d", d.Name, mi.Name, len(edges), len(wantEdges))
			}
			for i := range edges {
				if edges[i] != wantEdges[i] {
					t.Fatalf("%s/%s: edge %d = %v, want %v", d.Name, mi.Name, i, edges[i], wantEdges[i])
				}
			}
		}
		if len(dg.G.Adj) != len(wantAdj) {
			t.Fatalf("%s: %d neighbour lists, want %d", d.Name, len(dg.G.Adj), len(wantAdj))
		}
		for i := range wantAdj {
			if !slices.Equal(dg.G.Adj[i], wantAdj[i]) || (dg.G.Adj[i] == nil) != (wantAdj[i] == nil) {
				t.Fatalf("%s: node %d neighbours %v, want %v", d.Name, i, dg.G.Adj[i], wantAdj[i])
			}
		}
	}
	t.Logf("%d modules over %d graphs match", modules, len(ds))
}
