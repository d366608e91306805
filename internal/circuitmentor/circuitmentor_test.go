package circuitmentor

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/gnn"
	"repro/internal/graphdb"
	"repro/internal/liberty"
	"repro/internal/tensor"
)

func TestBuildGraphShape(t *testing.T) {
	d := designs.RiscV32i()
	dg, err := BuildGraph(d.Source, d.Top)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Top != d.Top {
		t.Errorf("top = %s", dg.Top)
	}
	if len(dg.Modules) < 3 {
		t.Fatalf("modules = %d, want >= 3 (top + alu + dec)", len(dg.Modules))
	}
	if dg.G.NumModule != len(dg.Modules) {
		t.Error("graph module count mismatch")
	}
	for _, m := range dg.Modules {
		if m.Code == "" {
			t.Errorf("module %s missing source code", m.Name)
		}
		if m.Nodes == 0 {
			t.Errorf("module %s contributed no nodes", m.Name)
		}
	}
	if dg.ModuleIndex(d.Top) < 0 {
		t.Error("ModuleIndex failed for top")
	}
	if dg.ModuleIndex("nope") != -1 {
		t.Error("ModuleIndex should be -1 for unknown")
	}
	// Edges exist (dataflow connectivity).
	edges := 0
	for _, nbrs := range dg.G.Adj {
		edges += len(nbrs)
	}
	if edges == 0 {
		t.Error("graph has no edges")
	}
}

func TestEmbeddingsShape(t *testing.T) {
	m := New(17)
	d := designs.AES()
	dg, err := BuildGraph(d.Source, d.Top)
	if err != nil {
		t.Fatal(err)
	}
	embs := m.EmbedModules(dg)
	if len(embs) != len(dg.Modules) {
		t.Fatalf("embeddings = %d, modules = %d", len(embs), len(dg.Modules))
	}
	if len(embs[0]) != 16 {
		t.Errorf("embedding dim = %d, want 16", len(embs[0]))
	}
	g := m.EmbedGlobal(dg)
	if len(g) != 16 {
		t.Errorf("global dim = %d", len(g))
	}
}

// TestTrainingSeparatesCategories trains the mentor on database designs and
// checks that same-category modules become more similar than cross-category
// ones — the metric-learning objective of Fig. 4.
func TestTrainingSeparatesCategories(t *testing.T) {
	m := New(5)
	var samples []TrainSample
	for _, d := range designs.DatabaseDesigns() {
		dg, err := BuildGraph(d.Source, d.Top)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		labels := make([]string, len(dg.Modules))
		for i, mi := range dg.Modules {
			labels[i] = designs.ModuleCategory(mi.Name)
			if labels[i] == "" {
				labels[i] = d.Category
			}
		}
		samples = append(samples, TrainSample{DG: dg, Labels: labels})
	}
	quality := func() float64 {
		var embs [][]float64
		var labels []string
		for _, s := range samples {
			for i, e := range m.EmbedModules(s.DG) {
				embs = append(embs, e)
				labels = append(labels, s.Labels[i])
			}
		}
		var intra, inter float64
		var ni, nx int
		for i := range embs {
			for j := i + 1; j < len(embs); j++ {
				c := tensor.Cosine(embs[i], embs[j])
				if labels[i] == labels[j] {
					intra, ni = intra+c, ni+1
				} else {
					inter, nx = inter+c, nx+1
				}
			}
		}
		return intra/float64(ni) - inter/float64(nx)
	}
	before := quality()
	cfg := gnn.DefaultTrainConfig()
	cfg.LR = 0.02
	if _, err := m.Train(samples, 40, cfg, 0); err != nil {
		t.Fatal(err)
	}
	after := quality()
	if after <= before {
		t.Errorf("metric learning did not improve separation: %.4f -> %.4f", before, after)
	}
}

func TestLoadIntoDB(t *testing.T) {
	db := graphdb.New()
	d := designs.RiscV32i()
	dg, err := BuildGraph(d.Source, d.Top)
	if err != nil {
		t.Fatal(err)
	}
	LoadIntoDB(db, dg, map[string]any{"category": d.Category})
	// Cypher: fetch module code by name — SynthRAG's graph-structure query.
	res, err := db.Query(`MATCH (m:Module {name: 'rv_alu', design: 'riscv32i'}) RETURN m.code`, nil)
	if err != nil {
		t.Fatal(err)
	}
	code, _ := res.Value().(string)
	if !strings.Contains(code, "module rv_alu") {
		t.Errorf("module code retrieval failed: %.60q", code)
	}
	// Hierarchy walk.
	res, err = db.Query(`MATCH (d:Design {name: 'riscv32i'})-[:CONTAINS]->(m:Module) RETURN count(m)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Value().(int64); n < 3 {
		t.Errorf("contains count = %d", n)
	}
	res, err = db.Query(`MATCH (t:Module {name: 'riscv32i'})-[:INSTANTIATES]->(s:Module) RETURN count(s)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Value().(int64); n < 2 {
		t.Errorf("instantiates count = %d", n)
	}
}

// TestAnalysisMatchesGroundTruth verifies the trait detector reproduces
// each benchmark's known structural traits.
func TestAnalysisMatchesGroundTruth(t *testing.T) {
	lib := liberty.Nangate45()
	expect := map[string]string{
		"dynamic_node": "high-fanout",
		"ethmac":       "deep-serial-logic",
		"jpeg":         "hierarchy-overhead",
		"tinyRocket":   "register-imbalance",
		"aes":          "wide-arithmetic",
	}
	for _, d := range designs.Benchmarks() {
		a, err := Analyze(d.Source, d.Top, d.Period, lib)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if want, ok := expect[d.Name]; ok && !a.HasTrait(want) {
			t.Errorf("%s: detected %v, want %s", d.Name, a.Traits, want)
		}
		r := a.Render()
		if !strings.Contains(r, "trait:") {
			t.Errorf("%s: render has no trait lines:\n%s", d.Name, r)
		}
	}
	// tinyRocket must NOT look fanout-bound, and dynamic_node's fanout must
	// dominate whatever else it shows.
	trA, _ := Analyze(designs.TinyRocket().Source, "tinyRocket", 2.85, lib)
	if trA.HasTrait("high-fanout") {
		t.Errorf("tinyRocket wrongly detected as high-fanout: %+v", trA)
	}
	dnA, _ := Analyze(designs.DynamicNode().Source, "dynamic_node", 3.20, lib)
	if !dnA.HasTrait("high-fanout") {
		t.Errorf("dynamic_node missing high-fanout: %+v", dnA)
	}
}

func TestBuildGraphErrors(t *testing.T) {
	if _, err := BuildGraph("module a(input x, output y); assign y = x; endmodule", "zz"); err == nil {
		t.Error("unknown top should fail")
	}
	if _, err := BuildGraph("not verilog at all", "a"); err == nil {
		t.Error("parse error should propagate")
	}
}

func TestSoCGraphLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := designs.RandomSoCConfig("lbl", rng)
	d := designs.SoC(cfg)
	dg, err := BuildGraph(d.Source, d.Top)
	if err != nil {
		t.Fatal(err)
	}
	labeled := 0
	for _, m := range dg.Modules {
		if designs.ModuleCategory(m.Name) != "" {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("SoC graph has no categorizable modules")
	}
}
