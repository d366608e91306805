package synthrag

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/llm"
)

// buildQuick constructs a database without expert synthesis (fast).
func buildQuick(t *testing.T, epochs int) *Database {
	t.Helper()
	db, err := Build(BuildConfig{Seed: 3, TrainEpochs: epochs, SkipSynth: true})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// buildFull (cached across tests) includes expert synthesis.
var fullDB *Database

func buildFull(t *testing.T) *Database {
	t.Helper()
	if fullDB != nil {
		return fullDB
	}
	db, err := Build(BuildConfig{Seed: 3, TrainEpochs: 30})
	if err != nil {
		t.Fatal(err)
	}
	fullDB = db
	return db
}

func TestBuildQuickIndexes(t *testing.T) {
	db := buildQuick(t, 0)
	corpus := append(designs.DatabaseDesigns(), designs.DatabaseVariants()...)
	if len(db.Strategies) != len(corpus) {
		t.Errorf("strategies = %d, want %d", len(db.Strategies), len(corpus))
	}
	if db.Graph.NodeCount() == 0 {
		t.Error("graph database empty")
	}
	// Library cells must be present.
	info, err := db.CellInfo("NAND2_X1")
	if err != nil {
		t.Fatal(err)
	}
	if info["function"] != "NAND2" || info["drive"] != int64(1) {
		t.Errorf("cell info wrong: %v", info)
	}
	if _, err := db.CellInfo("NO_SUCH_CELL"); err == nil {
		t.Error("unknown cell should error")
	}
}

func TestModuleCodeRetrieval(t *testing.T) {
	db := buildQuick(t, 0)
	code, err := db.ModuleCode("rocket", "cpu_alu_rocket")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "module cpu_alu_rocket") {
		t.Errorf("wrong module code: %.60q", code)
	}
	if _, err := db.ModuleCode("rocket", "nonexistent"); err == nil {
		t.Error("missing module should error")
	}
}

func TestManualSearch(t *testing.T) {
	db := buildQuick(t, 0)
	model := llm.New(llm.GPT4o, 1)
	hits := db.SearchManual("how to retime registers to balance pipeline stages", 3, model)
	if len(hits) == 0 {
		t.Fatal("no manual hits")
	}
	top := hits[0].Doc.ID
	if top != "cmd/optimize_registers" && top != "guide/retiming" {
		t.Errorf("top hit = %s, want retiming-related", top)
	}
	// Hallucinated command query must route to a real command.
	hits = db.SearchManual("set_fanout_limit 16", 2, model)
	found := false
	for _, h := range hits {
		if h.Doc.ID == "cmd/set_max_fanout" || h.Doc.ID == "guide/buffering" {
			found = true
		}
	}
	if !found {
		t.Errorf("fanout hallucination did not retrieve fanout docs: %v", ids(hits))
	}
}

func ids(hits []ManualDoc) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Doc.ID
	}
	return out
}

func TestModuleRetrievalByCategory(t *testing.T) {
	db := buildQuick(t, 40)
	// Query with a fresh processor-core design not in the corpus.
	d := designs.RiscV32i()
	_, dg, err := db.EmbedDesign(d.Source, d.Top)
	if err != nil {
		t.Fatal(err)
	}
	embs := db.EmbedModulesOf(dg)
	// The ALU module should retrieve mostly processor-category modules.
	idx := dg.ModuleIndex("rv_alu")
	if idx < 0 {
		t.Fatal("rv_alu not in graph")
	}
	hits := db.RetrieveModules(embs[idx], 5)
	if len(hits) != 5 {
		t.Fatalf("hits = %d", len(hits))
	}
	proc := 0
	for _, h := range hits {
		if h.Record.Category == designs.CatProcessor {
			proc++
		}
	}
	if proc < 3 {
		t.Errorf("only %d/5 hits are processor modules: %+v", proc, hits)
	}
}

func TestExpertStrategySelection(t *testing.T) {
	if testing.Short() {
		t.Skip("expert synthesis is slow")
	}
	db := buildFull(t)
	// Trait-bearing variants must select a strategy matching their trait.
	expect := map[string][]string{
		"rocket_bus":  {"fanout", "fanout+"},
		"sodor_pipe5": {"retime"},
	}
	for design, wants := range expect {
		rec := db.Strategies[design]
		if rec == nil {
			t.Fatalf("no record for %s", design)
		}
		ok := false
		for _, w := range wants {
			if rec.Strategy == w {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s: expert strategy = %s, want one of %v (QoR %+v)", design, rec.Strategy, wants, rec.QoR)
		}
		if len(rec.Plan) == 0 {
			t.Errorf("%s: empty plan", design)
		}
	}
	// Every record must have a quality in [0,1].
	for name, rec := range db.Strategies {
		if rec.Quality < 0 || rec.Quality > 1 {
			t.Errorf("%s: quality %f out of range", name, rec.Quality)
		}
	}
}

func TestRetrieveStrategiesRerank(t *testing.T) {
	if testing.Short() {
		t.Skip("expert synthesis is slow")
	}
	db := buildFull(t)
	// Query with the dynamic_node benchmark: a high-fanout design.
	d := designs.DynamicNode()
	emb, _, err := db.EmbedDesign(d.Source, d.Top)
	if err != nil {
		t.Fatal(err)
	}
	hits := db.RetrieveStrategies(emb, 3, 0.7, 0.3)
	if len(hits) != 3 {
		t.Fatalf("hits = %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Error("hits not sorted by reranked score")
		}
	}
	text := RenderStrategies(hits)
	if !strings.Contains(text, "[strategy from design") || !strings.Contains(text, "achieved WNS") {
		t.Errorf("rendering malformed:\n%s", text)
	}
	// With beta=1, quality dominates: top hit must have met timing.
	qHits := db.RetrieveStrategies(emb, 3, 0.0, 1.0)
	if qHits[0].Record.Quality < qHits[len(qHits)-1].Record.Quality {
		t.Error("quality-dominant rerank did not order by quality")
	}
}

// TestBuildParallelMatchesSerial is the determinism check for the build
// fan-out: any worker count must produce an identical database — the
// trained weights included — because per-design work is independent and
// assembly, gradient shares too, happens in corpus order.
func TestBuildParallelMatchesSerial(t *testing.T) {
	sub := designs.DatabaseDesigns()[:5]
	mk := func(workers int) *Database {
		t.Helper()
		db, err := Build(BuildConfig{
			Seed:        7,
			TrainEpochs: 2,
			Designs:     sub,
			IndexOnly:   []*designs.Design{}, // non-nil: skip the default variants, keep it fast
			Workers:     workers,
		})
		if err != nil {
			t.Fatalf("build (workers=%d): %v", workers, err)
		}
		return db
	}
	serial := mk(1)
	parallel := mk(8)

	if !reflect.DeepEqual(serial.Mentor.Model, parallel.Mentor.Model) {
		t.Error("trained weights differ between serial and parallel builds")
	}
	if !reflect.DeepEqual(serial.Strategies, parallel.Strategies) {
		t.Error("strategy records differ between serial and parallel builds")
	}
	if !reflect.DeepEqual(serial.modules, parallel.modules) {
		t.Error("module records differ between serial and parallel builds")
	}
	if !reflect.DeepEqual(serial.globalIndex, parallel.globalIndex) {
		t.Error("global embedding index differs between serial and parallel builds")
	}
	if !reflect.DeepEqual(serial.moduleIndex, parallel.moduleIndex) {
		t.Error("module embedding index differs between serial and parallel builds")
	}
}
