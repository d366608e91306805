// Package synthrag implements SynthRAG (paper §IV-B): the domain-specific
// multimodal retrieval-augmented generation framework. It maintains the
// database of TABLE I's four modalities and their query methods:
//
//   - High-level circuit information — graph embeddings from CircuitMentor,
//     queried by nearest-neighbour search (Eq. 4) with the domain-specific
//     rerank of Eq. 5 (alpha·similarity + beta·characteristics), returning
//     compile and optimization strategies.
//   - Circuit design code — the hierarchical graph in the property-graph
//     database, queried directly with Cypher (module code by name).
//   - Target library — gate cells stored as graph nodes, queried with Cypher.
//   - Tool user manual — text embeddings over the manual corpus with the
//     LLM as reranker.
//
// The strategy database is built by actually synthesizing the corpus
// designs under the full strategy palette and keeping the best script per
// design — the "expert drafts" of the paper's §V setup.
package synthrag

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/gnn"
	"repro/internal/graphdb"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/manual"
	"repro/internal/synth"
	"repro/internal/textembed"
	"repro/internal/vecindex"
	"repro/internal/workpool"
)

// StrategyPalette is the set of optimization plans the database designs are
// synthesized under when building the expert corpus.
var StrategyPalette = map[string][]string{
	"effort":  {"compile_ultra"},
	"retime":  {"compile_ultra -retime", "optimize_registers"},
	"fanout":  {"set_max_fanout 16 [current_design]", "compile_ultra", "balance_buffers"},
	"fanout+": {"set_max_fanout 16 [current_design]", "compile_ultra -timing_high_effort_script", "balance_buffers"},
	"ungroup": {"ungroup -all -flatten", "compile_ultra -retime"},
	"deep":    {"compile_ultra -timing_high_effort_script"},
	"area":    {"compile_ultra -area_high_effort_script"},
	"generic": {"compile"},
}

// StrategyRecord is one expert entry: the best-performing script found for
// a corpus design, with the QoR it achieved and the design's embedding.
type StrategyRecord struct {
	Design    string
	Category  string
	Traits    []string
	Strategy  string   // palette key
	Plan      []string // command lines
	QoR       synth.QoR
	Quality   float64 // normalized characteristic c_i for Eq. 5
	Embedding []float64
}

// ModuleRecord indexes one corpus module for retrieval.
type ModuleRecord struct {
	Design   string
	Module   string
	Category string
}

// Database is the built SynthRAG store.
type Database struct {
	Mentor   *circuitmentor.Mentor
	Graph    *graphdb.DB
	Manual   *manual.Corpus
	Embedder *textembed.Embedder

	Strategies  map[string]*StrategyRecord // design name -> record
	globalIndex *vecindex.Flat             // design embeddings
	moduleIndex *vecindex.Flat             // module embeddings
	modules     map[string]ModuleRecord    // "design/module" -> record
	manualIndex *vecindex.Flat             // manual section embeddings
	manualByID  map[string]int             // vec id -> doc index
	lib         *liberty.Library
	cache       *dbCache  // optional serving-path memoization (EnableCache)
	batch       *batchers // optional embedding admission queue (EnableBatching)
}

// BuildConfig controls database construction.
type BuildConfig struct {
	Seed        int64
	TrainEpochs int  // metric-learning epochs (0 = skip training, ablation)
	SkipSynth   bool // skip expert-script synthesis (retrieval-only tests)
	Lib         *liberty.Library
	Designs     []*designs.Design // default: DatabaseDesigns + DatabaseVariants
	// IndexOnly designs join metric training and the module index but get
	// no expert-script synthesis (default: designs.TrainingVariants).
	IndexOnly []*designs.Design
	// Workers bounds the per-design fan-out of the build's parallel phases
	// (graph construction, each training step's per-graph forward and
	// backward, embedding, expert-draft synthesis). 0 means GOMAXPROCS, 1
	// forces the serial path. The built database is identical for any worker
	// count: per-design work is independent, and results and gradient shares
	// are assembled in corpus order.
	Workers int
}

// Build constructs the database: trains CircuitMentor with metric learning
// on the corpus, synthesizes every corpus design under the strategy palette
// to find its expert script, and indexes embeddings, graphs, the target
// library, and the manual.
func Build(cfg BuildConfig) (*Database, error) {
	if cfg.Lib == nil {
		cfg.Lib = liberty.Nangate45()
	}
	corpus := cfg.Designs
	if corpus == nil {
		corpus = append(designs.DatabaseDesigns(), designs.DatabaseVariants()...)
	}
	indexOnly := cfg.IndexOnly
	if indexOnly == nil {
		indexOnly = designs.TrainingVariants()
	}
	isIndexOnly := make(map[string]bool, len(indexOnly))
	for _, d := range indexOnly {
		isIndexOnly[d.Name] = true
	}
	corpus = append(append([]*designs.Design(nil), corpus...), indexOnly...)
	db := &Database{
		Mentor:     circuitmentor.New(cfg.Seed),
		Graph:      graphdb.New(),
		Manual:     manual.Build(),
		Embedder:   textembed.New(512),
		Strategies: make(map[string]*StrategyRecord),
		modules:    make(map[string]ModuleRecord),
		manualByID: make(map[string]int),
		lib:        cfg.Lib,
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Parse corpus designs into graphs, fanned out per design; graphs land
	// at their corpus index, so downstream order is worker-count-independent.
	type entry struct {
		d  *designs.Design
		dg *circuitmentor.DesignGraph
	}
	entries := make([]entry, len(corpus))
	buildErrs := make([]error, len(corpus))
	workpool.Run(workers, len(corpus), func(i int) {
		d := corpus[i]
		dg, err := circuitmentor.BuildGraph(d.Source, d.Top)
		if err != nil {
			buildErrs[i] = fmt.Errorf("%s: %v", d.Name, err)
			return
		}
		entries[i] = entry{d, dg}
	})
	for _, err := range buildErrs {
		if err != nil {
			return nil, err
		}
	}
	samples := make([]circuitmentor.TrainSample, len(entries))
	for ei, e := range entries {
		labels := make([]string, len(e.dg.Modules))
		for i, mi := range e.dg.Modules {
			labels[i] = designs.ModuleCategory(mi.Name)
			if labels[i] == "" {
				labels[i] = e.d.Category
			}
		}
		samples[ei] = circuitmentor.TrainSample{DG: e.dg, Labels: labels}
	}

	// Metric learning (Fig. 4): same-category modules cluster.
	if cfg.TrainEpochs > 0 {
		tc := gnn.DefaultTrainConfig()
		tc.LR = 0.02
		if _, err := db.Mentor.Train(samples, cfg.TrainEpochs, tc, workers); err != nil {
			return nil, err
		}
	}

	// Embed and synthesize expert strategies per design in parallel — the
	// trained model is only read from here on, and each design's palette
	// sweep has its own sessions and checkpoint store. Indexes and the graph
	// store are then assembled serially in corpus order, keeping the database
	// bit-identical to a serial build.
	palette := paletteNames()
	type built struct {
		global  []float64
		modEmbs [][]float64
		best    paletteResult
		err     error
	}
	results := make([]built, len(entries))
	workpool.Run(workers, len(entries), func(i int) {
		e := entries[i]
		r := &results[i]
		r.global = db.Mentor.EmbedGlobal(e.dg)
		r.modEmbs = db.Mentor.EmbedModules(e.dg)
		if !cfg.SkipSynth && !isIndexOnly[e.d.Name] {
			r.best, r.err = bestStrategy(e.d, cfg.Lib, palette)
		}
	})

	dim := db.Mentor.Model.Config().OutDim
	db.globalIndex = vecindex.NewFlat(dim, vecindex.Cosine)
	db.moduleIndex = vecindex.NewFlat(dim, vecindex.Cosine)
	for ei, e := range entries {
		r := results[ei]
		circuitmentor.LoadIntoDB(db.Graph, e.dg, map[string]any{
			"name":     e.d.Name,
			"category": e.d.Category,
			"period":   e.d.Period,
		})
		if err := db.globalIndex.Add(e.d.Name, r.global); err != nil {
			return nil, err
		}
		for i, emb := range r.modEmbs {
			id := e.d.Name + "/" + e.dg.Modules[i].Name
			if err := db.moduleIndex.Add(id, emb); err != nil {
				return nil, err
			}
			db.modules[id] = ModuleRecord{
				Design:   e.d.Name,
				Module:   e.dg.Modules[i].Name,
				Category: samples[ei].Labels[i],
			}
		}

		if isIndexOnly[e.d.Name] {
			continue // modules indexed; no expert strategy entry
		}
		rec := &StrategyRecord{
			Design:    e.d.Name,
			Category:  e.d.Category,
			Traits:    e.d.Traits,
			Embedding: r.global,
		}
		if !cfg.SkipSynth {
			if r.err != nil {
				return nil, fmt.Errorf("%s: expert synthesis: %v", e.d.Name, r.err)
			}
			rec.Strategy = r.best.name
			rec.Plan = StrategyPalette[r.best.name]
			rec.QoR = r.best.qor
			rec.Quality = quality(r.best.qor)
		}
		db.Strategies[e.d.Name] = rec
	}

	// Target library into the graph database.
	for _, c := range cfg.Lib.Cells() {
		db.Graph.CreateNode([]string{"Cell"}, map[string]any{
			"name": c.Name, "function": string(c.Kind), "drive": int64(c.Drive),
			"area": c.Area, "leakage": c.Leakage, "input_cap": c.InputCap,
		})
	}

	// Manual index.
	texts := db.Manual.Texts()
	db.Embedder.Fit(texts)
	db.manualIndex = vecindex.NewFlat(db.Embedder.Dim, vecindex.Cosine)
	for i, d := range db.Manual.Docs {
		if err := db.manualIndex.Add(d.ID, db.Embedder.Embed(texts[i])); err != nil {
			return nil, err
		}
		db.manualByID[d.ID] = i
	}
	return db, nil
}

// paletteNames lists the palette's plans in the order every sweep tries them.
func paletteNames() []string {
	names := make([]string, 0, len(StrategyPalette))
	for n := range StrategyPalette {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type paletteResult struct {
	name string
	qor  synth.QoR
}

// bestStrategy synthesizes a design under every palette plan, in the order of
// names, and returns the best by timing, then area — the expert-draft
// selection.
//
// The plans share one checkpoint store that lives for this sweep only: the
// design is parsed and elaborated once, the other plans restore the snapshot
// into the store's one workspace, and its derived level serves the front
// halves the palette repeats. Every result is released and the store is
// garbage when the sweep returns, so a build keeps at most Workers designs'
// images and workspaces alive at once, and none after it (a store that
// outlived its sweep is what raised peak RSS; see DESIGN.md).
func bestStrategy(d *designs.Design, lib *liberty.Library, names []string) (paletteResult, error) {
	var best paletteResult
	first := true
	store := synth.NewCheckpointStore(1)
	for _, name := range names {
		sess := synth.NewSession(lib)
		sess.Checkpoints = store
		sess.AddSource(d.FileName, d.Source)
		res, err := sess.Run(sweepScript(d, StrategyPalette[name]))
		if err != nil {
			continue // a palette entry can be inapplicable; skip it
		}
		q := *res.QoR
		res.Release()
		if first || betterQoR(q, best.qor) {
			best = paletteResult{name, q}
			first = false
		}
	}
	if first {
		return best, fmt.Errorf("no palette strategy ran successfully")
	}
	return best, nil
}

// sweepScript splices plan into d's baseline script and drops the report
// commands SpliceScript re-emits at the end: the sweep reads a run's QoR,
// never its report text, and the reports change nothing the QoR is computed
// from.
func sweepScript(d *designs.Design, plan []string) string {
	lines := strings.Split(strings.TrimSuffix(llm.SpliceScript(d.BaselineScript(), plan), "\n"), "\n")
	for len(lines) > 0 && strings.HasPrefix(lines[len(lines)-1], "report_") {
		lines = lines[:len(lines)-1]
	}
	return strings.Join(lines, "\n") + "\n"
}

// betterQoR orders by WNS, then CPS, then smaller area.
func betterQoR(a, b synth.QoR) bool {
	if a.WNS != b.WNS {
		return a.WNS > b.WNS
	}
	if a.CPS != b.CPS {
		return a.CPS > b.CPS
	}
	return a.Area < b.Area
}

// quality is the characteristic c_i of Eq. 5: 1.0 for met timing with
// slack, decreasing with violation depth relative to the period.
func quality(q synth.QoR) float64 {
	if q.Period <= 0 {
		return 0
	}
	v := 1 + q.WNS/q.Period
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// StrategyHit is one reranked retrieval result.
type StrategyHit struct {
	Record *StrategyRecord
	Sim    float64 // cosine similarity (Eq. 4)
	Score  float64 // reranked score (Eq. 5)
}

// RetrieveStrategies performs graph-embedding retrieval with the
// domain-specific rerank: Score = alpha*sim + beta*quality.
func (db *Database) RetrieveStrategies(query []float64, k int, alpha, beta float64) []StrategyHit {
	return db.RetrieveStrategiesFor(query, nil, k, alpha, beta, 0)
}

// RetrieveStrategiesForContext is RetrieveStrategiesFor with cooperative
// cancellation: the context is checked before the nearest-neighbour search
// and before the rerank, so a cancelled retrieval returns promptly.
func (db *Database) RetrieveStrategiesForContext(ctx context.Context, query []float64, queryTraits []string, k int, alpha, beta, gamma float64) ([]StrategyHit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var key string
	if db.cache != nil {
		key = retrieveKey(query, queryTraits, k, alpha, beta, gamma)
		if hits, ok := db.cachedRetrieve(key); ok {
			return hits, nil
		}
	}
	raw := db.globalIndex.Search(query, max(k*4, k))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hits := make([]StrategyHit, 0, len(raw))
	for _, h := range raw {
		rec := db.Strategies[h.ID]
		if rec == nil {
			continue
		}
		hits = append(hits, StrategyHit{
			Record: rec,
			Sim:    h.Score,
			Score:  alpha*h.Score + beta*rec.Quality + gamma*traitOverlap(queryTraits, rec.Traits),
		})
	}
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].Score > hits[j].Score })
	if k < len(hits) {
		hits = hits[:k]
	}
	if db.cache != nil {
		db.storeRetrieve(key, hits)
	}
	return hits, nil
}

// RetrieveStrategiesFor adds the query design's structural traits to the
// Eq. 5 rerank: Score = alpha*sim + beta*quality + gamma*traitOverlap.
// Trait compatibility is the "additional characteristics" the paper's
// domain-specific reranking function uses to reorder embeddings whose raw
// similarities barely differ (an ALU and a systolic array are both
// arithmetic, but need different strategies).
func (db *Database) RetrieveStrategiesFor(query []float64, queryTraits []string, k int, alpha, beta, gamma float64) []StrategyHit {
	hits, _ := db.RetrieveStrategiesForContext(context.Background(), query, queryTraits, k, alpha, beta, gamma)
	return hits
}

// traitOverlap is the Jaccard overlap of two trait sets.
func traitOverlap(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[string]bool, len(a))
	for _, t := range a {
		set[t] = true
	}
	inter := 0
	union := len(a)
	for _, t := range b {
		if set[t] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// ModuleHit is one module retrieval result.
type ModuleHit struct {
	Record ModuleRecord
	Sim    float64
}

// RetrieveModules returns the top-k most similar corpus modules for a query
// embedding — the retrieval evaluated in Fig. 5.
func (db *Database) RetrieveModules(query []float64, k int) []ModuleHit {
	raw := db.moduleIndex.Search(query, k)
	out := make([]ModuleHit, 0, len(raw))
	for _, h := range raw {
		out = append(out, ModuleHit{Record: db.modules[h.ID], Sim: h.Score})
	}
	return out
}

// ModuleCode fetches a module's source from the graph database with the
// direct Cypher query of TABLE I.
func (db *Database) ModuleCode(design, module string) (string, error) {
	v, err := db.Graph.QueryValue(
		`MATCH (m:Module {name: $mod, design: $design}) RETURN m.code`,
		map[string]any{"mod": module, "design": design})
	if err != nil {
		return "", fmt.Errorf("module %s/%s not in database: %v", design, module, err)
	}
	code, _ := v.(string)
	if code == "" {
		return "", fmt.Errorf("module %s/%s not in database", design, module)
	}
	return code, nil
}

// CellInfo fetches a target-library cell's record via Cypher.
func (db *Database) CellInfo(name string) (map[string]any, error) {
	res, err := db.Graph.Query(
		`MATCH (c:Cell {name: $name}) RETURN c.function, c.drive, c.area, c.leakage, c.input_cap`,
		map[string]any{"name": name})
	if err != nil {
		return nil, err
	}
	if len(res.Rows) != 1 {
		return nil, fmt.Errorf("cell %s not in database", name)
	}
	out := make(map[string]any, len(res.Columns))
	for i, col := range res.Columns {
		out[strings.TrimPrefix(col, "c.")] = res.Rows[0][i]
	}
	return out, nil
}

// ManualDoc is one reranked manual hit.
type ManualDoc struct {
	Doc   manual.Doc
	Score float64
}

// SearchManual retrieves manual sections by text embedding and reranks the
// candidates with the LLM (the GPT-4o-as-reranker step). A nil model skips
// reranking.
func (db *Database) SearchManual(query string, k int, reranker *llm.Model) []ManualDoc {
	docs, _ := db.SearchManualContext(context.Background(), query, k, reranker)
	return docs
}

// SearchManualContext is SearchManual with cooperative cancellation: the
// context is checked before the embedding search and before the rerank.
func (db *Database) SearchManualContext(ctx context.Context, query string, k int, reranker *llm.Model) ([]ManualDoc, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qvec, err := db.embedText(ctx, query)
	if err != nil {
		return nil, err
	}
	raw := db.manualIndex.Search(qvec, max(k*3, k))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]ManualDoc, 0, len(raw))
	for _, h := range raw {
		doc := db.Manual.Docs[db.manualByID[h.ID]]
		score := h.Score
		if reranker != nil {
			score = 0.5*h.Score + 0.5*reranker.ScoreRelevance(query, doc.Title+"\n"+doc.Text)
		}
		out = append(out, ManualDoc{Doc: doc, Score: score})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	if k < len(out) {
		out = out[:k]
	}
	return out, nil
}

// RenderStrategies formats retrieval hits as the "Retrieved strategies"
// prompt section.
func RenderStrategies(hits []StrategyHit) string {
	var b strings.Builder
	for _, h := range hits {
		fmt.Fprintf(&b, "[strategy from design %s (%s), similarity %.2f, traits %s]\n",
			h.Record.Design, h.Record.Category, h.Sim, strings.Join(h.Record.Traits, ","))
		for _, l := range h.Record.Plan {
			b.WriteString(l)
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "-- achieved WNS %.3f CPS %.3f area %.1f\n\n",
			h.Record.QoR.WNS, h.Record.QoR.CPS, h.Record.QoR.Area)
	}
	return b.String()
}

// EmbedDesign analyzes query RTL into its global embedding, for callers
// that have only source text.
func (db *Database) EmbedDesign(src, top string) ([]float64, *circuitmentor.DesignGraph, error) {
	return db.EmbedDesignContext(context.Background(), src, top)
}

// EmbedDesignContext is EmbedDesign with cooperative cancellation: the
// context is checked between the graph-build and GNN-embed phases.
func (db *Database) EmbedDesignContext(ctx context.Context, src, top string) ([]float64, *circuitmentor.DesignGraph, error) {
	return db.EmbedSnapshotContext(ctx, synth.Snapshot{}, src, top)
}

// EmbedSnapshotContext is EmbedDesignContext for a caller that holds the
// handle of a synthesis run of the same design: on an embedding-cache miss the
// graph is built over the sources the checkpoint store already holds parsed.
// The zero handle, or one whose snapshot has been evicted, parses src — the
// graph and the embedding are the same either way.
func (db *Database) EmbedSnapshotContext(ctx context.Context, snap synth.Snapshot, src, top string) ([]float64, *circuitmentor.DesignGraph, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var key designKey
	if db.cache != nil {
		key = embedKey(src, top)
		if emb, dg, ok := db.cachedEmbed(key); ok {
			return emb, dg, nil
		}
	}
	var dg *circuitmentor.DesignGraph
	var err error
	if file, ok := snap.File(src, top); ok {
		dg, err = circuitmentor.BuildGraphFromFile(file, top)
	} else {
		dg, err = circuitmentor.BuildGraph(src, top)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	emb, err := db.embedGlobal(ctx, dg)
	if err != nil {
		return nil, nil, err
	}
	if db.cache != nil {
		db.storeEmbed(key, emb, dg)
	}
	return emb, dg, nil
}

// EmbedModulesOf returns per-module embeddings of query RTL.
func (db *Database) EmbedModulesOf(dg *circuitmentor.DesignGraph) [][]float64 {
	return db.Mentor.EmbedModules(dg)
}
