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
// The strategy database holds the best script per corpus design under the
// full strategy palette — the "expert drafts" of the paper's §V setup. Those
// are found by synthesizing each design under every plan; the answer for the
// shipped corpus is checked in (expert_drafts.go), content-keyed, and a
// design whose key has no row is swept at build time.
package synthrag

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

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
	cache       *dbCache       // optional retrieval memoization (EnableCache)
	counts      *servingCounts // shallow copies share it

	draftsFromTable, draftsSwept int // how the expert entries were found
}

// ExpertDrafts reports how the build found its expert entries: read from the
// checked-in table, or swept under the palette because no row's key matched
// (another library, an edited corpus design or an edited palette).
func (db *Database) ExpertDrafts() (fromTable, swept int) {
	return db.draftsFromTable, db.draftsSwept
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
// on the corpus, takes every corpus design's expert script from the
// checked-in expert-draft table or, on a key miss, synthesizes the design
// under the strategy palette to find it, and indexes embeddings, graphs, the
// target library, and the manual.
func Build(cfg BuildConfig) (*Database, error) {
	return build(cfg, expertDrafts)
}

// build is Build over the expert-draft table drafts, keyed by draftKey; a nil
// table sweeps every expert-entry design.
func build(cfg BuildConfig, drafts map[string]paletteResult) (*Database, error) {
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
		counts:     new(servingCounts),
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

	// Embed per design and find expert strategies in parallel — the trained
	// model is only read from here on, and each design's palette sweep has its
	// own sessions and checkpoint store. Indexes and the graph store are then
	// assembled serially in corpus order, keeping the database bit-identical to
	// a serial build.
	palette := paletteNames()
	libFP := cfg.Lib.Fingerprint()
	type built struct {
		global  []float64
		modEmbs [][]float64
		best    paletteResult
		swept   bool
		err     error
	}
	results := make([]built, len(entries))
	workpool.Run(workers, len(entries), func(i int) {
		e := entries[i]
		r := &results[i]
		r.global = db.Mentor.EmbedGlobal(e.dg)
		r.modEmbs = db.Mentor.EmbedModules(e.dg)
		if cfg.SkipSynth || isIndexOnly[e.d.Name] {
			return
		}
		var ok bool
		if r.best, ok = drafts[draftKey(libFP, palette, e.d)]; !ok {
			r.best, r.err = bestStrategy(e.d, cfg.Lib, palette)
			r.swept = true
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
			// A copy: a caller editing one record's plan must edit neither
			// the palette (and with it every later build's draft keys) nor
			// any other record.
			rec.Plan = append([]string(nil), StrategyPalette[r.best.name]...)
			rec.QoR = r.best.qor
			rec.Quality = quality(r.best.qor)
			if r.swept {
				db.draftsSwept++
			} else {
				db.draftsFromTable++
			}
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

// draftKey is the content address of a design's expert draft: a SHA-256 over
// everything bestStrategy reads as data, each field length-framed as in the
// checkpoint key — the library's fingerprint, the palette's names and plan
// lines in sweep order, and the design's name, file name, top, source and
// baseline script. A change to the code the sweep runs is not in the key;
// TestExpertDraftsCurrent catches that.
func draftKey(libFingerprint string, names []string, d *designs.Design) string {
	h := sha256.New()
	frame := func(b string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write([]byte(b))
	}
	frame("lib")
	frame(libFingerprint)
	frame("palette")
	for _, name := range names {
		plan := StrategyPalette[name]
		frame(name)
		frame(strconv.Itoa(len(plan)))
		for _, line := range plan {
			frame(line)
		}
	}
	frame("design")
	for _, s := range []string{d.Name, d.FileName, d.Top, d.Source, d.BaselineScript()} {
		frame(s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// paletteResult is one sweep's answer: the winning plan's palette name and
// the QoR it achieved. The expert-draft table holds one per design.
type paletteResult struct {
	name string
	qor  synth.QoR
}

// bestStrategy synthesizes a design under every palette plan, in the order of
// names, and returns the best by timing, then area — the expert-draft
// selection. It is the only code that sweeps: a build's table misses, the
// table's freshness test and its regeneration all come here. When no plan
// runs, the error wraps the first plan's.
//
// The plans share one checkpoint store that lives for this sweep only: the
// design is parsed and elaborated once, the other plans restore the snapshot
// into the store's one workspace, and its derived level serves the front
// halves the palette repeats. Every run is an Evaluate, which hands its
// workspace back itself, and the store is garbage when the sweep returns, so
// a build keeps at most Workers designs' images and workspaces alive at once,
// and none after it (a store that outlived its sweep is what raised peak RSS;
// see DESIGN.md).
func bestStrategy(d *designs.Design, lib *liberty.Library, names []string) (paletteResult, error) {
	var best paletteResult
	var firstErr error
	first := true
	store := synth.NewCheckpointStore(1)
	for _, name := range names {
		sess := synth.NewSession(lib)
		sess.Checkpoints = store
		sess.AddSource(d.FileName, d.Source)
		res, err := sess.Evaluate(context.Background(), sweepScript(d, StrategyPalette[name]))
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", name, err)
			}
			continue // a palette entry can be inapplicable; skip it
		}
		if first || betterQoR(*res.QoR, best.qor) {
			best = paletteResult{name, *res.QoR}
			first = false
		}
	}
	if first {
		return best, fmt.Errorf("no palette strategy ran successfully (first plan %w)", firstErr)
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

// RetrieveStrategiesForContext performs graph-embedding retrieval with the
// Eq. 5 domain-specific rerank: Score = alpha*sim + beta*quality +
// gamma*traitOverlap, over the query design's structural traits. Trait
// compatibility is the "additional characteristics" the paper's
// domain-specific reranking function uses to reorder embeddings whose raw
// similarities barely differ (an ALU and a systolic array are both
// arithmetic, but need different strategies). The context is checked
// before the nearest-neighbour search and before the rerank, so a cancelled
// retrieval returns promptly.
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

// SearchManualContext retrieves manual sections by text embedding and
// reranks the candidates with the LLM (the GPT-4o-as-reranker step). A nil
// model skips reranking. The context is checked before the embedding search
// and before the rerank.
func (db *Database) SearchManualContext(ctx context.Context, query string, k int, reranker *llm.Model) ([]ManualDoc, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qvec := db.Embedder.Embed(query)
	db.counts.manualSearches.Add(1)
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

// servingCounts back CacheStats' embedding counters and BatchStats.
type servingCounts struct {
	embedHits, embedMisses, manualSearches atomic.Int64
}

// EmbedDesignContext analyzes query RTL into its global embedding, for
// callers that have only source text. The context is checked between the
// graph-build and GNN-embed phases. It keeps nothing (see
// EmbedSnapshotContext).
func (db *Database) EmbedDesignContext(ctx context.Context, src, top string) ([]float64, *circuitmentor.DesignGraph, error) {
	return db.embed(ctx, synth.Snapshot{}, src, top)
}

// EmbedSnapshotContext is EmbedDesignContext's embedding for a caller that
// holds the handle of a synthesis run of the same design: it is kept on the
// snapshot under db, and a miss builds the graph over the sources the store
// holds parsed. The zero handle, or one whose snapshot has been evicted,
// parses src to the same embedding. The caller gets its own copy.
func (db *Database) EmbedSnapshotContext(ctx context.Context, snap synth.Snapshot, src, top string) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, hit, err := snap.Keep(src, top, synth.KeepKey{Owner: db}, func() (any, error) {
		emb, _, err := db.embed(ctx, snap, src, top)
		return emb, err
	})
	if err != nil {
		return nil, err
	}
	if hit {
		db.counts.embedHits.Add(1)
	}
	return append([]float64(nil), v.([]float64)...), nil
}

// embed builds the design's graph — over snap's parsed sources when it has
// them, else by parsing src — and runs the GNN forward pass on it.
func (db *Database) embed(ctx context.Context, snap synth.Snapshot, src, top string) ([]float64, *circuitmentor.DesignGraph, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
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
	db.counts.embedMisses.Add(1)
	return db.Mentor.EmbedGlobal(dg), dg, nil
}

// EmbedModulesOf returns per-module embeddings of query RTL.
func (db *Database) EmbedModulesOf(dg *circuitmentor.DesignGraph) [][]float64 {
	return db.Mentor.EmbedModules(dg)
}
