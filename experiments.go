package chatls

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/resilience"
	"repro/internal/synth"
	"repro/internal/synthrag"
	"repro/internal/textembed"
	"repro/internal/vecindex"
	"repro/internal/workpool"
)

// ProtocolSeed is the paper's evaluation seed (date of the protocol run).
const ProtocolSeed = 20250706

// DesignError records a design that failed during a sweep; the sweep
// continues over the remaining designs and returns partial rows.
type DesignError struct {
	Design string
	Err    error
}

func (e DesignError) Error() string { return fmt.Sprintf("%s: %v", e.Design, e.Err) }

// Unwrap exposes the cause so errors.Is/As see through the design wrapper.
func (e DesignError) Unwrap() error { return e.Err }

// SweepErrors aggregates the per-design failures of one experiment sweep.
// Callers receive it alongside the partial rows; a fatal error (context
// cancellation or timeout) aborts the sweep instead.
type SweepErrors []DesignError

func (s SweepErrors) Error() string {
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.Error()
	}
	return fmt.Sprintf("%d design(s) failed: %s", len(s), strings.Join(parts, "; "))
}

// OrNil returns the aggregate as an error, or a true nil when empty — never
// a non-nil interface holding an empty slice.
func (s SweepErrors) OrNil() error {
	if len(s) == 0 {
		return nil
	}
	return s
}

// ExperimentConfig parameterizes the paper-reproduction experiments.
type ExperimentConfig struct {
	Seed        int64
	K           int // Pass@k samples (paper: 5)
	TrainEpochs int // metric-learning epochs for the database build
	// Workers bounds concurrency. For Pass@k sample evaluation 0 or 1 keeps
	// the paper's serial protocol; higher values only change wall-clock
	// (samples are seeded by index), but default serial keeps results
	// byte-identical run to run regardless of scheduling. The database build
	// and the Table IV sweep instead fan out across GOMAXPROCS when Workers
	// is 0: their per-design work is pure and results are assembled in design
	// order, so any worker count produces identical output (1 forces serial).
	Workers  int
	Lib      *liberty.Library
	Designs  []*designs.Design // nil = the full Table IV benchmark set
	SoCCount int               // Fig. 5 query workload size
	// Checkpoints, when non-nil, is shared across every synthesis run of the
	// experiment: Pass@k samples, baselines, and iterative-resynthesis rounds
	// restore post-link elaboration state instead of re-parsing identical
	// sources. Results are bit-identical with or without it (nil disables
	// checkpointing); only wall-clock changes.
	Checkpoints *synth.CheckpointStore
	// Results, when non-nil, is the durable QoR store shared across the
	// experiment: sweeps over unchanged (library, design, script) inputs are
	// served from the log instead of re-synthesized — the skip-if-unchanged
	// protocol — and every fresh outcome is appended so the next process can
	// skip it too. Determinism makes served and recomputed results
	// bit-identical; nil disables result caching. A remotecache.Tier also
	// shares the records with every replica on the same remote cache.
	Results ResultStore
}

// DefaultConfig matches the paper's protocol.
func DefaultConfig() ExperimentConfig {
	return ExperimentConfig{Seed: ProtocolSeed, K: 5, TrainEpochs: 40, SoCCount: 16}
}

func (c *ExperimentConfig) fill() {
	if c.Seed == 0 {
		c.Seed = ProtocolSeed
	}
	if c.Lib == nil {
		c.Lib = liberty.Nangate45()
	}
	if c.Designs == nil {
		c.Designs = designs.Benchmarks()
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.SoCCount == 0 {
		c.SoCCount = 16
	}
	if c.TrainEpochs == 0 {
		c.TrainEpochs = 40
	}
}

// evalOptions is the slice of the config every synthesis run of a sweep
// shares: worker bound, checkpoint store, and result store.
func (c ExperimentConfig) evalOptions() EvalOptions {
	return EvalOptions{Workers: c.Workers, Checkpoints: c.Checkpoints, Results: c.Results}
}

// passKOptions is evalOptions for one RunPassKOpts call: without a result
// store, a fresh one of its own synthesizes each distinct script of the k
// samples once (EvalOptions.ShareRepeats).
func (c ExperimentConfig) passKOptions() EvalOptions {
	o, _ := c.evalOptions().ShareRepeats(c.K)
	return o
}

// BuildDatabase constructs the SynthRAG database for the experiments
// (Table II's corpus synthesized under the strategy palette).
func BuildDatabase(cfg ExperimentConfig) (*synthrag.Database, error) {
	cfg.fill()
	return synthrag.Build(synthrag.BuildConfig{
		Seed:        cfg.Seed,
		TrainEpochs: cfg.TrainEpochs,
		Lib:         cfg.Lib,
		Workers:     cfg.Workers,
	})
}

// ----------------------------------------------------------------------------
// Table IV: baseline QoR of the benchmark designs.

// Table4Row is one design's baseline result.
type Table4Row struct {
	Design string
	QoR    synth.QoR
}

// Table4 runs every benchmark's adapted baseline script. Designs are
// isolated: a failing design is recorded in the returned SweepErrors and the
// sweep continues; only a fatal (context) error aborts early with the rows
// gathered so far. Designs synthesize in parallel (each in its own session),
// but rows and errors are assembled in design order, so the output is
// identical to the serial sweep. With cfg.Results set, a design whose
// (library, sources, baseline script) already sits in the durable log is
// served from it without synthesizing — repeat sweeps over unchanged inputs
// cost one hash per design.
func Table4(ctx context.Context, cfg ExperimentConfig) ([]Table4Row, error) {
	cfg.fill()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type outcome struct {
		q   synth.QoR
		err error
	}
	results := make([]outcome, len(cfg.Designs))
	o := cfg.evalOptions()
	workpool.Run(workers, len(cfg.Designs), func(i int) {
		d := cfg.Designs[i]
		key, logged := o.lookup(o.resultPrefix(cfg.Lib, d), d.BaselineScript())
		if logged != nil {
			results[i] = outcome{q: *logged}
			return
		}
		_, q, err := o.newTask(ctx, d, cfg.Lib, key)
		results[i] = outcome{q: q, err: err}
	})
	var rows []Table4Row
	var errs SweepErrors
	for i, d := range cfg.Designs {
		if err := results[i].err; err != nil {
			if resilience.IsFatal(err) {
				return rows, err
			}
			errs = append(errs, DesignError{Design: d.Name, Err: err})
			continue
		}
		rows = append(rows, Table4Row{Design: d.Name, QoR: results[i].q})
	}
	return rows, errs.OrNil()
}

// FormatTable4 renders Table IV.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("TABLE IV  Performance Baseline of Various Designs\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %10s %12s\n", "Design", "WNS", "CPS", "TNS", "Area (um^2)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8.2f %8.2f %10.2f %12.2f\n",
			r.Design, r.QoR.WNS, r.QoR.CPS, r.QoR.TNS, r.QoR.Area)
	}
	return b.String()
}

// ----------------------------------------------------------------------------
// Table III: Pass@5 comparison of GPT-4o, Claude 3.5 Sonnet, and ChatLS.

// Table3Cell is one model's result on one design.
type Table3Cell struct {
	Model string
	QoR   synth.QoR
	Valid int // valid samples out of K
}

// Table3Row collects all models for one design.
type Table3Row struct {
	Design string
	Cells  []Table3Cell
}

// Table3Models are the comparison's pipeline names in paper column order.
var Table3Models = []string{"gpt-4o-sim", "claude-3.5-sonnet-sim", "chatls"}

// Table3 reproduces the paper's model comparison: each pipeline customizes
// each baseline script once (single iteration), Pass@5, best-by-timing.
// A design whose evaluation fails is skipped (no row) and recorded in the
// returned SweepErrors; fatal (context) errors abort with partial rows.
func Table3(ctx context.Context, cfg ExperimentConfig, db *synthrag.Database) ([]Table3Row, error) {
	cfg.fill()
	if db == nil {
		var err error
		db, err = BuildDatabase(cfg)
		if err != nil {
			return nil, err
		}
	}
	pipelines := []Pipeline{
		&RawPipeline{Model: llm.New(llm.GPT4o, cfg.Seed)},
		&RawPipeline{Model: llm.New(llm.Claude35, cfg.Seed)},
		NewChatLS(llm.New(llm.GPT4o, cfg.Seed), db),
	}
	var rows []Table3Row
	var errs SweepErrors
	for _, d := range cfg.Designs {
		row := Table3Row{Design: d.Name}
		failed := false
		for _, p := range pipelines {
			res, err := RunPassKOpts(ctx, p, d, cfg.K, cfg.Lib, cfg.passKOptions())
			if err != nil {
				if resilience.IsFatal(err) {
					return rows, err
				}
				errs = append(errs, DesignError{Design: d.Name, Err: fmt.Errorf("%s: %w", p.Name(), err)})
				failed = true
				break
			}
			row.Cells = append(row.Cells, Table3Cell{Model: p.Name(), QoR: res.Best, Valid: res.Valid})
		}
		if !failed {
			rows = append(rows, row)
		}
	}
	return rows, errs.OrNil()
}

// FormatTable3 renders Table III.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("TABLE III  Performance Comparison for Logic Synthesis Script Customization (Pass@5)\n")
	fmt.Fprintf(&b, "%-14s", "Design")
	if len(rows) > 0 {
		for _, c := range rows[0].Cells {
			fmt.Fprintf(&b, " | %-21s  WNS     CPS      TNS      Area", c.Model)
		}
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s", r.Design)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " | %21s %7.2f %7.2f %9.2f %9.2f", "", c.QoR.WNS, c.QoR.CPS, c.QoR.TNS, c.QoR.Area)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ----------------------------------------------------------------------------
// Table II: the SynthRAG database corpus.

// Table2Row summarizes one corpus design's expert record.
type Table2Row struct {
	Design   string
	Category string
	Strategy string
	QoR      synth.QoR
}

// Table2 reports the database contents after the expert-draft build.
func Table2(db *synthrag.Database) []Table2Row {
	var rows []Table2Row
	for _, rec := range db.Strategies {
		rows = append(rows, Table2Row{
			Design:   rec.Design,
			Category: rec.Category,
			Strategy: rec.Strategy,
			QoR:      rec.QoR,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Category != rows[j].Category {
			return rows[i].Category < rows[j].Category
		}
		return rows[i].Design < rows[j].Design
	})
	return rows
}

// FormatTable2 renders the corpus overview.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("TABLE II  Overview of Hardware Designs in the Database\n")
	fmt.Fprintf(&b, "%-30s %-14s %-9s %8s %10s\n", "Category", "Design", "Strategy", "WNS", "Area")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %-14s %-9s %8.2f %10.2f\n", r.Category, r.Design, r.Strategy, r.QoR.WNS, r.QoR.Area)
	}
	return b.String()
}

// ----------------------------------------------------------------------------
// Fig. 5: SynthRAG retrieval F1 on Chipyard-style SoC configurations.

// Fig5Point is one (variant, category) F1 measurement.
type Fig5Point struct {
	Variant   string
	Category  string
	Precision float64
	Recall    float64
	F1        float64
}

// Fig5Variants are the retrieval configurations compared: full SynthRAG,
// the GNN without metric learning, and plain text embedding of module code.
var Fig5Variants = []string{"synthrag", "no-metric-learning", "text-only"}

// Fig5 evaluates module retrieval on generated SoC configurations: each SoC
// module queries the database for its top-5 most similar corpus modules;
// the majority category of the hits is the prediction, scored against the
// module's ground-truth category as precision/recall/F1 per category plus a
// macro average ("overall"). The context is checked between the two
// database builds (a build itself takes none), between the SoCs the queries
// come from, between the variants and between query modules.
func Fig5(ctx context.Context, cfg ExperimentConfig) ([]Fig5Point, error) {
	cfg.fill()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	trained, err := synthrag.Build(synthrag.BuildConfig{Seed: cfg.Seed, TrainEpochs: cfg.TrainEpochs, SkipSynth: true, Lib: cfg.Lib})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	untrained, err := synthrag.Build(synthrag.BuildConfig{Seed: cfg.Seed, TrainEpochs: 0, SkipSynth: true, Lib: cfg.Lib})
	if err != nil {
		return nil, err
	}
	textIdx, textCats, embedder, err := buildTextIndex()
	if err != nil {
		return nil, err
	}

	// Query workload: SoC module graphs with ground-truth categories.
	rng := rand.New(rand.NewSource(cfg.Seed))
	type query struct {
		dg    *circuitmentor.DesignGraph
		midx  int
		truth string
	}
	var queries []query
	for i := 0; i < cfg.SoCCount; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		soc := designs.SoC(designs.RandomSoCConfig(fmt.Sprintf("q%d", i), rng))
		dg, err := circuitmentor.BuildGraph(soc.Source, soc.Top)
		if err != nil {
			return nil, err
		}
		for mi, m := range dg.Modules {
			if truth := designs.ModuleCategory(m.Name); truth != "" {
				queries = append(queries, query{dg, mi, truth})
			}
		}
	}

	categories := []string{designs.CatProcessor, designs.CatMLAccel, designs.CatVector, designs.CatDSP, designs.CatCrypto}
	var points []Fig5Point
	for _, variant := range Fig5Variants {
		// Predict each query module's category.
		preds := make([]string, len(queries))
		for qi, q := range queries {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			switch variant {
			case "synthrag":
				embs := trained.EmbedModulesOf(q.dg)
				preds[qi] = majorityCategory(trained.RetrieveModules(embs[q.midx], 5))
			case "no-metric-learning":
				embs := untrained.EmbedModulesOf(q.dg)
				preds[qi] = majorityCategory(untrained.RetrieveModules(embs[q.midx], 5))
			case "text-only":
				// Query code is identifier-obfuscated: foreign RTL shares
				// structure with the corpus, not naming conventions.
				code := designs.ObfuscateRTL(q.dg.Modules[q.midx].Code)
				hits := textIdx.Search(embedder.Embed(code), 5)
				votes := map[string]float64{}
				for _, h := range hits {
					votes[textCats[h.ID]] += simWeight(h.Score)
				}
				preds[qi] = argmaxVotes(votes)
			}
		}
		// Per-category precision/recall/F1 and macro average.
		var macroF1, macroP, macroR float64
		for _, cat := range categories {
			tp, fp, fn := 0, 0, 0
			for qi, q := range queries {
				switch {
				case preds[qi] == cat && q.truth == cat:
					tp++
				case preds[qi] == cat && q.truth != cat:
					fp++
				case preds[qi] != cat && q.truth == cat:
					fn++
				}
			}
			p := safeDiv(tp, tp+fp)
			r := safeDiv(tp, tp+fn)
			f1 := 0.0
			if p+r > 0 {
				f1 = 2 * p * r / (p + r)
			}
			points = append(points, Fig5Point{Variant: variant, Category: cat, Precision: p, Recall: r, F1: f1})
			macroF1 += f1
			macroP += p
			macroR += r
		}
		n := float64(len(categories))
		points = append(points, Fig5Point{
			Variant: variant, Category: "overall",
			Precision: macroP / n, Recall: macroR / n, F1: macroF1 / n,
		})
	}
	return points, nil
}

func buildTextIndex() (*vecindex.Flat, map[string]string, *textembed.Embedder, error) {
	corpus := append(designs.DatabaseDesigns(), designs.DatabaseVariants()...)
	corpus = append(corpus, designs.TrainingVariants()...)
	embedder := textembed.New(512)
	var texts []string
	type rec struct {
		id, cat, code string
	}
	var recs []rec
	for _, d := range corpus {
		dg, err := circuitmentor.BuildGraph(d.Source, d.Top)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, m := range dg.Modules {
			cat := designs.ModuleCategory(m.Name)
			if cat == "" {
				cat = d.Category
			}
			recs = append(recs, rec{d.Name + "/" + m.Name, cat, m.Code})
			texts = append(texts, m.Code)
		}
	}
	embedder.Fit(texts)
	idx := vecindex.NewFlat(embedder.Dim, vecindex.Cosine)
	cats := make(map[string]string, len(recs))
	for _, r := range recs {
		if err := idx.Add(r.id, embedder.Embed(r.code)); err != nil {
			return nil, nil, nil, err
		}
		cats[r.id] = r.cat
	}
	return idx, cats, embedder, nil
}

// majorityCategory predicts by similarity-weighted voting over the top
// hits: a single near-exact structural match outweighs several merely
// related neighbours.
func majorityCategory(hits []synthrag.ModuleHit) string {
	votes := map[string]float64{}
	for _, h := range hits {
		votes[h.Record.Category] += simWeight(h.Sim)
	}
	return argmaxVotes(votes)
}

// simWeight sharpens cosine similarity into a vote weight.
func simWeight(sim float64) float64 {
	if sim <= 0 {
		return 0
	}
	w := sim
	for i := 0; i < 7; i++ {
		w *= sim
	}
	return w
}

func argmaxVotes(votes map[string]float64) string {
	best := ""
	bestN := -1.0
	keys := make([]string, 0, len(votes))
	for k := range votes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if votes[k] > bestN {
			best, bestN = k, votes[k]
		}
	}
	return best
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// FormatFig5 renders the retrieval results.
func FormatFig5(points []Fig5Point) string {
	var b strings.Builder
	b.WriteString("Fig. 5  Performance of SynthRAG (retrieval F1 on SoC configurations)\n")
	fmt.Fprintf(&b, "%-20s %-30s %9s %9s %9s\n", "Variant", "Category", "Precision", "Recall", "F1")
	for _, p := range points {
		fmt.Fprintf(&b, "%-20s %-30s %9.3f %9.3f %9.3f\n", p.Variant, p.Category, p.Precision, p.Recall, p.F1)
	}
	return b.String()
}

// ----------------------------------------------------------------------------
// Ablations: remove framework components, per DESIGN.md's experiment index.

// AblationRow is one (variant, design) outcome.
type AblationRow struct {
	Variant string
	Design  string
	QoR     synth.QoR
	Valid   int
}

// AblationVariants are the framework configurations compared.
var AblationVariants = []string{"chatls", "no-rag", "no-expert", "no-mentor", "raw"}

// Ablations measures each framework component's contribution on the
// trait-bound designs. Per (variant, design) failures are recorded in the
// returned SweepErrors and the sweep continues; fatal (context) errors
// abort with partial rows.
func Ablations(ctx context.Context, cfg ExperimentConfig, db *synthrag.Database) ([]AblationRow, error) {
	cfg.fill()
	if db == nil {
		var err error
		db, err = BuildDatabase(cfg)
		if err != nil {
			return nil, err
		}
	}
	if len(cfg.Designs) == len(designs.Benchmarks()) {
		cfg.Designs = []*designs.Design{designs.AES(), designs.DynamicNode(), designs.TinyRocket()}
	}
	mk := func(variant string) Pipeline {
		model := llm.New(llm.GPT4o, cfg.Seed)
		switch variant {
		case "raw":
			return &RawPipeline{Model: model}
		default:
			p := NewChatLS(model, db)
			switch variant {
			case "no-rag":
				p.DisableRAG = true
			case "no-expert":
				p.DisableExpert = true
			case "no-mentor":
				p.DisableMentor = true
			}
			return p
		}
	}
	var rows []AblationRow
	var errs SweepErrors
	for _, variant := range AblationVariants {
		p := mk(variant)
		for _, d := range cfg.Designs {
			res, err := RunPassKOpts(ctx, p, d, cfg.K, cfg.Lib, cfg.passKOptions())
			if err != nil {
				if resilience.IsFatal(err) {
					return rows, err
				}
				errs = append(errs, DesignError{Design: variant + "/" + d.Name, Err: err})
				continue
			}
			rows = append(rows, AblationRow{Variant: variant, Design: d.Name, QoR: res.Best, Valid: res.Valid})
		}
	}
	return rows, errs.OrNil()
}

// ----------------------------------------------------------------------------
// Iterative resynthesis: the paper's point that synthesis is not one-shot.

// IterationRow is one design's QoR after k customization iterations
// (iteration 0 is the baseline script).
type IterationRow struct {
	Design string
	Iter   int
	QoR    synth.QoR
	Script string
}

// IterativeClosure runs the ChatLS pipeline for several customization
// iterations: each round's report and script feed the next round's prompt,
// with the requirement switching from timing closure to area recovery once
// timing is met — the resynthesis loop of the paper's introduction.
// A design whose baseline fails is skipped and recorded in the returned
// SweepErrors; a non-fatal Customize failure wastes that iteration (the
// previous script stands) and the loop continues.
//
// The loop cuts off early in ninja's "restat" style: every round is a
// deterministic function of the loop state (current QoR, script, report,
// and the requirement derived from them), so a round that completes without
// adopting a new script is a fixed point — all later rounds would reproduce
// it exactly. The remaining rows are filled in without re-evaluating, and
// the output stays byte-identical to the uncut loop. With cfg.Results set,
// a candidate script whose QoR is already logged and would NOT be adopted
// skips its synthesis run too (adoption needs the fresh report, so
// improving rounds always run the tool).
func IterativeClosure(ctx context.Context, cfg ExperimentConfig, db *synthrag.Database, iters int) ([]IterationRow, error) {
	cfg.fill()
	if db == nil {
		var err error
		db, err = BuildDatabase(cfg)
		if err != nil {
			return nil, err
		}
	}
	// adopts reproduces the user's acceptance rule: under timing violation a
	// candidate must improve timing; once timing is met it must keep timing
	// and shrink area.
	adopts := func(cur, cand synth.QoR) bool {
		if cur.WNS < 0 {
			return BetterTiming(cand, cur)
		}
		return cand.WNS >= 0 && cand.Area < cur.Area
	}
	o := cfg.evalOptions()
	var rows []IterationRow
	var errs SweepErrors
	for _, d := range cfg.Designs {
		p := NewChatLS(llm.New(llm.GPT4o, cfg.Seed), db)
		task, q, err := o.newTask(ctx, d, cfg.Lib, nil)
		if err != nil {
			if resilience.IsFatal(err) {
				return rows, err
			}
			errs = append(errs, DesignError{Design: d.Name, Err: err})
			continue
		}
		rows = append(rows, IterationRow{Design: d.Name, Iter: 0, QoR: q, Script: task.Baseline})
		prefix := o.resultPrefix(cfg.Lib, d)
		script := task.Baseline
		for it := 1; it <= iters; it++ {
			if q.WNS < 0 {
				task.Requirement = "Timing is violated. Choose the resynthesis step that targets the reported bottleneck; do not change the clock period."
			} else {
				task.Requirement = "Timing is met. Recover area while keeping every timing constraint satisfied."
			}
			task.Baseline = script
			cres, err := p.CustomizeResult(ctx, task, 0)
			next := cres.Script
			if err != nil {
				if resilience.IsFatal(err) {
					return rows, err
				}
				// A wasted iteration: the previous script stands.
				rows = append(rows, IterationRow{Design: d.Name, Iter: it, QoR: q, Script: script})
				continue
			}
			// Durable-log lookup: a logged QoR decides adoption without
			// running the tool. A non-adopted candidate contributes nothing
			// but its QoR, so a hit skips synthesis; an adopting round still
			// runs, because adoption feeds the fresh report into the prompt.
			var reports []string
			key, candidate := o.lookup(prefix, next)
			if candidate == nil || adopts(q, *candidate) {
				res, err := o.synthesize(ctx, cfg.Lib, d, next, key)
				if err != nil {
					if resilience.IsFatal(err) {
						return rows, err
					}
					// A failed iteration keeps the previous script (the user
					// would not adopt a script that does not run).
					rows = append(rows, IterationRow{Design: d.Name, Iter: it, QoR: q, Script: script})
					continue
				}
				candidate, reports = res.QoR, res.Reports
			}
			// The user compares reports and adopts the new script only when
			// it improves the active objective.
			if adopts(q, *candidate) {
				q = *candidate
				script = next
				task.BaselineReport = strings.Join(reports, "\n")
				rows = append(rows, IterationRow{Design: d.Name, Iter: it, QoR: q, Script: script})
				continue
			}
			// Early cutoff: the round ran cleanly and changed nothing, so the
			// loop state is a fixed point — every later round reproduces this
			// one. Fill the remaining rows and stop re-evaluating.
			for ; it <= iters; it++ {
				rows = append(rows, IterationRow{Design: d.Name, Iter: it, QoR: q, Script: script})
			}
			break
		}
	}
	return rows, errs.OrNil()
}

// FormatIterations renders the iteration study.
func FormatIterations(rows []IterationRow) string {
	var b strings.Builder
	b.WriteString("Iterative resynthesis (ChatLS, requirement adapts to the last report)\n")
	fmt.Fprintf(&b, "%-14s %5s %8s %8s %10s %12s\n", "Design", "iter", "WNS", "CPS", "TNS", "Area")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %5d %8.2f %8.2f %10.2f %12.2f\n", r.Design, r.Iter, r.QoR.WNS, r.QoR.CPS, r.QoR.TNS, r.QoR.Area)
	}
	return b.String()
}

// ----------------------------------------------------------------------------
// Rerank-weight sweep: the alpha/beta/gamma trade-off of Eq. 5.

// RerankPoint is one weight combination's retrieval fitness.
type RerankPoint struct {
	Alpha, Beta, Gamma float64
	// TraitMatch is the fraction of benchmarks whose top-1 retrieved
	// exemplar shares a structural trait with the query design.
	TraitMatch float64
	// MetQuality is the mean stored-QoR quality of the top-1 exemplars.
	MetQuality float64
}

// RerankSweep measures, under ctx, how the Eq. 5 weights steer retrieval:
// similarity only (beta=gamma=0) ignores whether the exemplar's script even
// closed timing. Over seeds 1–20 the trait term (gamma) lifts the match rate
// and the shipped (0.70, 0.30, 0.25) row attains the best match at every
// seed; the quality term (beta) alone can lower it (EXPERIMENTS.md).
func RerankSweep(ctx context.Context, cfg ExperimentConfig, db *synthrag.Database) ([]RerankPoint, error) {
	cfg.fill()
	if db == nil {
		var err error
		db, err = BuildDatabase(cfg)
		if err != nil {
			return nil, err
		}
	}
	type query struct {
		emb    []float64
		traits []string
	}
	var queries []query
	for _, d := range cfg.Designs {
		emb, _, err := db.EmbedDesignContext(ctx, d.Source, d.Top)
		if err != nil {
			return nil, err
		}
		a, err := circuitmentor.AnalyzeContext(ctx, d.Source, d.Top, d.Period, cfg.Lib)
		if err != nil {
			return nil, err
		}
		queries = append(queries, query{emb, a.Traits})
	}
	combos := []RerankPoint{
		{Alpha: 1.0, Beta: 0.0, Gamma: 0.0},
		{Alpha: 0.7, Beta: 0.3, Gamma: 0.0},
		{Alpha: 0.7, Beta: 0.3, Gamma: 0.25},
		{Alpha: 0.5, Beta: 0.5, Gamma: 0.25},
		{Alpha: 0.0, Beta: 1.0, Gamma: 0.0},
		{Alpha: 0.0, Beta: 0.0, Gamma: 1.0},
	}
	for i := range combos {
		p := &combos[i]
		match, qual := 0.0, 0.0
		for _, q := range queries {
			hits, err := db.RetrieveStrategiesForContext(ctx, q.emb, q.traits, 1, p.Alpha, p.Beta, p.Gamma)
			if err != nil {
				return nil, err
			}
			if len(hits) == 0 {
				continue
			}
			rec := hits[0].Record
			qual += rec.Quality
			for _, rt := range rec.Traits {
				hit := false
				for _, qt := range q.traits {
					if rt == qt {
						hit = true
					}
				}
				if hit {
					match++
					break
				}
			}
		}
		n := float64(len(queries))
		p.TraitMatch = match / n
		p.MetQuality = qual / n
	}
	return combos, nil
}

// FormatRerankSweep renders the sweep.
func FormatRerankSweep(points []RerankPoint) string {
	var b strings.Builder
	b.WriteString("Rerank weight sweep (Eq. 5): top-1 exemplar fitness over the benchmark set\n")
	fmt.Fprintf(&b, "%6s %6s %6s %12s %12s\n", "alpha", "beta", "gamma", "trait_match", "mean_quality")
	for _, p := range points {
		fmt.Fprintf(&b, "%6.2f %6.2f %6.2f %12.2f %12.2f\n", p.Alpha, p.Beta, p.Gamma, p.TraitMatch, p.MetQuality)
	}
	return b.String()
}

// FormatAblations renders the ablation study.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation study (Pass@5 best QoR)\n")
	fmt.Fprintf(&b, "%-12s %-14s %8s %8s %10s %12s %6s\n", "Variant", "Design", "WNS", "CPS", "TNS", "Area", "valid")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-14s %8.2f %8.2f %10.2f %12.2f %6d\n",
			r.Variant, r.Design, r.QoR.WNS, r.QoR.CPS, r.QoR.TNS, r.QoR.Area, r.Valid)
	}
	return b.String()
}
