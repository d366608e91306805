package chatls

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index):
//
//	go test -bench BenchmarkTable2DatabaseBuild   # Table II corpus build
//	go test -bench BenchmarkTable4Baseline        # Table IV baselines
//	go test -bench BenchmarkTable3Comparison      # Table III Pass@5 comparison
//	go test -bench BenchmarkFig5SynthRAG          # Fig. 5 retrieval F1
//	go test -bench BenchmarkAblation              # component ablations
//
// Each benchmark logs the regenerated rows (visible with -v) and reports
// the experiment's headline metric via b.ReportMetric. cmd/experiments
// produces the same tables as standalone output.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/gnn"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/synth"
	"repro/internal/synthrag"
)

var (
	benchDBOnce sync.Once
	benchDB     *synthrag.Database
	benchDBErr  error
)

func sharedBenchDB(b *testing.B) *synthrag.Database {
	b.Helper()
	benchDBOnce.Do(func() {
		benchDB, benchDBErr = BuildDatabase(DefaultConfig())
	})
	if benchDBErr != nil {
		b.Fatal(benchDBErr)
	}
	return benchDB
}

// BenchmarkTable2DatabaseBuild measures the SynthRAG database construction:
// graph building, metric learning, and expert-draft synthesis of the
// Table II corpus under the full strategy palette.
func BenchmarkTable2DatabaseBuild(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		db, err := BuildDatabase(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatTable2(Table2(db)))
			b.ReportMetric(float64(len(db.Strategies)), "designs")
		}
	}
}

// BenchmarkTable4Baseline regenerates Table IV: each benchmark synthesized
// with its adapted baseline script.
func BenchmarkTable4Baseline(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows, err := Table4(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatTable4(rows))
			violations := 0
			for _, r := range rows {
				if r.QoR.WNS < 0 {
					violations++
				}
			}
			b.ReportMetric(float64(violations), "violating_designs")
		}
	}
}

// BenchmarkTable3Comparison regenerates Table III: the three pipelines
// customize every benchmark's script at Pass@5.
func BenchmarkTable3Comparison(b *testing.B) {
	db := sharedBenchDB(b)
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows, err := Table3(context.Background(), cfg, db)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatTable3(rows))
			// Headline: on how many designs does ChatLS match-or-beat both
			// raw models on WNS? (Paper: all of them.)
			wins := 0
			for _, r := range rows {
				chatWNS := r.Cells[2].QoR.WNS
				if chatWNS >= r.Cells[0].QoR.WNS && chatWNS >= r.Cells[1].QoR.WNS {
					wins++
				}
			}
			b.ReportMetric(float64(wins), "chatls_wins_or_ties")
		}
	}
}

// BenchmarkFig5SynthRAG regenerates Fig. 5: retrieval F1 over generated SoC
// configurations for SynthRAG and its ablations.
func BenchmarkFig5SynthRAG(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		points, err := Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatFig5(points))
			for _, p := range points {
				if p.Variant == "synthrag" && p.Category == "overall" {
					b.ReportMetric(p.F1, "synthrag_macro_f1")
				}
			}
		}
	}
}

// BenchmarkAblation regenerates the component ablation study.
func BenchmarkAblation(b *testing.B) {
	db := sharedBenchDB(b)
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows, err := Ablations(context.Background(), cfg, db)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatAblations(rows))
		}
	}
}

// BenchmarkRerankSweep regenerates the Eq. 5 rerank-weight ablation.
func BenchmarkRerankSweep(b *testing.B) {
	db := sharedBenchDB(b)
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		points, err := RerankSweep(cfg, db)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatRerankSweep(points))
			for _, p := range points {
				if p.Alpha == 0.7 && p.Gamma == 0.25 {
					b.ReportMetric(p.TraitMatch, "trait_match_full_rerank")
				}
			}
		}
	}
}

// ----------------------------------------------------------------------------
// Substrate micro-benchmarks: the building blocks' standalone cost.

// BenchmarkElaborateJPEG measures RTL-to-netlist elaboration of the largest
// benchmark (jpeg: multiplier bank under deep wrapper hierarchy).
func BenchmarkElaborateJPEG(b *testing.B) {
	d := designs.JPEG()
	lib := liberty.Nangate45()
	for i := 0; i < b.N; i++ {
		sess := synth.NewSession(lib)
		sess.AddSource(d.FileName, d.Source)
		if _, err := sess.Run("read_verilog " + d.FileName + "\ncurrent_design " + d.Top + "\nlink\n"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileUltraSwerv measures a full compile_ultra flow on the
// largest CPU benchmark.
func BenchmarkCompileUltraSwerv(b *testing.B) {
	d := designs.SweRV()
	lib := liberty.Nangate45()
	script := llm.SpliceScript(d.BaselineScript(), []string{"compile_ultra -retime"})
	for i := 0; i < b.N; i++ {
		sess := synth.NewSession(lib)
		sess.AddSource(d.FileName, d.Source)
		if _, err := sess.Run(script); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileUltraSwervCheckpointed is BenchmarkCompileUltraSwerv with
// a warmed elaboration-checkpoint store: every iteration restores SweRV's
// post-link state from the snapshot instead of re-parsing and
// re-elaborating, leaving only the compile_ultra flow itself. The ratio to
// the uncheckpointed benchmark is the Pass@k repeat-run speedup.
func BenchmarkCompileUltraSwervCheckpointed(b *testing.B) {
	d := designs.SweRV()
	lib := liberty.Nangate45()
	script := llm.SpliceScript(d.BaselineScript(), []string{"compile_ultra -retime"})
	store := synth.NewCheckpointStore(0)
	warm := synth.NewSession(lib)
	warm.Checkpoints = store
	warm.AddSource(d.FileName, d.Source)
	if _, err := warm.Run(script); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := synth.NewSession(lib)
		sess.Checkpoints = store
		sess.AddSource(d.FileName, d.Source)
		if _, err := sess.Run(script); err != nil {
			b.Fatal(err)
		}
	}
	if store.Stats().Hits == 0 {
		b.Fatal("no checkpoint hits: the store never restored")
	}
}

// BenchmarkCheckpointRestore isolates the checkpoint paths themselves on
// SweRV's link prefix and the first read of its netlist (uniquify: a restore
// thaws nothing until a command asks for the netlist, and this one asks and
// does nothing else; no compile): capture is a miss — parse, elaborate,
// freeze the linked netlist into the store; restore is a hit whose result is
// never released, so every iteration thaws into new storage (what callers
// that keep Result.Design pay); restore-recycled releases each result, so
// the next iteration thaws over it (what the serving path pays when a
// compile's result is not in the store).
func BenchmarkCheckpointRestore(b *testing.B) {
	d := designs.SweRV()
	lib := liberty.Nangate45()
	prefix := "read_verilog " + d.FileName + "\ncurrent_design " + d.Top + "\nlink\nuniquify\n"
	run := func(b *testing.B, store *synth.CheckpointStore) *synth.Result {
		sess := synth.NewSession(lib)
		sess.Checkpoints = store
		sess.AddSource(d.FileName, d.Source)
		res, err := sess.Run(prefix)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.Run("capture", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			store := synth.NewCheckpointStore(0)
			run(b, store)
			if store.Len() != 1 {
				b.Fatal("the link prefix captured no checkpoint")
			}
		}
	})
	for _, release := range []bool{false, true} {
		name := "restore"
		if release {
			name = "restore-recycled"
		}
		b.Run(name, func(b *testing.B) {
			store := synth.NewCheckpointStore(0)
			run(b, store)
			if release {
				run(b, store).Release() // allocates the workspace
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := run(b, store)
				if release {
					res.Release()
				}
			}
			b.StopTimer()
			st := store.Stats()
			if st.Hits == 0 {
				b.Fatal("no checkpoint hits: the store never restored")
			}
			if st.ThawsSkipped != 0 {
				b.Fatalf("%d restores thawed nothing: the benchmark times no thaw", st.ThawsSkipped)
			}
			if release && st.Allocated != 1 {
				b.Fatalf("released restores allocated %d workspaces, want 1", st.Allocated)
			}
		})
	}
}

// BenchmarkCustomizeChatLS measures one end-to-end ChatLS customization
// (analysis + retrieval + generation + CoT refinement), excluding the
// synthesis run.
func BenchmarkCustomizeChatLS(b *testing.B) {
	db := sharedBenchDB(b)
	lib := liberty.Nangate45()
	task, _, err := NewTask(context.Background(), designs.DynamicNode(), lib)
	if err != nil {
		b.Fatal(err)
	}
	p := NewChatLS(llm.New(llm.GPT4o, 1), db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.CustomizeResult(context.Background(), task, i); err != nil {
			b.Fatal(err)
		}
	}
}

// warmRequests sets up what a warm POST /v1/customize runs on, the way the
// daemon holds it: the baseline task of every design cached, the database with
// its embed/retrieve caches on, one shared checkpoint store. The function it
// returns serves request i — one chatls sample (k=1, Workers: 1) through
// customization and synthesis, on a pipeline built for the request over the
// shared model and database — round-robin over all seven designs, so the mean
// over a multiple of seven is the mean request. Every design has been
// requested three times when it returns: each cache the measured requests hit
// is full, and what each compile sizes is in the store.
func warmRequests(b *testing.B) (request func(i int) error, store *synth.CheckpointStore, lib *liberty.Library) {
	db := *sharedBenchDB(b) // private copy: the caches must not leak into other benchmarks
	db.EnableCache(64, 256)
	lib = liberty.Nangate45()
	ctx := context.Background()
	opts := EvalOptions{Workers: 1, Checkpoints: synth.NewCheckpointStore(0)}
	model := llm.New(llm.GPT4o, 1)
	type cached struct {
		task *Task
		qor  synth.QoR
	}
	var tasks []cached
	for _, d := range designs.Benchmarks() {
		task, qor, err := NewTaskWith(ctx, d, lib, opts.Checkpoints)
		if err != nil {
			b.Fatal(err)
		}
		tasks = append(tasks, cached{task, qor})
	}
	request = func(i int) error {
		c := tasks[i%len(tasks)]
		_, err := EvalTaskOpts(ctx, NewChatLS(model, &db), c.task, c.qor, 1, lib, opts)
		return err
	}
	for i := 0; i < 3*len(tasks); i++ {
		if err := request(i); err != nil {
			b.Fatal(err)
		}
	}
	return request, opts.Checkpoints, lib
}

// BenchmarkWarmRequest measures the work behind one warm POST /v1/customize
// the way the daemon does it, one request at a time (see warmRequests).
// BenchmarkCustomizeChatLS covers one design and no synthesis.
func BenchmarkWarmRequest(b *testing.B) {
	request, _, _ := warmRequests(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := request(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmRequestParallel is BenchmarkWarmRequest from GOMAXPROCS
// goroutines at once over the one store, the daemon's shape with as many
// workers: what the single-worker twin cannot see is whatever the workers
// share — the generated-name table, the store's locks, the collector. Run it
// with -cpu 2 or more; at -cpu 1 it is BenchmarkWarmRequest.
func BenchmarkWarmRequestParallel(b *testing.B) {
	request, store, lib := warmRequests(b)
	// The sequential warm-up worked in one workspace. Bring one per goroutine
	// to full size before the clock starts — each has held every design,
	// compiled — so B/op does not depend on when two requests first overlap.
	for _, d := range designs.Benchmarks() {
		held := make([]*synth.Result, runtime.GOMAXPROCS(0))
		for g := range held {
			sess := synth.NewSession(lib)
			sess.Checkpoints = store
			sess.AddSource(d.FileName, d.Source)
			res, err := sess.Run(d.BaselineScript())
			if err != nil {
				b.Fatal(err)
			}
			held[g] = res
		}
		for _, res := range held {
			res.Release()
		}
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := request(int(next.Add(1))); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkWarmRequestRawK5 is the in-repo twin of the repo benchmark's
// warm_raw_k5 workload: one op is one raw-prompting Pass@5 request the way
// the daemon serves it (cached task, shared checkpoint store, no QoR log, so
// all five samples synthesize), round-robin over the seven designs under
// both raw models. Synthesis and STA do nearly all of the work here; the
// ChatLS layers BenchmarkWarmRequest exercises do none.
func BenchmarkWarmRequestRawK5(b *testing.B) {
	lib := liberty.Nangate45()
	ctx := context.Background()
	opts := EvalOptions{Workers: 1, Checkpoints: synth.NewCheckpointStore(0)}
	type request struct {
		p    Pipeline
		task *Task
		qor  synth.QoR
	}
	var reqs []request
	for _, prof := range []llm.Profile{llm.GPT4o, llm.Claude35} {
		for _, d := range designs.Benchmarks() {
			task, qor, err := NewTaskWith(ctx, d, lib, opts.Checkpoints)
			if err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, request{&RawPipeline{Model: llm.New(prof, 1)}, task, qor})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		if _, err := EvalTaskOpts(ctx, r.p, r.task, r.qor, 5, lib, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// coldPass is what a freshly started daemon does for its first request on each
// of the seven designs, one after the other: over a private copy of built with
// empty embed/retrieve caches and an empty analysis memo (EnableCache) and an
// empty checkpoint store, the baseline task and then one chatls sample (k=1,
// Workers: 1) per design. It returns the store the pass ran against.
func coldPass(ctx context.Context, built *synthrag.Database, lib *liberty.Library) (*synth.CheckpointStore, error) {
	db := *built // private copy: the caches must not leak into other benchmarks and tests
	db.EnableCache(64, 256)
	opts := EvalOptions{Workers: 1, Checkpoints: synth.NewCheckpointStore(0)}
	model := llm.New(llm.GPT4o, 1)
	for _, d := range designs.Benchmarks() {
		task, qor, err := NewTaskWith(ctx, d, lib, opts.Checkpoints)
		if err != nil {
			return nil, err
		}
		if _, err := EvalTaskOpts(ctx, NewChatLS(model, &db), task, qor, 1, lib, opts); err != nil {
			return nil, err
		}
	}
	return opts.Checkpoints, nil
}

// BenchmarkColdRequests is the in-repo twin of the repo benchmark's cold_start
// request pass: one op is one coldPass. The database build before it is
// BenchmarkTable2DatabaseBuild.
func BenchmarkColdRequests(b *testing.B) {
	shared := sharedBenchDB(b)
	lib := liberty.Nangate45()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coldPass(context.Background(), shared, lib); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbedDesignUncached and BenchmarkEmbedDesignCached quantify what
// the serving layer's embedding cache saves per request: the uncached path
// re-parses the RTL and runs the GNN forward pass every time, the cached
// path answers warm repeats from the LRU.
func BenchmarkEmbedDesignUncached(b *testing.B) {
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: liberty.Nangate45()})
	if err != nil {
		b.Fatal(err)
	}
	d := designs.RiscV32i()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.EmbedDesign(d.Source, d.Top); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbedDesignCached(b *testing.B) {
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: liberty.Nangate45()})
	if err != nil {
		b.Fatal(err)
	}
	db.EnableCache(8, 8)
	d := designs.RiscV32i()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.EmbedDesign(d.Source, d.Top); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGraphs parses the benchmark designs into design graphs once, for the
// embedding-batch benchmarks.
func benchGraphs(b *testing.B) []*circuitmentor.DesignGraph {
	b.Helper()
	var dgs []*circuitmentor.DesignGraph
	for _, d := range designs.Benchmarks() {
		dg, err := circuitmentor.BuildGraph(d.Source, d.Top)
		if err != nil {
			b.Fatal(err)
		}
		dgs = append(dgs, dg)
	}
	return dgs
}

// BenchmarkEmbedGlobalSerial and BenchmarkEmbedGlobalBatched compare the two
// ways of embedding N concurrent designs: one GNN forward pass per design
// versus a single stacked forward over their disjoint union — the work the
// continuous-batching admission queue coalesces. Their ns/op ratio is the
// per-flush speedup of batching (results are byte-identical; see
// gnn.EmbedBatch).
func BenchmarkEmbedGlobalSerial(b *testing.B) {
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: liberty.Nangate45()})
	if err != nil {
		b.Fatal(err)
	}
	dgs := benchGraphs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dg := range dgs {
			if emb := db.Mentor.EmbedGlobal(dg); len(emb) == 0 {
				b.Fatal("empty embedding")
			}
		}
	}
	b.ReportMetric(float64(len(dgs)), "graphs/op")
}

func BenchmarkEmbedGlobalBatched(b *testing.B) {
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: liberty.Nangate45()})
	if err != nil {
		b.Fatal(err)
	}
	dgs := benchGraphs(b)
	gs := make([]*gnn.Graph, len(dgs))
	for i, dg := range dgs {
		gs[i] = dg.G
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		embs := db.Mentor.Model.EmbedGlobalBatch(gs)
		if len(embs) != len(gs) {
			b.Fatal("short batch result")
		}
	}
	b.ReportMetric(float64(len(gs)), "graphs/op")
}

// BenchmarkIterativeClosure regenerates the iterative-resynthesis study:
// ChatLS applied for three rounds on the designs whose closure needs (or
// resists) iteration.
func BenchmarkIterativeClosure(b *testing.B) {
	db := sharedBenchDB(b)
	cfg := DefaultConfig()
	cfg.Designs = []*designs.Design{designs.EthMAC(), designs.TinyRocket(), designs.JPEG()}
	for i := 0; i < b.N; i++ {
		rows, err := IterativeClosure(context.Background(), cfg, db, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatIterations(rows))
		}
	}
}
