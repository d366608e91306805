//go:build !race

package chatls

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/netlist"
	"repro/internal/synth"
	"repro/internal/verilog"
)

// TestInternedReparseAllocGuard pins the parse+elaborate front end's
// steady-state allocation count on the largest CPU benchmark. The first
// compile of a design populates the process-wide intern table (net, cell,
// and port-bit names) and sizes the parser's AST arenas; repeat compiles of
// the same corpus — the Pass@k serving pattern — must stay under the budget
// below, which is ~25% above the measured steady state. A regression here
// usually means a hot path went back to fmt.Sprintf/string concatenation or
// to per-node allocation. Part of the perf contract (DESIGN.md "Memory and
// GC discipline"); skipped under -race, which changes allocation counts.
func TestInternedReparseAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-compile measurement")
	}
	d := designs.SweRV()
	lib := liberty.Nangate45()
	compile := func() {
		f, err := verilog.Parse(d.Source)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := netlist.Elaborate(f, d.Top, nil, lib); err != nil {
			t.Fatal(err)
		}
	}
	compile() // warm the intern table
	allocs := testing.AllocsPerRun(5, compile)
	t.Logf("interned re-parse: %v allocs/op", allocs)
	const budget = 21000 // measured ~16.6k steady-state
	if allocs > budget {
		t.Errorf("interned re-parse allocs/op = %v, budget %d", allocs, budget)
	}
}

// TestAnalysisMemoHitAllocGuard pins what a CircuitMentor analysis costs once
// it is kept on the design's snapshot: the caller's private copy of the
// result and of its Traits — no parse, no elaboration, no timing pass, and no
// boxing of the key the analysis is kept under. Exact: a hit that allocates
// more has started doing per-call work again.
func TestAnalysisMemoHitAllocGuard(t *testing.T) {
	d := designs.SweRV()
	lib := liberty.Nangate45()
	task, _, err := NewTaskWith(context.Background(), d, lib, synth.NewCheckpointStore(1))
	if err != nil {
		t.Fatal(err)
	}
	analyze := func() {
		if _, err := circuitmentor.AnalyzeSnapshotContext(context.Background(), task.Snapshot, d.Source, d.Top, d.Period, lib); err != nil {
			t.Fatal(err)
		}
	}
	analyze() // keep the analysis
	allocs := testing.AllocsPerRun(20, analyze)
	const want = 2
	if allocs != want {
		t.Errorf("kept analysis allocs/op = %v, want %d", allocs, want)
	}
}

// TestRecycledRestoreAllocGuard pins what a checkpoint restore and the first
// read of its netlist (uniquify, which reads and does nothing else) cost once
// an Evaluate has parked its workspace in the store: script parsing, the
// session and its Result, the module-slice header — not a copy of the
// netlist, which is thawed over the previous run's. Counted in bytes, since that is what the
// copy cost (1.8 MB on aes when every restore cloned); the budget is about
// three times the measured steady state.
func TestRecycledRestoreAllocGuard(t *testing.T) {
	d := designs.AES()
	lib := liberty.Nangate45()
	store := synth.NewCheckpointStore(0)
	link := "read_verilog " + d.FileName + "\ncurrent_design " + d.Top + "\nlink\nuniquify\n"
	restore := func() {
		sess := synth.NewSession(lib)
		sess.Checkpoints = store
		sess.AddSource(d.FileName, d.Source)
		if _, err := sess.Evaluate(context.Background(), link); err != nil {
			t.Fatal(err)
		}
	}
	restore() // captures, in the workspace it allocates and parks
	restore() // restores into it
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		restore()
	}
	runtime.ReadMemStats(&after)
	if st := store.Stats(); st.Allocated != 1 || st.Reused != 1+runs || st.ThawsSkipped != 0 {
		t.Fatalf("workspaces allocated/reused = %d/%d, %d restores thawed nothing, want 1/%d and 0", st.Allocated, st.Reused, st.ThawsSkipped, 1+runs)
	}
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("recycled link-only restore: %d B/run", perRun)
	const budget = 64 << 10
	if perRun > budget {
		t.Errorf("recycled restore allocates %d B/run, budget %d", perRun, budget)
	}
}

// TestEvaluateParksItsWorkspace: an Evaluate hands its workspace back to the
// store itself, on success — a compile served from the derived level with a
// tail that only reads, a run that thaws the snapshot — and on every error
// return after a restore: a bad option value, a budget overrun, a cancelled
// context. After the warm-up every run takes the one workspace the first
// restore allocated, and no result carries a design. Counted in bytes, under
// TestRecycledRestoreAllocGuard's budget.
func TestEvaluateParksItsWorkspace(t *testing.T) {
	d := designs.AES()
	lib := liberty.Nangate45()
	store := synth.NewCheckpointStore(0)
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	link := "read_verilog " + d.FileName + "\ncurrent_design " + d.Top + "\nlink\n"
	clocked := link + fmt.Sprintf("create_clock -period %.2f clk\n", d.Period)
	served := clocked + "compile_ultra\nreport_qor\nreport_timing -max_paths 3\nreport_area\n"
	evaluate := func(i int) {
		sess := synth.NewSession(lib)
		sess.Checkpoints = store
		sess.AddSource(d.FileName, d.Source)
		rctx, script, fails := ctx, served, true
		switch i % 5 {
		case 0:
			fails = false
		case 1:
			script, fails = clocked+"uniquify\nreport_qor\n", false
		case 2:
			script = link + "create_clock -period -1 clk\n"
		case 3:
			sess.MaxCommands = 4 // past link and create_clock, short of the compile
		case 4:
			rctx = cancelled
		}
		res, err := sess.Evaluate(rctx, script)
		if fails != (err != nil) {
			t.Fatalf("run %d: error %v, want one = %v", i, err, fails)
		}
		if res != nil && res.Design != nil {
			t.Fatalf("run %d: an Evaluate returned a design", i)
		}
	}
	evaluate(0) // captures the snapshot
	evaluate(0) // notes the compile, allocating the workspace
	evaluate(0) // captures it
	const runs = 10
	before := store.Stats()
	var mBefore, mAfter runtime.MemStats
	runtime.ReadMemStats(&mBefore)
	for i := 0; i < runs; i++ {
		evaluate(i)
	}
	runtime.ReadMemStats(&mAfter)
	st := store.Stats()
	if st.Allocated != 1 || st.Reused-before.Reused != runs {
		t.Fatalf("workspaces allocated/reused = %d/%d over %d runs, want 1/%d: an Evaluate dropped its storage", st.Allocated, st.Reused-before.Reused, runs, runs)
	}
	if st.DerivedHits-before.DerivedHits != runs/5 {
		t.Fatalf("derived hits = %d, want %d: the served runs were not served", st.DerivedHits-before.DerivedHits, runs/5)
	}
	perRun := (mAfter.TotalAlloc - mBefore.TotalAlloc) / runs
	t.Logf("recycled Evaluate: %d B/run", perRun)
	const budget = 64 << 10
	if perRun > budget {
		t.Errorf("an Evaluate allocates %d B/run, budget %d", perRun, budget)
	}
}

// TestWarmRawRequestAllocGuard pins what a warm raw-prompting Pass@5 request
// (the repo benchmark's warm_raw_k5; BenchmarkWarmRequestRawK5 is its twin)
// feeds the collector, in bytes per request, served the way the daemon
// serves it: a new RawPipeline per request (as server.newPipeline builds
// one), so its memoized reading lives one request, and
// EvalOptions.ShareRepeats. The request builds and reads its prompt once —
// sections read in place, one copy of the prompt's last section — and its
// five generations share that reading; then a restored synthesis per
// distinct script, sizing in its workspace's scratch and formatting reports
// with strconv. The first pass over all fourteen requests notes every
// compile key and captures most of them (15 of 20; the rest are captured in
// the first measured pass, since the derived level keys a whole compile).
// Sharing repeats reads ≈ 158 kB a request, those five captures included
// (≈ 290 kB while every sample built and read the prompt itself, ≈ 304 kB
// when every sample also synthesized, ≈ 1.07 MB when every prompt line was
// copied and every sizing round grew its change list from nil); the budget
// dates from the ≈ 290 kB state and is kept. A sample served by the derived
// level and then only reading appends the kept report texts, which it
// shares with the store, instead of formatting its own, and thaws nothing:
// the synthesis is an Evaluate.
func TestWarmRawRequestAllocGuard(t *testing.T) {
	lib := liberty.Nangate45()
	ctx := context.Background()
	opts := EvalOptions{Workers: 1, Checkpoints: synth.NewCheckpointStore(0)}
	type request struct {
		model *llm.Model
		task  *Task
		qor   synth.QoR
	}
	var reqs []request
	for _, prof := range []llm.Profile{llm.GPT4o, llm.Claude35} {
		model := llm.New(prof, 1)
		for _, d := range designs.Benchmarks() {
			task, qor, err := NewTaskWith(ctx, d, lib, opts.Checkpoints)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, request{model, task, qor})
		}
	}
	serve := func() {
		for _, r := range reqs {
			o, _ := opts.ShareRepeats(5)
			if _, err := EvalTaskOpts(ctx, &RawPipeline{Model: r.model}, r.task, r.qor, 5, lib, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve() // captures
	const passes = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / uint64(passes*len(reqs))
	t.Logf("warm raw Pass@5 request: %d B", perRequest)
	const budget = 440 << 10
	if perRequest > budget {
		t.Errorf("warm raw Pass@5 request allocates %d B, budget %d", perRequest, budget)
	}
}
