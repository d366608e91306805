//go:build !race

package chatls

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/liberty"
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

// TestAnalysisMemoHitAllocGuard pins what a memoized CircuitMentor analysis
// costs once the design has been seen: the library fingerprint (sorted cell
// list + SHA-256 state) and the caller's private copy of the result — no
// parse, no elaboration, no timing pass. Exact: a hit that allocates more has
// started doing per-call work again.
func TestAnalysisMemoHitAllocGuard(t *testing.T) {
	d := designs.SweRV()
	lib := liberty.Nangate45()
	analyze := func() {
		if _, err := circuitmentor.AnalyzeContext(context.Background(), d.Source, d.Top, d.Period, lib); err != nil {
			t.Fatal(err)
		}
	}
	analyze() // fill the entry
	allocs := testing.AllocsPerRun(20, analyze)
	const want = 8
	if allocs != want {
		t.Errorf("memoized analysis allocs/op = %v, want %d", allocs, want)
	}
}

// TestRecycledRestoreAllocGuard pins what a checkpoint restore and the first
// read of its netlist (uniquify, which reads and does nothing else) cost once
// a released workspace is parked in the store: script parsing, the session and
// its Result, the module-slice header — not a copy of the netlist, which is
// thawed over the previous run's. Counted in bytes, since that is what the
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
		res, err := sess.Run(link)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	restore() // captures
	restore() // allocates the workspace
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		restore()
	}
	runtime.ReadMemStats(&after)
	if st := store.Stats(); st.Allocated != 1 || st.Reused != runs || st.ThawsSkipped != 0 {
		t.Fatalf("workspaces allocated/reused = %d/%d, %d restores thawed nothing, want 1/%d and 0", st.Allocated, st.Reused, st.ThawsSkipped, runs)
	}
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("recycled link-only restore: %d B/run", perRun)
	const budget = 64 << 10
	if perRun > budget {
		t.Errorf("recycled restore allocates %d B/run, budget %d", perRun, budget)
	}
}
