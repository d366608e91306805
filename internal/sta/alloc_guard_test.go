//go:build !race

package sta_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// TestUpdateAllocGuard pins the incremental timer's delay-only path at zero
// steady-state allocations: once the worklist heaps have grown to the cone
// size, resizing a cell and refreshing timing must not allocate. The budget
// is part of the perf contract (DESIGN.md "Memory and GC discipline");
// skipped under -race, which changes allocation counts.
func TestUpdateAllocGuard(t *testing.T) {
	d := designs.Benchmarks()[0]
	nl := elaborate(t, d)
	tm, err := sta.Analyze(nl, eqLib.WireLoad(""), sta.Constraints{Period: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a resizable combinational cell and flip it between two drive
	// strengths, so every run is a real delay-only edit.
	var c *netlist.Cell
	var big *liberty.Cell
	for _, cand := range nl.Cells {
		if cand.IsSeq() {
			continue
		}
		if up := nl.Lib.Upsize(cand.Ref); up != nil && up != cand.Ref {
			c, big = cand, up
			break
		}
	}
	if c == nil {
		t.Skip("no resizable cell in design")
	}
	refs := [2]*liberty.Cell{big, c.Ref}
	changed := []*netlist.Cell{c}
	flip := 0
	// Warm once so the heaps reach steady-state capacity (AllocsPerRun's
	// own warm-up run also counts toward this).
	nl.SetRef(c, refs[flip&1])
	flip++
	if err := tm.Update(changed); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		nl.SetRef(c, refs[flip&1])
		flip++
		if err := tm.Update(changed); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 0
	if allocs > budget {
		t.Errorf("delay-only Update allocs/op = %v, budget %d", allocs, budget)
	}
}

// TestReanalyzeAllocGuard pins "re-analyzes in place": a topology edit that
// adds a handful of cells sends Update through the full-analysis fallback,
// and with the headroom grow leaves in every per-net and per-cell buffer
// that analysis allocates nothing — round after round, as in a retiming
// loop. The count is taken the way testing.AllocsPerRun takes it (the
// runtime's malloc counter on one P, averaged over the rounds and rounded
// down, which absorbs the odd allocation a GC cycle starting mid-round
// makes) but around Update alone: the AddCell before it has to allocate
// the cells. Without headroom every round allocates nine buffers.
func TestReanalyzeAllocGuard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d := designs.Benchmarks()[0]
	nl := elaborate(t, d)
	tm, err := sta.Analyze(nl, eqLib.WireLoad(""), sta.Constraints{Period: d.Period})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var before, after runtime.MemStats
	const rounds = 20
	var mallocs uint64
	for round := 0; round < rounds; round++ {
		for i := 0; i < 4; i++ {
			if !insertBuffer(nl, rng) {
				t.Fatal("no net to buffer")
			}
		}
		full := sta.FullAnalyses()
		runtime.ReadMemStats(&before)
		err := tm.Update(nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if sta.FullAnalyses() != full+1 {
			t.Fatalf("round %d: Update did not re-analyze", round)
		}
		mallocs += after.Mallocs - before.Mallocs
	}
	if allocs := mallocs / rounds; allocs != 0 {
		t.Errorf("re-analysis after adding 4 cells: %d allocs/round, want 0", allocs)
	}
}

// TestResetAllocGuard pins what recycling a Timing buys: pointed at another
// netlist of the same size — the next restore of the same checkpoint — Reset
// analyses it entirely inside the buffers the last analysis grew.
func TestResetAllocGuard(t *testing.T) {
	d := designs.Benchmarks()[0]
	nls := [2]*netlist.Netlist{elaborate(t, d), elaborate(t, d)}
	wl := eqLib.WireLoad("")
	cons := sta.Constraints{Period: d.Period}
	tm, err := sta.Analyze(nls[0], wl, cons)
	if err != nil {
		t.Fatal(err)
	}
	want := tm.TNS()
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		i++
		if err := tm.Reset(nls[i&1], wl, cons); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset onto a same-size netlist allocs/op = %v, want 0", allocs)
	}
	if tm.NL != nls[i&1] || tm.TNS() != want {
		t.Errorf("Reset did not re-point the analysis: TNS %v, want %v", tm.TNS(), want)
	}
}
