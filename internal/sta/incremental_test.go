package sta_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/verilog"
)

var eqLib = liberty.Nangate45()

func elaborate(t testing.TB, d *designs.Design) *netlist.Netlist {
	t.Helper()
	f, err := verilog.Parse(d.Source)
	if err != nil {
		t.Fatalf("%s: parse: %v", d.Name, err)
	}
	nl, err := netlist.Elaborate(f, d.Top, nil, eqLib)
	if err != nil {
		t.Fatalf("%s: elaborate: %v", d.Name, err)
	}
	return nl
}

// corpus is every design the repo ships: the Table IV benchmarks plus the
// Table II database corpus. -short keeps a representative subset.
func corpus(t *testing.T) []*designs.Design {
	all := append(designs.Benchmarks(), designs.DatabaseDesigns()...)
	if testing.Short() {
		return all[:4]
	}
	return all
}

// closeEnough treats two slacks as equal within 1e-9, with infinities (an
// unconstrained net in both analyses) matching exactly.
func closeEnough(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= 1e-9
}

// requireEquivalent compares the incrementally maintained Timing against a
// fresh full analysis: headline metrics and every net's slack.
func requireEquivalent(t *testing.T, name string, inc *sta.Timing, nl *netlist.Netlist, wl *liberty.WireLoad, cons sta.Constraints) {
	t.Helper()
	full, err := sta.Analyze(nl, wl, cons)
	if err != nil {
		t.Fatalf("%s: full analyze: %v", name, err)
	}
	if !closeEnough(inc.WNS(), full.WNS()) {
		t.Fatalf("%s: WNS incremental %v != full %v", name, inc.WNS(), full.WNS())
	}
	if !closeEnough(inc.TNS(), full.TNS()) {
		t.Fatalf("%s: TNS incremental %v != full %v", name, inc.TNS(), full.TNS())
	}
	if !closeEnough(inc.CPS(), full.CPS()) {
		t.Fatalf("%s: CPS incremental %v != full %v", name, inc.CPS(), full.CPS())
	}
	for _, n := range nl.Nets {
		if is, fs := inc.Slack(n), full.Slack(n); !closeEnough(is, fs) {
			t.Fatalf("%s: net %s slack incremental %v != full %v", name, n.Name, is, fs)
		}
	}
}

// resizeRandom flips a few random cells to a neighbouring drive strength and
// returns the cells it changed.
func resizeRandom(nl *netlist.Netlist, rng *rand.Rand, count int) []*netlist.Cell {
	var changed []*netlist.Cell
	for i := 0; i < count; i++ {
		c := nl.Cells[rng.Intn(len(nl.Cells))]
		var next *liberty.Cell
		if rng.Intn(2) == 0 {
			next = nl.Lib.Upsize(c.Ref)
		} else {
			next = nl.Lib.Downsize(c.Ref)
		}
		if next == nil || next == c.Ref {
			continue
		}
		nl.SetRef(c, next)
		changed = append(changed, c)
	}
	return changed
}

// insertBuffer splits a random multi-sink net with a buffer, moving one sink
// behind it — a structural edit that must force the full-reanalysis
// fallback. Reports false when the netlist has no splittable net.
func insertBuffer(nl *netlist.Netlist, rng *rand.Rand) bool {
	buf := nl.Lib.Strongest(liberty.KindBuf)
	if buf == nil {
		return false
	}
	start := rng.Intn(len(nl.Nets))
	for i := 0; i < len(nl.Nets); i++ {
		n := nl.Nets[(start+i)%len(nl.Nets)]
		if n.IsClk || n.IsRst || n.Const || len(n.Sinks) < 2 {
			continue
		}
		b, err := nl.AddCell(buf, "", nl.Name, n)
		if err != nil {
			return false
		}
		// Move the first sink that is not the buffer itself.
		for _, p := range append([]*netlist.Pin(nil), n.Sinks...) {
			if p.Cell != b {
				nl.SetInput(p.Cell, p.Index, b.Output)
				return true
			}
		}
		return true
	}
	return false
}

// TestIncrementalMatchesFullAfterResizes drives Update through randomized
// resize batches on every shipped design and checks the incremental state
// stays equivalent to a from-scratch analysis after each batch.
func TestIncrementalMatchesFullAfterResizes(t *testing.T) {
	for _, d := range corpus(t) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			nl := elaborate(t, d)
			wl := eqLib.WireLoad("")
			cons := sta.Constraints{Period: d.Period}
			tm, err := sta.Analyze(nl, wl, cons)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			rng := rand.New(rand.NewSource(int64(len(d.Name)) * 7919))
			for round := 0; round < 6; round++ {
				changed := resizeRandom(nl, rng, 1+rng.Intn(8))
				if err := tm.Update(changed); err != nil {
					t.Fatalf("round %d: update: %v", round, err)
				}
				requireEquivalent(t, d.Name, tm, nl, wl, cons)
			}
		})
	}
}

// TestIncrementalFallbackAfterStructuralEdits mixes resizes with buffer
// insertions (topology changes). Update must detect the structural edits and
// fall back to a full re-analysis that again matches a fresh one.
func TestIncrementalFallbackAfterStructuralEdits(t *testing.T) {
	for _, d := range corpus(t) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			nl := elaborate(t, d)
			wl := eqLib.WireLoad("")
			cons := sta.Constraints{Period: d.Period}
			tm, err := sta.Analyze(nl, wl, cons)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			rng := rand.New(rand.NewSource(int64(len(d.Source))))
			for round := 0; round < 4; round++ {
				changed := resizeRandom(nl, rng, 1+rng.Intn(4))
				if round%2 == 0 {
					insertBuffer(nl, rng)
				}
				if err := tm.Update(changed); err != nil {
					t.Fatalf("round %d: update: %v", round, err)
				}
				requireEquivalent(t, d.Name, tm, nl, wl, cons)
			}
		})
	}
}

// TestUpdateIsNoOpWithoutEdits checks the generation guard: with no edits
// between calls, Update must not run another full analysis.
func TestUpdateIsNoOpWithoutEdits(t *testing.T) {
	d := designs.RiscV32i()
	nl := elaborate(t, d)
	tm, err := sta.Analyze(nl, eqLib.WireLoad(""), sta.Constraints{Period: d.Period})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	before := sta.FullAnalyses()
	for i := 0; i < 3; i++ {
		if err := tm.Update(nil); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
	if after := sta.FullAnalyses(); after != before {
		t.Errorf("no-op Update ran %d full analyses", after-before)
	}
}

// TestIncrementalCountersAndObserver checks the process-wide counters move
// and the dirty-node observer fires with a sane magnitude.
func TestIncrementalCountersAndObserver(t *testing.T) {
	d := designs.RiscV32i()
	nl := elaborate(t, d)
	tm, err := sta.Analyze(nl, eqLib.WireLoad(""), sta.Constraints{Period: d.Period})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var observed []int
	sta.SetDirtyNodesObserver(func(n int) { observed = append(observed, n) })
	defer sta.SetDirtyNodesObserver(nil)

	rng := rand.New(rand.NewSource(11))
	incBefore := sta.IncrementalUpdates()
	changed := resizeRandom(nl, rng, 3)
	if len(changed) == 0 {
		t.Fatal("resizeRandom changed nothing")
	}
	if err := tm.Update(changed); err != nil {
		t.Fatalf("update: %v", err)
	}
	if got := sta.IncrementalUpdates() - incBefore; got != 1 {
		t.Errorf("incremental updates = %d, want 1", got)
	}
	if len(observed) != 1 {
		t.Fatalf("observer fired %d times, want 1", len(observed))
	}
	if observed[0] <= 0 || observed[0] > 2*(len(nl.Nets)+len(nl.Cells)) {
		t.Errorf("dirty nodes = %d out of plausible range", observed[0])
	}
}

// resizable lists every cell — sequential ones included — that has a
// neighbouring drive strength, with the library cell to swap it to.
func resizable(nl *netlist.Netlist) (cells []*netlist.Cell, refs []*liberty.Cell) {
	for _, c := range nl.Cells {
		next := nl.Lib.Upsize(c.Ref)
		if next == nil || next == c.Ref {
			next = nl.Lib.Downsize(c.Ref)
		}
		if next != nil && next != c.Ref {
			cells = append(cells, c)
			refs = append(refs, next)
		}
	}
	return cells, refs
}

// swapBatch swaps cells[j] to refs[j] for every j in idx and returns the
// swapped cells with the library cells they had, for Update and for a revert.
func swapBatch(nl *netlist.Netlist, cells []*netlist.Cell, refs []*liberty.Cell, idx []int) (changed []*netlist.Cell, old []*liberty.Cell) {
	changed = make([]*netlist.Cell, len(idx))
	old = make([]*liberty.Cell, len(idx))
	for i, j := range idx {
		changed[i], old[i] = cells[j], cells[j].Ref
		nl.SetRef(cells[j], refs[j])
	}
	return changed, old
}

// requireBitIdentical is requireEquivalent without the tolerance: Update
// promises the same floats as a fresh Analyze, not merely close ones.
func requireBitIdentical(t *testing.T, name string, inc *sta.Timing, nl *netlist.Netlist, wl *liberty.WireLoad, cons sta.Constraints) {
	t.Helper()
	full, err := sta.Analyze(nl, wl, cons)
	if err != nil {
		t.Fatalf("%s: full analyze: %v", name, err)
	}
	if inc.WNS() != full.WNS() || inc.TNS() != full.TNS() || inc.CPS() != full.CPS() {
		t.Fatalf("%s: headline metrics (%v %v %v) != full (%v %v %v)", name,
			inc.WNS(), inc.TNS(), inc.CPS(), full.WNS(), full.TNS(), full.CPS())
	}
	for _, n := range nl.Nets {
		if inc.Arrival(n) != full.Arrival(n) || inc.Required(n) != full.Required(n) {
			t.Fatalf("%s: net %s arrival/required (%v %v) != full (%v %v)", name, n.Name,
				inc.Arrival(n), inc.Required(n), full.Arrival(n), full.Required(n))
		}
	}
}

// TestIncrementalMatchesFullAtProductionBatchSizes checks Update at the
// batch sizes the sizing passes actually issue — SizeForTimingWith and
// AreaRecoveryWith hand it every violating (or slack-rich) cell at once, not
// the handful the randomized rounds above use — and at the rollback that
// follows a rejected batch: the same cells, reverted.
func TestIncrementalMatchesFullAtProductionBatchSizes(t *testing.T) {
	for _, d := range designs.Benchmarks() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			nl := elaborate(t, d)
			wl := eqLib.WireLoad("")
			cons := sta.Constraints{Period: d.Period}
			tm, err := sta.Analyze(nl, wl, cons)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			cells, refs := resizable(nl)
			if len(cells) == 0 {
				t.Fatal("no resizable cell")
			}
			rng := rand.New(rand.NewSource(int64(len(d.Name)) * 104729))
			for _, size := range []int{1, 8, len(cells) / 10, len(cells) / 2, len(cells)} {
				changed, old := swapBatch(nl, cells, refs, rng.Perm(len(cells))[:size])
				if err := tm.Update(changed); err != nil {
					t.Fatalf("batch %d: update: %v", size, err)
				}
				requireBitIdentical(t, d.Name, tm, nl, wl, cons)
				for i, c := range changed {
					nl.SetRef(c, old[i])
				}
				if err := tm.Update(changed); err != nil {
					t.Fatalf("batch %d: revert: %v", size, err)
				}
				requireBitIdentical(t, d.Name, tm, nl, wl, cons)
			}
		})
	}
}

// TestDirtyNodesPinned pins the work set of one seeded 10 % batch per design
// to the counts the heap-based worklists of PR 15 produced: the ordered
// sweep is a cheaper traversal of exactly the same nodes, not a different
// propagation.
func TestDirtyNodesPinned(t *testing.T) {
	want := map[string]int{
		"aes": 9273, "dynamic_node": 1219, "ethmac": 2499, "jpeg": 17625,
		"riscv32i": 1944, "swerv": 9106, "tinyRocket": 4082,
	}
	var got int
	sta.SetDirtyNodesObserver(func(n int) { got = n })
	defer sta.SetDirtyNodesObserver(nil)
	for _, d := range designs.Benchmarks() {
		nl := elaborate(t, d)
		tm, err := sta.Analyze(nl, eqLib.WireLoad(""), sta.Constraints{Period: d.Period})
		if err != nil {
			t.Fatalf("%s: analyze: %v", d.Name, err)
		}
		cells, refs := resizable(nl)
		rng := rand.New(rand.NewSource(16))
		changed, _ := swapBatch(nl, cells, refs, rng.Perm(len(cells))[:len(cells)/10])
		if err := tm.Update(changed); err != nil {
			t.Fatalf("%s: update: %v", d.Name, err)
		}
		if got != want[d.Name] {
			t.Errorf("%s: dirty nodes = %d for a %d-cell batch, want %d", d.Name, got, len(changed), want[d.Name])
		}
	}
}

// TestLaunchCellMatchesTracePath: for every endpoint of every benchmark
// design, elaborated and compiled, LaunchCell names the cell that starts
// TracePath when that cell is a register, and nil when the path starts at a
// port or at a cell that is not sequential (a tie cell) — the contract
// RetimeWith's forward move reads it under.
func TestLaunchCellMatchesTracePath(t *testing.T) {
	launched, ports, ties := 0, 0, 0
	check := func(name string, tm *sta.Timing) {
		for _, end := range tm.Endpoints() {
			var want *netlist.Cell
			path := tm.TracePath(end)
			switch first := path.Steps[0]; {
			case first.Cell == nil:
				ports++
			case first.Cell.IsSeq():
				want = first.Cell
				launched++
			default:
				ties++
			}
			if got := tm.LaunchCell(end); got != want {
				t.Fatalf("%s: endpoint %s: LaunchCell = %v, TracePath starts at %v", name, path.Endpoint, got, want)
			}
		}
	}
	// No shipped design compiles to a path that starts at a tie cell; this one
	// folds to nothing else.
	tied := &designs.Design{Name: "tied", Top: "tied", Period: 1, Source: `
module tied(input clk, input a, output y, output reg q);
    assign y = a & 1'b0;
    always @(posedge clk) q <= a | 1'b1;
endmodule`}
	for _, d := range append(designs.Benchmarks(), tied) {
		sd := &synth.Design{NL: elaborate(t, d), WL: eqLib.WireLoad(""), Cons: sta.Constraints{Period: d.Period}}
		tm, err := sd.Timing()
		if err != nil {
			t.Fatalf("%s: analyze: %v", d.Name, err)
		}
		check(d.Name+" elaborated", tm)
		if err := synth.Compile(sd, synth.CompileOptions{Ultra: true, Retime: true}); err != nil {
			t.Fatalf("%s: compile: %v", d.Name, err)
		}
		if tm, err = sd.Timing(); err != nil {
			t.Fatalf("%s: analyze compiled: %v", d.Name, err)
		}
		check(d.Name+" compiled", tm)
	}
	if launched == 0 || ports == 0 || ties == 0 {
		t.Errorf("corpus covers %d register-, %d port- and %d tie-launched paths; want all three", launched, ports, ties)
	}
}
