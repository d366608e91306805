// Package synth implements the logic-synthesis tool the ChatLS pipeline
// drives: a dc_shell-style script interpreter over a set of netlist
// optimization passes (sweeping, restructuring, sizing, buffering,
// retiming, area recovery) with QoR reporting. Each pass works through
// mechanism, so the choice of script commands — the thing ChatLS customizes
// — determines the quality of results the same way it does with the
// commercial tool the paper evaluates against.
package synth

import (
	"math"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// Sweep performs logic cleanup: removes redundant buffers and inverter
// pairs, propagates constants through gates, and deletes dangling cells.
// Inverter pairs are only collapsed within one optimization group (or after
// ungrouping), mirroring hierarchical boundary optimization. Returns the
// number of cells removed or simplified.
func Sweep(nl *netlist.Netlist) int { return sweep(nl, new(passScratch)) }

func sweep(nl *netlist.Netlist, sc *passScratch) int {
	total := 0
	for {
		n := sweepOnce(nl, sc)
		total += n
		if n == 0 {
			return total
		}
	}
}

// passScratch is the working storage the structural passes and area recovery
// share: a list of cells (a snapshot of nl.Cells a pass can edit under, or
// the cells scattered by ID) and one flag per Cell.ID. Each use overwrites the
// last; nothing carries over between passes. A Design keeps one for all its
// passes, and a restored design the one its workspace brought along, so a
// warm run's passes allocate neither.
type passScratch struct {
	cells []*netlist.Cell
	flags []bool
}

// snapshot returns a copy of nl.Cells in sc's storage.
func (sc *passScratch) snapshot(nl *netlist.Netlist) []*netlist.Cell {
	sc.cells = append(sc.cells[:0], nl.Cells...)
	return sc.cells
}

// byID returns a zeroed slice of one cell slot per Cell.ID of nl. Like the
// flags, it is allocated with headroom for the IDs a run's edits add.
func (sc *passScratch) byID(nl *netlist.Netlist) []*netlist.Cell {
	bound := nl.CellIDBound()
	if cap(sc.cells) < bound {
		sc.cells = make([]*netlist.Cell, bound, bound+bound/4)
	} else {
		sc.cells = sc.cells[:bound]
		clear(sc.cells)
	}
	return sc.cells
}

// flagsByID returns an all-false slice of one flag per Cell.ID of nl.
func (sc *passScratch) flagsByID(nl *netlist.Netlist) []bool {
	bound := nl.CellIDBound()
	if cap(sc.flags) < bound {
		sc.flags = make([]bool, bound, bound+bound/4)
	} else {
		sc.flags = sc.flags[:bound]
		clear(sc.flags)
	}
	return sc.flags
}

// forget drops every cell pointer sc holds, so that storage handed to a new
// run pins nothing of the netlist the last run edited.
func (sc *passScratch) forget() {
	clear(sc.cells[:cap(sc.cells)])
}

func sweepOnce(nl *netlist.Netlist, sc *passScratch) int {
	lib := nl.Lib
	changed := 0
	snapshot := sc.snapshot(nl)
	alive := sc.flagsByID(nl)
	for _, c := range snapshot {
		alive[c.ID] = true
	}
	for _, c := range snapshot {
		if !alive[c.ID] || c.Fixed || c.IsSeq() {
			continue
		}
		switch c.Ref.Kind {
		case liberty.KindBuf:
			in := c.Inputs[0]
			if in.Const {
				if tie := tieFor(lib, in.Val); tie != nil {
					if nl.ReplaceCell(c, tie) == nil {
						changed++
					}
				}
				continue
			}
			if c.Output.PO {
				continue // port isolation buffer
			}
			nl.ReplaceNet(c.Output, in)
			nl.RemoveCell(c)
			alive[c.ID] = false
			changed++

		case liberty.KindInv:
			in := c.Inputs[0]
			if in.Const {
				if tie := tieFor(lib, !in.Val); tie != nil {
					if nl.ReplaceCell(c, tie) == nil {
						changed++
					}
				}
				continue
			}
			d := in.Driver
			if d == nil || d.Ref.Kind != liberty.KindInv || d.Fixed || c.Output.PO {
				continue
			}
			if !sameGroup(c, d) {
				continue
			}
			nl.ReplaceNet(c.Output, d.Inputs[0])
			nl.RemoveCell(c)
			alive[c.ID] = false
			changed++

		case liberty.KindAnd2, liberty.KindOr2, liberty.KindNand2, liberty.KindNor2,
			liberty.KindXor2, liberty.KindXnor2:
			if n := foldConst2(nl, c); n > 0 {
				changed += n
				if c.Output.Driver != c {
					alive[c.ID] = false
				}
			}

		case liberty.KindMux2:
			sel := c.Inputs[2]
			var keep *netlist.Net
			if sel.Const {
				if sel.Val {
					keep = c.Inputs[1]
				} else {
					keep = c.Inputs[0]
				}
			} else if c.Inputs[0] == c.Inputs[1] {
				keep = c.Inputs[0]
			}
			if keep != nil {
				changed += passthrough(nl, c, keep)
				if c.Output.Driver != c {
					alive[c.ID] = false
				}
			}
		}
	}
	// Dangling removal. The first snapshot is no longer needed; reuse it.
	for _, c := range sc.snapshot(nl) {
		if c.Fixed || c.IsSeq() {
			continue
		}
		if c.Output.Fanout() == 0 && !c.Output.PO {
			nl.RemoveCell(c)
			changed++
		}
	}
	return changed
}

func eval2(kind liberty.Kind, a, b bool) bool {
	switch kind {
	case liberty.KindAnd2:
		return a && b
	case liberty.KindOr2:
		return a || b
	case liberty.KindNand2:
		return !(a && b)
	case liberty.KindNor2:
		return !(a || b)
	case liberty.KindXor2:
		return a != b
	case liberty.KindXnor2:
		return a == b
	}
	return false
}

func tieFor(lib *liberty.Library, val bool) *liberty.Cell {
	if val {
		return lib.Weakest(liberty.KindTie1)
	}
	return lib.Weakest(liberty.KindTie0)
}

func sameGroup(a, b *netlist.Cell) bool {
	return a.Group == b.Group || a.Group == "" || b.Group == ""
}

// foldConst2 simplifies a two-input gate with constant inputs.
func foldConst2(nl *netlist.Netlist, c *netlist.Cell) int {
	a, b := c.Inputs[0], c.Inputs[1]
	lib := nl.Lib
	if a.Const && b.Const {
		val := eval2(c.Ref.Kind, a.Val, b.Val)
		if tie := tieFor(lib, val); tie != nil && nl.ReplaceCell(c, tie) == nil {
			return 1
		}
		return 0
	}
	if !a.Const && !b.Const {
		return 0
	}
	if b.Const {
		a, b = b, a
	}
	// a is the constant input, b the live one.
	type action int
	const (
		keepGate action = iota
		passB           // output = b
		constOut        // output = constant
		invB            // output = ~b
	)
	act, cval := keepGate, false
	switch c.Ref.Kind {
	case liberty.KindAnd2:
		if a.Val {
			act = passB
		} else {
			act, cval = constOut, false
		}
	case liberty.KindOr2:
		if a.Val {
			act, cval = constOut, true
		} else {
			act = passB
		}
	case liberty.KindNand2:
		if a.Val {
			act = invB
		} else {
			act, cval = constOut, true
		}
	case liberty.KindNor2:
		if a.Val {
			act, cval = constOut, false
		} else {
			act = invB
		}
	case liberty.KindXor2:
		if a.Val {
			act = invB
		} else {
			act = passB
		}
	case liberty.KindXnor2:
		if a.Val {
			act = passB
		} else {
			act = invB
		}
	}
	switch act {
	case passB:
		return passthrough(nl, c, b)
	case constOut:
		if tie := tieFor(lib, cval); tie != nil && nl.ReplaceCell(c, tie) == nil {
			return 1
		}
	case invB:
		if inv := lib.Weakest(liberty.KindInv); inv != nil && nl.ReplaceCell(c, inv, b) == nil {
			return 1
		}
	}
	return 0
}

// passthrough replaces a cell whose output equals one of its inputs: the
// cell disappears, or becomes a buffer when the output is a primary output.
func passthrough(nl *netlist.Netlist, c *netlist.Cell, keep *netlist.Net) int {
	if c.Output.PO {
		if keep.Const {
			if tie := tieFor(nl.Lib, keep.Val); tie != nil && nl.ReplaceCell(c, tie) == nil {
				return 1
			}
			return 0
		}
		if buf := nl.Lib.Weakest(liberty.KindBuf); buf != nil && nl.ReplaceCell(c, buf, keep) == nil {
			return 1
		}
		return 0
	}
	nl.ReplaceNet(c.Output, keep)
	nl.RemoveCell(c)
	return 1
}

// Restructure merges gate/inverter pairs into complex cells: AND2+INV ->
// NAND2, OR2+INV -> NOR2, XOR2+INV -> XNOR2, NAND2+INV -> AND2, NOR2+INV ->
// OR2. Only single-fanout pairs within one group are merged.
var restructureMerge = map[liberty.Kind]liberty.Kind{
	liberty.KindAnd2:  liberty.KindNand2,
	liberty.KindOr2:   liberty.KindNor2,
	liberty.KindXor2:  liberty.KindXnor2,
	liberty.KindNand2: liberty.KindAnd2,
	liberty.KindNor2:  liberty.KindOr2,
	liberty.KindXnor2: liberty.KindXor2,
}

func Restructure(nl *netlist.Netlist) int { return restructure(nl, new(passScratch)) }

func restructure(nl *netlist.Netlist, sc *passScratch) int {
	merge := restructureMerge
	changed := 0
	for _, inv := range sc.snapshot(nl) {
		if inv.Ref.Kind != liberty.KindInv || inv.Fixed {
			continue
		}
		src := inv.Inputs[0].Driver
		if src == nil || src.Fixed || !sameGroup(inv, src) {
			continue
		}
		newKind, ok := merge[src.Ref.Kind]
		if !ok {
			continue
		}
		// src must feed only this inverter, and the merged gate must not
		// end up driving a heavy net: complex gates have worse drive, so
		// merging under high fanout loses more than the saved stage.
		if len(src.Output.Sinks) != 1 || src.Output.PO {
			continue
		}
		if len(inv.Output.Sinks) > 4 {
			continue
		}
		ref := nl.Lib.Weakest(newKind)
		if ref == nil {
			continue
		}
		// The inverter becomes the merged gate; src is removed.
		ins := append([]*netlist.Net(nil), src.Inputs...)
		if err := nl.ReplaceCell(inv, ref, ins...); err != nil {
			continue
		}
		nl.RemoveCell(src)
		changed++
	}
	return changed
}

var assocKinds = map[liberty.Kind]bool{
	liberty.KindAnd2: true,
	liberty.KindOr2:  true,
	liberty.KindXor2: true,
}

// BalanceTrees rebalances left-leaning chains of associative gates into
// balanced trees, reducing logic depth from O(n) to O(log n). Chains are
// only collected within one optimization group.
func BalanceTrees(nl *netlist.Netlist) int { return balanceTrees(nl, new(passScratch)) }

func balanceTrees(nl *netlist.Netlist, ps *passScratch) int {
	changed := 0
	// Snapshot cells all have IDs below the starting bound; cells AddCell
	// creates during rebalancing are never roots, so they need no liveness
	// bit and the slice never has to grow.
	inTree := ps.flagsByID(nl)
	var sc chainScratch
	for _, root := range ps.snapshot(nl) {
		if inTree[root.ID] || root.Fixed || !assocKinds[root.Ref.Kind] {
			continue
		}
		// Roots are chain cells not absorbed into a larger same-kind chain.
		if up := soleSameKindSink(root); up != nil && sameGroup(root, up) && !up.Fixed {
			continue
		}
		leaves, internals, depth := collectChain(root, &sc)
		if len(leaves) < 4 {
			continue
		}
		balanced := int(math.Ceil(math.Log2(float64(len(leaves)))))
		if depth <= balanced {
			continue
		}
		ref := nl.Lib.Weakest(root.Ref.Kind)
		level := leaves
		for len(level) > 2 {
			var next []*netlist.Net
			for i := 0; i+1 < len(level); i += 2 {
				g, err := nl.AddCell(ref, root.Group, root.Module, level[i], level[i+1])
				if err != nil {
					return changed
				}
				next = append(next, g.Output)
			}
			if len(level)%2 == 1 {
				next = append(next, level[len(level)-1])
			}
			level = next
		}
		nl.SetInput(root, 0, level[0])
		nl.SetInput(root, 1, level[1])
		for _, c := range internals {
			if c.ID < len(inTree) {
				inTree[c.ID] = true
			}
			nl.RemoveCell(c)
		}
		changed++
	}
	return changed
}

func soleSameKindSink(c *netlist.Cell) *netlist.Cell {
	if len(c.Output.Sinks) != 1 || c.Output.PO {
		return nil
	}
	s := c.Output.Sinks[0].Cell
	if s.Ref.Kind == c.Ref.Kind {
		return s
	}
	return nil
}

// chainScratch reuses collectChain's work slices across the roots of one
// BalanceTrees pass. Each call's results overwrite the previous call's.
type chainScratch struct {
	leaves    []*netlist.Net
	internals []*netlist.Cell
	stack     []chainFrame
}

type chainFrame struct {
	c *netlist.Cell
	i int // next input index to examine
	d int // depth of c within the chain
}

// collectChain gathers the leaf nets of a same-kind gate tree rooted at
// root, along with the internal cells (excluding root) and the tree depth.
// The walk is an explicit-stack preorder traversal matching the recursive
// formulation exactly (same leaf and internal order), without the per-root
// closure and stack-frame allocations.
func collectChain(root *netlist.Cell, sc *chainScratch) (leaves []*netlist.Net, internals []*netlist.Cell, depth int) {
	sc.leaves = sc.leaves[:0]
	sc.internals = sc.internals[:0]
	sc.stack = append(sc.stack[:0], chainFrame{c: root, d: 1})
	for len(sc.stack) > 0 {
		f := &sc.stack[len(sc.stack)-1]
		if f.d > depth {
			depth = f.d
		}
		if f.i >= len(f.c.Inputs) {
			sc.stack = sc.stack[:len(sc.stack)-1]
			continue
		}
		in := f.c.Inputs[f.i]
		f.i++
		drv := in.Driver
		if drv != nil && drv != root && !drv.Fixed &&
			drv.Ref.Kind == root.Ref.Kind &&
			sameGroup(drv, root) &&
			len(drv.Output.Sinks) == 1 && !drv.Output.PO {
			sc.internals = append(sc.internals, drv)
			sc.stack = append(sc.stack, chainFrame{c: drv, d: f.d + 1})
			continue
		}
		sc.leaves = append(sc.leaves, in)
	}
	return sc.leaves, sc.internals, depth
}

// SizeOptions tunes the sizing pass. Effort levels map to how many
// iterations run, how strong a cell may get, and how small a win the
// optimizer will still take — the mechanism behind compile effort levels.
type SizeOptions struct {
	TargetSlack float64
	MaxIters    int
	MaxDrive    int     // strongest drive allowed; 0 = unlimited
	MinGain     float64 // smallest accepted benefit-penalty, ns
}

// SizeForTimingWith iteratively upsizes cells below the slack target until
// the critical-path slack reaches it, improvement stalls, or MaxIters
// passes complete. A candidate is upsized only when its estimated local
// benefit (lower drive resistance under the actual load) outweighs the
// upstream penalty of its increased input capacitance by at least MinGain;
// a regressing iteration is rolled back and ends the pass. tm is refreshed
// incrementally after each batch of resizes.
func SizeForTimingWith(tm *sta.Timing, o SizeOptions) int {
	if err := tm.Update(nil); err != nil {
		return 0
	}
	nl := tm.NL
	targetSlack, maxIters := o.TargetSlack, o.MaxIters
	minGain := o.MinGain
	if minGain <= 0 {
		minGain = 1e-5
	}
	resized := 0
	type change struct {
		cell *netlist.Cell
		old  *liberty.Cell
	}
	var changes []change
	var changedCells []*netlist.Cell
	for iter := 0; iter < maxIters; iter++ {
		if tm.CPS() >= targetSlack {
			return resized
		}
		prevCPS, prevTNS := tm.CPS(), tm.TNS()
		changes = changes[:0]
		changedCells = changedCells[:0]
		// Candidates: every cell below the slack target, so all violating
		// cones improve together instead of whack-a-mole on a few paths.
		for _, c := range nl.Cells {
			if c.Fixed {
				continue
			}
			slack := tm.Slack(c.Output)
			if math.IsInf(slack, 1) || slack >= targetSlack {
				continue
			}
			up := nl.Lib.Upsize(c.Ref)
			if up == nil || (o.MaxDrive > 0 && up.Drive > o.MaxDrive) {
				continue
			}
			load := tm.LoadCap(c.Output)
			benefit := c.Ref.Delay(load) - up.Delay(load)
			// Extra input capacitance slows this cell's drivers.
			dcap := up.InputCap - c.Ref.InputCap
			penalty := 0.0
			for _, in := range c.Inputs {
				if in.Driver != nil {
					if p := in.Driver.Ref.DriveRes * dcap; p > penalty {
						penalty = p
					}
				}
			}
			if benefit-penalty <= minGain {
				continue
			}
			changes = append(changes, change{c, c.Ref})
			changedCells = append(changedCells, c)
			nl.SetRef(c, up)
		}
		if len(changes) == 0 {
			return resized
		}
		if err := tm.Update(changedCells); err != nil {
			return resized
		}
		improved := tm.CPS() > prevCPS+1e-9 ||
			(tm.TNS() > prevTNS+1e-9 && tm.CPS() >= prevCPS-1e-9)
		if !improved {
			for _, ch := range changes {
				nl.SetRef(ch.cell, ch.old)
			}
			tm.Update(changedCells)
			return resized
		}
		resized += len(changes)
	}
	return resized
}

// AreaRecoveryWith downsizes cells with slack above margin, reclaiming area
// without creating violations; a regressing pass is rolled back. tm is
// refreshed incrementally.
func AreaRecoveryWith(tm *sta.Timing, margin float64) int {
	return areaRecovery(tm, margin, new(passScratch))
}

func areaRecovery(tm *sta.Timing, margin float64, sc *passScratch) int {
	if err := tm.Update(nil); err != nil {
		return 0
	}
	nl := tm.NL
	baseWNS := tm.WNS()
	type change struct {
		cell *netlist.Cell
		old  *liberty.Cell
	}
	var changes []change
	var changedCells []*netlist.Cell
	// Visit cells in ID order. nl.Cells is permuted by every removal, but IDs
	// are unique and below the bound, so scattering by ID orders them without
	// a sort.
	byID := sc.byID(nl)
	for _, c := range nl.Cells {
		byID[c.ID] = c
	}
	for _, c := range byID {
		if c == nil || c.Fixed || c.IsSeq() {
			continue
		}
		slack := tm.Slack(c.Output)
		if math.IsInf(slack, 1) || slack <= margin {
			continue
		}
		down := nl.Lib.Downsize(c.Ref)
		if down == nil {
			continue
		}
		load := tm.LoadCap(c.Output)
		delta := down.Delay(load) - c.Ref.Delay(load)
		if slack-delta <= margin {
			continue
		}
		changes = append(changes, change{c, c.Ref})
		changedCells = append(changedCells, c)
		nl.SetRef(c, down)
	}
	if len(changes) == 0 {
		return 0
	}
	if err := tm.Update(changedCells); err != nil || tm.WNS() < baseWNS-1e-9 {
		for _, ch := range changes {
			nl.SetRef(ch.cell, ch.old)
		}
		tm.Update(changedCells)
		return 0
	}
	return len(changes)
}

// BufferHighFanout splits nets whose fanout exceeds limit into buffer
// trees, the mechanism behind balance_buffers and max_fanout fixing.
// Clock, reset, and constant nets are left alone.
func BufferHighFanout(nl *netlist.Netlist, limit int) int {
	if limit < 2 {
		return 0
	}
	buf := nl.Lib.Strongest(liberty.KindBuf)
	if buf == nil {
		return 0
	}
	inserted := 0
	for {
		var target *netlist.Net
		for _, n := range nl.Nets {
			if n.IsClk || n.IsRst || n.Const {
				continue
			}
			if len(n.Sinks) > limit {
				target = n
				break
			}
		}
		if target == nil {
			return inserted
		}
		group, module := "", nl.Name
		if target.Driver != nil {
			group, module = target.Driver.Group, target.Driver.Module
		}
		sinks := append([]*netlist.Pin(nil), target.Sinks...)
		for start := 0; start < len(sinks); start += limit {
			end := start + limit
			if end > len(sinks) {
				end = len(sinks)
			}
			b, err := nl.AddCell(buf, group, module, target)
			if err != nil {
				return inserted
			}
			// Load-required: Sweep must not collapse the tree it was built
			// to provide.
			b.Fixed = true
			inserted++
			for _, p := range sinks[start:end] {
				nl.SetInput(p.Cell, p.Index, b.Output)
			}
		}
	}
}
