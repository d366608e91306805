package sta

import (
	"sync/atomic"

	"repro/internal/netlist"
)

// Update refreshes timing after netlist edits. changed lists the cells whose
// library reference was swapped (netlist.SetRef/Resize) since the last
// analysis; arrivals are re-propagated only through their fanout cones and
// required times only through the fanin cones of affected nets.
//
// Falls back to a full in-place re-analysis when the netlist topology
// changed (buffering, restructuring, retiming, ungrouping), or when edits
// happened that changed isn't accounting for. Because every recomputation
// uses the same float operations in the same order as the full passes and
// propagation stops on exact equality, the incremental result is
// bit-identical to a fresh Analyze of the edited netlist.
//
// The worklists are flags and counters on Timing rather than local closures
// so a delay-only update runs allocation-free; see the alloc guard tests.
func (t *Timing) Update(changed []*netlist.Cell) error {
	nl := t.NL
	if nl.TopoGen() != t.topoGen {
		return t.reanalyze()
	}
	if nl.Gen() == t.gen {
		return nil
	}
	if len(changed) == 0 {
		// Delay edits happened but the caller can't name them: recompute all.
		return t.reanalyze()
	}
	incrementalUpdates.Add(1)
	t.dirty = 0
	t.fMin, t.bMax = int32(len(t.order)), -1

	// Forward: re-propagate arrivals through the fanout cones. A swapped cell
	// has a new delay, and a new InputCap on each input net, which moves that
	// net's load and with it the driving stage's delay: those are all the
	// stage delays the edit moved, and queueing their cells refreshes them —
	// every one of them before the sweep below reads the first.
	for _, c := range changed {
		if t.pos[c.ID] < 0 {
			// New Delay and Setup: output arrival and D-endpoint slack.
			t.seedSource(c.Output)
			t.refreshEndsOnNet(c.Inputs[0])
		} else {
			t.stage[c.ID] = t.stageDelay(c)
			t.pushFwd(c)
		}
		for _, in := range c.Inputs {
			if d := in.Driver; d != nil && t.pos[d.ID] >= 0 {
				t.stage[d.ID] = t.stageDelay(d)
				t.pushFwd(d)
			} else {
				t.seedSource(in)
			}
		}
	}
	for i := t.fMin; t.fPending > 0; i++ {
		c := t.order[i]
		if !t.inFQ[c.ID] {
			continue
		}
		t.inFQ[c.ID] = false
		t.fPending--
		t.dirty++
		a := t.cellArrival(c)
		if a != t.arr[c.Output.ID] {
			t.arr[c.Output.ID] = a
			t.refreshEndsOnNet(c.Output)
			for _, p := range c.Output.Sinks {
				if t.pos[p.Cell.ID] >= 0 {
					t.pushFwd(p.Cell)
				}
			}
		}
	}

	// Backward: re-propagate required times through the fanin cones, in
	// decreasing order of the driving cell's topological position. PI-, flop-
	// and constant-driven nets depend only on combinationally driven ones and
	// absorb changes without propagating further, so they are drained last.
	for _, c := range changed {
		// req of c's inputs depends on c's stage delay (comb) or Setup
		// (seq); req of the driver's other fanin depends on the driver's
		// stage delay, which changed with c's InputCap.
		for _, in := range c.Inputs {
			t.pushBwd(in)
			if d := in.Driver; d != nil && t.pos[d.ID] >= 0 {
				for _, in2 := range d.Inputs {
					t.pushBwd(in2)
				}
			}
		}
	}
	for i := t.bMax; t.bPending > 0; i-- {
		d := t.order[i]
		n := d.Output
		if !t.inBQ[n.ID] {
			continue
		}
		t.inBQ[n.ID] = false
		t.bPending--
		t.dirty++
		if r := t.recomputeReq(n); r != t.req[n.ID] {
			t.req[n.ID] = r
			for _, in := range d.Inputs {
				t.pushBwd(in)
			}
		}
	}
	for _, n := range t.bSrc {
		t.inBQ[n.ID] = false
		t.dirty++
		t.req[n.ID] = t.recomputeReq(n)
	}
	t.bSrc = t.bSrc[:0]

	t.gen = nl.Gen()
	observeDirty(t.dirty)
	return nil
}

// seedSource re-evaluates a PI- or flop-driven net whose load changed.
func (t *Timing) seedSource(n *netlist.Net) {
	a, ok := t.sourceArrival(n)
	if !ok {
		return // constant or clock/reset: no arrival
	}
	t.dirty++
	if a != t.arr[n.ID] {
		t.arr[n.ID] = a
		t.refreshEndsOnNet(n)
		for _, p := range n.Sinks {
			if t.pos[p.Cell.ID] >= 0 {
				t.pushFwd(p.Cell)
			}
		}
	}
}

// ----------------------------------------------------------------------------
// Worklists. A queued item is a set flag, not a heap entry: the forward list
// is the cells of t.order with inFQ set, visited by walking the order up from
// the lowest flagged position; the backward list is the nets with inBQ set,
// visited by walking the order down from the highest flagged driver. Cells
// only ever queue cells after them and nets only nets driven before them, so
// one pass in each direction reaches every flagged item, in exactly the order
// a priority queue keyed on position would pop them. The pending counters end
// each pass as soon as nothing is left ahead of it.

func (t *Timing) pushFwd(c *netlist.Cell) {
	if t.inFQ[c.ID] {
		return
	}
	t.inFQ[c.ID] = true
	t.fPending++
	if p := t.pos[c.ID]; p < t.fMin {
		t.fMin = p
	}
}

func (t *Timing) pushBwd(n *netlist.Net) {
	if t.inBQ[n.ID] {
		return
	}
	t.inBQ[n.ID] = true
	if d := n.Driver; d != nil && t.pos[d.ID] >= 0 {
		t.bPending++
		if p := t.pos[d.ID]; p > t.bMax {
			t.bMax = p
		}
	} else {
		t.bSrc = append(t.bSrc, n)
	}
}

// ----------------------------------------------------------------------------
// Analysis statistics, surfaced on the chatlsd /metrics endpoint. The package
// keeps plain atomics and an observer hook so it stays free of a dependency
// on internal/metrics.

var (
	fullAnalyses       atomic.Uint64
	incrementalUpdates atomic.Uint64
	dirtyObserver      atomic.Value // of func(int)
)

// FullAnalyses returns the number of full timing analyses run process-wide.
func FullAnalyses() uint64 { return fullAnalyses.Load() }

// IncrementalUpdates returns the number of incremental updates run
// process-wide (excluding topology-change fallbacks, which count as full).
func IncrementalUpdates() uint64 { return incrementalUpdates.Load() }

// SetDirtyNodesObserver registers fn to be called with the dirty-node count
// (nets recomputed) of every incremental update. Pass nil to unregister.
func SetDirtyNodesObserver(fn func(int)) {
	dirtyObserver.Store(fn)
}

func observeDirty(n int) {
	if fn, _ := dirtyObserver.Load().(func(int)); fn != nil {
		fn(n)
	}
}
