package synth

import (
	"math"

	"repro/internal/netlist"
	"repro/internal/sta"
)

// RetimeWith implements timing-driven register retiming (the
// optimize_registers command) against an existing Timing: flip-flops move
// backward or forward across single gates on critical paths whenever the
// neighbouring pipeline stage has enough slack to absorb the gate's delay.
// This is the pass that rescues designs with unbalanced register placement —
// the scenario the paper cites as the case where retiming beats buffer
// balancing — and it does nothing for designs whose stages are already
// balanced. Register moves change the topology, so each sweep is one full
// re-analysis, in place: the timer's buffers keep headroom for the flops a
// sweep adds.
func RetimeWith(tm *sta.Timing, maxMoves int) int {
	nl := tm.NL
	const margin = 0.02
	moves := 0
	prevWNS := math.Inf(-1)
	var sc retimeScratch
	var present []bool // indexed by Cell.ID; rebuilt each sweep
	var fwdFlops []*netlist.Cell
	for moves < maxMoves {
		if err := tm.Update(nil); err != nil {
			return moves
		}
		if tm.WNS() >= 0 {
			return moves
		}
		// Stop if the last sweep failed to improve WNS: the violating paths
		// are not register-imbalance-limited, and further moves only add
		// flops (the "wrong tool" outcome the manual warns about).
		if tm.WNS() <= prevWNS+1e-9 && !math.IsInf(prevWNS, -1) {
			return moves
		}
		prevWNS = tm.WNS()
		// One sweep: try a move at every violating endpoint using this
		// timing snapshot, then re-analyze. Flops consumed by earlier moves
		// in the sweep are skipped.
		// Flops AddCell creates mid-sweep get IDs at or above this bound;
		// inSweep treats them as absent, exactly as the sweep's starting
		// snapshot would.
		bound := nl.CellIDBound()
		if cap(present) < bound {
			present = make([]bool, bound)
		} else {
			present = present[:bound]
			for i := range present {
				present[i] = false
			}
		}
		for _, c := range nl.Cells {
			present[c.ID] = true
		}
		inSweep := func(c *netlist.Cell) bool { return c.ID < bound && present[c.ID] }
		applied := 0
		for _, end := range tm.Violators() {
			if moves+applied >= maxMoves {
				break
			}
			if end.Cell != nil {
				if !inSweep(end.Cell) {
					continue
				}
				if removed := retimeBackward(nl, tm, end.Cell, margin, &sc); removed != nil {
					for _, f := range removed {
						if f.ID < bound {
							present[f.ID] = false
						}
					}
					applied++
					continue
				}
			}
			// Try a forward move at the path's launching register.
			if launch := tm.LaunchCell(end); launch != nil && inSweep(launch) {
				if g := soleCombSink(launch.Output); g != nil && !g.IsSeq() {
					// Capture the feeding flops before the move rewires g.
					fwdFlops = fwdFlops[:0]
					okAll := true
					for _, in := range g.Inputs {
						f := in.Driver
						if f == nil || !f.IsSeq() || !inSweep(f) {
							okAll = false
							break
						}
						fwdFlops = append(fwdFlops, f)
					}
					if okAll && retimeForward(nl, tm, g, margin, &sc) {
						for _, f := range fwdFlops {
							if f.ID < bound {
								present[f.ID] = false
							}
						}
						applied++
					}
				}
			}
		}
		if applied == 0 {
			return moves
		}
		moves += applied
	}
	return moves
}

func soleCombSink(n *netlist.Net) *netlist.Cell {
	if len(n.Sinks) != 1 || n.PO {
		return nil
	}
	c := n.Sinks[0].Cell
	if c.IsSeq() {
		return nil
	}
	return c
}

// retimeBackward moves the registers after gate g onto g's inputs:
//
//	ins -> g -> flop(s) -> downstream   becomes   ins -> flops -> g -> downstream
//
// f is one of the flops fed by g. Legal when every sink of g's output is an
// identical flop (the common case is exactly one), and profitable when the
// downstream stage of each can absorb g's delay. It returns the flops
// removed, or nil when no move was made.
func retimeBackward(nl *netlist.Netlist, tm *sta.Timing, f *netlist.Cell, margin float64, sc *retimeScratch) []*netlist.Cell {
	if f.Fixed {
		return nil
	}
	d := f.Inputs[0]
	g := d.Driver
	if g == nil || g.IsSeq() || g.Fixed || len(g.Inputs) == 0 || d.PO {
		return nil
	}
	if !sameGroup(f, g) {
		return nil
	}
	// Every sink of g must be a flop compatible with f. The scratch slice
	// is valid until the next retimeBackward call; the caller consumes it
	// immediately.
	sc.flops = sc.flops[:0]
	for _, p := range d.Sinks {
		s := p.Cell
		if !s.IsSeq() || s.Fixed || s.Ref != f.Ref || s.Clock != f.Clock || s.Reset != f.Reset {
			return nil
		}
		if s.Output.PO && len(d.Sinks) > 1 {
			// Merging would alias two output ports onto one net.
			return nil
		}
		sc.flops = append(sc.flops, s)
	}
	flops := sc.flops
	if len(flops) == 0 {
		return nil
	}
	// Profitability: each flop's downstream stage absorbs g's stage delay.
	gain := stageDelayOf(tm, g)
	for _, fl := range flops {
		if tm.Slack(fl.Output) < gain+margin {
			return nil
		}
	}
	// Insert a flop on each input of g.
	for i, in := range g.Inputs {
		nf, err := nl.AddCell(f.Ref, f.Group, f.Module, in)
		if err != nil {
			return nil
		}
		nf.Clock = f.Clock
		nf.Reset = f.Reset
		nl.SetInput(g, i, nf.Output)
	}
	// g now drives what the flops used to drive.
	if len(flops) == 1 && flops[0].Output.PO {
		q := flops[0].Output
		nl.RemoveCell(flops[0])
		// Keep the PO net's identity: g moves onto it. The old D net is
		// left dangling and gets swept.
		if err := nl.MoveOutput(g, q); err != nil {
			return nil
		}
		return flops
	}
	for _, fl := range flops {
		nl.ReplaceNet(fl.Output, d)
		nl.RemoveCell(fl)
	}
	return flops
}

// retimeForward moves the flops feeding gate g to g's output:
//
//	flops -> g -> downstream   becomes   g -> flop -> downstream
//
// legal when every input of g comes from a single-fanout flop and
// profitable when the upstream stage can absorb g's delay.
func retimeForward(nl *netlist.Netlist, tm *sta.Timing, g *netlist.Cell, margin float64, sc *retimeScratch) bool {
	if g.Fixed || g.IsSeq() || len(g.Inputs) == 0 || g.Output.PO {
		return false
	}
	sc.flops = sc.flops[:0]
	for _, in := range g.Inputs {
		f := in.Driver
		if f == nil || !f.IsSeq() || f.Fixed || in.PO || len(in.Sinks) != 1 {
			return false
		}
		if !sameGroup(f, g) {
			return false
		}
		sc.flops = append(sc.flops, f)
	}
	flops := sc.flops
	// All flops must share clock/reset.
	for _, f := range flops[1:] {
		if f.Clock != flops[0].Clock || f.Reset != flops[0].Reset {
			return false
		}
	}
	// Profitability: each upstream stage absorbs g's delay.
	gain := stageDelayOf(tm, g)
	for _, f := range flops {
		if tm.Slack(f.Inputs[0])-gain < margin {
			return false
		}
	}
	proto := flops[0]
	// Rewire g to read the flops' D nets directly.
	for i, f := range flops {
		nl.SetInput(g, i, f.Inputs[0])
	}
	// New flop after g: old downstream sinks of g move to the new flop's Q.
	q := g.Output
	sc.sinks = append(sc.sinks[:0], q.Sinks...)
	sinks := sc.sinks
	nf, err := nl.AddCell(proto.Ref, g.Group, g.Module, q)
	if err != nil {
		return false
	}
	nf.Clock = proto.Clock
	nf.Reset = proto.Reset
	for _, p := range sinks {
		nl.SetInput(p.Cell, p.Index, nf.Output)
	}
	for _, f := range flops {
		nl.RemoveCell(f)
	}
	return true
}

// retimeScratch reuses the per-endpoint work slices across one retiming
// sweep; each call's contents are consumed before the next call.
type retimeScratch struct {
	flops []*netlist.Cell
	sinks []*netlist.Pin
}

func stageDelayOf(tm *sta.Timing, c *netlist.Cell) float64 {
	load := tm.LoadCap(c.Output)
	return c.Ref.Delay(load)
}
