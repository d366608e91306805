package netlist

import "fmt"

// aliaser is a union-find over nets. Continuous assignments, port bindings,
// and register outputs unify nets; materialize resolves every cell
// connection to its class root and builds the sink lists, catching multiple
// drivers and driven constants/inputs along the way.
type aliaser struct {
	parent []*Net // indexed by Net.ID; nil means the net is its class root
}

func newAliaser() *aliaser { return &aliaser{} }

func (a *aliaser) parentOf(n *Net) *Net {
	if n.ID < len(a.parent) {
		return a.parent[n.ID]
	}
	return nil
}

func (a *aliaser) setParent(n, root *Net) {
	if n.ID >= len(a.parent) {
		grown := make([]*Net, n.ID+n.ID/2+16)
		copy(grown, a.parent)
		a.parent = grown
	}
	a.parent[n.ID] = root
}

func (a *aliaser) find(n *Net) *Net {
	root := n
	for {
		p := a.parentOf(root)
		if p == nil {
			break
		}
		root = p
	}
	// Path compression.
	for n != root {
		next := a.parent[n.ID]
		a.parent[n.ID] = root
		n = next
	}
	return root
}

// rank orders root preference: constants and primary inputs must stay roots
// so their identity survives; named nets beat anonymous ones.
func rank(n *Net) int {
	switch {
	case n.Const:
		return 4
	case n.PI:
		return 3
	case n.PO:
		return 2
	case n.Name != "" && n.Name[0] != 'n':
		return 1
	}
	return 0
}

// union merges the classes of x and y, checking driver legality.
func (a *aliaser) union(x, y *Net) error {
	rx, ry := a.find(x), a.find(y)
	if rx == ry {
		return nil
	}
	if rank(ry) > rank(rx) {
		rx, ry = ry, rx
	}
	// rx becomes the root; fold ry's facts into it.
	if rx.Const && ry.Const {
		if rx.Val != ry.Val {
			return fmt.Errorf("net %s: conflicting constant drivers", rx.Name)
		}
	}
	if ry.Const && !rx.Const {
		// ry outranks unless rx is const; by rank, const is max, so this
		// only happens when both were const (handled) — defensive:
		rx.Const, rx.Val = true, ry.Val
	}
	if rx.Driver != nil && ry.Driver != nil {
		return fmt.Errorf("net %s: multiple drivers (%s and %s)", rx.Name, rx.Driver.Name, ry.Driver.Name)
	}
	if ry.Driver != nil {
		if rx.Const {
			return fmt.Errorf("net %s: cell %s drives a constant net", rx.Name, ry.Driver.Name)
		}
		if rx.PI {
			return fmt.Errorf("net %s: cell %s drives a primary input", rx.Name, ry.Driver.Name)
		}
		rx.Driver = ry.Driver
	}
	if ry.PI {
		if rx.Driver != nil {
			return fmt.Errorf("net %s: primary input aliased with driven net", ry.Name)
		}
		if rx.Const {
			return fmt.Errorf("net %s: primary input aliased with constant", ry.Name)
		}
		if rx.PI {
			return fmt.Errorf("nets %s and %s: two primary inputs shorted", rx.Name, ry.Name)
		}
		rx.PI = true
		rx.Name = ry.Name
	}
	if rx.Const && ry.PI {
		return fmt.Errorf("net %s: primary input aliased with constant", ry.Name)
	}
	rx.PO = rx.PO || ry.PO
	rx.IsClk = rx.IsClk || ry.IsClk
	rx.IsRst = rx.IsRst || ry.IsRst
	if rx.Name == "" || (len(rx.Name) > 0 && rx.Name[0] == 'n' && ry.Name != "" && ry.Name[0] != 'n') {
		if ry.Name != "" {
			rx.Name = ry.Name
		}
	}
	a.setParent(ry, rx)
	return nil
}

// materialize resolves aliases into the final netlist: every cell port is
// rewritten to its class root, the sink lists are built — elaboration creates
// its cells through addCell, which builds none, so this is the only place
// they are — the primary
// input/output lists are canonicalized, and the clock/reset nets are
// identified. The nets list keeps only live roots.
func (el *elab) materialize() error {
	nl := el.nl
	// Pass 1: resolve every cell port to its class root, check driver
	// legality, and count sinks per root so pass 2 can carve all sink lists
	// out of one slab instead of growing each with per-pin allocations.
	sinkCount := make([]int32, nl.nextNet)
	totalSinks := 0
	for _, c := range nl.Cells {
		out := el.al.find(c.Output)
		if out.Driver != nil && out.Driver != c {
			return fmt.Errorf("net %s: multiple drivers (%s and %s)", out.Name, out.Driver.Name, c.Name)
		}
		if out.Const {
			return fmt.Errorf("net %s: cell %s drives a constant", out.Name, c.Name)
		}
		if out.PI {
			return fmt.Errorf("net %s: cell %s drives a primary input", out.Name, c.Name)
		}
		out.Driver = c
		c.Output = out
		for i, in := range c.Inputs {
			root := el.al.find(in)
			c.Inputs[i] = root
			sinkCount[root.ID]++
			totalSinks++
		}
		if c.Clock != nil {
			c.Clock = el.al.find(c.Clock)
			c.Clock.IsClk = true
		}
		if c.Reset != nil {
			c.Reset = el.al.find(c.Reset)
			c.Reset.IsRst = true
		}
	}

	// Pass 2: build the sink lists in AddCell's append order (cells in
	// list order, inputs in pin order), filling preallocated slabs.
	pinSlab := make([]Pin, totalSinks)
	sinkSlab := make([]*Pin, totalSinks)
	off := 0
	for _, n := range nl.Nets {
		cnt := int(sinkCount[n.ID])
		if cnt == 0 {
			continue
		}
		n.Sinks = sinkSlab[off : off : off+cnt]
		off += cnt
	}
	pi := 0
	for _, c := range nl.Cells {
		for i, in := range c.Inputs {
			pinSlab[pi] = Pin{Cell: c, Index: i}
			in.Sinks = append(in.Sinks, &pinSlab[pi])
			pi++
		}
	}

	// Canonicalize output list.
	seen := make([]bool, nl.nextNet)
	outs := nl.Outputs[:0]
	for _, o := range nl.Outputs {
		root := el.al.find(o)
		root.PO = true
		if !seen[root.ID] {
			seen[root.ID] = true
			outs = append(outs, root)
		}
	}
	nl.Outputs = outs
	for _, o := range nl.Outputs {
		if o.Driver == nil && !o.PI && !o.Const {
			return fmt.Errorf("primary output %s is undriven", o.Name)
		}
	}

	// Collect live roots, primary inputs, clock, and reset.
	live := make([]bool, nl.nextNet)
	for _, c := range nl.Cells {
		live[c.Output.ID] = true
		for _, in := range c.Inputs {
			live[in.ID] = true
		}
		if c.Clock != nil {
			live[c.Clock.ID] = true
		}
		if c.Reset != nil {
			live[c.Reset.ID] = true
		}
	}
	for _, o := range nl.Outputs {
		live[o.ID] = true
	}

	nets := make([]*Net, 0, len(nl.Nets))
	for _, n := range nl.Nets {
		if el.al.find(n) != n {
			continue
		}
		if n.PI {
			if n.IsClk {
				if nl.ClkNet != nil && nl.ClkNet != n {
					return fmt.Errorf("multiple clock nets (%s and %s): multi-clock designs not supported", nl.ClkNet.Name, n.Name)
				}
				nl.ClkNet = n
			} else if n.IsRst {
				if nl.RstNet != nil && nl.RstNet != n {
					return fmt.Errorf("multiple reset nets (%s and %s) not supported", nl.RstNet.Name, n.Name)
				}
				nl.RstNet = n
			} else {
				nl.Inputs = append(nl.Inputs, n)
			}
			nets = append(nets, n)
			continue
		}
		if live[n.ID] {
			nets = append(nets, n)
		}
	}
	nl.Nets = nets
	return nl.Check()
}
