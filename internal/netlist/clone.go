package netlist

// Clone returns a deep copy of the netlist that shares no mutable state with
// the receiver: mutating either side (resize, retime, ungroup, buffering)
// never perturbs the other. Immutable references — the library and the
// cells' library references — are shared.
//
// The copy is exact, not merely equivalent:
//
//   - Cell.ID and Net.ID numbering is preserved, along with nextCell/nextNet,
//     so slice-indexed per-ID state (the timing engine's) sizes identically.
//   - Slice orders (Cells, Nets, Inputs, Outputs, each net's Sinks) are
//     preserved, so float accumulation orders — and therefore every timing
//     and QoR number — are bit-identical to the original's.
//   - The edit generations (gen, topoGen) carry over, so generation-keyed
//     caches observe the clone exactly where they observed the original.
//
// Allocation is slab-style: one backing array per object kind (cells, nets,
// pins, input pointers, sink pointers) instead of per-object allocations,
// so cloning a design costs a handful of large allocations and stays cheap
// enough to sit on the checkpoint-restore hot path.
//
// Clone only reads the receiver, so any number of goroutines may clone the
// same (otherwise unmutated) netlist concurrently.
func (nl *Netlist) Clone() *Netlist {
	out := &Netlist{
		Name:     nl.Name,
		Lib:      nl.Lib,
		nextNet:  nl.nextNet,
		nextCell: nl.nextCell,
		gen:      nl.gen,
		topoGen:  nl.topoGen,
		Groups:   make(map[string]int, len(nl.Groups)),
	}
	for g, cnt := range nl.Groups {
		out.Groups[g] = cnt
	}

	// Slabs. IDs are sparse (elaboration drops dead nets) but bounded, so
	// the ID-indexed maps size to the bounds while the slabs size to the
	// live object counts.
	netSlab := make([]Net, len(nl.Nets))
	cellSlab := make([]Cell, len(nl.Cells))
	netByID := make([]*Net, nl.nextNet)
	cellByID := make([]*Cell, nl.nextCell)

	out.Nets = make([]*Net, len(nl.Nets))
	totalSinks := 0
	for i, n := range nl.Nets {
		cn := &netSlab[i]
		*cn = Net{
			ID: n.ID, Name: n.Name,
			PI: n.PI, PO: n.PO,
			Const: n.Const, Val: n.Val,
			IsClk: n.IsClk, IsRst: n.IsRst,
		}
		out.Nets[i] = cn
		netByID[n.ID] = cn
		totalSinks += len(n.Sinks)
	}

	out.Cells = make([]*Cell, len(nl.Cells))
	totalInputs := 0
	for i, c := range nl.Cells {
		cc := &cellSlab[i]
		*cc = Cell{
			ID: c.ID, Name: c.Name, Ref: c.Ref,
			Module: c.Module, Group: c.Group, Fixed: c.Fixed,
			pos: i,
		}
		out.Cells[i] = cc
		cellByID[c.ID] = cc
		totalInputs += len(c.Inputs)
	}

	// Wire cell connectivity.
	inputSlab := make([]*Net, totalInputs)
	ii := 0
	for i, c := range nl.Cells {
		cc := &cellSlab[i]
		cc.Inputs = inputSlab[ii : ii+len(c.Inputs) : ii+len(c.Inputs)]
		for j, in := range c.Inputs {
			cc.Inputs[j] = netByID[in.ID]
		}
		ii += len(c.Inputs)
		if c.Output != nil {
			cc.Output = netByID[c.Output.ID]
		}
		if c.Clock != nil {
			cc.Clock = netByID[c.Clock.ID]
		}
		if c.Reset != nil {
			cc.Reset = netByID[c.Reset.ID]
		}
	}

	// Wire net connectivity.
	pinSlab := make([]Pin, totalSinks)
	sinkSlab := make([]*Pin, totalSinks)
	si := 0
	for i, n := range nl.Nets {
		cn := &netSlab[i]
		if n.Driver != nil {
			cn.Driver = cellByID[n.Driver.ID]
		}
		if len(n.Sinks) == 0 {
			continue
		}
		cn.Sinks = sinkSlab[si : si+len(n.Sinks) : si+len(n.Sinks)]
		for j, p := range n.Sinks {
			pinSlab[si+j] = Pin{Cell: cellByID[p.Cell.ID], Index: p.Index}
			cn.Sinks[j] = &pinSlab[si+j]
		}
		si += len(n.Sinks)
	}

	out.Inputs = make([]*Net, len(nl.Inputs))
	for i, n := range nl.Inputs {
		out.Inputs[i] = netByID[n.ID]
	}
	out.Outputs = make([]*Net, len(nl.Outputs))
	for i, n := range nl.Outputs {
		out.Outputs[i] = netByID[n.ID]
	}
	if nl.ClkNet != nil {
		out.ClkNet = netByID[nl.ClkNet.ID]
	}
	if nl.RstNet != nil {
		out.RstNet = netByID[nl.RstNet.ID]
	}
	return out
}
