package netlist

import (
	"encoding/binary"
	"sort"
)

// The object-walking netlist encoding: a test oracle for "the same netlist",
// and nothing decodes it. Encode walks the pointer graph — independently of
// Freeze and Thaw, which the tests check against it — and writes everything
// that makes two netlists the same:
//
//   - Cell.ID and Net.ID numbering, and the nextCell/nextNet bounds, which
//     size slice-indexed per-ID state (the timing engine's).
//   - Slice orders (Cells, Nets, Inputs, Outputs, each cell's Inputs, each
//     net's Sinks), which fix float accumulation orders and therefore every
//     timing and QoR number.
//   - The edit generations (gen, topoGen), which generation-keyed caches
//     observe.
//   - Names, flags, library cells by name, modules, groups and group counts.
//
// A netlist at rest in a checkpoint store is an Image; see Freeze.

const (
	codecMagic   = "NLBIN"
	codecVersion = 1
)

// Encode serializes the netlist. The output is deterministic: encoding the
// same netlist twice yields identical bytes (map-ordered data is sorted).
func Encode(nl *Netlist) []byte {
	e := encoder{buf: []byte(codecMagic)}
	e.buf = append(e.buf, codecVersion)
	e.str(nl.Name)
	e.uvarint(uint64(nl.nextNet))
	e.uvarint(uint64(nl.nextCell))
	e.uvarint(nl.gen)
	e.uvarint(nl.topoGen)

	groups := make([]string, 0, len(nl.Groups))
	for g := range nl.Groups {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	e.uvarint(uint64(len(groups)))
	for _, g := range groups {
		e.str(g)
		e.uvarint(uint64(nl.Groups[g]))
	}

	e.uvarint(uint64(len(nl.Nets)))
	for _, n := range nl.Nets {
		e.uvarint(uint64(n.ID))
		e.str(n.Name)
		e.buf = append(e.buf, netFlagBits(n))
	}

	e.uvarint(uint64(len(nl.Cells)))
	for _, c := range nl.Cells {
		e.uvarint(uint64(c.ID))
		e.str(c.Name)
		e.str(c.Ref.Name)
		e.str(c.Module)
		e.str(c.Group)
		var fixed byte
		if c.Fixed {
			fixed = 1
		}
		e.buf = append(e.buf, fixed)
		e.uvarint(uint64(len(c.Inputs)))
		for _, in := range c.Inputs {
			e.uvarint(uint64(in.ID))
		}
		e.optID(netID(c.Output))
		e.optID(netID(c.Clock))
		e.optID(netID(c.Reset))
	}

	// Net connectivity, after the cells.
	for _, n := range nl.Nets {
		e.optID(cellID(n.Driver))
		e.uvarint(uint64(len(n.Sinks)))
		for _, p := range n.Sinks {
			e.uvarint(uint64(p.Cell.ID))
			e.uvarint(uint64(p.Index))
		}
	}

	e.uvarint(uint64(len(nl.Inputs)))
	for _, n := range nl.Inputs {
		e.uvarint(uint64(n.ID))
	}
	e.uvarint(uint64(len(nl.Outputs)))
	for _, n := range nl.Outputs {
		e.uvarint(uint64(n.ID))
	}
	e.optID(netID(nl.ClkNet))
	e.optID(netID(nl.RstNet))
	return e.buf
}

// optID writes id+1 so -1 (nil reference) encodes as 0.
func (e *encoder) optID(id int) { e.uvarint(uint64(id + 1)) }

func netID(n *Net) int {
	if n == nil {
		return -1
	}
	return n.ID
}

func cellID(c *Cell) int {
	if c == nil {
		return -1
	}
	return c.ID
}

// encoder accumulates Encode's output.
type encoder struct {
	buf []byte
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
