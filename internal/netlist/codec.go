package netlist

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/liberty"
)

// Binary netlist codec. Encode/Decode serialize a netlist so post-link
// elaboration checkpoints can leave the process — into the remote result
// tier replicas share — and round-trip *exactly*, with the same guarantees
// Clone gives in-memory:
//
//   - Cell.ID and Net.ID numbering is preserved, along with the
//     nextCell/nextNet bounds, so slice-indexed per-ID state (the timing
//     engine's) sizes identically after a decode.
//   - Slice orders (Cells, Nets, Inputs, Outputs, each cell's Inputs, each
//     net's Sinks) are preserved, so float accumulation orders — and
//     therefore every timing and QoR number computed on the decoded netlist
//     — are bit-identical to the original's.
//   - The edit generations (gen, topoGen) carry over, so generation-keyed
//     caches observe the decoded netlist exactly where they observed the
//     original.
//
// Library cells cross by name and are re-resolved against the decoder's
// library; the caller is responsible for pairing a blob with a library of
// the same content (the checkpoint key binds the library fingerprint, so a
// remote hit always decodes against an equivalent library). Decode is
// defensive — any truncated, corrupt, or internally inconsistent blob
// returns an error rather than a panic or an over-allocation, because blobs
// arrive over the network.

const (
	codecMagic   = "NLBIN"
	codecVersion = 1
)

// Encode serializes the netlist. The output is deterministic: encoding the
// same netlist twice yields identical bytes (map-ordered data is sorted).
func Encode(nl *Netlist) []byte {
	var e encoder
	e.raw([]byte(codecMagic))
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

	// Net connectivity is written after the cells so sink pins can be
	// validated against the cells' input arities on decode.
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

// netFlagBits packs a net's six booleans into one byte, the form they take in
// a blob and in an Image; setNetFlagBits is its inverse.
func netFlagBits(n *Net) byte {
	var flags byte
	if n.PI {
		flags |= 1
	}
	if n.PO {
		flags |= 2
	}
	if n.Const {
		flags |= 4
	}
	if n.Val {
		flags |= 8
	}
	if n.IsClk {
		flags |= 16
	}
	if n.IsRst {
		flags |= 32
	}
	return flags
}

func setNetFlagBits(n *Net, flags byte) {
	n.PI = flags&1 != 0
	n.PO = flags&2 != 0
	n.Const = flags&4 != 0
	n.Val = flags&8 != 0
	n.IsClk = flags&16 != 0
	n.IsRst = flags&32 != 0
}

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

// Decode reconstructs a netlist from an Encode blob, resolving library-cell
// references by name against lib.
func Decode(data []byte, lib *liberty.Library) (*Netlist, error) {
	d := decoder{data: data}
	magic := d.raw(len(codecMagic))
	if d.err != nil || string(magic) != codecMagic {
		return nil, fmt.Errorf("netlist: not a netlist blob")
	}
	if v := d.byte(); d.err != nil || v != codecVersion {
		return nil, fmt.Errorf("netlist: unsupported blob version %d", v)
	}

	nl := &Netlist{Lib: lib, Groups: make(map[string]int)}
	nl.Name = d.str()
	nl.nextNet = d.count()
	nl.nextCell = d.count()
	nl.gen = d.uvarint()
	nl.topoGen = d.uvarint()

	nGroups := d.count()
	for i := 0; i < nGroups && d.err == nil; i++ {
		g := d.str()
		nl.Groups[g] = d.count()
	}

	nNets := d.count()
	if d.err == nil && nNets > nl.nextNet {
		return nil, fmt.Errorf("netlist: %d nets exceed ID bound %d", nNets, nl.nextNet)
	}
	netSlab := make([]Net, nNets)
	netByID := make([]*Net, nl.nextNet)
	nl.Nets = make([]*Net, nNets)
	for i := 0; i < nNets && d.err == nil; i++ {
		n := &netSlab[i]
		n.ID = d.count()
		n.Name = d.str()
		setNetFlagBits(n, d.byte())
		if d.err != nil {
			break
		}
		if n.ID >= nl.nextNet || netByID[n.ID] != nil {
			return nil, fmt.Errorf("netlist: net ID %d out of range or duplicated", n.ID)
		}
		nl.Nets[i] = n
		netByID[n.ID] = n
	}

	nCells := d.count()
	if d.err == nil && nCells > nl.nextCell {
		return nil, fmt.Errorf("netlist: %d cells exceed ID bound %d", nCells, nl.nextCell)
	}
	cellSlab := make([]Cell, nCells)
	cellByID := make([]*Cell, nl.nextCell)
	nl.Cells = make([]*Cell, nCells)
	for i := 0; i < nCells && d.err == nil; i++ {
		c := &cellSlab[i]
		c.ID = d.count()
		c.Name = d.str()
		refName := d.str()
		c.Module = d.str()
		c.Group = d.str()
		c.Fixed = d.byte() != 0
		nIn := d.count()
		if d.err != nil {
			break
		}
		if c.ID >= nl.nextCell || cellByID[c.ID] != nil {
			return nil, fmt.Errorf("netlist: cell ID %d out of range or duplicated", c.ID)
		}
		if c.Ref = lib.Cell(refName); c.Ref == nil {
			return nil, fmt.Errorf("netlist: library %s has no cell %q", lib.Name, refName)
		}
		c.Inputs = make([]*Net, nIn)
		for j := 0; j < nIn && d.err == nil; j++ {
			if c.Inputs[j] = d.net(netByID); c.Inputs[j] == nil {
				return nil, fmt.Errorf("netlist: cell %s input %d references unknown net", c.Name, j)
			}
		}
		c.Output = d.optNet(netByID)
		c.Clock = d.optNet(netByID)
		c.Reset = d.optNet(netByID)
		c.pos = i
		nl.Cells[i] = c
		cellByID[c.ID] = c
	}

	for i := 0; i < nNets && d.err == nil; i++ {
		n := &netSlab[i]
		n.Driver = d.optCell(cellByID)
		nSinks := d.count()
		if d.err != nil {
			break
		}
		if nSinks == 0 {
			continue
		}
		pinSlab := make([]Pin, nSinks)
		n.Sinks = make([]*Pin, nSinks)
		for j := 0; j < nSinks && d.err == nil; j++ {
			c := d.cell(cellByID)
			idx := d.count()
			if d.err != nil {
				break
			}
			if c == nil || idx >= len(c.Inputs) {
				return nil, fmt.Errorf("netlist: net %s sink %d references invalid pin", n.Name, j)
			}
			pinSlab[j] = Pin{Cell: c, Index: idx}
			n.Sinks[j] = &pinSlab[j]
		}
	}

	nIn := d.count()
	nl.Inputs = make([]*Net, nIn)
	for i := 0; i < nIn && d.err == nil; i++ {
		if nl.Inputs[i] = d.net(netByID); nl.Inputs[i] == nil {
			return nil, fmt.Errorf("netlist: primary input %d references unknown net", i)
		}
	}
	nOut := d.count()
	nl.Outputs = make([]*Net, nOut)
	for i := 0; i < nOut && d.err == nil; i++ {
		if nl.Outputs[i] = d.net(netByID); nl.Outputs[i] == nil {
			return nil, fmt.Errorf("netlist: primary output %d references unknown net", i)
		}
	}
	nl.ClkNet = d.optNet(netByID)
	nl.RstNet = d.optNet(netByID)
	if d.err != nil {
		return nil, fmt.Errorf("netlist: corrupt blob: %w", d.err)
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("netlist: %d trailing bytes after blob", len(d.data)-d.pos)
	}
	// Structural parse success is not enough for bytes that crossed the
	// network: the blob must also decode to a netlist that satisfies the
	// package invariants (drivers present, sink back-references consistent,
	// group counts matching), or downstream passes would corrupt silently.
	if err := nl.Check(); err != nil {
		return nil, fmt.Errorf("netlist: blob decodes to inconsistent netlist: %w", err)
	}
	return nl, nil
}

// encoder accumulates the blob.
type encoder struct {
	buf []byte
}

func (e *encoder) raw(b []byte) { e.buf = append(e.buf, b...) }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// optID writes id+1 so -1 (nil reference) encodes as 0.
func (e *encoder) optID(id int) { e.uvarint(uint64(id + 1)) }

// decoder walks the blob, latching the first error; every accessor is safe
// to call after a failure and returns a zero value.
type decoder struct {
	data []byte
	pos  int
	err  error
}

var errTruncated = fmt.Errorf("truncated")

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

func (d *decoder) raw(n int) []byte {
	if d.err != nil || d.pos+n > len(d.data) {
		d.fail()
		return nil
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *decoder) byte() byte {
	b := d.raw(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

// count reads a uvarint that will be used as a count or ID: it additionally
// bounds the value by the remaining blob length (every counted item costs at
// least one byte) or by the ID bounds the header declared, so corrupt blobs
// cannot force huge allocations.
func (d *decoder) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.data)) {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.count()
	return string(d.raw(n))
}

func (d *decoder) net(byID []*Net) *Net {
	id := d.count()
	if d.err != nil || id >= len(byID) {
		d.fail()
		return nil
	}
	return byID[id]
}

func (d *decoder) optNet(byID []*Net) *Net {
	v := d.uvarint()
	if d.err != nil || v == 0 {
		return nil
	}
	id := int(v - 1)
	if id >= len(byID) || byID[id] == nil {
		d.fail()
		return nil
	}
	return byID[id]
}

func (d *decoder) cell(byID []*Cell) *Cell {
	id := d.count()
	if d.err != nil || id >= len(byID) {
		d.fail()
		return nil
	}
	return byID[id]
}

func (d *decoder) optCell(byID []*Cell) *Cell {
	v := d.uvarint()
	if d.err != nil || v == 0 {
		return nil
	}
	id := int(v - 1)
	if id >= len(byID) || byID[id] == nil {
		d.fail()
		return nil
	}
	return byID[id]
}
