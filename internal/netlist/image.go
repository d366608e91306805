package netlist

import (
	"slices"

	"repro/internal/arena"
	"repro/internal/liberty"
)

// Image is an immutable snapshot of a netlist, laid out for two jobs the
// pointer graph is bad at: being kept (an elaboration checkpoint lives as
// long as its store) and being copied back out on every restore.
//
// Every reference is a position — a cell's index in Cells, a net's index in
// Nets — held in int32 columns with offset arrays for the variable-length
// lists (each cell's inputs, each net's sinks). Library references, module
// and group names are small tables the per-cell columns index into. Those
// tables and the name exceptions are the only pointer-bearing data, so a kept
// image costs the garbage collector a few slices to mark where the netlist
// it froze cost about twenty pointers a cell, and Thaw turns a position into
// a pointer by indexing the slab it is filling: there are no ID→pointer
// tables to build.
//
// Names are not stored where they can be regenerated. Every cell and most
// nets carry the canonical name of their ID ("U<ID>", "n<ID>" — what AddCell
// and NewNet assign), which Thaw takes from the shared namers; an image keeps
// only the exceptions (port nets, a renamed cell), as sorted positions beside
// their names. That is two string headers a cell — about a third of the
// image — that no image holds.
//
// An Image is read-only after Freeze; any number of goroutines may Thaw the
// same one concurrently.
type Image struct {
	name              string
	lib               *liberty.Library
	nextNet, nextCell int
	gen, topoGen      uint64

	groupNames  []string // the Groups map, keys in no particular order
	groupCounts []int32

	refs    []*liberty.Cell // tables indexed by cellRef / cellModule / cellGroup
	modules []string
	groups  []string

	// Per net, in Nets order. sinkOff has one more entry than there are nets;
	// net i's sinks are sinkCell/sinkIdx[sinkOff[i]:sinkOff[i+1]].
	netID     []int32
	netFlags  []byte  // netFlagBits layout
	netDriver []int32 // cell position, -1 = none
	sinkOff   []int32
	sinkCell  []int32 // cell position
	sinkIdx   []int32 // Pin.Index

	// Per cell, in Cells order. inOff has one more entry than there are cells;
	// cell i's inputs are inNet[inOff[i]:inOff[i+1]].
	cellID     []int32
	cellRef    []int32
	cellModule []int32
	cellGroup  []int32
	cellFixed  []bool
	inOff      []int32
	inNet      []int32 // net position, -1 = unconnected
	cellOut    []int32 // net positions, -1 = none
	cellClk    []int32
	cellRst    []int32

	inputs, outputs []int32 // net positions
	clk, rst        int32   // net positions, -1 = none

	// The nets and cells whose name is not the canonical one of their ID:
	// positions in increasing order, and the names they carry.
	namedNets, namedCells       []int32
	namedNetName, namedCellName []string
}

// Freeze snapshots nl. It only reads nl, so any number of goroutines may
// freeze the same (otherwise unmutated) netlist concurrently, and it keeps
// nothing but the image: the lookup tables it builds are garbage on return.
//
// A reference to a cell or net that is not in nl.Cells / nl.Nets — which
// Check would reject on any path that matters — freezes as "none".
func Freeze(nl *Netlist) *Image {
	im := &Image{
		name: nl.Name, lib: nl.Lib,
		nextNet: nl.nextNet, nextCell: nl.nextCell,
		gen: nl.gen, topoGen: nl.topoGen,
		groupNames:  make([]string, 0, len(nl.Groups)),
		groupCounts: make([]int32, 0, len(nl.Groups)),
	}
	for g, cnt := range nl.Groups {
		im.groupNames = append(im.groupNames, g)
		im.groupCounts = append(im.groupCounts, int32(cnt))
	}

	nNets, nCells := len(nl.Nets), len(nl.Cells)
	totalSinks, totalInputs := 0, 0
	for _, n := range nl.Nets {
		totalSinks += len(n.Sinks)
	}
	for _, c := range nl.Cells {
		totalInputs += len(c.Inputs)
	}

	// All position columns come out of one pointer-free allocation.
	slab := make([]int32, 3*nNets+1+2*totalSinks+8*nCells+1+totalInputs+len(nl.Inputs)+len(nl.Outputs))
	carve := func(n int) []int32 {
		s := slab[:n:n]
		slab = slab[n:]
		return s
	}

	// Net positions by ID (IDs are sparse but bounded); cells carry theirs.
	netPos := make([]int32, nl.nextNet)
	for i := range netPos {
		netPos[i] = -1
	}
	for i, n := range nl.Nets {
		netPos[n.ID] = int32(i)
	}
	npos := func(n *Net) int32 {
		if n == nil {
			return -1
		}
		return netPos[n.ID]
	}
	cpos := func(c *Cell) int32 {
		if c == nil || c.pos >= nCells || nl.Cells[c.pos] != c {
			return -1
		}
		return int32(c.pos)
	}

	im.netID = carve(nNets)
	im.netFlags = make([]byte, nNets)
	im.netDriver = carve(nNets)
	im.sinkOff = carve(nNets + 1)
	im.sinkCell = carve(totalSinks)
	im.sinkIdx = carve(totalSinks)
	si := int32(0)
	for i, n := range nl.Nets {
		im.netID[i] = int32(n.ID)
		if n.Name != netNames.Name(n.ID) {
			im.namedNets = append(im.namedNets, int32(i))
			im.namedNetName = append(im.namedNetName, n.Name)
		}
		im.netFlags[i] = netFlagBits(n)
		im.netDriver[i] = cpos(n.Driver)
		im.sinkOff[i] = si
		for _, p := range n.Sinks {
			im.sinkCell[si] = cpos(p.Cell)
			im.sinkIdx[si] = int32(p.Index)
			si++
		}
	}
	im.sinkOff[nNets] = si

	refIdx := make(map[*liberty.Cell]int32)
	modIdx := make(map[string]int32)
	groupIdx := make(map[string]int32)
	im.cellID = carve(nCells)
	im.cellRef = carve(nCells)
	im.cellModule = carve(nCells)
	im.cellGroup = carve(nCells)
	im.cellFixed = make([]bool, nCells)
	im.inOff = carve(nCells + 1)
	im.inNet = carve(totalInputs)
	im.cellOut = carve(nCells)
	im.cellClk = carve(nCells)
	im.cellRst = carve(nCells)
	ii := int32(0)
	for i, c := range nl.Cells {
		im.cellID[i] = int32(c.ID)
		if c.Name != cellNames.Name(c.ID) {
			im.namedCells = append(im.namedCells, int32(i))
			im.namedCellName = append(im.namedCellName, c.Name)
		}
		im.cellRef[i] = tableIndex(&im.refs, refIdx, c.Ref)
		im.cellModule[i] = tableIndex(&im.modules, modIdx, c.Module)
		im.cellGroup[i] = tableIndex(&im.groups, groupIdx, c.Group)
		im.cellFixed[i] = c.Fixed
		im.inOff[i] = ii
		for _, in := range c.Inputs {
			im.inNet[ii] = npos(in)
			ii++
		}
		im.cellOut[i] = npos(c.Output)
		im.cellClk[i] = npos(c.Clock)
		im.cellRst[i] = npos(c.Reset)
	}
	im.inOff[nCells] = ii
	// An image is kept for as long as its store: give back what append
	// over-allocated for the exceptions (nothing, when there are none).
	im.namedNets, im.namedNetName = slices.Clone(im.namedNets), slices.Clone(im.namedNetName)
	im.namedCells, im.namedCellName = slices.Clone(im.namedCells), slices.Clone(im.namedCellName)

	im.inputs = carve(len(nl.Inputs))
	for i, n := range nl.Inputs {
		im.inputs[i] = npos(n)
	}
	im.outputs = carve(len(nl.Outputs))
	for i, n := range nl.Outputs {
		im.outputs[i] = npos(n)
	}
	im.clk, im.rst = npos(nl.ClkNet), npos(nl.RstNet)
	return im
}

// tableIndex returns v's index in *table, appending it on first sight.
func tableIndex[T comparable](table *[]T, idx map[T]int32, v T) int32 {
	i, ok := idx[v]
	if !ok {
		i = int32(len(*table))
		*table = append(*table, v)
		idx[v] = i
	}
	return i
}

// Thaw rebuilds the frozen netlist — the exact copy Clone documents: IDs and
// their bounds, every slice order, the edit generations — and returns it.
//
// With into == nil the netlist is new. Otherwise it is built inside into's
// storage and into is returned: the object slabs of an earlier Thaw, the
// Cells/Nets/Inputs/Outputs slices and the Groups map are overwritten in
// place, reallocated (to the exact size) only when too small. Whatever into
// held before is gone afterwards, whatever state an aborted run left it in:
// every slot of the new netlist is assigned, every slot past it that an
// earlier use could have written is zeroed, and the arenas and the input
// chunk behind the cells and nets that edits added are dropped, so nothing
// stale stays reachable. The caller must hold the only reference into the old
// contents.
func (im *Image) Thaw(into *Netlist) *Netlist {
	nl := into
	if nl == nil {
		nl = &Netlist{}
	}
	nl.Name, nl.Lib = im.name, im.lib
	nl.nextNet, nl.nextCell = im.nextNet, im.nextCell
	nl.gen, nl.topoGen = im.gen, im.topoGen
	if nl.Groups == nil {
		nl.Groups = make(map[string]int, len(im.groupNames))
	} else {
		clear(nl.Groups)
	}
	for i, g := range im.groupNames {
		nl.Groups[g] = int(im.groupCounts[i])
	}
	nl.netArena = arena.Arena[Net]{}
	nl.cellArena = arena.Arena[Cell]{}
	nl.pinArena = arena.Arena[Pin]{}
	nl.inChunk, nl.inGrown = nil, 0

	// Only Thaw writes the slabs, so their stale extent is their length;
	// edits append to and truncate the four lists, so theirs is the capacity.
	nNets, nCells := len(im.netID), len(im.cellID)
	nets := reuse(nl.nets, nNets, len(nl.nets))
	cells := reuse(nl.cells, nCells, len(nl.cells))
	pins := reuse(nl.pins, len(im.sinkCell), len(nl.pins))
	sinks := reuse(nl.sinkSlab, len(im.sinkCell), len(nl.sinkSlab))
	ins := reuse(nl.inputSlab, len(im.inNet), len(nl.inputSlab))
	nl.nets, nl.cells, nl.pins, nl.sinkSlab, nl.inputSlab = nets, cells, pins, sinks, ins
	nl.Nets = reuse(nl.Nets, nNets, cap(nl.Nets))
	nl.Cells = reuse(nl.Cells, nCells, cap(nl.Cells))
	nl.Inputs = reuse(nl.Inputs, len(im.inputs), cap(nl.Inputs))
	nl.Outputs = reuse(nl.Outputs, len(im.outputs), cap(nl.Outputs))

	netAt := func(p int32) *Net {
		if p < 0 {
			return nil
		}
		return &nets[p]
	}
	cellAt := func(p int32) *Cell {
		if p < 0 {
			return nil
		}
		return &cells[p]
	}

	for i := range nets {
		n := &nets[i]
		*n = Net{ID: int(im.netID[i]), Name: netNames.Name(int(im.netID[i])), Driver: cellAt(im.netDriver[i])}
		setNetFlagBits(n, im.netFlags[i])
		if lo, hi := im.sinkOff[i], im.sinkOff[i+1]; lo < hi {
			n.Sinks = sinks[lo:hi:hi]
			for k := lo; k < hi; k++ {
				pins[k] = Pin{Cell: cellAt(im.sinkCell[k]), Index: int(im.sinkIdx[k])}
				sinks[k] = &pins[k]
			}
		}
		nl.Nets[i] = n
	}
	for i := range cells {
		lo, hi := im.inOff[i], im.inOff[i+1]
		for k := lo; k < hi; k++ {
			ins[k] = netAt(im.inNet[k])
		}
		c := &cells[i]
		*c = Cell{
			ID: int(im.cellID[i]), Name: cellNames.Name(int(im.cellID[i])), Ref: im.refs[im.cellRef[i]],
			Inputs: ins[lo:hi:hi],
			Output: netAt(im.cellOut[i]), Clock: netAt(im.cellClk[i]), Reset: netAt(im.cellRst[i]),
			Module: im.modules[im.cellModule[i]], Group: im.groups[im.cellGroup[i]],
			Fixed: im.cellFixed[i],
			pos:   i,
		}
		nl.Cells[i] = c
	}
	for k, p := range im.namedNets {
		nets[p].Name = im.namedNetName[k]
	}
	for k, p := range im.namedCells {
		cells[p].Name = im.namedCellName[k]
	}
	for i, p := range im.inputs {
		nl.Inputs[i] = netAt(p)
	}
	for i, p := range im.outputs {
		nl.Outputs[i] = netAt(p)
	}
	nl.ClkNet, nl.RstNet = netAt(im.clk), netAt(im.rst)
	return nl
}

// reuse returns s with length n for the caller to overwrite: s's own array,
// with s[n:dirty] zeroed, when it is large enough, an exact-size new one
// otherwise. dirty is how far earlier uses may have written.
func reuse[T any](s []T, n, dirty int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	if dirty > n {
		clear(s[n:dirty])
	}
	return s[:n]
}

// netFlagBits packs a net's six booleans into one byte, the form they take in
// an Image and in Encode; setNetFlagBits is its inverse.
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

// columns lists im's int32 columns.
func (im *Image) columns() [][]int32 {
	return [][]int32{
		im.netID, im.netDriver, im.sinkOff, im.sinkCell, im.sinkIdx,
		im.cellID, im.cellRef, im.cellModule, im.cellGroup,
		im.inOff, im.inNet, im.cellOut, im.cellClk, im.cellRst,
		im.inputs, im.outputs, im.namedNets, im.namedCells,
	}
}

// Bytes is the size of im's columns — the int32 ones and the per-net and
// per-cell flags — which is nearly all an image keeps: the tables and the
// name exceptions beside them are not counted.
func (im *Image) Bytes() int {
	n := len(im.netFlags) + len(im.cellFixed)
	for _, c := range im.columns() {
		n += 4 * len(c)
	}
	return n
}
