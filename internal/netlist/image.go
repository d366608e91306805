package netlist

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

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
// An Image is read-only after Freeze or DecodeImage; any number of goroutines
// may Thaw the same one concurrently.
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
// earlier use could have written is zeroed, and the arenas behind the cells
// and nets that edits added are dropped, so nothing stale stays reachable.
// The caller must hold the only reference into the old contents.
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
// an Image and on the wire; setNetFlagBits is its inverse.
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

// The image wire format — how a netlist leaves the process, into the remote
// result tier replicas share. It is the image's own layout: a header (name,
// ID bounds, edit generations), the group counts sorted by name, the
// refs / modules / groups tables (library cells by name), the two byte
// columns, every int32 column as a length and little-endian values, and the
// name exceptions. Counts are uvarints, strings are length-prefixed.
const (
	imageMagic   = "NLIMG"
	imageVersion = 1
)

// column is one int32 column of an image as the wire format sees it: the
// length it must have (-1: any) and the range [lo, hi) its entries lie in.
type column struct {
	c      *[]int32
	n      int
	lo, hi int
}

// columns lists im's int32 columns in wire order. Lengths and ranges follow
// from the columns that set them — netID, cellID, sinkCell, inNet — and from
// the tables.
func (im *Image) columns() []column {
	nNets, nCells := len(im.netID), len(im.cellID)
	return []column{
		{&im.netID, -1, 0, im.nextNet},
		{&im.netDriver, nNets, -1, nCells},
		{&im.sinkOff, nNets + 1, 0, len(im.sinkCell) + 1},
		{&im.sinkCell, -1, 0, nCells},
		{&im.sinkIdx, len(im.sinkCell), 0, math.MaxInt32},
		{&im.cellID, -1, 0, im.nextCell},
		{&im.cellRef, nCells, 0, len(im.refs)},
		{&im.cellModule, nCells, 0, len(im.modules)},
		{&im.cellGroup, nCells, 0, len(im.groups)},
		{&im.inOff, nCells + 1, 0, len(im.inNet) + 1},
		{&im.inNet, -1, 0, nNets},
		{&im.cellOut, nCells, -1, nNets},
		{&im.cellClk, nCells, -1, nNets},
		{&im.cellRst, nCells, -1, nNets},
		{&im.inputs, -1, 0, nNets},
		{&im.outputs, -1, 0, nNets},
		{&im.namedNets, -1, 0, nNets},
		{&im.namedCells, -1, 0, nCells},
	}
}

// Bytes is the size of im's columns — the int32 ones and the per-net and
// per-cell flags — which is nearly all an image keeps: the tables and the
// name exceptions beside them are not counted.
func (im *Image) Bytes() int {
	n := len(im.netFlags) + len(im.cellFixed)
	for _, c := range im.columns() {
		n += 4 * len(*c.c)
	}
	return n
}

// AppendBinary appends im's wire form to b and returns the extended slice.
// The bytes are a function of the image alone: the group counts, the one
// map-ordered part of an image, are written sorted by name.
func (im *Image) AppendBinary(b []byte) []byte {
	e := encoder{buf: append(append(b, imageMagic...), imageVersion)}
	e.str(im.name)
	for _, v := range []uint64{uint64(im.nextNet), uint64(im.nextCell), im.gen, im.topoGen} {
		e.uvarint(v)
	}
	order := make([]int, len(im.groupNames))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return im.groupNames[order[a]] < im.groupNames[order[b]] })
	e.uvarint(uint64(len(order)))
	for _, i := range order {
		e.str(im.groupNames[i])
		e.uvarint(uint64(im.groupCounts[i]))
	}
	e.uvarint(uint64(len(im.refs)))
	for _, r := range im.refs {
		e.str(r.Name)
	}
	e.strs(im.modules)
	e.strs(im.groups)
	fixed := make([]byte, len(im.cellFixed))
	for i, f := range im.cellFixed {
		if f {
			fixed[i] = 1
		}
	}
	e.bytes(im.netFlags)
	e.bytes(fixed)
	for _, c := range im.columns() {
		e.col(*c.c)
	}
	e.col([]int32{im.clk, im.rst})
	e.strs(im.namedNetName)
	e.strs(im.namedCellName)
	return e.buf
}

// DecodeImage reads an image from its wire form, resolving library cells by
// name against lib. The caller pairs a blob with a library of the same
// content (a checkpoint key binds the library fingerprint).
//
// The input is treated as network bytes: anything truncated, corrupt or
// inconsistent is an error, never a panic or an allocation the input's
// length does not pay for. Every count is bounded by the input's length,
// every position is in range, every offset column runs monotonically from 0
// to its list's length, every ID is unique and below its bound, and the
// image, thawed once, must pass Check.
func DecodeImage(data []byte, lib *liberty.Library) (*Image, error) {
	d := decoder{data: data}
	if string(d.raw(len(imageMagic))) != imageMagic {
		return nil, fmt.Errorf("netlist: not an image blob")
	}
	if v := d.raw(1); v == nil || v[0] != imageVersion {
		return nil, fmt.Errorf("netlist: unsupported image version %v", v)
	}
	im := &Image{lib: lib, name: d.str(), nextNet: d.count(), nextCell: d.count(), gen: d.uvarint(), topoGen: d.uvarint()}
	for n := d.count(); n > 0 && d.err == nil; n-- {
		im.groupNames = append(im.groupNames, d.str())
		im.groupCounts = append(im.groupCounts, int32(d.count()))
	}
	for _, name := range d.strs() {
		r := lib.Cell(name)
		if r == nil && d.err == nil {
			return nil, fmt.Errorf("netlist: library %s has no cell %q", lib.Name, name)
		}
		im.refs = append(im.refs, r)
	}
	im.modules, im.groups = d.strs(), d.strs()
	im.netFlags = d.bytes()
	for _, f := range d.bytes() {
		im.cellFixed = append(im.cellFixed, f != 0)
	}
	for _, c := range im.columns() {
		*c.c = d.col()
	}
	ends := d.col()
	im.namedNetName, im.namedCellName = d.strs(), d.strs()
	if d.err != nil {
		return nil, fmt.Errorf("netlist: corrupt image blob: %w", d.err)
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("netlist: %d trailing bytes after image blob", len(data)-d.pos)
	}
	if err := im.validate(ends); err != nil {
		return nil, fmt.Errorf("netlist: inconsistent image blob: %w", err)
	}
	// In-range positions make the image safe to thaw; the netlist must also
	// satisfy the package invariants (drivers present, sink back-references
	// consistent), or downstream passes would corrupt silently.
	if err := im.Thaw(nil).Check(); err != nil {
		return nil, fmt.Errorf("netlist: image blob thaws to an inconsistent netlist: %w", err)
	}
	return im, nil
}

// validate checks a decoded image against everything Thaw indexes with, and
// sets its clock and reset nets from ends.
func (im *Image) validate(ends []int32) error {
	nNets, nCells := len(im.netID), len(im.cellID)
	if len(im.netFlags) != nNets || len(im.cellFixed) != nCells ||
		len(im.namedNetName) != len(im.namedNets) || len(im.namedCellName) != len(im.namedCells) {
		return fmt.Errorf("column lengths disagree")
	}
	for k, c := range append(im.columns(), column{&ends, 2, -1, nNets}) {
		if c.n >= 0 && len(*c.c) != c.n {
			return fmt.Errorf("column %d: %d entries, want %d", k, len(*c.c), c.n)
		}
		for _, p := range *c.c {
			if int(p) < c.lo || int(p) >= c.hi {
				return fmt.Errorf("column %d: entry %d outside [%d, %d)", k, p, c.lo, c.hi)
			}
		}
	}
	im.clk, im.rst = ends[0], ends[1]
	for _, off := range []struct {
		off   []int32
		total int
	}{{im.sinkOff, len(im.sinkCell)}, {im.inOff, len(im.inNet)}} {
		if off.off[0] != 0 || int(off.off[len(off.off)-1]) != off.total {
			return fmt.Errorf("offsets do not run from 0 to %d", off.total)
		}
		for i := 1; i < len(off.off); i++ {
			if off.off[i] < off.off[i-1] {
				return fmt.Errorf("offset %d decreases", i)
			}
		}
	}
	for k, idx := range im.sinkIdx {
		if c := im.sinkCell[k]; idx >= im.inOff[c+1]-im.inOff[c] {
			return fmt.Errorf("sink %d: pin %d of a cell with %d inputs", k, idx, im.inOff[c+1]-im.inOff[c])
		}
	}
	for _, ids := range []struct {
		ids   []int32
		bound int
	}{{im.netID, im.nextNet}, {im.cellID, im.nextCell}} {
		seen := make([]bool, ids.bound)
		for _, id := range ids.ids {
			if seen[id] {
				return fmt.Errorf("ID %d duplicated", id)
			}
			seen[id] = true
		}
	}
	return nil
}

// encoder accumulates a wire form.
type encoder struct {
	buf []byte
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) col(c []int32) {
	e.uvarint(uint64(len(c)))
	for _, v := range c {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v))
	}
}

// decoder walks a wire form, latching the first error; every accessor is
// safe to call after a failure and returns a zero value.
type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) raw(n int) []byte {
	if d.err == nil && n > len(d.data)-d.pos {
		d.err = fmt.Errorf("truncated at byte %d", d.pos)
	}
	if d.err != nil {
		return nil
	}
	d.pos += n
	return d.data[d.pos-n : d.pos]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("bad varint at byte %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// count reads a uvarint that sizes an allocation or bounds an ID, and fails
// past the input's length: every counted item costs at least one byte, so a
// corrupt count cannot force an allocation the input does not pay for.
func (d *decoder) count() int {
	if v := d.uvarint(); v <= uint64(len(d.data)) {
		return int(v)
	}
	d.err = fmt.Errorf("count exceeds the blob's %d bytes", len(d.data))
	return 0
}

func (d *decoder) str() string { return string(d.raw(d.count())) }

func (d *decoder) strs() []string {
	ss := make([]string, d.count())
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

func (d *decoder) bytes() []byte { return slices.Clone(d.raw(d.count())) }

func (d *decoder) col() []int32 {
	n := d.count()
	b := d.raw(4 * n)
	if b == nil {
		return nil
	}
	c := make([]int32, n)
	for i := range c {
		c[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return c
}
