// Package netlist defines the gate-level netlist produced by elaborating
// Verilog RTL onto a target library, and the editing operations the
// synthesis optimizer uses: cell resizing, buffer insertion, gate
// replacement, and constant sweeping. The netlist is the common currency
// between the Verilog frontend, the optimization passes in internal/synth,
// and the timing engine in internal/sta.
package netlist

import (
	"fmt"
	"sort"

	"repro/internal/arena"
	"repro/internal/intern"
	"repro/internal/liberty"
)

// Net is a single-bit wire. Exactly one driver (a cell output, a top-level
// input port, or a constant) and any number of sinks.
type Net struct {
	ID     int
	Name   string
	Driver *Cell  // nil if driven by a primary input or constant
	Sinks  []*Pin // input pins this net feeds
	PI     bool   // primary input
	PO     bool   // primary output (also listed in Netlist.Outputs)
	Const  bool   // constant net
	Val    bool   // constant value when Const
	IsClk  bool   // net is a clock
	IsRst  bool   // net is an asynchronous reset
}

// Fanout returns the number of sink pins plus one if the net is a primary
// output (the output pad counts as a load).
func (n *Net) Fanout() int {
	fo := len(n.Sinks)
	if n.PO {
		fo++
	}
	return fo
}

// Pin identifies one input pin of a cell.
type Pin struct {
	Cell  *Cell
	Index int // input index within Cell.Inputs
}

// Cell is a library-cell instance.
type Cell struct {
	ID     int
	Name   string
	Ref    *liberty.Cell
	Inputs []*Net // logic inputs (D for flops)
	Output *Net
	Clock  *Net   // sequential only
	Reset  *Net   // DFFR only
	Module string // defining RTL module name (analysis/reporting)
	Group  string // hierarchical optimization group; "" after ungrouping
	Fixed  bool   // dont_touch

	// pos is the cell's index in its netlist's Cells slice, so RemoveCell
	// needs no scan. Invariant: nl.Cells[c.pos] == c for every live cell,
	// kept by the only writers of nl.Cells — addCell (AddCell's body),
	// RemoveCell, Thaw and Decode.
	pos int
}

// IsSeq reports whether the cell is a flip-flop.
func (c *Cell) IsSeq() bool { return c.Ref.Kind.IsSequential() }

// Netlist is a flattened single-clock gate-level design.
type Netlist struct {
	Name    string
	Lib     *liberty.Library
	Cells   []*Cell
	Nets    []*Net
	Inputs  []*Net // primary inputs (excluding clock/reset)
	Outputs []*Net // primary outputs
	ClkNet  *Net   // the clock, nil for pure combinational designs
	RstNet  *Net   // asynchronous reset, may be nil

	nextNet  int
	nextCell int
	// Groups lists hierarchical group names present (for report_hierarchy
	// and for the ungroup command).
	Groups map[string]int // group -> cell count

	// Edit generations, for cached timing invalidation. gen advances on
	// every timing-relevant edit; topoGen advances only on structural edits
	// (connectivity changes), which force a full re-analysis rather than an
	// incremental update. Delay-only edits (SetRef/Resize) advance gen alone.
	gen     uint64
	topoGen uint64

	// Arenas back the nets, cells, and pins created through this netlist's
	// editing API. Pointers handed out are stable (chunks never move), and
	// the chunks live exactly as long as the netlist — the same lifetime
	// per-object allocations had, at a fraction of the GC-visible objects.
	netArena  arena.Arena[Net]
	cellArena arena.Arena[Cell]
	pinArena  arena.Arena[Pin]
	// inChunk is where addCell carves the Inputs of the cells it creates:
	// a chunk that, like the arenas', starts small and doubles (inGrown
	// times so far) up to a cap, so a cell's inputs are not an allocation
	// of their own.
	inChunk []*Net
	inGrown uint

	// Slabs behind the objects of a thawed netlist (see Image.Thaw), one per
	// object kind, kept so the next Thaw into this netlist can overwrite them
	// in place; empty on an elaborated or decoded one. Edits after the thaw
	// draw on the arenas above, which a thaw leaves empty.
	nets      []Net
	cells     []Cell
	pins      []Pin
	sinkSlab  []*Pin // every net's Sinks, carved in Nets order
	inputSlab []*Net // every cell's Inputs, carved in Cells order
}

// The canonical names of generated nets and cells, "n<ID>" and "U<ID>": what
// NewNet and AddCell assign, and what an Image leaves out and Thaw puts back.
var (
	netNames  = intern.NewNamer("n")
	cellNames = intern.NewNamer("U")
)

// newPin carves an input-pin record from the pin arena.
func (nl *Netlist) newPin(c *Cell, idx int) *Pin {
	p := nl.pinArena.New()
	p.Cell = c
	p.Index = idx
	return p
}

// Gen returns the edit generation: it advances on every timing-relevant
// mutation, structural or delay-only.
func (nl *Netlist) Gen() uint64 { return nl.gen }

// TopoGen returns the structural edit generation: it advances only on
// connectivity changes (cell/net insertion, removal, rewiring).
func (nl *Netlist) TopoGen() uint64 { return nl.topoGen }

// noteTopo records a structural edit.
func (nl *Netlist) noteTopo() { nl.gen++; nl.topoGen++ }

// noteDelay records a delay-only edit (a library-reference swap).
func (nl *Netlist) noteDelay() { nl.gen++ }

// NetIDBound returns an exclusive upper bound on Net.ID values, for callers
// keeping slice-indexed per-net state.
func (nl *Netlist) NetIDBound() int { return nl.nextNet }

// CellIDBound returns an exclusive upper bound on Cell.ID values.
func (nl *Netlist) CellIDBound() int { return nl.nextCell }

// SetRef swaps a cell's library reference in place. Unlike Resize it does
// not check kinds; it exists for the optimization passes, which only ever
// swap between drive variants of one kind, and it records the edit as
// delay-only so cached timing can update incrementally.
func (nl *Netlist) SetRef(c *Cell, ref *liberty.Cell) {
	c.Ref = ref
	nl.noteDelay()
}

// New creates an empty netlist bound to a library.
func New(name string, lib *liberty.Library) *Netlist {
	return &Netlist{Name: name, Lib: lib, Groups: make(map[string]int)}
}

// NewNet allocates a net with an auto-generated or given name.
func (nl *Netlist) NewNet(name string) *Net {
	if name == "" {
		name = netNames.Name(nl.nextNet)
	}
	n := nl.netArena.New()
	n.ID = nl.nextNet
	n.Name = name
	nl.nextNet++
	nl.Nets = append(nl.Nets, n)
	nl.noteTopo()
	return n
}

// NewConst returns a constant net of the given value.
func (nl *Netlist) NewConst(val bool) *Net {
	n := nl.NewNet("")
	n.Const = true
	n.Val = val
	return n
}

// AddCell creates a cell instance driving a fresh output net.
// inputs must match the kind's input count.
func (nl *Netlist) AddCell(ref *liberty.Cell, group, module string, inputs ...*Net) (*Cell, error) {
	c, err := nl.addCell(ref, group, module, inputs)
	if err != nil {
		return nil, err
	}
	for i, in := range c.Inputs {
		in.Sinks = append(in.Sinks, nl.newPin(c, i))
	}
	return c, nil
}

// addCell is AddCell without the sink lists: the cell, its output net and
// its inputs, but no pin records on the nets it reads. Elaboration creates
// its cells here, because materialize builds every sink list from the
// finished cell list in one pass anyway.
func (nl *Netlist) addCell(ref *liberty.Cell, group, module string, inputs []*Net) (*Cell, error) {
	want := liberty.KindInputs[ref.Kind]
	if len(inputs) != want {
		return nil, fmt.Errorf("cell %s: %d inputs, want %d", ref.Name, len(inputs), want)
	}
	out := nl.NewNet("")
	c := nl.cellArena.New()
	c.ID = nl.nextCell
	c.Name = cellNames.Name(nl.nextCell)
	c.Ref = ref
	c.Inputs = nl.newInputs(inputs)
	c.Output = out
	c.Module = module
	c.Group = group
	c.pos = len(nl.Cells)
	nl.nextCell++
	out.Driver = c
	nl.Cells = append(nl.Cells, c)
	nl.Groups[group]++
	nl.noteTopo()
	return c, nil
}

// The input chunk's first and largest sizes: 8 inputs, so a run that adds
// a handful of cells to a thawed netlist pays for about what it uses, then
// doubling to the 1 024 the arenas' chunks stop at.
const (
	minInChunkShift = 3
	maxInChunkShift = 10
)

// newInputs copies ins into the input chunk and returns the copy, capped at
// its length so that nothing appended to it runs into a neighbour's.
func (nl *Netlist) newInputs(ins []*Net) []*Net {
	if len(ins) == 0 {
		return nil
	}
	if cap(nl.inChunk)-len(nl.inChunk) < len(ins) {
		shift := minInChunkShift + nl.inGrown
		if shift < maxInChunkShift {
			nl.inGrown++
		} else {
			shift = maxInChunkShift
		}
		nl.inChunk = make([]*Net, 0, 1<<shift)
	}
	lo := len(nl.inChunk)
	nl.inChunk = append(nl.inChunk, ins...)
	return nl.inChunk[lo:len(nl.inChunk):len(nl.inChunk)]
}

// SetInput replaces input pin idx of cell c with net n, updating sink lists.
func (nl *Netlist) SetInput(c *Cell, idx int, n *Net) {
	old := c.Inputs[idx]
	if old != nil {
		old.removeSink(c, idx)
	}
	c.Inputs[idx] = n
	n.Sinks = append(n.Sinks, nl.newPin(c, idx))
	nl.noteTopo()
}

func (n *Net) removeSink(c *Cell, idx int) {
	for i, p := range n.Sinks {
		if p.Cell == c && p.Index == idx {
			n.Sinks[i] = n.Sinks[len(n.Sinks)-1]
			n.Sinks = n.Sinks[:len(n.Sinks)-1]
			return
		}
	}
}

// Resize swaps a cell's library reference for another of the same kind.
func (nl *Netlist) Resize(c *Cell, ref *liberty.Cell) error {
	if ref.Kind != c.Ref.Kind {
		return fmt.Errorf("resize %s: kind %s != %s", c.Name, ref.Kind, c.Ref.Kind)
	}
	c.Ref = ref
	nl.noteDelay()
	return nil
}

// ReplaceCell rewires a cell to a new library reference and input set,
// keeping its output net. Used by constant propagation (gate -> TIE/BUF/INV)
// and logic restructuring.
func (nl *Netlist) ReplaceCell(c *Cell, ref *liberty.Cell, inputs ...*Net) error {
	want := liberty.KindInputs[ref.Kind]
	if len(inputs) != want {
		return fmt.Errorf("replace %s with %s: %d inputs, want %d", c.Name, ref.Name, len(inputs), want)
	}
	for i, in := range c.Inputs {
		if in != nil {
			in.removeSink(c, i)
		}
	}
	c.Inputs = inputs
	for i, in := range inputs {
		in.Sinks = append(in.Sinks, nl.newPin(c, i))
	}
	c.Ref = ref
	if !ref.Kind.IsSequential() {
		c.Clock, c.Reset = nil, nil
	}
	nl.noteTopo()
	return nil
}

// MoveOutput redirects cell c to drive net n instead of its current output.
// The old output net is left driverless; n must be driverless and non-const.
func (nl *Netlist) MoveOutput(c *Cell, n *Net) error {
	if n.Driver != nil || n.Const || n.PI {
		return fmt.Errorf("move output of %s: net %s is not a free target", c.Name, n.Name)
	}
	if c.Output != nil && c.Output.Driver == c {
		c.Output.Driver = nil
	}
	c.Output = n
	n.Driver = c
	nl.noteTopo()
	return nil
}

// RemoveCell deletes a cell, detaching its pins. Its output net keeps
// existing but becomes driverless; callers must rewire sinks first. The last
// cell takes the removed one's place in nl.Cells; a cell that is not (or no
// longer) in nl.Cells leaves the slice untouched.
func (nl *Netlist) RemoveCell(c *Cell) {
	for i, in := range c.Inputs {
		if in != nil {
			in.removeSink(c, i)
		}
	}
	if c.Output != nil && c.Output.Driver == c {
		c.Output.Driver = nil
	}
	nl.Groups[c.Group]--
	nl.noteTopo()
	if c.pos >= len(nl.Cells) || nl.Cells[c.pos] != c {
		return
	}
	last := nl.Cells[len(nl.Cells)-1]
	nl.Cells[c.pos] = last
	last.pos = c.pos
	nl.Cells = nl.Cells[:len(nl.Cells)-1]
}

// ReplaceNet moves every sink of old onto repl (and primary-output status).
func (nl *Netlist) ReplaceNet(old, repl *Net) {
	for _, p := range old.Sinks {
		p.Cell.Inputs[p.Index] = repl
		repl.Sinks = append(repl.Sinks, p)
	}
	old.Sinks = nil
	if old.PO {
		old.PO = false
		repl.PO = true
		for i, o := range nl.Outputs {
			if o == old {
				nl.Outputs[i] = repl
			}
		}
	}
	nl.noteTopo()
}

// Area returns total cell area in um^2.
func (nl *Netlist) Area() float64 {
	var a float64
	for _, c := range nl.Cells {
		a += c.Ref.Area
	}
	return a
}

// Leakage returns total leakage power in nW.
func (nl *Netlist) Leakage() float64 {
	var p float64
	for _, c := range nl.Cells {
		p += c.Ref.Leakage
	}
	return p
}

// SeqCount returns the number of sequential cells.
func (nl *Netlist) SeqCount() int {
	n := 0
	for _, c := range nl.Cells {
		if c.IsSeq() {
			n++
		}
	}
	return n
}

// Ungroup clears hierarchical group boundaries. With prefix == "" all groups
// are flattened; otherwise only groups with the given prefix.
func (nl *Netlist) Ungroup(prefix string) int {
	n := 0
	for _, c := range nl.Cells {
		if c.Group == "" {
			continue
		}
		if prefix == "" || hasPathPrefix(c.Group, prefix) {
			nl.Groups[c.Group]--
			c.Group = ""
			nl.Groups[""]++
			n++
		}
	}
	if n > 0 {
		// Group boundaries gate downstream restructuring; treat flattening
		// as structural so cached timing is rebuilt conservatively.
		nl.noteTopo()
	}
	return n
}

func hasPathPrefix(path, prefix string) bool {
	if len(path) < len(prefix) || path[:len(prefix)] != prefix {
		return false
	}
	return len(path) == len(prefix) || path[len(prefix)] == '/'
}

// GroupNames returns the non-empty group names sorted.
func (nl *Netlist) GroupNames() []string {
	var names []string
	for g, cnt := range nl.Groups {
		if g != "" && cnt > 0 {
			names = append(names, g)
		}
	}
	sort.Strings(names)
	return names
}

// Check validates structural invariants: each net has consistent
// driver/sink bookkeeping, every cell input is connected, and input counts
// match the library. It returns the first violation found.
func (nl *Netlist) Check() error {
	for _, c := range nl.Cells {
		want := liberty.KindInputs[c.Ref.Kind]
		if len(c.Inputs) != want {
			return fmt.Errorf("cell %s: %d inputs, want %d", c.Name, len(c.Inputs), want)
		}
		for i, in := range c.Inputs {
			if in == nil {
				return fmt.Errorf("cell %s input %d unconnected", c.Name, i)
			}
			found := false
			for _, p := range in.Sinks {
				if p.Cell == c && p.Index == i {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("cell %s input %d not in net %s sink list", c.Name, i, in.Name)
			}
		}
		if c.Output == nil {
			return fmt.Errorf("cell %s has no output net", c.Name)
		}
		if c.Output.Driver != c {
			return fmt.Errorf("cell %s output net %s driver mismatch", c.Name, c.Output.Name)
		}
		if c.IsSeq() && c.Clock == nil {
			return fmt.Errorf("sequential cell %s has no clock", c.Name)
		}
	}
	for _, n := range nl.Nets {
		for _, p := range n.Sinks {
			if p.Cell.Inputs[p.Index] != n {
				return fmt.Errorf("net %s sink %s/%d does not point back", n.Name, p.Cell.Name, p.Index)
			}
		}
		if n.Driver == nil && !n.PI && !n.Const && len(n.Sinks) > 0 && !n.IsClk && !n.IsRst {
			return fmt.Errorf("net %s has sinks but no driver", n.Name)
		}
	}
	return nil
}

// Stats summarizes the netlist for reports and analysis features.
type Stats struct {
	Cells     int
	Seq       int
	Comb      int
	Area      float64
	Leakage   float64
	Nets      int
	MaxFanout int
	AvgFanout float64
	ByKind    map[liberty.Kind]int
}

// Summary computes netlist statistics.
func (nl *Netlist) Summary() Stats {
	s := Stats{ByKind: make(map[liberty.Kind]int)}
	s.Cells = len(nl.Cells)
	s.Nets = len(nl.Nets)
	for _, c := range nl.Cells {
		if c.IsSeq() {
			s.Seq++
		} else {
			s.Comb++
		}
		s.Area += c.Ref.Area
		s.Leakage += c.Ref.Leakage
		s.ByKind[c.Ref.Kind]++
	}
	totalFO := 0
	active := 0
	for _, n := range nl.Nets {
		fo := n.Fanout()
		if fo == 0 {
			continue
		}
		active++
		totalFO += fo
		if fo > s.MaxFanout {
			s.MaxFanout = fo
		}
	}
	if active > 0 {
		s.AvgFanout = float64(totalFO) / float64(active)
	}
	return s
}
