package netlist

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"unsafe"
)

// ImageBytes returns the heap bytes im's columns and tables hold, and how many
// more the two dense name columns it does without — one string header a net,
// one a cell — would hold in place of its name exceptions.
func ImageBytes(im *Image) (held, denseNames int) {
	const i32, str = 4, int(unsafe.Sizeof(""))
	ints := len(im.groupCounts) + len(im.netID) + len(im.netDriver) + len(im.sinkOff) + len(im.sinkCell) + len(im.sinkIdx) +
		len(im.cellID) + len(im.cellRef) + len(im.cellModule) + len(im.cellGroup) + len(im.inOff) + len(im.inNet) +
		len(im.cellOut) + len(im.cellClk) + len(im.cellRst) + len(im.inputs) + len(im.outputs)
	exceptions := (i32 + str) * (cap(im.namedNets) + cap(im.namedCells))
	held = int(unsafe.Sizeof(*im)) + i32*ints + len(im.netFlags) + len(im.cellFixed) +
		str*(len(im.groupNames)+len(im.modules)+len(im.groups)) + 8*len(im.refs) + exceptions
	return held, str*(len(im.netID)+len(im.cellID)) - exceptions
}

// DigestImage writes everything im records to w: the edit generations and ID
// bounds, the Groups map in sorted order, the tables, every column, both flag
// columns and the name exceptions. Two images that write the same bytes thaw
// to the same netlist.
func DigestImage(w io.Writer, im *Image) {
	fmt.Fprintf(w, "%s %d %d %d %d\n", im.name, im.nextNet, im.nextCell, im.gen, im.topoGen)
	groups := make([]string, len(im.groupNames))
	for i, g := range im.groupNames {
		groups[i] = fmt.Sprintf("%q=%d", g, im.groupCounts[i])
	}
	sort.Strings(groups)
	fmt.Fprintln(w, groups)
	for _, r := range im.refs {
		fmt.Fprintf(w, "%s ", r.Name)
	}
	fmt.Fprintf(w, "\n%q\n%q\n", im.modules, im.groups)
	for _, col := range im.columns() {
		binary.Write(w, binary.LittleEndian, int32(len(col)))
		binary.Write(w, binary.LittleEndian, col)
	}
	w.Write(im.netFlags)
	binary.Write(w, binary.LittleEndian, im.cellFixed)
	fmt.Fprintf(w, "%q\n%q\n%d %d\n", im.namedNetName, im.namedCellName, im.clk, im.rst)
}
