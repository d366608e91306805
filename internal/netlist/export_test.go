package netlist

import "unsafe"

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
