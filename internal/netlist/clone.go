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
// It is a Freeze followed by a Thaw into new storage — the one deep-copy
// routine the package has, so this contract is the Image's too. Code that
// copies one netlist many times (the checkpoint store) keeps the Image and
// thaws it instead.
//
// Clone only reads the receiver, so any number of goroutines may clone the
// same (otherwise unmutated) netlist concurrently.
func (nl *Netlist) Clone() *Netlist { return Freeze(nl).Thaw(nil) }
