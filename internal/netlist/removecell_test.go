package netlist

import (
	"math/rand"
	"testing"

	"repro/internal/liberty"
)

// refRemove is the order contract of RemoveCell: the scan-and-swap it was
// before cells carried their position, kept here as the reference. Cell order
// decides pass order and so every QoR, which is why the order, not just the
// set, has to match.
func refRemove(ids []int, id int) []int {
	for i, x := range ids {
		if x == id {
			ids[i] = ids[len(ids)-1]
			return ids[:len(ids)-1]
		}
	}
	return ids
}

// randomAddRemove applies steps seeded add/remove edits to nl and the same
// edits to the reference order want (cell IDs), and returns the reference.
// Every cell reads primary inputs only, so any cell can go without leaving a
// driverless net behind and Check holds throughout.
func randomAddRemove(t *testing.T, nl *Netlist, want []int, rng *rand.Rand, steps int) []int {
	t.Helper()
	kinds := []string{"INV_X1", "AND2_X1", "XOR2_X1", "NAND3_X1"}
	for s := 0; s < steps; s++ {
		if len(nl.Cells) == 0 || rng.Intn(5) < 3 {
			ref := nl.Lib.Cell(kinds[rng.Intn(len(kinds))])
			ins := make([]*Net, liberty.KindInputs[ref.Kind])
			for j := range ins {
				ins[j] = nl.Inputs[rng.Intn(len(nl.Inputs))]
			}
			c, err := nl.AddCell(ref, "g", "m", ins...)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, c.ID)
			continue
		}
		c := nl.Cells[rng.Intn(len(nl.Cells))]
		nl.RemoveCell(c)
		want = refRemove(want, c.ID)
	}
	return want
}

func checkCellOrder(t *testing.T, what string, nl *Netlist, want []int) {
	t.Helper()
	if len(nl.Cells) != len(want) {
		t.Fatalf("%s: %d cells, reference has %d", what, len(nl.Cells), len(want))
	}
	for i, c := range nl.Cells {
		if c.ID != want[i] {
			t.Fatalf("%s: Cells[%d] is cell %d, reference has %d", what, i, c.ID, want[i])
		}
		if c.pos != i {
			t.Fatalf("%s: Cells[%d].pos = %d", what, i, c.pos)
		}
	}
	if err := nl.Check(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

func TestRemoveCellKeepsScanAndSwapOrder(t *testing.T) {
	lib := liberty.Nangate45()
	nl := New("t", lib)
	for i := 0; i < 3; i++ {
		in := nl.NewNet("")
		in.PI = true
		nl.Inputs = append(nl.Inputs, in)
	}
	want := randomAddRemove(t, nl, nil, rand.New(rand.NewSource(1)), 500)
	checkCellOrder(t, "original", nl, want)

	// A copy of a netlist that already had removals carries the order and
	// the positions over, and keeps both under further edits.
	for what, cp := range map[string]*Netlist{"clone": nl.Clone(), "freeze/thaw round-trip": Freeze(nl).Thaw(nil)} {
		checkCellOrder(t, what, cp, want)
		w := randomAddRemove(t, cp, append([]int(nil), want...), rand.New(rand.NewSource(2)), 500)
		checkCellOrder(t, what+" after edits", cp, w)
	}
	checkCellOrder(t, "original after its copies were edited", nl, want)
}

func TestRemoveCellIgnoresAbsentCell(t *testing.T) {
	nl, inv, and := buildChain(t)
	_, foreign, _ := buildChain(t)
	nl.ReplaceNet(inv.Output, inv.Inputs[0])
	nl.RemoveCell(inv)
	for what, c := range map[string]*Cell{"removed twice": inv, "cell of another netlist": foreign} {
		nl.RemoveCell(c)
		if len(nl.Cells) != 1 || nl.Cells[0] != and || and.pos != 0 {
			t.Errorf("%s: Cells = %v", what, nl.Cells)
		}
	}
}
