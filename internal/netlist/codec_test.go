package netlist

import (
	"bytes"
	"testing"
)

// TestCodecRoundTrip: a frozen image thaws to the netlist it froze — IDs,
// slice orders, sink orders, generations, ID bounds, group counts and names,
// as the Encode oracle sees them — and the thawed netlist is editable and
// isolated from the original.
func TestCodecRoundTrip(t *testing.T) {
	nl := cloneTestNetlist(t)
	nl.Groups["scratch"] = 0 // survive an empty group entry too
	nl.Cells[0].Name = "u0/renamed"

	cp := Freeze(nl).Thaw(nil)
	if err := cp.Check(); err != nil {
		t.Fatalf("thawed netlist fails invariant check: %v", err)
	}
	if cp.Lib != nl.Lib {
		t.Fatal("thawed netlist does not use the frozen netlist's library")
	}
	if cnt, ok := cp.Groups["scratch"]; !ok || cnt != 0 {
		t.Fatalf("empty group entry lost: Groups[scratch] = %d, %v", cnt, ok)
	}
	if cp.Cells[0].Name != "u0/renamed" {
		t.Fatalf("renamed cell thaws as %q", cp.Cells[0].Name)
	}
	if !bytes.Equal(Encode(cp), Encode(nl)) {
		t.Fatal("image thaws to a different netlist")
	}
	if WriteVerilog(cp) != WriteVerilog(nl) {
		t.Fatalf("structural verilog of thawed netlist differs from original")
	}

	before := WriteVerilog(nl)
	cp.Ungroup("")
	cp.NewNet("scratch_net")
	if WriteVerilog(nl) != before {
		t.Fatalf("mutating the thawed netlist changed the original")
	}
}
