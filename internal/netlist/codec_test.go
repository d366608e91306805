package netlist

import (
	"bytes"
	"testing"

	"repro/internal/liberty"
)

// wire is nl's image in its wire form.
func wire(nl *Netlist) []byte { return Freeze(nl).AppendBinary(nil) }

// TestCodecRoundTrip: an image decoded from its wire form thaws to the
// netlist it froze — IDs, slice orders, sink orders, generations, ID bounds,
// group counts and names, as the Encode oracle sees them — and the thawed
// netlist is editable and isolated from the original.
func TestCodecRoundTrip(t *testing.T) {
	nl := cloneTestNetlist(t)
	nl.Groups["scratch"] = 0 // survive an empty group entry too
	nl.Cells[0].Name = "u0/renamed"

	im, err := DecodeImage(wire(nl), nl.Lib)
	if err != nil {
		t.Fatalf("DecodeImage: %v", err)
	}
	cp := im.Thaw(nil)
	if err := cp.Check(); err != nil {
		t.Fatalf("decoded netlist fails invariant check: %v", err)
	}
	if cp.Lib != nl.Lib {
		t.Fatal("decoded netlist does not use the decoder's library")
	}
	if !bytes.Equal(Encode(cp), Encode(nl)) {
		t.Fatal("decoded image thaws to a different netlist")
	}
	if WriteVerilog(cp) != WriteVerilog(nl) {
		t.Fatalf("structural verilog of decoded netlist differs from original")
	}

	before := WriteVerilog(nl)
	cp.Ungroup("")
	cp.NewNet("scratch_net")
	if WriteVerilog(nl) != before {
		t.Fatalf("mutating the decoded netlist changed the original")
	}
}

// TestCodecDeterministic: the same netlist always encodes to the same bytes,
// whatever order its Groups map iterates in, and a decode→re-encode round
// trip is byte-identical. This is what makes checkpoint blobs
// content-addressable across replicas.
func TestCodecDeterministic(t *testing.T) {
	nl := cloneTestNetlist(t)
	for _, g := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		nl.Groups[g] = len(g)
	}
	b1 := wire(nl)
	for i := 0; i < 8; i++ {
		if !bytes.Equal(wire(nl), b1) {
			t.Fatalf("two encodes of the same netlist differ")
		}
	}
	im, err := DecodeImage(b1, nl.Lib)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(im.AppendBinary(nil), b1) {
		t.Fatalf("re-encode after decode is not byte-identical")
	}
	if !bytes.Equal(wire(nl.Clone()), b1) {
		t.Fatalf("encode of a clone differs from encode of the original")
	}
	if prefix := []byte("prefix"); !bytes.Equal(Freeze(nl).AppendBinary(prefix)[len(prefix):], b1) {
		t.Fatalf("AppendBinary does not append")
	}
}

// TestCodecRejectsCorruption: no prefix truncation, byte flip, or trailing
// garbage may panic or decode into an image whose thaw fails Check.
func TestCodecRejectsCorruption(t *testing.T) {
	nl := cloneTestNetlist(t)
	blob := wire(nl)

	for n := 0; n < len(blob); n++ {
		if _, err := DecodeImage(blob[:n], nl.Lib); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	if _, err := DecodeImage(append(append([]byte{}, blob...), 0xFF), nl.Lib); err == nil {
		t.Fatalf("trailing byte decoded successfully")
	}
	for i := 0; i < len(blob); i++ {
		mut := append([]byte{}, blob...)
		mut[i] ^= 0x41
		im, err := DecodeImage(mut, nl.Lib)
		if err != nil {
			continue
		}
		// A flip in a name or flag byte can decode; it must still thaw to a
		// structurally sound netlist, never a half-built one.
		if err := im.Thaw(nil).Check(); err != nil {
			t.Fatalf("flip at byte %d decoded into inconsistent netlist: %v", i, err)
		}
	}
}

// TestCodecUnknownLibraryCell: a blob referencing a cell the decoder's
// library does not have is an error, not a nil Ref.
func TestCodecUnknownLibraryCell(t *testing.T) {
	nl := cloneTestNetlist(t)
	victim := nl.Cells[0].Ref.Name
	blob := bytes.Replace(wire(nl), []byte(victim), []byte("ZZZZ"+victim[4:]), 1)
	if _, err := DecodeImage(blob, liberty.Nangate45()); err == nil {
		t.Fatalf("unknown library cell decoded successfully")
	}
}

// FuzzDecode feeds arbitrary bytes to DecodeImage, the one decoder of a
// netlist at rest. Whatever decodes must thaw to a netlist that passes Check;
// nothing may panic. The seeds, also checked in under testdata/fuzz, are a
// real blob, a truncation of it and the bare magic.
func FuzzDecode(f *testing.F) {
	nl := cloneTestNetlist(f)
	blob := wire(nl)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(imageMagic))
	f.Add([]byte{})
	lib := nl.Lib
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := DecodeImage(data, lib)
		if err != nil {
			return
		}
		if err := im.Thaw(nil).Check(); err != nil {
			t.Fatalf("decoded image thaws to an inconsistent netlist: %v", err)
		}
	})
}
