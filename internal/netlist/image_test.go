package netlist_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// The image tests run over every shipped benchmark design in two states:
// freshly elaborated (arena-backed, dense) and after compile_ultra -retime
// plus balance_buffers (removed cells, sparse IDs, driverless nets, cells
// and nets added by edits). netlist.Encode is the oracle for "the same
// netlist": it covers IDs and their bounds, every slice order, the group
// counts and both edit generations.

type imageCase struct {
	name string
	nl   *netlist.Netlist
}

// run executes script on d in a storeless session and returns the design's
// netlist, which the test then owns.
func run(t testing.TB, d *designs.Design, script string) *netlist.Netlist {
	t.Helper()
	sess := synth.NewSession(liberty.Nangate45())
	sess.AddSource(d.FileName, d.Source)
	res, err := sess.RunContext(context.Background(), script)
	if err != nil {
		t.Fatalf("%s: %v", d.Name, err)
	}
	return res.Design.NL
}

func imageCases(t testing.TB) []imageCase {
	t.Helper()
	var cases []imageCase
	for _, d := range designs.Benchmarks() {
		link := fmt.Sprintf("read_verilog %s\ncurrent_design %s\nlink\ncreate_clock -period %.2f clk\n", d.FileName, d.Top, d.Period)
		cases = append(cases,
			imageCase{d.Name + "/elaborated", run(t, d, link)},
			imageCase{d.Name + "/compiled", run(t, d, link+"compile_ultra -retime\nbalance_buffers\n")})
	}
	return append(cases, imageCase{"renamed", renamed(t)})
}

// renamed is a compiled design with names an image cannot regenerate from
// IDs: cells and generated nets renamed — to hierarchical names, to the empty
// name, to the canonical name of a different ID — among the canonical ones.
func renamed(t testing.TB) *netlist.Netlist {
	t.Helper()
	d := designs.RiscV32i()
	nl := run(t, d, fmt.Sprintf("read_verilog %s\ncurrent_design %s\nlink\ncreate_clock -period %.2f clk\ncompile_ultra\n", d.FileName, d.Top, d.Period))
	for i, c := range nl.Cells {
		switch i % 7 {
		case 0:
			c.Name = fmt.Sprintf("core/u_alu/%s_reg", c.Name)
		case 3:
			c.Name = fmt.Sprintf("U%d", c.ID+1)
		}
	}
	nl.Cells[1].Name = ""
	for i, n := range nl.Nets {
		switch i % 5 {
		case 1:
			n.Name = fmt.Sprintf("n%d", n.ID+1)
		case 4:
			n.Name = "core/" + n.Name
		}
	}
	nl.Nets[0].Name = ""
	return nl
}

// mutate edits nl the way a synthesis run does, leaving arena-backed cells
// and nets, regrown lists and moved generations behind.
func mutate(t testing.TB, nl *netlist.Netlist) {
	t.Helper()
	d := &synth.Design{NL: nl, WL: nl.Lib.WireLoad("")}
	d.Cons.Period = 1
	if err := synth.Compile(d, synth.CompileOptions{Ultra: true, Retime: true}); err != nil {
		t.Fatal(err)
	}
	synth.BufferHighFanout(nl, 4)
	nl.NewNet("scratch")
}

func TestImageRoundTrip(t *testing.T) {
	for _, c := range imageCases(t) {
		want := netlist.Encode(c.nl)
		got := netlist.Freeze(c.nl).Thaw(nil)
		if !bytes.Equal(netlist.Encode(got), want) {
			t.Errorf("%s: thawed image encodes differently from the netlist it froze", c.name)
		}
		if err := got.Check(); err != nil {
			t.Errorf("%s: thawed netlist fails Check: %v", c.name, err)
		}
		if !bytes.Equal(netlist.Encode(c.nl), want) {
			t.Errorf("%s: Freeze changed the netlist it read", c.name)
		}
	}
}

// TestThawIntoDirtyWorkspace: one workspace is used for the largest design,
// then the smallest, then mutated by a compile, and then takes every image in
// turn with another compile in between. Each thaw must equal a thaw into new
// storage, whatever the workspace held.
func TestThawIntoDirtyWorkspace(t *testing.T) {
	cases := imageCases(t)
	images := make([]*netlist.Image, len(cases))
	largest, smallest := 0, 0
	for i, c := range cases {
		images[i] = netlist.Freeze(c.nl)
		if len(c.nl.Cells) > len(cases[largest].nl.Cells) {
			largest = i
		}
		if len(c.nl.Cells) < len(cases[smallest].nl.Cells) {
			smallest = i
		}
	}
	ws := images[largest].Thaw(nil)
	ws = images[smallest].Thaw(ws)
	mutate(t, ws)
	for i, im := range images {
		got := im.Thaw(ws)
		if got != ws {
			t.Fatalf("%s: Thaw(into) returned a different netlist", cases[i].name)
		}
		if !bytes.Equal(netlist.Encode(got), netlist.Encode(im.Thaw(nil))) {
			t.Errorf("%s: thaw into a dirty workspace differs from a thaw into new storage", cases[i].name)
		}
		if err := got.Check(); err != nil {
			t.Errorf("%s: thaw into a dirty workspace fails Check: %v", cases[i].name, err)
		}
		mutate(t, ws)
	}
}

// TestThawsAreIndependent: mutating one thawed netlist — in place, through a
// full compile — changes neither the image nor a netlist thawed from it
// earlier.
func TestThawsAreIndependent(t *testing.T) {
	for _, c := range imageCases(t) {
		im := netlist.Freeze(c.nl)
		want := netlist.Encode(c.nl)
		first, other := im.Thaw(nil), im.Thaw(nil)
		mutate(t, first)
		if bytes.Equal(netlist.Encode(first), want) {
			t.Fatalf("%s: the mutation changed nothing; the test proves nothing", c.name)
		}
		if !bytes.Equal(netlist.Encode(other), want) {
			t.Errorf("%s: mutating one thaw changed another", c.name)
		}
		if !bytes.Equal(netlist.Encode(im.Thaw(nil)), want) {
			t.Errorf("%s: mutating a thaw changed what the image thaws to", c.name)
		}
	}
}

// BenchmarkThaw is one checkpoint restore's netlist copy on aes: into new
// storage (what Clone costs after its Freeze) and into the previous thaw's.
func BenchmarkThaw(b *testing.B) {
	d := designs.AES()
	nl := run(b, d, fmt.Sprintf("read_verilog %s\ncurrent_design %s\nlink\ncreate_clock -period 1 clk\n", d.FileName, d.Top))
	im := netlist.Freeze(nl)
	b.Run("freeze", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			netlist.Freeze(nl)
		}
		// What the image holds per cell, and what it held when it stored every
		// name: the canonical "U<ID>" / "n<ID>" ones are regenerated by Thaw.
		held, denseNames := netlist.ImageBytes(im)
		b.ReportMetric(float64(held)/float64(len(nl.Cells)), "imageB/cell")
		b.ReportMetric(float64(held+denseNames)/float64(len(nl.Cells)), "imageB/cell-with-names")
	})
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			im.Thaw(nil)
		}
	})
	b.Run("recycled", func(b *testing.B) {
		ws := im.Thaw(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			im.Thaw(ws)
		}
	})
}
