package synth

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/verilog"
)

func elab(t *testing.T, src, top string) *netlist.Netlist {
	t.Helper()
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	nl, err := netlist.Elaborate(f, top, nil, liberty.Nangate45())
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return nl
}

func cons(period float64) sta.Constraints { return sta.Constraints{Period: period} }

func TestSweepRemovesBuffersAndInvPairs(t *testing.T) {
	lib := liberty.Nangate45()
	nl := netlist.New("t", lib)
	in := nl.NewNet("in")
	in.PI = true
	nl.Inputs = append(nl.Inputs, in)
	b1, _ := nl.AddCell(lib.Cell("BUF_X1"), "", "t", in)
	i1, _ := nl.AddCell(lib.Cell("INV_X1"), "", "t", b1.Output)
	i2, _ := nl.AddCell(lib.Cell("INV_X1"), "", "t", i1.Output)
	and, _ := nl.AddCell(lib.Cell("AND2_X1"), "", "t", i2.Output, in)
	and.Output.PO = true
	nl.Outputs = append(nl.Outputs, and.Output)
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
	removed := Sweep(nl)
	if removed < 3 {
		t.Errorf("Sweep removed %d, want >= 3 (buf + inv pair)", removed)
	}
	if err := nl.Check(); err != nil {
		t.Fatalf("netlist broken after sweep: %v", err)
	}
	// Only the AND should remain, now fed directly by in on both pins.
	if len(nl.Cells) != 1 || nl.Cells[0] != and {
		t.Fatalf("cells after sweep = %d, want just the AND", len(nl.Cells))
	}
	if and.Inputs[0] != in || and.Inputs[1] != in {
		t.Error("AND inputs not rewired to the primary input")
	}
}

func TestSweepConstProp(t *testing.T) {
	// AND(x, 0) -> TIE0; OR(x, 1) -> TIE1; XOR(x, 1) -> INV(x).
	lib := liberty.Nangate45()
	for _, tc := range []struct {
		kind string
		val  bool
		want liberty.Kind
	}{
		{"AND2_X1", false, liberty.KindTie0},
		{"OR2_X1", true, liberty.KindTie1},
		{"XOR2_X1", true, liberty.KindInv},
		{"NAND2_X1", false, liberty.KindTie1},
		{"NOR2_X1", true, liberty.KindTie0},
	} {
		nl := netlist.New("t", lib)
		in := nl.NewNet("in")
		in.PI = true
		nl.Inputs = append(nl.Inputs, in)
		cst := nl.NewConst(tc.val)
		g, err := nl.AddCell(lib.Cell(tc.kind), "", "t", in, cst)
		if err != nil {
			t.Fatal(err)
		}
		g.Output.PO = true
		nl.Outputs = append(nl.Outputs, g.Output)
		Sweep(nl)
		if err := nl.Check(); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if g.Ref.Kind != tc.want {
			t.Errorf("%s with const %v -> %s, want %s", tc.kind, tc.val, g.Ref.Kind, tc.want)
		}
	}
}

func TestSweepRespectsGroupBoundary(t *testing.T) {
	// INV pair split across two groups must survive until ungrouped.
	lib := liberty.Nangate45()
	build := func() (*netlist.Netlist, *netlist.Cell, *netlist.Cell) {
		nl := netlist.New("t", lib)
		in := nl.NewNet("in")
		in.PI = true
		nl.Inputs = append(nl.Inputs, in)
		i1, _ := nl.AddCell(lib.Cell("INV_X1"), "blk_a", "a", in)
		i2, _ := nl.AddCell(lib.Cell("INV_X1"), "blk_b", "b", i1.Output)
		and, _ := nl.AddCell(lib.Cell("AND2_X1"), "blk_b", "b", i2.Output, in)
		and.Output.PO = true
		nl.Outputs = append(nl.Outputs, and.Output)
		return nl, i1, i2
	}
	nl, _, _ := build()
	Sweep(nl)
	if len(nl.Cells) != 3 {
		t.Errorf("grouped inv pair should survive sweep, cells = %d", len(nl.Cells))
	}
	nl2, _, _ := build()
	nl2.Ungroup("")
	Sweep(nl2)
	if len(nl2.Cells) != 1 {
		t.Errorf("ungrouped inv pair should be swept, cells = %d", len(nl2.Cells))
	}
}

func TestRestructureMergesGateInv(t *testing.T) {
	nl := elab(t, `
module r(input a, input b, output y);
    assign y = ~(a & b);
endmodule`, "r")
	// Elaboration builds AND2 + INV; restructure should merge to NAND2.
	Restructure(nl)
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
	s := nl.Summary()
	if s.ByKind[liberty.KindNand2] != 1 || s.ByKind[liberty.KindAnd2] != 0 {
		t.Errorf("restructure should yield one NAND2, got %v", s.ByKind)
	}
}

func TestBalanceTreesReducesDepth(t *testing.T) {
	// A 16-term AND chain parsed left-associatively has depth 15.
	var terms []string
	for i := 0; i < 16; i++ {
		terms = append(terms, fmt.Sprintf("a[%d]", i))
	}
	src := fmt.Sprintf(`
module chain(input clk, input [15:0] a, output y);
    reg y;
    always @(posedge clk) y <= %s;
endmodule`, strings.Join(terms, " & "))
	nl := elab(t, src, "chain")
	wl := nl.Lib.WireLoad("5K_heavy_1k")
	before, err := sta.Analyze(nl, wl, cons(3))
	if err != nil {
		t.Fatal(err)
	}
	n := BalanceTrees(nl)
	if n == 0 {
		t.Fatal("BalanceTrees found nothing to balance")
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
	after, err := sta.Analyze(nl, wl, cons(3))
	if err != nil {
		t.Fatal(err)
	}
	if after.CPS() <= before.CPS() {
		t.Errorf("balancing should improve CPS: before %.4f after %.4f", before.CPS(), after.CPS())
	}
}

func TestSizeForTimingImprovesSlack(t *testing.T) {
	nl := elab(t, `
module s(input clk, input [31:0] a, input [31:0] b, output [31:0] q);
    reg [31:0] q;
    always @(posedge clk) q <= a + b;
endmodule`, "s")
	wl := nl.Lib.WireLoad("5K_heavy_1k")
	before, _ := sta.Analyze(nl, wl, cons(2))
	if before.WNS() >= 0 {
		t.Skip("design unexpectedly meets timing before sizing")
	}
	n := SizeForTiming(nl, wl, cons(2), 0, 12)
	if n == 0 {
		t.Fatal("sizing made no changes")
	}
	after, _ := sta.Analyze(nl, wl, cons(2))
	if after.CPS() <= before.CPS() {
		t.Errorf("sizing should improve CPS: before %.4f after %.4f", before.CPS(), after.CPS())
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAreaRecoveryShrinksWithoutViolating(t *testing.T) {
	nl := elab(t, `
module a(input clk, input [15:0] x, input [15:0] y, output [15:0] q);
    reg [15:0] q;
    always @(posedge clk) q <= x ^ y;
endmodule`, "a")
	wl := nl.Lib.WireLoad("5K_heavy_1k")
	// Upsize everything first so there is something to recover.
	for _, c := range nl.Cells {
		if up := nl.Lib.Upsize(c.Ref); up != nil {
			c.Ref = up
		}
	}
	areaBefore := nl.Area()
	n := AreaRecovery(nl, wl, cons(5), 0.2)
	if n == 0 {
		t.Fatal("area recovery made no changes")
	}
	if nl.Area() >= areaBefore {
		t.Errorf("area should shrink: %.2f -> %.2f", areaBefore, nl.Area())
	}
	tm, _ := sta.Analyze(nl, wl, cons(5))
	if tm.WNS() < 0 {
		t.Errorf("area recovery created violations: WNS %.4f", tm.WNS())
	}
}

func TestBufferHighFanout(t *testing.T) {
	// One source driving 64 loads.
	lib := liberty.Nangate45()
	nl := netlist.New("fo", lib)
	in := nl.NewNet("in")
	in.PI = true
	nl.Inputs = append(nl.Inputs, in)
	src, _ := nl.AddCell(lib.Cell("INV_X1"), "", "fo", in)
	for i := 0; i < 64; i++ {
		sink, _ := nl.AddCell(lib.Cell("INV_X1"), "", "fo", src.Output)
		sink.Output.PO = true
		nl.Outputs = append(nl.Outputs, sink.Output)
	}
	wl := lib.WireLoad("5K_heavy_1k")
	before, _ := sta.Analyze(nl, wl, cons(2))
	n := BufferHighFanout(nl, 8)
	if n == 0 {
		t.Fatal("no buffers inserted")
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
	after, _ := sta.Analyze(nl, wl, cons(2))
	if after.CPS() <= before.CPS() {
		t.Errorf("buffering should improve CPS: before %.4f after %.4f", before.CPS(), after.CPS())
	}
	for _, net := range nl.Nets {
		if net.IsClk || net.IsRst || net.Const {
			continue
		}
		if len(net.Sinks) > 8 {
			t.Errorf("net %s still has fanout %d > 8", net.Name, len(net.Sinks))
		}
	}
}

// unbalancedPipeSrc has a deep first stage (32-bit add + xor mixing) and a
// trivial second stage — the register-imbalance scenario retiming fixes.
const unbalancedPipeSrc = `
module unb(input clk, input [15:0] a, input [15:0] b, output [15:0] q);
    reg [15:0] r1, q;
    wire [15:0] deep;
    assign deep = (a + b) ^ (a << 1) ^ (b >> 2);
    always @(posedge clk) begin
        r1 <= deep + a;
        q <= r1;
    end
endmodule
`

func TestRetimeImprovesImbalancedPipeline(t *testing.T) {
	nl := elab(t, unbalancedPipeSrc, "unb")
	wl := nl.Lib.WireLoad("5K_heavy_1k")
	// Pick a period that the imbalanced design violates but balanced
	// stages could meet.
	period := 1.0
	before, err := sta.Analyze(nl, wl, cons(period))
	if err != nil {
		t.Fatal(err)
	}
	if before.WNS() >= 0 {
		t.Skipf("period %.2f met before retime (CPS %.4f); test needs a violating start", period, before.CPS())
	}
	moves := Retime(nl, wl, cons(period), 200)
	if moves == 0 {
		t.Fatal("retime made no moves on an imbalanced pipeline")
	}
	if err := nl.Check(); err != nil {
		t.Fatal(err)
	}
	after, err := sta.Analyze(nl, wl, cons(period))
	if err != nil {
		t.Fatal(err)
	}
	if after.WNS() <= before.WNS() {
		t.Errorf("retime should improve WNS: before %.4f after %.4f", before.WNS(), after.WNS())
	}
}

func TestRetimeNoOpOnBalancedPipeline(t *testing.T) {
	nl := elab(t, `
module bal(input clk, input [15:0] a, input [15:0] b, output [15:0] q);
    reg [15:0] r1, q;
    always @(posedge clk) begin
        r1 <= a + b;
        q <= r1 + a;
    end
endmodule`, "bal")
	wl := nl.Lib.WireLoad("5K_heavy_1k")
	// At a comfortable period there is nothing to fix.
	moves := Retime(nl, wl, cons(4), 100)
	if moves != 0 {
		t.Errorf("retime moved %d registers on a met design, want 0", moves)
	}
}

func TestCompileUltraBeatsLowEffort(t *testing.T) {
	build := func() *Design {
		nl := elab(t, `
module d(input clk, input [31:0] a, input [31:0] b, output [31:0] q);
    reg [31:0] q;
    wire [31:0] m;
    assign m = (a + b) ^ (a >> 3);
    always @(posedge clk) q <= m + b;
endmodule`, "d")
		return &Design{NL: nl, WL: nl.Lib.WireLoad("5K_heavy_1k"), Cons: cons(2.2)}
	}
	dLow := build()
	if err := Compile(dLow, CompileOptions{MapEffort: EffortLow}); err != nil {
		t.Fatal(err)
	}
	qLow, err := dLow.QoR()
	if err != nil {
		t.Fatal(err)
	}
	dUltra := build()
	if err := Compile(dUltra, CompileOptions{Ultra: true, Retime: true}); err != nil {
		t.Fatal(err)
	}
	qUltra, err := dUltra.QoR()
	if err != nil {
		t.Fatal(err)
	}
	if qUltra.CPS <= qLow.CPS {
		t.Errorf("compile_ultra CPS %.4f should beat low effort %.4f", qUltra.CPS, qLow.CPS)
	}
	if err := dUltra.NL.Check(); err != nil {
		t.Fatal(err)
	}
}
