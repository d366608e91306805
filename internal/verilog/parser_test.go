package verilog

import (
	"strings"
	"testing"
)

const sampleAdder = `
// Simple ripple-carry adder.
module adder #(parameter W = 8) (
    input  [W-1:0] a,
    input  [W-1:0] b,
    input          cin,
    output [W-1:0] sum,
    output         cout
);
    wire [W:0] c;
    assign c[0] = cin;
    assign sum = a ^ b ^ c[W-1:0];
    assign cout = c[W];
endmodule
`

func TestParseANSIModule(t *testing.T) {
	f, err := Parse(sampleAdder)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Modules) != 1 {
		t.Fatalf("got %d modules, want 1", len(f.Modules))
	}
	m := f.Modules[0]
	if m.Name != "adder" {
		t.Errorf("name = %q, want adder", m.Name)
	}
	if len(m.Params) != 1 || m.Params[0].Name != "W" {
		t.Fatalf("params = %+v, want one param W", m.Params)
	}
	if len(m.Ports) != 5 {
		t.Fatalf("got %d ports, want 5", len(m.Ports))
	}
	wantDirs := []PortDir{DirInput, DirInput, DirInput, DirOutput, DirOutput}
	wantNames := []string{"a", "b", "cin", "sum", "cout"}
	for i, p := range m.Ports {
		if p.Name != wantNames[i] || p.Dir != wantDirs[i] {
			t.Errorf("port %d = %s/%s, want %s/%s", i, p.Name, p.Dir, wantNames[i], wantDirs[i])
		}
	}
	if m.Ports[2].Range != nil {
		t.Errorf("cin should be scalar")
	}
	if m.Ports[0].Range == nil {
		t.Errorf("a should have a range")
	}
	if !strings.Contains(m.Source, "endmodule") || !strings.Contains(m.Source, "module adder") {
		t.Errorf("module Source not captured: %q", m.Source)
	}
}

func TestParseClassicPorts(t *testing.T) {
	src := `
module top(clk, rst, d, q);
    input clk, rst;
    input [3:0] d;
    output [3:0] q;
    reg [3:0] q;
    always @(posedge clk or posedge rst) begin
        if (rst)
            q <= 4'b0;
        else
            q <= d;
    end
endmodule
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	if len(m.Ports) != 4 {
		t.Fatalf("got %d ports, want 4", len(m.Ports))
	}
	if m.Ports[0].Name != "clk" || m.Ports[0].Dir != DirInput {
		t.Errorf("port 0 = %+v, want input clk", m.Ports[0])
	}
	if m.Ports[3].Name != "q" || m.Ports[3].Dir != DirOutput {
		t.Errorf("port 3 = %+v, want output q", m.Ports[3])
	}
	// Body should contain the NetDecl for reg q and the AlwaysFF.
	var ff *AlwaysFF
	for _, it := range m.Items {
		if v, ok := it.(*AlwaysFF); ok {
			ff = v
		}
	}
	if ff == nil {
		t.Fatal("no AlwaysFF item parsed")
	}
	if ff.Clk != "clk" || ff.Rst != "rst" || ff.RstNeg {
		t.Errorf("always = clk:%s rst:%s neg:%v, want clk/rst/posedge", ff.Clk, ff.Rst, ff.RstNeg)
	}
	ifs, ok := ff.Body[0].(*IfStmt)
	if !ok {
		t.Fatalf("body[0] is %T, want *IfStmt", ff.Body[0])
	}
	if len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Errorf("if arms = %d/%d, want 1/1", len(ifs.Then), len(ifs.Else))
	}
}

func TestParseInstanceAndGates(t *testing.T) {
	src := `
module top(input a, input b, output y, output z);
    wire n1;
    nand g0 (n1, a, b);
    sub #(.W(4)) u0 (.x(a), .y(n1), .out(y));
    sub u1 (a, b, z);
endmodule
module sub #(parameter W = 2) (input x, input y, output out);
    assign out = x & y;
endmodule
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Modules) != 2 {
		t.Fatalf("got %d modules, want 2", len(f.Modules))
	}
	top := f.FindModule("top")
	if top == nil {
		t.Fatal("module top not found")
	}
	var gates []*GatePrim
	var insts []*Instance
	for _, it := range top.Items {
		switch v := it.(type) {
		case *GatePrim:
			gates = append(gates, v)
		case *Instance:
			insts = append(insts, v)
		}
	}
	if len(gates) != 1 || gates[0].Kind != "nand" || len(gates[0].Args) != 3 {
		t.Fatalf("gates = %+v, want one nand with 3 args", gates)
	}
	if len(insts) != 2 {
		t.Fatalf("got %d instances, want 2", len(insts))
	}
	if insts[0].Name != "u0" || len(insts[0].ParamOver) != 1 || insts[0].ParamOver[0].Name != "W" {
		t.Errorf("u0 param overrides wrong: %+v", insts[0].ParamOver)
	}
	if len(insts[0].Conns) != 3 || insts[0].Conns[0].Name != "x" {
		t.Errorf("u0 connections wrong: %+v", insts[0].Conns)
	}
	if insts[1].Conns[0].Name != "" {
		t.Errorf("u1 should use ordered connections")
	}
}

func TestParseExpressions(t *testing.T) {
	src := `
module e(input [7:0] a, input [7:0] b, input s, output [7:0] y, output r);
    assign y = s ? (a + b) : (a ^ {4{b[1:0]}});
    assign r = &a | ^b && !(a[3] == b[2]);
endmodule
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	var assigns []*Assign
	for _, it := range m.Items {
		if a, ok := it.(*Assign); ok {
			assigns = append(assigns, a)
		}
	}
	if len(assigns) != 2 {
		t.Fatalf("got %d assigns, want 2", len(assigns))
	}
	if _, ok := assigns[0].RHS.(*Ternary); !ok {
		t.Errorf("assign 0 RHS is %T, want *Ternary", assigns[0].RHS)
	}
	// The String round-trip should at least parse structure names.
	s := assigns[0].RHS.String()
	if !strings.Contains(s, "?") || !strings.Contains(s, "{4{") {
		t.Errorf("expression String() = %q missing ternary/replication", s)
	}
}

func TestNumberDecoding(t *testing.T) {
	cases := []struct {
		lit   string
		width int
		value uint64
	}{
		{"12", 0, 12},
		{"8'hFF", 8, 255},
		{"4'b1010", 4, 10},
		{"16'd1000", 16, 1000},
		{"'h20", 0, 32},
		{"8'b0000_1111", 8, 15},
		{"4'bxx01", 4, 1}, // x maps to 0 in the synthesizable subset
	}
	for _, c := range cases {
		n, err := decodeNumber(c.lit, Position{})
		if err != nil {
			t.Errorf("decodeNumber(%q): %v", c.lit, err)
			continue
		}
		if n.Width != c.width || n.Value != c.value {
			t.Errorf("decodeNumber(%q) = width %d value %d, want %d/%d",
				c.lit, n.Width, n.Value, c.width, c.value)
		}
	}
}

func TestConstEval(t *testing.T) {
	params := map[string]int64{"W": 8, "D": 3}
	cases := []struct {
		src  string
		want int64
	}{
		{"W-1", 7},
		{"W*2+1", 17},
		{"(W+D)/2", 5},
		{"1 << D", 8},
		{"W > D ? W : D", 8},
		{"W == 8 && D != 0", 1},
	}
	for _, c := range cases {
		// Parse the expression by wrapping it in a parameter declaration.
		m, err := ParseModule("module t; localparam X = " + c.src + "; endmodule")
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		if len(m.Params) != 1 {
			t.Fatalf("no parameter hoisted for %q", c.src)
		}
		got, err := ConstEval(m.Params[0].Value, params)
		if err != nil {
			t.Errorf("ConstEval(%q): %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("ConstEval(%q) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestConstEvalErrors(t *testing.T) {
	m, err := ParseModule("module t; localparam X = Y + 1; endmodule")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := ConstEval(m.Params[0].Value, nil); err == nil {
		t.Error("ConstEval with undefined identifier should fail")
	}
	m2, err := ParseModule("module t; localparam X = 4 / 0; endmodule")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := ConstEval(m2.Params[0].Value, nil); err == nil {
		t.Error("ConstEval divide-by-zero should fail")
	}
}

func TestRangeWidth(t *testing.T) {
	m, err := ParseModule("module t #(parameter W=16); wire [W-1:4] x; endmodule")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	decl := m.Items[0].(*NetDecl)
	w, lsb, err := RangeWidth(decl.Range, map[string]int64{"W": 16})
	if err != nil {
		t.Fatalf("RangeWidth: %v", err)
	}
	if w != 12 || lsb != 4 {
		t.Errorf("RangeWidth = %d/%d, want 12/4", w, lsb)
	}
	if w, lsb, err := RangeWidth(nil, nil); err != nil || w != 1 || lsb != 0 {
		t.Errorf("nil range = %d/%d/%v, want 1/0/nil", w, lsb, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"module",               // truncated
		"module m(; endmodule", // bad port list
		"module m(input a); assign a = ; endmodule",        // missing RHS
		"module m(input a); garbage !! ; endmodule",        // junk item
		"module m(input a); always @(a) x <= 1; endmodule", // non-edge sensitivity
		"module m(input a) endmodule",                      // missing semicolon
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
// leading comment
module m(input a, output y); /* block
comment */ assign y = ~a; // trailing
endmodule
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	if len(m.Items) != 1 {
		t.Fatalf("got %d items, want 1", len(m.Items))
	}
}

func TestFindModule(t *testing.T) {
	f, err := Parse("module a(input x, output y); assign y = x; endmodule\nmodule b(input x, output y); assign y = ~x; endmodule")
	if err != nil {
		t.Fatal(err)
	}
	if f.FindModule("b") == nil || f.FindModule("a") == nil {
		t.Error("FindModule failed for existing modules")
	}
	if f.FindModule("c") != nil {
		t.Error("FindModule returned non-nil for missing module")
	}
}
