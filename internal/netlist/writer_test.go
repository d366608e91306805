package netlist

import (
	"strings"
	"testing"

	"repro/internal/liberty"
	"repro/internal/verilog"
)

const writerTestSrc = `
module wt(input clk, input [3:0] a, input [3:0] b, input s, output [4:0] y, output r);
    reg [4:0] y;
    wire [4:0] sum;
    assign sum = a + b;
    always @(posedge clk) y <= s ? sum : {1'b0, a ^ b};
    assign r = a[0] & b[3];
endmodule
`

func elabSrc(t *testing.T, src, top string) *Netlist {
	t.Helper()
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	nl, err := Elaborate(f, top, nil, liberty.Nangate45())
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return nl
}

func TestWriteVerilogReparses(t *testing.T) {
	nl := elabSrc(t, writerTestSrc, "wt")
	out := WriteVerilog(nl)
	for _, want := range []string{"module wt(", "endmodule", "DFF_X1", "input clk;"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The written netlist must re-parse and re-elaborate.
	f, err := verilog.Parse(out)
	if err != nil {
		t.Fatalf("written netlist does not parse: %v\n%s", err, out[:min(len(out), 2000)])
	}
	re, err := Elaborate(f, "wt", nil, liberty.Nangate45())
	if err != nil {
		t.Fatalf("written netlist does not elaborate: %v", err)
	}
	if re.SeqCount() != nl.SeqCount() {
		t.Errorf("register count changed: %d -> %d", nl.SeqCount(), re.SeqCount())
	}
	// Ports survive (with vector bits flattened to name_index).
	if len(re.Inputs) != len(nl.Inputs) {
		t.Errorf("input count changed: %d -> %d", len(nl.Inputs), len(re.Inputs))
	}
	if len(re.Outputs) != len(nl.Outputs) {
		t.Errorf("output count changed: %d -> %d", len(nl.Outputs), len(re.Outputs))
	}
}

func TestWriteVerilogConstants(t *testing.T) {
	nl := elabSrc(t, `
module c(input a, output y0, output y1, output z);
    assign y0 = 1'b0;
    assign y1 = 1'b1;
    assign z = a & 1'b1;
endmodule`, "c")
	out := WriteVerilog(nl)
	f, err := verilog.Parse(out)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, out)
	}
	if _, err := Elaborate(f, "c", nil, liberty.Nangate45()); err != nil {
		t.Fatalf("elaborate: %v", err)
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"a[3]":  "a_3",
		"plain": "plain",
		"1bad":  "n1bad",
		"u/x.y": "u_x_y",
		"":      "n_unnamed",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLeafModulesCoverAllKinds(t *testing.T) {
	lib := liberty.Nangate45()
	for _, c := range lib.Cells() {
		text := leafModule(c)
		if !strings.Contains(text, "module "+c.Name) || !strings.Contains(text, "endmodule") {
			t.Errorf("leaf for %s malformed", c.Name)
		}
		if _, err := verilog.Parse(text); err != nil {
			t.Errorf("leaf for %s does not parse: %v\n%s", c.Name, err, text)
		}
	}
}
