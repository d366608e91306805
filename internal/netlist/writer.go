package netlist

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/liberty"
)

// WriteVerilog emits the mapped netlist as structural Verilog: one gate
// instance per cell, referencing the library cells as leaf modules (with
// behavioural leaf definitions appended so the output is self-contained and
// re-simulatable). This is the synthesis tool's `write -format verilog`
// output, and it round-trips through the frontend: parsing and elaborating
// the written netlist reproduces an equivalent circuit.
func WriteVerilog(nl *Netlist) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// structural netlist written by the synthesis simulator\n")
	fmt.Fprintf(&b, "// design: %s  cells: %d  area: %.2f\n", nl.Name, len(nl.Cells), nl.Area())

	// Port list: clock, reset, inputs, outputs.
	var ports []string
	if nl.ClkNet != nil {
		ports = append(ports, sanitize(nl.ClkNet.Name))
	}
	if nl.RstNet != nil {
		ports = append(ports, sanitize(nl.RstNet.Name))
	}
	for _, n := range nl.Inputs {
		ports = append(ports, sanitize(n.Name))
	}
	for _, n := range nl.Outputs {
		ports = append(ports, sanitize(n.Name))
	}
	fmt.Fprintf(&b, "module %s(%s);\n", nl.Name, strings.Join(ports, ", "))
	if nl.ClkNet != nil {
		fmt.Fprintf(&b, "    input %s;\n", sanitize(nl.ClkNet.Name))
	}
	if nl.RstNet != nil {
		fmt.Fprintf(&b, "    input %s;\n", sanitize(nl.RstNet.Name))
	}
	for _, n := range nl.Inputs {
		fmt.Fprintf(&b, "    input %s;\n", sanitize(n.Name))
	}
	for _, n := range nl.Outputs {
		fmt.Fprintf(&b, "    output %s;\n", sanitize(n.Name))
	}

	// Internal wires.
	declared := map[*Net]bool{nl.ClkNet: true, nl.RstNet: true}
	for _, n := range nl.Inputs {
		declared[n] = true
	}
	for _, n := range nl.Outputs {
		declared[n] = true
	}
	var wires []string
	var const0, const1 bool
	for _, n := range nl.Nets {
		if declared[n] {
			continue
		}
		if n.Const {
			if n.Val {
				const1 = true
			} else {
				const0 = true
			}
			continue
		}
		if n.Driver == nil && len(n.Sinks) == 0 {
			continue
		}
		wires = append(wires, sanitize(n.Name))
	}
	sort.Strings(wires)
	for _, w := range wires {
		fmt.Fprintf(&b, "    wire %s;\n", w)
	}
	if const0 {
		b.WriteString("    wire const0;\n    assign const0 = 1'b0;\n")
	}
	if const1 {
		b.WriteString("    wire const1;\n    assign const1 = 1'b1;\n")
	}

	netRef := func(n *Net) string {
		if n == nil {
			return "1'b0"
		}
		if n.Const {
			if n.Val {
				return "const1"
			}
			return "const0"
		}
		return sanitize(n.Name)
	}

	// Instances, sorted by cell name for stable output.
	cells := append([]*Cell(nil), nl.Cells...)
	sort.Slice(cells, func(i, j int) bool { return cells[i].ID < cells[j].ID })
	for _, c := range cells {
		var conns []string
		for i, in := range c.Inputs {
			conns = append(conns, fmt.Sprintf(".%s(%s)", inputPin(c.Ref.Kind, i), netRef(in)))
		}
		if c.IsSeq() {
			conns = append(conns, fmt.Sprintf(".CK(%s)", netRef(c.Clock)))
			if c.Ref.Kind == liberty.KindDFFR {
				conns = append(conns, fmt.Sprintf(".RN(%s)", netRef(c.Reset)))
			}
			conns = append(conns, fmt.Sprintf(".Q(%s)", netRef(c.Output)))
		} else {
			conns = append(conns, fmt.Sprintf(".Z(%s)", netRef(c.Output)))
		}
		fmt.Fprintf(&b, "    %s %s (%s);\n", c.Ref.Name, c.Name, strings.Join(conns, ", "))
	}
	b.WriteString("endmodule\n\n")

	// Leaf definitions for every referenced library cell, so the netlist is
	// self-contained.
	used := map[*liberty.Cell]bool{}
	for _, c := range nl.Cells {
		used[c.Ref] = true
	}
	var refs []*liberty.Cell
	for r := range used {
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Name < refs[j].Name })
	for _, r := range refs {
		b.WriteString(leafModule(r))
	}
	return b.String()
}

// inputPin names a cell's i-th logic input the way the library would.
func inputPin(kind liberty.Kind, i int) string {
	if kind.IsSequential() {
		return "D"
	}
	if kind == liberty.KindMux2 {
		return []string{"A", "B", "S"}[i]
	}
	return string(rune('A' + i))
}

// leafModule emits a behavioural definition of a library cell.
func leafModule(r *liberty.Cell) string {
	n := liberty.KindInputs[r.Kind]
	var ins []string
	for i := 0; i < n; i++ {
		ins = append(ins, inputPin(r.Kind, i))
	}
	var b strings.Builder
	if r.Kind.IsSequential() {
		extra := ", CK"
		body := "    always @(posedge CK) Q <= D;\n"
		if r.Kind == liberty.KindDFFR {
			extra = ", CK, RN"
			body = "    always @(posedge CK or posedge RN) begin\n" +
				"        if (RN)\n            Q <= 1'b0;\n        else\n            Q <= D;\n    end\n"
		}
		fmt.Fprintf(&b, "module %s(D%s, Q);\n", r.Name, extra)
		b.WriteString("    input D;\n    input CK;\n")
		if r.Kind == liberty.KindDFFR {
			b.WriteString("    input RN;\n")
		}
		b.WriteString("    output Q;\n    reg Q;\n")
		b.WriteString(body)
		b.WriteString("endmodule\n\n")
		return b.String()
	}

	var expr string
	switch r.Kind {
	case liberty.KindInv:
		expr = "~A"
	case liberty.KindBuf:
		expr = "A"
	case liberty.KindNand2:
		expr = "~(A & B)"
	case liberty.KindNor2:
		expr = "~(A | B)"
	case liberty.KindAnd2:
		expr = "A & B"
	case liberty.KindOr2:
		expr = "A | B"
	case liberty.KindXor2:
		expr = "A ^ B"
	case liberty.KindXnor2:
		expr = "~(A ^ B)"
	case liberty.KindMux2:
		expr = "S ? B : A"
	case liberty.KindAoi21:
		expr = "~((A & B) | C)"
	case liberty.KindOai21:
		expr = "~((A | B) & C)"
	case liberty.KindNand3:
		expr = "~(A & B & C)"
	case liberty.KindNor3:
		expr = "~(A | B | C)"
	case liberty.KindAnd3:
		expr = "A & B & C"
	case liberty.KindOr3:
		expr = "A | B | C"
	case liberty.KindNand4:
		expr = "~(A & B & C & D)"
	case liberty.KindNor4:
		expr = "~(A | B | C | D)"
	case liberty.KindTie0:
		expr = "1'b0"
	case liberty.KindTie1:
		expr = "1'b1"
	default:
		expr = "1'b0"
	}
	if n > 0 {
		fmt.Fprintf(&b, "module %s(%s, Z);\n", r.Name, strings.Join(ins, ", "))
		for _, in := range ins {
			fmt.Fprintf(&b, "    input %s;\n", in)
		}
	} else {
		fmt.Fprintf(&b, "module %s(Z);\n", r.Name)
	}
	fmt.Fprintf(&b, "    output Z;\n    assign Z = %s;\nendmodule\n\n", expr)
	return b.String()
}

var identReplacer = strings.NewReplacer("[", "_", "]", "", ".", "_", "/", "_")

// sanitize converts net names like "a[3]" into legal flat identifiers.
func sanitize(name string) string {
	out := identReplacer.Replace(name)
	if out == "" {
		return "n_unnamed"
	}
	if out[0] >= '0' && out[0] <= '9' {
		out = "n" + out
	}
	return out
}
