// Package designs generates the Verilog RTL for every design the paper's
// evaluation uses: the OpenROAD benchmark set of Table IV (aes,
// dynamic_node, ethmac, jpeg, riscv32i, swerv, tinyRocket), the database
// corpus of Table II (Rocket, Sodor, NVDLA, Gemmini, SIMD, FFT, SHA3), and
// Chipyard-style SoC compositions for the Fig. 5 retrieval experiment.
//
// The original RTL is not redistributable at reproduction scale, so each
// generator emits synthetic RTL with the structural signature that makes
// the paper's synthesis-command choices matter: aes has wide S-box rounds
// behind imbalanced register stages (retiming-bound), dynamic_node has
// high-fanout arbitration (buffering-bound), ethmac has a deep serial CRC
// cone (barely fixable in one iteration), jpeg carries heavy wrapper
// hierarchy (ungroup-bound), and tinyRocket has imbalanced pipeline stages
// (retiming-bound).
package designs

import (
	"fmt"
	"strings"
)

// block builders emit self-contained Verilog modules. Each returns module
// text; callers stitch them into a design file.

// sboxRound emits a nonlinear byte-mixing round: wide XOR/AND logic with
// rotated taps, the aes-like structure (combinationally wide, depth ~4-6).
func sboxRound(name string, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s(input [%d:0] a, input [%d:0] k, output [%d:0] y);\n", name, width-1, width-1, width-1)
	fmt.Fprintf(&b, "    wire [%d:0] s1, s2;\n", width-1)
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "    assign s1[%d] = a[%d] ^ (a[%d] & ~a[%d]);\n", i, i, (i+1)%width, (i+3)%width)
	}
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "    assign s2[%d] = s1[%d] ^ (s1[%d] | s1[%d]) ^ k[%d];\n", i, i, (i+5)%width, (i+7)%width, i)
	}
	// Mix layer: an 8-term XOR written as a left-associative chain (depth 7)
	// that a high-effort compile rebalances into a depth-3 tree — the
	// effort-bound structure that separates compile levels on aes.
	for i := 0; i < width; i++ {
		terms := make([]string, 0, 8)
		for _, off := range []int{0, 1, 2, 4, 8, 16, 32} {
			terms = append(terms, fmt.Sprintf("s2[%d]", (i+off)%width))
		}
		terms = append(terms, fmt.Sprintf("k[%d]", i))
		fmt.Fprintf(&b, "    assign y[%d] = %s;\n", i, strings.Join(terms, " ^ "))
	}
	b.WriteString("endmodule\n")
	return b.String()
}

// serialChain emits a deep serial dependency cone (CRC/scrambler-like):
// stage i depends on stage i-1, so the path depth is O(depth) and cannot be
// rebalanced — only sizing helps.
func serialChain(name string, width, depth int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s(input [%d:0] d, input [%d:0] poly, output [%d:0] crc);\n", name, width-1, width-1, width-1)
	for s := 0; s <= depth; s++ {
		fmt.Fprintf(&b, "    wire [%d:0] c%d;\n", width-1, s)
	}
	fmt.Fprintf(&b, "    assign c0 = d;\n")
	for s := 1; s <= depth; s++ {
		// Each stage mixes the previous stage serially: bit i depends on
		// bit i-1 of the same stage, forming a long carry-like chain.
		fmt.Fprintf(&b, "    assign c%d[0] = c%d[%d] ^ (c%d[0] & poly[%d]);\n", s, s-1, width-1, s-1, s%width)
		for i := 1; i < width; i++ {
			fmt.Fprintf(&b, "    assign c%d[%d] = c%d[%d] ^ (c%d[%d] & poly[%d]);\n",
				s, i, s, i-1, s-1, i, (i+s)%width)
		}
	}
	fmt.Fprintf(&b, "    assign crc = c%d;\nendmodule\n", depth)
	return b.String()
}

// multiplierUnit emits a registered multiply-accumulate: the arithmetic
// signature of DSP/ML-accelerator designs.
func multiplierUnit(name string, width int) string {
	return fmt.Sprintf(`module %s(input clk, input [%d:0] x, input [%d:0] c, output [%d:0] p);
    reg [%d:0] p;
    always @(posedge clk) p <= x * c;
endmodule
`, name, width-1, width-1, 2*width-1, 2*width-1)
}

// arbiter emits a priority arbiter plus a granted-data mux: the grant
// signals fan out across the whole data width, producing the high-fanout
// nets that make buffer balancing profitable.
func arbiter(name string, ports, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s(input [%d:0] req,", name, ports-1)
	for p := 0; p < ports; p++ {
		fmt.Fprintf(&b, " input [%d:0] in%d,", width-1, p)
	}
	fmt.Fprintf(&b, " output [%d:0] gnt, output [%d:0] out);\n", ports-1, width-1)
	// Priority grants.
	fmt.Fprintf(&b, "    assign gnt[0] = req[0];\n")
	for p := 1; p < ports; p++ {
		terms := make([]string, p)
		for q := 0; q < p; q++ {
			terms[q] = fmt.Sprintf("~req[%d]", q)
		}
		fmt.Fprintf(&b, "    assign gnt[%d] = req[%d] & %s;\n", p, p, strings.Join(terms, " & "))
	}
	// Granted-data mux: each gnt bit drives `width` AND gates.
	for i := 0; i < width; i++ {
		terms := make([]string, ports)
		for p := 0; p < ports; p++ {
			terms[p] = fmt.Sprintf("(gnt[%d] & in%d[%d])", p, p, i)
		}
		fmt.Fprintf(&b, "    assign out[%d] = %s;\n", i, strings.Join(terms, " | "))
	}
	b.WriteString("endmodule\n")
	return b.String()
}

// aluUnit emits a small ALU: add/sub/logic ops selected by a mux — the
// processor-core signature.
func aluUnit(name string, width int) string {
	const chunk = 8
	var b strings.Builder
	b.WriteString(cslaAdder(name+"_add", width, chunk))
	fmt.Fprintf(&b, `module %s(input [1:0] op, input [%d:0] a, input [%d:0] b, output [%d:0] y);
    wire [%d:0] sum, dif, lg, sh;
    wire co0, co1;
    %s_add u_add (.a(a), .b(b), .cin(1'b0), .s(sum), .cout(co0));
    %s_add u_sub (.a(a), .b(~b), .cin(1'b1), .s(dif), .cout(co1));
    assign lg  = (a & b) ^ (a | b);
    assign sh  = a << 1;
    assign y = op[1] ? (op[0] ? sh : lg) : (op[0] ? dif : sum);
endmodule
`, name, width-1, width-1, width-1, width-1, name, name)
	return b.String()
}

// cslaAdder emits a carry-select adder: chunked ripple adders with both
// carry candidates and a mux chain, giving O(chunk + width/chunk) depth —
// what synthesized datapath adders actually look like after mapping.
func cslaAdder(name string, width, chunk int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s(input [%d:0] a, input [%d:0] b, input cin, output [%d:0] s, output cout);\n",
		name, width-1, width-1, width-1)
	nchunks := (width + chunk - 1) / chunk
	for k := 0; k < nchunks; k++ {
		lo := k * chunk
		hi := lo + chunk - 1
		if hi >= width {
			hi = width - 1
		}
		cw := hi - lo + 1
		if k == 0 {
			fmt.Fprintf(&b, "    wire c0;\n")
			fmt.Fprintf(&b, "    wire [%d:0] s0x;\n", cw)
			fmt.Fprintf(&b, "    assign s0x = a[%d:%d] + b[%d:%d] + {%d'd0, cin};\n", hi, lo, hi, lo, cw)
			fmt.Fprintf(&b, "    assign s[%d:%d] = s0x[%d:0];\n", hi, lo, cw-1)
			fmt.Fprintf(&b, "    assign c0 = s0x[%d];\n", cw)
			continue
		}
		fmt.Fprintf(&b, "    wire c%d, c%d_0, c%d_1;\n", k, k, k)
		fmt.Fprintf(&b, "    wire [%d:0] s%d_0, s%d_1;\n", cw, k, k)
		fmt.Fprintf(&b, "    assign s%d_0 = a[%d:%d] + b[%d:%d];\n", k, hi, lo, hi, lo)
		fmt.Fprintf(&b, "    assign s%d_1 = a[%d:%d] + b[%d:%d] + %d'd1;\n", k, hi, lo, hi, lo, cw+1)
		fmt.Fprintf(&b, "    assign c%d_0 = s%d_0[%d];\n", k, k, cw)
		fmt.Fprintf(&b, "    assign c%d_1 = s%d_1[%d];\n", k, k, cw)
		fmt.Fprintf(&b, "    assign s[%d:%d] = c%d ? s%d_1[%d:0] : s%d_0[%d:0];\n", hi, lo, k-1, k, cw-1, k, cw-1)
		fmt.Fprintf(&b, "    assign c%d = c%d ? c%d_1 : c%d_0;\n", k, k-1, k, k)
	}
	fmt.Fprintf(&b, "    assign cout = c%d;\nendmodule\n", nchunks-1)
	return b.String()
}

// xorRotRound emits a Keccak-flavoured round: XOR with rotations, the
// cryptographic-arithmetic signature (wide, shallow, XOR-dominated).
func xorRotRound(name string, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s(input [%d:0] s, input [%d:0] rc, output [%d:0] y);\n", name, width-1, width-1, width-1)
	fmt.Fprintf(&b, "    wire [%d:0] theta, rho;\n", width-1)
	fmt.Fprintf(&b, "    assign theta = s ^ {s[%d:0], s[%d:%d]} ^ {s[%d:0], s[%d:%d]};\n",
		width-2, width-1, width-1, width-6, width-1, width-5)
	fmt.Fprintf(&b, "    assign rho = theta ^ (~{theta[0], theta[%d:1]} & {theta[1:0], theta[%d:2]});\n",
		width-1, width-1)
	fmt.Fprintf(&b, "    assign y = rho ^ rc;\nendmodule\n")
	return b.String()
}

// vectorLane emits a SIMD lane: parallel independent element operations.
func vectorLane(name string, elemWidth int) string {
	return fmt.Sprintf(`module %s(input clk, input [%d:0] va, input [%d:0] vb, input [1:0] op, output [%d:0] vy);
    reg [%d:0] vy;
    wire [%d:0] s, x, m;
    assign s = va + vb;
    assign x = va ^ vb;
    assign m = va & vb;
    always @(posedge clk) vy <= op[1] ? m : (op[0] ? x : s);
endmodule
`, name, elemWidth-1, elemWidth-1, elemWidth-1, elemWidth-1, elemWidth-1)
}

// butterfly emits an FFT butterfly: add/sub pairs with a coefficient
// multiply — the signal-processing signature.
func butterfly(name string, width int) string {
	return fmt.Sprintf(`module %s(input clk, input [%d:0] ar, input [%d:0] br, input [%d:0] w, output [%d:0] xr, output [%d:0] yr);
    reg [%d:0] xr, yr;
    wire [%d:0] sum, dif;
    wire [%d:0] prod;
    assign sum = ar + br;
    assign dif = ar - br;
    assign prod = dif * w;
    always @(posedge clk) begin
        xr <= sum;
        yr <= prod[%d:%d];
    end
endmodule
`, name, width-1, width-1, width-1, width-1, width-1,
		width-1, width-1, 2*width-1, 2*width-2, width-1)
}

// regStage emits a simple pipeline register module.
func regStage(name string, width int) string {
	return fmt.Sprintf(`module %s(input clk, input [%d:0] d, output [%d:0] q);
    reg [%d:0] q;
    always @(posedge clk) q <= d;
endmodule
`, name, width-1, width-1, width-1)
}

// decoder emits an n-to-2^n one-hot decoder whose outputs each gate a wide
// bus — control fanout typical of instruction decode.
func decoder(name string, selBits, width int) string {
	n := 1 << selBits
	var b strings.Builder
	fmt.Fprintf(&b, "module %s(input [%d:0] sel, input [%d:0] d, output [%d:0] y);\n", name, selBits-1, width-1, width-1)
	fmt.Fprintf(&b, "    wire [%d:0] onehot;\n", n-1)
	for i := 0; i < n; i++ {
		terms := make([]string, selBits)
		for sb := 0; sb < selBits; sb++ {
			if i>>sb&1 == 1 {
				terms[sb] = fmt.Sprintf("sel[%d]", sb)
			} else {
				terms[sb] = fmt.Sprintf("~sel[%d]", sb)
			}
		}
		fmt.Fprintf(&b, "    assign onehot[%d] = %s;\n", i, strings.Join(terms, " & "))
	}
	// Each onehot bit gates a slice of the bus: fanout = width/n per bit.
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "    assign y[%d] = d[%d] & onehot[%d];\n", i, i, i%n)
	}
	b.WriteString("endmodule\n")
	return b.String()
}
