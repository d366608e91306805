package sta

import (
	"math"
	"strings"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
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

func analyze(t *testing.T, nl *netlist.Netlist, period float64) *Timing {
	t.Helper()
	tm, err := Analyze(nl, nl.Lib.WireLoad("5K_heavy_1k"), Constraints{Period: period})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return tm
}

const pipelineSrc = `
module pipe(input clk, input [7:0] a, input [7:0] b, output [7:0] q);
    reg [7:0] r1, q;
    always @(posedge clk) begin
        r1 <= a + b;
        q <= r1 + a;
    end
endmodule
`

func TestAnalyzeBasic(t *testing.T) {
	nl := elab(t, pipelineSrc, "pipe")
	tm := analyze(t, nl, 5.0)
	if tm.CPS() <= 0 {
		t.Errorf("8-bit adder at 5ns should meet timing easily, CPS = %g", tm.CPS())
	}
	if tm.WNS() != 0 {
		t.Errorf("WNS = %g, want 0", tm.WNS())
	}
	if tm.TNS() != 0 {
		t.Errorf("TNS = %g, want 0", tm.TNS())
	}
	if len(tm.Endpoints()) == 0 {
		t.Fatal("no endpoints")
	}
	// Endpoints sorted worst first.
	ends := tm.Endpoints()
	for i := 1; i < len(ends); i++ {
		if ends[i].Slack < ends[i-1].Slack {
			t.Fatal("endpoints not sorted by slack")
		}
	}
}

func TestTightPeriodViolates(t *testing.T) {
	nl := elab(t, pipelineSrc, "pipe")
	tm := analyze(t, nl, 0.15)
	if tm.WNS() >= 0 {
		t.Errorf("0.15ns period must violate, WNS = %g", tm.WNS())
	}
	if tm.TNS() >= tm.WNS() {
		t.Errorf("TNS (%g) must be <= WNS (%g) with multiple violating endpoints", tm.TNS(), tm.WNS())
	}
	if tm.CPS() != tm.WNS() {
		t.Errorf("CPS (%g) should equal WNS (%g) when violating", tm.CPS(), tm.WNS())
	}
}

func TestDeeperLogicIsSlower(t *testing.T) {
	shallow := elab(t, `
module s(input clk, input [3:0] a, input [3:0] b, output [3:0] q);
    reg [3:0] q;
    always @(posedge clk) q <= a ^ b;
endmodule`, "s")
	deep := elab(t, `
module d(input clk, input [15:0] a, input [15:0] b, output [15:0] q);
    reg [15:0] q;
    always @(posedge clk) q <= a + b;
endmodule`, "d")
	ts := analyze(t, shallow, 3.0)
	td := analyze(t, deep, 3.0)
	if td.CPS() >= ts.CPS() {
		t.Errorf("16-bit adder (CPS %g) should be slower than 4-bit xor (CPS %g)", td.CPS(), ts.CPS())
	}
}

func TestArrivalMonotoneAlongPath(t *testing.T) {
	nl := elab(t, pipelineSrc, "pipe")
	tm := analyze(t, nl, 2.0)
	p := tm.CriticalPath()
	if len(p.Steps) < 2 {
		t.Fatalf("critical path too short: %d steps", len(p.Steps))
	}
	for i := 1; i < len(p.Steps); i++ {
		if p.Steps[i].Arrival < p.Steps[i-1].Arrival {
			t.Errorf("arrival not monotone at step %d: %g < %g", i, p.Steps[i].Arrival, p.Steps[i-1].Arrival)
		}
	}
	if p.Startpoint == "" || p.Endpoint == "" {
		t.Errorf("path missing start/end: %+v", p)
	}
	// The path must end at a register D pin or a primary output.
	if !strings.HasSuffix(p.Endpoint, "/D") && !strings.Contains(p.Endpoint, "q") {
		t.Errorf("unexpected endpoint %q", p.Endpoint)
	}
}

func TestSlackConsistency(t *testing.T) {
	nl := elab(t, pipelineSrc, "pipe")
	tm := analyze(t, nl, 2.0)
	// The worst endpoint slack must equal the minimum net slack over
	// endpoint nets.
	worst := math.Inf(1)
	for _, e := range tm.Endpoints() {
		if e.Slack < worst {
			worst = e.Slack
		}
	}
	if math.Abs(worst-tm.CPS()) > 1e-9 {
		t.Errorf("CPS %g != worst endpoint slack %g", tm.CPS(), worst)
	}
	// Backward propagation: every net on the critical path has slack ~= CPS.
	p := tm.CriticalPath()
	for _, s := range p.Steps {
		if s.Net == nil {
			continue
		}
		if tm.Slack(s.Net) > tm.CPS()+1e-9 {
			t.Errorf("net %s on critical path has slack %g > CPS %g", s.Net.Name, tm.Slack(s.Net), tm.CPS())
		}
	}
}

func TestInputOutputDelay(t *testing.T) {
	nl := elab(t, `
module c(input [3:0] a, output [3:0] y);
    assign y = ~a;
endmodule`, "c")
	wl := nl.Lib.WireLoad("5K_heavy_1k")
	base, err := Analyze(nl, wl, Constraints{Period: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := Analyze(nl, wl, Constraints{Period: 1.0, InputDelay: 0.3, OutputDelay: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	diff := base.CPS() - delayed.CPS()
	if math.Abs(diff-0.5) > 1e-9 {
		t.Errorf("input+output delay should cost 0.5ns of slack, cost %g", diff)
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	// Build a loop by hand: two inverters in a ring.
	lib := liberty.Nangate45()
	nl := netlist.New("loop", lib)
	a := nl.NewNet("a")
	inv1, err := nl.AddCell(lib.Cell("INV_X1"), "", "loop", a)
	if err != nil {
		t.Fatal(err)
	}
	inv2, err := nl.AddCell(lib.Cell("INV_X1"), "", "loop", inv1.Output)
	if err != nil {
		t.Fatal(err)
	}
	// Close the ring: a is driven by inv2.
	nl.SetInput(inv1, 0, inv2.Output)
	if _, err := Analyze(nl, lib.WireLoad("5K_heavy_1k"), Constraints{Period: 1}); err == nil {
		t.Fatal("combinational loop should be detected")
	} else if !strings.Contains(err.Error(), "loop") {
		t.Errorf("unexpected error %v", err)
	}
}

func TestHighFanoutSlowsNet(t *testing.T) {
	// One inverter driving N loads: delay grows with N.
	lib := liberty.Nangate45()
	build := func(fanout int) *Timing {
		nl := netlist.New("fo", lib)
		in := nl.NewNet("in")
		in.PI = true
		nl.Inputs = append(nl.Inputs, in)
		src, err := nl.AddCell(lib.Cell("INV_X1"), "", "fo", in)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fanout; i++ {
			sink, err := nl.AddCell(lib.Cell("INV_X1"), "", "fo", src.Output)
			if err != nil {
				t.Fatal(err)
			}
			sink.Output.PO = true
			nl.Outputs = append(nl.Outputs, sink.Output)
		}
		tm, err := Analyze(nl, lib.WireLoad("5K_heavy_1k"), Constraints{Period: 2})
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	lo := build(2)
	hi := build(30)
	if hi.CPS() >= lo.CPS() {
		t.Errorf("fanout-30 (CPS %g) should be slower than fanout-2 (CPS %g)", hi.CPS(), lo.CPS())
	}
	viol := hi.MaxFanoutViolations(16)
	if len(viol) != 1 || viol[0].Fanout() != 30 {
		t.Errorf("MaxFanoutViolations = %v, want the fanout-30 net", viol)
	}
	if len(lo.MaxFanoutViolations(16)) != 0 {
		t.Error("fanout-2 design should have no violations")
	}
}

func TestWorstPathsAndCriticalCells(t *testing.T) {
	nl := elab(t, pipelineSrc, "pipe")
	tm := analyze(t, nl, 0.3)
	paths := tm.WorstPaths(3)
	if len(paths) != 3 {
		t.Fatalf("WorstPaths(3) = %d paths", len(paths))
	}
	if paths[0].Slack > paths[1].Slack || paths[1].Slack > paths[2].Slack {
		t.Error("paths not ordered by slack")
	}
	crit := tm.CriticalCells(0)
	if len(crit) == 0 {
		t.Error("violating design must have critical cells")
	}
	for _, c := range crit {
		if c.IsSeq() {
			t.Errorf("sequential cell %s in critical combinational set", c.Name)
		}
	}
}

func TestSequentialLaunchIncludesClkToQ(t *testing.T) {
	nl := elab(t, `
module r(input clk, input d, output q);
    reg i, q;
    always @(posedge clk) begin
        i <= d;
        q <= ~i;
    end
endmodule`, "r")
	tm := analyze(t, nl, 1.0)
	// Find the Q net of the first flop (driving the inverter).
	var qnet *netlist.Net
	for _, c := range nl.Cells {
		if c.IsSeq() {
			for _, p := range c.Output.Sinks {
				if !p.Cell.IsSeq() {
					qnet = c.Output
				}
			}
		}
	}
	if qnet == nil {
		t.Fatal("flop feeding logic not found")
	}
	if tm.Arrival(qnet) < nl.Lib.Cell("DFF_X1").ClkToQ {
		t.Errorf("flop output arrival %g < clk-to-q", tm.Arrival(qnet))
	}
}

func TestInputDriveResistanceLoadsInputs(t *testing.T) {
	// A primary input driving many loads must arrive later than one driving
	// a single load — the external driver has finite strength.
	lib := liberty.Nangate45()
	build := func(fanout int) *Timing {
		nl := netlist.New("d", lib)
		in := nl.NewNet("in")
		in.PI = true
		nl.Inputs = append(nl.Inputs, in)
		for i := 0; i < fanout; i++ {
			c, err := nl.AddCell(lib.Cell("INV_X1"), "", "d", in)
			if err != nil {
				t.Fatal(err)
			}
			c.Output.PO = true
			nl.Outputs = append(nl.Outputs, c.Output)
		}
		tm, err := Analyze(nl, lib.WireLoad("5K_heavy_1k"), Constraints{Period: 2})
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	lo := build(1)
	hi := build(40)
	if hi.CPS() >= lo.CPS() {
		t.Errorf("heavily loaded input should be slower: CPS %g vs %g", hi.CPS(), lo.CPS())
	}
}

// TestResetNilDropsTheNetlist: Reset with a nil netlist analyses nothing and
// leaves no pointer into the netlist t last analysed — in the header or in
// any slice up to its capacity — while keeping the buffers; a later Reset
// analyses as a new Timing would.
func TestResetNilDropsTheNetlist(t *testing.T) {
	nl := elab(t, pipelineSrc, "pipe")
	tm := analyze(t, nl, 2.0)
	want := tm.TNS()
	full := FullAnalyses()
	if err := tm.Reset(nil, nil, Constraints{}); err != nil {
		t.Fatal(err)
	}
	if FullAnalyses() != full {
		t.Error("Reset(nil) ran an analysis")
	}
	if tm.NL != nil || tm.WL != nil {
		t.Error("Reset(nil) kept the netlist or the wireload")
	}
	for _, c := range append(tm.order[:cap(tm.order)], tm.ready[:cap(tm.ready)]...) {
		if c != nil {
			t.Fatal("a cell pointer survived Reset(nil)")
		}
	}
	for _, n := range tm.bSrc[:cap(tm.bSrc)] {
		if n != nil {
			t.Fatal("a net pointer survived Reset(nil)")
		}
	}
	for _, e := range tm.ends[:cap(tm.ends)] {
		if e.Net != nil || e.Cell != nil {
			t.Fatal("an endpoint survived Reset(nil)")
		}
	}
	if cap(tm.arr) == 0 || cap(tm.order) == 0 {
		t.Error("Reset(nil) dropped the buffers")
	}
	if err := tm.Reset(nl, nl.Lib.WireLoad("5K_heavy_1k"), Constraints{Period: 2.0}); err != nil || tm.TNS() != want {
		t.Errorf("Reset after Reset(nil): TNS %v (%v), want %v", tm.TNS(), err, want)
	}
}
