package synth

import (
	"context"
	"strings"
	"testing"

	"repro/internal/liberty"
)

const testDesignSrc = `
module tiny(input clk, input [15:0] a, input [15:0] b, output [15:0] q);
    reg [15:0] q;
    always @(posedge clk) q <= a + b;
endmodule
`

const goodScript = `
# baseline synthesis script
read_verilog tiny.v
current_design tiny
link
set_wire_load_model -name 5K_heavy_1k
create_clock -period 2.5 [get_ports clk]
set_input_delay 0.1 [all_inputs]
set_output_delay 0.1 [all_outputs]
compile -map_effort medium
report_qor
report_timing -max_paths 2
report_area
`

func newTestSession() *Session {
	s := NewSession(liberty.Nangate45())
	s.AddSource("tiny.v", testDesignSrc)
	return s
}

func TestSessionRunsBaselineScript(t *testing.T) {
	res, err := newTestSession().RunContext(context.Background(), goodScript)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if res.QoR == nil {
		t.Fatal("no QoR computed")
	}
	if res.QoR.Period != 2.5 {
		t.Errorf("period = %g, want 2.5", res.QoR.Period)
	}
	if res.QoR.WNS < 0 {
		t.Errorf("16-bit adder at 2.5ns should meet timing, WNS %.4f", res.QoR.WNS)
	}
	if len(res.Reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(res.Reports))
	}
	if !strings.Contains(res.Reports[0], "report_qor") || !strings.Contains(res.Reports[0], "WNS") {
		t.Errorf("qor report malformed:\n%s", res.Reports[0])
	}
	if !strings.Contains(res.Reports[1], "Startpoint") || !strings.Contains(res.Reports[1], "slack") {
		t.Errorf("timing report malformed:\n%s", res.Reports[1])
	}
	if !strings.Contains(res.Reports[2], "Total area") {
		t.Errorf("area report malformed:\n%s", res.Reports[2])
	}
}

func TestSessionVariables(t *testing.T) {
	script := `
set period 3.0
read_verilog tiny.v
current_design tiny
create_clock -period $period clk
compile
`
	res, err := newTestSession().RunContext(context.Background(), script)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if res.QoR.Period != 3.0 {
		t.Errorf("period = %g, want 3.0 via $period", res.QoR.Period)
	}
}

func TestSessionErrors(t *testing.T) {
	cases := []struct {
		name, script, wantErr string
	}{
		{"unknown command", "optimize_timing -aggressive\n", "unknown command"},
		{"unknown option", "read_verilog tiny.v\ncompile -retime\n", "unknown option"},
		{"missing file", "read_verilog missing.v\n", "not found"},
		{"compile before clock", "read_verilog tiny.v\ncurrent_design tiny\ncompile\n", "no clock"},
		{"retime before compile", "read_verilog tiny.v\ncurrent_design tiny\ncreate_clock -period 2 clk\noptimize_registers\n", "must follow compile"},
		{"bad effort", "read_verilog tiny.v\ncreate_clock -period 2 clk\ncompile -map_effort turbo\n", "invalid effort"},
		{"bad period", "read_verilog tiny.v\ncreate_clock -period oops clk\n", "invalid period"},
		{"bad module", "read_verilog tiny.v\ncurrent_design nonexistent\n", "not found"},
		{"bad wireload", "read_verilog tiny.v\nset_wire_load_model -name 7K_nope\n", "not in library"},
	}
	for _, c := range cases {
		_, err := newTestSession().RunContext(context.Background(), c.script)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.wantErr)
		}
	}
}

func TestSessionUltraFlow(t *testing.T) {
	script := `
read_verilog tiny.v
current_design tiny
create_clock -period 1.2 clk
set_max_fanout 16 [current_design]
compile_ultra -retime -timing_high_effort_script
optimize_registers
balance_buffers
report_qor
`
	res, err := newTestSession().RunContext(context.Background(), script)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if res.QoR == nil {
		t.Fatal("no QoR")
	}
	if err := res.Design.NL.Check(); err != nil {
		t.Fatalf("netlist invalid after full flow: %v", err)
	}
}

func TestValidateScript(t *testing.T) {
	issues := ValidateScript(goodScript)
	for _, is := range issues {
		if is.Severity == "error" {
			t.Errorf("good script flagged: %v", is)
		}
	}
	bad := `
read_verilog tiny.v
compile
optimize_registers
`
	issues = ValidateScript(bad)
	var msgs []string
	for _, is := range issues {
		msgs = append(msgs, is.Message)
	}
	joined := strings.Join(msgs, "; ")
	if !strings.Contains(joined, "no clock constraint") {
		t.Errorf("missing clock issue not reported: %s", joined)
	}

	halluc := "compile_design -super\n"
	issues = ValidateScript(halluc)
	if len(issues) == 0 || issues[0].Severity != "error" {
		t.Errorf("hallucinated command not flagged: %v", issues)
	}

	noCompile := "read_verilog tiny.v\ncreate_clock -period 2 clk\nreport_qor\n"
	issues = ValidateScript(noCompile)
	found := false
	for _, is := range issues {
		if strings.Contains(is.Message, "never compiles") {
			found = true
		}
	}
	if !found {
		t.Error("missing-compile warning not reported")
	}
}

func TestParseScriptTokens(t *testing.T) {
	cmds, err := ParseScript(`create_clock -period 2.0 [get_ports clk] # comment
set_dont_touch {u_core/u_alu}
echo "hello world" trailing`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 3 {
		t.Fatalf("got %d commands, want 3", len(cmds))
	}
	if cmds[0].Opts["-period"] != "2.0" || cmds[0].Args[0] != "clk" {
		t.Errorf("create_clock parsed wrong: %+v", cmds[0])
	}
	if cmds[1].Args[0] != "u_core/u_alu" {
		t.Errorf("brace group parsed wrong: %+v", cmds[1])
	}
	if len(cmds[2].Args) != 2 || cmds[2].Args[0] != "hello world" {
		t.Errorf("quoted string parsed wrong: %+v", cmds[2])
	}
}

func TestParseScriptLineContinuation(t *testing.T) {
	cmds, err := ParseScript("compile_ultra \\\n  -retime \\\n  -no_autoungroup\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 1 {
		t.Fatalf("got %d commands, want 1", len(cmds))
	}
	if _, ok := cmds[0].Opts["-retime"]; !ok {
		t.Error("-retime lost across continuation")
	}
	if _, ok := cmds[0].Opts["-no_autoungroup"]; !ok {
		t.Error("-no_autoungroup lost across continuation")
	}
}

func TestCommandSpecsSane(t *testing.T) {
	for name, spec := range Commands {
		if spec.Name != name {
			t.Errorf("spec %q has mismatched Name %q", name, spec.Name)
		}
		if spec.Brief == "" || spec.Detail == "" {
			t.Errorf("command %s lacks documentation", name)
		}
		for _, o := range spec.Opts {
			if !strings.HasPrefix(o.Name, "-") {
				t.Errorf("%s option %q must start with dash", name, o.Name)
			}
			if o.Desc == "" {
				t.Errorf("%s option %s lacks description", name, o.Name)
			}
		}
	}
	if len(CommandNames()) != len(Commands) {
		t.Error("CommandNames length mismatch")
	}
}

func TestNegativeNumberNotOption(t *testing.T) {
	// set_input_delay -0.1 would look like an option; isNumber must rescue it.
	cmds, err := ParseScript("read_verilog a.v\nset_input_delay -0.1 [all_inputs]\n")
	if err != nil {
		t.Fatalf("negative number mistaken for option: %v", err)
	}
	if cmds[1].Args[0] != "-0.1" {
		t.Errorf("args = %v", cmds[1].Args)
	}
}

func TestSessionWriteNetlist(t *testing.T) {
	script := `
read_verilog tiny.v
current_design tiny
create_clock -period 2.5 clk
compile
write -format verilog -output mapped
`
	res, err := newTestSession().RunContext(context.Background(), script)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(res.Netlists) != 1 {
		t.Fatalf("netlists = %d, want 1", len(res.Netlists))
	}
	out := res.Netlists[0]
	if !strings.Contains(out, "module tiny(") || !strings.Contains(out, "DFF_X1") {
		t.Errorf("written netlist malformed:\n%.300s", out)
	}
	// Unsupported format rejected.
	bad := strings.Replace(script, "-format verilog", "-format edif", 1)
	if _, err := newTestSession().RunContext(context.Background(), bad); err == nil {
		t.Error("edif format should be rejected")
	}
}

func TestSessionReportPower(t *testing.T) {
	script := `
read_verilog tiny.v
current_design tiny
create_clock -period 2.5 clk
compile
report_power -vectors 16
`
	res, err := newTestSession().RunContext(context.Background(), script)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(res.Reports) != 1 || !strings.Contains(res.Reports[0], "Total power") {
		t.Errorf("power report missing: %v", res.Reports)
	}
	// Power needs a clock.
	noClk := "read_verilog tiny.v\ncurrent_design tiny\nlink\nreport_power\n"
	if _, err := newTestSession().RunContext(context.Background(), noClk); err == nil {
		t.Error("report_power without clock should fail")
	}
	badVec := strings.Replace(script, "-vectors 16", "-vectors x", 1)
	if _, err := newTestSession().RunContext(context.Background(), badVec); err == nil {
		t.Error("bad -vectors should fail")
	}
}
