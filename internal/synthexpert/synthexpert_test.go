package synthexpert

import (
	"context"
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/synth"
	"repro/internal/synthrag"
)

var sharedDB *synthrag.Database

func testExpert(t *testing.T) *Expert {
	t.Helper()
	if sharedDB == nil {
		db, err := synthrag.Build(synthrag.BuildConfig{Seed: 1, SkipSynth: true})
		if err != nil {
			t.Fatal(err)
		}
		sharedDB = db
	}
	return New(llm.New(llm.GPT4o, 1), sharedDB)
}

const baseline = `read_verilog d.v
current_design d
link
set_wire_load_model -name 5K_heavy_1k
create_clock -period 2.00 [get_ports clk]
compile
report_qor
`

func validate(t *testing.T, script string) {
	t.Helper()
	for _, is := range synth.ValidateScript(script) {
		if is.Severity == "error" {
			t.Errorf("refined script still invalid: %v\nscript:\n%s", is, script)
		}
	}
}

func TestRefineFixesHallucinatedCommand(t *testing.T) {
	e := testExpert(t)
	draft := `read_verilog d.v
current_design d
create_clock -period 2.00 [get_ports clk]
set_fanout_limit 16
compile_ultra
report_qor
`
	refined, steps, _ := e.RefineContext(context.Background(), draft, baseline)
	validate(t, refined)
	if !strings.Contains(refined, "set_max_fanout 16") {
		t.Errorf("hallucinated set_fanout_limit not revised to set_max_fanout:\n%s", refined)
	}
	found := false
	for _, s := range steps {
		if strings.Contains(s.Before, "set_fanout_limit") && strings.Contains(s.After, "set_max_fanout") {
			found = true
		}
	}
	if !found {
		t.Errorf("no revision step recorded: %+v", steps)
	}
}

func TestRefineFixesWrongOption(t *testing.T) {
	e := testExpert(t)
	cases := []struct{ bad, want string }{
		{"compile -retime", "-retime"},                       // option belongs to compile_ultra
		{"compile_ultra -retiming", "compile_ultra -retime"}, // near-miss option
		{"compile_ultra -exact_map", "compile_ultra"},        // unknown option dropped
		{"compile -map_effort turbo", "compile"},             // invalid effort handled downstream
	}
	for _, c := range cases {
		draft := strings.Replace(baseline, "compile\n", c.bad+"\n", 1)
		refined, _, _ := e.RefineContext(context.Background(), draft, baseline)
		if !strings.Contains(refined, c.want) {
			t.Errorf("RefineContext(%q): want %q in:\n%s", c.bad, c.want, refined)
		}
		// -retiming and -exact_map must be gone.
		if strings.Contains(refined, "-retiming") || strings.Contains(refined, "-exact_map") {
			t.Errorf("RefineContext(%q) left an invalid option:\n%s", c.bad, refined)
		}
	}
}

func TestRefineFixesOrdering(t *testing.T) {
	e := testExpert(t)
	draft := `read_verilog d.v
current_design d
create_clock -period 2.00 [get_ports clk]
optimize_registers
compile_ultra
report_qor
`
	refined, _, _ := e.RefineContext(context.Background(), draft, baseline)
	validate(t, refined)
	lines := strings.Split(refined, "\n")
	compileAt, retimeAt := -1, -1
	for i, l := range lines {
		if strings.HasPrefix(l, "compile_ultra") {
			compileAt = i
		}
		if strings.HasPrefix(l, "optimize_registers") {
			retimeAt = i
		}
	}
	if retimeAt < compileAt {
		t.Errorf("optimize_registers not moved after compile:\n%s", refined)
	}
}

func TestRefineInsertsCompile(t *testing.T) {
	e := testExpert(t)
	draft := `read_verilog d.v
current_design d
create_clock -period 2.00 [get_ports clk]
report_qor
`
	refined, steps, _ := e.RefineContext(context.Background(), draft, baseline)
	validate(t, refined)
	if !strings.Contains(refined, "compile") {
		t.Errorf("no compile inserted:\n%s", refined)
	}
	if len(steps) == 0 {
		t.Error("no steps recorded")
	}
}

func TestRefineRestoresConstraints(t *testing.T) {
	e := testExpert(t)
	// Draft lost the clock and wireload lines entirely.
	draft := `read_verilog d.v
current_design d
compile_ultra
report_qor
`
	refined, _, _ := e.RefineContext(context.Background(), draft, baseline)
	validate(t, refined)
	if !strings.Contains(refined, "create_clock -period 2.00") {
		t.Errorf("clock constraint not restored:\n%s", refined)
	}
	if !strings.Contains(refined, "set_wire_load_model") {
		t.Errorf("wireload not restored:\n%s", refined)
	}
}

func TestRefineFixesBadNumericArg(t *testing.T) {
	e := testExpert(t)
	draft := strings.Replace(baseline, "compile\n", "set_max_fanout max [current_design]\ncompile_ultra\n", 1)
	refined, _, _ := e.RefineContext(context.Background(), draft, baseline)
	validate(t, refined)
	if strings.Contains(refined, "set_max_fanout max") {
		t.Errorf("non-numeric fanout not fixed:\n%s", refined)
	}
	if !strings.Contains(refined, "set_max_fanout 16") {
		t.Errorf("fanout default not substituted:\n%s", refined)
	}
}

func TestRefineAddsReporting(t *testing.T) {
	e := testExpert(t)
	draft := `read_verilog d.v
current_design d
create_clock -period 2.00 [get_ports clk]
compile_ultra
`
	refined, _, _ := e.RefineContext(context.Background(), draft, baseline)
	if !strings.Contains(refined, "report_qor") {
		t.Errorf("report_qor not appended:\n%s", refined)
	}
}

// TestRefineAllHallucinations feeds every known hallucination through the
// revision loop; all must come out executable.
func TestRefineAllHallucinations(t *testing.T) {
	e := testExpert(t)
	for _, h := range []string{
		"optimize_timing -aggressive",
		"compile -retime",
		"balance_registers",
		"set_fanout_limit 16",
		"compile_ultra -effort high",
		"ungroup -recursive",
		"fix_hold_violations",
		"compile_ultra -map_effort high",
		"retime_design",
		"set_optimize_registers true",
	} {
		draft := strings.Replace(baseline, "compile\n", h+"\ncompile_ultra\n", 1)
		refined, _, _ := e.RefineContext(context.Background(), draft, baseline)
		errs := 0
		for _, is := range synth.ValidateScript(refined) {
			if is.Severity == "error" {
				errs++
				t.Errorf("hallucination %q: refined script invalid: %v", h, is)
			}
		}
		if errs == 0 && strings.Contains(refined, h) && synth.Commands[strings.Fields(h)[0]] == nil {
			t.Errorf("hallucination %q survived refinement:\n%s", h, refined)
		}
	}
}
