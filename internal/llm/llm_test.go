package llm

import (
	"context"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/designs"
)

const basePrompt = `## Requirement
Improve timing; close all violations without changing the clock period.

## Baseline script
read_verilog d.v
current_design d
link
set_wire_load_model -name 5K_heavy_1k
create_clock -period 2.50 [get_ports clk]
compile -map_effort medium
report_qor

## Synthesis report
**** report_qor ****
WNS:   -0.170 ns
CPS:   -0.170 ns
Path 1 slack: -0.170 (VIOLATED)
`

func TestGenerateDeterministic(t *testing.T) {
	m := New(GPT4o, 7)
	a, _ := m.GenerateContext(context.Background(), GenRequest{Prompt: basePrompt, Sample: 0})
	b, _ := m.GenerateContext(context.Background(), GenRequest{Prompt: basePrompt, Sample: 0})
	if a != b {
		t.Fatal("same (prompt, sample) must generate identical output")
	}
	c, _ := m.GenerateContext(context.Background(), GenRequest{Prompt: basePrompt, Sample: 1})
	if a == c {
		t.Log("note: sample 1 happened to equal sample 0 (allowed but unusual)")
	}
}

func TestGeneratePreservesConstraints(t *testing.T) {
	m := New(GPT4o, 3)
	for s := 0; s < 5; s++ {
		out, _ := m.GenerateContext(context.Background(), GenRequest{Prompt: basePrompt, Sample: s})
		if !strings.Contains(out, "create_clock -period 2.50") {
			t.Errorf("sample %d dropped or changed the clock constraint:\n%s", s, out)
		}
		if !strings.Contains(out, "read_verilog d.v") {
			t.Errorf("sample %d lost read_verilog", s)
		}
		if !strings.Contains(out, "report_qor") {
			t.Errorf("sample %d lost reporting", s)
		}
	}
}

func TestRetrievedStrategiesDominate(t *testing.T) {
	prompt := basePrompt + `
## Retrieved strategies
[strategy from design rocket_bus, similarity 0.94]
set_max_fanout 16 [current_design]
compile_ultra
balance_buffers
-- achieved WNS 0.00
`
	m := New(GPT4o, 11)
	adopted := 0
	for s := 0; s < 10; s++ {
		out, _ := m.GenerateContext(context.Background(), GenRequest{Prompt: prompt, Sample: s})
		if strings.Contains(out, "set_max_fanout 16") && strings.Contains(out, "balance_buffers") {
			adopted++
		}
	}
	if adopted < 7 {
		t.Errorf("retrieved strategy adopted only %d/10 times", adopted)
	}
}

func TestCharacteristicsGuideChoice(t *testing.T) {
	prompt := basePrompt + `
## Design characteristics
trait: register-imbalance; stage depth ratio 4.8
category: Processor Core
`
	m := New(Profile{Name: "perfect", ContextWindow: 128000, AttnTokens: 6000, Coverage: 1.0}, 5)
	out, _ := m.GenerateContext(context.Background(), GenRequest{Prompt: prompt, Sample: 0})
	if !strings.Contains(out, "-retime") && !strings.Contains(out, "optimize_registers") {
		t.Errorf("imbalance trait should trigger retiming plan:\n%s", out)
	}

	prompt2 := basePrompt + `
## Design characteristics
trait: high-fanout; worst net fanout 69
`
	out2, _ := m.GenerateContext(context.Background(), GenRequest{Prompt: prompt2, Sample: 0})
	if !strings.Contains(out2, "balance_buffers") && !strings.Contains(out2, "set_max_fanout") {
		t.Errorf("fanout trait should trigger buffering plan:\n%s", out2)
	}
}

func TestHallucinationRateCalibrated(t *testing.T) {
	m := New(GPT4o, 99)
	bad := 0
	const n = 200
	for s := 0; s < n; s++ {
		out, _ := m.GenerateContext(context.Background(), GenRequest{Prompt: basePrompt, Sample: s})
		for _, h := range hallucinations {
			if strings.Contains(out, h) {
				bad++
				break
			}
		}
	}
	rate := float64(bad) / n
	if rate < GPT4o.HallucRate-0.12 || rate > GPT4o.HallucRate+0.12 {
		t.Errorf("observed hallucination rate %.2f far from configured %.2f", rate, GPT4o.HallucRate)
	}
}

func TestAttentionDropsMiddle(t *testing.T) {
	m := New(GPT4o, 1)
	long := strings.Repeat("filler ", 20000) // ~35k tokens
	needle := "trait: high-fanout"
	withMiddle := "## Design characteristics\n" + long[:len(long)/2] + needle + long[len(long)/2:]
	secs := Sections(withMiddle)
	att := m.attend(secs["Design characteristics"])
	if strings.Contains(att, needle) {
		t.Error("evidence buried mid-section should be lost to attention")
	}
	short := "## Design characteristics\n" + needle + "\n"
	att2 := m.attend(Sections(short)["Design characteristics"])
	if !strings.Contains(att2, needle) {
		t.Error("short section should be fully attended")
	}
}

func TestSections(t *testing.T) {
	secs := Sections("## A\nline1\n## B\nline2\nline3\n")
	if strings.TrimSpace(secs["A"]) != "line1" {
		t.Errorf("A = %q", secs["A"])
	}
	if !strings.Contains(secs["B"], "line2") || !strings.Contains(secs["B"], "line3") {
		t.Errorf("B = %q", secs["B"])
	}
}

func TestExtractCommands(t *testing.T) {
	cmds := extractCommands(`[strategy xyz]
set_max_fanout 16 [current_design]
compile_ultra -retime
-- WNS 0.00
random prose that is not a command
balance_buffers`)
	if len(cmds) != 3 {
		t.Fatalf("got %d commands: %v", len(cmds), cmds)
	}
	if cmds[1] != "compile_ultra -retime" {
		t.Errorf("cmds[1] = %q", cmds[1])
	}
}

func TestSpliceScript(t *testing.T) {
	out := SpliceScript(`# comment
read_verilog a.v
current_design top
create_clock -period 1.00 clk
compile -map_effort low
report_qor
report_area`, []string{"set_max_fanout 16 [current_design]", "compile_ultra"})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Setup preserved, old compile gone, plan present, reports re-added.
	joined := strings.Join(lines, "\n")
	if strings.Contains(joined, "map_effort low") {
		t.Error("old compile line should be replaced")
	}
	for _, want := range []string{"read_verilog a.v", "create_clock -period 1.00 clk", "compile_ultra", "report_qor"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
}

func TestScoreRelevance(t *testing.T) {
	m := New(GPT4o, 2)
	q := "how to fix high fanout nets with buffer trees"
	relevant := "balance_buffers builds buffer trees on high-fanout nets"
	irrelevant := "create_clock defines the clock period"
	if m.ScoreRelevance(q, relevant) <= m.ScoreRelevance(q, irrelevant) {
		t.Error("relevance scoring failed to rank topical doc higher")
	}
	if m.ScoreRelevance("", "doc") != 0 {
		t.Error("empty query should score 0")
	}
}

func TestStrategyNames(t *testing.T) {
	names := StrategyNames()
	if len(names) != len(strategies) {
		t.Error("StrategyNames incomplete")
	}
	for _, want := range []string{"retime", "fanout", "ungroup", "area"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing strategy %s", want)
		}
	}
}

func TestAugmentWithEvidence(t *testing.T) {
	m := New(Profile{Name: "p", ContextWindow: 128000, AttnTokens: 6000, Coverage: 1}, 1)
	rng := m.rng(hashPrompt("x"), 0)
	// Explicit imbalance adds retiming to a plan that lacks it.
	ev := evidence{explicit: true, imbalance: true}
	out := m.augmentWithEvidence([]string{"compile_ultra"}, ev, rng)
	joined := strings.Join(out, "\n")
	if !strings.Contains(joined, "optimize_registers") {
		t.Errorf("imbalance not augmented: %v", out)
	}
	// A plan that already retimes is left alone.
	out = m.augmentWithEvidence([]string{"compile_ultra -retime"}, ev, rng)
	if len(out) != 1 {
		t.Errorf("retime plan needlessly augmented: %v", out)
	}
	// Fanout evidence adds the constraint before and buffering after.
	ev = evidence{explicit: true, highFanout: true}
	out = m.augmentWithEvidence([]string{"compile_ultra"}, ev, rng)
	if out[0] != "set_max_fanout 16 [current_design]" || out[len(out)-1] != "balance_buffers" {
		t.Errorf("fanout augmentation order wrong: %v", out)
	}
	// Implicit (raw-heuristic) evidence is not trusted for plan edits.
	ev = evidence{explicit: false, imbalance: true}
	out = m.augmentWithEvidence([]string{"compile_ultra"}, ev, rng)
	if len(out) != 1 {
		t.Errorf("implicit evidence must not edit the plan: %v", out)
	}
}

func TestEvidenceExplicitFlag(t *testing.T) {
	m := New(GPT4o, 1)
	withChars := Sections(basePrompt + "\n## Design characteristics\ntrait: high-fanout; worst net fanout 69\n")
	ev := m.readEvidence(withChars)
	if !ev.explicit || !ev.highFanout {
		t.Errorf("explicit characteristics not honored: %+v", ev)
	}
	raw := Sections(basePrompt)
	ev = m.readEvidence(raw)
	if ev.explicit {
		t.Error("raw prompt wrongly marked explicit")
	}
}

// TestScanIdentsMatchesRegexp: the hand-rolled identifier scanner yields
// exactly the token sequence of the regexp it replaced — on every shipped
// design's source (what readEvidence tokenises), on inputs where a digit, a
// symbol or the string's end borders a token, and on non-ASCII and invalid
// UTF-8 bytes, which must separate tokens without joining one.
func TestScanIdentsMatchesRegexp(t *testing.T) {
	reIdent := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	inputs := map[string]string{
		"empty":        "",
		"edges":        "9abc _x a$b",
		"digits only":  "0123 456",
		"digit prefix": "12ab34 5_6 __7",
		"ends in id":   "wire [7:0] data_q",
		"non-ascii":    "módulo über_x Δt naïve_9 日本語abc",
		"invalid utf8": "ab\xffcd \xc3(x1 \xe2\x82y",
	}
	for _, d := range append(designs.Benchmarks(), designs.DatabaseDesigns()...) {
		inputs[d.Name] = d.Source
		inputs[d.Name+" lowered"] = strings.ToLower(d.Source)
	}
	for name, in := range inputs {
		var got []string
		scanIdents(in, func(id string) { got = append(got, id) })
		want := reIdent.FindAllString(in, -1)
		if slices.Equal(got, want) {
			continue
		}
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s: scanIdents yields %d tokens, regexp %d; first difference at token %d: %q vs %q",
			name, len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
	}
}
