package llm

import (
	"context"
	"strings"
	"testing"
)

// readingSeeds are the prompt shapes the pipelines build: the raw one (RTL
// last, enough repeated identifiers for the fanout heuristic), the ChatLS one
// (characteristics and retrieved strategies), and one whose requirement holds
// a line that reads as a header.
var readingSeeds = []string{
	"## Requirement\nImprove timing; close all violations.\n\n## Baseline script\n" +
		"read_verilog d.v\ncurrent_design d\nlink\ncreate_clock -period 2.50 [get_ports clk]\ncompile\n" +
		"\n## Synthesis report\nWNS:   -0.170 ns\nPath 1 slack: -0.170 (VIOLATED)\n" +
		"\n## RTL\nmodule d(input clk, a, output reg y);\nalways @(posedge clk) begin\n" +
		strings.Repeat("y <= y ^ a;\n", 31) + "end\nendmodule\n",
	basePrompt + "\n## Design characteristics\ntrait: high-fanout\ntrait: register-imbalance\n" +
		"\n## Retrieved strategies\n[1] riscv (score 0.91)\nset_max_fanout 16 [current_design]\n" +
		"compile_ultra -retime\noptimize_registers\n[2] aes (score 0.55)\ncompile_ultra\n",
	"## Requirement\nImprove timing.\n## \ncreate_clock -period 99 clk\n\n" +
		strings.TrimPrefix(basePrompt, "## Requirement\nImprove timing; close all violations without changing the clock period.\n\n"),
}

// FuzzReadingReuse: every sample drawn from one Reading, in the fuzzed order
// and with repeats, is the script a fresh GenerateContext draws for it — a
// Reading holds only what the prompt determines, and drawing a sample leaves
// it unchanged.
func FuzzReadingReuse(f *testing.F) {
	for i, p := range readingSeeds {
		f.Add(p, []byte{0, 1, 2, 3, 4}, i%2 == 0)
		f.Add(p, []byte{4, 3, 2, 1, 0, 4, 0}, i%2 == 1)
	}
	f.Fuzz(func(t *testing.T, prompt string, samples []byte, claude bool) {
		m := New(GPT4o, 1)
		if claude {
			m = New(Claude35, 3)
		}
		if len(samples) > 16 {
			samples = samples[:16]
		}
		ctx := context.Background()
		r := m.Read(prompt)
		for _, b := range samples {
			got, err := r.Generate(ctx, int(b))
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.GenerateContext(ctx, GenRequest{Prompt: prompt, Sample: int(b)})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("sample %d from a shared reading:\n got %q\nwant %q", b, got, want)
			}
		}
	})
}

// TestReadingHonoursContext: a cancelled context stops Generate before it
// draws the sample, as it stops GenerateContext.
func TestReadingHonoursContext(t *testing.T) {
	m := New(GPT4o, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := m.Read(basePrompt)
	if _, err := r.Generate(ctx, 0); err != context.Canceled {
		t.Errorf("Generate on a cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := m.GenerateContext(ctx, GenRequest{Prompt: basePrompt}); err != context.Canceled {
		t.Errorf("GenerateContext on a cancelled context: err = %v, want context.Canceled", err)
	}
}
