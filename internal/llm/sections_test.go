package llm

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"strings"
	"testing"
)

// sectionsOracle is the line-copying splitter Sections replaced, with its one
// bug fixed: text before the first header, or under a header whose name is
// empty, used to stay in the buffer and land at the head of the next named
// section. Here it belongs to no section.
func sectionsOracle(prompt string) map[string]string {
	out := make(map[string]string)
	var cur string
	var buf strings.Builder
	flush := func() {
		if cur != "" {
			out[cur] = buf.String()
		}
		buf.Reset()
	}
	for _, line := range strings.Split(prompt, "\n") {
		if strings.HasPrefix(line, "## ") {
			flush()
			cur = strings.TrimSpace(strings.TrimPrefix(line, "## "))
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
	}
	flush()
	return out
}

var sectionSeeds = []string{
	basePrompt,
	"",
	"\n",
	"## A\nline1\n## B\nline2\nline3\n",
	"## A\r\nline1\r\n## B\r\nline2\r\n",       // CRLF
	"## A\nno trailing newline",                // no trailing newline
	"## A\nbody\n## Last",                      // a header as the last line
	"## A\nbody\n## Last\n",                    // ... with its newline
	"## A\nfirst\n## B\nb\n## A\nsecond\n",     // duplicate headers
	"##x\n## A\n##x not a header\n",            // "##x" is text
	"preamble\n## A\na\n",                      // text before the first header
	"## A\na\n## \nstray\n## B\nb\n",           // empty-named header
	"## A\na\n##  \t\nstray\n## B\nb\n",        // blank name after trimming
	"## Requirement\nx\n\n## \ncreate_clock\n", // the regression below
}

// TestSectionsMatchesOracle pins Sections to the fixed line-copying splitter
// on the seed prompts; FuzzSections extends the comparison.
func TestSectionsMatchesOracle(t *testing.T) {
	for _, p := range sectionSeeds {
		if got, want := Sections(p), sectionsOracle(p); !maps.Equal(got, want) {
			t.Errorf("Sections(%q)\n got %q\nwant %q", p, got, want)
		}
	}
}

func FuzzSections(f *testing.F) {
	for _, p := range sectionSeeds {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, prompt string) {
		if got, want := Sections(prompt), sectionsOracle(prompt); !maps.Equal(got, want) {
			t.Fatalf("Sections(%q)\n got %q\nwant %q", prompt, got, want)
		}
	})
}

// TestEmptyHeaderTextBelongsToNoSection: a requirement can hold a line that
// reads as a header with no name. What follows it is no section's text — it
// used to be prepended to "Baseline script", from which SpliceScript keeps
// every create_clock line, so a requirement could rewrite the clock.
func TestEmptyHeaderTextBelongsToNoSection(t *testing.T) {
	requirement := "Improve timing.\n## \ncreate_clock -period 99 clk"
	baseline := "read_verilog d.v\ncurrent_design d\nlink\ncreate_clock -period 2.50 [get_ports clk]\ncompile\n"
	prompt := "## Requirement\n" + requirement + "\n\n## Baseline script\n" + baseline +
		"\n## Synthesis report\nWNS: -0.170 ns\n"
	secs := Sections(prompt)
	if got := secs["Baseline script"]; got != baseline+"\n" {
		t.Errorf("Baseline script section = %q, want the baseline alone", got)
	}
	if got := secs["Requirement"]; got != "Improve timing.\n" {
		t.Errorf("Requirement section = %q", got)
	}
	m := New(GPT4o, 1)
	for s := 0; s < 5; s++ {
		out, _ := m.GenerateContext(context.Background(), GenRequest{Prompt: prompt, Sample: s})
		if strings.Contains(out, "-period 99") {
			t.Fatalf("sample %d took the clock from the requirement:\n%s", s, out)
		}
		if !strings.Contains(out, "create_clock -period 2.50") {
			t.Fatalf("sample %d lost the baseline clock:\n%s", s, out)
		}
	}
}

// TestRNGMatchesFNVStream: the sampling stream is seeded with the FNV-64a
// hash of the prompt and "|profile|seed|sample", computed in two parts — the
// prompt's state once (hashPrompt), the suffix per sample (rng) — and into a
// recycled source; it must be the stream a fresh source seeded with the
// hash/fnv digest of prompt and suffix yields, including after the source was
// used for another sample and when samples reuse one prompt state.
func TestRNGMatchesFNVStream(t *testing.T) {
	m := New(Claude35, -42)
	for _, prompt := range []string{"", "x", basePrompt, "## A\nmódulo\n"} {
		h := hashPrompt(prompt)
		for _, sample := range []int{0, 1, 4, 1 << 40} {
			d := fnv.New64a()
			d.Write([]byte(prompt))
			fmt.Fprintf(d, "|%s|%d|%d", m.Profile.Name, m.Seed, sample)
			want := rand.New(rand.NewSource(int64(d.Sum64())))
			got := m.rng(h, sample)
			for i := 0; i < 8; i++ {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("prompt %q sample %d: draw %d = %d, want %d", prompt, sample, i, g, w)
				}
			}
			rngs.Put(got)
		}
	}
}
