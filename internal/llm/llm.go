// Package llm implements the simulated large language model that stands in
// for GPT-4o / Claude 3.5 Sonnet in the reproduction. The paper's claims are
// about pipeline structure — retrieval grounding plus chain-of-thought
// validation beating raw prompting — not about any specific model's weights,
// so the substitute reproduces the *failure modes* the paper attributes to
// raw LLMs and the *mechanisms* by which grounding fixes them:
//
//   - The model is a text-driven policy: it acts only on evidence present in
//     its prompt. What the pipeline puts in the prompt is the whole
//     difference between the baselines and ChatLS.
//   - Long sections are read with head+tail attention: content in the middle
//     of an oversized section is invisible ("lost in the middle").
//   - Domain knowledge is an imperfect map from design evidence to synthesis
//     commands; per-profile coverage controls how often it is recalled.
//   - Hallucination injects plausible-but-invalid commands and options at a
//     calibrated per-sample rate; nothing downstream is told which lines are
//     wrong — only validation against the tool manual can catch them.
//   - Retrieved strategy text in the prompt is preferred over internal
//     knowledge, which is exactly how RAG grounding narrows the model's
//     choices.
//
// Generation is seeded and deterministic given (profile, seed, prompt,
// sample index), so every experiment is reproducible. It runs in two parts:
// Model.Read takes from the prompt everything that depends on it alone, and
// Reading.Generate draws one sample, so the k samples of a Pass@k request
// can share one reading of their prompt.
package llm

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Profile calibrates one simulated model.
type Profile struct {
	Name          string
	ContextWindow int     // total prompt budget, tokens
	AttnTokens    int     // per-section attention budget (head+tail reading)
	Coverage      float64 // probability of recalling the right command mapping
	HallucRate    float64 // probability of emitting an invalid command per sample
	OptionNoise   float64 // probability of corrupting an option per sample
}

// The evaluated profiles. ChatLS uses GPT4o as its generator (as in the
// paper); the pipelines differ, not the generator.
var (
	GPT4o = Profile{
		Name: "gpt-4o-sim", ContextWindow: 128000, AttnTokens: 6000,
		Coverage: 0.55, HallucRate: 0.28, OptionNoise: 0.22,
	}
	Claude35 = Profile{
		Name: "claude-3.5-sonnet-sim", ContextWindow: 128000, AttnTokens: 7000,
		Coverage: 0.52, HallucRate: 0.30, OptionNoise: 0.24,
	}
)

// Model is a seeded simulated LLM.
type Model struct {
	Profile Profile
	Seed    int64
}

// New creates a model instance.
func New(p Profile, seed int64) *Model { return &Model{Profile: p, Seed: seed} }

// truncateTokens keeps roughly the first n tokens of text.
func truncateTokens(text string, n int) string {
	limit := n * 4
	if len(text) <= limit {
		return text
	}
	return text[:limit]
}

// attend returns the part of a section the model actually reads: the whole
// text when it fits the attention budget, otherwise the head and tail with
// the middle dropped.
func (m *Model) attend(section string) string {
	budget := m.Profile.AttnTokens * 4
	if len(section) <= budget {
		return section
	}
	head := budget * 3 / 5
	tail := budget - head
	return section[:head] + "\n... [middle of section not attended] ...\n" + section[len(section)-tail:]
}

// rngs recycles the sampling streams: a math/rand source is 4.9 kB, and
// seeding one in place yields exactly the stream a new one would.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

const fnvPrime64 = 1099511628211

// hashPrompt returns the FNV-64a state after the prompt's bytes: the part of
// every sample's seed that depends on the prompt alone.
func hashPrompt(prompt string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(prompt); i++ {
		h = (h ^ uint64(prompt[i])) * fnvPrime64
	}
	return h
}

// rng derives the deterministic sampling stream for one generation: a source
// seeded with the FNV-64a hash of the prompt followed by
// "|profile|seed|sample", continued here from h, the prompt's state
// (hashPrompt). The caller may hand it back to rngs when done.
func (m *Model) rng(h uint64, sample int) *rand.Rand {
	var buf [64]byte
	suffix := append(buf[:0], '|')
	suffix = append(suffix, m.Profile.Name...)
	suffix = append(suffix, '|')
	suffix = strconv.AppendInt(suffix, m.Seed, 10)
	suffix = append(suffix, '|')
	suffix = strconv.AppendInt(suffix, int64(sample), 10)
	for _, b := range suffix {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	r := rngs.Get().(*rand.Rand)
	r.Seed(int64(h))
	return r
}

// Sections splits a prompt into its "## Header" sections. A section is the
// lines between its header and the next, each with its "\n"; text before
// the first header or under a header with an empty name belongs to no
// section, and a repeated header keeps its last section. Every section but
// the prompt's last is a substring of the prompt.
func Sections(prompt string) map[string]string {
	out := make(map[string]string)
	cur, body := "", 0 // the open section and where its body starts
	for pos := 0; ; {
		end := strings.IndexByte(prompt[pos:], '\n')
		if end < 0 {
			end = len(prompt)
		} else {
			end += pos
		}
		if line := prompt[pos:end]; strings.HasPrefix(line, "## ") {
			if cur != "" {
				out[cur] = prompt[body:pos]
			}
			cur, body = strings.TrimSpace(line[len("## "):]), end+1
		}
		if end == len(prompt) {
			break
		}
		pos = end + 1
	}
	if cur != "" {
		// The last section runs to the end of the prompt, and its last line
		// gets the "\n" the prompt may not have. A header on the last line
		// has no lines under it.
		if body > len(prompt) {
			out[cur] = ""
		} else {
			out[cur] = prompt[body:] + "\n"
		}
	}
	return out
}

// Strategy names the command plans the model can choose between. These are
// the plans an application engineer would consider; which one is right
// depends on the design, which is the whole customization problem.
type strategy struct {
	name  string
	lines []string
}

var strategies = map[string]strategy{
	"effort":  {"effort", []string{"compile_ultra"}},
	"retime":  {"retime", []string{"compile_ultra -retime", "optimize_registers"}},
	"fanout":  {"fanout", []string{"set_max_fanout 16 [current_design]", "compile_ultra", "balance_buffers"}},
	"ungroup": {"ungroup", []string{"ungroup -all -flatten", "compile_ultra -retime"}},
	"deep":    {"deep", []string{"compile_ultra -timing_high_effort_script"}},
	"area":    {"area", []string{"compile_ultra -area_high_effort_script"}},
	"generic": {"generic", []string{"compile"}},
}

// evidence is what the model extracted from the prompt about the design.
type evidence struct {
	violated     bool
	wns          float64
	highFanout   bool
	imbalance    bool
	hierOverhead bool
	deepSerial   bool
	meets        bool
	wantsArea    bool
	wantsTiming  bool
	// explicit marks evidence sourced from a provided characteristics
	// section (CircuitMentor output) rather than the model's own heuristics
	// over raw RTL — explicit evidence is far more reliable to act on.
	explicit bool
}

var (
	reWNS       = regexp.MustCompile(`WNS:?\s*(-?\d+\.\d+)`)
	reTraitLine = regexp.MustCompile(`trait:\s*([a-z-]+)`)
)

// scanIdents calls fn with each identifier in s, in order: the maximal runs
// matching [A-Za-z_][A-Za-z0-9_]*, exactly as a leftmost regexp search finds
// them (so "9abc" yields "abc"). Identifier bytes are ASCII, and no byte of a
// multi-byte UTF-8 sequence is, so a byte scan cannot split or extend a token.
func scanIdents(s string, fn func(id string)) {
	for i := 0; i < len(s); {
		if !identByte(s[i]) || isDigit(s[i]) {
			i++
			continue
		}
		start := i
		for i < len(s) && identByte(s[i]) {
			i++
		}
		fn(s[start:i])
	}
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

func identByte(b byte) bool {
	return 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || b == '_' || isDigit(b)
}

// readEvidence scans the attended prompt sections for design signals. The
// characteristics section (when the pipeline provides one) is authoritative;
// otherwise the model falls back to crude heuristics over the report and the
// visible part of the RTL — the raw-prompting weakness the paper describes.
func (m *Model) readEvidence(secs map[string]string) evidence {
	var ev evidence
	req := strings.ToLower(secs["Requirement"])
	ev.wantsTiming = strings.Contains(req, "optimize timing") || strings.Contains(req, "close") ||
		strings.Contains(req, "slack") || strings.Contains(req, "violation")
	ev.wantsArea = strings.Contains(req, "area") || strings.Contains(req, "smaller")

	report := m.attend(secs["Synthesis report"])
	if mm := reWNS.FindStringSubmatch(report); mm != nil {
		fmt.Sscanf(mm[1], "%g", &ev.wns)
		ev.violated = ev.wns < 0
		ev.meets = ev.wns >= 0
	}
	if strings.Contains(report, "VIOLATED") {
		ev.violated = true
	}

	if chars, ok := secs["Design characteristics"]; ok {
		ev.explicit = true
		for _, mm := range reTraitLine.FindAllStringSubmatch(m.attend(chars), -1) {
			switch mm[1] {
			case "high-fanout":
				ev.highFanout = true
			case "register-imbalance":
				ev.imbalance = true
			case "hierarchy-overhead":
				ev.hierOverhead = true
			case "deep-serial-logic":
				ev.deepSerial = true
			}
		}
		return ev
	}

	// Raw-prompt heuristics over whatever RTL is visible.
	rtl := m.attend(secs["RTL"])
	if rtl != "" {
		counts := make(map[string]int)
		scanIdents(rtl, func(id string) { counts[id]++ })
		for id, n := range counts {
			if n > 60 && !verilogKeyword(id) {
				ev.highFanout = true
				_ = id
				break
			}
		}
		modCount := strings.Count(rtl, "endmodule")
		invCount := strings.Count(rtl, "~")
		if modCount > 8 && invCount > 3*modCount {
			ev.hierOverhead = true
		}
		regCount := strings.Count(rtl, "<=")
		if regCount > 4 && strings.Count(rtl, "always") >= 1 &&
			strings.Contains(rtl, "+") && modCount <= 4 {
			// Several pipeline registers around arithmetic: maybe imbalance.
			ev.imbalance = true
		}
	}
	// Path shape from the report: startpoint at an input and endpoint at an
	// output with many stages suggests an unretimable serial cone.
	if strings.Contains(report, "Startpoint: ") && !strings.Contains(report, "/CK") &&
		strings.Count(report, "arr ") > 25 {
		ev.deepSerial = true
	}
	return ev
}

func verilogKeyword(id string) bool {
	switch id {
	case "input", "output", "wire", "reg", "assign", "module", "endmodule",
		"always", "posedge", "begin", "end", "clk", "if", "else":
		return true
	}
	return false
}

// pickStrategy maps evidence to a command plan through the imperfect
// knowledge base. Retrieved strategies (if any) dominate.
func (m *Model) pickStrategy(secs map[string]string, ev evidence, rng *rand.Rand) []string {
	// An area-focused requirement on a design that already meets timing
	// overrides retrieved exemplars: the exemplars encode how their designs
	// closed timing, not what this user asked for.
	if ev.meets && ev.wantsArea && !ev.wantsTiming {
		return strategies["area"].lines
	}
	if retr, ok := secs["Retrieved strategies"]; ok && strings.TrimSpace(retr) != "" {
		if cmds := extractCommands(m.attend(retr)); len(cmds) > 0 && rng.Float64() < 0.92 {
			// The retrieved expert plan is adopted, then cross-checked
			// against the design characteristics: commands the analysis
			// indicates but the exemplar lacked are added — the exemplar's
			// design did not necessarily share every trait.
			return m.augmentWithEvidence(cmds, ev, rng)
		}
	}
	// Acting on evidence requires both recalling the mapping and trusting
	// the evidence: explicit CircuitMentor characteristics are near-certain,
	// heuristic impressions over raw RTL much less so.
	conf := m.Profile.Coverage * 0.6
	if ev.explicit {
		conf = m.Profile.Coverage * 1.7
		if conf > 0.98 {
			conf = 0.98
		}
	}
	if rng.Float64() >= conf {
		// The model does not recall (or trust) the specific mapping:
		// generic escalation, weighted toward plain compile.
		if ev.violated {
			return pickFrom(rng,
				strategies["generic"].lines, strategies["generic"].lines,
				strategies["effort"].lines, strategies["deep"].lines)
		}
		return pickFrom(rng,
			strategies["generic"].lines, strategies["generic"].lines,
			strategies["area"].lines, strategies["effort"].lines)
	}
	switch {
	case ev.violated && ev.highFanout:
		return m.augmentWithEvidence(strategies["fanout"].lines, ev, rng)
	case ev.violated && ev.imbalance:
		return m.augmentWithEvidence(strategies["retime"].lines, ev, rng)
	case ev.violated && ev.hierOverhead:
		return m.augmentWithEvidence(strategies["ungroup"].lines, ev, rng)
	case ev.violated && ev.deepSerial:
		return strategies["deep"].lines
	case ev.violated:
		return strategies["effort"].lines
	case ev.meets && ev.wantsArea:
		return strategies["area"].lines
	case ev.meets && ev.wantsTiming:
		return m.augmentWithEvidence(strategies["deep"].lines, ev, rng)
	}
	return strategies["effort"].lines
}

// augmentWithEvidence adds the commands that explicit design
// characteristics indicate but the plan lacks. Only explicit
// (CircuitMentor-provided) evidence is trusted enough to edit a plan.
func (m *Model) augmentWithEvidence(cmds []string, ev evidence, rng *rand.Rand) []string {
	if !ev.explicit || rng.Float64() > 0.93 {
		return cmds
	}
	joined := strings.Join(cmds, "\n")
	has := func(sub string) bool { return strings.Contains(joined, sub) }
	var pre, post []string
	if ev.highFanout && !has("set_max_fanout") && !has("balance_buffers") {
		pre = append(pre, "set_max_fanout 16 [current_design]")
		post = append(post, "balance_buffers")
	}
	if ev.imbalance && !has("-retime") && !has("optimize_registers") {
		post = append(post, "optimize_registers")
	}
	if ev.hierOverhead && !has("ungroup") && !has("compile_ultra") {
		pre = append(pre, "ungroup -all -flatten")
	}
	if len(pre) == 0 && len(post) == 0 {
		return cmds
	}
	out := append(pre, cmds...)
	return append(out, post...)
}

func pickFrom(rng *rand.Rand, options ...[]string) []string {
	return options[rng.Intn(len(options))]
}

// extractCommands pulls the command lines of the top-ranked strategy block
// out of a retrieved-strategies section (blocks are ranked best-first; the
// model adopts the best one rather than concatenating plans).
func extractCommands(text string) []string {
	var out []string
	blocks := 0
	for _, line := range strings.Split(text, "\n") {
		l := strings.TrimSpace(line)
		if strings.HasPrefix(l, "[") {
			blocks++
			if blocks > 1 && len(out) > 0 {
				break
			}
			continue
		}
		if l == "" || strings.HasPrefix(l, "--") || strings.HasPrefix(l, "#") {
			continue
		}
		first := strings.Fields(l)
		if len(first) == 0 {
			continue
		}
		switch first[0] {
		case "compile", "compile_ultra", "optimize_registers", "balance_buffers",
			"set_max_fanout", "ungroup", "set_max_area", "set_dont_touch", "uniquify":
			out = append(out, l)
		}
	}
	return out
}

// hallucinations are the plausible-but-invalid lines raw models emit:
// commands that do not exist or options from other tools.
var hallucinations = []string{
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
}

// corruptOption damages a valid command line the way option-level
// hallucination does (wrong option name, wrong value spelling).
func corruptOption(line string, rng *rand.Rand) string {
	swaps := [][2]string{
		{"-map_effort medium", "-map_effort turbo"},
		{"-retime", "-retiming"},
		{"-area_high_effort_script", "-area_effort_high"},
		{"-timing_high_effort_script", "-timing_effort_high"},
		{"set_max_fanout 16", "set_max_fanout max"},
		{"compile_ultra", "compile_ultra -exact_map"},
	}
	s := swaps[rng.Intn(len(swaps))]
	if strings.Contains(line, s[0]) {
		return strings.Replace(line, s[0], s[1], 1)
	}
	if strings.HasPrefix(line, "compile_ultra") && rng.Float64() < 0.5 {
		return line + " -exact_map"
	}
	return line
}

// GenRequest is one generation call.
type GenRequest struct {
	Prompt string
	Sample int // Pass@k sample index
}

// GenerateContext produces a customized synthesis script for the prompt.
// The prompt must contain a "Baseline script" section; its constraint lines
// are preserved (the evaluation forbids changing the clock), and its compile
// and post-compile lines are replaced by the chosen strategy. The context is
// checked before the prompt is read and again before a sample is drawn, so a
// cancelled or timed-out request stops early instead of completing the
// sample. It is m.Read(req.Prompt).Generate(ctx, req.Sample). The only
// possible error is the context's.
func (m *Model) GenerateContext(ctx context.Context, req GenRequest) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	r := m.Read(req.Prompt)
	return r.Generate(ctx, req.Sample)
}

// Reading is what a model takes from one prompt before it draws any sample:
// the prompt's sections, the design evidence in them and the prompt's part
// of the sampling seed. Pass@k samples of one prompt differ only in their
// sample index, so they can share one Reading. Obtain it from Model.Read; a
// Reading is never modified after, so concurrent Generate calls are safe.
type Reading struct {
	m    Model
	secs map[string]string
	ev   evidence
	h    uint64 // FNV-64a state after the prompt's bytes
}

// Read does all of a generation's work that depends on the prompt alone:
// it splits the prompt the model's context window admits into sections,
// reads the design evidence from them and hashes the whole prompt.
func (m *Model) Read(prompt string) Reading {
	secs := Sections(truncateTokens(prompt, m.Profile.ContextWindow))
	return Reading{m: *m, secs: secs, ev: m.readEvidence(secs), h: hashPrompt(prompt)}
}

// Generate draws sample's script from the reading: the sample's seed, the
// strategy choice, hallucination and option noise, spliced into the
// prompt's baseline script. The result is the script Model.GenerateContext
// returns for the read prompt and sample. The only possible error is the
// context's, checked before the sample is drawn.
func (r *Reading) Generate(ctx context.Context, sample int) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	rng := r.m.rng(r.h, sample)
	defer rngs.Put(rng)
	plan := append([]string(nil), r.m.pickStrategy(r.secs, r.ev, rng)...)

	// Hallucination: insert an invalid command or corrupt an option.
	if rng.Float64() < r.m.Profile.HallucRate {
		pos := rng.Intn(len(plan) + 1)
		plan = append(plan[:pos], append([]string{hallucinations[rng.Intn(len(hallucinations))]}, plan[pos:]...)...)
	}
	if rng.Float64() < r.m.Profile.OptionNoise {
		idx := rng.Intn(len(plan))
		plan[idx] = corruptOption(plan[idx], rng)
	}

	return SpliceScript(r.secs["Baseline script"], plan), nil
}

// SpliceScript rebuilds a script around a new optimization plan: setup and
// constraint lines of the baseline are kept in order, the compile and
// post-compile optimization lines are replaced by the plan, and reports are
// re-emitted at the end.
func SpliceScript(baseline string, plan []string) string {
	var setup []string
	for _, line := range strings.Split(baseline, "\n") {
		l := strings.TrimSpace(line)
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		cmd := strings.Fields(l)[0]
		switch cmd {
		case "read_verilog", "current_design", "link", "set_wire_load_model",
			"create_clock", "set_input_delay", "set_output_delay", "set":
			setup = append(setup, l)
		}
	}
	var b strings.Builder
	b.WriteString("# customized synthesis script\n")
	for _, l := range setup {
		b.WriteString(l)
		b.WriteString("\n")
	}
	// Constraint-style plan lines (set_max_fanout, ungroup) come before the
	// compile command; order within the plan is preserved otherwise.
	for _, l := range plan {
		b.WriteString(l)
		b.WriteString("\n")
	}
	b.WriteString("report_qor\nreport_timing -max_paths 3\nreport_area\n")
	return b.String()
}

// ScoreRelevance is the "LLM as reranker" interface SynthRAG uses for
// manual retrieval: the model scores how relevant a document is to a query
// by lexical overlap of its attended text — a deterministic stand-in for
// GPT-4o reranking.
func (m *Model) ScoreRelevance(query, doc string) float64 {
	q := tokenSet(strings.ToLower(m.attend(query)))
	d := tokenSet(strings.ToLower(m.attend(doc)))
	if len(q) == 0 || len(d) == 0 {
		return 0
	}
	inter := 0
	for t := range q {
		if d[t] {
			inter++
		}
	}
	return float64(inter) / float64(len(q))
}

func tokenSet(s string) map[string]bool {
	out := make(map[string]bool)
	scanIdents(s, func(t string) { out[t] = true })
	return out
}

// StrategyNames lists the internal plan names (for tests and docs).
func StrategyNames() []string {
	names := make([]string, 0, len(strategies))
	for n := range strategies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
