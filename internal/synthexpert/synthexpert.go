// Package synthexpert implements SynthExpert (paper §IV-C): the
// chain-of-thought mechanism that iteratively refines a drafted synthesis
// script. Every reasoning step formulates a retrieval query, fetches the
// pertinent information through SynthRAG (manual sections, command specs,
// constraints), and revises the step with it (Eq. 6) — which is what turns
// hallucinated or incompatible commands into executable ones and repairs
// ordering mistakes, instead of letting the script die in the tool.
package synthexpert

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/llm"
	"repro/internal/synth"
	"repro/internal/synthrag"
)

// Step records one chain-of-thought step: the thought, the retrieval query
// it formulated, what was retrieved, and the revision it produced.
type Step struct {
	Thought   string
	Query     string
	Retrieved string // manual doc ID, or ""
	Before    string
	After     string // "" means the line was dropped
}

// Expert binds the generator model to the retrieval database.
type Expert struct {
	Model *llm.Model
	DB    *synthrag.Database
}

// New creates a SynthExpert instance.
func New(model *llm.Model, db *synthrag.Database) *Expert {
	return &Expert{Model: model, DB: db}
}

// RefineContext runs the CoT revision loop over a drafted script. baseline
// is the original script whose constraints must survive (the evaluation
// forbids changing the clock). It returns the revised script and the
// reasoning steps taken. Every reasoning step issues a retrieval query under
// ctx, and the context is checked once per revised line and between the
// revision phases. On cancellation it returns the steps taken so far along
// with the context's error.
func (e *Expert) RefineContext(ctx context.Context, draft, baseline string) (string, []Step, error) {
	var steps []Step
	lines := scriptLines(draft)

	// Step 1: constraints must be intact. Rebuild the preamble in baseline
	// order — the draft's version of each constraint wins when present, and
	// anything the draft lost is restored from the baseline.
	constraintCmds := map[string]bool{
		"read_verilog": true, "current_design": true, "link": true,
		"set_wire_load_model": true, "create_clock": true,
		"set_input_delay": true, "set_output_delay": true,
	}
	draftFor := map[string]string{}
	for _, l := range lines {
		c := cmdOf(l)
		if constraintCmds[c] {
			if _, dup := draftFor[c]; !dup {
				draftFor[c] = l
			}
		}
	}
	var preamble []string
	var restored []string
	for _, bl := range scriptLines(baseline) {
		c := cmdOf(bl)
		if !constraintCmds[c] {
			continue
		}
		if dl, ok := draftFor[c]; ok {
			preamble = append(preamble, dl)
			continue
		}
		preamble = append(preamble, bl)
		restored = append(restored, bl)
	}
	var body []string
	for _, l := range lines {
		if !constraintCmds[cmdOf(l)] {
			body = append(body, l)
		}
	}
	lines = append(preamble, body...)
	if len(restored) > 0 {
		steps = append(steps, Step{
			Thought:   "verify design constraints are preserved",
			Query:     "create_clock constraints wireload",
			Retrieved: "guide/wireload",
			Before:    "(missing constraint lines)",
			After:     strings.Join(restored, "; "),
		})
	}

	// Step 2..n: validate every command line against the manual, revising
	// hallucinated commands and incompatible options via retrieval.
	revised := make([]string, 0, len(lines))
	for _, line := range lines {
		if err := ctx.Err(); err != nil {
			return "", steps, err
		}
		newLine, step, err := e.reviseLine(ctx, line)
		if err != nil {
			return "", steps, err
		}
		if step != nil {
			steps = append(steps, *step)
		}
		if newLine != "" {
			revised = append(revised, newLine)
		}
	}
	lines = revised
	if err := ctx.Err(); err != nil {
		return "", steps, err
	}

	// Deduplicate: revision can map a hallucinated line onto a command the
	// script already contains, and single-instance constraints must not
	// repeat.
	lines = dedupLines(lines)

	// Ordering step: post-compile optimizations need a compile first, and
	// the script must actually compile the design.
	lines, ordSteps := e.fixOrdering(lines)
	steps = append(steps, ordSteps...)

	// Reporting step: the iteration loop needs report output.
	if !containsCmd(lines, "report_qor") {
		lines = append(lines, "report_qor")
		steps = append(steps, Step{
			Thought: "ensure QoR feedback is reported for the next iteration",
			Query:   "report_qor",
			After:   "report_qor",
		})
	}

	return strings.Join(lines, "\n") + "\n", steps, nil
}

func scriptLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		l = strings.TrimSpace(l)
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		out = append(out, l)
	}
	return out
}

func cmdOf(line string) string {
	f := strings.Fields(line)
	if len(f) == 0 {
		return ""
	}
	return f[0]
}

// dedupLines removes exact repeated lines and repeated single-instance
// constraint commands (the first occurrence wins).
func dedupLines(lines []string) []string {
	singleInstance := map[string]bool{
		"create_clock": true, "set_wire_load_model": true, "set_max_fanout": true,
		"set_max_area": true, "set_input_delay": true, "set_output_delay": true,
		"current_design": true, "link": true,
	}
	seenLine := map[string]bool{}
	seenCmd := map[string]bool{}
	out := lines[:0]
	for _, l := range lines {
		c := cmdOf(l)
		if seenLine[l] {
			continue
		}
		if singleInstance[c] && seenCmd[c] {
			continue
		}
		seenLine[l] = true
		seenCmd[c] = true
		out = append(out, l)
	}
	// Back-to-back compile commands are redundant: the later (usually the
	// revision's stronger one) subsumes the earlier.
	isCompile := func(l string) bool {
		c := cmdOf(l)
		return c == "compile" || c == "compile_ultra"
	}
	dedup := out[:0]
	for i, l := range out {
		if isCompile(l) && i+1 < len(out) && isCompile(out[i+1]) {
			continue
		}
		dedup = append(dedup, l)
	}
	return dedup
}

func containsCmd(lines []string, cmd string) bool {
	for _, l := range lines {
		if cmdOf(l) == cmd {
			return true
		}
	}
	return false
}

// reviseLine checks one command line against the tool manual and revises it
// using documentation retrieved under ctx when it is invalid. Returns the
// revised line ("" to drop) and the reasoning step (nil when the line was
// fine); the only possible error is the context's.
func (e *Expert) reviseLine(ctx context.Context, line string) (string, *Step, error) {
	name := cmdOf(line)
	spec := synth.Commands[name]
	if spec != nil {
		// An option that belongs to a sibling command means the model
		// confused commands (compile -retime): switch to the command that
		// actually documents the option.
		if sibling := siblingByOption(line, spec); sibling != nil {
			rebuilt := rebuildLine(line, sibling.Name, sibling)
			return rebuilt, &Step{
				Thought:   fmt.Sprintf("option is documented under %s, not %s", sibling.Name, name),
				Query:     line,
				Retrieved: "cmd/" + sibling.Name,
				Before:    line,
				After:     rebuilt,
			}, nil
		}
		fixed, changed := fixOptions(line, spec)
		if !changed {
			return line, nil, nil
		}
		return fixed, &Step{
			Thought:   fmt.Sprintf("option check for %s against its manual entry", name),
			Query:     line,
			Retrieved: "cmd/" + name,
			Before:    line,
			After:     fixed,
		}, nil
	}
	// Unknown command: retrieve the closest manual section and rebuild the
	// line around the documented command. Among candidates, a command
	// sharing the first word of the hallucinated name (set_*, balance_*)
	// is preferred.
	hits, err := e.DB.SearchManualContext(ctx, line, 5, e.Model)
	if err != nil {
		return "", nil, err
	}
	var target string
	var retrieved string
	prefix := strings.SplitN(name, "_", 2)[0]
	for _, h := range hits {
		if !strings.HasPrefix(h.Doc.ID, "cmd/") {
			continue
		}
		cand := strings.TrimPrefix(h.Doc.ID, "cmd/")
		if target == "" {
			target, retrieved = cand, h.Doc.ID
		}
		if strings.SplitN(cand, "_", 2)[0] == prefix {
			target, retrieved = cand, h.Doc.ID
			break
		}
	}
	step := &Step{
		Thought:   fmt.Sprintf("command %q is not in the tool manual; retrieve the intended command", name),
		Query:     line,
		Retrieved: retrieved,
		Before:    line,
	}
	if target == "" {
		return "", step, nil // nothing close: drop the line
	}
	tspec := synth.Commands[target]
	rebuilt := rebuildLine(line, target, tspec)
	step.After = rebuilt
	return rebuilt, step, nil
}

// siblingByOption returns another command's spec when the line carries an
// option that the current command lacks but the sibling documents exactly.
func siblingByOption(line string, spec *synth.CommandSpec) *synth.CommandSpec {
	for _, tok := range strings.Fields(line)[1:] {
		if !strings.HasPrefix(tok, "-") || isNumeric(tok) || spec.Opt(tok) != nil {
			continue
		}
		for _, name := range synth.CommandNames() {
			other := synth.Commands[name]
			if other.Name != spec.Name && other.Opt(tok) != nil {
				return other
			}
		}
	}
	return nil
}

// fixOptions repairs near-miss options (e.g. -retiming for -retime) and
// drops unknown ones; numeric arguments are sanity-checked.
func fixOptions(line string, spec *synth.CommandSpec) (string, bool) {
	fields := strings.Fields(line)
	out := []string{spec.Name}
	changed := false
	for i := 1; i < len(fields); i++ {
		tok := fields[i]
		if strings.HasPrefix(tok, "-") && !isNumeric(tok) {
			if spec.Opt(tok) != nil {
				out = append(out, tok)
				if o := spec.Opt(tok); o.HasArg && i+1 < len(fields) {
					i++
					out = append(out, fields[i])
				}
				continue
			}
			changed = true
			if near := nearestOption(tok, spec); near != nil {
				out = append(out, near.Name)
				if near.HasArg && i+1 < len(fields) && !strings.HasPrefix(fields[i+1], "-") {
					i++
					out = append(out, fields[i])
				}
				continue
			}
			// Unknown option with no near match: drop it (and a trailing
			// value that clearly belonged to it).
			if i+1 < len(fields) && !strings.HasPrefix(fields[i+1], "-") && !looksPositional(spec, fields[i+1]) {
				i++
			}
			continue
		}
		out = append(out, tok)
	}
	// Numeric-argument sanity for constraint commands.
	if spec.Name == "set_max_fanout" || spec.Name == "set_max_area" {
		fixedArg := false
		for j := 1; j < len(out); j++ {
			if strings.HasPrefix(out[j], "-") || strings.HasPrefix(out[j], "[") {
				continue
			}
			if _, err := strconv.ParseFloat(out[j], 64); err != nil {
				out[j] = "16"
				changed = true
			}
			fixedArg = true
			break
		}
		if !fixedArg {
			out = append(out, "16")
			changed = true
		}
	}
	return strings.Join(out, " "), changed
}

func looksPositional(spec *synth.CommandSpec, tok string) bool {
	if spec.MaxArgs == 0 {
		return false
	}
	return strings.HasPrefix(tok, "[") || isNumeric(tok)
}

func isNumeric(tok string) bool {
	_, err := strconv.ParseFloat(tok, 64)
	return err == nil
}

// nearestOption finds a spec option sharing a long common prefix with the
// bad token (catches -retiming vs -retime, -area_effort_high vs
// -area_high_effort_script).
func nearestOption(tok string, spec *synth.CommandSpec) *synth.OptSpec {
	var best *synth.OptSpec
	bestLen := 3 // require > 3 common chars after the dash
	for i := range spec.Opts {
		o := &spec.Opts[i]
		n := commonPrefix(tok, o.Name)
		if n > bestLen {
			bestLen = n
			best = o
		}
	}
	return best
}

func commonPrefix(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// rebuildLine reconstitutes a hallucinated line around the documented
// command: valid options carried over (with their arguments), numeric
// positional arguments preserved. Returns "" when no legal line results.
func rebuildLine(line, target string, tspec *synth.CommandSpec) string {
	fields := strings.Fields(line)
	out := []string{target}
	args := 0
	for i := 1; i < len(fields); i++ {
		tok := fields[i]
		if strings.HasPrefix(tok, "-") && !isNumeric(tok) {
			opt := tspec.Opt(tok)
			if opt == nil {
				opt = nearestOption(tok, tspec)
			}
			if opt == nil {
				continue
			}
			out = append(out, opt.Name)
			if opt.HasArg {
				if i+1 < len(fields) && !strings.HasPrefix(fields[i+1], "-") {
					i++
					out = append(out, fields[i])
				} else {
					// Option requires an argument we cannot supply: drop it.
					out = out[:len(out)-1]
				}
			}
			continue
		}
		if isNumeric(tok) && tspec.MaxArgs != 0 {
			out = append(out, tok)
			args++
		}
	}
	rebuilt := strings.Join(out, " ")
	if fixed, _ := fixOptions(rebuilt, tspec); fixed != "" {
		rebuilt = fixed
	}
	// A rebuilt line that still fails the command grammar is dropped rather
	// than emitted.
	if _, err := synth.ParseScript(rebuilt); err != nil {
		return ""
	}
	return rebuilt
}

// fixOrdering repairs sequencing requirements: post-compile commands need
// a preceding compile, and the script must compile at all.
func (e *Expert) fixOrdering(lines []string) ([]string, []Step) {
	var steps []Step
	hasCompile := containsCmd(lines, "compile") || containsCmd(lines, "compile_ultra")
	if !hasCompile {
		// Insert a compile before the first post-compile or report command.
		insertAt := len(lines)
		for i, l := range lines {
			switch cmdOf(l) {
			case "optimize_registers", "balance_buffers", "report_qor", "report_timing", "report_area", "report_constraint":
				insertAt = i
			}
			if insertAt == i {
				break
			}
		}
		lines = append(lines[:insertAt], append([]string{"compile_ultra"}, lines[insertAt:]...)...)
		steps = append(steps, Step{
			Thought:   "the script never compiles the design; the manual requires compile before optimization and reporting",
			Query:     "compile requirements",
			Retrieved: "cmd/compile_ultra",
			After:     "compile_ultra",
		})
	}
	// Post-compile commands before the first compile move after it.
	firstCompile := -1
	for i, l := range lines {
		if cmdOf(l) == "compile" || cmdOf(l) == "compile_ultra" {
			firstCompile = i
			break
		}
	}
	if firstCompile >= 0 {
		var early []string
		var rest []string
		for i, l := range lines {
			c := cmdOf(l)
			if i < firstCompile && (c == "optimize_registers" || c == "balance_buffers") {
				early = append(early, l)
				continue
			}
			rest = append(rest, l)
		}
		if len(early) > 0 {
			// Re-find the compile position in rest and splice after it.
			pos := -1
			for i, l := range rest {
				if cmdOf(l) == "compile" || cmdOf(l) == "compile_ultra" {
					pos = i
					break
				}
			}
			out := append([]string{}, rest[:pos+1]...)
			out = append(out, early...)
			out = append(out, rest[pos+1:]...)
			lines = out
			steps = append(steps, Step{
				Thought:   "optimize_registers/balance_buffers must follow compile (manual requirement)",
				Query:     "optimize_registers requirements",
				Retrieved: "cmd/optimize_registers",
				Before:    strings.Join(early, "; "),
				After:     "moved after compile",
			})
		}
	}
	return lines, steps
}
