package synth

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/inputlimits"
)

// OptSpec describes one option of a script command.
type OptSpec struct {
	Name   string // includes the leading dash, e.g. "-period"
	HasArg bool
	Desc   string
}

// CommandSpec documents one dc_shell-style command: its syntax, options,
// and usage requirements. The table doubles as the source of the tool user
// manual that SynthRAG retrieves from, so validation and documentation can
// never drift apart.
type CommandSpec struct {
	Name     string
	Brief    string
	Detail   string
	Opts     []OptSpec
	MinArgs  int
	MaxArgs  int // -1 = unlimited
	Requires string
}

// Opt finds an option spec by name.
func (c *CommandSpec) Opt(name string) *OptSpec {
	for i := range c.Opts {
		if c.Opts[i].Name == name {
			return &c.Opts[i]
		}
	}
	return nil
}

// Commands is the tool's full command set.
var Commands = map[string]*CommandSpec{
	"read_verilog": {
		Name:    "read_verilog",
		Brief:   "Read a Verilog RTL source file into the session.",
		Detail:  "Parses the named Verilog file and makes its modules available for elaboration. Must be run before current_design and compile.",
		MinArgs: 1, MaxArgs: -1,
	},
	"current_design": {
		Name:    "current_design",
		Brief:   "Select the top-level design.",
		Detail:  "Sets the named module as the design all subsequent constraints and optimizations apply to. The module must come from a previously read file.",
		MinArgs: 1, MaxArgs: 1,
		Requires: "read_verilog must have been run first.",
	},
	"link": {
		Name:    "link",
		Brief:   "Resolve and elaborate the current design.",
		Detail:  "Elaborates the current design against the target library, building the generic gate-level netlist. Runs implicitly before the first compile if omitted.",
		MinArgs: 0, MaxArgs: 0,
		Requires: "current_design must have been set.",
	},
	"set_wire_load_model": {
		Name:   "set_wire_load_model",
		Brief:  "Select the wireload model for net parasitic estimation.",
		Detail: "Chooses the wireload model used to estimate pre-layout net capacitance and resistance. The 5K_heavy_1k model is the pessimistic default for ~5k-gate blocks.",
		Opts: []OptSpec{
			{Name: "-name", HasArg: true, Desc: "Wireload model name (5K_heavy_1k, 5K_medium_1k, 5K_light_1k)."},
		},
		MinArgs: 0, MaxArgs: 1,
	},
	"create_clock": {
		Name:   "create_clock",
		Brief:  "Define the clock and its period.",
		Detail: "Creates the clock constraint on the named port. Every timing analysis and compile uses this period. Required before compile.",
		Opts: []OptSpec{
			{Name: "-period", HasArg: true, Desc: "Clock period in nanoseconds."},
			{Name: "-name", HasArg: true, Desc: "Logical clock name."},
		},
		MinArgs: 0, MaxArgs: 1,
	},
	"set_input_delay": {
		Name:    "set_input_delay",
		Brief:   "Set arrival time budget consumed outside the block at inputs.",
		Detail:  "Adds the given delay to all primary input arrivals, modeling upstream logic. First positional argument is the delay in nanoseconds.",
		Opts:    []OptSpec{{Name: "-clock", HasArg: true, Desc: "Reference clock name."}},
		MinArgs: 1, MaxArgs: 2,
		Requires: "create_clock should be defined first.",
	},
	"set_output_delay": {
		Name:    "set_output_delay",
		Brief:   "Set required-time margin consumed outside the block at outputs.",
		Detail:  "Subtracts the given delay from the required time at all primary outputs, modeling downstream logic. First positional argument is the delay in nanoseconds.",
		Opts:    []OptSpec{{Name: "-clock", HasArg: true, Desc: "Reference clock name."}},
		MinArgs: 1, MaxArgs: 2,
		Requires: "create_clock should be defined first.",
	},
	"set_max_fanout": {
		Name:    "set_max_fanout",
		Brief:   "Constrain the maximum fanout of any net.",
		Detail:  "Sets the fanout limit; compile builds buffer trees on nets exceeding it. Use for designs with high-fanout control or broadcast nets. First positional argument is the limit.",
		MinArgs: 1, MaxArgs: 2,
	},
	"set_max_area": {
		Name:    "set_max_area",
		Brief:   "Set the area goal for optimization.",
		Detail:  "Sets the target cell area in square microns; compile's area recovery works toward it. 0 requests maximum area effort.",
		MinArgs: 1, MaxArgs: 1,
	},
	"set_dont_touch": {
		Name:    "set_dont_touch",
		Brief:   "Protect cells from optimization.",
		Detail:  "Marks cells whose hierarchical group or module matches the argument as untouchable: no sizing, restructuring, or retiming will modify them.",
		MinArgs: 1, MaxArgs: 1,
	},
	"ungroup": {
		Name:   "ungroup",
		Brief:  "Dissolve hierarchical boundaries for cross-module optimization.",
		Detail: "Removes optimization group boundaries. Boundary-crossing cleanups (inverter-pair removal, chain rebalancing, retiming moves) become legal afterwards. With -all every group is flattened; otherwise the named block only.",
		Opts: []OptSpec{
			{Name: "-all", HasArg: false, Desc: "Ungroup every hierarchical block."},
			{Name: "-flatten", HasArg: false, Desc: "Recursively flatten nested blocks."},
		},
		MinArgs: 0, MaxArgs: 1,
	},
	"uniquify": {
		Name:    "uniquify",
		Brief:   "Make multiply-instantiated modules unique.",
		Detail:  "Duplicates shared module definitions so each instance can be optimized separately. The elaborated netlist is already unique per instance, so this is a no-op provided for script compatibility.",
		MinArgs: 0, MaxArgs: 0,
	},
	"compile": {
		Name:   "compile",
		Brief:  "Map and optimize the design.",
		Detail: "Runs the standard optimization flow: cleanup, restructuring (medium+), chain balancing (high), sizing, optional fanout buffering, and area recovery. Requires a clock constraint.",
		Opts: []OptSpec{
			{Name: "-map_effort", HasArg: true, Desc: "Mapping effort: low, medium (default), or high."},
			{Name: "-area_effort", HasArg: true, Desc: "Area recovery effort: low, medium, or high."},
			{Name: "-incremental", HasArg: false, Desc: "Re-optimize without restructuring the netlist."},
		},
		MinArgs: 0, MaxArgs: 0,
		Requires: "create_clock must be defined; the design must be linked.",
	},
	"compile_ultra": {
		Name:   "compile_ultra",
		Brief:  "Highest-effort optimization flow.",
		Detail: "Runs the full flow with automatic ungrouping, chain balancing, implicit fanout discipline, deeper sizing, and area recovery. -retime enables register retiming for stage-imbalanced designs; -timing_high_effort_script keeps pushing slack past zero; -area_high_effort_script doubles area recovery.",
		Opts: []OptSpec{
			{Name: "-retime", HasArg: false, Desc: "Enable register retiming during optimization."},
			{Name: "-no_autoungroup", HasArg: false, Desc: "Preserve hierarchy boundaries."},
			{Name: "-timing_high_effort_script", HasArg: false, Desc: "Maximize positive slack, not just closure."},
			{Name: "-area_high_effort_script", HasArg: false, Desc: "Aggressive area recovery."},
		},
		MinArgs: 0, MaxArgs: 0,
		Requires: "create_clock must be defined; the design must be linked.",
	},
	"optimize_registers": {
		Name:    "optimize_registers",
		Brief:   "Retime registers to balance pipeline stages.",
		Detail:  "Moves flip-flops across combinational gates on violating paths when the neighbouring stage has slack to absorb the gate delay. Effective on designs whose critical path is caused by unbalanced register placement; ineffective on already-balanced or purely combinational-depth-limited paths. Must run after an initial compile.",
		MinArgs: 0, MaxArgs: 0,
		Requires: "Must follow compile or compile_ultra.",
	},
	"balance_buffers": {
		Name:    "balance_buffers",
		Brief:   "Build buffer trees on high-fanout nets.",
		Detail:  "Splits nets whose fanout exceeds the discipline limit (12, or the set_max_fanout value) into balanced buffer trees. Effective on designs whose timing is dominated by high-fanout broadcast or control nets; ineffective when paths are deep but narrow. Must run after an initial compile.",
		MinArgs: 0, MaxArgs: 0,
		Requires: "Must follow compile or compile_ultra.",
	},
	"report_timing": {
		Name:    "report_timing",
		Brief:   "Report the worst timing paths.",
		Detail:  "Prints startpoint/endpoint, per-stage delays, and slack for the worst paths.",
		Opts:    []OptSpec{{Name: "-max_paths", HasArg: true, Desc: "Number of paths to report (default 1)."}},
		MinArgs: 0, MaxArgs: 0,
		Requires: "The design must be linked and constrained.",
	},
	"report_area": {
		Name:    "report_area",
		Brief:   "Report cell area statistics.",
		Detail:  "Prints total area, cell counts, and the sequential/combinational split.",
		MinArgs: 0, MaxArgs: 0,
		Requires: "The design must be linked.",
	},
	"report_qor": {
		Name:    "report_qor",
		Brief:   "Report the quality-of-results summary.",
		Detail:  "Prints WNS, CPS, TNS, area, and violation counts in one table.",
		MinArgs: 0, MaxArgs: 0,
		Requires: "The design must be linked and constrained.",
	},
	"report_power": {
		Name:    "report_power",
		Brief:   "Report activity-based power estimates.",
		Detail:  "Simulates the design over seeded random stimulus, counts net toggles against their capacitive loads, and reports net switching, cell internal, and leakage power. The extension toward sign-off power analysis (PrimePower) the flow is designed to grow into.",
		Opts:    []OptSpec{{Name: "-vectors", HasArg: true, Desc: "Number of random stimulus vectors (default 64)."}},
		MinArgs: 0, MaxArgs: 0,
		Requires: "The design must be linked and constrained (the clock period sets the frequency).",
	},
	"report_hierarchy": {
		Name:    "report_hierarchy",
		Brief:   "Report the design's hierarchical blocks.",
		Detail:  "Lists optimization groups and their cell counts.",
		MinArgs: 0, MaxArgs: 0,
		Requires: "The design must be linked.",
	},
	"report_constraint": {
		Name:    "report_constraint",
		Brief:   "Report constraint violations.",
		Detail:  "Lists timing, max_fanout, and max_area violations against the current constraints.",
		MinArgs: 0, MaxArgs: 0,
		Requires: "The design must be linked and constrained.",
	},
	"write": {
		Name:   "write",
		Brief:  "Write the mapped netlist.",
		Detail: "Emits the current design as structural Verilog (one instance per library cell, self-contained with leaf definitions). The output re-parses through the frontend and is functionally equivalent to the design in memory.",
		Opts: []OptSpec{
			{Name: "-format", HasArg: true, Desc: "Output format; only \"verilog\" is supported."},
			{Name: "-output", HasArg: true, Desc: "Logical output name recorded with the result."},
		},
		MinArgs: 0, MaxArgs: 0,
		Requires: "The design must be linked.",
	},
	"set": {
		Name:    "set",
		Brief:   "Set a script variable.",
		Detail:  "Tcl-style variable assignment; later commands may reference the value as $name.",
		MinArgs: 2, MaxArgs: 2,
	},
	"echo": {
		Name:    "echo",
		Brief:   "Print a message to the transcript.",
		Detail:  "Writes its arguments to the session log.",
		MinArgs: 0, MaxArgs: -1,
	},
}

// CommandNames returns all command names sorted.
func CommandNames() []string {
	names := make([]string, 0, len(Commands))
	for n := range Commands {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Cmd is one parsed script command.
type Cmd struct {
	Line int
	Name string
	Opts map[string]string // option name -> arg ("" for flags)
	Args []string          // positional arguments
	Raw  string
}

// ParseScript tokenizes a dc_shell-style script into commands. It performs
// $var substitution for variables assigned with set, strips comments, and
// treats [...] bracket expressions as single arguments. Unknown commands and
// malformed options are reported as errors with their line number.
//
// Scripts are an untrusted-input surface (they arrive from LLM generations
// and, through the daemon, indirectly from the network), so parsing runs
// under the process-default input budget and returns a typed
// *inputlimits.LimitError on inputs that exceed it.
func ParseScript(text string) ([]Cmd, error) {
	return ParseScriptWithBudget(text, inputlimits.For(inputlimits.SurfaceScript))
}

// ParseScriptWithBudget parses a script under an explicit budget. The zero
// budget disables all limits.
func ParseScriptWithBudget(text string, budget inputlimits.Budget) ([]Cmd, error) {
	meter := inputlimits.NewMeter(inputlimits.SurfaceScript, budget)
	if err := meter.CheckBytes(len(text)); err != nil {
		return nil, err
	}
	var cmds []Cmd
	vars := make(map[string]string)
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		lineNo := i + 1
		if err := meter.Step(); err != nil {
			return nil, err
		}
		// Line continuation: gather all continued segments first and join
		// once, so a long continuation chain costs linear work rather than
		// re-copying the accumulated line per segment.
		segs := []string{lines[i]}
		for strings.HasSuffix(strings.TrimRight(segs[len(segs)-1], " \t"), "\\") && i+1 < len(lines) {
			segs[len(segs)-1] = strings.TrimRight(strings.TrimRight(segs[len(segs)-1], " \t"), "\\")
			i++
			segs = append(segs, lines[i])
		}
		line := stripComment(strings.Join(segs, " "))
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		toks, err := tokenize(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if len(toks) == 0 {
			continue
		}
		for range toks {
			if err := meter.Token(); err != nil {
				return nil, err
			}
		}
		// Variable substitution. Expansion is charged against the step
		// budget: a small script that sets a large variable and references
		// it many times would otherwise amplify memory far beyond MaxBytes.
		for j, t := range toks {
			toks[j] = substVars(t, vars)
			if grew := len(toks[j]) - len(t); grew > 0 {
				if err := meter.StepN(grew); err != nil {
					return nil, err
				}
			}
		}
		name := toks[0]
		spec, ok := Commands[name]
		if !ok {
			return nil, fmt.Errorf("line %d: unknown command %q", lineNo, name)
		}
		cmd := Cmd{Line: lineNo, Name: name, Opts: make(map[string]string), Raw: line}
		rest := toks[1:]
		for k := 0; k < len(rest); k++ {
			t := rest[k]
			if strings.HasPrefix(t, "-") && !isNumber(t) {
				opt := spec.Opt(t)
				if opt == nil {
					return nil, fmt.Errorf("line %d: %s: unknown option %q", lineNo, name, t)
				}
				if opt.HasArg {
					if k+1 >= len(rest) {
						return nil, fmt.Errorf("line %d: %s: option %s requires an argument", lineNo, name, t)
					}
					k++
					cmd.Opts[t] = cleanArg(rest[k])
				} else {
					cmd.Opts[t] = ""
				}
				continue
			}
			cmd.Args = append(cmd.Args, cleanArg(t))
		}
		if len(cmd.Args) < spec.MinArgs {
			return nil, fmt.Errorf("line %d: %s: requires at least %d argument(s)", lineNo, name, spec.MinArgs)
		}
		if spec.MaxArgs >= 0 && len(cmd.Args) > spec.MaxArgs {
			return nil, fmt.Errorf("line %d: %s: too many arguments (%d, max %d)", lineNo, name, len(cmd.Args), spec.MaxArgs)
		}
		if name == "set" {
			vars[cmd.Args[0]] = cmd.Args[1]
		}
		if err := meter.Statement(len(cmds) + 1); err != nil {
			return nil, err
		}
		cmds = append(cmds, cmd)
	}
	return cmds, nil
}

func stripComment(line string) string {
	depth := 0
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inStr = !inStr
		case '[':
			depth++
		case ']':
			if depth > 0 {
				depth--
			}
		case '#':
			if depth == 0 && !inStr {
				return line[:i]
			}
		case ';':
			if depth == 0 && !inStr && i+1 < len(line) && line[i+1] == '#' {
				return line[:i]
			}
		}
	}
	return line
}

// tokenize splits a command line, keeping [...] and "..." groups intact.
func tokenize(line string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '[':
			depth := 0
			start := i
			for ; i < len(line); i++ {
				if line[i] == '[' {
					depth++
				} else if line[i] == ']' {
					depth--
					if depth == 0 {
						i++
						break
					}
				}
			}
			if depth != 0 {
				return nil, fmt.Errorf("unbalanced brackets")
			}
			toks = append(toks, line[start:i])
		case c == '"':
			end := strings.IndexByte(line[i+1:], '"')
			if end < 0 {
				return nil, fmt.Errorf("unterminated string")
			}
			toks = append(toks, line[i+1:i+1+end])
			i += end + 2
		case c == '{':
			end := strings.IndexByte(line[i+1:], '}')
			if end < 0 {
				return nil, fmt.Errorf("unterminated brace group")
			}
			toks = append(toks, line[i+1:i+1+end])
			i += end + 2
		default:
			start := i
			for i < len(line) && line[i] != ' ' && line[i] != '\t' {
				i++
			}
			toks = append(toks, line[start:i])
		}
	}
	return toks, nil
}

func substVars(tok string, vars map[string]string) string {
	if !strings.Contains(tok, "$") {
		return tok
	}
	var b strings.Builder
	for i := 0; i < len(tok); i++ {
		if tok[i] != '$' {
			b.WriteByte(tok[i])
			continue
		}
		j := i + 1
		for j < len(tok) && (isAlnum(tok[j]) || tok[j] == '_') {
			j++
		}
		name := tok[i+1 : j]
		if v, ok := vars[name]; ok {
			b.WriteString(v)
		} else {
			b.WriteString(tok[i:j])
		}
		i = j - 1
	}
	return b.String()
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isNumber(s string) bool {
	if len(s) < 2 || s[0] != '-' {
		return false
	}
	for _, c := range s[1:] {
		if (c < '0' || c > '9') && c != '.' {
			return false
		}
	}
	return true
}

// cleanArg unwraps bracket expressions like [get_ports clk] to their last
// word, and [all_inputs]/[current_design] to sentinel names.
func cleanArg(t string) string {
	if !strings.HasPrefix(t, "[") {
		return t
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(t, "["), "]")
	fields := strings.Fields(inner)
	if len(fields) == 0 {
		return ""
	}
	switch fields[0] {
	case "all_inputs", "all_outputs", "current_design", "all_registers", "all_clocks":
		return "*" + fields[0] + "*"
	}
	last := fields[len(fields)-1]
	return strings.Trim(last, "{}\"")
}

// Issue is one problem found by ValidateScript.
type Issue struct {
	Line     int
	Command  string
	Message  string
	Severity string // "error" or "warning"
}

func (i Issue) String() string {
	return fmt.Sprintf("line %d [%s]: %s: %s", i.Line, i.Severity, i.Command, i.Message)
}

// ValidateScript statically checks a script without executing it: unknown
// commands and options surface as errors, and ordering requirements
// (clock before compile, retiming only after compile) surface as the issues
// SynthExpert repairs during chain-of-thought revision.
func ValidateScript(text string) []Issue {
	var issues []Issue
	cmds, err := ParseScript(text)
	if err != nil {
		return []Issue{{Line: parseErrLine(err), Command: "parse", Message: err.Error(), Severity: "error"}}
	}
	var hasRead, hasClock, hasCompile bool
	for _, c := range cmds {
		switch c.Name {
		case "read_verilog":
			hasRead = true
		case "current_design", "link":
			if !hasRead {
				issues = append(issues, Issue{c.Line, c.Name, "no design read yet (read_verilog required first)", "error"})
			}
		case "create_clock":
			if _, ok := c.Opts["-period"]; !ok {
				issues = append(issues, Issue{c.Line, c.Name, "missing -period option", "error"})
			}
			hasClock = true
		case "compile", "compile_ultra":
			if !hasRead {
				issues = append(issues, Issue{c.Line, c.Name, "no design read yet (read_verilog required first)", "error"})
			}
			if !hasClock {
				issues = append(issues, Issue{c.Line, c.Name, "no clock constraint (create_clock required before compile)", "error"})
			}
			if eff, ok := c.Opts["-map_effort"]; ok {
				if _, err := ParseEffort(eff); err != nil {
					issues = append(issues, Issue{c.Line, c.Name, err.Error(), "error"})
				}
			}
			if eff, ok := c.Opts["-area_effort"]; ok {
				if _, err := ParseEffort(eff); err != nil {
					issues = append(issues, Issue{c.Line, c.Name, err.Error(), "error"})
				}
			}
			hasCompile = true
		case "optimize_registers", "balance_buffers":
			if !hasCompile {
				issues = append(issues, Issue{c.Line, c.Name, c.Name + " must follow compile or compile_ultra", "error"})
			}
		case "report_timing", "report_qor", "report_constraint":
			if !hasClock {
				issues = append(issues, Issue{c.Line, c.Name, "no clock constraint defined", "warning"})
			}
		}
	}
	if !hasCompile {
		issues = append(issues, Issue{0, "script", "script never compiles the design", "warning"})
	}
	return issues
}

func parseErrLine(err error) int {
	var line int
	fmt.Sscanf(err.Error(), "line %d:", &line)
	return line
}
