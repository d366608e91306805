package synth

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/resilience"
	"repro/internal/sta"
	"repro/internal/verilog"
	"repro/internal/work"
)

// DefaultMaxCommands bounds script execution when Session.MaxCommands is
// zero: far above any legitimate synthesis script (~10 commands), low
// enough that a hostile or hallucinated script cannot run unbounded.
const DefaultMaxCommands = 512

// Session executes synthesis scripts against an in-memory source filesystem,
// standing in for dc_shell. Sources maps file names (as used by
// read_verilog) to Verilog text.
type Session struct {
	Lib     *liberty.Library
	Sources map[string]string
	// MaxCommands caps the commands one run may execute (0 = the
	// DefaultMaxCommands budget, negative = unlimited). Exceeding it aborts
	// the run with resilience.ErrBudgetExceeded.
	MaxCommands int
	// Checkpoints, when non-nil, caches post-link elaboration state: scripts
	// starting with the canonical read_verilog/current_design/link prefix
	// restore from a prior identical elaboration (a thawed copy, never shared
	// mutable state) instead of re-parsing and re-elaborating. Results are
	// bit-identical either way; only wall-clock changes. Sessions may share
	// one store concurrently. A restored run hands its storage back to the
	// store exactly when no design escapes it: every Evaluate and every failed
	// run. A successful RunContext's Result.Design is the caller's, and the
	// garbage collector's after that.
	Checkpoints *CheckpointStore
}

// NewSession creates a session over the given library.
func NewSession(lib *liberty.Library) *Session {
	return &Session{Lib: lib, Sources: make(map[string]string)}
}

// AddSource registers a Verilog file.
func (s *Session) AddSource(name, src string) { s.Sources[name] = src }

// Result is the outcome of running a script.
type Result struct {
	Design   *Design
	QoR      *QoR
	Reports  []string // output of report_* commands in order
	Netlists []string // output of write commands (structural Verilog)
	Log      []string // transcript lines

	// Snapshot names the post-link snapshot of this run in
	// Session.Checkpoints, restored or captured; zero when the run had no
	// store or its script no canonical link prefix.
	Snapshot Snapshot

	served bool // the first compile was served from the store's derived level
}

// RunContext parses and executes a script. Any command error aborts the run,
// the way a dc_shell batch run aborts on an invalid command — this is what
// makes hallucinated commands costly for the baseline pipelines. The context
// is checked before every command, and execution aborts with
// resilience.ErrBudgetExceeded once MaxCommands commands have run. The run's
// parses, its elaboration and every timing analysis of its design count
// into the context's work.Counts, if it carries one.
func (s *Session) RunContext(ctx context.Context, script string) (*Result, error) {
	return s.run(ctx, script, true)
}

// Evaluate is RunContext for a caller that wants the run's values and not its
// design: QoR, Reports, Netlists, Log and Snapshot are exactly what
// RunContext returns, Result.Design is nil, and the run hands its workspace
// back to the store before it returns. A run served from a derived result
// whose tail only reads takes the closing QoR from that result and never
// thaws the compiled netlist.
func (s *Session) Evaluate(ctx context.Context, script string) (*Result, error) {
	return s.run(ctx, script, false)
}

// run is RunContext, and with keepDesign false Evaluate.
func (s *Session) run(ctx context.Context, script string, keepDesign bool) (_ *Result, err error) {
	cmds, err := ParseScript(script)
	if err != nil {
		return nil, err
	}
	budget := s.MaxCommands
	if budget == 0 {
		budget = DefaultMaxCommands
	}
	res := &Result{}
	st := &execState{sess: s, res: res, counts: work.From(ctx)}
	// A run through the store hands its workspace back here exactly when no
	// design can escape it: an Evaluate, and a run that dies after the
	// restore or the capture's acquire — an invalid option value, a command
	// out of order, a budget overrun, a cancelled context. A successful
	// RunContext's workspace goes to the garbage collector with the design it
	// may return. A capturing run's workspace first lets go of the netlist it
	// elaborated. A restored run that ends, either way, with no netlist in
	// its design and no compile never read one (a served compile counts its
	// own); pristine is tested first, as a capturing run may end with no
	// design at all.
	defer func() {
		if st.ws == nil {
			return
		}
		if st.pristine != nil && st.design.NL == nil {
			s.Checkpoints.thawsSkipped.Add(1)
		}
		if err != nil || !keepDesign {
			if st.lent {
				st.ws.release()
			}
			s.Checkpoints.park(st.ws)
		}
	}()

	// Elaboration checkpointing: when the script opens with the canonical
	// link prefix and a snapshot of that exact elaboration exists, restore it
	// and resume after the link command. On a miss the prefix
	// executes normally and its state is captured right after link. The
	// command budget counts skipped prefix commands as executed, so budget
	// overruns surface at the same command either way.
	start := 0
	captureAt, captureKey := -1, ""
	var captureFiles []string
	if s.Checkpoints != nil {
		if end, files, top, ok := linkPrefix(cmds); ok && (budget <= 0 || end < budget) {
			if key, ok := s.checkpointKey(files, top); ok {
				res.Snapshot = Snapshot{store: s.Checkpoints, key: key}
				if cp := s.Checkpoints.get(key); cp != nil {
					st.restore(cp)
					start = end + 1
				} else {
					captureAt, captureKey, captureFiles = end, key, files
					st.ws, st.lent = s.Checkpoints.acquire(st.counts), true
				}
			}
		}
	}

	for i := start; i < len(cmds); i++ {
		c := cmds[i]
		if err := ctx.Err(); err != nil {
			return nil, resilience.ContextError(resilience.CompSynth, err)
		}
		if budget > 0 && i >= budget {
			return nil, fmt.Errorf("line %d: %s: %w (budget %d commands)",
				c.Line, c.Name, resilience.ErrBudgetExceeded, budget)
		}
		if err := st.exec(c); err != nil {
			return nil, fmt.Errorf("line %d: %s: %v", c.Line, c.Name, err)
		}
		if i == captureAt {
			s.Checkpoints.put(captureKey, st.snapshot(captureFiles))
		}
	}
	if st.design != nil && st.design.Cons.Period > 0 {
		if keepDesign {
			res.Design, _ = st.netlist() // the design is there: no error to have
		}
		// The derived result's QoR while the run carries one: an Evaluate
		// gets it with no thaw.
		var q QoR
		if st.tail != nil {
			q = st.tail.qor
		} else {
			d, _ := st.netlist()
			if q, err = d.QoR(); err != nil {
				return nil, err
			}
		}
		res.QoR = &q
	}
	return res, nil
}

type execState struct {
	sess   *Session
	res    *Result
	counts *work.Counts // the caller's scope: every parse, elaboration and analysis counts here
	file   *verilog.SourceFile
	top    string
	design *Design
	// ws is the store workspace the run took: the one design was restored
	// into or, with lent set, the one whose Timing and scratch the design a
	// capturing run elaborates borrows; nil on a run with no store or no link
	// prefix.
	ws      *workspace
	lent    bool
	wlName  string
	didComp bool

	// frozen is the image a restored design's netlist is while design.NL is
	// nil: the snapshot's, then the one a served compile left.
	frozen *netlist.Image

	// pristine is the checkpoint design was restored from for as long as its
	// netlist is that checkpoint's image untouched, thawed or not yet: nil on
	// a fresh elaboration, after set_dont_touch (which marks cells without
	// moving an edit generation), after an ungroup that moved one, and from
	// the first compile on.
	pristine *checkpoint

	// tail is the derived result the first compile was served from or
	// resolved, for as long as nothing has changed what it read: the command
	// after that compile that is not in readOnly drops it. While it is set,
	// the compile line's QoR, the closing QoR and every report it holds are
	// read here, and a report it lacks is computed and recorded.
	tail *derivedTail
}

// readOnly is what may follow a compile served from, or resolving, a derived
// result without changing anything the result's QoR and reports read: the
// reports, write, and the commands that touch no design state.
func readOnly(name string) bool {
	switch name {
	case "report_timing", "report_area", "report_qor", "report_constraint",
		"report_power", "report_hierarchy", "write", "uniquify", "echo", "set":
		return true
	}
	return false
}

func (st *execState) logf(format string, args ...any) {
	st.res.Log = append(st.res.Log, fmt.Sprintf(format, args...))
}

// snapshot captures the session state right after the link command executed:
// the linked netlist frozen into an image, the parsed sources, the resolved
// top, the transcript lines the prefix wrote, and the source texts in read
// order. Freezing decouples the snapshot from every later mutation of the
// live design.
func (st *execState) snapshot(files []string) *checkpoint {
	srcs := make([]srcText, 0, len(files))
	for _, f := range files {
		srcs = append(srcs, srcText{Name: f, Text: st.sess.Sources[f]})
	}
	return &checkpoint{
		img:  netlist.Freeze(st.design.NL),
		file: st.file,
		top:  st.top,
		log:  append([]string(nil), st.res.Log...),
		srcs: srcs,
	}
}

// restore rebuilds the post-link session state from a snapshot, exactly as
// executing the prefix would have, except that the design has no netlist yet:
// it gets the snapshot's, thawed into the workspace acquired here (IDs,
// levelization inputs, and edit generations preserved, so downstream
// incremental timing behaves identically), when the first command asks for it
// through netlist — or never, when all the run does with it is a compile whose
// result the store already holds. The timing and scratch are the ones that
// workspace brought along, the module list is a fresh slice header (modules
// themselves are immutable and shared), the wireload is the library default
// the link step would have picked, and the prefix's transcript lines are
// replayed.
func (st *execState) restore(cp *checkpoint) {
	st.file = cp.sourceFile()
	st.top = cp.top
	st.ws = st.sess.Checkpoints.acquire(st.counts)
	st.design = &Design{WL: st.sess.Lib.WireLoad(st.wlName), tm: st.ws.tm, sc: st.ws.sc}
	st.res.Log = append(st.res.Log, cp.log...)
	st.pristine, st.frozen = cp, cp.img
}

// thaw makes img the restored design's netlist, over whatever the workspace
// holds — which a cached analysis of the design may point into — or, when a
// snapshot read left an unedited thaw of img there, that netlist as it is;
// either way the design's analysis starts over.
func (st *execState) thaw(img *netlist.Image) {
	st.design.NL = st.ws.thaw(img)
	st.design.tmOK = false
}

// netlist is needDesign for a command that reads or edits the netlist, which
// is every command but the constraint setters, compile's entry and a report a
// derived result holds: a restored design whose image is still frozen gets it
// thawed. exec reaches Design.NL through here and nowhere else.
func (st *execState) netlist() (*Design, error) {
	d, err := st.needDesign()
	if err == nil && d.NL == nil {
		st.thaw(st.frozen)
	}
	return d, err
}

// report appends the text of the read-only report key names: the derived
// result's when the run carries one that holds it — no thaw, no analysis —
// and otherwise what fn computes on the netlist, recorded in the result the
// run carries, if any. The caller has checked for a design.
func (st *execState) report(key readKey, fn func(d *Design) (string, error)) error {
	text, ok := st.tail.report(key)
	if ok {
		st.sess.Checkpoints.reportsServed.Add(1)
	} else {
		d, _ := st.netlist()
		var err error
		if text, err = fn(d); err != nil {
			return err
		}
		st.tail.record(key, text)
	}
	st.res.Reports = append(st.res.Reports, text)
	return nil
}

// compile runs Compile on the session's design and returns the QoR the
// transcript line reports: through the checkpoint store's derived level when
// this is the first compile of a restored design nothing has edited, in place
// otherwise — a freshly elaborated design, a later compile, a script that
// edits first.
//
// On the derived level everything Compile reads is cp's image and the
// compileKey, so its result is a function of the two and can be kept: a
// resolved entry is served — its image becomes what the netlist is, thawed
// only when a command reads it (over the post-link netlist if a report has
// already asked for that), its QoR is the line's, and no pass or analysis
// runs; an unresolved one is compiled and, the second time, frozen for the
// runs after this one. A compile that edits nothing is recorded as just
// that, with no image. Either way the run then carries the entry's tail.
func (st *execState) compile(opts CompileOptions) (QoR, error) {
	cp, d, store := st.pristine, st.design, st.sess.Checkpoints
	if d.Cons.Period <= 0 {
		return QoR{}, Compile(d, opts) // no clock: fails before it reads the netlist
	}
	st.pristine = nil
	if cp == nil {
		st.netlist()
		if err := Compile(d, opts); err != nil {
			return QoR{}, err
		}
		return d.QoR()
	}
	key := opts.key(d)
	e, hit, capture := cp.lookup(key)
	if hit {
		store.derivedHits.Add(1)
		st.res.served = true
		if e.img != nil {
			if d.NL == nil {
				store.thawsSkipped.Add(1)
			}
			st.frozen, d.NL, d.tmOK = e.img, nil, false
		}
		d.Compiled = true
		st.tail = e.tail
		return e.tail.qor, nil
	}
	store.derivedMisses.Add(1)
	st.netlist()
	before := d.NL.Gen()
	if err := Compile(d, opts); err != nil {
		return QoR{}, err
	}
	q, err := d.QoR()
	if err != nil || !capture {
		return q, err
	}
	var img *netlist.Image
	if d.NL.Gen() != before {
		img = netlist.Freeze(d.NL)
	}
	if st.tail = cp.resolve(key, img, q); st.tail != nil && img != nil {
		store.derivedCaptures.Add(1)
	}
	return q, nil
}

func (st *execState) needDesign() (*Design, error) {
	if st.design != nil {
		return st.design, nil
	}
	if st.file == nil {
		return nil, fmt.Errorf("no design read (read_verilog required)")
	}
	if st.top == "" {
		if len(st.file.Modules) == 0 {
			return nil, fmt.Errorf("no modules in read sources")
		}
		st.top = st.file.Modules[len(st.file.Modules)-1].Name
	}
	st.counts.Add(work.Elaborations)
	nl, err := netlist.Elaborate(st.file, st.top, nil, st.sess.Lib)
	if err != nil {
		return nil, fmt.Errorf("link: %v", err)
	}
	wl := st.sess.Lib.WireLoad(st.wlName)
	st.design = &Design{NL: nl, WL: wl}
	if st.ws != nil {
		st.design.tm, st.design.sc = st.ws.tm, st.ws.sc
	} else if st.counts != nil {
		st.design.tm = &sta.Timing{Counts: st.counts}
	}
	st.logf("linked design %s: %d cells, %d registers", st.top, len(nl.Cells), nl.SeqCount())
	return st.design, nil
}

func (st *execState) exec(c Cmd) error {
	if !readOnly(c.Name) {
		st.tail = nil
	}
	switch c.Name {
	case "read_verilog":
		merged := &verilog.SourceFile{}
		if st.file != nil {
			merged.Modules = st.file.Modules
		}
		for _, fname := range c.Args {
			src, ok := st.sess.Sources[fname]
			if !ok {
				return fmt.Errorf("file %q not found", fname)
			}
			st.counts.Add(work.Parses)
			f, err := verilog.Parse(src)
			if err != nil {
				return err
			}
			merged.Modules = append(merged.Modules, f.Modules...)
		}
		st.file = merged
		st.logf("read %d file(s), %d module(s) total", len(c.Args), len(merged.Modules))

	case "current_design":
		if st.file == nil {
			return fmt.Errorf("no design read (read_verilog required)")
		}
		if st.file.FindModule(c.Args[0]) == nil {
			return fmt.Errorf("module %q not found in read sources", c.Args[0])
		}
		st.top = c.Args[0]

	case "link":
		_, err := st.needDesign()
		return err

	case "set_wire_load_model":
		name, ok := c.Opts["-name"]
		if !ok {
			if len(c.Args) == 1 {
				name = c.Args[0]
			} else {
				return fmt.Errorf("missing -name option")
			}
		}
		if _, exists := st.sess.Lib.WireLoads[name]; !exists {
			return fmt.Errorf("wireload model %q not in library", name)
		}
		st.wlName = name
		if st.design != nil {
			st.design.WL = st.sess.Lib.WireLoad(name)
		}

	case "create_clock":
		p, ok := c.Opts["-period"]
		if !ok {
			return fmt.Errorf("missing -period option")
		}
		period, err := strconv.ParseFloat(p, 64)
		if err != nil || period <= 0 {
			return fmt.Errorf("invalid period %q", p)
		}
		d, err := st.needDesign()
		if err != nil {
			return err
		}
		d.Cons.Period = period
		if len(c.Args) == 1 {
			d.ClockPort = c.Args[0]
		}

	case "set_input_delay", "set_output_delay":
		v, err := strconv.ParseFloat(c.Args[0], 64)
		if err != nil {
			return fmt.Errorf("invalid delay %q", c.Args[0])
		}
		d, err := st.needDesign()
		if err != nil {
			return err
		}
		if c.Name == "set_input_delay" {
			d.Cons.InputDelay = v
		} else {
			d.Cons.OutputDelay = v
		}

	case "set_max_fanout":
		n, err := strconv.Atoi(c.Args[0])
		if err != nil || n < 2 {
			return fmt.Errorf("invalid fanout limit %q", c.Args[0])
		}
		d, err := st.needDesign()
		if err != nil {
			return err
		}
		d.MaxFanout = n

	case "set_max_area":
		a, err := strconv.ParseFloat(c.Args[0], 64)
		if err != nil || a < 0 {
			return fmt.Errorf("invalid area %q", c.Args[0])
		}
		d, err := st.needDesign()
		if err != nil {
			return err
		}
		d.MaxArea = a

	case "set_dont_touch":
		d, err := st.netlist()
		if err != nil {
			return err
		}
		pattern := c.Args[0]
		n := 0
		for _, cell := range d.NL.Cells {
			if matchPattern(cell.Group, pattern) || matchPattern(cell.Module, pattern) {
				cell.Fixed = true
				n++
			}
		}
		st.pristine = nil
		st.logf("set_dont_touch: %d cells protected", n)

	case "ungroup":
		d, err := st.netlist()
		if err != nil {
			return err
		}
		prefix := ""
		if _, all := c.Opts["-all"]; !all {
			if len(c.Args) == 1 {
				prefix = c.Args[0]
			}
		}
		n := d.NL.Ungroup(prefix)
		if n > 0 {
			st.pristine = nil
		}
		st.logf("ungrouped %d cells", n)

	case "uniquify":
		_, err := st.netlist()
		return err

	case "compile", "compile_ultra":
		if _, err := st.needDesign(); err != nil {
			return err
		}
		opts := CompileOptions{MapEffort: EffortMedium}
		if c.Name == "compile_ultra" {
			opts.Ultra = true
			_, opts.Retime = c.Opts["-retime"]
			_, opts.NoAutoUngroup = c.Opts["-no_autoungroup"]
			_, opts.TimingHighEffort = c.Opts["-timing_high_effort_script"]
			_, opts.AreaHighEffort = c.Opts["-area_high_effort_script"]
		} else {
			if eff, ok := c.Opts["-map_effort"]; ok {
				e, err := ParseEffort(eff)
				if err != nil {
					return err
				}
				opts.MapEffort = e
			}
			if eff, ok := c.Opts["-area_effort"]; ok {
				e, err := ParseEffort(eff)
				if err != nil {
					return err
				}
				opts.AreaEffort = e
			}
			_, opts.Incremental = c.Opts["-incremental"]
		}
		q, err := st.compile(opts)
		if err != nil {
			return err
		}
		st.didComp = true
		st.logf("%s done: WNS %.3f CPS %.3f TNS %.3f area %.2f", c.Name, q.WNS, q.CPS, q.TNS, q.Area)

	case "optimize_registers":
		if !st.didComp {
			return fmt.Errorf("optimize_registers must follow compile or compile_ultra")
		}
		d, _ := st.netlist()
		moves := 0
		// A combinational loop leaves nothing to time: no moves, as in Compile.
		if tm, err := d.Timing(); err == nil {
			moves = RetimeWith(tm, retimeMoves)
		}
		sweep(d.NL, d.scratch())
		st.logf("optimize_registers: %d register moves", moves)

	case "balance_buffers":
		if !st.didComp {
			return fmt.Errorf("balance_buffers must follow compile or compile_ultra")
		}
		d, _ := st.netlist()
		limit := d.MaxFanout
		if limit == 0 {
			limit = 12
		}
		n := BufferHighFanout(d.NL, limit)
		if tm, err := d.Timing(); err == nil {
			sizeForTiming(tm, SizeOptions{MaxIters: 6, MinGain: 1e-5}, d.scratch())
		}
		st.logf("balance_buffers: %d buffers inserted", n)

	case "report_timing":
		if _, err := st.needDesign(); err != nil {
			return err
		}
		maxPaths := 1
		if v, ok := c.Opts["-max_paths"]; ok {
			var err error
			if maxPaths, err = strconv.Atoi(v); err != nil || maxPaths < 1 {
				return fmt.Errorf("invalid -max_paths %q", v)
			}
		}
		return st.report(readKey{cmd: c.Name, maxPaths: maxPaths}, func(d *Design) (string, error) {
			return ReportTiming(d, maxPaths)
		})

	case "report_area":
		if _, err := st.needDesign(); err != nil {
			return err
		}
		return st.report(readKey{cmd: c.Name}, func(d *Design) (string, error) { return ReportArea(d), nil })

	case "report_qor":
		if _, err := st.needDesign(); err != nil {
			return err
		}
		return st.report(readKey{cmd: c.Name}, ReportQoR)

	case "report_power":
		d, err := st.netlist()
		if err != nil {
			return err
		}
		if d.Cons.Period <= 0 {
			return fmt.Errorf("no clock constraint defined (create_clock)")
		}
		vectors := 64
		if v, ok := c.Opts["-vectors"]; ok {
			if vectors, err = strconv.Atoi(v); err != nil || vectors < 2 {
				return fmt.Errorf("invalid -vectors %q", v)
			}
		}
		rep, err := power.Analyze(d.NL, d.WL, d.Cons.Period, vectors, 1)
		if err != nil {
			return err
		}
		st.res.Reports = append(st.res.Reports, rep.Format(d.NL.Name))

	case "report_hierarchy":
		d, err := st.netlist()
		if err != nil {
			return err
		}
		st.res.Reports = append(st.res.Reports, ReportHierarchy(d))

	case "report_constraint":
		d, err := st.needDesign()
		if err != nil {
			return err
		}
		return st.report(readKey{cmd: c.Name, maxArea: d.MaxArea}, ReportConstraint)

	case "write":
		d, err := st.netlist()
		if err != nil {
			return err
		}
		if f, ok := c.Opts["-format"]; ok && f != "verilog" {
			return fmt.Errorf("unsupported format %q (only verilog)", f)
		}
		st.res.Netlists = append(st.res.Netlists, netlist.WriteVerilog(d.NL))
		st.logf("write: %d cells as structural verilog", len(d.NL.Cells))

	case "set":
		// handled during parsing

	case "echo":
		st.logf("%s", strings.Join(c.Args, " "))

	default:
		return fmt.Errorf("command not implemented")
	}
	return nil
}

// matchPattern does glob-lite matching: "*" suffix wildcard only.
func matchPattern(s, pattern string) bool {
	if pattern == "*" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(s, strings.TrimSuffix(pattern, "*"))
	}
	return s == pattern
}
