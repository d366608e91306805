package synth

import (
	"fmt"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// Design is a netlist under synthesis: the netlist plus the constraints the
// script has applied so far.
type Design struct {
	NL        *netlist.Netlist
	WL        *liberty.WireLoad
	Cons      sta.Constraints
	MaxFanout int     // 0 = unconstrained
	MaxArea   float64 // 0 = unconstrained
	Compiled  bool
	ClockPort string

	// Cached timing, refreshed via sta's generation tracking: report and
	// optimization commands between edits share one analysis, delay-only
	// edits refresh it incrementally, structural edits rebuild it in place,
	// and so do constraint changes. tm is the storage — a restored design
	// starts with the one its workspace last used (see workspace) — and tmOK
	// says whether it holds an analysis of NL under tmCons.
	tm     *sta.Timing
	tmOK   bool
	tmCons sta.Constraints // constraints the cache was built under

	sc *passScratch // see scratch
}

// scratch returns the working storage the design's passes share, the
// workspace's own on a restored design.
func (d *Design) scratch() *passScratch {
	if d.sc == nil {
		d.sc = new(passScratch)
	}
	return d.sc
}

// Timing returns STA results for the design's current constraints. The
// analysis is cached across calls; netlist edits are picked up through the
// netlist's edit generations, constraint changes force a full re-analysis.
func (d *Design) Timing() (*sta.Timing, error) {
	if d.Cons.Period <= 0 {
		return nil, fmt.Errorf("no clock constraint: run create_clock first")
	}
	if d.tmOK && d.tm.NL == d.NL && d.tm.WL == d.WL && d.tmCons == d.Cons {
		if err := d.tm.Update(nil); err != nil {
			d.tmOK = false
			return nil, err
		}
		return d.tm, nil
	}
	if d.tm == nil {
		d.tm = new(sta.Timing)
	}
	err := d.tm.Reset(d.NL, d.WL, d.Cons)
	d.tmOK, d.tmCons = err == nil, d.Cons
	if err != nil {
		return nil, err
	}
	return d.tm, nil
}

// QoR summarizes quality of results: the metrics in the paper's Tables III
// and IV plus cell statistics.
type QoR struct {
	Design     string
	Period     float64
	WNS        float64 // worst negative slack (ns), <= 0
	CPS        float64 // critical path slack (ns), sign-free
	TNS        float64 // total negative slack (ns), <= 0
	Area       float64 // um^2
	Leakage    float64 // nW
	Cells      int
	Seq        int
	Violations int // violating endpoints
}

// QoR computes the design's current quality of results.
func (d *Design) QoR() (QoR, error) {
	tm, err := d.Timing()
	if err != nil {
		return QoR{}, err
	}
	viol := countViolations(tm)
	return QoR{
		Design:     d.NL.Name,
		Period:     d.Cons.Period,
		WNS:        tm.WNS(),
		CPS:        tm.CPS(),
		TNS:        tm.TNS(),
		Area:       d.NL.Area(),
		Leakage:    d.NL.Leakage(),
		Cells:      len(d.NL.Cells),
		Seq:        d.NL.SeqCount(),
		Violations: viol,
	}, nil
}

// countViolations counts the endpoints with negative slack.
func countViolations(tm *sta.Timing) int {
	viol := 0
	for _, e := range tm.Violators() {
		if e.Slack < 0 { // a NaN slack leads the violators but is not one
			viol++
		}
	}
	return viol
}

// Effort is a compile effort level.
type Effort int

const (
	EffortLow Effort = iota
	EffortMedium
	EffortHigh
)

// ParseEffort converts dc_shell effort strings.
func ParseEffort(s string) (Effort, error) {
	switch s {
	case "low":
		return EffortLow, nil
	case "medium":
		return EffortMedium, nil
	case "high":
		return EffortHigh, nil
	}
	return 0, fmt.Errorf("invalid effort %q (must be low, medium, or high)", s)
}

// CompileOptions configures a compile or compile_ultra run.
type CompileOptions struct {
	MapEffort        Effort
	AreaEffort       Effort
	Incremental      bool
	Ultra            bool
	Retime           bool // compile_ultra -retime
	NoAutoUngroup    bool // compile_ultra -no_autoungroup
	TimingHighEffort bool // compile_ultra -timing_high_effort_script
	AreaHighEffort   bool // compile_ultra -area_high_effort_script
}

// effort is the mapping effort the options select.
func (o CompileOptions) effort() Effort {
	if o.Ultra {
		return EffortHigh
	}
	return o.MapEffort
}

// retimeMoves bounds the register moves one retiming pass may make.
const retimeMoves = 4000

// preSizing is everything besides the netlist and its library that Compile
// reads before it sizes — the structural passes, then retiming — and so the
// key under which the checkpoint store keeps the netlist they produce and
// hands it to every later run that asks for the same one (see
// CheckpointStore). Every input those passes read is a field here:
//
//   - the structural passes read the netlist, the library, the three booleans
//     the options decide and the fanout limit;
//   - RetimeWith reads the netlist (Fixed and Group included), the library,
//     the wireload, all five Constraints fields (through the Timing it is
//     handed) and the retimeMoves budget, a constant.
//
// The netlist and the library are the snapshot's own key. The wireload goes
// in by name — the library fingerprint binds every wireload table — and, like
// the constraints, only with retime set: without it no pass here reads
// either, and the key stays what every period and wireload share. A pass
// added to run, or a new input to one already there, must show up here.
type preSizing struct {
	ungroup     bool // flatten, then sweep the boundary inverter pairs freed
	restructure bool // merge gate/inverter pairs
	balance     bool // rebalance associative chains, then restructure again
	maxFanout   int  // split nets above this fanout; 0 = no limit set

	retime   bool            // move registers across gates on violating paths
	wireload string          // zero unless retime
	cons     sta.Constraints // zero unless retime
}

func (o CompileOptions) preSizing(d *Design) preSizing {
	p := preSizing{
		ungroup:     o.Ultra && !o.NoAutoUngroup,
		restructure: o.effort() >= EffortMedium && !o.Incremental,
		balance:     o.effort() >= EffortHigh && !o.Incremental,
		maxFanout:   d.MaxFanout,
	}
	if o.Retime {
		p.retime, p.cons = true, d.Cons
		if d.WL != nil {
			p.wireload = d.WL.Name
		}
	}
	return p
}

// run applies the passes to d.
func (p preSizing) run(d *Design) {
	nl, sc := d.NL, d.scratch()
	sweep(nl, sc)
	if p.ungroup {
		nl.Ungroup("")
		sweep(nl, sc) // boundary inverter pairs become removable
	}
	if p.restructure {
		restructure(nl, sc)
	}
	if p.balance {
		balanceTrees(nl, sc)
		restructure(nl, sc)
	}
	// Fanout buffering happens only under an explicit constraint: choosing
	// set_max_fanout/balance_buffers is exactly the kind of design-specific
	// decision the customization experiment measures.
	if p.maxFanout > 0 {
		BufferHighFanout(nl, p.maxFanout)
	}
	// A combinational loop leaves nothing to time: no moves.
	if p.retime {
		if tm, err := d.Timing(); err == nil {
			RetimeWith(tm, retimeMoves)
		}
	}
}

// Compile runs the synthesis optimization flow. Which passes run — and
// therefore what QoR comes out — depends mechanically on the options, so a
// well-customized script visibly beats a generic one.
func Compile(d *Design, opts CompileOptions) error {
	return compileFrom(d, opts, func(p preSizing) { p.run(d) })
}

// compileFrom is Compile with everything before sizing left to pre, which
// must leave d.NL exactly as preSizing.run would: the session passes one that
// can take the result from the checkpoint store instead of computing it.
func compileFrom(d *Design, opts CompileOptions, pre func(preSizing)) error {
	if d.Cons.Period <= 0 {
		return fmt.Errorf("compile: no clock constraint defined (create_clock)")
	}
	pre(opts.preSizing(d))
	effort := opts.effort()

	// One shared timing analysis drives the remaining passes, each refreshing
	// it incrementally (after a computed retime this call picks up the last
	// sweep's moves; after a served one it is the only full analysis). A nil
	// tm means the netlist has a combinational loop — the timing passes would
	// each have bailed out individually, so skip them as a group.
	tm, tmErr := d.Timing()
	if tmErr != nil {
		tm = nil
	}

	// Effort controls how hard sizing works: iterations, the strongest
	// drive it may use, and the smallest win it still takes.
	var so SizeOptions
	switch {
	case opts.Ultra:
		so = SizeOptions{MaxIters: 24, MaxDrive: 16, MinGain: 0.0001}
	case effort == EffortLow:
		so = SizeOptions{MaxIters: 2, MaxDrive: 2, MinGain: 0.004}
	case effort == EffortMedium:
		so = SizeOptions{MaxIters: 8, MaxDrive: 4, MinGain: 0.0015}
	case effort == EffortHigh:
		so = SizeOptions{MaxIters: 16, MaxDrive: 8, MinGain: 0.0004}
	}
	if opts.TimingHighEffort {
		so.MaxIters += 12
		so.TargetSlack = 0.10 * d.Cons.Period
	}
	if tm != nil {
		SizeForTimingWith(tm, so)
	}

	areaMargin := -1.0 // skip
	switch {
	case opts.AreaHighEffort:
		areaMargin = 0.08
	case opts.Ultra:
		areaMargin = 0.15
	case opts.AreaEffort >= EffortHigh:
		areaMargin = 0.12
	case opts.AreaEffort == EffortMedium || effort >= EffortMedium:
		areaMargin = 0.30
	}
	if areaMargin >= 0 && tm != nil {
		areaRecovery(tm, areaMargin, d.scratch())
		if opts.AreaHighEffort {
			areaRecovery(tm, areaMargin, d.scratch())
		}
	}

	sweep(d.NL, d.scratch())
	d.Compiled = true
	return nil
}
