// Package sta implements static timing analysis over gate-level netlists
// using the library's linear delay model and wireload-based net parasitics.
// It produces the three timing metrics the paper's evaluation reports —
// worst negative slack (WNS), critical path slack (CPS), and total negative
// slack (TNS) — along with per-endpoint slacks and critical-path traces
// used by the optimizer and by report_timing.
//
// Analysis state is slice-indexed by Net.ID/Cell.ID rather than keyed by
// pointer maps, and a Timing can be kept alive across netlist edits: after
// delay-only edits (cell resizing) Update re-propagates only the affected
// fanout/fanin cones, falling back to a full re-analysis when the topology
// changed. See DESIGN.md "Performance".
package sta

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/liberty"
	"repro/internal/netlist"
)

// Constraints configures an analysis run.
type Constraints struct {
	Period        float64 // clock period, ns
	InputDelay    float64 // arrival time at primary inputs
	OutputDelay   float64 // required-time margin at primary outputs
	OutputLoad    float64 // capacitive load on primary outputs, pF
	InputDriveRes float64 // driving-cell resistance at primary inputs, ns/pF
}

// DefaultOutputLoad is used when Constraints.OutputLoad is zero.
const DefaultOutputLoad = 0.004

// DefaultInputDriveRes models the pad/driver behind each primary input, so
// loading an input net is not free and buffering high-fanout input nets
// pays off the way it does in a real flow.
const DefaultInputDriveRes = 6.0

// Timing holds the results of one STA run and the state needed to refresh
// them incrementally.
type Timing struct {
	NL   *netlist.Netlist
	WL   *liberty.WireLoad
	Cons Constraints

	arr   []float64       // by Net.ID; NaN = no arrival recorded
	req   []float64       // by Net.ID; +Inf = unconstrained
	pos   []int32         // by Cell.ID; topological position, -1 = sequential
	order []*netlist.Cell // combinational cells in topological order
	// stage caches stageDelay by Cell.ID for the combinational cells: forward
	// fills it, the backward pass and both incremental directions read it —
	// one load walk per cell and analysis instead of one per visit and sink —
	// and Update refreshes exactly the entries a resize moved.
	stage []float64

	ends    []Endpoint
	endHead []int32 // by Net.ID; first endpoint index on that net, -1 = none
	endNext []int32 // by endpoint index; next endpoint on the same net
	// How far ends is in worst-first order (see sortEnds), and, from
	// violatorsSorted on, how many endpoints lead it as violators.
	endsOrder endsOrder
	nViol     int

	// Worklist state, reused across Update calls (see incremental.go). The
	// flags are always all-false and the counters zero between calls.
	inFQ     []bool         // by Cell.ID: cell is queued forward
	inBQ     []bool         // by Net.ID: net is queued backward
	fPending int            // cells flagged in inFQ
	bPending int            // combinationally driven nets flagged in inBQ
	fMin     int32          // lowest position in order flagged forward
	bMax     int32          // highest driver position flagged backward
	bSrc     []*netlist.Net // flagged nets with no combinational driver
	dirty    int            // nets recomputed by the current Update

	// Levelize scratch, reused across full re-analyses.
	indeg []int32
	ready []*netlist.Cell

	// Netlist edit generations this Timing reflects.
	gen     uint64
	topoGen uint64
}

// Endpoint is a timing path endpoint: a flip-flop D pin or a primary output.
// Its name — the flop's cell name + "/D", or the output net's name — is not
// kept: an analysis has hundreds of endpoints and a report names a handful,
// so TracePath builds the ones it is asked for.
type Endpoint struct {
	Net     *netlist.Net  // the net arriving at the endpoint
	Cell    *netlist.Cell // nil for primary outputs
	Arrival float64
	Slack   float64
}

// nameParts returns the endpoint's name as a base and a suffix to append.
func (e *Endpoint) nameParts() (base, suffix string) {
	if e.Cell != nil {
		return e.Cell.Name, "/D"
	}
	return e.Net.Name, ""
}

// endsOrder says how much of Timing.ends is sorted.
type endsOrder uint8

const (
	unsorted        endsOrder = iota
	violatorsSorted           // violators lead, in order; the rest follow in no order
	allSorted
)

// Analyze runs full forward/backward timing propagation. It returns an error
// on combinational loops.
func Analyze(nl *netlist.Netlist, wl *liberty.WireLoad, cons Constraints) (*Timing, error) {
	t := new(Timing)
	if err := t.Reset(nl, wl, cons); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset points t at nl under wl and cons and analyses it in place, exactly
// as Analyze would have into a new Timing: the buffers t grew analysing
// whatever it was pointed at before are reused, so onto a netlist no larger
// than the last one it allocates nothing. Nothing of the earlier netlist
// stays reachable through t, and nothing of the earlier analysis is read —
// t may come from a run that was aborted at any point. After an error
// (a combinational loop) t holds no analysis and may only be Reset again.
func (t *Timing) Reset(nl *netlist.Netlist, wl *liberty.WireLoad, cons Constraints) error {
	if cons.OutputLoad == 0 {
		cons.OutputLoad = DefaultOutputLoad
	}
	if cons.InputDriveRes == 0 {
		cons.InputDriveRes = DefaultInputDriveRes
	}
	t.NL, t.WL, t.Cons = nl, wl, cons
	// The slices of pointers into the netlist are rebuilt from length zero;
	// zero them to capacity so a stale tail cannot pin the old netlist's
	// cells. The ID-indexed slices hold no pointers and are overwritten.
	t.order = zeroed(t.order)
	t.ready = zeroed(t.ready)
	t.bSrc = zeroed(t.bSrc)
	t.ends = zeroed(t.ends)
	t.fPending, t.bPending, t.dirty = 0, 0, 0
	return t.reanalyze()
}

// zeroed returns s[:0] with every element up to its capacity zeroed.
func zeroed[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// reanalyze rebuilds all timing state in place. Every per-net and per-cell
// buffer is reused: grow leaves headroom, so an edit that adds a few cells
// (a retiming sweep, a buffer tree) re-analyzes without allocating.
func (t *Timing) reanalyze() error {
	fullAnalyses.Add(1)
	nNets := t.NL.NetIDBound()
	nCells := t.NL.CellIDBound()
	t.arr = grow(t.arr, nNets)
	t.req = grow(t.req, nNets)
	t.pos = grow(t.pos, nCells)
	t.stage = grow(t.stage, nCells)
	t.inFQ = grow(t.inFQ, nCells)
	t.inBQ = grow(t.inBQ, nNets)
	clear(t.inFQ)
	clear(t.inBQ)
	if err := t.levelize(); err != nil {
		return err
	}
	t.forward()
	t.backward()
	t.collectEndpoints()
	t.gen = t.NL.Gen()
	t.topoGen = t.NL.TopoGen()
	return nil
}

// grow returns s with length n, reallocating — with a quarter again as
// headroom, contents not preserved — only when n exceeds its capacity. The
// result is s[:n]: nothing reads the headroom until a later grow claims it.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// LoadCap returns the total capacitive load on a net: sink pin caps, the
// wireload estimate for its fanout, and the output pad load if it is a
// primary output.
func (t *Timing) LoadCap(n *netlist.Net) float64 {
	load := 0.0
	for _, p := range n.Sinks {
		load += p.Cell.Ref.InputCap
	}
	if n.PO {
		load += t.Cons.OutputLoad
	}
	return load + t.WL.Cap(n.Fanout())
}

// stageDelay is the delay from a cell's inputs to its output net's sinks:
// cell delay under load plus the lumped wire delay.
func (t *Timing) stageDelay(c *netlist.Cell) float64 {
	load := t.LoadCap(c.Output)
	wire := 0.0
	if t.WL != nil {
		wire = t.WL.Res * t.WL.Cap(c.Output.Fanout())
	}
	return c.Ref.Delay(load) + wire
}

// levelize topologically orders combinational cells; sequential cells are
// timing sources and sinks, not ordered. It also records each cell's
// topological position for the incremental worklists.
func (t *Timing) levelize() error {
	// indeg needs no clearing: every slot read below is assigned in the
	// first loop first.
	indeg := grow(t.indeg, t.NL.CellIDBound())
	for i := range t.pos {
		t.pos[i] = -1
	}
	comb := 0
	// Both end up holding every combinational cell; sized up front (by the
	// cell count, with grow's headroom) they never regrow mid-levelize.
	ready := grow(t.ready, len(t.NL.Cells))[:0]
	for _, c := range t.NL.Cells {
		if c.IsSeq() {
			continue
		}
		comb++
		deps := int32(0)
		for _, in := range c.Inputs {
			if in.Driver != nil && !in.Driver.IsSeq() {
				deps++
			}
		}
		indeg[c.ID] = deps
		if deps == 0 {
			ready = append(ready, c)
		}
	}
	slices.SortFunc(ready, func(a, b *netlist.Cell) int { return a.ID - b.ID })
	order := grow(t.order, len(t.NL.Cells))[:0]
	for head := 0; head < len(ready); head++ {
		c := ready[head]
		t.pos[c.ID] = int32(len(order))
		order = append(order, c)
		for _, p := range c.Output.Sinks {
			s := p.Cell
			if s.IsSeq() {
				continue
			}
			indeg[s.ID]--
			if indeg[s.ID] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != comb {
		for _, c := range t.NL.Cells {
			if !c.IsSeq() && indeg[c.ID] > 0 {
				return fmt.Errorf("combinational loop detected through cell %s (%s)", c.Name, c.Ref.Name)
			}
		}
	}
	t.order = order
	t.indeg = indeg
	t.ready = ready[:0]
	return nil
}

// sourceArrival computes the arrival of a net driven by a primary input or a
// sequential cell; ok is false for nets with no arrival (constants, clocks).
func (t *Timing) sourceArrival(n *netlist.Net) (float64, bool) {
	if d := n.Driver; d != nil {
		if d.IsSeq() {
			return d.Ref.Delay(t.LoadCap(n)) + t.wireDelay(n), true
		}
		return 0, false // combinational output: computed in topological order
	}
	if n.PI && !n.IsClk && !n.IsRst {
		return t.Cons.InputDelay + t.Cons.InputDriveRes*t.LoadCap(n) + t.wireDelay(n), true
	}
	return 0, false
}

// cellArrival computes the output arrival of a combinational cell from its
// inputs' current arrivals and its cached stage delay.
func (t *Timing) cellArrival(c *netlist.Cell) float64 {
	worst := 0.0
	for _, in := range c.Inputs {
		if a := t.arr[in.ID]; a > worst { // NaN compares false
			worst = a
		}
	}
	return worst + t.stage[c.ID]
}

func (t *Timing) forward() {
	nan := math.NaN()
	for i := range t.arr {
		t.arr[i] = nan
	}
	// Sources. Primary inputs arrive after their external driver charges
	// the net's load.
	for _, n := range t.NL.Inputs {
		if a, ok := t.sourceArrival(n); ok {
			t.arr[n.ID] = a
		}
	}
	for _, c := range t.NL.Cells {
		if c.IsSeq() {
			t.arr[c.Output.ID] = c.Ref.Delay(t.LoadCap(c.Output)) + t.wireDelay(c.Output)
		}
	}
	// Propagate through combinational cells.
	for _, c := range t.order {
		t.stage[c.ID] = t.stageDelay(c)
		t.arr[c.Output.ID] = t.cellArrival(c)
	}
}

func (t *Timing) wireDelay(n *netlist.Net) float64 {
	if t.WL == nil {
		return 0
	}
	return t.WL.Res * t.WL.Cap(n.Fanout())
}

// recomputeReq computes a net's required time from its consumers' current
// state. min() is order-independent, so the result is bit-identical to what
// the full backward pass produces for the same inputs.
func (t *Timing) recomputeReq(n *netlist.Net) float64 {
	r := math.Inf(1)
	for _, p := range n.Sinks {
		s := p.Cell
		if s.IsSeq() {
			// Sink pins always index into Inputs, so this is the D pin.
			if v := t.Cons.Period - s.Ref.Setup; v < r {
				r = v
			}
			continue
		}
		if v := t.req[s.Output.ID] - t.stage[s.ID]; v < r {
			r = v
		}
	}
	if n.PO {
		if v := t.Cons.Period - t.Cons.OutputDelay; v < r {
			r = v
		}
	}
	return r
}

func (t *Timing) backward() {
	inf := math.Inf(1)
	for i := range t.req {
		t.req[i] = inf
	}
	// Endpoint required times.
	for _, c := range t.NL.Cells {
		if !c.IsSeq() {
			continue
		}
		d := c.Inputs[0]
		r := t.Cons.Period - c.Ref.Setup
		if r < t.req[d.ID] {
			t.req[d.ID] = r
		}
	}
	for _, o := range t.NL.Outputs {
		r := t.Cons.Period - t.Cons.OutputDelay
		if r < t.req[o.ID] {
			t.req[o.ID] = r
		}
	}
	// Propagate backward through combinational cells.
	for i := len(t.order) - 1; i >= 0; i-- {
		c := t.order[i]
		r := t.req[c.Output.ID] - t.stage[c.ID]
		for _, in := range c.Inputs {
			if r < t.req[in.ID] {
				t.req[in.ID] = r
			}
		}
	}
}

func (t *Timing) collectEndpoints() {
	t.ends = t.ends[:0]
	for _, c := range t.NL.Cells {
		if !c.IsSeq() {
			continue
		}
		d := c.Inputs[0]
		arr := t.Arrival(d)
		t.ends = append(t.ends, Endpoint{
			Net:     d,
			Cell:    c,
			Arrival: arr,
			Slack:   t.Cons.Period - c.Ref.Setup - arr,
		})
	}
	for _, o := range t.NL.Outputs {
		arr := t.Arrival(o)
		t.ends = append(t.ends, Endpoint{
			Net:     o,
			Arrival: arr,
			Slack:   t.Cons.Period - t.Cons.OutputDelay - arr,
		})
	}
	t.endsOrder = unsorted
	t.rebuildEndChains()
}

// rebuildEndChains indexes endpoints by net so incremental updates can
// refresh only the endpoints whose arrival changed. A net can carry several
// endpoints (a D pin shared by multiple flops, a PO that also feeds a flop).
func (t *Timing) rebuildEndChains() {
	t.endHead = grow(t.endHead, t.NL.NetIDBound())
	for i := range t.endHead {
		t.endHead[i] = -1
	}
	t.endNext = grow(t.endNext, len(t.ends))
	for i := range t.ends {
		id := t.ends[i].Net.ID
		t.endNext[i] = t.endHead[id]
		t.endHead[id] = int32(i)
	}
}

// refreshEndsOnNet recomputes arrival and slack of every endpoint on net n.
func (t *Timing) refreshEndsOnNet(n *netlist.Net) {
	i := t.endHead[n.ID]
	if i < 0 {
		return
	}
	arr := t.Arrival(n)
	for ; i >= 0; i = t.endNext[i] {
		e := &t.ends[i]
		e.Arrival = arr
		if e.Cell != nil {
			e.Slack = t.Cons.Period - e.Cell.Ref.Setup - arr
		} else {
			e.Slack = t.Cons.Period - t.Cons.OutputDelay - arr
		}
	}
	t.endsOrder = unsorted
}

// compareEndpoints is the worst-first order: total on (Slack, name). TNS sums
// t.ends in slice order, so the sorted permutation must not depend on the one
// the sort started from. Equal slacks are common — every flop behind one
// shared cone — so the names are compared where they lie, not built.
func compareEndpoints(a, b Endpoint) int {
	if a.Slack != b.Slack {
		return cmp.Compare(a.Slack, b.Slack)
	}
	an, as := a.nameParts()
	bn, bs := b.nameParts()
	return compareSuffixed(an, as, bn, bs)
}

// compareSuffixed returns strings.Compare(a+as, b+bs) without building
// either string.
func compareSuffixed(a, as, b, bs string) int {
	n := min(len(a), len(b))
	if c := strings.Compare(a[:n], b[:n]); c != 0 {
		return c
	}
	switch {
	case len(a) > n:
		return compareRest(a[n:], as, bs)
	case len(b) > n:
		return -compareRest(b[n:], bs, as)
	}
	return strings.Compare(as, bs)
}

// compareRest returns strings.Compare(x+xs, y).
func compareRest(x, xs, y string) int {
	n := min(len(x), len(y))
	if c := strings.Compare(x[:n], y[:n]); c != 0 {
		return c
	}
	if len(x) > n {
		return 1 // y ran out inside x
	}
	return strings.Compare(xs, y[n:])
}

// sortEnds brings t.ends into worst-first order: the endpoints that do not
// meet timing moved to the front and sorted, and with all set the rest sorted
// behind them — which, the order being total with negative slacks first, is
// the one order a sort of the whole slice gives. Most readers want the
// violators only (9–76 of 216–334 endpoints on tinyRocket's analyses).
//
// "Does not meet" is !(Slack >= 0) rather than Slack < 0 so that a NaN slack
// (a NaN period parses), which the order puts before every number, stays in
// front.
func (t *Timing) sortEnds(all bool) {
	if t.endsOrder == allSorted || (t.endsOrder == violatorsSorted && !all) {
		return
	}
	if t.endsOrder == unsorted {
		k := 0
		for i := range t.ends {
			if !(t.ends[i].Slack >= 0) {
				t.ends[i], t.ends[k] = t.ends[k], t.ends[i]
				k++
			}
		}
		t.nViol = k
		slices.SortFunc(t.ends[:k], compareEndpoints)
		t.endsOrder = violatorsSorted
	}
	if all {
		slices.SortFunc(t.ends[t.nViol:], compareEndpoints)
		t.endsOrder = allSorted
	}
	t.rebuildEndChains()
}

// Endpoints returns all endpoints sorted worst-slack first.
func (t *Timing) Endpoints() []Endpoint {
	t.sortEnds(true)
	return t.ends
}

// Violators returns the endpoints that do not meet timing, worst first: the
// leading Slack < 0 run of Endpoints, without ordering the endpoints behind
// it. The slice is valid until the next analysis or update.
func (t *Timing) Violators() []Endpoint {
	t.sortEnds(false)
	return t.ends[:t.nViol:t.nViol]
}

// CPS is the critical path slack: the slack of the single worst path,
// positive when the design meets timing with margin.
func (t *Timing) CPS() float64 {
	if len(t.ends) == 0 {
		return t.Cons.Period
	}
	if t.endsOrder == allSorted || (t.endsOrder == violatorsSorted && t.nViol > 0) {
		return t.ends[0].Slack
	}
	worst := math.Inf(1)
	for i := range t.ends {
		if t.ends[i].Slack < worst {
			worst = t.ends[i].Slack
		}
	}
	return worst
}

// WNS is the worst negative slack: min(0, CPS).
func (t *Timing) WNS() float64 {
	cps := t.CPS()
	if cps > 0 {
		return 0
	}
	return cps
}

// TNS is the total negative slack summed over violating endpoints.
func (t *Timing) TNS() float64 {
	var tns float64
	for i := range t.ends {
		if t.ends[i].Slack < 0 {
			tns += t.ends[i].Slack
		}
	}
	return tns
}

// Arrival returns the arrival time at a net (0 for unknown nets).
func (t *Timing) Arrival(n *netlist.Net) float64 {
	if n.ID >= len(t.arr) {
		return 0
	}
	if a := t.arr[n.ID]; !math.IsNaN(a) {
		return a
	}
	return 0
}

// Required returns the required time at a net (+Inf when unconstrained).
func (t *Timing) Required(n *netlist.Net) float64 {
	if n.ID >= len(t.req) {
		return math.Inf(1)
	}
	return t.req[n.ID]
}

// Slack returns required - arrival at a net.
func (t *Timing) Slack(n *netlist.Net) float64 { return t.Required(n) - t.Arrival(n) }

// PathStep is one stage on a timing path.
type PathStep struct {
	Cell    *netlist.Cell // nil for the startpoint marker
	Net     *netlist.Net
	Incr    float64 // delay contributed by this stage
	Arrival float64
}

// Path is a startpoint-to-endpoint timing path.
type Path struct {
	Startpoint string
	Endpoint   string
	Slack      float64
	Steps      []PathStep
}

// CriticalPath traces the single worst path in the design.
func (t *Timing) CriticalPath() Path {
	t.sortEnds(true)
	if len(t.ends) == 0 {
		return Path{}
	}
	return t.TracePath(t.ends[0])
}

// TracePath walks backward from an endpoint along maximum-arrival inputs.
func (t *Timing) TracePath(end Endpoint) Path {
	base, suffix := end.nameParts()
	p := Path{Endpoint: base + suffix, Slack: end.Slack}
	var rev []PathStep
	n := end.Net
	for n != nil {
		c := n.Driver
		if c == nil {
			p.Startpoint = n.Name
			rev = append(rev, PathStep{Net: n, Arrival: t.Arrival(n)})
			break
		}
		rev = append(rev, PathStep{Cell: c, Net: n, Incr: t.stageDelay(c), Arrival: t.Arrival(n)})
		if c.IsSeq() {
			p.Startpoint = c.Name + "/CK"
			break
		}
		n = t.latestInput(c)
	}
	// Reverse into source-to-sink order.
	p.Steps = make([]PathStep, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		p.Steps = append(p.Steps, rev[i])
	}
	return p
}

// latestInput returns the input of c with the latest arrival (lowest Net.ID
// on a tie) — the net a critical path through c continues on — or nil for a
// cell without inputs.
func (t *Timing) latestInput(c *netlist.Cell) *netlist.Net {
	var worstIn *netlist.Net
	worstArr := math.Inf(-1)
	for _, in := range c.Inputs {
		a := t.Arrival(in)
		if a > worstArr || (a == worstArr && worstIn != nil && in.ID < worstIn.ID) {
			worstArr = a
			worstIn = in
		}
	}
	return worstIn
}

// LaunchCell returns the register that launches the worst path into end —
// TracePath(end).Steps[0].Cell when that is a sequential cell — or nil when
// the path starts at a port or a tie cell. It walks the same inputs TracePath
// does without building the path.
func (t *Timing) LaunchCell(end Endpoint) *netlist.Cell {
	for n := end.Net; n != nil; {
		c := n.Driver
		if c == nil || c.IsSeq() {
			return c
		}
		n = t.latestInput(c)
	}
	return nil
}

// WorstPaths returns up to n paths, one per worst endpoint.
func (t *Timing) WorstPaths(n int) []Path {
	t.sortEnds(true)
	if n > len(t.ends) {
		n = len(t.ends)
	}
	paths := make([]Path, 0, n)
	for i := 0; i < n; i++ {
		paths = append(paths, t.TracePath(t.ends[i]))
	}
	return paths
}

// CriticalCells returns the cells lying on paths with slack below the
// threshold, for the optimizer to focus on. The topological order contains
// each cell once, so no dedup set is needed.
func (t *Timing) CriticalCells(slackBelow float64) []*netlist.Cell {
	out := make([]*netlist.Cell, 0, 64)
	for _, c := range t.order {
		if t.Slack(c.Output) < slackBelow {
			out = append(out, c)
		}
	}
	return out
}

// MaxFanoutViolations lists nets whose fanout exceeds the limit.
func (t *Timing) MaxFanoutViolations(limit int) []*netlist.Net {
	if limit <= 0 {
		return nil
	}
	var out []*netlist.Net
	for _, n := range t.NL.Nets {
		if n.IsClk || n.IsRst || n.Const {
			continue
		}
		if n.Fanout() > limit {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fanout() > out[j].Fanout() })
	return out
}
