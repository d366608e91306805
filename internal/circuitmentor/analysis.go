package circuitmentor

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/verilog"
)

// Analysis is CircuitMentor's structural characterization of a design: the
// graph-derived facts that determine which synthesis commands pay off. Its
// Render output becomes the "Design characteristics" prompt section.
type Analysis struct {
	Design       string
	Cells        int
	Registers    int
	Groups       int
	MaxFanout    int
	FanoutSignal string
	// Stage balance: worst flop-endpoint arrival over the median one.
	ImbalanceRatio float64
	// Cross-boundary inverter pairs: hierarchy overhead removable only by
	// ungrouping.
	BoundaryInvPairs int
	// Critical path shape.
	PathSteps int
	StartAtPI bool
	EndAtPO   bool
	XorFrac   float64
	MulHeavy  bool
	Traits    []string
}

// Analysis thresholds: tuned so the detector reproduces the ground-truth
// traits of the benchmark set.
const (
	fanoutThreshold    = 32
	imbalanceThreshold = 2.2
	boundaryInvPairsTh = 48
	serialStepsTh      = 30
)

var hits, misses, snapshotReads atomic.Int64

// MemoStats are the lifetime analysis counters, exposed by the serving daemon
// as chatlsd_mentor_cache_{hits,misses}_total and
// chatlsd_mentor_snapshot_reads_total: Hits read off a snapshot, Misses
// computed, SnapshotReads the part of Misses that read the design's post-link
// snapshot (the rest parsed and elaborated).
type MemoStats struct {
	Hits, Misses  int64
	SnapshotReads int64
}

// Stats returns the analysis counters.
func Stats() MemoStats {
	return MemoStats{Hits: hits.Load(), Misses: misses.Load(), SnapshotReads: snapshotReads.Load()}
}

// AnalyzeContext elaborates the design and computes its structural
// characterization using a quick timing pass — the graph-based analysis the
// paper performs with Neo4j path queries and GNN features. The context is
// checked before the analysis and between the parse, elaborate, and timing
// phases. It keeps nothing (see AnalyzeSnapshotContext).
func AnalyzeContext(ctx context.Context, src, top string, period float64, lib *liberty.Library) (*Analysis, error) {
	return AnalyzeSnapshotContext(ctx, synth.Snapshot{}, src, top, period, lib)
}

// AnalyzeSnapshotContext is AnalyzeContext for a caller that holds the handle
// of a synthesis run of the same design on the same library. The analysis is
// a per-design artefact (paper §IV-A): it is kept on the snapshot under lib
// and period, and a miss characterizes the post-link netlist the store holds.
// The zero handle, or one whose snapshot the store has evicted, parses and
// elaborates src to the same analysis. Every caller gets its own copy.
func AnalyzeSnapshotContext(ctx context.Context, snap synth.Snapshot, src, top string, period float64, lib *liberty.Library) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, hit, err := snap.Keep(src, top, synth.KeepKey{Owner: lib, N: math.Float64bits(period)}, func() (any, error) {
		misses.Add(1)
		return analyze(ctx, snap, src, top, period, lib)
	})
	if err != nil {
		return nil, err
	}
	if hit {
		hits.Add(1)
	}
	a := *v.(*Analysis)
	a.Traits = append([]string(nil), a.Traits...)
	return &a, nil
}

// analyze computes the analysis: characterize the netlist snap lends,
// thawed into the store's own workspace and timed in that workspace's Timing —
// storage the design's next synthesis run overwrites anyway — or, when snap
// finds nothing, parse, elaborate, characterize.
func analyze(ctx context.Context, snap synth.Snapshot, src, top string, period float64, lib *liberty.Library) (*Analysis, error) {
	var a *Analysis
	found, err := snap.Netlist(src, top, func(nl *netlist.Netlist, tm *sta.Timing) error {
		if err := tm.Reset(nl, nl.Lib.WireLoad(""), sta.Constraints{Period: period}); err != nil {
			return err
		}
		a = characterize(nl, tm)
		return nil
	})
	if found {
		if err != nil {
			return nil, err
		}
		snapshotReads.Add(1)
		return a, nil
	}
	file, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nl, err := netlist.Elaborate(file, top, nil, lib)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return AnalyzeNetlist(nl, period)
}

// AnalyzeNetlist characterizes an already-elaborated netlist.
func AnalyzeNetlist(nl *netlist.Netlist, period float64) (*Analysis, error) {
	tm, err := sta.Analyze(nl, nl.Lib.WireLoad(""), sta.Constraints{Period: period})
	if err != nil {
		return nil, err
	}
	return characterize(nl, tm), nil
}

// characterize reads the analysis off a netlist and the quick timing pass tm
// holds of it. It keeps nothing of either but strings and numbers.
func characterize(nl *netlist.Netlist, tm *sta.Timing) *Analysis {
	a := &Analysis{
		Design:    nl.Name,
		Cells:     len(nl.Cells),
		Registers: nl.SeqCount(),
		Groups:    len(nl.GroupNames()),
	}

	// Fanout profile.
	for _, n := range nl.Nets {
		if n.IsClk || n.IsRst || n.Const {
			continue
		}
		if fo := len(n.Sinks); fo > a.MaxFanout {
			a.MaxFanout = fo
			a.FanoutSignal = n.Name
		}
	}

	// Stage balance over flop endpoints.
	var flopArrivals []float64
	for _, e := range tm.Endpoints() {
		if e.Cell != nil {
			flopArrivals = append(flopArrivals, e.Arrival)
		}
	}
	if len(flopArrivals) >= 4 {
		sort.Float64s(flopArrivals)
		med := flopArrivals[len(flopArrivals)/2]
		worst := flopArrivals[len(flopArrivals)-1]
		if med > 1e-9 {
			a.ImbalanceRatio = worst / med
		}
	}

	// Hierarchy overhead: inverter pairs split across groups.
	for _, c := range nl.Cells {
		if c.Ref.Kind != liberty.KindInv {
			continue
		}
		d := c.Inputs[0].Driver
		if d != nil && d.Ref.Kind == liberty.KindInv && d.Group != c.Group {
			a.BoundaryInvPairs++
		}
	}

	// Critical path shape.
	p := tm.CriticalPath()
	a.PathSteps = len(p.Steps)
	a.StartAtPI = !strings.Contains(p.Startpoint, "/CK")
	a.EndAtPO = !strings.HasSuffix(p.Endpoint, "/D")

	// Logic mix.
	s := nl.Summary()
	if s.Cells > 0 {
		a.XorFrac = float64(s.ByKind[liberty.KindXor2]+s.ByKind[liberty.KindXnor2]) / float64(s.Cells)
	}
	a.MulHeavy = s.ByKind[liberty.KindAnd2] > s.Cells/4 && s.ByKind[liberty.KindXor2] > s.Cells/8

	// Trait classification.
	if a.MaxFanout > fanoutThreshold {
		a.Traits = append(a.Traits, "high-fanout")
	}
	if a.ImbalanceRatio > imbalanceThreshold {
		a.Traits = append(a.Traits, "register-imbalance")
	}
	if a.BoundaryInvPairs > boundaryInvPairsTh {
		a.Traits = append(a.Traits, "hierarchy-overhead")
	}
	if a.StartAtPI && a.EndAtPO && a.PathSteps > serialStepsTh {
		a.Traits = append(a.Traits, "deep-serial-logic")
	}
	if a.XorFrac > 0.25 || a.MulHeavy {
		a.Traits = append(a.Traits, "wide-arithmetic")
	}
	if len(a.Traits) == 0 {
		a.Traits = append(a.Traits, "balanced")
	}
	return a
}

// HasTrait reports whether the analysis detected the trait.
func (a *Analysis) HasTrait(t string) bool {
	for _, x := range a.Traits {
		if x == t {
			return true
		}
	}
	return false
}

// Render formats the analysis as the "Design characteristics" prompt
// section consumed by the generator LLM.
func (a *Analysis) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design: %s (%d cells, %d registers, %d hierarchical blocks)\n",
		a.Design, a.Cells, a.Registers, a.Groups)
	for _, t := range a.Traits {
		switch t {
		case "high-fanout":
			fmt.Fprintf(&b, "trait: high-fanout; worst net fanout %d (signal %s)\n", a.MaxFanout, a.FanoutSignal)
		case "register-imbalance":
			fmt.Fprintf(&b, "trait: register-imbalance; stage depth ratio %.1f\n", a.ImbalanceRatio)
		case "hierarchy-overhead":
			fmt.Fprintf(&b, "trait: hierarchy-overhead; %d boundary inverter pairs across %d blocks\n",
				a.BoundaryInvPairs, a.Groups)
		case "deep-serial-logic":
			fmt.Fprintf(&b, "trait: deep-serial-logic; critical path %d stages from input to output pins\n", a.PathSteps)
		case "wide-arithmetic":
			fmt.Fprintf(&b, "trait: wide-arithmetic; xor fraction %.2f\n", a.XorFrac)
		case "balanced":
			b.WriteString("trait: balanced; no dominant structural bottleneck\n")
		}
	}
	return b.String()
}
