package sta

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
)

// fuzzNames are the name stems of FuzzWorstPaths's cells and ports: stems
// that are prefixes of each other and of a flop's built "<name>/D", so that
// equal slacks are told apart deep into the name.
var fuzzNames = []string{"U1", "U12", "U1/", "U1-x", "q", "q[1]", "q[10]", "r", "r/D", "r/E", "", "\xff"}

// fuzzSlacks are the slacks FuzzWorstPaths may force on an endpoint: few
// values, so ties are common, with NaN and both zeros.
var fuzzSlacks = []float64{math.NaN(), -2, -1, -0.5, math.Copysign(0, -1), 0, 0.5, 1, 1, 3}

// fuzzTiming builds a netlist of at most 24 cells from data — inputs, gates
// and flops drawn over the nets made so far, some nets marked as outputs,
// every name built from fuzzNames — and
// analyses it twice. The second analysis is the first's twin: the same
// endpoints in the same order, with the same slacks forced from data on both.
func fuzzTiming(data []byte) (a, b *Timing, n int, ok bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	lib := liberty.Nangate45()
	nl := netlist.New("fuzz", lib)
	// Names are unique, and so is each flop's built name: a port's name
	// ends in a digit or '_', an endpoint's built name in "/D".
	used := map[string]bool{}
	name := func(suffix string) string {
		s := fuzzNames[next()%len(fuzzNames)] + strconv.Itoa(next()%3)
		for used[s] || used[s+suffix] {
			s += "_"
		}
		used[s], used[s+suffix] = true, true
		return s
	}
	nets := []*netlist.Net{}
	for range 1 + next()%3 {
		in := nl.NewNet(name(""))
		in.PI = true
		nl.Inputs = append(nl.Inputs, in)
		nets = append(nets, in)
	}
	kinds := []liberty.Kind{liberty.KindInv, liberty.KindBuf, liberty.KindNand2, liberty.KindMux2, liberty.KindDFF}
	for len(data) > 0 && len(nl.Cells) < 24 {
		op := next()
		if op%5 == 4 {
			o := nets[next()%len(nets)]
			if !o.PO {
				o.PO = true
				nl.Outputs = append(nl.Outputs, o)
			}
			continue
		}
		k := kinds[op%len(kinds)]
		ins := make([]*netlist.Net, liberty.KindInputs[k])
		for i := range ins {
			ins[i] = nets[next()%len(nets)]
		}
		c, err := nl.AddCell(lib.Weakest(k), "", "", ins...)
		if err != nil {
			return nil, nil, 0, false
		}
		if k.IsSequential() {
			c.Name = name("/D")
		} else {
			c.Name = name("")
		}
		nets = append(nets, c.Output)
	}
	cons := Constraints{Period: float64(next()%8) / 2}
	if a, _ = Analyze(nl, lib.WireLoad(""), cons); a == nil {
		return nil, nil, 0, false
	}
	b, _ = Analyze(nl, lib.WireLoad(""), cons)
	for i := range a.ends {
		if s := next(); s%2 == 1 {
			a.ends[i].Slack = fuzzSlacks[s/2%len(fuzzSlacks)]
			b.ends[i].Slack = a.ends[i].Slack
		}
	}
	return a, b, next() % (len(a.ends) + 3), true
}

// samePaths compares paths field by field, floats by their bits.
func samePaths(x, y []Path) bool {
	return slices.EqualFunc(x, y, func(p, q Path) bool {
		return p.Startpoint == q.Startpoint && p.Endpoint == q.Endpoint &&
			math.Float64bits(p.Slack) == math.Float64bits(q.Slack) &&
			slices.EqualFunc(p.Steps, q.Steps, func(s, u PathStep) bool {
				return s.Cell == u.Cell && s.Net == u.Net &&
					math.Float64bits(s.Incr) == math.Float64bits(u.Incr) &&
					math.Float64bits(s.Arrival) == math.Float64bits(u.Arrival)
			})
	})
}

// FuzzWorstPaths: WorstPaths(n), which selects the endpoints behind the
// violators, returns the paths of the first n endpoints of a full sort, and
// leaves TNS, CPS and the violator count as a full sort does. The full sort is
// itself held to the definition — a stable sort on (slack, NaN first; built
// name) — so a comparator that left NaN slacks in the order they came fails.
func FuzzWorstPaths(f *testing.F) {
	for _, s := range []string{
		"", "\x00", "\x02\x04\x00\x04\x01\x04\x02\x00\x00\x05",
		"\x01\x00\x05\x00\x01\x04\x01\x00\x01\x01\x02\x00\x04\x02\x01\x04\x03\x02\x03\x01\x01\x01\x03\x05\x07\x09",
		"\x02\x07\x00\x04\x00\x09\x00\x04\x00\x00\x01\x04\x00\x09\x00\x04\x02\x00\x01\x01\x01\x01\x01\x06",
		strings.Repeat("\x04\x01\x02\x09\x03", 30),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, n, ok := fuzzTiming(data)
		if !ok {
			return
		}
		unsortedEnds := slices.Clone(b.ends)
		got := a.WorstPaths(n)
		ends := b.Endpoints()
		want := make([]Path, 0, n)
		for _, e := range ends[:min(n, len(ends))] {
			want = append(want, b.TracePath(e))
		}
		if !samePaths(got, want) {
			t.Fatalf("WorstPaths(%d) of %d endpoints (%d violators) differs from the first %d of a full sort", n, len(ends), len(b.Violators()), n)
		}
		def := slices.Clone(unsortedEnds)
		slices.SortStableFunc(def, func(x, y Endpoint) int {
			if c := cmp.Compare(x.Slack, y.Slack); c != 0 {
				return c
			}
			return strings.Compare(b.TracePath(x).Endpoint, b.TracePath(y).Endpoint)
		})
		if !slices.EqualFunc(ends, def, func(x, y Endpoint) bool {
			return x.Net == y.Net && x.Cell == y.Cell && math.Float64bits(x.Slack) == math.Float64bits(y.Slack)
		}) {
			t.Fatal("Endpoints is not the stable sort on (slack, built name)")
		}
		// CPS as a number: with no violator it is the least slack, and of a
		// forced +0 and -0 a scan keeps whichever comes first (an analysis
		// cannot give both: an endpoint's slack is -0 only at a period of -0).
		if math.Float64bits(a.TNS()) != math.Float64bits(b.TNS()) ||
			!(a.CPS() == b.CPS() || math.IsNaN(a.CPS()) && math.IsNaN(b.CPS())) ||
			len(a.Violators()) != len(b.Violators()) {
			t.Fatalf("after WorstPaths(%d): TNS %v CPS %v violators %d, after a full sort %v %v %d",
				n, a.TNS(), a.CPS(), len(a.Violators()), b.TNS(), b.CPS(), len(b.Violators()))
		}
	})
}
