package synth

import (
	"cmp"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/resilience"
	"repro/internal/sta"
	"repro/internal/work"
)

// The property harness: every fast path of the checkpoint store returns what
// a session without a store computes. A seeded generator builds the cases;
// one oracle, checkCase, checks each against its storeless reference and a
// model of the store's counters (storeModel).

// testCase is one generated script on one design: its link prefix, canonical
// or not; the constraints after link; the commands between them and the first
// compile; the compile flavour ("" for none); a read-only tail; and the entry
// point of its first three runs over a store (the other one makes the
// fourth). orig, when set, is the design whose source d's transforms.
type testCase struct {
	d, orig   *designs.Design
	canonical bool
	cons      caseCons
	between   []string
	compile   string
	tail      string
	evaluate  bool
}

// caseCons are the constraints a case sets after link.
type caseCons struct {
	scale    float64 // of the design's period
	wireload string
	delays   bool
	fanout   int
}

func (c *testCase) script() string {
	var b strings.Builder
	fmt.Fprintf(&b, "read_verilog %s\ncurrent_design %s\n", c.d.FileName, c.d.Top)
	if !c.canonical { // a wireload before link: no snapshot is restored or captured
		b.WriteString("set_wire_load_model -name 5K_heavy_1k\n")
	}
	fmt.Fprintf(&b, "link\ncreate_clock -period %.2f clk\n", c.cons.scale*c.d.Period)
	if c.cons.wireload != "" {
		fmt.Fprintf(&b, "set_wire_load_model -name %s\n", c.cons.wireload)
	}
	if c.cons.delays {
		b.WriteString("set_input_delay 0.05 -clock clk\nset_output_delay 0.08 -clock clk\n")
	}
	if c.cons.fanout > 0 {
		fmt.Fprintf(&b, "set_max_fanout %d\n", c.cons.fanout)
	}
	for _, cmd := range append(slices.Clip(c.between), c.compile) {
		if cmd != "" {
			b.WriteString(cmd + "\n")
		}
	}
	return b.String() + c.tail
}

// flavours are the compile lines a case may run: each option set of compile
// and compile_ultra, no two of them one compile key.
var flavours = []string{
	"compile -map_effort low", "compile -map_effort medium", "compile -map_effort high", "compile -incremental",
	"compile_ultra", "compile_ultra -timing_high_effort_script", "compile_ultra -area_high_effort_script",
	"compile_ultra -no_autoungroup", "compile_ultra -retime", "compile_ultra -retime -timing_high_effort_script",
	"compile_ultra -retime -no_autoungroup",
}

// tails are what a case ends with: reports and a write; other reports, of
// which an entry recorded from the first holds only report_qor; the reports
// llm.SpliceScript ends every generated script with; or nothing.
var tails = []string{
	reportTail, "report_area\nreport_timing -max_paths 2\nreport_qor\nwrite\n",
	"report_qor\nreport_timing -max_paths 3\nreport_area\n", "",
}

// hierarchical says whether d instantiates modules, so that ungroup moves
// cells of it.
func hierarchical(d *designs.Design) bool { return strings.Count(d.Source, "endmodule") > 1 }

// betweenLinkAndCompile is every command the grammar allows between link and
// the first compile, for d: the constraint setters, which leave a restored
// design's image frozen, and everything else, which thaws it.
func betweenLinkAndCompile(d *designs.Design, period float64) []string {
	protect := map[bool]string{false: "*", true: "u_*"}[hierarchical(d)]
	return []string{
		"set_wire_load_model -name 5K_medium_1k", fmt.Sprintf("create_clock -period %.2f clk", period),
		"set_input_delay 0.05 -clock clk", "set_output_delay 0.05 -clock clk", "set_max_fanout 12", "set_max_area 0",
		"set_dont_touch " + protect, "ungroup -all", "uniquify", "echo between",
		"report_timing", "report_area", "report_qor", "report_power", "report_hierarchy", "report_constraint", "write",
	}
}

func randomCons(rng *rand.Rand) caseCons {
	return caseCons{[]float64{1, 0.8}[rng.Intn(2)], []string{"", "5K_light_1k", "5K_heavy_1k"}[rng.Intn(3)], rng.Intn(2) == 1, []int{0, 16}[rng.Intn(2)]}
}

// flip returns cons with one field the compile key holds changed.
func (cons caseCons) flip(field int) caseCons {
	switch field % 4 {
	case 0:
		cons.fanout = 16 - cons.fanout
	case 1:
		cons.scale = 1.8 - cons.scale
	case 2:
		cons.delays = !cons.delays
	default: // the library default is 5K_heavy_1k
		cons.wireload = map[string]string{"": "5K_light_1k", "5K_heavy_1k": "5K_light_1k"}[cons.wireload]
	}
	return cons
}

// randomCase is one case on d, every part of it drawn from rng.
func randomCase(rng *rand.Rand, d *designs.Design) testCase {
	c := testCase{d: d, canonical: rng.Intn(8) != 0, cons: randomCons(rng), tail: tails[rng.Intn(len(tails))], evaluate: rng.Intn(2) == 1}
	for n := rng.Intn(3); n > 0; n-- {
		c.between = append(c.between, betweenLinkAndCompile(d, 0.9*d.Period)[rng.Intn(17)])
	}
	if rng.Intn(6) != 0 {
		c.compile = flavours[rng.Intn(len(flavours))]
	}
	return c
}

// tinyDesign is the 16-bit adder of testDesignSrc under another name.
func tinyDesign(name string, period float64) *designs.Design {
	return &designs.Design{Name: name, Top: name, FileName: name + ".v", Period: period, Source: strings.ReplaceAll(testDesignSrc, "tiny", name)}
}

// The corpus is the fixed task set, in four parts, each a test: per design,
// the cases one store sees, in order.

// flavourCases are each flavour under drawn constraints, then with one
// compile key field flipped (the fields take turns), then with another tail,
// served from the first case's entry, on every benchmark and a generated SoC;
// plain holds the flavours without -retime and a drawn case on a
// non-canonical prefix, retime the -retime ones. Under -short three
// benchmarks run.
func flavourCases() (plain, retime map[string][]testCase) {
	plain, retime = map[string][]testCase{}, map[string][]testCase{}
	for i, d := range corpusDesigns() {
		if testing.Short() && i >= 3 {
			break
		}
		rng := rand.New(rand.NewSource(int64(i) + 1))
		for j, f := range flavours {
			a := testCase{d: d, canonical: true, cons: randomCons(rng), compile: f, tail: tails[rng.Intn(3)], evaluate: rng.Intn(2) == 1}
			b, c := a, a
			b.cons, b.evaluate = a.cons.flip(i+j), !a.evaluate
			c.tail, c.evaluate = tails[(slices.Index(tails, a.tail)+1+rng.Intn(2))%3], rng.Intn(2) == 1
			if rng.Intn(2) == 0 {
				c.between = []string{betweenLinkAndCompile(d, 0.9*d.Period)[rng.Intn(17)]}
			}
			part := map[bool]map[string][]testCase{false: plain, true: retime}[strings.Contains(f, "-retime")]
			part[d.Name] = append(part[d.Name], a, b, c)
		}
		c := randomCase(rng, d)
		c.canonical = false
		plain[d.Name] = append(plain[d.Name], c)
	}
	return plain, retime
}

// corpusDesigns are the seven benchmarks and a generated SoC.
func corpusDesigns() []*designs.Design {
	return append(designs.Benchmarks(), designs.SoC(designs.RandomSoCConfig("h1", rand.New(rand.NewSource(5)))))
}

// moduleOrderCases run each design's baseline script and the same with
// compile_ultra -retime, also over its modules reversed.
func moduleOrderCases(t *testing.T) map[string][]testCase {
	out := map[string][]testCase{}
	for _, d := range corpusDesigns() {
		reversed, n := reverseModules(d.Source)
		if n < 2 || reversed == d.Source || len(reversed) != len(d.Source) {
			t.Fatalf("%s: reversing %d modules left %d of %d bytes", d.Name, n, len(reversed), len(d.Source))
		}
		rev := *d
		rev.Source = reversed
		for _, compile := range []string{map[bool]string{false: "compile -map_effort medium", true: "compile -map_effort low"}[d.Name == "jpeg"], "compile_ultra -retime"} {
			base := testCase{d: d, canonical: true, cons: caseCons{1, "5K_heavy_1k", false, 0}, compile: compile, tail: "report_qor\nreport_timing -max_paths 3\n"}
			rc := base
			rc.d, rc.orig = &rev, d
			out[d.Name] = append(out[d.Name], base, rc)
		}
	}
	return out
}

// betweenCases run on tinyRocket each command between link and compile
// alone, and on tiny, a 16-bit adder clocked too fast, every ordered pair.
func betweenCases() map[string][]testCase {
	out := map[string][]testCase{}
	rocket, tiny := designs.TinyRocket(), tinyDesign("tiny", 0.6)
	for i, cmd := range betweenLinkAndCompile(rocket, 0.9*rocket.Period) {
		out[rocket.Name] = append(out[rocket.Name],
			testCase{d: rocket, canonical: true, cons: caseCons{scale: 1}, between: []string{cmd}, compile: "compile_ultra -retime", tail: reportTail, evaluate: i%2 == 1},
			testCase{d: rocket, canonical: true, cons: caseCons{scale: 1}, between: []string{cmd}, evaluate: i%2 == 0})
	}
	for i, a := range betweenLinkAndCompile(tiny, 0.5) {
		for j, b := range betweenLinkAndCompile(tiny, 0.5) {
			out["tiny"] = append(out["tiny"], testCase{d: tiny, canonical: true, cons: caseCons{scale: 1}, between: []string{a, b},
				compile: "compile_ultra -retime", tail: reportTail, evaluate: (i+j)%2 == 1})
		}
	}
	return out
}

// storelessRef is what a session without a store makes of one (source, top,
// script): hashes of the run's values (runJSON) and final netlist
// (netlist.Encode), and its QoR. runs counts the storeless runs behind it.
type storelessRef struct {
	once       sync.Once
	runs       int
	values, nl [sha256.Size]byte
	qor        QoR
	err        error
}

var storelessRefs sync.Map // source, top and script -> *storelessRef

// reference is the storeless run of script on d, run once per test binary.
func reference(t testing.TB, d *designs.Design, script string) *storelessRef {
	t.Helper()
	v, _ := storelessRefs.LoadOrStore(d.Source+"\x00"+d.Top+"\x00"+script, new(storelessRef))
	ref := v.(*storelessRef)
	ref.once.Do(func() {
		ref.runs++
		res, err := designSession(d, nil).RunContext(context.Background(), script)
		if ref.err = err; err == nil {
			ref.values, ref.nl = hashes(t, res)
			ref.qor = *res.QoR
		}
	})
	if ref.err != nil || ref.runs != 1 {
		t.Fatalf("storeless reference (%d runs): %v\n%s", ref.runs, ref.err, script)
	}
	return ref
}

// elaborated is the storeless reference of d linked, whose netlist is the
// one elaboration builds.
func elaborated(t testing.TB, d *designs.Design) *storelessRef {
	return reference(t, d, linkOnly(d)+"create_clock -period 1 clk\n")
}

// hashes hashes a run's values and, when it returned a design, its netlist.
func hashes(t testing.TB, res *Result) (values, nl [sha256.Size]byte) {
	values = sha256.Sum256([]byte(runJSON(t, res)))
	if res.Design != nil {
		nl = sha256.Sum256(netlist.Encode(res.Design.NL))
	}
	return values, nl
}

// caseStore is a store and what the harness expects of it.
type caseStore struct {
	store *CheckpointStore
	model storeModel
}

func newCaseStore() *caseStore { return &caseStore{NewCheckpointStore(0), storeModel{}} }

// checkCase is the oracle. It runs c over cs four times, three through its
// entry point (noted, captured, served) and one through the other. Each run
// equals the storeless one (a RunContext in its final netlist too; an
// Evaluate returns no design), carries the first run's snapshot handle, counts
// what the model predicts — in the store, and in a work scope of its own —
// and keeps every workspace accounted for. Then the metamorphic oracles check
// the final design.
func checkCase(t testing.TB, cs *caseStore, c testCase) {
	t.Helper()
	script := c.script()
	for _, is := range ValidateScript(script) {
		if is.Severity == "error" {
			t.Fatalf("generated an invalid script (%v):\n%s", is, script)
		}
	}
	ref := reference(t, c.d, script)
	identity := ref.nl == elaborated(t, c.d).nl // the compile, if any, edits nothing
	if c.orig != nil && fmt.Sprint(reference(t, c.orig, script).qor) != fmt.Sprint(ref.qor) {
		t.Errorf("%s over a transformed source: QoR %v, want the original's\n%s", c.d.Name, ref.qor, script)
	}
	var snap Snapshot
	var design *Design
	for run := 0; run < 4; run++ {
		evaluate := c.evaluate != (run == 3)
		want := cs.model.run(&c, evaluate, identity)
		before := cs.store.Stats()
		exec := designSession(c.d, cs.store).RunContext
		if evaluate {
			exec = designSession(c.d, cs.store).Evaluate
		}
		var n work.Counts
		res, err := exec(work.With(context.Background(), &n), script)
		st := cs.store.Stats()
		if err != nil {
			t.Fatalf("run %d: %v\n%s", run+1, err, script)
		}
		what := fmt.Sprintf("%s, run %d (Evaluate %v)", c.d.Name, run+1, evaluate)
		if values, nl := hashes(t, res); values != ref.values || evaluate != (res.Design == nil) || (!evaluate && nl != ref.nl) {
			t.Errorf("%s differs from a storeless run, or returned a design %v:\n%s", what, res.Design != nil, script)
		}
		if run == 0 {
			snap = res.Snapshot
		}
		if res.Snapshot != snap || (snap == Snapshot{}) == c.canonical {
			t.Errorf("%s: snapshot handle %v, want the first run's %v, zero = %v", what, res.Snapshot, snap, !c.canonical)
		}
		got := counts{st.DerivedHits - before.DerivedHits, st.DerivedMisses - before.DerivedMisses, st.DerivedCaptures - before.DerivedCaptures,
			st.DerivedReportsServed - before.DerivedReportsServed, st.Thaws - before.Thaws, st.ThawsSkipped - before.ThawsSkipped,
			n.Get(work.Elaborations), 0, want.served}
		if want.served {
			got.full = n.Get(work.FullAnalyses)
		} else {
			want.full = 0
		}
		incr := n.Get(work.IncrementalUpdates)
		if got != want || (want.served && incr != 0) || n.Get(work.Parses) != got.elabs {
			t.Errorf("%s counted %+v, %d incremental updates and %d parses, want %+v, none on a served run and a parse per elaboration:\n%s",
				what, got, incr, n.Get(work.Parses), want, script)
		}
		if st.Reused+st.Allocated != st.Hits+st.Misses {
			t.Errorf("%s: reused %d + allocated %d workspaces != hits %d + misses %d", what, st.Reused, st.Allocated, st.Hits, st.Misses)
		}
		design = cmp.Or(res.Design, design)
	}
	checkCompiled(t, c.d.Name, design, ref.qor)
}

// checkCompiled is the metamorphic oracles on a run's final design d, whose
// QoR is q: TNS is the sum of the negative endpoint slacks, in endpoint
// order, and WNS their minimum; renaming every net leaves the QoR
// bit-identical. (That upsizing a cell never worsens its own delay at a
// fixed load does not hold: the library's larger drives carry a larger
// intrinsic delay, so at a small load they are slower. See CHANGES.md.)
func checkCompiled(t testing.TB, name string, d *Design, q QoR) {
	t.Helper()
	tm, err := d.Timing()
	if err != nil {
		t.Fatal(err)
	}
	tns, wns := 0.0, 0.0
	for _, e := range tm.Endpoints() {
		if e.Slack < 0 {
			tns, wns = tns+e.Slack, min(wns, e.Slack)
		}
	}
	if math.Float64bits(tns) != math.Float64bits(q.TNS) || math.Float64bits(wns) != math.Float64bits(q.WNS) {
		t.Errorf("%s: endpoint slacks sum to %v, least %v; QoR says TNS %v, WNS %v", name, tns, wns, q.TNS, q.WNS)
	}
	renamed := &Design{NL: renameNets(d.NL.Clone()), WL: d.WL, Cons: d.Cons}
	if rq, err := renamed.QoR(); err != nil || fmt.Sprint(rq) != fmt.Sprint(q) {
		t.Errorf("%s: with every net renamed QoR %v (%v), want %v", name, rq, err, q)
	}
}

// storeModel is what the harness expects of one store: a key per source the
// store holds a snapshot of, with that snapshot's derived level — its
// compile keys, oldest first, at most maxDerived.
type storeModel map[string][]*modelEntry

// modelEntry is one derived entry: resolved on its second computation, an
// identity if that compile edited nothing, and the reports it keeps, oldest
// first, at most maxTailReports.
type modelEntry struct {
	key                string
	resolved, identity bool
	reports            []string
}

// counts is what one run adds to the store's counters, the elaborations it
// makes and, on a served run, the full analyses it makes.
type counts struct {
	hits, misses, captures, reports, thaws, skipped int64
	elabs, full                                     int64
	served                                          bool
}

// run is what a run of c through the given entry point counts, and what it
// leaves in the store. identity says c's compile edits nothing.
func (m storeModel) run(c *testCase, evaluate, identity bool) (w counts) {
	src := c.d.Source
	if _, linked := m[src]; !linked || !c.canonical {
		if c.canonical { // captures the snapshot
			m[src] = nil
		}
		w.elabs = 1
		return w
	}
	cmds, _ := ParseScript(c.script())
	cons := [4]string{3: derivedLib.WireLoad("").Name} // period, I/O delays, wireload: what an analysis reads
	fanout, maxArea, timed := "", "0", ""              // timed: the cons of the netlist's analysis, if any
	frozen, pristine := true, true
	var tail *modelEntry
	thaw := func() {
		if frozen {
			w.thaws++
			frozen, timed = false, ""
		}
	}
	for _, cmd := range cmds[3:] {
		switch cmd.Name {
		case "create_clock":
			cons[0] = cmd.Opts["-period"]
		case "set_input_delay":
			cons[1] = cmd.Args[0]
		case "set_output_delay":
			cons[2] = cmd.Args[0]
		case "set_wire_load_model":
			cons[3] = cmd.Opts["-name"]
		case "set_max_fanout":
			fanout = cmd.Args[0]
		case "set_max_area":
			maxArea = cmd.Args[0]
		case "set_dont_touch", "ungroup":
			thaw()
			pristine = pristine && cmd.Name == "ungroup" && !hierarchical(c.d)
		case "uniquify", "report_power", "report_hierarchy", "write":
			thaw()
		case "report_timing", "report_area", "report_qor", "report_constraint":
			key := map[string]string{"report_timing": cmp.Or(cmd.Opts["-max_paths"], "1"), "report_constraint": maxArea}[cmd.Name] + cmd.Name
			if tail != nil && slices.Contains(tail.reports, key) {
				w.reports++
				continue
			}
			thaw()
			if now := fmt.Sprint(cons); cmd.Name != "report_area" && timed != now { // report_area reads no analysis
				w.full, timed = w.full+1, now
			}
			if tail != nil {
				tail.reports = append(tail.reports[max(0, len(tail.reports)+1-maxTailReports):], key)
			}
		case "compile", "compile_ultra":
			if !pristine {
				thaw()
				continue
			}
			pristine = false
			key := fmt.Sprint(cmd.Name, cmd.Opts, cmp.Or(cmd.Opts["-map_effort"], "medium"), cons, fanout)
			i := slices.IndexFunc(m[src], func(e *modelEntry) bool { return e.key == key })
			switch {
			case i >= 0 && m[src][i].resolved:
				w.hits++
				w.served, tail = true, m[src][i]
				if !tail.identity {
					w.skipped += map[bool]int64{true: 1}[frozen]
					frozen, timed = true, ""
				}
				continue
			case i >= 0:
				tail = m[src][i]
				tail.resolved, tail.identity = true, identity
				w.captures += map[bool]int64{false: 1}[identity]
			default:
				m[src] = append(m[src][max(0, len(m[src])+1-maxDerived):], &modelEntry{key: key})
			}
			w.misses++
			thaw()
			timed = fmt.Sprint(cons)
		}
	}
	if !evaluate || tail == nil { // RunContext's design, or a closing QoR computed on the netlist
		thaw()
	}
	return w
}

// runCorpus runs each design's cases in order over one store of its own,
// the designs in parallel.
func runCorpus(t *testing.T, corpus map[string][]testCase) {
	for name, cases := range corpus {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cs := newCaseStore()
			for _, c := range cases {
				checkCase(t, cs, c)
			}
			if st := cs.store.Stats(); st.DerivedCaptures == 0 || st.DerivedReportsServed == 0 || st.ThawsSkipped == 0 {
				t.Errorf("nothing was ever captured, served or left frozen: %+v", st)
			}
		})
	}
}

// TestDerivedMatchesStoreless: every compile flavour without -retime, under
// drawn constraints, with one of them flipped and with another tail, is a key
// of its own and every run equals a storeless one.
func TestDerivedMatchesStoreless(t *testing.T) {
	plain, _ := flavourCases()
	runCorpus(t, plain)
}

// TestRetimeKeyMatchesStoreless: the same for the -retime flavours, where
// retiming and sizing to a slack target taken from the period meet, which a
// served run skips together.
func TestRetimeKeyMatchesStoreless(t *testing.T) {
	_, retime := flavourCases()
	runCorpus(t, retime)
}

// TestModuleOrderLeavesQoR: the order in which a source declares its modules
// is not part of the design. checkCase holds the reversed source's QoR to
// the declared order's, storeless, and its runs over a store to the
// storeless run.
func TestModuleOrderLeavesQoR(t *testing.T) {
	runCorpus(t, moduleOrderCases(t))
}

// TestDeferredThawMatchesStoreless: a restore thaws the snapshot for the
// first command that reads the netlist and not before. Whatever stands
// between link and compile, and whether the compile is then computed or
// served, the run equals the storeless one.
func TestDeferredThawMatchesStoreless(t *testing.T) {
	runCorpus(t, betweenCases())
}

// TestCheckpointRestoreBitIdentical: a restored run reproduces a storeless
// run byte for byte — reports, written netlist, transcript, QoR and final
// netlist. The first of the oracle's four runs captures the snapshot and the
// other three restore it.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	cs := newCaseStore()
	checkCase(t, cs, testCase{d: tinyDesign("tiny", 2.5), canonical: true, cons: caseCons{1, "5K_heavy_1k", true, 0}, compile: "compile", tail: reportTail})
	if st := cs.store.Stats(); st.Misses != 1 || st.Hits != 3 {
		t.Errorf("snapshot hits %d, misses %d, want 3 and 1", st.Hits, st.Misses)
	}
}

// smallDesigns are what the fuzz target and the concurrent mode draw from:
// three 16-bit adders, one with a clock too fast for it, and riscv32i.
func smallDesigns() []*designs.Design {
	return []*designs.Design{tinyDesign("tiny", 2.5), tinyDesign("tiny2", 2.5), tinyDesign("tiny3", 0.6), designs.RiscV32i()}
}

// FuzzStoreMatchesStoreless: a fuzz input seeds the generator, which draws
// one case on the small designs, and the oracle checks it over a new store.
// A failure minimizes to the input that draws the smallest failing case.
func FuzzStoreMatchesStoreless(f *testing.F) {
	f.Add([]byte("seed"))
	small := smallDesigns()
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		checkCase(t, newCaseStore(), randomCase(rng, small[rng.Intn(len(small))]))
	})
}

// hammerMode is one setting of the harness's concurrent mode: how many
// snapshots its store holds (0: no bound), its designs, goroutines and runs
// each, and whether a run's snapshot is read after it.
type hammerMode struct {
	capacity        int
	designs         []*designs.Design
	workers, rounds int
	reads           bool
}

// hammer is the harness's concurrent mode: goroutines over one store mix
// three generated cases per design through both entry points, runs that die
// after the link prefix and, in a mode with reads, the snapshot read a
// design's first request makes, so workspaces pass between captures, reads,
// restores, designs and aborted runs. Every run equals the storeless one and
// counts, in a work scope of its own, a parse per elaboration and at most one
// of each; a served run (one per derived hit) counts no incremental update
// and at most one full analysis for a report its entry lacks and one for a
// report before its compile. Every read
// lends the elaborated netlist, and every run through the link prefix and
// every read takes exactly one workspace.
func hammer(t *testing.T, mode hammerMode) {
	type job struct {
		c           testCase
		script      string
		ref, linked *storelessRef
		maxFull     int64 // the full analyses a served run may make
	}
	rng := rand.New(rand.NewSource(3))
	var jobs []job
	for _, d := range mode.designs {
		for i := 0; i < 3; i++ {
			c := randomCase(rng, d)
			c.canonical, c.compile = true, flavours[rng.Intn(len(flavours))]
			// A served run may analyse once for a report its entry lacks and
			// once more for one before its compile.
			maxFull := int64(1)
			if slices.ContainsFunc(c.between, func(cmd string) bool {
				return slices.Contains([]string{"report_timing", "report_qor", "report_constraint"}, cmd)
			}) {
				maxFull++
			}
			jobs = append(jobs, job{c, c.script(), reference(t, d, c.script()), elaborated(t, d), maxFull})
		}
	}
	store := NewCheckpointStore(mode.capacity)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var reads, served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < mode.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < mode.rounds; r++ {
				j, sess := jobs[(w*3+r*5)%len(jobs)], designSession(jobs[(w*3+r*5)%len(jobs)].c.d, store)
				if (w+r)%5 < 2 { // dies after link: cancelled, or out of budget before the compile
					ctx, wantErr := cancelled, error(context.Canceled)
					if (w+r)%5 == 1 {
						sess.MaxCommands, ctx, wantErr = 4, context.Background(), resilience.ErrBudgetExceeded
					}
					if res, err := sess.RunContext(ctx, j.script); res != nil || !errors.Is(err, wantErr) {
						t.Errorf("%s: a doomed run returned (%v, %v), want %v", j.c.d.Name, res, err, wantErr)
					}
					continue
				}
				run := map[bool]func(context.Context, string) (*Result, error){true: sess.RunContext, false: sess.Evaluate}[(w+r)%5 == 2]
				var n work.Counts
				res, err := run(work.With(context.Background(), &n), j.script)
				if err != nil {
					t.Errorf("%s: %v", j.c.d.Name, err)
					continue
				}
				if values, nl := hashes(t, res); values != j.ref.values || (res.Design != nil && nl != j.ref.nl) {
					t.Errorf("%s: run over the shared store differs from a storeless run:\n%s", j.c.d.Name, j.script)
				}
				full, incr, elabs := n.Get(work.FullAnalyses), n.Get(work.IncrementalUpdates), n.Get(work.Elaborations)
				if elabs > 1 || n.Get(work.Parses) != elabs || (res.served && (full > j.maxFull || incr != 0)) {
					t.Errorf("%s: %d elaborations, %d parses, %d full analyses and %d incremental updates (served %v), want a parse per elaboration, at most one, and on a served run at most %d full analyses and no update:\n%s",
						j.c.d.Name, elabs, n.Get(work.Parses), full, incr, res.served, j.maxFull, j.script)
				}
				served.Add(map[bool]int64{true: 1}[res.served])
				if !mode.reads {
					continue
				}
				found, err := res.Snapshot.Netlist(j.c.d.Source, j.c.d.Top, func(nl *netlist.Netlist, tm *sta.Timing) error {
					if sha256.Sum256(netlist.Encode(nl)) != j.linked.nl {
						return fmt.Errorf("%s: the snapshot read lent a netlist that is not the elaborated one", j.c.d.Name)
					}
					return tm.Reset(nl, nl.Lib.WireLoad(""), sta.Constraints{Period: j.c.d.Period})
				})
				if err != nil {
					t.Error(err)
				}
				reads.Add(map[bool]int64{true: 1}[found])
			}
		}()
	}
	wg.Wait()
	st := store.Stats()
	evicting := mode.capacity > 0 && mode.capacity < len(mode.designs)
	if st.Hits == 0 || st.Reused == 0 || evicting != (st.Evictions > 0) || mode.reads != (reads.Load() > 0) || served.Load() != st.DerivedHits {
		t.Errorf("%d restores, %d reused workspaces, %d evictions, %d reads and %d served runs of %d derived hits: the mix did not happen",
			st.Hits, st.Reused, st.Evictions, reads.Load(), served.Load(), st.DerivedHits)
	}
	if got, want := st.Reused+st.Allocated, st.Hits+st.Misses+reads.Load(); got != want {
		t.Errorf("%d workspace acquisitions, want %d: every run through the link prefix and every snapshot read takes exactly one", got, want)
	}
}

// TestColdWorkspaceHammer: sixteen goroutines over a two-snapshot store and
// the small designs and aes, so snapshots are evicted and captured again
// throughout, with snapshot reads. make derived-race runs it ten times under
// -race.
func TestColdWorkspaceHammer(t *testing.T) {
	hammer(t, hammerMode{capacity: 2, designs: append(smallDesigns(), designs.AES()), workers: 16, rounds: 8, reads: true})
}

// TestRecycledWorkspacesMatchStoreless: sixteen goroutines over a store that
// keeps every snapshot and designs of three sizes, so parked workspaces move
// between designs.
func TestRecycledWorkspacesMatchStoreless(t *testing.T) {
	hammer(t, hammerMode{designs: []*designs.Design{tinyDesign("tiny", 2.5), designs.AES(), designs.RiscV32i()}, workers: 16, rounds: 6})
}

// TestCheckpointConcurrentRestore: eight goroutines restore one design's
// snapshot at once.
func TestCheckpointConcurrentRestore(t *testing.T) {
	hammer(t, hammerMode{capacity: 4, designs: []*designs.Design{tinyDesign("tiny", 2.5)}, workers: 8, rounds: 3})
}
