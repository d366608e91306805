package synth

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/resilience"
	"repro/internal/work"
)

// Derived checkpoints: the store keeps, beside each post-link snapshot, the
// netlist a first compile leaves of it — structural passes, retiming, sizing
// and area recovery all run — and a restore thaws the snapshot only for a
// command that reads it. The storeless session is the oracle throughout —
// whatever a run takes from the store, and whenever, its QoR, reports,
// written netlist, transcript and final netlist (netlist.Encode: IDs and
// bounds, every slice order, both edit generations) equal what a session
// without a store computes.

var derivedLib = liberty.Nangate45()

func designSession(d *designs.Design, store *CheckpointStore) *Session {
	s := NewSession(derivedLib)
	s.Checkpoints = store
	s.AddSource(d.FileName, d.Source)
	return s
}

// linkOnly is the canonical link prefix for d.
func linkOnly(d *designs.Design) string {
	return fmt.Sprintf("read_verilog %s\ncurrent_design %s\nlink\n", d.FileName, d.Top)
}

// linkedAt is the link prefix plus a clock of the given period.
func linkedAt(d *designs.Design, period float64) string {
	return linkOnly(d) + fmt.Sprintf("create_clock -period %.2f clk\n", period)
}

// linked is the link prefix plus d's own clock.
func linked(d *designs.Design) string { return linkedAt(d, d.Period) }

const reportTail = "report_qor\nreport_timing -max_paths 3\nreport_constraint\nwrite\n"

// fingerprint is everything a run produced, the final netlist included.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	if res.Design == nil || res.Design.NL == nil {
		t.Fatal("a RunContext returned no netlist")
	}
	return runJSON(t, res) + string(netlist.Encode(res.Design.NL))
}

func mustRun(t *testing.T, s *Session, script string) *Result {
	t.Helper()
	res, err := s.RunContext(context.Background(), script)
	if err != nil {
		t.Fatalf("%v\n%s", err, script)
	}
	return res
}

// mustEvaluate is mustRun through Evaluate, for a run whose design nothing
// reads: it hands its workspace back to the store.
func mustEvaluate(t *testing.T, s *Session, script string) {
	t.Helper()
	if _, err := evaluate(t, s, script); err != nil {
		t.Fatalf("%v\n%s", err, script)
	}
}

// evaluate runs script through Evaluate and checks what that promises beyond
// the values: no design.
func evaluate(t *testing.T, s *Session, script string) (*Result, error) {
	t.Helper()
	res, err := s.Evaluate(context.Background(), script)
	if err == nil && res.Design != nil {
		t.Fatalf("an Evaluate returned a design\n%s", script)
	}
	return res, err
}

// derivedDelta is what one run added to the derived counters.
func derivedDelta(before, after CheckpointStats) (hits, misses, captures int64) {
	return after.DerivedHits - before.DerivedHits,
		after.DerivedMisses - before.DerivedMisses,
		after.DerivedCaptures - before.DerivedCaptures
}

// TestDerivedBypass: a script whose first compile does not start from the
// untouched snapshot computes as it always did and never consults the derived
// level — and a second compile in one run never does, nor does a command
// that must follow a compile.
func TestDerivedBypass(t *testing.T) {
	d := designs.JPEG() // deep wrapper hierarchy: ungroup has something to flatten
	store := NewCheckpointStore(0)
	mustRun(t, designSession(d, store), linked(d))
	noLookup := map[string]string{
		"set_dont_touch":      linked(d) + "set_dont_touch u_*\ncompile\n" + reportTail,
		"set_dont_touch none": linked(d) + "set_dont_touch no_such_group\ncompile\n" + reportTail,
		"ungroup":             linked(d) + "ungroup -all\ncompile_ultra\n" + reportTail,
		// The wireload is set before link: not the canonical prefix, nothing restored.
		"non-canonical prefix": fmt.Sprintf("read_verilog %s\ncurrent_design %s\nset_wire_load_model -name 5K_heavy_1k\nlink\ncreate_clock -period %.2f clk\ncompile\n",
			d.FileName, d.Top, d.Period) + reportTail,
	}
	for name, script := range noLookup {
		want := fingerprint(t, mustRun(t, designSession(d, nil), script))
		for pass := 1; pass <= 3; pass++ {
			before := store.Stats()
			res := mustRun(t, designSession(d, store), script)
			if fingerprint(t, res) != want {
				t.Errorf("%s: run %d over the store differs from a storeless run", name, pass)
			}
			if hits, misses, captures := derivedDelta(before, store.Stats()); hits+misses+captures != 0 {
				t.Errorf("%s: run %d touched the derived level (%d hits, %d misses, %d captures)", name, pass, hits, misses, captures)
			}
		}
	}

	// Two compiles in one run, a compile and the commands that must follow
	// one, or a compile and constraints that change what its QoR and reports
	// read: the first compile is looked up, what comes after it never, and it
	// works on the served netlist, with the served QoR and reports dropped,
	// from the third run on.
	for name, tail := range map[string]string{
		"two compiles":      "compile -map_effort high\ncompile -incremental\n",
		"after compiles":    "compile_ultra -retime\noptimize_registers\nbalance_buffers\n",
		"constraints after": "compile_ultra\nreport_constraint\nset_max_fanout 4\nset_max_area 1\nreport_constraint\n",
		"clock after":       fmt.Sprintf("compile\nreport_qor\ncreate_clock -period %.2f clk\n", 0.7*d.Period),
	} {
		script := linked(d) + tail + reportTail
		want := fingerprint(t, mustRun(t, designSession(d, nil), script))
		for pass := 1; pass <= 3; pass++ {
			before := store.Stats()
			res := mustRun(t, designSession(d, store), script)
			if fingerprint(t, res) != want {
				t.Errorf("%s: run %d over the store differs from a storeless run", name, pass)
			}
			if hits, misses, _ := derivedDelta(before, store.Stats()); hits+misses != 1 || (hits == 1) != (pass == 3) {
				t.Errorf("%s: run %d made %d derived hits and %d misses, want the third run served", name, pass, hits, misses)
			}
		}
	}
}

// TestDerivedHitDropsCachedTiming: report_timing between create_clock and
// compile leaves the design with a Timing that points into the storage a
// derived hit thaws over. The run must equal a storeless one, and must run no
// analysis the storeless one does not: checkCase's last run, a RunContext,
// is served.
func TestDerivedHitDropsCachedTiming(t *testing.T) {
	for _, d := range []*designs.Design{designs.TinyRocket(), designs.AES()} {
		checkCase(t, newCaseStore(), testCase{d: d, canonical: true, cons: caseCons{scale: 1}, between: []string{"report_timing"},
			compile: "compile_ultra -retime", tail: "report_timing\n" + reportTail, evaluate: true})
	}
}

// TestDerivedSecondTouch: the first run of a key only notes it; the
// second freezes its result; from the third on it is served (checkCase's
// model holds each run to that).
func TestDerivedSecondTouch(t *testing.T) {
	d, cs := designs.TinyRocket(), newCaseStore()
	checkCase(t, cs, testCase{d: d, canonical: true, cons: caseCons{scale: 1}, compile: "compile_ultra", evaluate: true})
	// A key seen once holds no image, however many other runs pass.
	mustEvaluate(t, designSession(d, cs.store), linked(d)+"set_max_fanout 8\ncompile\n")
	if st := cs.store.Stats(); st.DerivedCaptures != 1 {
		t.Errorf("captures = %d after a second key ran once, want 1", st.DerivedCaptures)
	}
	if st := cs.store.Stats(); st.Hits != 4 || st.Misses != 1 {
		t.Errorf("post-link hits/misses = %d/%d, want 4/1: derived lookups must not count there", st.Hits, st.Misses)
	}
}

// snapshotOf returns the one checkpoint store holds.
func snapshotOf(t *testing.T, store *CheckpointStore, d *designs.Design) *checkpoint {
	t.Helper()
	key, ok := designSession(d, store).checkpointKey([]string{d.FileName}, d.Top)
	if !ok {
		t.Fatal("checkpoint key underivable")
	}
	cp, ok := store.cache.Peek(key)
	if !ok {
		t.Fatalf("%s: no snapshot in the store", d.Name)
	}
	return cp
}

// TestDerivedIdentity: jpeg as linked holds nothing for Sweep to remove and,
// at half again its period, meets timing, so compile -map_effort low — no
// restructuring, no area recovery — edits nothing. That is recorded as such:
// served as a hit, with no image frozen or held — only the report text the
// runs read off it. (checkCase's runs: capture the snapshot, note, capture,
// serve.)
func TestDerivedIdentity(t *testing.T) {
	d, cs := designs.JPEG(), newCaseStore()
	checkCase(t, cs, testCase{d: d, canonical: true, cons: caseCons{scale: 1.5}, compile: "compile -map_effort low", tail: reportTail})
	store := cs.store
	if st := store.Stats(); st.DerivedHits != 1 || st.DerivedMisses != 2 || st.DerivedCaptures != 0 {
		t.Errorf("derived hits/misses/captures = %d/%d/%d, want 1/2/0", st.DerivedHits, st.DerivedMisses, st.DerivedCaptures)
	}
	cp := snapshotOf(t, store, d)
	if len(cp.derived) != 1 || cp.derived[0].tail == nil || cp.derived[0].img != nil {
		t.Fatalf("derived entries = %+v, want one resolved entry without an image", cp.derived)
	}
	if n, text := store.DerivedBytes(), cp.derived[0].tail.bytes(); n != text || text == 0 {
		t.Errorf("derived bytes = %d, want the %d bytes of report text: an identity holds no image", n, text)
	}
}

// TestDerivedTailKeysWhatReportsRead: a report's text is kept under
// everything it reads besides the compile's result. report_timing's path
// count is parsed — the command line names a variable, so two scripts with
// the same line ask for different reports — and report_constraint's area
// limit is set before the compile, which does not read it, so two scripts
// that share a compile key ask for different reports. Every run serves the
// compile from one entry and equals a storeless run.
func TestDerivedTailKeysWhatReportsRead(t *testing.T) {
	cs, variable, area := newCaseStore(), "report_timing -max_paths $n\n", "report_constraint\n"
	for _, c := range []testCase{
		{between: []string{"set n 1"}, tail: variable}, {between: []string{"set n 3"}, tail: variable}, {between: []string{"set n 1"}, tail: variable},
		{tail: area}, {between: []string{"set_max_area 1"}, tail: area}, {between: []string{"set_max_area 1e9"}, tail: area}, {tail: area},
	} {
		c.d, c.canonical, c.cons, c.compile = designs.TinyRocket(), true, caseCons{scale: 1}, "compile_ultra"
		checkCase(t, cs, c)
	}
}

// TestDerivedTailIsBounded: a script that walks report_timing's path count
// past the bound keeps the entry at maxTailReports reports, the newest, and
// every run of it equals a storeless run.
func TestDerivedTailIsBounded(t *testing.T) {
	d := designs.EthMAC()
	var walk strings.Builder
	for n := 1; n <= maxTailReports+4; n++ {
		fmt.Fprintf(&walk, "report_timing -max_paths %d\n", n)
	}
	cs := newCaseStore()
	checkCase(t, cs, testCase{d: d, canonical: true, cons: caseCons{scale: 1}, compile: "compile", tail: walk.String()})
	store := cs.store
	cp := snapshotOf(t, store, d)
	if len(cp.derived) != 1 || cp.derived[0].tail == nil {
		t.Fatalf("derived entries = %+v, want one resolved entry", cp.derived)
	}
	tail := cp.derived[0].tail
	if len(tail.reports) != maxTailReports {
		t.Fatalf("the entry keeps %d reports, want %d", len(tail.reports), maxTailReports)
	}
	for i, r := range tail.reports {
		if want := 4 + 1 + i; r.key.maxPaths != want {
			t.Errorf("report %d is -max_paths %d, want %d", i, r.key.maxPaths, want)
		}
	}
}

// TestDerivedBoundAndEviction: a snapshot keeps at most maxDerived results,
// the oldest going first, and all of them go with the snapshot when the LRU
// evicts it.
func TestDerivedBoundAndEviction(t *testing.T) {
	d, other := designs.RiscV32i(), designs.DynamicNode()
	store := NewCheckpointStore(1)
	mustRun(t, designSession(d, store), linked(d))
	script := func(fanout int) string {
		return linked(d) + fmt.Sprintf("set_max_fanout %d\ncompile\n", fanout)
	}
	for fanout := 4; fanout < 4+maxDerived+2; fanout++ {
		for pass := 0; pass < 2; pass++ {
			mustEvaluate(t, designSession(d, store), script(fanout))
		}
	}
	cp := snapshotOf(t, store, d)
	if len(cp.derived) != maxDerived {
		t.Fatalf("snapshot holds %d derived entries, want %d", len(cp.derived), maxDerived)
	}
	for i, e := range cp.derived {
		if want := 4 + 2 + i; e.key.maxFanout != want || e.tail == nil {
			t.Errorf("entry %d: fanout %d resolved %v, want the %d newest in order (fanout %d, resolved)", i, e.key.maxFanout, e.tail != nil, maxDerived, want)
		}
	}
	// Pushed out: computed again. Still held: served.
	before := store.Stats()
	mustEvaluate(t, designSession(d, store), script(4+maxDerived+1))
	mustEvaluate(t, designSession(d, store), script(4))
	if hits, misses, _ := derivedDelta(before, store.Stats()); hits != 1 || misses != 1 {
		t.Errorf("newest + evicted key: %d hits, %d misses, want 1 and 1", hits, misses)
	}

	// Another design takes the store's only slot; d's snapshot goes, and with
	// it every derived result: the next three runs start over.
	mustRun(t, designSession(other, store), linked(other))
	if st := store.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	want := fingerprint(t, mustRun(t, designSession(d, nil), script(6)))
	mustRun(t, designSession(d, store), linked(d))
	for pass, w := range [][3]int64{{0, 1, 0}, {0, 1, 1}, {1, 0, 0}} {
		before := store.Stats()
		res := mustRun(t, designSession(d, store), script(6))
		if fingerprint(t, res) != want {
			t.Errorf("after eviction, run %d differs from a storeless run", pass+1)
		}
		hits, misses, captures := derivedDelta(before, store.Stats())
		if got := [3]int64{hits, misses, captures}; got != w {
			t.Errorf("after eviction, run %d: derived hits/misses/captures = %v, want %v", pass+1, got, w)
		}
	}
}

// TestDerivedHammer: 16 goroutines run a mix of scripts — compile keys that
// differ in options, fanout limit, period and wireload, more keys per design
// than a snapshot keeps, read-only tails after one compile that ask for
// different reports (report_timing path counts) around a write, bypassing
// scripts, failing ones that never read the netlist — over one store, half
// the runs through Evaluate, which hands its workspace back, so the
// RunContext runs restore into storage other designs and runs left dirty,
// while a scraper reads the store's stats. Whatever interleaving of first
// touches, captures, hits, evictions and report recordings and servings
// results, every run equals the storeless one. make derived-race runs it ten
// times under -race.
func TestDerivedHammer(t *testing.T) {
	type job struct {
		d                    *designs.Design
		script, want, values string // want "" = must fail
	}
	var jobs []job
	add := func(d *designs.Design, script string) {
		res := mustRun(t, designSession(d, nil), script)
		jobs = append(jobs, job{d, script, fingerprint(t, res), runJSON(t, res)})
	}
	for _, d := range []*designs.Design{designs.TinyRocket(), designs.RiscV32i(), designs.EthMAC()} {
		for _, tail := range []string{
			"compile\n", "compile -map_effort high\n", "compile_ultra -retime\n", "compile_ultra -no_autoungroup\n",
			"set_max_fanout 16\ncompile\n", "set_max_fanout 16\ncompile_ultra\n", "set_max_fanout 8\ncompile -map_effort low\n",
			"report_timing\ncompile_ultra\n", "compile_ultra -timing_high_effort_script\n",
			"set_wire_load_model -name 5K_light_1k\ncompile_ultra\n",
			"set_dont_touch *\ncompile\n", "ungroup -all\ncompile\n",
			"compile\ncompile -incremental\n",
		} {
			add(d, linked(d)+tail+reportTail)
		}
		for _, tail := range []string{"compile_ultra -retime\n", "report_timing\ncompile_ultra -retime -timing_high_effort_script\n"} {
			add(d, linkedAt(d, 0.8*d.Period)+tail+reportTail)
		}
		for _, tail := range []string{
			"report_qor\nreport_timing -max_paths 3\nreport_area\n",
			"report_timing -max_paths 1\nwrite\nreport_timing -max_paths 2\n",
			"write\nreport_qor\nreport_timing -max_paths 5\nreport_constraint\n",
		} {
			add(d, linked(d)+"compile\n"+tail)
		}
		jobs = append(jobs, job{d: d, script: linked(d) + "compile\n" + invalidTail}, job{d: d, script: linked(d) + invalidTail})
	}
	store := NewCheckpointStore(0)
	const workers, rounds = 16, 12
	var wg sync.WaitGroup
	// A scraper reads DerivedBytes, which walks every entry, while the
	// workers note, capture and push entries out. It keeps the largest
	// reading: at the end the four-slot level may hold only first-touch
	// notes, which carry no image, so only a reading taken while the
	// workers ran shows that it walked real images.
	done, scraped := make(chan struct{}), make(chan struct{})
	var maxBytes int64
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			case <-time.After(100 * time.Microsecond):
				maxBytes = max(maxBytes, store.DerivedBytes())
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := jobs[(w*7+r*5)%len(jobs)]
				run := designSession(j.d, store).RunContext
				if (w+r)%2 == 1 {
					run = designSession(j.d, store).Evaluate
				}
				res, err := run(context.Background(), j.script)
				if j.want == "" {
					if err == nil {
						t.Errorf("%s: invalid script ran to completion", j.d.Name)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", j.d.Name, err)
					continue
				}
				got, want := runJSON(t, res), j.values // an Evaluate's
				if res.Design != nil {
					got, want = fingerprint(t, res), j.want
				}
				if got != want {
					t.Errorf("%s: run over the shared store differs from a storeless run:\n%s", j.d.Name, j.script)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	<-scraped
	if st := store.Stats(); st.DerivedHits == 0 || st.DerivedCaptures == 0 || st.DerivedReportsServed == 0 || maxBytes == 0 {
		t.Errorf("the hammer never reached the derived level's hit path: %+v, largest DerivedBytes %d", st, maxBytes)
	}
}

// analysesOf is the number of full timing analyses and incremental updates
// one Evaluate of script costs, counted in a scope of its own.
func analysesOf(t *testing.T, s *Session, script string) (full, incr int64) {
	t.Helper()
	var c work.Counts
	res, err := s.Evaluate(work.With(context.Background(), &c), script)
	if err != nil {
		t.Fatalf("%v\n%s", err, script)
	}
	if res.Design != nil {
		t.Fatalf("an Evaluate returned a design\n%s", script)
	}
	return c.Get(work.FullAnalyses), c.Get(work.IncrementalUpdates)
}

// TestRetimeHitRunsNoAnalysis pins what a resolved -retime entry removes.
// At its own period tinyRocket's registers move for 21 sweeps, each a full
// analysis, and the compile analyses where they ended up: 22 computed, and
// sizing and area recovery then update that analysis incrementally. On ethmac
// -retime finds nothing to move, so computing it costs the one analysis the
// compile needs anyway. A served compile runs none of that: the transcript
// line's QoR and the closing one are the entry's, so no full analysis and no
// incremental update runs at all.
func TestRetimeHitRunsNoAnalysis(t *testing.T) {
	for _, tc := range []struct {
		d        *designs.Design
		computed int64
	}{{designs.TinyRocket(), 22}, {designs.EthMAC(), 1}} {
		d, script := tc.d, linked(tc.d)+"compile_ultra -retime\n"
		full, incr := analysesOf(t, designSession(d, nil), script)
		if full != tc.computed || incr == 0 {
			t.Errorf("%s: a storeless run made %d full analyses and %d incremental updates, want %d and some", d.Name, full, incr, tc.computed)
		}
		store := NewCheckpointStore(0)
		mustRun(t, designSession(d, store), linkOnly(d))
		for pass, want := range []int64{tc.computed, tc.computed, 0, 0} {
			full, incr := analysesOf(t, designSession(d, store), script)
			if served := pass >= 2; full != want || (incr == 0) != served {
				t.Errorf("%s: run %d over the store made %d full analyses and %d incremental updates, want %d and none = %v", d.Name, pass+1, full, incr, want, served)
			}
		}
		if st := store.Stats(); st.DerivedHits != 2 || st.ThawsSkipped != 2 {
			t.Errorf("%s: derived hits %d, thaws skipped %d, want 2 and 2", d.Name, st.DerivedHits, st.ThawsSkipped)
		}
	}
}

// TestNaNKeyStaysOutOfTheFIFO: create_clock -period NaN parses, so does
// set_input_delay NaN, and a key holding a NaN equals nothing, itself
// included. Such a compile is computed, every time, and neither noted nor
// captured: eight of them leave the one useful entry where it was.
func TestNaNKeyStaysOutOfTheFIFO(t *testing.T) {
	d := designs.RiscV32i()
	store := NewCheckpointStore(0)
	mustRun(t, designSession(d, store), linkOnly(d))
	useful := linked(d) + "compile_ultra -retime\n"
	for pass := 0; pass < 3; pass++ {
		mustEvaluate(t, designSession(d, store), useful)
	}
	// NaN results do not marshal, and a NaN period leaves the run no QoR and
	// no Design: print what there is.
	printed := func(res *Result) string {
		s := fmt.Sprint(res.QoR, res.Reports, res.Netlists, res.Log)
		if res.Design != nil {
			s += string(netlist.Encode(res.Design.NL))
		}
		return s
	}
	for i, nan := range []string{
		linkOnly(d) + "create_clock -period NaN clk\ncompile_ultra -retime\nwrite\n",
		linked(d) + "set_input_delay NaN\ncompile_ultra -retime\nwrite\n",
	} {
		want := printed(mustRun(t, designSession(d, nil), nan))
		for pass := 1; pass <= 4; pass++ {
			before := store.Stats()
			res := mustRun(t, designSession(d, store), nan)
			if printed(res) != want {
				t.Errorf("NaN script %d, run %d over the store differs from a storeless run", i, pass)
			}
			if hits, misses, captures := derivedDelta(before, store.Stats()); hits != 0 || misses != 1 || captures != 0 {
				t.Errorf("NaN script %d, run %d: derived hits/misses/captures = %d/%d/%d, want 0/1/0", i, pass, hits, misses, captures)
			}
			mustEvaluate(t, designSession(d, store), useful)
		}
	}
	cp := snapshotOf(t, store, d)
	if len(cp.derived) != 1 || cp.derived[0].tail == nil {
		t.Errorf("derived entries = %+v, want the one resolved entry", cp.derived)
	}
	if st := store.Stats(); st.DerivedHits != 9 || st.DerivedCaptures != 1 {
		t.Errorf("derived hits/captures = %d/%d, want 9/1", st.DerivedHits, st.DerivedCaptures)
	}
}

// TestUnreadRestoreParksItsWorkspace: a run that dies before any command has
// read the netlist — a bad -period, the command budget, a cancelled context —
// hands back a workspace nothing was thawed into: here one with no netlist at
// all, since the good run before it kept its own with its design. The restore
// after each works in that workspace and matches. Every run through the link
// prefix takes one workspace: the capturing run that opens the test too,
// whose workspace leaves with its design.
func TestUnreadRestoreParksItsWorkspace(t *testing.T) {
	d := designs.TinyRocket()
	store := NewCheckpointStore(0)
	mustRun(t, designSession(d, store), linkOnly(d))
	good := linked(d) + "compile_ultra -retime\n" + reportTail
	want := fingerprint(t, mustRun(t, designSession(d, nil), good))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 12; i++ {
		sess := designSession(d, store)
		ctx, script := context.Background(), linkOnly(d)+"create_clock -period -1 clk\n"+good
		var wantErr error
		switch i % 3 {
		case 1:
			sess.MaxCommands = 4 // past link and create_clock, short of the compile
			script, wantErr = good, resilience.ErrBudgetExceeded
		case 2:
			ctx, script, wantErr = cancelled, good, context.Canceled
		}
		if res, err := sess.RunContext(ctx, script); err == nil || res != nil {
			t.Fatalf("run %d: doomed script returned (%v, %v)", i, res, err)
		} else if wantErr != nil && !errors.Is(err, wantErr) {
			t.Fatalf("run %d: error %v, want %v", i, err, wantErr)
		} else if wantErr == nil && !strings.Contains(err.Error(), "invalid period") {
			t.Fatalf("run %d: error %v, want an invalid period", i, err)
		}
		res := mustRun(t, designSession(d, store), good)
		if fingerprint(t, res) != want {
			t.Errorf("the run after failed run %d differs from a storeless run", i)
		}
	}
	st := store.Stats()
	if st.Allocated != 1+12 || st.Reused != 12 {
		t.Errorf("workspaces allocated/reused = %d/%d, want 13/12: an unread restore dropped its storage", st.Allocated, st.Reused)
	}
	// The 12 doomed runs, and the good ones from the third on, which were served.
	if st.ThawsSkipped != 12+10 {
		t.Errorf("thaws skipped = %d, want 22", st.ThawsSkipped)
	}
}
