package synth

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/resilience"
	"repro/internal/sta"
)

// Derived checkpoints: the store keeps, beside each post-link snapshot, what a
// compile makes of it before sizing — the structural passes and, with -retime,
// the register moves — and a restore thaws the snapshot only for a command
// that reads it. The storeless session is the oracle throughout — whatever a
// run takes from the store, and whenever, its QoR, reports, written netlist,
// transcript and final netlist (netlist.Encode: IDs and bounds, every slice
// order, both edit generations) equal what a session without a store computes.

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
	return runJSON(t, res) + string(netlist.Encode(res.Design.NL))
}

func mustRun(t *testing.T, s *Session, script string) *Result {
	t.Helper()
	res, err := s.Run(script)
	if err != nil {
		t.Fatalf("%v\n%s", err, script)
	}
	return res
}

// derivedDelta is what one run added to the derived counters.
func derivedDelta(before, after CheckpointStats) (hits, misses, captures int64) {
	return after.DerivedHits - before.DerivedHits,
		after.DerivedMisses - before.DerivedMisses,
		after.DerivedCaptures - before.DerivedCaptures
}

func derivedCorpus() []*designs.Design {
	all := designs.Benchmarks()
	if testing.Short() {
		return all[:3]
	}
	return all
}

// TestDerivedMatchesStoreless runs every compile flavour, with and without a
// fanout limit, three times over one store per design — far enough for each
// key to be computed, captured and served — and compares every run with a
// storeless one. The seven commands share five keys (-map_effort low and
// -incremental run the same passes, as do -map_effort high and
// -no_autoungroup), so some first runs are already served from what another
// command captured, and the ten keys a design sees push each other out of its
// four slots.
func TestDerivedMatchesStoreless(t *testing.T) {
	compiles := []string{
		"compile -map_effort low", "compile -map_effort medium", "compile -map_effort high",
		"compile -incremental", "compile_ultra", "compile_ultra -no_autoungroup", "compile_ultra -retime",
	}
	for _, d := range derivedCorpus() {
		store := NewCheckpointStore(0)
		mustRun(t, designSession(d, store), linked(d)) // captures the post-link snapshot
		for _, fanout := range []string{"", "set_max_fanout 16\n"} {
			for _, compile := range compiles {
				name := fmt.Sprintf("%s/%s%s", d.Name, fanout, compile)
				script := linked(d) + fanout + compile + "\n" + reportTail
				want := fingerprint(t, mustRun(t, designSession(d, nil), script))
				for pass := 1; pass <= 3; pass++ {
					before := store.Stats()
					res := mustRun(t, designSession(d, store), script)
					if fingerprint(t, res) != want {
						t.Errorf("%s: run %d over the store differs from a storeless run", name, pass)
					}
					res.Release()
					hits, misses, _ := derivedDelta(before, store.Stats())
					if hits+misses != 1 {
						t.Errorf("%s: run %d made %d derived lookups, want 1", name, pass, hits+misses)
					}
					if pass == 3 && hits != 1 {
						t.Errorf("%s: the third run of a key was not served from the store", name)
					}
				}
			}
		}
		if st := store.Stats(); st.DerivedCaptures == 0 {
			t.Errorf("%s: nothing was ever captured", d.Name)
		}
	}
}

// TestDerivedBypass: a script whose first compile does not start from the
// untouched snapshot computes as it always did and never consults the derived
// level — and a second compile in one run never does.
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
			res.Release()
			if hits, misses, captures := derivedDelta(before, store.Stats()); hits+misses+captures != 0 {
				t.Errorf("%s: run %d touched the derived level (%d hits, %d misses, %d captures)", name, pass, hits, misses, captures)
			}
		}
	}

	// Two compiles in one run: the first is looked up, the second never.
	script := linked(d) + "compile -map_effort high\ncompile -incremental\n" + reportTail
	want := fingerprint(t, mustRun(t, designSession(d, nil), script))
	for pass := 1; pass <= 3; pass++ {
		before := store.Stats()
		res := mustRun(t, designSession(d, store), script)
		if fingerprint(t, res) != want {
			t.Errorf("two compiles: run %d over the store differs from a storeless run", pass)
		}
		res.Release()
		if hits, misses, _ := derivedDelta(before, store.Stats()); hits+misses != 1 {
			t.Errorf("two compiles: run %d made %d derived lookups, want 1", pass, hits+misses)
		}
	}
}

// TestDerivedHitDropsCachedTiming: report_timing between create_clock and
// compile leaves the design with a Timing that points into the storage a
// derived hit thaws over. The run must equal a storeless one, and must run no
// analysis the storeless one does not.
func TestDerivedHitDropsCachedTiming(t *testing.T) {
	for _, d := range []*designs.Design{designs.TinyRocket(), designs.AES()} {
		script := linked(d) + "report_timing\ncompile_ultra -retime\nreport_timing\n" + reportTail
		want := fingerprint(t, mustRun(t, designSession(d, nil), script))
		store := NewCheckpointStore(0)
		mustRun(t, designSession(d, store), linked(d))
		for pass := 1; pass <= 4; pass++ {
			before := store.Stats()
			res := mustRun(t, designSession(d, store), script)
			if fingerprint(t, res) != want {
				t.Errorf("%s: run %d (report_timing before compile) differs from a storeless run", d.Name, pass)
			}
			res.Release()
			if hits, _, _ := derivedDelta(before, store.Stats()); (hits == 1) != (pass >= 3) {
				t.Errorf("%s: run %d: %d derived hits", d.Name, pass, hits)
			}
		}
	}
}

// TestDerivedSecondTouch: the first run of a key only notes it; the
// second freezes its result; from the third on it is served.
func TestDerivedSecondTouch(t *testing.T) {
	d := designs.TinyRocket()
	store := NewCheckpointStore(0)
	mustRun(t, designSession(d, store), linked(d))
	script := linked(d) + "compile_ultra\n"
	want := [][3]int64{{0, 1, 0}, {0, 1, 1}, {1, 0, 0}, {1, 0, 0}}
	for pass, w := range want {
		before := store.Stats()
		mustRun(t, designSession(d, store), script).Release()
		hits, misses, captures := derivedDelta(before, store.Stats())
		if got := [3]int64{hits, misses, captures}; got != w {
			t.Errorf("run %d: derived hits/misses/captures = %v, want %v", pass+1, got, w)
		}
	}
	// A key seen once holds no image, however many other runs pass.
	mustRun(t, designSession(d, store), linked(d)+"set_max_fanout 8\ncompile\n").Release()
	if st := store.Stats(); st.DerivedCaptures != 1 {
		t.Errorf("captures = %d after a second key ran once, want 1", st.DerivedCaptures)
	}
	if st := store.Stats(); st.Hits != 5 || st.Misses != 1 {
		t.Errorf("post-link hits/misses = %d/%d, want 5/1: derived lookups must not count there", st.Hits, st.Misses)
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

// TestDerivedIdentity: jpeg as linked holds nothing for Sweep to remove, so
// compile -map_effort low's passes edit nothing. That is recorded as
// such: served as a hit, with no image frozen or held.
func TestDerivedIdentity(t *testing.T) {
	d := designs.JPEG()
	store := NewCheckpointStore(0)
	mustRun(t, designSession(d, store), linked(d))
	script := linked(d) + "compile -map_effort low\n" + reportTail
	want := fingerprint(t, mustRun(t, designSession(d, nil), script))
	for pass := 1; pass <= 3; pass++ {
		res := mustRun(t, designSession(d, store), script)
		if fingerprint(t, res) != want {
			t.Errorf("run %d differs from a storeless run", pass)
		}
		res.Release()
	}
	if st := store.Stats(); st.DerivedHits != 1 || st.DerivedMisses != 2 || st.DerivedCaptures != 0 {
		t.Errorf("derived hits/misses/captures = %d/%d/%d, want 1/2/0", st.DerivedHits, st.DerivedMisses, st.DerivedCaptures)
	}
	cp := snapshotOf(t, store, d)
	if len(cp.derived) != 1 || !cp.derived[0].resolved || cp.derived[0].img != nil {
		t.Errorf("derived entries = %+v, want one resolved entry without an image", cp.derived)
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
			mustRun(t, designSession(d, store), script(fanout)).Release()
		}
	}
	cp := snapshotOf(t, store, d)
	if len(cp.derived) != maxDerived {
		t.Fatalf("snapshot holds %d derived entries, want %d", len(cp.derived), maxDerived)
	}
	for i, e := range cp.derived {
		if want := 4 + 2 + i; e.pre.maxFanout != want || !e.resolved {
			t.Errorf("entry %d: fanout %d resolved %v, want the %d newest in order (fanout %d, resolved)", i, e.pre.maxFanout, e.resolved, maxDerived, want)
		}
	}
	// Pushed out: computed again. Still held: served.
	before := store.Stats()
	mustRun(t, designSession(d, store), script(4+maxDerived+1)).Release()
	mustRun(t, designSession(d, store), script(4)).Release()
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
		res.Release()
		hits, misses, captures := derivedDelta(before, store.Stats())
		if got := [3]int64{hits, misses, captures}; got != w {
			t.Errorf("after eviction, run %d: derived hits/misses/captures = %v, want %v", pass+1, got, w)
		}
	}
}

// TestDerivedHammer: 16 goroutines run a mix of scripts — keys shared between
// commands, -retime at two periods, more keys per design than a snapshot
// keeps, bypassing scripts, failing ones that never read the netlist — over
// one store, releasing every result. Whatever
// interleaving of first touches, captures, hits and evictions results, every
// run equals the storeless one. Run with -race.
func TestDerivedHammer(t *testing.T) {
	type job struct {
		d            *designs.Design
		script, want string // want "" = must fail
	}
	var jobs []job
	for _, d := range []*designs.Design{designs.TinyRocket(), designs.RiscV32i(), designs.EthMAC()} {
		for _, tail := range []string{
			"compile\n", "compile -map_effort high\n", "compile_ultra -retime\n", "compile_ultra -no_autoungroup\n",
			"set_max_fanout 16\ncompile\n", "set_max_fanout 16\ncompile_ultra\n", "set_max_fanout 8\ncompile -map_effort low\n",
			"report_timing\ncompile_ultra\n",
			"set_dont_touch *\ncompile\n", "ungroup -all\ncompile\n",
			"compile\ncompile -incremental\n",
		} {
			script := linked(d) + tail + reportTail
			jobs = append(jobs, job{d, script, fingerprint(t, mustRun(t, designSession(d, nil), script))})
		}
		for _, tail := range []string{"compile_ultra -retime\n", "report_timing\ncompile_ultra -retime -timing_high_effort_script\n"} {
			script := linkedAt(d, 0.8*d.Period) + tail + reportTail
			jobs = append(jobs, job{d, script, fingerprint(t, mustRun(t, designSession(d, nil), script))})
		}
		jobs = append(jobs, job{d, linked(d) + "compile\n" + invalidTail, ""}, job{d, linked(d) + invalidTail, ""})
	}
	store := NewCheckpointStore(0)
	const workers, rounds = 16, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := jobs[(w*7+r*5)%len(jobs)]
				res, err := designSession(j.d, store).Run(j.script)
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
				got := fingerprint(t, res)
				res.Release()
				if got != j.want {
					t.Errorf("%s: run over the shared store differs from a storeless run:\n%s", j.d.Name, j.script)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := store.Stats(); st.DerivedHits == 0 || st.DerivedCaptures == 0 {
		t.Errorf("the hammer never reached the derived level's hit path: %+v", st)
	}
}

// TestRetimeKeyMatchesStoreless: with -retime the key carries the wireload
// and the constraints, and a resolved entry is the netlist after the register
// moves. Every shipped design runs the three -retime flavours at two periods,
// under two wireloads, with and without I/O delays, three times each over one
// store, and every run equals the storeless one. Within one set of constraints
// -timing_high_effort_script changes sizing only and so is served from its
// first run on by what plain -retime captured; everything else — another
// period, wireload or delay, or -no_autoungroup — is a key of its own, misses
// at first and is served by its third run.
func TestRetimeKeyMatchesStoreless(t *testing.T) {
	flavours := []string{"compile_ultra -retime", "compile_ultra -retime -timing_high_effort_script", "compile_ultra -retime -no_autoungroup"}
	for _, d := range derivedCorpus() {
		store := NewCheckpointStore(0)
		mustRun(t, designSession(d, store), linkOnly(d))
		for _, period := range []float64{d.Period, 0.8 * d.Period} {
			for _, wl := range []string{"", "set_wire_load_model -name 5K_light_1k\n"} {
				for _, delays := range []string{"", "set_input_delay 0.05 -clock clk\nset_output_delay 0.08 -clock clk\n"} {
					for i, flavour := range flavours {
						name := fmt.Sprintf("%s/%.2f/%s%s%s", d.Name, period, wl, delays, flavour)
						script := linkedAt(d, period) + wl + delays + flavour + "\n" + reportTail
						want := fingerprint(t, mustRun(t, designSession(d, nil), script))
						for pass := 1; pass <= 3; pass++ {
							before := store.Stats()
							res := mustRun(t, designSession(d, store), script)
							if fingerprint(t, res) != want {
								t.Errorf("%s: run %d over the store differs from a storeless run", name, pass)
							}
							res.Release()
							hits, misses, _ := derivedDelta(before, store.Stats())
							if hits+misses != 1 {
								t.Errorf("%s: run %d made %d derived lookups, want 1", name, pass, hits+misses)
							}
							if served := pass == 3 || i == 1; (hits == 1) != served {
								t.Errorf("%s: run %d: %d derived hits, want served = %v", name, pass, hits, served)
							}
						}
					}
				}
			}
		}
	}
}

// analysesOf is the number of full timing analyses one run of script costs.
func analysesOf(t *testing.T, s *Session, script string) uint64 {
	t.Helper()
	before := sta.FullAnalyses()
	mustRun(t, s, script).Release()
	return sta.FullAnalyses() - before
}

// TestRetimeHitRunsOneAnalysis pins what a resolved -retime entry removes.
// At its own period tinyRocket's registers move for 21 sweeps, each a full
// analysis, and the compile analyses where they ended up: 22 computed, 1
// served. On ethmac
// -retime finds nothing to move, so computing it costs the one analysis the
// compile needs anyway, and so does serving it. (The closing QoR reads the
// compile's analysis.)
func TestRetimeHitRunsOneAnalysis(t *testing.T) {
	for _, tc := range []struct {
		d        *designs.Design
		computed uint64
	}{{designs.TinyRocket(), 22}, {designs.EthMAC(), 1}} {
		d, script := tc.d, linked(tc.d)+"compile_ultra -retime\n"
		if got := analysesOf(t, designSession(d, nil), script); got != tc.computed {
			t.Errorf("%s: a storeless run made %d full analyses, want %d", d.Name, got, tc.computed)
		}
		store := NewCheckpointStore(0)
		mustRun(t, designSession(d, store), linkOnly(d))
		for pass, want := range []uint64{tc.computed, tc.computed, 1, 1} {
			if got := analysesOf(t, designSession(d, store), script); got != want {
				t.Errorf("%s: run %d over the store made %d full analyses, want %d", d.Name, pass+1, got, want)
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
		mustRun(t, designSession(d, store), useful).Release()
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
			res.Release()
			if hits, misses, captures := derivedDelta(before, store.Stats()); hits != 0 || misses != 1 || captures != 0 {
				t.Errorf("NaN script %d, run %d: derived hits/misses/captures = %d/%d/%d, want 0/1/0", i, pass, hits, misses, captures)
			}
			mustRun(t, designSession(d, store), useful).Release()
		}
	}
	cp := snapshotOf(t, store, d)
	if len(cp.derived) != 1 || !cp.derived[0].resolved {
		t.Errorf("derived entries = %+v, want the one resolved entry", cp.derived)
	}
	if st := store.Stats(); st.DerivedHits != 9 || st.DerivedCaptures != 1 {
		t.Errorf("derived hits/captures = %d/%d, want 9/1", st.DerivedHits, st.DerivedCaptures)
	}
}

// betweenLinkAndCompile is every command the grammar allows between link and
// the first compile, for a design with a clk port: the constraint setters,
// which leave a restored design's image frozen, and everything else, which
// thaws it.
func betweenLinkAndCompile(period float64, protect string) []string {
	return []string{
		"set_wire_load_model -name 5K_medium_1k", fmt.Sprintf("create_clock -period %.2f clk", period),
		"set_input_delay 0.05 -clock clk", "set_output_delay 0.05 -clock clk", "set_max_fanout 12", "set_max_area 0",
		"set_dont_touch " + protect, "ungroup -all", "uniquify", "echo between",
		"report_timing", "report_area", "report_qor", "report_power", "report_hierarchy", "report_constraint", "write",
	}
}

// runsMatchStoreless runs script three times over store — noted, captured,
// served, where it reaches the derived level at all — against a storeless run.
func runsMatchStoreless(t *testing.T, d *designs.Design, store *CheckpointStore, script string) {
	t.Helper()
	want := fingerprint(t, mustRun(t, designSession(d, nil), script))
	for pass := 1; pass <= 3; pass++ {
		res := mustRun(t, designSession(d, store), script)
		if fingerprint(t, res) != want {
			t.Errorf("run %d over the store differs from a storeless run:\n%s", pass, script)
		}
		res.Release()
	}
}

// TestDeferredThawMatchesStoreless: a restore thaws the snapshot for the
// first command that reads the netlist and not before. Whatever stands
// between link and compile — each command alone on tinyRocket, every ordered
// pair on a 16-bit adder whose clock is too fast for it — and whether the
// compile is then computed or served, the run equals the storeless one.
func TestDeferredThawMatchesStoreless(t *testing.T) {
	d := designs.TinyRocket()
	store := NewCheckpointStore(0)
	mustRun(t, designSession(d, store), linkOnly(d))
	for _, c := range betweenLinkAndCompile(0.9*d.Period, "u_*") {
		runsMatchStoreless(t, d, store, linked(d)+c+"\ncompile_ultra -retime\n"+reportTail)
		runsMatchStoreless(t, d, store, linked(d)+c+"\n") // no compile: the closing QoR reads the netlist
	}

	d = &designs.Design{Name: "tiny", Top: "tiny", FileName: "tiny.v", Source: testDesignSrc, Period: 0.6}
	store = NewCheckpointStore(0)
	mustRun(t, designSession(d, store), linkOnly(d))
	cmds := betweenLinkAndCompile(0.5, "*")
	for _, a := range cmds {
		for _, b := range cmds {
			runsMatchStoreless(t, d, store, linked(d)+a+"\n"+b+"\ncompile_ultra -retime\n"+reportTail)
		}
	}
	if st := store.Stats(); st.DerivedHits == 0 || st.ThawsSkipped == 0 {
		t.Errorf("the pairs never reached a served compile or a skipped thaw: %+v", st)
	}
}

// TestUnreadRestoreParksItsWorkspace: a run that dies before any command has
// read the netlist — a bad -period, the command budget, a cancelled context —
// hands back a workspace nothing was thawed into, the first of them one with
// no netlist at all. The restores after it work in that workspace and match.
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
		res.Release()
	}
	st := store.Stats()
	if st.Allocated != 1 || st.Reused != 23 {
		t.Errorf("workspaces allocated/reused = %d/%d, want 1/23: an unread restore dropped its storage", st.Allocated, st.Reused)
	}
	// The 12 doomed runs, and the good ones from the third on, which were served.
	if st.ThawsSkipped != 12+10 {
		t.Errorf("thaws skipped = %d, want 22", st.ThawsSkipped)
	}
}
