package synth

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/netlist"
)

// Derived checkpoints: the store keeps, beside each post-link snapshot, what
// compile's structural front half makes of it. The storeless session is the
// oracle throughout — whatever a run takes from the store, its QoR, reports,
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

// linked is the canonical link prefix for d plus its clock.
func linked(d *designs.Design) string {
	return fmt.Sprintf("read_verilog %s\ncurrent_design %s\nlink\ncreate_clock -period %.2f clk\n", d.FileName, d.Top, d.Period)
}

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
// front half to be computed, captured and served — and compares every run
// with a storeless one. The seven commands share four front halves (-map_effort
// low and -incremental run the same passes, as do -map_effort high and
// -no_autoungroup, and compile_ultra with and without -retime), so some first
// runs are already served from what another command captured, and the eight
// front halves a design sees push each other out of its four slots.
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
						t.Errorf("%s: the third run of a front half was not served from the store", name)
					}
				}
			}
		}
		if st := store.Stats(); st.DerivedCaptures == 0 {
			t.Errorf("%s: no front half was ever captured", d.Name)
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

// TestDerivedSecondTouch: the first run of a front half only notes it; the
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
	// A front half seen once holds no image, however many other runs pass.
	mustRun(t, designSession(d, store), linked(d)+"set_max_fanout 8\ncompile\n").Release()
	if st := store.Stats(); st.DerivedCaptures != 1 {
		t.Errorf("captures = %d after a second front half ran once, want 1", st.DerivedCaptures)
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
// compile -map_effort low's front half edits nothing. That is recorded as
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

// TestDerivedBoundAndEviction: a snapshot keeps at most maxDerived front
// halves, the oldest going first, and all of them go with the snapshot when
// the LRU evicts it.
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
		if want := 4 + 2 + i; e.front.maxFanout != want || !e.resolved {
			t.Errorf("entry %d: fanout %d resolved %v, want the %d newest in order (fanout %d, resolved)", i, e.front.maxFanout, e.resolved, maxDerived, want)
		}
	}
	// Pushed out: computed again. Still held: served.
	before := store.Stats()
	mustRun(t, designSession(d, store), script(4+maxDerived+1)).Release()
	mustRun(t, designSession(d, store), script(4)).Release()
	if hits, misses, _ := derivedDelta(before, store.Stats()); hits != 1 || misses != 1 {
		t.Errorf("newest + evicted front half: %d hits, %d misses, want 1 and 1", hits, misses)
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

// TestDerivedHammer: 16 goroutines run a mix of scripts — front halves shared
// between commands, more of them per design than a snapshot keeps, bypassing
// scripts, a failing one — over one store, releasing every result. Whatever
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
		jobs = append(jobs, job{d, linked(d) + "compile\n" + invalidTail, ""})
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
