package synth

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/resilience"
	"repro/internal/sta"
	"repro/internal/verilog"
)

// Workspace recycling: restores thaw into storage the store parks between
// runs. These tests pin who hands it back — the run itself, whenever it
// returns no design: every Evaluate and every failed run — and that results
// never depend on what a workspace held before.

// invalidTail makes a script die in exec, after its link prefix has been
// restored: the option-level hallucination the simulated raw models emit. (A
// command or option name that does not exist is rejected by ParseScript,
// before anything is restored.)
const invalidTail = "compile -map_effort turbo\n"

// TestFailedRunsReturnTheirWorkspace: a script that dies after the link
// prefix — invalid option value, command budget, cancelled context — returns no
// Result, so RunContext itself must hand the restored storage back. Fifty
// such runs against one store all work in the one workspace the first of
// them allocated; the capturing run before them took one too (every run
// through the link prefix takes one), and it left with that run's design. A
// successful restored RunContext then takes the fifty's workspace and,
// returning a design that lives in it, parks nothing.
func TestFailedRunsReturnTheirWorkspace(t *testing.T) {
	store := NewCheckpointStore(4)
	if _, err := newCheckpointedSession(store).RunContext(context.Background(), goodScript); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 50; i++ {
		sess := newCheckpointedSession(store)
		ctx, script := context.Background(), goodScript+invalidTail
		var want error
		switch i % 3 {
		case 1:
			sess.MaxCommands = 6 // past link, short of the script's end
			script, want = goodScript, resilience.ErrBudgetExceeded
		case 2:
			ctx, script, want = cancelled, goodScript, context.Canceled
		}
		res, err := sess.RunContext(ctx, script)
		if err == nil || res != nil {
			t.Fatalf("run %d: invalid script returned (%v, %v)", i, res, err)
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("run %d: error %v, want %v", i, err, want)
		}
	}
	st := store.Stats()
	if st.Hits != 50 {
		t.Fatalf("hits = %d, want 50: the invalid runs must fail after a restore", st.Hits)
	}
	if st.Allocated != 1+1 || st.Reused != 49 {
		t.Errorf("workspaces allocated/reused = %d/%d, want 2/49: failed runs dropped their storage", st.Allocated, st.Reused)
	}
	res, err := newCheckpointedSession(store).RunContext(context.Background(), goodScript)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits != 51 || st.Reused != 50 {
		t.Fatalf("hits/reused = %d/%d, want 51/50: the successful run did not restore into the parked workspace", st.Hits, st.Reused)
	}
	if res.Design == nil || len(store.idle) != 0 {
		t.Errorf("a successful RunContext returned design %v and left %d workspaces parked, want a design and none", res.Design != nil, len(store.idle))
	}
}

// TestRecycledWorkspacesMatchStoreless hammers one store from 16 goroutines
// with valid scripts through Evaluate and invalid ones through RunContext
// over designs of different sizes, each of which hands its workspace back, so
// workspaces move between goroutines, designs and aborted runs. Every valid
// run must equal a storeless session's, byte for byte. Run with -race.
func TestRecycledWorkspacesMatchStoreless(t *testing.T) {
	lib := liberty.Nangate45()
	type job struct {
		name, file, src, script string
		want                    string // "" = must fail
	}
	var jobs []job
	add := func(name, file, src, script string, valid bool) {
		j := job{name: name, file: file, src: src, script: script}
		if valid {
			sess := NewSession(lib)
			sess.AddSource(file, src)
			res, err := sess.RunContext(context.Background(), script)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			j.want = runJSON(t, res)
		}
		jobs = append(jobs, j)
	}
	add("tiny", "tiny.v", testDesignSrc, goodScript, true)
	add("tiny/invalid", "tiny.v", testDesignSrc, goodScript+invalidTail, false)
	for _, d := range []*designs.Design{designs.AES(), designs.RiscV32i()} {
		prefix := fmt.Sprintf("read_verilog %s\ncurrent_design %s\nlink\ncreate_clock -period %.2f clk\n", d.FileName, d.Top, d.Period)
		add(d.Name, d.FileName, d.Source, prefix+"compile_ultra -retime\nbalance_buffers\nreport_qor\nreport_timing\n", true)
		add(d.Name+"/invalid", d.FileName, d.Source, prefix+"compile\n"+invalidTail, false)
	}

	store := NewCheckpointStore(0)
	const workers, rounds = 16, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := jobs[(w+r)%len(jobs)]
				sess := NewSession(lib)
				sess.Checkpoints = store
				sess.AddSource(j.file, j.src)
				if j.want == "" {
					if _, err := sess.RunContext(context.Background(), j.script); err == nil {
						t.Errorf("%s: invalid script ran to completion", j.name)
					}
					continue
				}
				res, err := sess.Evaluate(context.Background(), j.script)
				if err != nil {
					t.Errorf("%s: %v", j.name, err)
					continue
				}
				if runJSON(t, res) != j.want {
					t.Errorf("%s: run over the shared store differs from a storeless run", j.name)
				}
			}
		}()
	}
	wg.Wait()
	st := store.Stats()
	if st.Reused == 0 {
		t.Error("no restore reused a workspace")
	}
	if st.Reused+st.Allocated != st.Hits+st.Misses {
		t.Errorf("reused %d + allocated %d != hits %d + misses %d: every run through the link prefix, restoring or capturing, takes exactly one workspace",
			st.Reused, st.Allocated, st.Hits, st.Misses)
	}
}

// snapshotRead lends fn the netlist snap holds of d and reports whether the
// store still held it.
func snapshotRead(t *testing.T, snap Snapshot, d *designs.Design, fn func(nl *netlist.Netlist, tm *sta.Timing) error) bool {
	t.Helper()
	found, err := snap.Netlist(d.Source, d.Top, fn)
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// TestSnapshotReadThawIsReused: a restore that takes the workspace a
// Snapshot.Netlist read has just parked uses the read's thaw as it is — the
// image is thawed once for the two — but only when the read left the edit
// generations as the thaw made them: after a read that moved one, the restore
// thaws again. A read that finds an unedited thaw of its image in its
// workspace thaws nothing either. Every run matches a storeless one.
func TestSnapshotReadThawIsReused(t *testing.T) {
	d := designs.RiscV32i()
	store := NewCheckpointStore(0)
	script := linked(d) + "compile_ultra -retime\n" + reportTail
	fresh := mustRun(t, designSession(d, nil), script)
	want, wantValues := fingerprint(t, fresh), runJSON(t, fresh)
	res, err := designSession(d, store).Evaluate(context.Background(), linkOnly(d))
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot
	read := func(nl *netlist.Netlist, tm *sta.Timing) error {
		return tm.Reset(nl, nl.Lib.WireLoad(""), sta.Constraints{Period: d.Period})
	}
	edit := func(nl *netlist.Netlist, tm *sta.Timing) error {
		nl.SetRef(nl.Cells[0], nl.Cells[0].Ref) // moves Gen, changes nothing
		return nil
	}
	thaws := func(step string, want int64) {
		t.Helper()
		if got := store.Stats().Thaws; got != want {
			t.Errorf("after %s: %d thaws, want %d", step, got, want)
		}
	}
	thaws("the capture", 0)
	if !snapshotRead(t, snap, d, read) {
		t.Fatal("the snapshot read found nothing")
	}
	thaws("the first read", 1)
	if got := fingerprint(t, mustRun(t, designSession(d, store), script)); got != want {
		t.Error("the restore that reused the read's thaw differs from a storeless run")
	}
	thaws("the restore after it", 1)
	snapshotRead(t, snap, d, read) // a new workspace: the restore kept the last
	thaws("the second read", 2)
	snapshotRead(t, snap, d, edit)
	thaws("a read after a read", 2)
	res, err = designSession(d, store).Evaluate(context.Background(), script)
	if err != nil {
		t.Fatal(err)
	}
	if runJSON(t, res) != wantValues {
		t.Error("the restore after an editing read differs from a storeless run")
	}
	thaws("the restore after an editing read", 3)
}

// TestCaptureParksNothingOfItsNetlist: a capturing run's design is elaborated
// afresh and borrows its workspace's Timing and scratch; when the run parks
// the workspace, neither may still point into that netlist, and the
// workspace's own netlist is as it was (here: none). A capturing run that
// fails before it has a design parks its workspace too.
func TestCaptureParksNothingOfItsNetlist(t *testing.T) {
	d := designs.RiscV32i()
	store := NewCheckpointStore(0)
	script := linked(d) + "compile_ultra -retime\n" + reportTail
	want := runJSON(t, mustRun(t, designSession(d, nil), script))
	noTop := "read_verilog " + d.FileName + "\ncurrent_design nosuch\nlink\n"
	if _, err := designSession(d, store).Evaluate(context.Background(), noTop); err == nil {
		t.Fatal("a link prefix naming a missing top ran")
	}
	res, err := designSession(d, store).Evaluate(context.Background(), script)
	if err != nil {
		t.Fatal(err)
	}
	if runJSON(t, res) != want {
		t.Error("the capturing run differs from a storeless run")
	}
	if st := store.Stats(); st.Misses != 2 || st.Allocated != 1 || st.Reused != 1 || len(store.idle) != 1 {
		t.Fatalf("misses/allocated/reused = %d/%d/%d with %d parked, want 2/1/1 with 1", st.Misses, st.Allocated, st.Reused, len(store.idle))
	}
	ws := store.idle[0]
	if ws.nl != nil || ws.tm.NL != nil {
		t.Errorf("the parked workspace holds netlist %v and a Timing of %v, want neither", ws.nl != nil, ws.tm.NL != nil)
	}
	for _, c := range append(ws.sc.cells[:cap(ws.sc.cells)], ws.sc.moved[:cap(ws.sc.moved)]...) {
		if c != nil {
			t.Fatal("the parked workspace's scratch still points at a cell of the captured netlist")
		}
	}
}

// TestColdWorkspaceHammer: sixteen goroutines share one two-snapshot store
// over four designs, so snapshots are evicted and captured again throughout,
// and mix what a design's first request does — capturing runs, snapshot
// reads, restores — with failing runs, through Evaluate (which parks its
// workspace) and RunContext (which keeps it). Workspaces thus pass between
// captures that borrow their Timing, reads that leave an unedited thaw behind
// and restores that use it. Every run equals a storeless one and every read
// sees the netlist a fresh elaboration builds. make derived-race runs it ten
// times under -race.
func TestColdWorkspaceHammer(t *testing.T) {
	type job struct {
		d                 *designs.Design
		script, want      string // want "" = must fail
		netlist, snapshot string
	}
	tiny := func(name string) *designs.Design {
		return &designs.Design{Name: name, Top: name, FileName: name + ".v", Period: 2.5,
			Source: strings.Replace(testDesignSrc, "tiny", name, -1)}
	}
	var jobs []job
	for _, d := range []*designs.Design{tiny("tiny"), tiny("tiny2"), tiny("tiny3"), designs.RiscV32i()} {
		script := linked(d) + "compile\n" + reportTail
		res := mustRun(t, designSession(d, nil), script)
		file, err := verilog.Parse(d.Source)
		if err != nil {
			t.Fatal(err)
		}
		nl, err := netlist.Elaborate(file, d.Top, nil, derivedLib)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs,
			job{d: d, script: script, want: runJSON(t, res), netlist: string(netlist.Encode(nl))},
			job{d: d, script: linked(d) + "compile\n" + invalidTail})
	}
	store := NewCheckpointStore(2)
	const workers, rounds = 16, 8
	var reads atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := jobs[(w*3+r*5)%len(jobs)]
				sess := designSession(j.d, store)
				if j.want == "" {
					if _, err := sess.RunContext(context.Background(), j.script); err == nil {
						t.Errorf("%s: invalid script ran to completion", j.d.Name)
					}
					continue
				}
				run := sess.Evaluate
				if (w+r)%3 == 0 {
					run = sess.RunContext
				}
				res, err := run(context.Background(), j.script)
				if err != nil {
					t.Errorf("%s: %v", j.d.Name, err)
					continue
				}
				if runJSON(t, res) != j.want {
					t.Errorf("%s: run over the shared store differs from a storeless run", j.d.Name)
				}
				// The design's first request reads its snapshot next.
				found, err := res.Snapshot.Netlist(j.d.Source, j.d.Top, func(nl *netlist.Netlist, tm *sta.Timing) error {
					if string(netlist.Encode(nl)) != j.netlist {
						return fmt.Errorf("%s: the snapshot read lent a netlist that is not the elaborated one", j.d.Name)
					}
					return tm.Reset(nl, nl.Lib.WireLoad(""), sta.Constraints{Period: j.d.Period})
				})
				if err != nil {
					t.Error(err)
				}
				if found {
					reads.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	st := store.Stats()
	if st.Evictions == 0 || st.Misses <= 4 || reads.Load() == 0 {
		t.Errorf("%d evictions, %d captures and %d reads: the mix did not happen", st.Evictions, st.Misses, reads.Load())
	}
	if got, want := st.Reused+st.Allocated, st.Hits+st.Misses+reads.Load(); got != want {
		t.Errorf("%d workspace acquisitions, want %d: every run through the link prefix and every snapshot read takes exactly one", got, want)
	}
}
