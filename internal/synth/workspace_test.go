package synth

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/resilience"
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
// them allocated. A successful restored RunContext then takes that workspace
// and, returning a design that lives in it, parks nothing.
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
	if st.Allocated != 1 || st.Reused != 49 {
		t.Errorf("workspaces allocated/reused = %d/%d, want 1/49: failed runs dropped their storage", st.Allocated, st.Reused)
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
	if st.Reused+st.Allocated != st.Hits {
		t.Errorf("reused %d + allocated %d != hits %d: every restore takes exactly one workspace", st.Reused, st.Allocated, st.Hits)
	}
}
