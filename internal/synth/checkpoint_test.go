package synth

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
)

func newCheckpointedSession(store *CheckpointStore) *Session {
	s := newTestSession()
	s.Checkpoints = store
	return s
}

// runJSON canonicalizes a Result for byte comparison: reports, netlists,
// log, and QoR all participate.
func runJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(struct {
		QoR      *QoR
		Reports  []string
		Netlists []string
		Log      []string
	}{res.QoR, res.Reports, res.Netlists, res.Log})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCheckpointRestoreBitIdentical: a restored run reproduces a fresh run's
// output byte for byte — reports, written netlists, transcript, and QoR.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	script := goodScript + "write\n"
	fresh, err := newTestSession().RunContext(context.Background(), script)
	if err != nil {
		t.Fatal(err)
	}

	store := NewCheckpointStore(4)
	first, err := newCheckpointedSession(store).RunContext(context.Background(), script)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("first run: hits=%d misses=%d, want 0/1", st.Hits, st.Misses)
	}
	second, err := newCheckpointedSession(store).RunContext(context.Background(), script)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits != 1 {
		t.Fatalf("second run did not hit the store: %+v", st)
	}

	want := runJSON(t, fresh)
	if got := runJSON(t, first); got != want {
		t.Errorf("miss-path run differs from uncheckpointed run:\n%s\nvs\n%s", got, want)
	}
	if got := runJSON(t, second); got != want {
		t.Errorf("restored run differs from uncheckpointed run:\n%s\nvs\n%s", got, want)
	}
}

// TestCheckpointKeyInputs: any input that shapes elaboration — source text,
// top module, library — changes the key, so a restore
// can never serve the wrong design.
func TestCheckpointKeyInputs(t *testing.T) {
	base := newTestSession()
	key := func(s *Session, files []string, top string) string {
		k, ok := s.checkpointKey(files, top)
		if !ok {
			t.Fatalf("key underivable for %v", files)
		}
		return k
	}
	k0 := key(base, []string{"tiny.v"}, "tiny")

	edited := newTestSession()
	edited.AddSource("tiny.v", testDesignSrc+"\n// trailing comment\n")
	if key(edited, []string{"tiny.v"}, "tiny") == k0 {
		t.Error("changed source text must change the key")
	}
	if key(base, []string{"tiny.v"}, "other_top") == k0 {
		t.Error("changed top module must change the key")
	}
	otherLib := NewSession(liberty.NewLibrary("empty"))
	otherLib.AddSource("tiny.v", testDesignSrc)
	if key(otherLib, []string{"tiny.v"}, "tiny") == k0 {
		t.Error("different library content must change the key")
	}
	// Two independently built instances of the same library fingerprint
	// identically: the key is content-addressed, not pointer-addressed.
	rebuilt := NewSession(liberty.Nangate45())
	rebuilt.AddSource("tiny.v", testDesignSrc)
	if key(rebuilt, []string{"tiny.v"}, "tiny") != k0 {
		t.Error("identical library content must produce the same key")
	}

	if _, ok := base.checkpointKey([]string{"missing.v"}, "tiny"); ok {
		t.Error("unknown source file must make the key underivable")
	}
}

// TestCheckpointPrefixRecognition: only the canonical
// read_verilog/current_design/link prefix checkpoints; everything else
// falls back to fresh elaboration (and still runs correctly).
func TestCheckpointPrefixRecognition(t *testing.T) {
	cases := []struct {
		name   string
		script string
		cached bool
	}{
		{"canonical", "read_verilog tiny.v\ncurrent_design tiny\nlink\ncreate_clock -period 2.5 clk\ncompile\n", true},
		{"no current_design", "read_verilog tiny.v\nlink\ncreate_clock -period 2.5 clk\ncompile\n", true},
		{"implicit link", "read_verilog tiny.v\ncurrent_design tiny\ncreate_clock -period 2.5 clk\ncompile\n", false},
		{"wireload before link", "read_verilog tiny.v\nset_wire_load_model -name 5K_heavy_1k\nlink\ncreate_clock -period 2.5 clk\ncompile\n", false},
		{"echo first", "echo hi\nread_verilog tiny.v\nlink\ncreate_clock -period 2.5 clk\ncompile\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := NewCheckpointStore(4)
			fresh, err := newTestSession().RunContext(context.Background(), tc.script)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := newCheckpointedSession(store).RunContext(context.Background(), tc.script); err != nil {
				t.Fatal(err)
			}
			got, err := newCheckpointedSession(store).RunContext(context.Background(), tc.script)
			if err != nil {
				t.Fatal(err)
			}
			hit := store.Stats().Hits > 0
			if hit != tc.cached {
				t.Errorf("cached=%v, want %v (stats %+v)", hit, tc.cached, store.Stats())
			}
			if runJSON(t, got) != runJSON(t, fresh) {
				t.Errorf("checkpointed result differs from fresh run")
			}
		})
	}
}

// TestCheckpointBudgetInteraction: a budget too small to reach link aborts
// at the same command whether or not a snapshot exists.
func TestCheckpointBudgetInteraction(t *testing.T) {
	store := NewCheckpointStore(4)
	if _, err := newCheckpointedSession(store).RunContext(context.Background(), goodScript); err != nil {
		t.Fatal(err)
	}
	s := newCheckpointedSession(store)
	s.MaxCommands = 2 // read_verilog, current_design — link is over budget
	_, err := s.RunContext(context.Background(), goodScript)
	if err == nil || !strings.Contains(err.Error(), "link") {
		t.Errorf("budget overrun should surface at link, got: %v", err)
	}
	if store.Stats().Hits != 0 {
		t.Errorf("an over-budget prefix must not restore (hits=%d)", store.Stats().Hits)
	}
}

// TestCheckpointSnapshotImmutable: mutating a restored design — resizing,
// retiming, ungrouping via compile_ultra — never perturbs the snapshot a
// later session restores from.
func TestCheckpointSnapshotImmutable(t *testing.T) {
	store := NewCheckpointStore(4)
	prefix := "read_verilog tiny.v\ncurrent_design tiny\nlink\n"
	if _, err := newCheckpointedSession(store).RunContext(context.Background(), prefix); err != nil {
		t.Fatal(err)
	}
	key, ok := newTestSession().checkpointKey([]string{"tiny.v"}, "tiny")
	if !ok {
		t.Fatal("key underivable")
	}
	cp := store.get(key)
	if cp == nil {
		t.Fatal("prefix-only run did not store a snapshot")
	}
	// The encoding covers structure, IDs, orders and edit generations alike.
	before := netlist.Encode(cp.img.Thaw(nil))

	// A heavyweight mutating run restored from the snapshot.
	heavy := prefix + "create_clock -period 1.2 clk\ncompile_ultra -retime\noptimize_registers\nbalance_buffers\nreport_qor\n"
	if _, err := newCheckpointedSession(store).RunContext(context.Background(), heavy); err != nil {
		t.Fatal(err)
	}
	if store.Stats().Hits == 0 {
		t.Fatal("heavy run should have restored from the snapshot")
	}
	after := cp.img.Thaw(nil)
	if !bytes.Equal(netlist.Encode(after), before) {
		t.Fatal("mutating a restored design perturbed the stored snapshot")
	}
	if err := after.Check(); err != nil {
		t.Fatalf("snapshot invariants violated: %v", err)
	}
}

// TestCheckpointConcurrentRestore: many sessions share one store, restoring
// and mutating concurrently; all produce the fresh-run result. Run with
// -race.
func TestCheckpointConcurrentRestore(t *testing.T) {
	fresh, err := newTestSession().RunContext(context.Background(), goodScript)
	if err != nil {
		t.Fatal(err)
	}
	want := runJSON(t, fresh)

	store := NewCheckpointStore(4)
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	outs := make([]string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := newCheckpointedSession(store).RunContext(context.Background(), goodScript)
			if err != nil {
				errs[w] = err
				return
			}
			outs[w] = runJSON(t, res)
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if outs[w] != want {
			t.Errorf("worker %d diverged from the fresh run", w)
		}
	}
	st := store.Stats()
	if st.Hits+st.Misses != workers {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, workers)
	}
}

// TestCheckpointEviction: the store is bounded; filling it past capacity
// evicts LRU entries and counts them.
func TestCheckpointEviction(t *testing.T) {
	store := NewCheckpointStore(1)
	s1 := newCheckpointedSession(store)
	if _, err := s1.RunContext(context.Background(), goodScript); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(liberty.Nangate45())
	s2.AddSource("other.v", strings.Replace(testDesignSrc, "tiny", "tiny2", -1))
	s2.Checkpoints = store
	if _, err := s2.RunContext(context.Background(), "read_verilog other.v\ncurrent_design tiny2\nlink\ncreate_clock -period 2.5 clk\ncompile\n"); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Errorf("store over capacity: %d entries", store.Len())
	}
	if store.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", store.Stats().Evictions)
	}
}

// TestCheckpointNilStoreSafe: the nil store is inert (methods are nil-safe,
// sessions run uncheckpointed).
func TestCheckpointNilStoreSafe(t *testing.T) {
	var store *CheckpointStore
	if store.Len() != 0 || store.Stats() != (CheckpointStats{}) {
		t.Error("nil store should report zeros")
	}
	s := newTestSession()
	s.Checkpoints = store // explicit nil
	if _, err := s.RunContext(context.Background(), goodScript); err != nil {
		t.Fatal(err)
	}
}
