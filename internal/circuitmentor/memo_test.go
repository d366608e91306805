package circuitmentor

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/synth"
	"repro/internal/work"
)

// twoTops has two modules either of which can be the top, for snapshots that
// differ in top alone.
const twoTops = `
module a (input x, input y, output z); assign z = x & y; endmodule
module b (input x, input y, output z); assign z = x ^ y; endmodule
`

// snapshotOf links src under top through store, as a task's baseline run
// does, and returns the handle the run's Result carries.
func snapshotOf(t *testing.T, store *synth.CheckpointStore, src, top string, lib *liberty.Library) synth.Snapshot {
	t.Helper()
	sess := synth.NewSession(lib)
	sess.Checkpoints = store
	sess.AddSource("d.v", src)
	res, err := sess.Evaluate(context.Background(), "read_verilog d.v\ncurrent_design "+top+"\nlink\n")
	if err != nil {
		t.Fatal(err)
	}
	return res.Snapshot
}

func mustAnalyze(t *testing.T, ctx context.Context, snap synth.Snapshot, src, top string, period float64, lib *liberty.Library) *Analysis {
	t.Helper()
	a, err := AnalyzeSnapshotContext(ctx, snap, src, top, period, lib)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// scoped runs call under a work scope of its own and returns what it counted.
func scoped(call func(ctx context.Context)) *work.Counts {
	c := new(work.Counts)
	call(work.With(context.Background(), c))
	return c
}

// kept reports whether one call read the analysis off the snapshot (a hit)
// rather than computing it (a miss); it fails the test on anything else.
func kept(t *testing.T, what string, call func(ctx context.Context)) bool {
	t.Helper()
	c := scoped(call)
	switch hits, misses := c.Get(work.MentorHits), c.Get(work.MentorMisses); {
	case hits == 1 && misses == 0:
		return true
	case hits == 0 && misses == 1:
		return false
	default:
		t.Fatalf("%s: %d hits and %d misses, want one hit or one miss", what, hits, misses)
		return false
	}
}

func TestMemoizedAnalysisEqualsDirect(t *testing.T) {
	lib := liberty.Nangate45()
	for _, d := range designs.Benchmarks() {
		t.Run(d.Name, func(t *testing.T) {
			want, err := AnalyzeContext(context.Background(), d.Source, d.Top, d.Period, lib)
			if err != nil {
				t.Fatal(err)
			}
			snap := snapshotOf(t, synth.NewCheckpointStore(1), d.Source, d.Top, lib)
			cold := mustAnalyze(t, context.Background(), snap, d.Source, d.Top, d.Period, lib)
			var hot *Analysis
			c := scoped(func(ctx context.Context) { hot = mustAnalyze(t, ctx, snap, d.Source, d.Top, d.Period, lib) })
			if c.Get(work.MentorHits) != 1 || c.Get(work.MentorMisses) != 0 {
				t.Error("second call on the snapshot computed the analysis again")
			}
			if n := c.Get(work.FullAnalyses); n != 0 {
				t.Errorf("second call ran %d full timing analyses, want 0", n)
			}
			for what, got := range map[string]*Analysis{"cold": cold, "hot": hot} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s analysis = %+v, want %+v", what, got, want)
				}
				if got.Render() != want.Render() {
					t.Errorf("%s Render() = %q, want %q", what, got.Render(), want.Render())
				}
			}
		})
	}
}

// TestMemoKeyIsTheFullArguments: an analysis is kept on the snapshot of its
// source under its top, under its library and its period; any other argument
// computes.
func TestMemoKeyIsTheFullArguments(t *testing.T) {
	lib := liberty.Nangate45()
	slower := liberty.Nangate45()
	slower.Cell("AND2_X1").Intrinsic += 0.001 // same Name, one delay parameter off
	store := synth.NewCheckpointStore(4)
	snap := snapshotOf(t, store, twoTops, "a", lib)
	slowSnap := snapshotOf(t, store, twoTops, "a", slower)

	calls := []struct {
		what   string
		snap   synth.Snapshot
		src    string
		top    string
		period float64
		lib    *liberty.Library
		hit    bool
	}{
		{"first call", snap, twoTops, "a", 1.0, lib, false},
		{"equal arguments", snap, twoTops, "a", 1.0, lib, true},
		{"different period", snap, twoTops, "a", 1.5, lib, false},
		{"different period again", snap, twoTops, "a", 1.5, lib, true},
		{"different top: the handle finds nothing", snap, twoTops, "b", 1.0, lib, false},
		{"different top again: nothing was kept", snap, twoTops, "b", 1.0, lib, false},
		{"one more source byte", snap, twoTops + "\n", "a", 1.0, lib, false},
		{"no handle", synth.Snapshot{}, twoTops, "a", 1.0, lib, false},
		{"library differing in one delay parameter", slowSnap, twoTops, "a", 1.0, slower, false},
		{"that library again", slowSnap, twoTops, "a", 1.0, slower, true},
		{"equal library, another instance", snap, twoTops, "a", 1.0, liberty.Nangate45(), false},
		{"the first arguments again", snap, twoTops, "a", 1.0, lib, true},
	}
	for _, c := range calls {
		if hit := kept(t, c.what, func(ctx context.Context) { mustAnalyze(t, ctx, c.snap, c.src, c.top, c.period, c.lib) }); hit != c.hit {
			t.Errorf("%s: hit = %v, want %v", c.what, hit, c.hit)
		}
	}
}

func TestMemoHonoursCancelledContextWhenHot(t *testing.T) {
	lib := liberty.Nangate45()
	snap := snapshotOf(t, synth.NewCheckpointStore(1), twoTops, "a", lib)
	mustAnalyze(t, context.Background(), snap, twoTops, "a", 1.0, lib)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if a, err := AnalyzeSnapshotContext(ctx, snap, twoTops, "a", 1.0, lib); !errors.Is(err, context.Canceled) || a != nil {
		t.Errorf("cancelled context on a kept analysis: (%v, %v), want context.Canceled", a, err)
	}
}

// expiringCtx reports no error for its first ok Err calls and
// context.Canceled after, so a cancellation can land between two phases.
type expiringCtx struct {
	context.Context
	ok int
}

func (c *expiringCtx) Err() error {
	if c.ok > 0 {
		c.ok--
		return nil
	}
	return context.Canceled
}

// TestMemoStoresSuccessesOnly: a failed analysis is returned and never kept
// — a timing pass refusing the snapshot's netlist, a parse error, a
// cancellation between phases — and the next call computes again.
func TestMemoStoresSuccessesOnly(t *testing.T) {
	lib := liberty.Nangate45()
	store := synth.NewCheckpointStore(2)

	// A combinational loop links, but the timing pass refuses it.
	const loop = "module a (input x, output z); wire w; assign w = ~(w & x); assign z = w; endmodule"
	loopSnap := snapshotOf(t, store, loop, "a", lib)
	for i := 0; i < 2; i++ {
		if kept(t, "analysis of a loop", func(ctx context.Context) {
			if _, err := AnalyzeSnapshotContext(ctx, loopSnap, loop, "a", 1.0, lib); err == nil {
				t.Fatal("a combinational loop was analysed")
			}
		}) {
			t.Error("a failed analysis was kept")
		}
	}

	const broken = "module a (input x, output z) assign z = ; endmodule"
	if _, err := AnalyzeContext(context.Background(), broken, "a", 1.0, lib); err == nil {
		t.Fatal("broken source analysed")
	}
	if _, err := AnalyzeContext(&expiringCtx{Context: context.Background(), ok: 1}, twoTops, "a", 1.0, lib); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation between phases: %v", err)
	}

	snap := snapshotOf(t, store, twoTops, "a", lib)
	c := scoped(func(ctx context.Context) { mustAnalyze(t, ctx, snap, twoTops, "a", 1.0, lib) })
	if c.Get(work.MentorMisses) != 1 || c.Get(work.SnapshotReads) != 1 {
		t.Error("the first analysis on a fresh snapshot was not a miss that read it")
	}
	if n := c.Get(work.FullAnalyses); n != 1 {
		t.Errorf("the first analysis ran %d full timing analyses, want 1", n)
	}
	if !kept(t, "second analysis", func(ctx context.Context) { mustAnalyze(t, ctx, snap, twoTops, "a", 1.0, lib) }) {
		t.Error("a successful analysis was not kept")
	}
}

func TestMemoReturnsCopies(t *testing.T) {
	lib := liberty.Nangate45()
	snap := snapshotOf(t, synth.NewCheckpointStore(1), twoTops, "a", lib)
	want := mustAnalyze(t, context.Background(), synth.Snapshot{}, twoTops, "a", 1.0, lib).Traits[0]
	for i := 0; i < 3; i++ { // the computing caller, then two served from the snapshot
		a := mustAnalyze(t, context.Background(), snap, twoTops, "a", 1.0, lib)
		if a.Traits[0] != want || len(a.Traits) != 1 {
			t.Fatalf("call %d sees an earlier caller's edit: %q", i, a.Traits)
		}
		a.Traits[0] = "corrupted"
		a.Traits = append(a.Traits, "extra")
		a.Cells = -1
	}
}

// TestMemoConcurrentCallers: sixteen goroutines race on two fresh snapshots,
// on their misses and then their hits, and each sees the analysis a lone
// caller computes.
func TestMemoConcurrentCallers(t *testing.T) {
	lib := liberty.Nangate45()
	tops := []string{"a", "b"}
	want := make([]*Analysis, len(tops))
	snaps := make([]synth.Snapshot, len(tops))
	store := synth.NewCheckpointStore(len(tops))
	for i, top := range tops {
		want[i] = mustAnalyze(t, context.Background(), synth.Snapshot{}, twoTops, top, 1.0, lib)
		snaps[i] = snapshotOf(t, store, twoTops, top, lib)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(tops)
				a, err := AnalyzeSnapshotContext(context.Background(), snaps[k], twoTops, tops[k], 1.0, lib)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(a, want[k]) {
					t.Errorf("top %s: %+v, want %+v", tops[k], a, want[k])
				}
				a.Traits[0] = "mine"
			}
		}(g)
	}
	wg.Wait()
}

// TestMemoIsBounded: the analysis lives exactly as long as the store holds
// its snapshot — once evicted, the handle finds nothing, and every call
// computes the same analysis again and keeps nothing.
func TestMemoIsBounded(t *testing.T) {
	lib := liberty.Nangate45()
	store := synth.NewCheckpointStore(1)
	snap := snapshotOf(t, store, twoTops, "a", lib)
	want := mustAnalyze(t, context.Background(), snap, twoTops, "a", 1.0, lib)
	if !kept(t, "repeat on the held snapshot", func(ctx context.Context) { mustAnalyze(t, ctx, snap, twoTops, "a", 1.0, lib) }) {
		t.Error("the analysis was not kept on the held snapshot")
	}
	snapshotOf(t, store, twoTops, "b", lib) // the one-entry store evicts a's snapshot
	for i := 0; i < 2; i++ {
		var got *Analysis
		if kept(t, "after eviction", func(ctx context.Context) { got = mustAnalyze(t, ctx, snap, twoTops, "a", 1.0, lib) }) {
			t.Error("an evicted snapshot served its analysis")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("analysis after eviction = %+v, want %+v", got, want)
		}
	}
}
