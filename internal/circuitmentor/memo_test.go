package circuitmentor

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/lru"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/verilog"
)

// resetMemo gives the test an empty memo with zeroed counters; the memo is
// process-wide, so tests that count lookups must not see each other's.
func resetMemo(t *testing.T) {
	t.Helper()
	memo = lru.New[memoKey, Analysis](memoCap)
}

// twoTops has two modules either of which can be the top, for keys that
// differ in top alone.
const twoTops = `
module a (input x, input y, output z); assign z = x & y; endmodule
module b (input x, input y, output z); assign z = x ^ y; endmodule
`

func mustAnalyze(t *testing.T, src, top string, period float64, lib *liberty.Library) *Analysis {
	t.Helper()
	a, err := AnalyzeContext(context.Background(), src, top, period, lib)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMemoizedAnalysisEqualsDirect(t *testing.T) {
	resetMemo(t)
	lib := liberty.Nangate45()
	for _, d := range designs.Benchmarks() {
		t.Run(d.Name, func(t *testing.T) {
			file, err := verilog.Parse(d.Source)
			if err != nil {
				t.Fatal(err)
			}
			nl, err := netlist.Elaborate(file, d.Top, nil, lib)
			if err != nil {
				t.Fatal(err)
			}
			want, err := AnalyzeNetlist(nl, d.Period)
			if err != nil {
				t.Fatal(err)
			}

			cold := mustAnalyze(t, d.Source, d.Top, d.Period, lib)
			before, stats := sta.FullAnalyses(), Stats()
			hot := mustAnalyze(t, d.Source, d.Top, d.Period, lib)
			if n := sta.FullAnalyses() - before; n != 0 {
				t.Errorf("second call ran %d full timing analyses, want 0", n)
			}
			if s := Stats(); s.Hits != stats.Hits+1 || s.Misses != stats.Misses {
				t.Errorf("second call moved the counters %+v -> %+v, want one hit", stats, s)
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

func TestMemoKeyIsTheFullArguments(t *testing.T) {
	resetMemo(t)
	slower := liberty.Nangate45()
	slower.Cell("AND2_X1").Intrinsic += 0.001 // same Name, one delay parameter off

	calls := []struct {
		what   string
		src    string
		top    string
		period float64
		lib    *liberty.Library
		hit    bool
	}{
		{"first call", twoTops, "a", 1.0, liberty.Nangate45(), false},
		{"equal arguments, another Nangate45 instance", twoTops, "a", 1.0, liberty.Nangate45(), true},
		{"different period", twoTops, "a", 1.5, liberty.Nangate45(), false},
		{"different top", twoTops, "b", 1.0, liberty.Nangate45(), false},
		{"one more source byte", twoTops + "\n", "a", 1.0, liberty.Nangate45(), false},
		{"library differing in one delay parameter", twoTops, "a", 1.0, slower, false},
		{"the first arguments again", twoTops, "a", 1.0, liberty.Nangate45(), true},
	}
	for _, c := range calls {
		before := Stats()
		mustAnalyze(t, c.src, c.top, c.period, c.lib)
		after := Stats()
		hit := after.Hits == before.Hits+1 && after.Misses == before.Misses
		miss := after.Hits == before.Hits && after.Misses == before.Misses+1
		if c.hit && !hit || !c.hit && !miss {
			t.Errorf("%s: counters %+v -> %+v, want hit=%v", c.what, before, after, c.hit)
		}
	}
}

func TestMemoHonoursCancelledContextWhenHot(t *testing.T) {
	resetMemo(t)
	lib := liberty.Nangate45()
	mustAnalyze(t, twoTops, "a", 1.0, lib)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if a, err := AnalyzeContext(ctx, twoTops, "a", 1.0, lib); !errors.Is(err, context.Canceled) || a != nil {
		t.Errorf("cancelled context on a hot entry: (%v, %v), want context.Canceled", a, err)
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

func TestMemoStoresSuccessesOnly(t *testing.T) {
	resetMemo(t)
	lib := liberty.Nangate45()

	const broken = "module a (input x, output z) assign z = ; endmodule"
	for i := 0; i < 2; i++ {
		if _, err := AnalyzeContext(context.Background(), broken, "a", 1.0, lib); err == nil {
			t.Fatal("broken source analysed")
		}
	}
	if s := Stats(); s.Hits != 0 || s.Misses != 2 || memo.Len() != 0 {
		t.Errorf("parse error was stored: %+v, %d entries", s, memo.Len())
	}

	// Cancelled after the parse: nothing stored, and the next good call
	// computes the analysis.
	if _, err := AnalyzeContext(&expiringCtx{Context: context.Background(), ok: 1}, twoTops, "a", 1.0, lib); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation between phases: %v", err)
	}
	if memo.Len() != 0 {
		t.Errorf("context error was stored: %d entries", memo.Len())
	}
	before := sta.FullAnalyses()
	mustAnalyze(t, twoTops, "a", 1.0, lib)
	if n := sta.FullAnalyses() - before; n != 1 {
		t.Errorf("call after the failures ran %d full timing analyses, want 1", n)
	}
	if memo.Len() != 1 {
		t.Errorf("success not stored: %d entries", memo.Len())
	}
}

func TestMemoReturnsCopies(t *testing.T) {
	resetMemo(t)
	lib := liberty.Nangate45()
	want := mustAnalyze(t, twoTops, "a", 1.0, lib).Traits[0]
	for i := 0; i < 3; i++ { // the computing caller, then two served from the memo
		a := mustAnalyze(t, twoTops, "a", 1.0, lib)
		if a.Traits[0] != want || len(a.Traits) != 1 {
			t.Fatalf("call %d sees an earlier caller's edit: %q", i, a.Traits)
		}
		a.Traits[0] = "corrupted"
		a.Traits = append(a.Traits, "extra")
		a.Cells = -1
	}
}

func TestMemoConcurrentCallers(t *testing.T) {
	resetMemo(t)
	lib := liberty.Nangate45()
	tops := []string{"a", "b"}
	want := make([]*Analysis, len(tops))
	for i, top := range tops {
		want[i] = mustAnalyze(t, twoTops, top, 1.0, lib)
	}
	resetMemo(t) // callers race on the misses too
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(tops)
				a, err := AnalyzeContext(context.Background(), twoTops, tops[k], 1.0, liberty.Nangate45())
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

func TestMemoIsBounded(t *testing.T) {
	resetMemo(t)
	lib := liberty.Nangate45()
	src := func(i int) string { return fmt.Sprintf("%s// %d\n", twoTops, i) }
	for i := 0; i <= memoCap; i++ {
		mustAnalyze(t, src(i), "a", 1.0, lib)
	}
	if memo.Len() != memoCap {
		t.Errorf("%d entries after %d distinct sources, cap %d", memo.Len(), memoCap+1, memoCap)
	}
	before := Stats()
	mustAnalyze(t, src(memoCap), "a", 1.0, lib) // newest: still held
	mustAnalyze(t, src(0), "a", 1.0, lib)       // oldest: evicted
	if s := Stats(); s.Hits != before.Hits+1 || s.Misses != before.Misses+1 {
		t.Errorf("counters %+v -> %+v, want the newest to hit and the oldest to miss", before, s)
	}
}
