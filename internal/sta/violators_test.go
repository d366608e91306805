package sta_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/sta"
)

// builtName is the endpoint's name as reports print it.
func builtName(tm *sta.Timing, e sta.Endpoint) string { return tm.TracePath(e).Endpoint }

// requireEndpointOrder checks the two views of the endpoint order against
// their definitions, Violators first — so Endpoints finishes a half-sorted
// list — or Endpoints alone:
//
//   - Endpoints is the endpoints sorted on (Slack, built name);
//   - Violators is its leading run of negative slacks, element for element;
//   - CPS and TNS read the same from either state.
func requireEndpointOrder(t *testing.T, name string, tm *sta.Timing, violatorsFirst bool) {
	t.Helper()
	var viol []sta.Endpoint
	var cps, tns float64
	if violatorsFirst {
		viol = slices.Clone(tm.Violators())
		cps, tns = tm.CPS(), tm.TNS()
	}
	ends := tm.Endpoints()
	want := slices.Clone(ends)
	slices.SortStableFunc(want, func(a, b sta.Endpoint) int {
		if a.Slack != b.Slack {
			if a.Slack < b.Slack {
				return -1
			}
			return 1
		}
		return strings.Compare(builtName(tm, a), builtName(tm, b))
	})
	if !slices.Equal(ends, want) {
		t.Fatalf("%s: Endpoints is not sorted on (slack, built name)", name)
	}
	neg := 0
	for neg < len(ends) && ends[neg].Slack < 0 {
		neg++
	}
	if !violatorsFirst {
		viol = tm.Violators()
		cps, tns = tm.CPS(), tm.TNS()
	}
	if !slices.Equal(viol, ends[:neg]) {
		t.Fatalf("%s: Violators (%d) is not the negative prefix of Endpoints (%d)", name, len(viol), neg)
	}
	if tm.CPS() != cps || tm.TNS() != tns {
		t.Fatalf("%s: CPS/TNS read (%v, %v) with the violators sorted and (%v, %v) with all sorted", name, cps, tns, tm.CPS(), tm.TNS())
	}
	if len(ends) > 0 && cps != ends[0].Slack {
		t.Fatalf("%s: CPS %v is not the first endpoint's slack %v", name, cps, ends[0].Slack)
	}
}

// TestViolatorsIsNegativePrefixOfEndpoints: on all seven designs, at the
// design's own period and at one tight enough that every design violates,
// after the full analysis and after each of a series of incremental updates
// (which move slacks under an already sorted list).
func TestViolatorsIsNegativePrefixOfEndpoints(t *testing.T) {
	violating := 0
	for _, d := range designs.Benchmarks() {
		for _, scale := range []float64{1, 0.4} {
			nl := elaborate(t, d)
			tm, err := sta.Analyze(nl, eqLib.WireLoad(""), sta.Constraints{Period: d.Period * scale})
			if err != nil {
				t.Fatalf("%s: analyze: %v", d.Name, err)
			}
			requireEndpointOrder(t, d.Name+" full", tm, scale == 1)
			violating += len(tm.Violators())
			cells, refs := resizable(nl)
			rng := rand.New(rand.NewSource(int64(len(d.Name)) * 31))
			for round := 0; round < 4; round++ {
				changed, _ := swapBatch(nl, cells, refs, rng.Perm(len(cells))[:len(cells)/(2+round)])
				if err := tm.Update(changed); err != nil {
					t.Fatalf("%s: update: %v", d.Name, err)
				}
				requireEndpointOrder(t, d.Name+" incremental", tm, round%2 == 0)
				// The batch moved its cells to another drive strength: list
				// each cell's neighbouring one again for the next draw.
				cells, refs = resizable(nl)
			}
		}
	}
	if violating == 0 {
		t.Fatal("no analysis had a violator; the test proves nothing")
	}
}
