package sta_test

import (
	"math/rand"
	"reflect"
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

// requireWorstPathsSelect checks tm.WorstPaths(n) against the paths of the
// first n endpoints of a full sort, taken from ref — a second analysis of the
// same netlist, so that the check sorts nothing of tm — for n around the
// violator count, and then that TNS, CPS and the violator count read as
// after a full sort. With all set it goes on to the n that take the full
// sort; without, tm is left as the selection leaves it for the next update.
func requireWorstPathsSelect(t *testing.T, name string, tm, ref *sta.Timing, all bool) {
	t.Helper()
	ends := ref.Endpoints()
	nViol := len(ref.Violators())
	ns := []int{0, 1, 3, nViol, nViol + 1, nViol + 3}
	if all {
		ns = append(ns, len(ends), len(ends)+2)
	}
	for i, n := range ns {
		want := make([]sta.Path, 0, n)
		for _, e := range ends[:min(n, len(ends))] {
			want = append(want, ref.TracePath(e))
		}
		if got := tm.WorstPaths(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: WorstPaths(%d) of %d endpoints (%d violators) is not the first %d of a full sort", name, n, len(ends), nViol, n)
		}
		if i == 5 && (tm.TNS() != ref.TNS() || tm.CPS() != ref.CPS() || len(tm.Violators()) != nViol) {
			t.Fatalf("%s: after WorstPaths: TNS %v CPS %v violators %d, after a full sort %v %v %d",
				name, tm.TNS(), tm.CPS(), len(tm.Violators()), ref.TNS(), ref.CPS(), nViol)
		}
	}
}

// TestWorstPathsIsPrefixOfEndpoints: on all seven designs, at the design's own
// period and at one tight enough that every design violates, after the full
// analysis and after each of a series of incremental updates — every other
// one from a slice the selection left unsorted behind the violators.
func TestWorstPathsIsPrefixOfEndpoints(t *testing.T) {
	selected := 0
	for _, d := range designs.Benchmarks() {
		for _, scale := range []float64{1, 0.4} {
			nl := elaborate(t, d)
			wl, cons := eqLib.WireLoad(""), sta.Constraints{Period: d.Period * scale}
			tm, err := sta.Analyze(nl, wl, cons)
			if err != nil {
				t.Fatalf("%s: analyze: %v", d.Name, err)
			}
			ref := func() *sta.Timing {
				r, err := sta.Analyze(nl, wl, cons)
				if err != nil {
					t.Fatalf("%s: analyze: %v", d.Name, err)
				}
				return r
			}
			r := ref()
			requireWorstPathsSelect(t, d.Name+" full", tm, r, true)
			if len(r.Endpoints()) > len(r.Violators()) {
				selected++
			}
			cells, refs := resizable(nl)
			rng := rand.New(rand.NewSource(int64(len(d.Name)) * 37))
			for round := 0; round < 4; round++ {
				changed, _ := swapBatch(nl, cells, refs, rng.Perm(len(cells))[:len(cells)/(2+round)])
				if err := tm.Update(changed); err != nil {
					t.Fatalf("%s: update: %v", d.Name, err)
				}
				requireWorstPathsSelect(t, d.Name+" incremental", tm, ref(), round%2 == 1)
				cells, refs = resizable(nl)
			}
		}
	}
	if selected == 0 {
		t.Fatal("no analysis had an endpoint behind its violators; the selection was never tried")
	}
}
