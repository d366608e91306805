package main

import (
	"encoding/json"
	"testing"
	"time"
)

var testDesigns = []string{"aes", "jpeg", "riscv32i"}

// render is the byte-level view of a schedule, gaps included.
func render(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

type renderedArrival struct {
	DueNS int64
	Req   request
	Dup   bool
}

func renderArrivals(t *testing.T, as []arrival) string {
	out := make([]renderedArrival, len(as))
	for i, a := range as {
		out[i] = renderedArrival{int64(a.due), a.req, a.dup}
	}
	return render(t, out)
}

func TestSchedulesAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		switch w.kind {
		case closedLoop:
			a := render(t, w.closedCycle(testDesigns, 7))
			if a != render(t, w.closedCycle(testDesigns, 7)) {
				t.Errorf("%s: same seed gave another request sequence", w.name)
			}
			if a == render(t, w.closedCycle(testDesigns, 8)) {
				t.Errorf("%s: another seed gave the same request sequence", w.name)
			}
		case coldStart:
			a := render(t, w.coldLifecycle(testDesigns, 7, 2))
			if a != render(t, w.coldLifecycle(testDesigns, 7, 2)) {
				t.Errorf("%s: same seed gave another lifecycle", w.name)
			}
			if a == render(t, w.coldLifecycle(testDesigns, 8, 2)) {
				t.Errorf("%s: another seed gave the same lifecycle", w.name)
			}
		case openLoop:
			a := renderArrivals(t, w.openArrivals(testDesigns, 7, openRate, 10*time.Second))
			if a != renderArrivals(t, w.openArrivals(testDesigns, 7, openRate, 10*time.Second)) {
				t.Errorf("%s: same seed gave other arrivals or gaps", w.name)
			}
			if a == renderArrivals(t, w.openArrivals(testDesigns, 8, openRate, 10*time.Second)) {
				t.Errorf("%s: another seed gave the same arrivals", w.name)
			}
		}
	}
}

func TestClosedCycleHoldsEveryCellOnce(t *testing.T) {
	w, _ := workloadByName("warm_raw_k5")
	cycle := w.closedCycle(testDesigns, 3)
	if want := len(testDesigns) * 2 * closedStrings; len(cycle) != want {
		t.Fatalf("cycle has %d requests, want %d", len(cycle), want)
	}
	seen := map[string]bool{}
	for _, r := range cycle {
		if seen[r.key()] {
			t.Fatalf("request repeated within a cycle: %+v", r)
		}
		seen[r.key()] = true
		if r.K != 5 || (r.Pipeline != "gpt4o" && r.Pipeline != "claude") {
			t.Fatalf("request outside the workload's cells: %+v", r)
		}
	}
}

func TestOpenArrivalsShape(t *testing.T) {
	w, _ := workloadByName("open_mixed_qorlog")
	window := 10 * time.Second
	arr := w.openArrivals(testDesigns, 11, openRate, window)
	cells := len(w.cells(testDesigns))
	if want := int(openRate*window.Seconds()) / cells * cells; len(arr) != want {
		t.Fatalf("%d arrivals, want %d (whole cell sets)", len(arr), want)
	}
	perCell, perString, dups := map[request]int{}, map[string]int{}, 0
	for i, a := range arr {
		if a.due < 0 || a.due >= window || (i > 0 && a.due < arr[i-1].due) {
			t.Fatalf("arrival %d due %v: outside the window or out of order", i, a.due)
		}
		cell := a.req
		cell.Requirement = ""
		perCell[cell]++
		perString[a.req.Requirement]++
		if a.dup {
			dups++
		}
	}
	for cell, n := range perCell {
		if n != len(arr)/cells {
			t.Errorf("cell %+v drawn %d times, want %d", cell, n, len(arr)/cells)
		}
	}
	if dups != len(arr)/openDupShare {
		t.Errorf("%d duplicated arrivals, want %d", dups, len(arr)/openDupShare)
	}
	// Popularity is a quota, not a draw: string r is asked for exactly as
	// often as Zipf(1.2) says, whatever the seed.
	quotas := zipfQuotas(len(arr), openStrings, openZipfS)
	for r, s := range w.requirements(11) {
		if perString[s] != quotas[r] {
			t.Errorf("string %d asked for %d times, want its quota %d", r, perString[s], quotas[r])
		}
	}
}

// Seeds reorder and retime the open loop; what arrives stays the same.
func TestOpenArrivalsSameMultisetForEverySeed(t *testing.T) {
	w, _ := workloadByName("open_mixed_qorlog")
	type kind struct {
		cell request
		rank int
		dup  bool
	}
	multiset := func(seed int64) map[kind]int {
		rankOf := map[string]int{}
		for r, s := range w.requirements(seed) {
			rankOf[s] = r
		}
		out := map[kind]int{}
		for _, a := range w.openArrivals(testDesigns, seed, openRate, 10*time.Second) {
			cell := a.req
			cell.Requirement = ""
			out[kind{cell, rankOf[a.req.Requirement], a.dup}]++
		}
		return out
	}
	a, b := multiset(7), multiset(8)
	if len(a) != len(b) {
		t.Fatalf("seed 7 has %d kinds of arrival, seed 8 has %d", len(a), len(b))
	}
	for k, n := range a {
		if b[k] != n {
			t.Errorf("%+v arrives %d times under seed 7 and %d times under seed 8", k, n, b[k])
		}
	}
}

func TestZipfQuotasSumAndShape(t *testing.T) {
	q := zipfQuotas(100, 8, 1.2)
	sum := 0
	for r, c := range q {
		sum += c
		if r > 0 && c > q[r-1] {
			t.Errorf("quota of rank %d (%d) exceeds that of rank %d (%d)", r, c, r-1, q[r-1])
		}
	}
	if sum != 100 {
		t.Errorf("quotas sum to %d, want 100", sum)
	}
	// Shares 42.86 and 18.66 of 100: both round up, by largest remainder.
	if q[0] != 43 || q[1] != 19 {
		t.Errorf("quotas %v: want rank 0 at 43 and rank 1 at 19", q)
	}
}
