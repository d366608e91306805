package main

import (
	"strings"
	"testing"
)

func TestParseAveragesAndStripsProcs(t *testing.T) {
	in := `goos: linux
BenchmarkTable4Baseline-8   	       1	100000000 ns/op	50000000 B/op	  500000 allocs/op
BenchmarkTable4Baseline-8   	       1	300000000 ns/op	70000000 B/op	  700000 allocs/op
BenchmarkMatMul/64x64-8     	    1000	     12345 ns/op
PASS
ok  	repro	1.234s
`
	accums, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	sum := summarize(accums)
	r, ok := sum["BenchmarkTable4Baseline"]
	if !ok {
		t.Fatalf("missing BenchmarkTable4Baseline; got %v", sum)
	}
	if r.Runs != 2 || r.NsPerOp != 200000000 || r.BPerOp != 60000000 || r.AllocsPerOp != 600000 {
		t.Errorf("Table4Baseline = %+v", r)
	}
	m, ok := sum["BenchmarkMatMul/64x64"]
	if !ok {
		t.Fatalf("missing BenchmarkMatMul/64x64; got %v", sum)
	}
	if m.Runs != 1 || m.NsPerOp != 12345 || m.BPerOp != 0 {
		t.Errorf("MatMul = %+v", m)
	}
}

func TestParseCapturesCustomUnits(t *testing.T) {
	in := `BenchmarkHNSWSearch10k-8	5000	  210000 ns/op	      0.980 recall	   340 hops/op
BenchmarkHNSWSearch10k-8	5000	  190000 ns/op	      0.990 recall	   360 hops/op
BenchmarkEmbedBatched-8 	 100	 1000000 ns/op	       2.50 speedup
`
	accums, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	sum := summarize(accums)
	h := sum["BenchmarkHNSWSearch10k"]
	if h.Runs != 2 || h.NsPerOp != 200000 {
		t.Errorf("HNSWSearch10k = %+v", h)
	}
	if h.Custom["recall"] != 0.985 || h.Custom["hops/op"] != 350 {
		t.Errorf("custom units = %v, want recall 0.985 hops/op 350", h.Custom)
	}
	if s := sum["BenchmarkEmbedBatched"].Custom["speedup"]; s != 2.5 {
		t.Errorf("speedup = %v, want 2.5", s)
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":      "BenchmarkFoo",
		"BenchmarkFoo":        "BenchmarkFoo",
		"BenchmarkFoo/a-b-16": "BenchmarkFoo/a-b",
		"BenchmarkFoo/a-b":    "BenchmarkFoo/a-b", // non-numeric suffix stays
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGateZeroBaselineAdmitsNoAllocs(t *testing.T) {
	baseline := map[string]Result{
		"BenchmarkFree":  {NsPerOp: 10, Runs: 3},
		"BenchmarkHeavy": {NsPerOp: 10, AllocsPerOp: 100, Runs: 3},
	}
	ok := map[string]Result{
		"BenchmarkFree":  {NsPerOp: 12, Runs: 3},
		"BenchmarkHeavy": {NsPerOp: 12, AllocsPerOp: 120, Runs: 3},
		"BenchmarkNew":   {NsPerOp: 12, AllocsPerOp: 7, Runs: 3},
	}
	if bad := gate(baseline, ok, 20); len(bad) != 0 {
		t.Errorf("within-limit run flagged: %v", bad)
	}
	regressed := map[string]Result{
		"BenchmarkFree":  {NsPerOp: 12, AllocsPerOp: 1, Runs: 3},
		"BenchmarkHeavy": {NsPerOp: 12, AllocsPerOp: 121, Runs: 3},
	}
	if bad := gate(baseline, regressed, 20); len(bad) != 2 {
		t.Errorf("gate flagged %d of 2 regressions: %v", len(bad), bad)
	}
}

// TestGateBytesPerOp: bytes are gated independently of the count — the same
// number of allocations, each three times the size, is a regression — but
// only from a baseline large enough that incidental allocations are noise.
func TestGateBytesPerOp(t *testing.T) {
	baseline := map[string]Result{
		"BenchmarkRestore": {NsPerOp: 10, BPerOp: 800_000, AllocsPerOp: 3500, Runs: 3},
		"BenchmarkSmall":   {NsPerOp: 10, BPerOp: 4_000, AllocsPerOp: 10, Runs: 3},
	}
	ok := map[string]Result{
		"BenchmarkRestore": {NsPerOp: 10, BPerOp: 960_000, AllocsPerOp: 3500, Runs: 3},
		"BenchmarkSmall":   {NsPerOp: 10, BPerOp: 40_000, AllocsPerOp: 10, Runs: 3},
	}
	if bad := gate(baseline, ok, 20); len(bad) != 0 {
		t.Errorf("within-limit run flagged: %v", bad)
	}
	regressed := map[string]Result{
		"BenchmarkRestore": {NsPerOp: 10, BPerOp: 2_400_000, AllocsPerOp: 3500, Runs: 3},
	}
	bad := gate(baseline, regressed, 20)
	if len(bad) != 1 || !strings.Contains(bad[0], "B/op") {
		t.Errorf("a tripled B/op at an unchanged allocs/op must be the one violation, got %v", bad)
	}
}
