// Command benchjson converts `go test -bench` output into a stable JSON
// summary for checked-in benchmark records and CI comparison:
//
//	go test -run='^$' -bench 'Table4' -benchmem -count=5 . | benchjson > BENCH.json
//
// Each benchmark name maps to the mean of its ns/op, B/op, and allocs/op
// across the -count repetitions, plus the repetition count. The GOMAXPROCS
// suffix go appends to parallel-capable benchmarks (Name-8) is stripped so
// records diff cleanly across machines with different core counts.
//
// With -baseline, benchjson additionally gates on allocation regressions:
// every benchmark present in both the baseline record and the new run is
// compared on allocs/op and — where the baseline allocates at least
// gateBytesFloor a run — on B/op, and any regression beyond -threshold
// percent fails the run (exit 1) with a per-benchmark report on stderr.
// Both are deterministic — unlike ns/op they do not wobble with machine
// load — so the gate is reliable at tight thresholds. Bytes are gated as
// well as counts because they move independently: a restore that copies a
// netlist and one that overwrites the last copy make the same number of
// allocations, two thirds of the bytes apart.
//
//	... | benchjson -baseline BENCH_6.json -threshold 20 > /dev/null
//
// With -drive, benchjson runs `go test -bench` itself instead of reading
// stdin, which is the hook for heap profiling a benchmark:
//
//	benchjson -drive 'CompileUltraSwerv$' -pkg . -memprofile mem.out > /dev/null
//	go tool pprof -alloc_objects mem.out
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated measurements. Custom holds the mean
// of every b.ReportMetric unit the benchmark emitted (speedup ratios,
// recall, hops/op, ...) keyed by unit name.
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Custom      map[string]float64 `json:"custom,omitempty"`
	Runs        int                `json:"runs"`
}

type accum struct {
	ns, b, allocs float64
	custom        map[string]float64
	hasMem        bool
	runs          int
}

// stripProcs removes the trailing -N GOMAXPROCS suffix from a benchmark name.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parse aggregates benchmark lines from r. Non-benchmark lines (the ok/PASS
// trailer, build output) are ignored.
func parse(r io.Reader) (map[string]*accum, error) {
	out := map[string]*accum{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcs(fields[0])
		a := out[name]
		if a == nil {
			a = &accum{}
			out[name] = a
		}
		a.runs++
		// fields[1] is the iteration count; the rest are "value unit" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				a.ns += v
			case "B/op":
				a.b += v
				a.hasMem = true
			case "allocs/op":
				a.allocs += v
				a.hasMem = true
			default:
				if a.custom == nil {
					a.custom = make(map[string]float64)
				}
				a.custom[fields[i+1]] += v
			}
		}
	}
	return out, sc.Err()
}

func summarize(accums map[string]*accum) map[string]Result {
	out := make(map[string]Result, len(accums))
	for name, a := range accums {
		n := float64(a.runs)
		res := Result{NsPerOp: a.ns / n, Runs: a.runs}
		if a.hasMem {
			res.BPerOp = a.b / n
			res.AllocsPerOp = a.allocs / n
		}
		if len(a.custom) > 0 {
			res.Custom = make(map[string]float64, len(a.custom))
			for unit, sum := range a.custom {
				res.Custom[unit] = sum / n
			}
		}
		out[name] = res
	}
	return out
}

// gateBytesFloor is the baseline B/op from which a benchmark's bytes are
// gated: below it a few incidental allocations (a map growing, a GC-timing
// dependent buffer) are a large share of the total.
const gateBytesFloor = 100_000

// gate compares allocs/op — and B/op, for baselines of at least
// gateBytesFloor — of every benchmark present in both records and returns
// the violations: current > baseline * (1 + threshold/100). A baseline of
// zero allocations is a limit of zero, so an allocation-free benchmark is
// gated on staying that way.
func gate(baseline, current map[string]Result, thresholdPct float64) []string {
	var bad []string
	names := make([]string, 0, len(current))
	for n := range current {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		base, ok := baseline[n]
		if !ok {
			continue
		}
		cur := current[n]
		limit := base.AllocsPerOp * (1 + thresholdPct/100)
		if cur.AllocsPerOp > limit {
			bad = append(bad, fmt.Sprintf(
				"%s: allocs/op %.1f exceeds baseline %.1f by more than %.0f%% (limit %.1f)",
				n, cur.AllocsPerOp, base.AllocsPerOp, thresholdPct, limit))
		}
		if base.BPerOp < gateBytesFloor {
			continue
		}
		if limit := base.BPerOp * (1 + thresholdPct/100); cur.BPerOp > limit {
			bad = append(bad, fmt.Sprintf(
				"%s: B/op %.0f exceeds baseline %.0f by more than %.0f%% (limit %.0f)",
				n, cur.BPerOp, base.BPerOp, thresholdPct, limit))
		}
	}
	return bad
}

// drive runs `go test -bench` for the given pattern and returns its combined
// output, forwarding a copy to stderr so failures stay visible.
func drive(pattern, pkg, memprofile string, count int) ([]byte, error) {
	args := []string{"test", "-run=^$", "-bench=" + pattern, "-benchmem",
		"-benchtime=1x", "-count=" + strconv.Itoa(count)}
	if memprofile != "" {
		args = append(args, "-memprofile="+memprofile)
	}
	args = append(args, pkg)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

func fail(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"benchjson:"}, args...)...)
	os.Exit(1)
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "baseline JSON record; fail if allocs/op or B/op regresses past -threshold")
		threshold    = flag.Float64("threshold", 20, "allowed allocs/op and B/op regression over baseline, percent")
		drivePattern = flag.String("drive", "", "run `go test -bench` with this pattern instead of reading stdin")
		pkg          = flag.String("pkg", ".", "package argument for -drive")
		memprofile   = flag.String("memprofile", "", "with -drive: write the benchmark heap profile here (inspect with go tool pprof)")
		count        = flag.Int("count", 1, "with -drive: -count repetitions")
	)
	flag.Parse()

	input := io.Reader(os.Stdin)
	if *drivePattern != "" {
		out, err := drive(*drivePattern, *pkg, *memprofile, *count)
		if err != nil {
			fail("drive:", err)
		}
		input = strings.NewReader(string(out))
	}

	accums, err := parse(input)
	if err != nil {
		fail(err)
	}
	if len(accums) == 0 {
		fail("no benchmark lines on input")
	}
	// Marshal through an ordered structure: encoding/json sorts map keys,
	// but be explicit so the record is stable for diffing.
	names := make([]string, 0, len(accums))
	for n := range accums {
		names = append(names, n)
	}
	sort.Strings(names)
	summary := summarize(accums)
	ordered := make(map[string]Result, len(names))
	for _, n := range names {
		ordered[n] = summary[n]
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ordered); err != nil {
		fail(err)
	}

	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			fail("baseline:", err)
		}
		var baseline map[string]Result
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fail("baseline:", err)
		}
		if bad := gate(baseline, summary, *threshold); len(bad) > 0 {
			for _, line := range bad {
				fmt.Fprintln(os.Stderr, "benchjson: ALLOC REGRESSION:", line)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: alloc gate passed (%d benchmarks vs %s, +%.0f%% allowed)\n",
			len(summary), *baselinePath, *threshold)
	}
}
