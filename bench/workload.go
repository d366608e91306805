package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"
)

// request is one POST /v1/customize body. Every field is always sent, so the
// daemon's defaults never decide what a workload measures.
type request struct {
	Design      string `json:"design"`
	Requirement string `json:"requirement"`
	Pipeline    string `json:"pipeline"`
	K           int    `json:"k"`
}

func (r request) body() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // strings and an int always marshal
	}
	return b
}

// key identifies requests the daemon must answer identically.
func (r request) key() string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%s", r.Design, r.Pipeline, r.K, r.Requirement)
}

type loopKind int

const (
	closedLoop loopKind = iota // N clients, each sends its next request when the previous one completes
	coldStart                  // repeated daemon lifecycles, requests sent sequentially
	openLoop                   // requests sent on a seeded arrival schedule whatever the daemon does
)

// workload is one traffic mix. The names are the contract later issues use.
type workload struct {
	name      string
	why       string
	kind      loopKind
	pipelines []string
	ks        []int
	tailPct   float64 // percentile reported as lat_tail_ms: the highest with >= 10 samples beyond it
	qorLog    bool    // daemon runs with -qor-log on a populated log
	// replayReqs is how many of the requirement strings per cell the traced
	// in-process replay covers (the daemon passes always run whole cycles).
	replayReqs int
}

const (
	closedClients = 2    // = nproc = chatlsd's default -workers
	openRate      = 20.0 // arrivals per second on the open loop
	openConns     = 2
	openDupShare  = 5 // every 5th arrival is sent as two identical simultaneous requests
	openZipfS     = 1.2
	openStrings   = 64
	closedStrings = 8
)

var workloads = []workload{
	{
		name: "warm_chatls_k1", kind: closedLoop, pipelines: []string{"chatls"}, ks: []int{1}, tailPct: 95, replayReqs: 4,
		why: "interactive headline: every layer of the paper's Fig. 2 is on the path with all caches hot; closed loop, 2 clients",
	},
	{
		name: "warm_raw_k5", kind: closedLoop, pipelines: []string{"gpt4o", "claude"}, ks: []int{5}, tailPct: 95, replayReqs: 2,
		why: "Pass@5 over raw prompting: synthesis and STA do nearly all the work, mentor/retrieval/CoT none, so it bypasses their optimisations",
	},
	{
		name: "cold_start", kind: coldStart, pipelines: []string{"chatls"}, ks: []int{1}, tailPct: 90, replayReqs: 3,
		why: "what every restart pays: database build, then one true cache miss per design in the task, embed, retrieve and checkpoint caches",
	},
	{
		name: "open_mixed_qorlog", kind: openLoop, pipelines: []string{"chatls", "gpt4o", "claude"}, ks: []int{1, 5}, tailPct: 95, qorLog: true, replayReqs: 60,
		why: "seeded-Poisson open loop at 20 rps over a warm QoR log: log reads beside writes, singleflight, batching and admission see concurrency only here",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// reqTemplates keep the keywords the simulated LLM's policy reads from the
// requirement (timing: "optimize timing", "close", "slack", "violation";
// area: "area", "smaller"), so every string asks for timing closure and some
// also ask for area, as real tickets would.
var reqTemplates = [closedStrings]string{
	"Customize the synthesis script to optimize timing: close all timing violations at the given clock period. Basic configurations (clock period, wireload model) must not change. Recover area where timing allows.",
	"Optimize timing for this block and close the remaining violations; keep the clock period and the wireload model as they are.",
	"We are failing timing signoff. Close every setup violation at the current clock period, then recover area where slack allows.",
	"Improve the worst negative slack on the critical paths without touching the basic constraints. A smaller area is welcome, timing comes first.",
	"Timing closure run: optimize timing until no violation remains at the given period. Do not change the clock or the wireload model.",
	"Close timing at the given clock period. If slack is positive everywhere, trade the margin for area.",
	"Tighten the script to fix the timing violations the baseline run reports; constraints stay as they are; recover area afterwards.",
	"Optimize timing and reduce total negative slack; keep the basic configuration untouched and report QoR at the end.",
}

// rngFor derives an independent deterministic stream from the run seed.
func rngFor(seed int64, stream string, n int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, stream, n)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// requirements returns the workload's requirement strings: the templates in
// rotation, each with a seed-derived ticket suffix. The suffix changes the
// prompt, and the simulated LLM seeds its sampling from the prompt, so
// another seed draws other scripts from the same policy.
func (w workload) requirements(seed int64) []string {
	n := closedStrings
	if w.kind == openLoop {
		n = openStrings
	}
	rng := rngFor(seed, w.name+"/tickets", 0)
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s [ticket %02d-%06d]", reqTemplates[i%len(reqTemplates)], i, rng.Intn(1000000))
	}
	return out
}

// cells lists every (design x pipeline x k) combination of the workload.
func (w workload) cells(designs []string) []request {
	var out []request
	for _, d := range designs {
		for _, p := range w.pipelines {
			for _, k := range w.ks {
				out = append(out, request{Design: d, Pipeline: p, K: k})
			}
		}
	}
	return out
}

// closedCycle returns the cycle a closed-loop workload repeats: every cell
// with every requirement string exactly once, in a seeded permutation. Every
// cycle is the same requests in the same order, so whole cycles are
// comparable with each other, across runs and across commits, and a request
// recurs a whole cycle after its last occurrence: two clients never hold the
// same request at once, which the daemon's singleflight would share.
func (w workload) closedCycle(designs []string, seed int64) []request {
	reqs := w.requirements(seed)
	var out []request
	for _, cell := range w.cells(designs) {
		for _, r := range reqs {
			cell.Requirement = r
			out = append(out, cell)
		}
	}
	rngFor(seed, w.name+"/cycle", 0).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// coldLifecycle returns the requests of daemon lifecycle j: one per cell, all
// with requirement string j mod 8, in a seeded order.
func (w workload) coldLifecycle(designs []string, seed int64, j int) []request {
	out := w.cells(designs)
	req := w.requirements(seed)[j%closedStrings]
	for i := range out {
		out[i].Requirement = req
	}
	rngFor(seed, w.name+"/lifecycle", j).Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// arrival is one scheduled send of the open loop.
type arrival struct {
	due time.Duration // offset from the start of the window
	req request
	dup bool // sent as two identical simultaneous requests
}

// zipfQuotas splits n draws over ranks 0..ranks-1 in the proportions of a
// Zipf(s) law, P(r) ~ (1+r)^-s, by largest remainder: the counts a sample of
// n would have on average, made exact.
func zipfQuotas(n, ranks int, s float64) []int {
	weights := make([]float64, ranks)
	var total float64
	for r := range weights {
		weights[r] = math.Pow(float64(1+r), -s)
		total += weights[r]
	}
	counts := make([]int, ranks)
	byRemainder := make([]int, ranks)
	remainders := make([]float64, ranks)
	given := 0
	for r, w := range weights {
		share := float64(n) * w / total
		counts[r] = int(share)
		remainders[r] = share - float64(counts[r])
		byRemainder[r] = r
		given += counts[r]
	}
	sort.SliceStable(byRemainder, func(i, j int) bool { return remainders[byRemainder[i]] > remainders[byRemainder[j]] })
	for _, r := range byRemainder[:n-given] {
		counts[r]++
	}
	return counts
}

// openArrivals builds the open-loop schedule for a window. The arrival count
// is fixed at rate*window rounded down to a whole number of cell sets, every
// cell arrives equally often, every requirement string is asked for exactly
// as often as a Zipf(1.2) popularity over the 64 strings says it should be,
// string ranks meet cells in rotation, and every fifth arrival of that
// rotation is the duplicated one. So every seed offers the same load and the
// same multiset of (cell, string rank, duplicated) arrivals — and with it the
// same number of first-time requests per design, the expensive ones — while
// the order, the instants (sorted uniform draws over the window: a Poisson
// process conditioned on its count) and the tickets in the strings vary with
// the seed. Were the pairs drawn, chance would decide how many first-time
// requests fall on the largest design and how many on the smallest.
func (w workload) openArrivals(designs []string, seed int64, rate float64, window time.Duration) []arrival {
	cells := w.cells(designs)
	sets := int(rate*window.Seconds()) / len(cells)
	if sets < 1 {
		sets = 1
	}
	n := sets * len(cells)
	reqs := w.requirements(seed)

	out := make([]arrival, 0, n)
	for rank, count := range zipfQuotas(n, len(reqs), openZipfS) {
		for ; count > 0; count-- {
			i := len(out)
			req := cells[i%len(cells)]
			req.Requirement = reqs[rank]
			out = append(out, arrival{req: req, dup: i%openDupShare == openDupShare-1})
		}
	}

	rng := rngFor(seed, w.name+"/arrivals", 0)
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	for i := range out {
		out[i].due = dues[i]
	}
	return out
}

// openWarmup is the cycle that populates the QoR log before the daemon is
// restarted: every cell with the two most popular requirement strings.
func (w workload) openWarmup(designs []string, seed int64) []request {
	reqs := w.requirements(seed)
	var out []request
	for _, cell := range w.cells(designs) {
		for _, r := range reqs[:2] {
			cell.Requirement = r
			out = append(out, cell)
		}
	}
	return out
}

// replaySet is the part of the schedule the traced in-process replay runs:
// for closed loops, the requests of the cycle that use the first replayReqs
// requirement strings; for the open loop, the first replayReqs arrivals.
// cold_start replays lifecycles instead (see replayCold).
func (w workload) replaySet(designs []string, seed int64, window time.Duration) []request {
	if w.kind == openLoop {
		arr := w.openArrivals(designs, seed, openRate, window)
		if len(arr) > w.replayReqs {
			arr = arr[:w.replayReqs]
		}
		out := make([]request, len(arr))
		for i, a := range arr {
			out[i] = a.req
		}
		return out
	}
	keep := map[string]bool{}
	for _, r := range w.requirements(seed)[:w.replayReqs] {
		keep[r] = true
	}
	var out []request
	for _, r := range w.closedCycle(designs, seed) {
		if keep[r.Requirement] {
			out = append(out, r)
		}
	}
	return out
}
