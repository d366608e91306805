// Command harness is the repository's benchmark: what a POST /v1/customize
// costs end to end on four workloads, and which layer owns the time.
//
// It drives a real chatlsd over HTTP for the end-to-end numbers (tracing
// off) and replays the same request schedule in-process, with a span around
// every call into a layer, for the per-layer numbers. bench/run.sh builds
// both binaries and runs it; see bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/liberty"
)

// result is the line the benchmark driver reads: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadReport is one workload's entry of out/results.json.
type workloadReport struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	EndToEnd  *result            `json:"end_to_end,omitempty"`
	PerLayer  *result            `json:"per_layer,omitempty"`
	SelfShare map[string]float64 `json:"self_share_by_layer,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all four, untraced then traced")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same requests and arrival times")
		seconds = flag.Int("seconds", 22, "length of the measured window of each pass, in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics against the daemon, tracing off; 1: per-layer metrics from the traced run")
		chatlsd = flag.String("chatlsd", "", "path of the chatlsd binary to drive (run.sh builds it)")
		tmpRoot = flag.String("tmp", "", "directory for this run's temporary files (QoR logs, daemon logs)")
		outDir  = flag.String("out", "", "directory for results.json and trace_<workload>.json")
	)
	flag.Parse()
	if *chatlsd == "" || *tmpRoot == "" || *outDir == "" || flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bash bench/run.sh [-workload name] [-seed n] [-seconds n] [-trace 0|1]")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	tmp, err := os.MkdirTemp(*tmpRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	probe := startSpeedProbe()
	defer probe.close()
	e := env{ctx: ctx, chatlsd: *chatlsd, tmp: tmp, seed: *seed, lib: liberty.Nangate45(), probe: probe}

	var reports []workloadReport
	var last *result
	failed := false
	for _, w := range todo {
		rep := workloadReport{Workload: w.name, Why: w.why}
		if *name == "" || *trace == 0 {
			fmt.Printf("== %s: end to end (seed %d, %d s, tracing off)\n", w.name, *seed, *seconds)
			r, err := runEndToEnd(e, w, *seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				failed = true
				break
			}
			printMetrics(endToEndDefs, r.Metrics)
			rep.EndToEnd, last = r, r
		}
		if *name == "" || *trace == 1 {
			fmt.Printf("== %s: per layer (seed %d, %d s, traced)\n", w.name, *seed, *seconds)
			r, t, err := runPerLayer(e, w, *seconds, *name == "")
			if t != nil {
				if werr := writeTrace(*outDir, w, *seed, t); werr != nil && err == nil {
					err = werr
				}
				rep.SelfShare = t.share
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				failed = true
				break
			}
			printMetrics(perLayerDefs, r.Metrics)
			rep.PerLayer, last = r, r
		}
		reports = append(reports, rep)
	}
	if n := stopAll(); n > 0 {
		fmt.Fprintf(os.Stderr, "error: %d chatlsd process(es) were still running at the end and had to be stopped\n", n)
		failed = true
	}
	if failed {
		return 1
	}
	if err := writeResults(*outDir, *seed, *seconds, reports); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	fmt.Println(string(line))
	var all []*result
	for _, rep := range reports {
		all = append(all, rep.EndToEnd, rep.PerLayer)
	}
	return exitStatus(all)
}

// exitStatus is non-zero when any pass saw a wrong answer.
func exitStatus(results []*result) int {
	for _, r := range results {
		if r != nil && !r.Correct {
			fmt.Fprintln(os.Stderr, "error: the daemon gave a wrong answer (see the failed counts above)")
			return 1
		}
	}
	return 0
}

// setupStarts is how many daemon starts feed setup_s in one untraced run of
// a workload that otherwise needs only one; the median of three keeps one
// slow start from deciding the metric.
const setupStarts = 3

func runEndToEnd(e env, w workload, seconds int) (*result, error) {
	p, err := measure(e, w, setupStarts, time.Duration(seconds)*time.Second, nil, hooks{})
	if err != nil {
		return nil, err
	}
	return resultOf(endToEndDefs, endToEnd(w, p), w, p)
}

// runPerLayer runs the traced pass. strict turns the two validity ranges
// into errors (the full run); a single traced workload only reports them, so
// that one noisy ratio does not discard a run the driver is collecting.
func runPerLayer(e env, w workload, seconds int, strict bool) (*result, *traced, error) {
	t, p, err := layers(e, w, seconds)
	if err != nil {
		return nil, nil, err
	}
	r, err := resultOf(perLayerDefs, t.metrics, w, p)
	if err != nil {
		return nil, t, err
	}
	var bad []error
	if v := t.metrics["chatls.layer_sum_ratio"]; v < layerSumLo || v > layerSumHi {
		bad = append(bad, fmt.Errorf("chatls.layer_sum_ratio %.3f outside [%.2f, %.2f]: the decomposed stages do not add up to the request", v, layerSumLo, layerSumHi))
	}
	if v := t.metrics["chatls.replay_vs_daemon_ratio"]; v < replayVsDaemonLo || v > replayVsDaemonHi {
		bad = append(bad, fmt.Errorf("chatls.replay_vs_daemon_ratio %.3f outside [%.2f, %.2f]: the replay is not the request the daemon serves", v, replayVsDaemonLo, replayVsDaemonHi))
	}
	if err := errors.Join(bad...); err != nil {
		if strict {
			return r, t, err
		}
		fmt.Fprintln(os.Stderr, "warning:", err)
	}
	return r, t, nil
}

func resultOf(defs []metricDef, values map[string]float64, w workload, p *pass) (*result, error) {
	m, err := withUnits(defs, values)
	if err != nil {
		return nil, err
	}
	t := tallyOf(p.samples)
	fmt.Printf("  sent %d, succeeded %d, failed %d (%d wrong answers; %d distinct requests checked against the oracle)\n",
		t.sent, t.ok, t.sent-t.ok, t.wrong, p.checked)
	lg := loadgenMetrics(w, p)
	fmt.Printf("  harness: %d slices, slice spread %.3f, generator lateness p99 %.2f ms, blocked arrivals %.3f, degraded replies %.3f, machine slowdown %.3f, stolen %.3f\n",
		len(p.sliceRPS), lg["loadgen.slice_spread_ratio"], lg["loadgen.late_p99_ms"], lg["loadgen.blocked_ratio"], lg["degraded_ratio"], p.slow.cpu, p.slow.stolen)
	fmt.Printf("  tail latency (lat_tail_ms over this pass, p%.0f): %.4f ms\n", w.tailPct, lg["lat_tail_ms"])
	return &result{Correct: t.wrong == 0, Attempted: t.sent, Failed: t.sent - t.ok, Metrics: m}, nil
}

func writeResults(dir string, seed int64, seconds int, reports []workloadReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Seed      int64            `json:"seed"`
		Seconds   int              `json:"seconds"`
		Workloads []workloadReport `json:"workloads"`
	}{seed, seconds, reports}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "results.json"), append(b, '\n'), 0o644)
}
