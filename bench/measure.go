package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/synthrag"
)

// oracleCap bounds how many distinct requests of one pass the oracle
// re-evaluates. The closed loops and cold_start stay under it, so every one
// of their requests is checked; the open loop's long Zipf tail is sampled
// (seeded), and the body-equality check still covers every reply.
const oracleCap = 120

// needsDB reports whether any request goes through the chatls pipeline, the
// only one that reads the SynthRAG database.
func needsDB(reqs []request) bool {
	for _, r := range reqs {
		if r.Pipeline == "chatls" {
			return true
		}
	}
	return false
}

// verify runs the oracle over the distinct requests the checker saw (at most
// oracleCap of them) and marks the samples whose request the daemon got
// wrong. db is the database without caches or batching; nil builds one if a
// request needs it.
func verify(e env, chk *checker, db *synthrag.Database, p *pass) error {
	reqs := chk.distinct()
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].key() < reqs[j].key() })
	if len(reqs) > oracleCap {
		rngFor(e.seed, "oracle", 0).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		reqs = reqs[:oracleCap]
	}
	if db == nil && needsDB(reqs) {
		var err error
		if db, err = buildDB(e.lib); err != nil {
			return err
		}
	}
	want, err := newOracle(e.lib, db).answers(e.ctx, reqs)
	if err != nil {
		return err
	}
	markWrong(p.samples, chk.verify(want))
	p.checked = len(reqs)
	return nil
}

// hooks let the traced run time its in-process replay next to the daemon
// passes it is compared with: noise on a shared box comes in bursts of
// seconds, so the two sides of a comparison must be adjacent in time. The
// untraced run sets neither.
type hooks struct {
	// warmDaemon runs against the still-warm daemon after a closed loop's window.
	warmDaemon func(d *daemon, designs []string) error
	// lifecycle runs after cold_start's lifecycle j has exited, with the
	// daemon's own mean service time over that lifecycle's requests.
	lifecycle func(j int, serviceMS float64) error
}

// measure runs the workload's daemon pass and checks its replies. starts is
// how many daemon starts feed setup_s.
func measure(e env, w workload, starts int, window time.Duration, db *synthrag.Database, h hooks) (*pass, error) {
	chk := newChecker()
	var p *pass
	var err error
	switch w.kind {
	case closedLoop:
		p, err = closedPass(e, w, starts, window, chk, h.warmDaemon)
	case coldStart:
		p, err = coldPass(e, w, window, chk, h.lifecycle)
	case openLoop:
		var warmed string
		var designs []string
		if warmed, designs, err = warmLog(e, w, chk); err == nil {
			p, err = openPass(e, w, warmed, designs, starts, window, chk)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return p, verify(e, chk, db, p)
}

// endToEnd derives the user-visible metrics of a pass.
func endToEnd(w workload, p *pass) map[string]float64 {
	t := tallyOf(p.samples)
	rps := median(p.sliceRPS)
	if w.kind == openLoop {
		// An open loop's rate is set by the schedule; slices only show noise.
		rps = ratio(float64(t.ok), p.wall.Seconds())
	}
	return map[string]float64{
		"setup_s":        median(p.setupS),
		"lat_p50_ms":     geomeanOfMedians(t.latByDesign) / p.slow.wall,
		"throughput_rps": rps,
		"cpu_ms_per_req": median(p.sliceCPUms),
		"peak_rss_mb":    p.rssMiB,
		"improved_ratio": ratio(float64(t.improved), float64(t.ok)),
	}
}

// loadgenMetrics are the three user-visible metrics that are reported with
// the per-layer set (see endToEndDefs) and the harness's own readings: none
// of the loadgen.* ones should move with the program, and a run where they do
// is suspect.
func loadgenMetrics(w workload, p *pass) map[string]float64 {
	t := tallyOf(p.samples)
	return map[string]float64{
		"fail_ratio":                 ratio(float64(t.sent-t.ok), float64(t.sent)),
		"degraded_ratio":             ratio(float64(t.degraded), float64(t.sent)),
		"lat_tail_ms":                percentile(t.latMS, w.tailPct) / p.slow.wall,
		"loadgen.sent":               float64(t.sent),
		"loadgen.ok":                 float64(t.ok),
		"loadgen.cycles":             float64(p.cycles),
		"loadgen.lat_p99_ms":         percentile(t.latMS, 99),
		"loadgen.lat_max_ms":         percentile(t.latMS, 100),
		"loadgen.late_p99_ms":        percentile(p.lateMS, 99),
		"loadgen.blocked_ratio":      ratio(float64(p.blocked), float64(p.arrivals)),
		"loadgen.slice_spread_ratio": spreadRatio(p.sliceRPS),
		"loadgen.machine_slowdown":   p.slow.cpu,
		"loadgen.machine_stolen":     p.slow.stolen,
	}
}
