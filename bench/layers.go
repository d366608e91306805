package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/designs"
	"repro/internal/qorlog"
	"repro/internal/synthrag"
)

// Ranges the traced run must land in for its per-layer numbers to stand for
// the request the daemon serves.
const (
	layerSumLo, layerSumHi             = 0.9, 1.1  // decomposed stage spans / composite request span
	replayVsDaemonLo, replayVsDaemonHi = 0.8, 1.25 // replay request time / daemon service time, same requests sent serially
)

// warmRepeats is how many (daemon serial pass, in-process composite pass)
// pairs a closed-loop traced run times. Noise on a shared box comes in
// bursts of seconds, so the two sides of a comparison run back to back and
// the middle ratio of the pairs is kept.
const warmRepeats = 3

// sloP95MS is the latency limit of the open-loop rate ladder.
const sloP95MS = 150.0

var ladderRates = []float64{20, 40, 80}

// traced is what the traced run of one workload produced.
type traced struct {
	metrics map[string]float64
	spans   []span
	self    []requestSelf      // decomposed phase, per request
	share   map[string]float64 // layer -> share of decomposed request self time
}

// layerRun carries one traced run's state between its steps.
type layerRun struct {
	e       env
	w       workload
	window  time.Duration
	rec     *recorder
	m       map[string]float64
	designs []string
	reqs    []request // what the replay runs
	world   *world    // composite side (and decomposed side unless otherwise is set)
	other   *world    // decomposed side when it needs its own QoR store
	res     replayResult
	ratio   float64 // replay request time over daemon service time
	ladder  []ladderStep
}

func (r *layerRun) set(name string, v float64) { r.m[name] = v }

// layers runs the traced pass of a workload: the in-process replay with a
// span around every call into a layer, the standalone leaf timings, and a
// short daemon pass bracketed by /metrics scrapes for counts and ratios.
// seconds is the whole budget; each part takes a fixed share of it.
func layers(e env, w workload, seconds int) (*traced, *pass, error) {
	r := &layerRun{e: e, w: w, window: time.Duration(seconds) * time.Second, rec: newRecorder(), m: map[string]float64{}}
	for _, d := range designs.Benchmarks() {
		r.designs = append(r.designs, d.Name)
	}

	// The database, as chatlsd builds it, and the two ablated builds that
	// split its cost, in two rounds. The full build is needed twice anyway:
	// the oracle wants a database without caches or batching, the replay one
	// with both. The ablated builds are repeated because their metrics are
	// differences of whole-build times, and on a shared box a single build
	// can read a third slow; the shorter of two is the less disturbed.
	r.rec.scope(-1, "build")
	variants := []struct {
		name string
		cfg  synthrag.BuildConfig
	}{
		{"synthrag.build", synthrag.BuildConfig{TrainEpochs: daemonEpochs}},
		{"synthrag.build_untrained", synthrag.BuildConfig{TrainEpochs: 0}},
		{"synthrag.build_nosynth", synthrag.BuildConfig{TrainEpochs: daemonEpochs, SkipSynth: true}},
	}
	var fullDBs []*synthrag.Database
	shortest := make([]time.Duration, len(variants))
	for round := 0; round < 2; round++ {
		for i, v := range variants {
			v.cfg.Seed, v.cfg.Lib = daemonSeed, e.lib
			id := r.rec.begin(v.name)
			db, err := synthrag.Build(v.cfg)
			took := r.rec.end(id)
			if err != nil {
				return nil, nil, err
			}
			if i == 0 {
				fullDBs = append(fullDBs, db)
			}
			if round == 0 || took < shortest[i] {
				shortest[i] = took
			}
		}
	}
	oracleDB, replayDB := fullDBs[0], fullDBs[1]
	full, untrained, nosynth := shortest[0], shortest[1], shortest[2]
	r.set("synthrag.build_ms", ms(full))
	r.set("synthrag.build_train_ms", ms(full-untrained))
	r.set("synthrag.build_synth_ms", ms(full-nosynth))
	r.set("qorlog.recover_ms", 0)
	r.set("qorlog.warm_records", 0)
	r.world = newWorld(e.lib, replayDB, nil)
	r.other = r.world

	var (
		p   *pass
		err error
	)
	switch w.kind {
	case closedLoop:
		p, err = r.closed(oracleDB)
	case coldStart:
		p, err = r.cold(oracleDB)
	case openLoop:
		p, err = r.open(oracleDB)
	}
	if err != nil {
		return nil, nil, err
	}
	if !slices.Equal(p.designs, r.designs) {
		return nil, nil, fmt.Errorf("daemon serves designs %v, the replay has %v", p.designs, r.designs)
	}
	overhead, err := traceOverhead(r.rec, r.other, r.reqs)
	if err != nil {
		return nil, nil, err
	}
	r.set("trace.overhead_ratio", overhead)
	cells, err := timeLeaves(r.rec, e.lib, replayDB)
	if err != nil {
		return nil, nil, err
	}
	r.set("netlist.cells", float64(cells))
	r.spanMetrics()
	daemonMetrics(r.m, w, p, r.ladder)

	self := selfByRequest(r.rec.spans, "decomposed")
	return &traced{metrics: r.m, spans: r.rec.spans, self: self, share: selfShare(self)}, p, nil
}

// closed: warm the world with the replay's requests, run the daemon pass,
// and while the daemon is still up and warm, time serial daemon passes and
// composite replay passes in alternation. Then the traced replay.
func (r *layerRun) closed(oracleDB *synthrag.Database) (*pass, error) {
	r.reqs = r.w.replaySet(r.designs, r.e.seed, r.window)
	if _, err := timeComposite(r.world, r.reqs); err != nil { // warm-up, as the daemon's first cycle
		return nil, err
	}
	paired := func(d *daemon, _ []string) error {
		var ratios []float64
		for i := 0; i < warmRepeats; i++ {
			daemonMS, err := serialServiceMS(d, r.reqs)
			if err != nil {
				return err
			}
			replayMS, err := timeComposite(r.world, r.reqs)
			if err != nil {
				return err
			}
			ratios = append(ratios, ratio(replayMS, daemonMS))
		}
		r.ratio = median(ratios)
		return nil
	}
	p, err := measure(r.e, r.w, 1, r.window*3/10, oracleDB, hooks{warmDaemon: paired})
	if err != nil {
		return nil, err
	}
	return p, replay(r.rec, r.world, r.world, r.reqs, "", nil, &r.res)
}

// cold: the daemon pass is lifecycles, and after each of the first few the
// same lifecycle is replayed in-process: the world's caches are emptied
// before the composite pass over its requests and again before the
// decomposed pass. The replay's request time is set against the daemon's own
// service time for the lifecycle that has just ended, and the middle ratio
// of the pairs is kept.
func (r *layerRun) cold(oracleDB *synthrag.Database) (*pass, error) {
	var ratios []float64
	paired := func(j int, daemonMS float64) error {
		if j >= r.w.replayReqs {
			return nil
		}
		life := r.w.coldLifecycle(r.designs, r.e.seed, j)
		done := len(r.res.compositeMS)
		r.world.chill()
		if err := replay(r.rec, r.world, r.world, life, fmt.Sprintf("life%d/", j), r.world.chill, &r.res); err != nil {
			return err
		}
		r.reqs = append(r.reqs, life...)
		ratios = append(ratios, ratio(mean(r.res.compositeMS[done:]), daemonMS))
		return nil
	}
	p, err := measure(r.e, r.w, 1, r.window*3/10, oracleDB, hooks{lifecycle: paired})
	r.ratio = median(ratios)
	return p, err
}

// open: the replay gets two worlds whose QoR stores are recovered from one
// log warmed in-process, so that what the composite side appends and caches
// does not turn the decomposed side's misses into hits. After the daemon's open pass, one more
// daemon starts on the log as the warm-up left it, for the serial pass the
// replay is compared with (the replay runs right after it) and the ladder.
func (r *layerRun) open(oracleDB *synthrag.Database) (*pass, error) {
	r.reqs = r.w.replaySet(r.designs, r.e.seed, r.window)
	logA, logB := filepath.Join(r.e.tmp, "replay-a.log"), filepath.Join(r.e.tmp, "replay-b.log")
	store, err := qorlog.OpenStore(logA, 0, qorlog.Options{})
	if err != nil {
		return nil, err
	}
	r.world.store = store
	_, err = timeComposite(r.world, r.w.openWarmup(r.designs, r.e.seed))
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = copyFile(logB, logA)
	}
	if err != nil {
		return nil, err
	}
	r.rec.scope(-1, "leaf")
	id := r.rec.begin("qorlog.recover")
	storeA, err := qorlog.OpenStore(logA, 0, qorlog.Options{})
	r.set("qorlog.recover_ms", ms(r.rec.end(id)))
	if err != nil {
		return nil, err
	}
	defer storeA.Close()
	storeB, err := qorlog.OpenStore(logB, 0, qorlog.Options{})
	if err != nil {
		return nil, err
	}
	defer storeB.Close()
	r.set("qorlog.warm_records", float64(storeA.Stats().Warmed))
	// A restarted daemon has a warm log and nothing else: empty the caches
	// the warm-up filled, and give the decomposed side a database of its
	// own so the composite side's cache fills never serve it.
	r.world.chill()
	r.world.store = storeA
	otherDB, err := buildDB(r.e.lib)
	if err != nil {
		return nil, err
	}
	r.other = newWorld(r.e.lib, otherDB, storeB)

	p, err := measure(r.e, r.w, 1, r.window*3/10, oracleDB, hooks{})
	if err != nil {
		return nil, err
	}

	log := filepath.Join(r.e.tmp, "qor-extras.log")
	if err := copyFile(log, filepath.Join(r.e.tmp, "qor.log")); err != nil {
		return nil, err
	}
	d, err := startDaemon(r.e.ctx, r.e.chatlsd, r.e.tmp, "-qor-log", log)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	daemonMS, err := serialServiceMS(d, r.reqs)
	if err != nil {
		return nil, err
	}
	if err := replay(r.rec, r.world, r.other, r.reqs, "", nil, &r.res); err != nil {
		return nil, err
	}
	r.ratio = ratio(mean(r.res.compositeMS), daemonMS)
	for i, rate := range ladderRates {
		p95, ok := openStep(d, r.w, r.designs, r.e.seed+int64(i)+1, rate, r.window/8)
		r.ladder = append(r.ladder, ladderStep{rate, p95, ok})
	}
	return p, d.stop()
}

// spanMetrics derives the timing and count metrics from the trace.
func (r *layerRun) spanMetrics() {
	spans, res, set := r.rec.spans, r.res, r.set
	spanMS := func(name, kind string) float64 { return ms(meanDur(durations(spans, name, kind))) }
	spanUS := func(name, kind string) float64 { return us(meanDur(durations(spans, name, kind))) }
	per := func(n, d int) float64 { return ratio(float64(n), float64(d)) }
	const composite, decomposed = "composite", "decomposed"

	set("chatls.baseline_ms", spanMS("chatls.baseline", composite))
	set("chatls.customize_ms", spanMS("chatls.customize", composite))
	set("chatls.eval_ms", spanMS("chatls.eval", composite))
	// Composite and decomposed are separate executions of the same work, so
	// their difference is taken per sample (per request for the sum ratio)
	// and the median kept: one collector pause on either side would swamp a
	// mean.
	var glue, sums []float64
	stages := stageTimes(spans, decomposed, "chatls.customize")
	for i, whole := range durations(spans, "chatls.customize", composite) {
		glue = append(glue, ms(whole-stages[i]))
	}
	stages = stageTimes(spans, decomposed, "request")
	for i, whole := range durations(spans, "request", composite) {
		sums = append(sums, ratio(float64(stages[i]), float64(whole)))
	}
	set("chatls.glue_self_ms", median(glue))
	set("chatls.layer_sum_ratio", median(sums))
	set("chatls.replay_vs_daemon_ratio", r.ratio)
	set("chatls.samples_per_req", per(res.counts.samples, res.counts.requests))
	set("chatls.valid_per_sample", per(res.validTotal, res.counts.samples))

	set("circuitmentor.analyze_ms", spanMS("circuitmentor.analyze", decomposed))
	set("circuitmentor.graph_ms", spanMS("circuitmentor.graph", "leaf"))
	set("circuitmentor.calls_per_req", per(res.counts.analyzeCalls, res.counts.requests))

	set("synthrag.embed_cold_ms", spanMS("synthrag.embed_cold", decomposed))
	set("synthrag.embed_warm_us", spanUS("synthrag.embed_warm", decomposed))
	set("synthrag.retrieve_cold_us", spanUS("synthrag.retrieve_cold", decomposed))
	set("synthrag.retrieve_warm_us", spanUS("synthrag.retrieve_warm", decomposed))
	set("synthrag.manual_search_us", spanUS("synthrag.manual_search", "leaf"))
	set("synthrag.manual_searches_per_req", per(int(res.counts.manualSearches), res.counts.requests))

	set("gnn.embed_global_ms", spanMS("gnn.embed_global", "leaf"))
	set("gnn.embed_batch_ratio", ratio(spanMS("gnn.embed_pair_batched", "leaf"), spanMS("gnn.embed_pair_serial", "leaf")))
	set("textembed.embed_us", spanUS("textembed.embed", "leaf"))
	set("vecindex.hnsw_hops_per_req", per(int(res.program.hnswHops), res.counts.requests))
	set("graphdb.query_us", spanUS("graphdb.query", "leaf"))
	set("llm.generate_rag_us", spanUS("llm.generate_rag", decomposed))
	set("llm.generate_raw_us", spanUS("llm.generate_raw", decomposed))
	set("synthexpert.refine_us", spanUS("synthexpert.refine", decomposed))
	set("synthexpert.steps_per_sample", per(res.counts.steps, res.counts.samples))

	set("synth.run_ms", spanMS("synth.run", decomposed))
	set("synth.run_fresh_ms", spanMS("synth.run_fresh", "leaf"))
	set("synth.restore_ms", spanMS("synth.restore", "leaf"))
	set("synth.link_ms", spanMS("synth.link", "leaf"))
	set("synth.invalid_run_ms", spanMS("synth.invalid_run", "leaf"))
	set("synth.runs_per_req", per(res.counts.synthRuns, res.counts.requests))
	set("verilog.parse_ms", spanMS("verilog.parse", "leaf"))
	set("netlist.elaborate_ms", spanMS("netlist.elaborate", "leaf"))
	set("netlist.clone_ms", spanMS("netlist.clone", "leaf"))
	set("sta.full_ms", spanMS("sta.full", "leaf"))
	set("sta.incr_ms", spanMS("sta.incr", "leaf"))
	set("sta.full_per_req", per(int(res.program.staFull), res.counts.requests))
	set("sta.incr_per_req", per(int(res.program.staIncr), res.counts.requests))
	set("sta.dirty_nodes_mean", per(int(res.program.dirtySum), int(res.program.dirtyN)))
	set("liberty.build_ms", spanMS("liberty.build", "leaf"))
	set("qorlog.get_us", spanUS("qorlog.get", decomposed))
	set("qorlog.put_us", spanUS("qorlog.put", decomposed))
}

// serialServiceMS sends reqs one at a time and returns the daemon's own mean
// service time for them (chatlsd_customize_seconds over the pass).
func serialServiceMS(d *daemon, reqs []request) (float64, error) {
	before, err := d.scrape()
	if err != nil {
		return 0, err
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	if t := tallyOf(runSerial(client, customizeURL(d), reqs, newChecker())); t.ok != t.sent {
		return 0, fmt.Errorf("serial pass: %d of %d requests failed", t.sent-t.ok, t.sent)
	}
	after, err := d.scrape()
	if err != nil {
		return 0, err
	}
	dd := delta(before, after)
	return 1000 * ratio(dd["chatlsd_customize_seconds_sum"], dd["chatlsd_customize_seconds_count"]), nil
}

type ladderStep struct {
	rate      float64
	p95       float64
	sustained bool
}

// daemonMetrics fills in the counts and ratios read off the daemon pass.
func daemonMetrics(m map[string]float64, w workload, p *pass, ladder []ladderStep) {
	set := func(name string, v float64) { m[name] = v }
	for k, v := range loadgenMetrics(w, p) {
		m[k] = v
	}
	d := delta(p.before, p.after)
	t := tallyOf(p.samples)
	served := d["chatlsd_customize_seconds_count"]
	reqs := float64(t.sent)
	service := 1000 * ratio(d["chatlsd_customize_seconds_sum"], served)
	set("server.service_ms_mean", service)
	set("server.overhead_ms_mean", mean(t.latMS)-service)
	set("server.task_cache_hit_ratio", ratio(d["chatlsd_task_cache_hits_total"], d["chatlsd_task_cache_hits_total"]+d["chatlsd_task_cache_misses_total"]))
	set("server.singleflight_shared_per_req", ratio(d["chatlsd_singleflight_shared_total"], reqs))
	set("server.shed_per_req", ratio(d["overload_shed_total"], reqs))
	set("server.timeout_per_req", ratio(d["chatlsd_timeouts_total"], reqs))
	set("server.brownout_entries", d["overload_brownout_entries_total"])
	set("server.limit_end", p.after["overload_limit"])
	set("server.backlog_end", p.after["chatlsd_queue_depth"]+p.after["overload_inflight"])
	set("server.response_bytes_mean", ratio(float64(t.bytes), float64(t.ok)))
	set("server.drain_ms", mean(p.drainMS))
	if w.kind == coldStart {
		// Gauges of a stopped daemon: every lifecycle ends drained.
		set("server.limit_end", 0)
		set("server.backlog_end", 0)
	}
	slo := 0.0
	for _, name := range []string{"r20", "r40", "r80"} {
		set("server.open_lat_p95_ms_"+name, 0)
	}
	for _, s := range ladder {
		set(fmt.Sprintf("server.open_lat_p95_ms_r%.0f", s.rate), s.p95)
		if s.sustained && s.p95 <= sloP95MS && s.rate > slo {
			slo = s.rate
		}
	}
	set("server.slo_rate_rps", slo)

	set("synthrag.embed_cache_hit_ratio", ratio(d["chatlsd_embed_cache_hits_total"], d["chatlsd_embed_cache_hits_total"]+d["chatlsd_embed_cache_misses_total"]))
	set("synthrag.retrieve_cache_hit_ratio", ratio(d["chatlsd_retrieve_cache_hits_total"], d["chatlsd_retrieve_cache_hits_total"]+d["chatlsd_retrieve_cache_misses_total"]))
	set("batch.size_mean", ratio(d["chatlsd_batch_size_sum"], d["chatlsd_batch_size_count"]))
	set("batch.wait_ms_mean", ratio(d["chatlsd_batch_wait_ns_sum"], d["chatlsd_batch_wait_ns_count"])/1e6)
	set("batch.flushes_per_req", ratio(d["chatlsd_batch_size_count"], reqs))
	set("synth.ckpt_hit_ratio", ratio(d["synth_checkpoint_hits_total"], d["synth_checkpoint_hits_total"]+d["synth_checkpoint_misses_total"]))
	lookups := d["qorlog_hits_total"] + d["qorlog_misses_total"]
	set("qorlog.hit_ratio", ratio(d["qorlog_hits_total"], lookups))
	set("qorlog.appends_per_req", ratio(d["qorlog_appends_total"], reqs))
	set("qorlog.append_per_miss", ratio(d["qorlog_appends_total"], d["qorlog_misses_total"]))
}

// writeTrace writes the spans and the per-request self times of one
// workload's traced run.
func writeTrace(dir string, w workload, seed int64, t *traced) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload  string             `json:"workload"`
		Seed      int64              `json:"seed"`
		SelfShare map[string]float64 `json:"self_share_by_layer"`
		Requests  []requestSelf      `json:"requests"`
		Spans     []span             `json:"spans"`
	}{w.name, seed, t.share, t.self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+w.name+".json"), b, 0o644)
}
