package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; TestBenchmarkJSONMatchesDefs keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEndDefs are what a user of the daemon sees, measured against the real
// chatlsd with tracing off. Three more belong with them and are reported
// with the per-layer set instead. fail_ratio and degraded_ratio read 0 on
// every healthy run, and the benchmark contract wants end-to-end metrics that
// are never 0 (failures also reach the result line's failed count).
// lat_tail_ms cannot be held within a bound on the open loop: a few dozen
// first-time requests on the large designs decide its p95, and another seed's
// tickets or arrival order move it by a sixth (README.md, "Why lat_tail_ms
// is not bounded"); an end-to-end metric is bounded on every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"lat_p50_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"improved_ratio", "ratio", "higher"},
}

// perLayerDefs are the single-layer metrics of the traced run, grouped by
// the module they belong to.
var perLayerDefs = []metricDef{
	{"fail_ratio", "ratio", "lower"},
	{"degraded_ratio", "ratio", "lower"},
	{"lat_tail_ms", "ms", "lower"},

	{"loadgen.sent", "count", "higher"},
	{"loadgen.ok", "count", "higher"},
	{"loadgen.cycles", "count", "higher"},
	{"loadgen.lat_p99_ms", "ms", "lower"},
	{"loadgen.lat_max_ms", "ms", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.blocked_ratio", "ratio", "lower"},
	{"loadgen.slice_spread_ratio", "ratio", "lower"},
	{"loadgen.machine_slowdown", "ratio", "lower"},
	{"loadgen.machine_stolen", "ratio", "lower"},

	{"server.service_ms_mean", "ms", "lower"},
	{"server.overhead_ms_mean", "ms", "lower"},
	{"server.task_cache_hit_ratio", "ratio", "higher"},
	{"server.singleflight_shared_per_req", "count", "higher"},
	{"server.shed_per_req", "count", "lower"},
	{"server.timeout_per_req", "count", "lower"},
	{"server.brownout_entries", "count", "lower"},
	{"server.limit_end", "count", "higher"},
	{"server.backlog_end", "count", "lower"},
	{"server.open_lat_p95_ms_r20", "ms", "lower"},
	{"server.open_lat_p95_ms_r40", "ms", "lower"},
	{"server.open_lat_p95_ms_r80", "ms", "lower"},
	{"server.slo_rate_rps", "1/s", "higher"},
	{"server.drain_ms", "ms", "lower"},
	{"server.response_bytes_mean", "bytes", "lower"},

	{"chatls.baseline_ms", "ms", "lower"},
	{"chatls.customize_ms", "ms", "lower"},
	{"chatls.eval_ms", "ms", "lower"},
	{"chatls.glue_self_ms", "ms", "lower"},
	{"chatls.samples_per_req", "count", "lower"},
	{"chatls.valid_per_sample", "ratio", "higher"},
	{"chatls.layer_sum_ratio", "ratio", "higher"},
	{"chatls.replay_vs_daemon_ratio", "ratio", "higher"},

	{"circuitmentor.analyze_ms", "ms", "lower"},
	{"circuitmentor.graph_ms", "ms", "lower"},
	{"circuitmentor.calls_per_req", "count", "lower"},

	{"synthrag.build_ms", "ms", "lower"},
	{"synthrag.build_train_ms", "ms", "lower"},
	{"synthrag.build_synth_ms", "ms", "lower"},
	{"synthrag.embed_cold_ms", "ms", "lower"},
	{"synthrag.embed_warm_us", "us", "lower"},
	{"synthrag.embed_cache_hit_ratio", "ratio", "higher"},
	{"synthrag.retrieve_cold_us", "us", "lower"},
	{"synthrag.retrieve_warm_us", "us", "lower"},
	{"synthrag.retrieve_cache_hit_ratio", "ratio", "higher"},
	{"synthrag.manual_search_us", "us", "lower"},
	{"synthrag.manual_searches_per_req", "count", "lower"},

	{"batch.size_mean", "count", "higher"},
	{"batch.wait_ms_mean", "ms", "lower"},
	{"batch.flushes_per_req", "count", "lower"},

	{"gnn.embed_global_ms", "ms", "lower"},
	{"gnn.embed_batch_ratio", "ratio", "lower"},
	{"textembed.embed_us", "us", "lower"},
	{"vecindex.hnsw_hops_per_req", "count", "lower"},
	{"graphdb.query_us", "us", "lower"},
	{"llm.generate_rag_us", "us", "lower"},
	{"llm.generate_raw_us", "us", "lower"},
	{"synthexpert.refine_us", "us", "lower"},
	{"synthexpert.steps_per_sample", "count", "lower"},

	{"synth.run_ms", "ms", "lower"},
	{"synth.run_fresh_ms", "ms", "lower"},
	{"synth.restore_ms", "ms", "lower"},
	{"synth.link_ms", "ms", "lower"},
	{"synth.invalid_run_ms", "ms", "lower"},
	{"synth.ckpt_hit_ratio", "ratio", "higher"},
	{"synth.runs_per_req", "count", "lower"},
	{"verilog.parse_ms", "ms", "lower"},
	{"netlist.elaborate_ms", "ms", "lower"},
	{"netlist.clone_ms", "ms", "lower"},
	{"netlist.cells", "count", "lower"},
	{"sta.full_ms", "ms", "lower"},
	{"sta.incr_ms", "ms", "lower"},
	{"sta.full_per_req", "count", "lower"},
	{"sta.incr_per_req", "count", "lower"},
	{"sta.dirty_nodes_mean", "count", "lower"},
	{"liberty.build_ms", "ms", "lower"},

	{"qorlog.hit_ratio", "ratio", "higher"},
	{"qorlog.appends_per_req", "count", "lower"},
	{"qorlog.append_per_miss", "ratio", "higher"},
	{"qorlog.get_us", "us", "lower"},
	{"qorlog.put_us", "us", "lower"},
	{"qorlog.recover_ms", "ms", "lower"},
	{"qorlog.warm_records", "count", "higher"},

	{"trace.overhead_ratio", "ratio", "lower"},
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches units to measured values and insists the set is exactly
// the one defs declare: a metric computed but not declared, or declared but
// not computed, is a bug in the harness, not a result.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return out, nil
}

// printMetrics lists metrics in declaration order with unit and direction.
func printMetrics(defs []metricDef, values map[string]metric) {
	for _, d := range defs {
		fmt.Printf("  %-36s %14.4f %-6s (%s is better)\n", d.name, values[d.name].Value, d.unit, d.better)
	}
}
