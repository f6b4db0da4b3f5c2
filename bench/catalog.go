package main

import "sort"

// The catalogue is the single list of what the benchmark emits.
// BENCHMARK.json at the repository root must declare exactly these
// names (TestCatalogMatchesBenchmarkJSON checks both directions).

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const runSeconds = 26

var workloadDefs = []workloadDef{
	{"repro_direct", "the paper reproduction (dpsreport) in direct mode: worldsim, measure and store.Writer do most of the work, core a few percent, dns*/transport/api/follow/coord none"},
	{"repro_wire", "the same pipeline with every record resolved over dnswire, dnsserver, dnsclient and the in-memory transport, so a resolver or codec change shows here and not on repro_direct"},
	{"dataset_scan", "a saved .dpsa read out of core (more partitions than the Reader cache holds), detected, indexed and analysed, then loaded and re-saved: store codec, core and api index, no measure or worldsim"},
	{"serve_live", "dpsapi's server: cold start, read-only queries, then the same reader beside a coordinator feed that a follower applies day by day: api, follow and coord, reads beside writes"},
}

// End-to-end metrics. Every workload reports every one of them; README.md
// says what read_s and write_s cover on each workload.
//
// Timings are stated at nominal machine speed (yardstick.go). The timing
// bounds are the widest the contract allows: one bound covers all four
// workloads, and repro_wire spread 15 % in one of the two sets noise.json
// records (2-5 % elsewhere; README.md, "Noise floor"). alloc_mb and
// bytes_per_row repeat to within 1.5 % and 0.2 %.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"write_s", "s", "lower", 0.25},
	{"read_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"bytes_per_row", "B", "lower", 0.02},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// Per-layer metrics, "layer.metric" with layer = package name. A layer a
// workload bypasses reports 0.
var perLayerDefs = []metricDef{
	lower("worldsim.new_s", "s"),
	lower("worldsim.statefor_us_per_domain", "us"),
	lower("worldsim.rib_snapshot_ms_per_day", "ms"),
	lower("worldsim.buildwire_ms_per_day", "ms"),
	lower("worldsim.self_s", "s"),
	lower("pfx2as.parse_build_ms_per_day", "ms"),
	lower("pfx2as.lookup_ns", "ns"),
	lower("pfx2as.self_s", "s"),
	lower("dnsclient.query_p50_us", "us"),
	lower("dnsclient.query_p99_us", "us"),
	lower("dnsclient.queries_per_resolution", "ratio"),
	lower("dnsclient.gaveup_frac", "ratio"),
	lower("dnswire.pack_ns", "ns"),
	lower("dnswire.unpack_ns", "ns"),
	lower("dnsserver.queries", "count"),
	lower("transport.packets", "count"),
	lower("transport.bytes", "B"),
	lower("measure.runday_s", "s"),
	higher("measure.domains_per_s", "1/s"),
	lower("measure.stage_zone_s", "s"),
	lower("measure.stage_resolution_s", "s"),
	lower("measure.stage_storage_s", "s"),
	lower("measure.self_cpu_s", "s"),
	lower("measure.self_s", "s"),
	higher("store.append_rows_per_s", "1/s"),
	lower("store.commit_ms_per_partition", "ms"),
	lower("store.resident_rows_max", "count"),
	lower("store.open_ms", "ms"),
	lower("store.acquire_ms_per_partition", "ms"),
	higher("store.decode_rows_per_s", "1/s"),
	lower("store.bytes_read_mb", "MB"),
	higher("store.cache_hit_frac", "ratio"),
	lower("store.crc_failures", "count"),
	lower("store.load_s", "s"),
	lower("store.save_s", "s"),
	higher("store.save_mb_per_s", "MB/s"),
	lower("store.self_s", "s"),
	higher("core.detect_rows_per_s", "1/s"),
	lower("core.scan_s", "s"),
	lower("core.merge_s", "s"),
	lower("core.barrier_s", "s"),
	lower("core.queue_wait_s", "s"),
	higher("core.utilization", "ratio"),
	lower("core.partitions_failed", "count"),
	lower("core.discover_s", "s"),
	lower("core.self_s", "s"),
	lower("analysis.add_detections_s", "s"),
	lower("analysis.series_ms", "ms"),
	lower("analysis.growth_ms", "ms"),
	lower("analysis.flux_ms", "ms"),
	lower("analysis.peaks_ms", "ms"),
	lower("analysis.classify_ms", "ms"),
	lower("analysis.attribute_s", "s"),
	lower("analysis.self_s", "s"),
	lower("experiment.run_s", "s"),
	lower("experiment.orchestration_self_s", "s"),
	lower("experiment.table2_s", "s"),
	lower("experiment.anomalies_s", "s"),
	lower("experiment.projected_550d_s", "s"),
	lower("experiment.unattributed_frac", "ratio"),
	lower("experiment.self_s", "s"),
	lower("report.text_ms", "ms"),
	lower("report.csv_ms", "ms"),
	lower("report.svg_ms", "ms"),
	lower("report.self_s", "s"),
	lower("api.index_build_s", "s"),
	higher("api.index_build_rows_per_s", "1/s"),
	lower("api.lookup_ns", "ns"),
	lower("api.handler_domain_us", "us"),
	lower("api.handler_series_us", "us"),
	lower("api.handler_day_us", "us"),
	lower("api.handler_stats_us", "us"),
	lower("api.loopback_query_us", "us"),
	higher("api.cache_hit_frac_ro", "ratio"),
	higher("api.cache_hit_frac_rw", "ratio"),
	lower("api.cache_invalidated", "count"),
	lower("api.rejected", "count"),
	lower("api.apply_ms", "ms"),
	lower("api.publish_ms", "ms"),
	higher("api.ro_queries_per_s", "1/s"),
	higher("api.rw_queries_per_s", "1/s"),
	lower("api.rw_query_p50_us", "us"),
	lower("api.rw_query_p99_us", "us"),
	lower("api.self_s", "s"),
	lower("follow.poll_apply_ms", "ms"),
	lower("follow.poll_idle_us", "us"),
	lower("follow.lag_max_partitions", "count"),
	lower("follow.skipped", "count"),
	lower("follow.fresh_p50_ms", "ms"),
	lower("follow.fresh_high_ms", "ms"),
	lower("follow.self_s", "s"),
	lower("coord.commit_ms", "ms"),
	lower("coord.attempts_per_partition", "ratio"),
	lower("coord.self_s", "s"),
	lower("obs.handler_overhead_frac", "ratio"),
	lower("trace.overhead_frac", "ratio"),
	lower("bench.self_s", "s"),
	lower("proc.peak_rss_mb", "MB"),
	lower("proc.gc_cpu_frac", "ratio"),
	lower("proc.mallocs", "count"),
}

// benchmarkDoc is the shape of BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds: Bound is 0 and omitted
}

func catalogDoc() benchmarkDoc {
	return benchmarkDoc{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
}

func defByName(defs []metricDef) map[string]metricDef {
	out := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		out[d.Name] = d
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
