package main

// metricDef names one metric the benchmark reports.
type metricDef struct {
	name, unit string
	// moves names the end-to-end metric a per-layer metric should move.
	moves string
}

// gated are the end-to-end metrics that every workload measures; they are
// the end_to_end list of BENCHMARK.json, printed with --trace 0.
var gated = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "run_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "probes_per_agent_s", unit: "1/s"},
	{name: "exchanges_per_s", unit: "1/s"},
}

// reportOnly are end-to-end metrics that apply to some workloads only.
// They are printed in the report lines and written to the result file; the
// run's attempted/failed fields carry failed_pct's base.
var reportOnly = []metricDef{
	{name: "failed_pct", unit: "%"},
	{name: "ping_p50_ms", unit: "ms"},
	{name: "ping_p99_ms", unit: "ms"},
	{name: "link_gain_pct", unit: "%"},
	{name: "probe_abort_pct", unit: "%"},
}

// perLayer is the per_layer list of BENCHMARK.json, printed with --trace 1.
// Every traced run prints all of them; a layer the workload never calls
// reads 0.
var perLayer = []metricDef{
	// seq-fig5a: span self times.
	{"netsim.generate_s", "s", "setup_s"},
	{"netsim.precompute_s", "s", "setup_s"},
	{"gnutella.build_s", "s", "setup_s"},
	{"event.run_s", "s", "run_s"},
	{"metrics.lookup_s", "s", "run_s"},
	{"metrics.lookup_share", "ratio", "run_s"},
	{"metrics.sample_ms_p50", "ms", "run_s"},
	// seq-fig5a: the counting pass.
	{"event.steps", "count", "run_s"},
	{"core.probes", "count", "run_s"},
	{"core.exchanges", "count", "run_s"},
	{"core.exchange_ratio", "ratio", "run_s"},
	{"core.messages", "count", "run_s"},
	{"metrics.lookups", "count", "run_s"},
	{"metrics.lookups_failed", "count", "failed_pct"},
	{"netsim.oracle_queries", "count", "run_s"},
	{"netsim.oracle_hit_ratio", "ratio", "run_s"},
	// shard-65k.
	{"shard.new_s", "s", "setup_s"},
	{"shard.engine_s", "s", "run_s"},
	{"shard.epochs", "count", "run_s"},
	{"shard.epoch_us", "us", "run_s"},
	{"shard.allocs_per_epoch", "count", "run_s"},
	{"shard.parallelism", "ratio", "run_s"},
	{"shard.messages", "count", "run_s"},
	{"shard.cross_shard_ratio", "ratio", "run_s"},
	{"shard.exchanges", "count", "run_s"},
	{"shard.commit_ratio", "ratio", "run_s"},
	{"metrics.alest_s", "s", "run_s"},
	// live-256.
	{"propnode.start_s", "s", "setup_s"},
	{"propnode.probes", "count", "probes_per_agent_s"},
	{"propnode.exchanges", "count", "exchanges_per_s"},
	{"propnode.exchange_ratio", "ratio", "exchanges_per_s"},
	{"propnode.walk_failures", "count", "probe_abort_pct"},
	{"propnode.measure_failures", "count", "probe_abort_pct"},
	{"propnode.heartbeats", "count", "probes_per_agent_s"},
	{"propnode.mutex_wait_s", "s/s", "probes_per_agent_s,exchanges_per_s,link_gain_pct"},
	{"transport.msgs_per_s", "1/s", "ping_p99_ms,probes_per_agent_s"},
	{"transport.msgs_per_probe", "count", "ping_p99_ms,probes_per_agent_s"},
	{"transport.heartbeat_share", "ratio", "ping_p99_ms,probes_per_agent_s"},
	{"transport.overflows", "count", "ping_p99_ms,probes_per_agent_s"},
	{"transport.dropped", "count", "ping_p99_ms,probes_per_agent_s"},
	// Every workload: the Go runtime and the tracing itself.
	{"go.gc_cpu_s", "s", "run_s"},
	{"go.allocs", "count", "run_s"},
	{"go.cpu_util", "ratio", "all"},
	{"go.sched_latency_p99_us", "us", "ping_p99_ms"},
	{"trace.overhead_s", "s", "none"},
}

// defs indexes every metric by name.
var defs = func() map[string]metricDef {
	m := make(map[string]metricDef)
	for _, list := range [][]metricDef{gated, reportOnly, perLayer} {
		for _, d := range list {
			m[d.name] = d
		}
	}
	return m
}()
