package main

// metricDef is one metric as BENCHMARK.json declares it. The tables below
// are the source of truth; a test holds BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are what a user of the fleet sees, reported by every untraced
// run of every workload. Bound is the share of the parent's median by which
// a change may worsen the metric before it counts as a regression, set from
// the spread measured over ten seeds (bench/README.md). The p99 latencies,
// the write path's latency and capacity, and the publish-to-visible time
// repeated too poorly for any bound; the generator reports them as gen.*
// diagnostics instead.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "retained_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "query_capacity_qps", Unit: "rects/s", Better: "higher", Bound: 0.25},
}

// perLayer are single-layer diagnostics, reported by traced runs. Each is
// timed from outside, around calls into the layer's public functions; the
// README maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.backlog_max", Unit: "count", Better: "lower"},
	{Name: "gen.sent", Unit: "count", Better: "higher"},
	{Name: "gen.query_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.ingest_ack_p50_us", Unit: "us", Better: "lower"},
	{Name: "gen.ingest_ack_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.ingest_capacity_pts", Unit: "points/s", Better: "higher"},
	{Name: "gen.publish_visible_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "net.client_hop_p50_us", Unit: "us", Better: "lower"},
	{Name: "cluster.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "cluster.self_p99_us", Unit: "us", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "serve.handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "serve.scan_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.traverse_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.nodes_visited_per_query", Unit: "nodes", Better: "lower"},
	{Name: "core.nodes_added_per_query", Unit: "nodes", Better: "lower"},
	{Name: "core.open_ms", Unit: "ms", Better: "lower"},
	{Name: "core.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "build.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "build.points_per_s", Unit: "points/s", Better: "higher"},
	{Name: "build.encode_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ingest.append_p50_us", Unit: "us", Better: "lower"},
	{Name: "ingest.append_p99_us", Unit: "us", Better: "lower"},
	{Name: "ingest.publish_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ingest.publish_other_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ingest.wal_bytes_per_point", Unit: "bytes", Better: "lower"},
	{Name: "ingest.disk_write_bytes_per_point", Unit: "bytes", Better: "lower"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricsFor returns the metrics a run reports: per-layer when traced,
// end-to-end otherwise (end-to-end numbers never come from a traced run).
func metricsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func findMetric(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
