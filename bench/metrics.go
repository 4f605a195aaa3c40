package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions (a test holds the two
// together) and adds the regression bound of each end-to-end metric.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are what a client of seaserve sees; every workload
// reports every one of them, and none is ever zero.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"q_p50_ms", "ms", "lower"},
	{"q_hi_within_slo", "ratio", "higher"},
	{"sat_ops_s", "1/s", "higher"},
	{"rss_mb", "MiB", "lower"},
}

// perLayerDefs are the single-layer metrics, named after the module
// they measure. A metric reads 0 on a workload whose requests never
// enter that layer. The unprefixed ones are client-visible quantities
// that do not exist on every workload, which the benchmark contract
// keeps out of the end-to-end list.
var perLayerDefs = []metricDef{
	{"q_tail_ms", "ms", "lower"},
	{"q_hi_tail_ms", "ms", "lower"},
	{"ing_p50_ms", "ms", "lower"},
	{"ing_hi_p90_ms", "ms", "lower"},
	{"fail_ratio", "ratio", "lower"},
	{"pred_share", "ratio", "higher"},
	{"pred_rel_err_p50", "ratio", "lower"},

	{"http.residual_us", "us", "lower"},
	{"serve.handler_us", "us", "lower"},
	{"serve.decode_us", "us", "lower"},
	{"serve.encode_us", "us", "lower"},
	{"serve.key_ns", "ns", "lower"},
	{"serve.cache_lookup_ns", "ns", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.sched_wait_us", "us", "lower"},
	{"serve.rejected_ratio", "ratio", "lower"},

	{"core.try_predict_ns", "ns", "lower"},
	{"core.predict_ok_ratio", "ratio", "higher"},
	{"core.fallback_us", "us", "lower"},
	{"core.absorb_us", "us", "lower"},

	{"query.scan_us", "us", "lower"},
	{"query.scan_mrows_s", "Mrows/s", "higher"},
	{"query.prune_ratio", "ratio", "higher"},
	{"query.merge_ns", "ns", "lower"},
	{"query.rows_per_result", "count", "lower"},

	{"storage.col_append_us", "us", "lower"},
	{"storage.resident_bytes_per_row", "bytes", "lower"},

	{"ingest.wal_append_us", "us", "lower"},
	{"ingest.wal_append_nosync_us", "us", "lower"},
	{"ingest.fsync_us", "us", "lower"},
	{"ingest.wal_bytes_per_row", "bytes", "lower"},

	{"dist.ring_owners_ns", "ns", "lower"},
	{"dist.local_scan_us", "us", "lower"},
	{"dist.scatter_us", "us", "lower"},
	{"dist.partial_rpc_us", "us", "lower"},
	{"dist.rpcs_per_query", "count", "lower"},
	{"dist.forward_us", "us", "lower"},
	{"dist.query_handler_us", "us", "lower"},
	{"dist.ingest_handler_us", "us", "lower"},
	{"dist.replicate_us", "us", "lower"},
	{"dist.replicate_rpcs_per_batch", "count", "lower"},
	{"dist.parts_per_batch", "count", "lower"},
	{"dist.wire_bytes_query", "bytes", "lower"},
	{"dist.wire_bytes_partials", "bytes", "lower"},
	{"dist.wire_bytes_ingest", "bytes", "lower"},
	{"dist.unacked_ratio", "ratio", "lower"},
	{"dist.retry_ratio", "ratio", "lower"},
	{"dist.hedge_ratio", "ratio", "lower"},
	{"dist.degraded_ratio", "ratio", "lower"},

	{"proc.cpu_ms_per_op", "ms", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"gen.achieved_ratio", "ratio", "higher"},
	{"layer.unattributed_share", "ratio", "lower"},
}

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()
