package main

// metricDef names one reported metric. Bound is the share of the
// baseline median by which the metric may worsen before a change counts
// as a regression (0: no bound). Gated marks the end-to-end metrics the
// last output line carries and BENCHMARK.json lists, with the same unit,
// direction and bound: ones every workload has and that hold steady
// enough across runs to be held to their bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Gated  bool
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Per-type latencies exist only for the request types a
// workload issues; "write" is the put or batch latency, whichever the
// workload issues, so every workload has it.
//
// On the reference box, a 2-vCPU VM, the host's other tenants set the
// pace: from minute to minute it steals 0-29% of the CPU and the CPU
// time a request costs moves by up to 30%. Over ten 30 s runs per
// workload, the spread (interquartile distance over median) reached 29%
// for req_per_s, which follows steal, 14% for cpu_us_per_req, which does
// not count stolen time but follows host speed, 14% for the p50s, 11%
// for peak RSS and 133% for the p99s. The gated metrics are the ones whose spread stays inside the
// widest bound allowed, 0.25; req_per_s and the p99s are reported and
// compared but not gated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, true},
	{"cpu_us_per_req", "us", "lower", 0.25, true},
	{"write_p50_us", "us", "lower", 0.25, true},
	{"max_rss_mb", "MB", "lower", 0.25, true},
	{"req_per_s", "1/s", "higher", 0.25, false},
	{"write_p99_us", "us", "lower", 0.25, false},
	{"get_p50_us", "us", "lower", 0.25, false},
	{"get_p99_us", "us", "lower", 0.25, false},
	{"put_p50_us", "us", "lower", 0.25, false},
	{"put_p99_us", "us", "lower", 0.25, false},
	{"batch_p50_us", "us", "lower", 0.25, false},
	{"batch_p99_us", "us", "lower", 0.25, false},
	{"scan_p50_us", "us", "lower", 0.25, false},
	{"scan_p99_us", "us", "lower", 0.25, false},
	{"fail_frac", "ratio", "lower", 0, false},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{Name: "client.get_us", Unit: "us", Better: "lower"},
	{Name: "client.put_us", Unit: "us", Better: "lower"},
	{Name: "client.batch_us", Unit: "us", Better: "lower"},
	{Name: "client.snap_open_us", Unit: "us", Better: "lower"},
	{Name: "client.scan_us", Unit: "us", Better: "lower"},
	{Name: "client.snap_close_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us.get", Unit: "us", Better: "lower"},
	{Name: "server.self_us.put", Unit: "us", Better: "lower"},
	{Name: "server.self_us.batch", Unit: "us", Better: "lower"},
	{Name: "server.self_us.scan", Unit: "us", Better: "lower"},
	{Name: "server.scan_fetch_ratio", Unit: "ratio", Better: "lower"},
	{Name: "proc.syscr_per_req", Unit: "count", Better: "lower"},
	{Name: "proc.syscw_per_req", Unit: "count", Better: "lower"},
	{Name: "durable.get_us", Unit: "us", Better: "lower"},
	{Name: "durable.put_us", Unit: "us", Better: "lower"},
	{Name: "durable.batch_us", Unit: "us", Better: "lower"},
	{Name: "durable.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "durable.iter_entry_ns", Unit: "ns", Better: "lower"},
	{Name: "persist.flushes_per_req", Unit: "count", Better: "lower"},
	{Name: "persist.records_per_flush", Unit: "count", Better: "higher"},
	{Name: "persist.fsync_p50_us", Unit: "us", Better: "lower"},
	{Name: "persist.fsync_p99_us", Unit: "us", Better: "lower"},
	{Name: "persist.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "repl.apply_us", Unit: "us", Better: "lower"},
	{Name: "repl.records_applied_per_s", Unit: "1/s", Better: "higher"},
	{Name: "repl.lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.resyncs", Unit: "count", Better: "lower"},
	{Name: "repl.reconnects", Unit: "count", Better: "lower"},
	{Name: "jiffy.get_us", Unit: "us", Better: "lower"},
	{Name: "jiffy.batch_us.single_shard", Unit: "us", Better: "lower"},
	{Name: "jiffy.batch_us.cross_shard", Unit: "us", Better: "lower"},
	{Name: "jiffy.cross_shard_frac", Unit: "ratio", Better: "lower"},
	{Name: "jiffy.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "jiffy.scan_entry_ns", Unit: "ns", Better: "lower"},
	{Name: "core.avg_revision_size", Unit: "count", Better: "higher"},
	{Name: "core.max_revision_list", Unit: "count", Better: "lower"},
	{Name: "core.pool_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.seek_steps_per_sample", Unit: "count", Better: "lower"},
	{Name: "core.index_levels", Unit: "count", Better: "lower"},
	{Name: "runtime.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_per_s", Unit: "1/s", Better: "lower"},
	{Name: "runtime.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

func findDef(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
