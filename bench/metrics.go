package main

// metricDef names one reported metric. BENCHMARK.json carries the same
// names, units and directions (bench_test.go keeps the two in step);
// the regression bounds live only there.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what every untraced run reports. The names are generic
// because every workload reports every one; README.md maps each
// (metric, workload) pair to the quantity it is.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_mid_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"overhead_per_work", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is what every traced run reports. A metric whose layer is
// not on a workload's path reads 0 there.
var perLayer = []metricDef{
	// wire — isolated calls
	{"wire.encode_ns", "ns", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.jobmove16_encode_ns", "ns", "lower"},
	{"wire.jobmove16_decode_ns", "ns", "lower"},
	{"wire.cframe_roundtrip_ns", "ns", "lower"},
	{"wire.allocs_per_frame", "count", "lower"},
	{"wire.loopback_send_ns", "ns", "lower"},
	{"wire.tcp_send_ns", "ns", "lower"},
	{"wire.tcp_oneway_us", "us", "lower"},
	{"wire.tcp_stream_msgs_per_s", "1/s", "higher"},
	// wire — from Stats on the traced workload
	{"wire.bytes_per_msg", "B", "lower"},
	{"wire.send_errors", "count", "lower"},
	{"wire.redials", "count", "lower"},
	{"wire.send_self_p50_ns", "ns", "lower"},
	// cluster
	{"cluster.inbox_wait_p50_us", "us", "lower"},
	{"cluster.inbox_wait_p99_us", "us", "lower"},
	{"cluster.op_completion_ratio", "ratio", "higher"},
	{"cluster.aborts_per_op", "count", "lower"},
	{"cluster.timeouts", "count", "lower"},
	{"cluster.freeze_expired", "count", "lower"},
	{"cluster.op_latency_p50_us", "us", "lower"},
	{"cluster.op_latency_p99_us", "us", "lower"},
	{"cluster.bytes_per_op", "B", "lower"},
	{"cluster.msgs_per_op", "count", "lower"},
	{"cluster.final_spread", "count", "lower"},
	{"cluster.shutdown_ms", "ms", "lower"},
	{"cluster.balance_ops_per_s", "1/s", "higher"},
	{"cluster.node_steps_per_s", "1/s", "higher"},
	// core — isolated calls
	{"core.balance_op_ns.d1", "ns", "lower"},
	{"core.balance_op_ns.d4", "ns", "lower"},
	{"core.gen_consume_ns", "ns", "lower"},
	{"core.new_system_ms", "ms", "lower"},
	{"core.allocs_per_op", "count", "lower"},
	// sim
	{"sim.proc_steps_per_s.w1", "1/s", "higher"},
	{"sim.parallel_efficiency", "ratio", "higher"},
	{"sim.balance_ops_per_step", "count", "lower"},
	{"sim.core_share", "ratio", "lower"},
	{"sim.paper_runs_per_s", "1/s", "higher"},
	// netsim
	{"netsim.proc_steps_per_s", "1/s", "higher"},
	// serve
	{"serve.submit_call_ns", "ns", "lower"},
	{"serve.accept_rtt_us", "us", "lower"},
	{"serve.ingest_handoff_us", "us", "lower"},
	{"serve.complete_call_ns", "ns", "lower"},
	{"serve.ingest_wait_p50_us", "us", "lower"},
	{"serve.ingest_wait_p99_us", "us", "lower"},
	{"serve.queue_p50_ms", "ms", "lower"},
	{"serve.queue_p99_ms", "ms", "lower"},
	{"serve.transfer_p50_us", "us", "lower"},
	{"serve.transfer_p99_us", "us", "lower"},
	{"serve.service_p50_ms", "ms", "lower"},
	{"serve.service_p99_ms", "ms", "lower"},
	{"serve.hops_mean", "count", "lower"},
	{"serve.moved_job_share", "ratio", "lower"},
	{"serve.bytes_per_job", "B", "lower"},
	{"serve.completion_drops", "count", "lower"},
	{"serve.ingest_hwm", "count", "lower"},
	{"serve.sojourn_p99_ms", "ms", "lower"},
	{"serve.sojourn_p50_ms.r25", "ms", "lower"},
	{"serve.sojourn_p99_ms.r25", "ms", "lower"},
	{"serve.sojourn_p50_ms.r75", "ms", "lower"},
	{"serve.sojourn_p99_ms.r75", "ms", "lower"},
	{"serve.slo_attainment.r75", "ratio", "higher"},
	{"serve.sustained_rate_jobs_per_s", "1/s", "higher"},
	// obs
	{"obs.counter_inc_ns", "ns", "lower"},
	{"obs.hist_observe_ns", "ns", "lower"},
	{"obs.disabled_ns", "ns", "lower"},
	{"obs.metrics_scrape_ms", "ms", "lower"},
	{"obs.on_off_p99_ratio", "ratio", "lower"},
	{"obs.on_off_jobs_ratio", "ratio", "higher"},
	// flight
	{"flight.tap_send_ns", "ns", "lower"},
	{"flight.tap_allocs_per_frame", "count", "lower"},
	{"flight.bytes_per_event", "B", "lower"},
	{"flight.replay_events_per_s", "1/s", "higher"},
	{"flight.dropped_records", "count", "lower"},
	// the benchmark's own validity
	{"gen.late_p99_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.layer_sum_ratio", "ratio", "higher"},
	{"failed_ratio", "ratio", "lower"},
}
