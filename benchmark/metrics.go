package main

// metricDef names one printed metric. The names, units and order here must
// match BENCHMARK.json (names_test.go holds the two together).
type metricDef struct {
	Name, Unit string
}

// endToEndMetrics are what a client of the replicated server sees; a
// -trace 0 run prints exactly these.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"overhead_x", "x"},
	{"cpu_ms_per_req", "ms"},
}

// perLayerMetrics are single-layer readings; a -trace 1 run prints exactly
// these. A reading that does not apply to a workload (no WAL, no
// speculation, one group) prints 0.
var perLayerMetrics = []metricDef{
	// client: the generator's own spans.
	{"client.dial_ms_p50", "ms"},
	{"client.ttfb_ms_p50", "ms"},
	{"client.body_ms_p50", "ms"},
	{"client.latency_tail_ms", "ms"},
	{"client.latency_tail_pct", "%"},
	{"client.latency_max_ms", "ms"},
	{"client.lateness_max_ms", "ms"},
	{"client.slo_miss_pct", "%"},
	{"client.retries", "count"},
	{"client.saturated", "count"},
	{"client.error_rate", "ratio"},
	{"client.failover_ms", "ms"},
	{"client.outage_latency_max_ms", "ms"},
	{"client.unattributed_ms_p50", "ms"},
	// simnet: driver over Network Dial/Write/Read.
	{"simnet.rtt_us_p50", "us"},
	{"simnet.write_read_ns_op", "ns"},
	// crane: the primary's lifecycle tracer and registry.
	{"crane.admit_to_proposed_ms_p50", "ms"},
	{"crane.proposed_to_committed_ms_p50", "ms"},
	{"crane.committed_to_consumed_ms_p50", "ms"},
	{"crane.consumed_to_output_ms_p50", "ms"},
	{"crane.conn_admit_to_output_ms_p50", "ms"},
	{"crane.entries_per_req", "count"},
	{"crane.bubble_ratio", "ratio"},
	{"crane.burst_entries_mean", "count"},
	{"crane.rejects", "count"},
	{"crane.spec_hit_ratio", "ratio"},
	{"crane.spec_rollbacks", "count"},
	{"crane.backup_output_lag_max", "count"},
	{"crane.catchup_ms", "ms"},
	{"crane.divergence_alarms", "count"},
	// paxos: drivers on a 3-node hub, and the run's own counters.
	{"paxos.commit_us_p50", "us"},
	{"paxos.entries_per_s", "1/s"},
	{"paxos.groupmux_ns_op", "ns"},
	{"paxos.msgs_per_commit", "count"},
	{"paxos.entries_per_round", "count"},
	{"paxos.view_changes", "count"},
	{"paxos.election_ms", "ms"},
	{"paxos.paxos_only_ms_p50", "ms"},
	// wal: drivers on a scratch directory, and the finished run's log.
	{"wal.append_us_p50", "us"},
	{"wal.append_sync_us_p50", "us"},
	{"wal.batch16_sync_us_p50", "us"},
	{"wal.fsyncs_per_req", "count"},
	{"wal.bytes_per_req", "B"},
	{"wal.recover_ms", "ms"},
	// seq
	{"seq.enqueue_consume_ns_op", "ns"},
	{"seq.codec_ns_op", "ns"},
	{"seq.groups_merge_ns_per_entry", "ns"},
	{"seq.queue_wait_ms_p50", "ms"},
	{"seq.queue_wait_ms_mean", "ms"},
	{"seq.merge_stalls_per_kentry", "count"},
	// dmt
	{"dmt.handoff_ns_op", "ns"},
	{"dmt.wait_signal_ns_op", "ns"},
	{"dmt.turn_wait_us_p50", "us"},
	{"dmt.turn_wait_us_p99", "us"},
	{"dmt.turn_wait_us_mean", "us"},
	{"dmt.token_passes_per_req", "count"},
	{"dmt.parrot_only_ms_p50", "ms"},
	// apps: the un-replicated program itself.
	{"apps.nondet_ms_p50", "ms"},
	{"apps.nondet_rps", "1/s"},
	// checkpoint
	{"checkpoint.take_ms", "ms"},
	{"checkpoint.bytes", "B"},
	// obs / process
	{"obs.trace_overhead_pct", "%"},
	{"obs.trace_dropped", "count"},
	{"process.peak_rss_mb", "MB"},
	{"process.gc_pause_ms", "ms"},
}
