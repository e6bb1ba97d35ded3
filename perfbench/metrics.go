package main

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root declares the same lists (a test keeps them equal);
// METRICS.md says what each one means on each workload.
type metricDef struct{ Name, Unit string }

// endToEnd are the untraced run's metrics, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_frac", "frac"},
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"throughput_cmds_per_s", "1/s"},
	{"cpu_ms_per_cmd", "ms"},
	{"rss_peak_mb", "MB"},
	{"msgs_per_cmd", "msgs/cmd"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// run reads 0 there.
var perLayer = append([]metricDef{
	{"httpapi.respond_p50_ms", "ms"},
	{"httpapi.respond_p99_ms", "ms"},
	{"txpool.admit_wait_p50_ms", "ms"},
	{"txpool.admit_wait_p99_ms", "ms"},
	{"log.batch_wait_p50_ms", "ms"},
	{"log.batch_wait_p99_ms", "ms"},
	{"core.consensus_p50_ms", "ms"},
	{"core.consensus_p99_ms", "ms"},
	{"sm.apply_p50_ms", "ms"},
	{"sm.apply_p99_ms", "ms"},
	{"log.instances_per_cmd", "count"},
	{"log.noop_frac", "frac"},
	{"log.cmds_per_proposal", "count"},
	{"log.useful_frac", "frac"},
	{"rb.echoes_per_cmd", "count"},
	{"rb.readies_per_cmd", "count"},
	{"rb.delivers_per_cmd", "count"},
	{"rb.pulls_per_cmd", "count"},
	{"rb.frame_entries_mean", "count"},
	{"ea.bytes_per_cmd", "B"},
	{"ea.rounds_per_decision_mean", "count"},
	{"ea.rounds_per_decision_max", "count"},
	{"ea.splitter_rounds_n4_mean", "count"},
	{"ea.splitter_rounds_n7_mean", "count"},
	{"proto.dedup_dropped_per_cmd", "count"},
	{"txpool.deduped_per_cmd", "count"},
	{"txpool.shed_frac", "frac"},
	{"loadgen.retries_per_cmd", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.whole_p99_ms", "ms"},
	{"sm.snapshots_per_cmd", "count"},
	{"sm.snapshot_bytes_per_cmd", "B"},
	{"sm.transfer_installs", "count"},
	{"store.write_bytes_per_cmd", "B"},
	{"store.boot_s", "s"},
	{"store.boot_failures", "count"},
	{"store.boot_wipes", "count"},
	{"store.sync_p50_ms", "ms"},
	{"store.sync_p99_ms", "ms"},
	{"recovery_s", "s"},
	{"wire.frames_per_cmd", "count"},
	{"wire.bytes_per_cmd", "B"},
	{"netx.rejected_frames", "count"},
	{"rt.posted_per_cmd", "count"},
	{"rt.inbox_depth_max", "count"},
	{"sim.events_per_cmd", "count"},
	{"sim.deliveries_per_cmd", "count"},
	{"sim.allocs_per_cmd", "count"},
	{"sim.alloc_bytes_per_cmd", "B"},
	{"trace.overhead_frac", "frac"},
}, cpuMetrics()...)

func cpuMetrics() []metricDef {
	out := make([]metricDef, len(cpuGroups))
	for i, g := range cpuGroups {
		out[i] = metricDef{"cpu." + g + "_frac", "frac"}
	}
	return out
}
