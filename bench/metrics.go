package main

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the simulator or the audit service
// sees, reported by untraced runs. Every one is non-zero on every
// workload; simulated cycles per second (0 on audit-mix) and the error
// rate (0 on a correct run) are per-layer metrics for that reason, and
// the error count is the result's "failed" field.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"rss_p95_mb", "MB", "lower", 0.20},
}

// floors are absolute differences, in a metric's unit, below which
// -compare counts a change as unchanged whatever its share of the
// median. A set-up of a millisecond or less moves by tens of percent
// between runs of one commit, and a 20 ms set-up change is not one a
// user waits for.
var floors = map[string]float64{"setup_s": 0.020}

// hostLayers are the profile buckets reported as <layer>.host_share;
// every other bucket is summed into other.host_share.
var hostLayers = []string{
	"cpu", "frontend", "uopcache", "decode", "backend", "mem", "bpu",
	"staticlint.cfg", "staticlint.resolve", "staticlint.summary", "staticlint.taint",
	"staticlint.checkers", "staticlint.quantify", "staticlint.receiver", "staticlint.cache",
	"staticlint.report",
	"difftest", "asm", "auditd", "net_http", "encoding_json", "bench", runtimeGC, "other",
}

// simLayers are the buckets that simulate the core; their host time per
// simulated cycle is cpu.host_ns_per_sim_cycle.
var simLayers = []string{"cpu", "frontend", "uopcache", "decode", "backend", "mem", "bpu"}

// perLayer are the metrics a traced run reports. Workloads a metric
// does not apply to report 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Simulator throughput and failures, from the untraced phase.
		{"sim_cycles_per_s", "1/s", "higher", 0},
		{"error_rate", "share", "lower", 0},
		{"cpu.host_ns_per_sim_cycle", "ns", "lower", 0},
		// Spans around the public calls each op makes.
		{"channel.transmit_ms", "ms", "lower", 0},
		{"difftest.generate_ms", "ms", "lower", 0},
		{"difftest.predict_ms", "ms", "lower", 0},
		{"difftest.runner_build_ms", "ms", "lower", 0},
		{"difftest.measure_train_ms", "ms", "lower", 0},
		{"difftest.measure_restore_ms", "ms", "lower", 0},
		{"parsweep.busy_share", "share", "higher", 0},
		{"auditd.submit_ms", "ms", "lower", 0},
		{"auditd.queue_wait_ms", "ms", "lower", 0},
		{"auditd.fetch_ms", "ms", "lower", 0},
		{"auditd.response_kb", "KiB", "lower", 0},
		{"staticlint.cache.report_hit_ratio", "share", "higher", 0},
		{"staticlint.cache.func_hit_ratio", "share", "higher", 0},
		// Go runtime cost, from the untraced phase.
		{"runtime.alloc_bytes_per_op", "B", "lower", 0},
		{"runtime.mallocs_per_op", "count", "lower", 0},
		{"runtime.gc_cycles_per_op", "count", "lower", 0},
		// Simulated counters of the untimed counter pass.
		{"perfctr.cycles_per_op", "cycles", "lower", 0},
		{"perfctr.retired_per_op", "count", "higher", 0},
		{"perfctr.dsb_uop_share", "share", "higher", 0},
		{"perfctr.mite_uop_share", "share", "lower", 0},
		{"perfctr.msrom_uop_share", "share", "lower", 0},
		{"perfctr.dsb2mite_switches_per_op", "count", "lower", 0},
		{"perfctr.skipped_cycle_share", "share", "higher", 0},
		{"uopcache.hit_ratio", "share", "higher", 0},
		{"uopcache.fills_per_op", "count", "lower", 0},
		{"uopcache.evictions_per_op", "count", "lower", 0},
		{"mem.l1i_misses_per_op", "count", "lower", 0},
		{"mem.l1d_misses_per_op", "count", "lower", 0},
		{"mem.llc_misses_per_op", "count", "lower", 0},
		// Model accuracy of the counter pass.
		{"difftest.worst_rel_err", "share", "lower", 0},
		{"difftest.contract_violations", "count", "lower", 0},
		{"channel.sim_kbit_per_s", "kbit/s", "higher", 0},
		{"channel.bit_error_rate", "share", "lower", 0},
		// The tracing itself.
		{"trace.overhead", "share", "lower", 0},
		{"trace.harness_self_share", "share", "lower", 0},
		{"trace.decomposition_gap_pp", "pp", "lower", 0},
		{"trace.decomposition_ok", "bool", "higher", 0},
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{l + ".host_share", "share", "lower", 0})
	}
	return defs
}()
