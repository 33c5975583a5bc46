package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, in output order.
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"sim_minstr_per_s", "Minstr/s"},
	{"run_ms_p50", "ms"},
	{"run_ms_tail", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"paper_err", "ratio"},
	{"deque_mops_per_s", "Mops/s"},
	{"stm_mreads_per_s", "Mreads/s"},
}

// perLayer are the metrics every traced run reports, in output order.
// BENCHMARK.json lists the same names and units.
var perLayer = []metricDef{
	{"workloads.build_ms", "ms"},
	{"workloads.commits", "count"},
	{"workloads.abort_frac", "ratio"},
	{"workloads.steal_frac", "ratio"},
	{"workloads.self_pct", "%"},

	{"sim.new_ms", "ms"},
	{"sim.run_s", "s"},
	{"sim.cycles", "count"},
	{"sim.skipped_frac", "ratio"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.ns_per_instr", "ns"},
	{"sim.self_pct", "%"},

	{"cpu.retired_instrs", "count"},
	{"cpu.busy_frac", "ratio"},
	{"cpu.fence_stall_frac", "ratio"},
	{"cpu.other_stall_frac", "ratio"},
	{"cpu.squashes_per_kinstr", "1/kinstr"},
	{"cpu.mispredicts_per_kinstr", "1/kinstr"},
	{"cpu.self_pct", "%"},

	{"fence.strong_per_kinstr", "1/kinstr"},
	{"fence.weak_per_kinstr", "1/kinstr"},
	{"fence.demoted_frac", "ratio"},
	{"fence.bs_lines_avg", "lines"},
	{"fence.bounces_per_kwf", "1/kwf"},
	{"fence.recoveries_per_kwf", "1/kwf"},
	{"fence.order_ops", "count"},
	{"fence.self_pct", "%"},

	{"cache.self_pct", "%"},

	{"coherence.gets", "count"},
	{"coherence.getm", "count"},
	{"coherence.l2_hit_frac", "ratio"},
	{"coherence.bounced_writes", "count"},
	{"coherence.self_pct", "%"},

	{"noc.packets", "count"},
	{"noc.bytes_per_kinstr", "B/kinstr"},
	{"noc.self_pct", "%"},

	{"gc.self_pct", "%"},
	{"gc.allocs_per_kinstr", "1/kinstr"},
	{"gc.alloc_b_per_kinstr", "B/kinstr"},
	{"gc.count", "count"},
	{"gc.pause_ms", "ms"},

	{"other.self_pct", "%"},

	{"experiments.speedup_wsplus", "x"},
	{"experiments.speedup_wplus", "x"},
	{"experiments.speedup_wee", "x"},
	{"experiments.splus_fence_stall", "ratio"},
	{"experiments.paper_err", "ratio"},
	{"experiments.heldout_speedup_wsplus", "x"},
	{"experiments.heldout_speedup_wplus", "x"},
	{"experiments.heldout_speedup_wee", "x"},
	{"experiments.heldout_paper_err", "ratio"},

	{"runtime.light_ns", "ns"},
	{"runtime.full_ns", "ns"},
	{"runtime.heavy_us_p50", "us"},
	{"runtime.heavy_us_tail", "us"},
	{"runtime.heavy_membarrier", "count"},
	{"runtime.heavy_fallback", "count"},
	{"runtime.eintr_retries", "count"},
	{"runtime.degradations", "count"},

	{"thedeque.steal_us_p50", "us"},
	{"thedeque.steal_success_frac", "ratio"},
	{"thedeque.sym_mops_per_s", "Mops/s"},
	{"thedeque.asym_speedup", "x"},

	{"tlrw.write_us_p50", "us"},
	{"tlrw.write_us_tail", "us"},
	{"tlrw.writes", "count"},
	{"tlrw.sym_mreads_per_s", "Mreads/s"},
	{"tlrw.asym_speedup", "x"},

	{"host.speed", "ratio"},

	{"trace.untraced_minstr_per_s", "Minstr/s"},
	{"trace.traced_minstr_per_s", "Minstr/s"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}
