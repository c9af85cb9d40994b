package main

// metricDef names one reported metric and its unit. The two lists below
// are the ones BENCHMARK.json declares; a test keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of each workload sees, printed by every untraced
// run. Every workload has all of them, and none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // median of the run's set-ups, before the first timed operation
	{"wall_s", "s"},       // timed phase: median pass (CLI workloads) or the script (serve-mix)
	{"cpu_s", "s"},        // user+sys CPU of the measured process over the same phase
	{"peak_rss_mb", "MB"}, // peak resident memory of the measured process
	{"retained_mb", "MB"}, // heap in use after GC (CLI) or daemon resident memory after the script (serve-mix)
}

// perLayer is printed by every traced run. A layer a workload does not
// exercise reports 0, which is itself the prediction for that workload.
var perLayer = []metricDef{
	// config, sram, logic3d and core, through the tables
	{"config.derive_s", "s"},
	{"experiments.tables_s", "s"},
	{"sram.model_hits", "count"},
	{"sram.model_misses", "count"},
	// trace
	{"trace.record_s", "s"},
	{"trace.streams", "count"},
	{"trace.minstr", "Minstr"},
	{"trace.bytes_mb", "MB"},
	{"trace.bytes_per_instr", "B/instr"},
	{"trace.timed_misses", "count"},
	// uarch, mem and power through Fig6With and LPStudy
	{"fig6.s", "s"},
	{"fig6.cpu_s", "s"},
	{"fig6.cells", "count"},
	{"fig6.sim_minstr", "Minstr"},
	{"fig6.mips", "Minstr/s"},
	{"fig6.pool_util", "ratio"},
	{"lp.s", "s"},
	{"render.s", "s"},
	// thermal and floorplan
	{"fig8.s", "s"},
	{"fig8.rows", "count"},
	// multicore
	{"fig9.s", "s"},
	{"fig9.cpu_s", "s"},
	{"fig9.cells", "count"},
	{"fig9.mips", "Minstr/s"},
	{"fig9.pool_util", "ratio"},
	// warm and the sampled path of uarch
	{"fig6s.s", "s"},
	{"fig6s.cpu_s", "s"},
	{"fig6s.cells", "count"},
	{"fig6s.pool_util", "ratio"},
	{"fig6s.fallbacks", "count"},
	{"warm.hits", "count"},
	{"warm.misses", "count"},
	{"warm.builds", "count"},
	{"warm.built_minstr", "Minstr"},
	{"warm.skipped_minstr", "Minstr"},
	{"warm.restore_share", "ratio"},
	// cmd/m3dd, from client-side spans
	{"m3dd.boot_s", "s"},
	{"m3dd.canary_s", "s"},
	{"m3dd.admit_ms_p50", "ms"},
	{"m3dd.queue_s_p50", "s"},
	{"m3dd.queue_s_p90", "s"},
	{"m3dd.run_s_p50", "s"},
	{"m3dd.run_s_p90", "s"},
	{"m3dd.fetch_ms_p50", "ms"},
	{"m3dd.cells_per_s", "1/s"},
	{"m3dd.requests", "count"},
	{"m3dd.new_requests", "count"},
	{"m3dd.repeat_requests", "count"},
	{"m3dd.twin_requests", "count"},
	{"m3dd.repeat_share", "ratio"},
	{"new_p50_s", "s"},
	{"new_p90_s", "s"},
	{"repeat_p50_ms", "ms"},
	{"admission.accepted", "count"},
	{"admission.shed", "count"},
	// resultcache, from the /statsz delta over the script
	{"resultcache.hits", "count"},
	{"resultcache.coalesced", "count"},
	{"resultcache.computed", "count"},
	{"resultcache.unique_cells", "count"},
	{"resultcache.serve_ratio", "ratio"},
	{"resultcache.bytes", "B"},
	{"resultcache.evictions", "count"},
	// journal and jobstore
	{"journal.appends", "count"},
	{"jobstore.records", "count"},
	// the benchmark itself
	{"bench.self_s", "s"},
	{"bench.attributed_frac", "ratio"},
	{"bench.trace_overhead_s", "s"},
	{"failed_frac", "ratio"},
	// host diagnostics
	{"host.steal_frac", "ratio"},
	{"host.nproc", "count"},
	{"host.gomaxprocs", "count"},
}
