package main

// metricDef names one reported metric and its unit. The two lists
// mirror BENCHMARK.json's end_to_end and per_layer entries (a test
// keeps them in step); a run prints every end-to-end metric untraced
// and every per-layer metric traced, on every workload.
type metricDef struct {
	Name string
	Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"profile_minst_per_s", "Minst/s"},
	{"jobs_per_s", "1/s"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"workloads.compile_ms", "ms"},
	{"parallel.acquire_us", "us"},
	{"parallel.release_us", "us"},
	{"atom.prepare_us", "us"},
	{"vm.dispatch_ns_per_inst", "ns/inst"},
	{"core.hook_ns_per_inst", "ns/inst"},
	{"core.profile_us", "us"},
	{"core.record_us", "us"},
	{"core.record_kb", "KB"},
	{"vm.insts", "count"},
	{"vm.analysis_calls", "count"},
	{"core.values_profiled", "count"},
	{"core.values_skipped", "count"},
	{"core.duty_cycle", "ratio"},
	{"core.sites", "count"},
	{"core.tnv_clears", "count"},
	{"core.tnv_dropped", "count"},
	{"runtime.allocs_per_job", "count/job"},
	{"runtime.alloc_kb_per_job", "KB/job"},
	{"runtime.gc_cycles", "count/job"},
	{"http.submit_hit_ms", "ms"},
	{"http.submit_miss_ms", "ms"},
	{"program.load_us", "us"},
	{"analysis.verify_us", "us"},
	{"serve.normalize_us", "us"},
	{"serve.digest_us", "us"},
	{"serve.wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"http.result_ms", "ms"},
	{"http.result_kb", "KB"},
	{"core.read_record_us", "us"},
	{"core.merge_records_us", "us"},
	{"atomicio.write_us", "us"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.cache_entries", "count"},
	{"serve.jobs_tracked", "count"},
	{"bench.failed_frac", "ratio"},
	{"bench.unattributed_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}
