package main

// metricDef names one reported metric and its unit. The lists are the
// contract with BENCHMARK.json at the repository root; a test keeps the two
// in step.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are reported by every workload with --trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_ms", "ms"},
	{"ops_per_cpu_s", "1/s"},
	{"pairs_per_cpu_s", "1/s"},
	{"human_labels", "count"},
	{"label_f1", "ratio"},
	{"heap_retained_mb", "MiB"},
}

// perLayerMetrics are reported by every workload with --trace 1; a layer
// a workload does not exercise reads 0. Times are self times per op.
var perLayerMetrics = []metricDef{
	// Generation.
	{"similarity.scorer_ms", "ms"},
	{"similarity.scorer_allocs", "count"},
	{"blocking.generate_ms", "ms"},
	{"blocking.generate_allocs", "count"},
	{"blocking.candidates", "count"},
	{"core.workload_ms", "ms"},
	{"core.fingerprint_ms", "ms"},
	// Search.
	{"risk.next_ms", "ms"},
	{"risk.batches", "count"},
	{"correct.next_ms", "ms"},
	{"correct.batches", "count"},
	{"core.hybrid_next_ms", "ms"},
	{"core.hybrid_batches", "count"},
	// Session and labeler.
	{"session.answer_ms", "ms"},
	{"labeler.wait_ms", "ms"},
	// Serving, write path.
	{"http.answers_ms", "ms"},
	{"http.next_ms", "ms"},
	{"serve.answers_handler_ms", "ms"},
	{"serve.next_handler_ms", "ms"},
	{"serve.journal_appends", "count"},
	{"serve.journal_bytes", "bytes"},
	// Serving, read path.
	{"serve.open_ms", "ms"},
	{"serve.catchup_ms", "ms"},
	{"serve.journal_lines_read", "count"},
	{"serve.sessions_recovered", "count"},
	// Runtime.
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_cpu_ms_per_op", "ms"},
	// Wall clock: the untraced half's timings on the wall clock, which
	// hypervisor steal and disk waits move (see METRICS.md).
	{"wall.op_p50_ms", "ms"},
	{"wall.ops_per_s", "1/s"},
	{"wall.pairs_per_s", "1/s"},
	// Tracing overhead: traced minus untraced median op CPU time.
	{"overhead.op_cpu_ms", "ms"},
}
