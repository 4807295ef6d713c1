package main

// metrics maps a metric name to its value; the unit comes from the
// tables below, which BENCHMARK.json repeats (bench_test.go compares the
// two).
type metrics map[string]float64

// metricDef names a metric. bound, set on end-to-end metrics only, is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression; README.md says where each comes from.
type metricDef struct {
	name, unit string
	bound      float64
}

// endToEnd are the gated metrics, reported by the untraced pass. All are
// lower-is-better.
var endToEnd = []metricDef{
	{"op_x_ref", "x", 0.20},
	{"allocs_per_op", "count", 0.03},
	{"alloc_kb_per_op", "KiB", 0.03},
	{"heap_live_mb", "MiB", 0.05},
	{"virt_ms_per_fft", "ms_virtual", 0.001},
	{"setup_s", "s", 0.25},
}

// perLayer are the ungated metrics of single layers, reported by the
// traced pass. Every workload reports all of them; a layer a workload
// does not load reads 0.
var perLayer = []metricDef{
	{name: "bench.ref_ms_q25", unit: "ms"},
	{name: "bench.op_ms_p50", unit: "ms"},
	{name: "bench.op_ms_p90", unit: "ms"},
	{name: "bench.ops_per_s", unit: "1/s"},
	{name: "bench.cpu_ms_per_op", unit: "ms"},
	{name: "bench.samples", unit: "count"},
	{name: "bench.trace_overhead_x", unit: "x"},
	{name: "bench.closure_frac", unit: "fraction"},
	{name: "bench.fail_frac", unit: "fraction"},

	{name: "offt.exec_ms", unit: "ms"},
	{name: "offt.scatter_ms", unit: "ms"},
	{name: "offt.dispatch_ms", unit: "ms"},
	{name: "offt.gather_ms", unit: "ms"},
	{name: "offt.new_plan_ms", unit: "ms"},
	{name: "offt.close_ms", unit: "ms"},

	{name: "pfft.total_ms", unit: "ms"},
	{name: "pfft.wait_ms", unit: "ms"},
	{name: "pfft.test_ms", unit: "ms"},
	{name: "pfft.post_ms", unit: "ms"},
	{name: "pfft.overlap_eff", unit: "fraction"},
	{name: "pfft.unattributed_ms", unit: "ms"},

	{name: "pencil.total_ms", unit: "ms"},
	{name: "pencil.wait_ms", unit: "ms"},
	{name: "pencil.test_ms", unit: "ms"},
	{name: "pencil.post_ms", unit: "ms"},
	{name: "pencil.overlap_eff", unit: "fraction"},
	{name: "pencil.unattributed_ms", unit: "ms"},

	{name: "fft.z_ms", unit: "ms"},
	{name: "fft.y_ms", unit: "ms"},
	{name: "fft.x_ms", unit: "ms"},
	{name: "fft.serial3d_ms", unit: "ms"},
	{name: "fft.rows_ns_per_elem", unit: "ns"},

	{name: "layout.transpose_ms", unit: "ms"},
	{name: "layout.pack_ms", unit: "ms"},
	{name: "layout.unpack_ms", unit: "ms"},
	{name: "layout.scatter_gbps", unit: "GB/s"},
	{name: "layout.gather_gbps", unit: "GB/s"},

	{name: "mpi.mem.alltoall_ms", unit: "ms"},
	{name: "mpi.mem.msgs_per_op", unit: "count"},
	{name: "mpi.mem.kb_per_op", unit: "KiB"},
	{name: "mpi.mem.allocs_per_exchange", unit: "count"},
	{name: "mpi.mem.alloc_kb_per_exchange", unit: "KiB"},
	{name: "mpi.mem.retransmits", unit: "count"},

	{name: "mpi.net.alltoall_ms", unit: "ms"},
	{name: "mpi.net.msgs_per_op", unit: "count"},
	{name: "mpi.net.kb_per_op", unit: "KiB"},
	{name: "mpi.net.allocs_per_exchange", unit: "count"},
	{name: "mpi.net.alloc_kb_per_exchange", unit: "KiB"},
	{name: "mpi.net.retransmits", unit: "count"},
	{name: "mpi.net.join_ms", unit: "ms"},

	{name: "serve.rtt_ms", unit: "ms"},
	{name: "serve.encode_ms", unit: "ms"},
	{name: "serve.decode_ms", unit: "ms"},
	{name: "serve.exec_ms", unit: "ms"},
	{name: "serve.queue_ms", unit: "ms"},
	{name: "serve.overhead_ms", unit: "ms"},
	{name: "serve.cache_hit_frac", unit: "fraction"},
	{name: "serve.shed_frac", unit: "fraction"},
	{name: "serve.boot_ms", unit: "ms"},

	{name: "tuner.evals", unit: "count"},
	{name: "tuner.suggestions", unit: "count"},
	{name: "tuner.cache_hits", unit: "count"},
	{name: "tuner.infeasible", unit: "count"},
	{name: "tuner.search_ms", unit: "ms"},
	{name: "tuner.best_over_default_x", unit: "x"},
	{name: "tuner.virt_tuning_ms", unit: "ms_virtual"},

	{name: "model.eval_ms", unit: "ms"},
	{name: "model.allocs_per_eval", unit: "count"},
	{name: "model.alloc_kb_per_eval", unit: "KiB"},
	{name: "simnet.msgs_per_eval", unit: "count"},
}
