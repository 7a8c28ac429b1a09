package main

// The metric catalogue: every number the benchmark prints, by name, with
// its unit, its direction and the bound within which two runs of one
// commit must agree. BENCHMARK.json at the root of the repo repeats the
// names, units, directions and end-to-end bounds; bench_test.go keeps
// the two in step.
//
// A name says which clock it uses: host_*/wall_* (and every per-layer
// metric ending in a time unit without a sim_ part) is time of this
// process, sim_* is simulated L40 time. The simulator is deterministic
// for a seed, so simulated metrics and counts are exact: any move is a
// behaviour change, not noise.

// exact is the relative bound of a metric that must repeat bit for bit.
const exact = 1e-9

type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // relative; exact for deterministic metrics; 0 = not compared
}

// hostBound is the bound of every host-time and memory metric. It is the
// widest the driver's contract allows, and this host needs it: a shared
// 2-core VM whose speed shifts by 10-25 % for minutes at a time, so ten
// runs of one commit spread (IQR over median) by 6-18 % on host_run_s.
// A claim narrower than that needs paired, alternating runs (README).
const hostBound = 0.25

// endToEnd is what the driver gates. Every workload reports every one of
// them, and none is ever zero.
var endToEnd = []metric{
	{"setup_s", "s", "lower", hostBound},
	{"host_run_s", "s", "lower", hostBound},
	{"host_peak_rss_mb", "MB", "lower", hostBound},
}

// outcomes are the end-to-end metrics that exist on some workloads only
// (a batch simulation has no wall-clock TTFT, the paper tables have no
// request latency). The driver's contract wants every gated metric on
// every workload and never zero, so these ride in the per-layer list —
// zero where they do not apply — and `-repeat` holds them to the bounds
// below.
var outcomes = []metric{
	{"wall_req_per_s", "1/s", "higher", hostBound},
	{"wall_ttft_ms_p50", "ms", "lower", hostBound},
	{"wall_e2e_ms_p50", "ms", "lower", hostBound},
	{"sim_tok_per_s", "tok/s", "higher", exact},
	{"sim_ttft_p99_ms", "ms", "lower", exact},
	{"sim_tpot_p50_ms", "ms", "lower", exact},
	{"sim_goodput_frac", "ratio", "higher", exact},
	{"kv_mem_frac", "ratio", "lower", exact},
	{"attn_output_err", "ratio", "lower", exact},
	{"failed_frac", "ratio", "lower", exact},
}

// layers are the per-layer metrics proper, grouped by module. Host-time
// probes carry no bound (they are evidence, not gates); counts and
// simulated shares are exact.
var layers = []metric{
	{"kvcache.gen_compact_us", "us", "lower", 0},
	{"kvcache.gen_compact_allocs", "count", "lower", exact},
	{"kvcache.gen_compact_kb", "KB", "lower", 0},
	{"kvcache.prompt_compact_us", "us", "lower", 0},
	{"kvcache.add_sequence_us", "us", "lower", 0},
	{"kvcache.release_us", "us", "lower", 0},
	{"kvcache.alloc_batch_us", "us", "lower", 0},
	{"kvcache.new_manager_ms", "ms", "lower", 0},
	{"kvcache.pages_per_gen_call", "count", "lower", exact},
	{"kvcache.page_fill_frac", "ratio", "higher", exact},

	{"serving.steps", "count", "lower", exact},
	{"serving.avg_batch", "count", "higher", exact},
	{"serving.preemptions", "count", "lower", exact},
	{"serving.leaked_kv_pages", "count", "lower", exact},
	{"serving.step_us_p50", "us", "lower", 0},
	{"serving.step_us_p99", "us", "lower", 0},
	{"serving.prompt_step_us_p50", "us", "lower", 0},
	{"serving.submit_us", "us", "lower", 0},
	{"serving.allocs_per_step", "count", "lower", 0},
	{"serving.kb_per_step", "KB", "lower", 0},
	{"serving.sim_scheduler_frac", "ratio", "lower", exact},
	{"serving.sim_memmgmt_frac", "ratio", "lower", exact},
	{"serving.sim_compressor_frac", "ratio", "lower", exact},
	{"serving.sim_modelexec_frac", "ratio", "higher", exact},
	{"serving.sim_offload_frac", "ratio", "lower", exact},
	{"serving.sim_queue_ms_p50", "ms", "lower", exact},
	{"serving.loop_req_us_p50", "us", "lower", 0},

	{"offload.swap_outs", "count", "lower", exact},
	{"offload.swap_ins", "count", "lower", exact},
	{"offload.thrash_events", "count", "lower", exact},
	{"offload.prefix_spills", "count", "lower", exact},
	{"offload.prefix_hits", "count", "higher", exact},

	{"cluster.events", "count", "lower", exact},
	{"cluster.run_us_per_event", "us", "lower", 0},
	{"cluster.route_pick_us", "us", "lower", 0},
	{"cluster.kvindex_matches_us", "us", "lower", 0},
	{"cluster.kvindex_add_us", "us", "lower", 0},
	{"cluster.kvindex_len", "count", "lower", exact},
	{"cluster.finish_metrics_ms", "ms", "lower", 0},
	{"cluster.prefix_hit_frac", "ratio", "higher", exact},
	{"cluster.load_imbalance_cv", "ratio", "lower", exact},
	{"cluster.rejected", "count", "lower", exact},

	{"telemetry.sample_us", "us", "lower", 0},
	{"telemetry.due_ns", "ns", "lower", 0},
	{"telemetry.samples", "count", "lower", exact},

	{"workload.gen_us_per_req", "us", "lower", 0},
	{"workload.block_hashes_ns", "ns", "lower", 0},

	{"httpapi.ttft_wall_ms_p99", "ms", "lower", 0},
	{"httpapi.e2e_wall_ms_p99", "ms", "lower", 0},
	{"httpapi.gen_late_ms_p99", "ms", "lower", 0},
	{"httpapi.chunk_wall_us", "us", "lower", 0},
	{"httpapi.bytes_per_chunk", "B", "lower", 0},
	{"httpapi.blocking_ms_p50", "ms", "lower", 0},
	{"httpapi.metrics_scrape_ms", "ms", "lower", 0},
	{"httpapi.overhead_us_p50", "us", "lower", 0},
	{"httpapi.non_200", "count", "lower", exact},

	{"experiments.tab1_ms", "ms", "lower", 0},
	{"experiments.fig8_ms", "ms", "lower", 0},
	{"experiments.fig9_ms", "ms", "lower", 0},
	{"experiments.fig12_ms", "ms", "lower", 0},
	{"core.run_sequence_ms", "ms", "lower", 0},

	{"quant.quantize_k8_ns", "ns", "lower", 0},
	{"quant.dequant_dot_k4_ns", "ns", "lower", 0},
	{"quant.dequant_axpy_v2_ns", "ns", "lower", 0},
	{"quant.dequant_dot_slots_page_ns", "ns", "lower", 0},
	{"attention.compressed_1k_us", "us", "lower", 0},
	{"attention.compressed_1k_allocs", "count", "lower", exact},
	{"policy.gen_step_us", "us", "lower", 0},
	{"synth.gen_head_512_us", "us", "lower", 0},

	{"process.cpu_s", "s", "lower", 0},
	{"process.alloc_mb", "MB", "lower", 0},
	{"process.mallocs_k", "count", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},

	{"bench.spans", "count", "lower", exact},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.traced_digest_match", "count", "higher", exact},
}

// perLayer is the list a traced run reports: outcomes first, then layers.
func perLayer() []metric {
	return append(append([]metric(nil), outcomes...), layers...)
}

// workloadNames in the order they run.
var workloadNames = []string{"decode_heavy", "prefill_churn", "cluster_fleet", "gateway_sse", "paper_tables"}
