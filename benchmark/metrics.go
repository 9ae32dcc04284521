package main

// metricDef is one named metric of the benchmark's contract;
// BENCHMARK.json at the repository root lists the same definitions
// (TestManifestMatchesCatalogue keeps the two equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening --compare counts as a regression
	// (end-to-end metrics only): the figure the benchmark's issue fixed.
	Bound float64
	// Gate is the `bound` BENCHMARK.json states. The driver that reads
	// that file refuses a benchmark whose own run-to-run spread exceeds
	// it, so it is the smallest bound this class of host holds (README.md,
	// "Bounds"), never below Bound and never above the contract's 0.25.
	Gate float64
	// Exact marks a per-layer count that repeats exactly for a seed, so
	// --compare reports any difference.
	Exact bool
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off against the built programs. Every workload reports every
// one; see README.md for what each means on a batch and a serve
// workload. fail_share, the eighth end-to-end figure, is 0 on every
// healthy run and so cannot carry a relative bound: it travels as the
// result line's failed/attempted and in every report, and --compare
// fails on any rise.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "throughput_rps", Unit: "req/s", Better: "higher", Bound: 0.10, Gate: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.15, Gate: 0.25},
	{Name: "slo_share", Unit: "share", Better: "higher", Bound: 0.02, Gate: 0.02},
}

// engines maps the metric prefix (the repo's engine package) to the
// label the engine gives its trace.Recorder samples, and to the volume
// counter reported for it.
var engines = []struct{ pkg, label, volume string }{
	{"dataflow", "spark", "shuffle_bytes"},
	{"relational", "simsql", "shuffle_rows"},
	{"gas", "graphlab", "ghost_bytes"},
	{"bsp", "giraph", "messages"},
	{"psengine", "ps", "push_bytes"},
}

// perLayer are the single-layer metrics of the traced pass.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	count := func(name string) metricDef {
		return metricDef{Name: name, Unit: "count", Better: "lower", Exact: true}
	}
	defs := []metricDef{
		lo("linalg.cholesky_us_n200", "us"),
		lo("linalg.cholsolve_us_n200", "us"),
		lo("linalg.addouter_us_n200", "us"),
		lo("linalg.solvelower_us_n200", "us"),

		lo("models.lasso_samplebeta_ms_p200", "ms"),
		lo("models.gmm_logdensity_ns_d10", "ns"),
		lo("models.gmm_logdensity_ns_d100", "ns"),
		lo("models.lda_resample_ns_per_token_dense", "ns"),
		lo("models.lda_resample_ns_per_token_mhalias", "ns"),
		lo("models.hmm_resample_ns_per_token_dense", "ns"),
		lo("models.hmm_resample_ns_per_token_mhalias", "ns"),
		lo("models.impute_draw_us", "us"),

		lo("randgen.norm_ns", "ns"),
		lo("randgen.gamma_ns", "ns"),
		lo("randgen.categorical_ns_k100", "ns"),
		lo("randgen.alias_draw_ns", "ns"),
		lo("randgen.dirichlet_us_k100", "us"),

		lo("workload.corpus_open_us", "us"),
		lo("workload.gmm_gen_ns_per_point", "ns"),
		hi("datagen.corpus_docs_per_s", "1/s"),
		lo("datagen.fingerprint_ms", "ms"),

		lo("sim.runphase_wide_us", "us"),
		lo("sim.runphase_merge_us", "us"),
		lo("sim.source_stream_ns_per_elem", "ns"),
	}
	for _, e := range engines {
		defs = append(defs,
			lo(e.pkg+".busy_s", "s"),
			count(e.pkg+".phases"),
			count(e.pkg+".tasks"),
			lo(e.pkg+".host_us_per_task", "us"),
			count(e.pkg+"."+e.volume),
		)
	}
	defs = append(defs,
		lo("faults.busy_s", "s"),
		count("faults.cells"),

		lo("bench.execute_s", "s"),
		count("bench.cells"),
		metricDef{Name: "bench.virt_s", Unit: "s", Better: "lower", Exact: true},
		lo("bench.cachekey_us", "us"),
		lo("bench.render_us", "us"),

		// serve.submitted is exact on serve-cold only (every request is a
		// miss); on serve-zipf it depends on which requests coalesce.
		metricDef{Name: "serve.submitted", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.cache_hits", Unit: "count", Better: "higher"},
		metricDef{Name: "serve.coalesced", Unit: "count", Better: "higher"},
		metricDef{Name: "serve.rejected", Unit: "count", Better: "lower"},
		hi("serve.hit_share", "share"),
		lo("serve.queue_depth_max", "count"),
		hi("serve.workers_busy_mean", "count"),
		lo("serve.server_latency_p50_ms", "ms"),
		lo("serve.queue_wait_p50_ms", "ms"),
		lo("serve.queue_wait_p90_ms", "ms"),
		lo("serve.service_p50_ms", "ms"),
		lo("serve.submit_hit_us", "us"),
		lo("serve.submit_miss_us", "us"),
		lo("serve.http_post_us", "us"),
		lo("serve.status_get_us", "us"),
		lo("serve.list_us", "us"),
		lo("serve.table_get_us", "us"),
		lo("serve.boot_ms", "ms"),
		lo("serve.drain_s", "s"),

		lo("loadgen.schedule_us", "us"),
		lo("loadgen.replay_ms", "ms"),

		lo("trace.export_chrome_ms", "ms"),
		lo("trace.overhead_share", "share"),
		lo("ordmap.set_get_ns", "ns"),

		lo("proc.build_s", "s"),
		lo("proc.rss_peak_mb", "MB"),
		lo("proc.alloc_mb", "MB"),
		lo("proc.gc_count", "count"),
		lo("proc.gc_pause_ms", "ms"),

		lo("gen.late_p99_ms", "ms"),
		lo("gen.late_max_ms", "ms"),
		lo("gen.poll_interval_ms", "ms"),
	)
	return defs
}

// defOf finds a metric definition by name in either list.
func defOf(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
