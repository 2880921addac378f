package main

// metricDef names one reported number. The lists below are the
// benchmark's contract with BENCHMARK.json (a test compares them): every
// workload prints every end-to-end metric in an untraced run and every
// per-layer metric in a traced run; a layer that is off a workload's
// path reports 0.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression; unused for
	// per-layer metrics, which are never gated.
	Bound float64
}

// The bounds on the four counts are ISSUE 13's. The four wall-clock
// bounds are a quarter, the widest BENCHMARK.json may state, not the
// issue's tenth: on this shared two-core box identical code moves them
// by 3–15 % between the quartiles of ten runs (README.md, "Noise
// evidence"), the pipeline refused the tenth for exactly that, and a
// bound has to sit well above what identical code does.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.02},
	{"sim_ms_per_op", "sim_ms", "lower", 0.001},
	{"oracle_frames_per_op", "frames", "lower", 0.000001},
	{"precision_at_k", "fraction", "higher", 0.005},
}

var perLayer = []metricDef{
	{Name: "driver.trace_overhead_share", Unit: "fraction", Better: "lower"},
	{Name: "driver.ladder_coverage", Unit: "fraction", Better: "higher"},
	{Name: "driver.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.latency_max_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "driver.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "driver.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "driver.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "video.render_calls", Unit: "count", Better: "lower"},
	{Name: "video.render_ms", Unit: "ms", Better: "lower"},

	{Name: "vision.oracle_calls", Unit: "count", Better: "lower"},
	{Name: "vision.oracle_frames", Unit: "frames", Better: "lower"},
	{Name: "vision.oracle_ms", Unit: "ms", Better: "lower"},
	{Name: "vision.frames_per_call", Unit: "frames", Better: "higher"},

	{Name: "phase1.label_ms", Unit: "ms", Better: "lower"},
	{Name: "phase1.features_ms", Unit: "ms", Better: "lower"},
	{Name: "phase1.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "phase1.train_samples", Unit: "count", Better: "lower"},

	{Name: "cmdn.train_ms", Unit: "ms", Better: "lower"},
	{Name: "cmdn.grid_points", Unit: "count", Better: "lower"},
	{Name: "cmdn.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "cmdn.predict_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "cmdn.features_us_per_frame", Unit: "us", Better: "lower"},

	{Name: "nn.fit_us_per_sample", Unit: "us", Better: "lower"},
	{Name: "nn.predict_us", Unit: "us", Better: "lower"},

	{Name: "diffdet.run_ms", Unit: "ms", Better: "lower"},
	{Name: "diffdet.retained_share", Unit: "fraction", Better: "lower"},

	{Name: "workpool.ingest_speedup_p2", Unit: "x", Better: "higher"},
	{Name: "workpool.select_speedup_p2", Unit: "x", Better: "higher"},

	{Name: "windows.build_ms", Unit: "ms", Better: "lower"},
	{Name: "windows.count", Unit: "count", Better: "lower"},

	{Name: "engine.plan_us", Unit: "us", Better: "lower"},
	{Name: "engine.ingest_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.relation_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.sched_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.group_size", Unit: "count", Better: "higher"},
	{Name: "engine.append_ms", Unit: "ms", Better: "lower"},

	{Name: "core.topk_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.tuples", Unit: "count", Better: "lower"},
	{Name: "core.iterations", Unit: "count", Better: "lower"},
	{Name: "core.examined", Unit: "count", Better: "lower"},
	{Name: "core.pruned", Unit: "count", Better: "higher"},
	{Name: "core.cleaned", Unit: "count", Better: "lower"},
	{Name: "core.useful_clean_share", Unit: "fraction", Better: "higher"},

	{Name: "labelstore.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "labelstore.publish_us", Unit: "us", Better: "lower"},
	{Name: "labelstore.hit_share", Unit: "fraction", Better: "higher"},
	{Name: "labelstore.labels", Unit: "count", Better: "lower"},
	{Name: "labelstore.evicted", Unit: "count", Better: "lower"},
	{Name: "labelstore.version_bumps", Unit: "count", Better: "lower"},

	{Name: "oraclemux.requests", Unit: "count", Better: "lower"},
	{Name: "oraclemux.launches", Unit: "count", Better: "lower"},
	{Name: "oraclemux.consolidation_x", Unit: "x", Better: "higher"},
	{Name: "oraclemux.saved_sim_ms", Unit: "sim_ms", Better: "higher"},

	{Name: "durable.append_us", Unit: "us", Better: "lower"},
	{Name: "durable.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.bytes_per_label", Unit: "bytes", Better: "lower"},
	{Name: "durable.files", Unit: "count", Better: "lower"},

	{Name: "stream.idle_append_us", Unit: "us", Better: "lower"},
	{Name: "stream.close_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.follow_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.warm_share", Unit: "fraction", Better: "higher"},
	{Name: "stream.drift_fallbacks", Unit: "count", Better: "lower"},
	{Name: "stream.eager_labels", Unit: "count", Better: "lower"},

	{Name: "eql.parse_us", Unit: "us", Better: "lower"},
	{Name: "eql.bind_ms", Unit: "ms", Better: "lower"},
	{Name: "eql.explain_ms", Unit: "ms", Better: "lower"},
	{Name: "eql.exec_self_ms", Unit: "ms", Better: "lower"},
	{Name: "eql.statements", Unit: "count", Better: "lower"},
	{Name: "eql.shared_units", Unit: "count", Better: "higher"},

	{Name: "simclock.label_ms", Unit: "sim_ms", Better: "lower"},
	{Name: "simclock.train_ms", Unit: "sim_ms", Better: "lower"},
	{Name: "simclock.populate_ms", Unit: "sim_ms", Better: "lower"},
	{Name: "simclock.phase2_ms", Unit: "sim_ms", Better: "lower"},
	{Name: "simclock.speedup_vs_scan", Unit: "x", Better: "higher"},
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit builds the result's metrics object from measured values: exactly
// the names in defs, 0 for any a workload did not measure.
func emit(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
