package main

// metricDef is one reported metric. For per-layer metrics, Moves names
// the end-to-end metric and workload a change to that layer should
// move, written "<metric>@<workload>" — the prediction a performance
// change states before it is measured.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Moves  []string `json:"moves,omitempty"`
}

// endToEnd are the metrics a user of mixedrel sees, measured with
// tracing off. BENCHMARK.json lists the same names, units and
// directions, with each one's regression bound.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "samples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "samples_to_ci", Unit: "count", Better: "lower"},
	{Name: "completed_frac", Unit: "ratio", Better: "higher"},
}

// Workload names.
const (
	wlReproduce = "reproduce-quick"
	wlLUD       = "lud-adaptive"
)

var workloadNames = []string{wlReproduce, wlLUD}

// at builds a "<metric>@<workload>" mapping entry.
func at(metric string, workloads ...string) []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = metric + "@" + w
	}
	return out
}

func join(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// perLayer are the metrics of the traced run, named after mixedrel's
// packages. A metric a workload does not exercise reads 0 on it (for
// example core.* on the campaign workloads, inject.sample_us.* on
// reproduce-quick).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	all := workloadNames
	m := []metricDef{
		{"kernels.mnist_train_s", "s", "lower", at("setup_s", wlReproduce)},
		{"kernels.yolo_build_s", "s", "lower", at("setup_s", wlReproduce)},

		{"exec.artifact_cold_s", "s", "lower", at("setup_s", wlLUD)},
		{"exec.artifact_lookups", "count", "higher", at("wall_s", wlReproduce)},
		{"exec.artifact_computes", "count", "lower", at("wall_s", wlReproduce)},
		{"exec.artifact_hit_frac", "ratio", "higher", at("wall_s", wlReproduce)},

		{"traceir.compile_s", "s", "lower", at("setup_s", wlLUD)},
		{"traceir.regions", "count", "lower", at("setup_s", wlLUD)},
		{"traceir.ops", "count", "lower", at("setup_s", wlLUD)},

		{"fp.fma_ns.half", "ns", "lower", join(at("samples_per_s", wlLUD), at("wall_s", wlReproduce))},
		{"fp.fma_ns.single", "ns", "lower", join(at("samples_per_s", wlLUD), at("wall_s", wlReproduce))},
		{"fp.fma_ns.double", "ns", "lower", join(at("samples_per_s", wlLUD), at("wall_s", wlReproduce))},
		{"fp.dot_ns_per_elem.single", "ns", "lower", at("samples_per_s", wlLUD)},
	}
	injectMoves := join(at("samples_per_s", wlLUD), at("wall_s", wlLUD), at("samples_to_ci", wlLUD))
	for _, d := range []struct{ name, unit, better string }{
		{"inject.sample_us.p50", "us", "lower"},
		{"inject.sample_us.p99", "us", "lower"},
		{"inject.sample_count", "count", "higher"},
		{"inject.ops_per_sample", "count", "lower"},
		{"inject.served_frac", "ratio", "higher"},
		{"inject.sdc_frac", "ratio", "lower"},
		{"inject.crash_frac", "ratio", "lower"},
		{"inject.hang_frac", "ratio", "lower"},
		{"inject.watchdog_fires", "count", "lower"},
		{"inject.backoff_trips", "count", "lower"},
		{"inject.alloc_b_per_sample", "B", "lower"},
	} {
		m = append(m, metricDef{d.name, d.unit, d.better, injectMoves})
	}
	for _, n := range []string{"beam.trial_us.fpga_mxm", "beam.trial_us.fpga_mnist", "beam.trial_us.gpu_mxm"} {
		m = append(m, metricDef{n, "us", "lower", at("wall_s", wlReproduce)})
	}
	for _, id := range experimentIDs {
		m = append(m, metricDef{"core." + id + "_s", "s", "lower", at("wall_s", wlReproduce)})
	}
	m = append(m,
		metricDef{"core.warm_total_s", "s", "lower", at("wall_s", wlReproduce)},
		metricDef{"core.unattributed_s", "s", "lower", at("wall_s", wlReproduce)},

		metricDef{"exec.cpu_util", "ratio", "higher", at("wall_s", wlReproduce, wlLUD)},
		metricDef{"exec.helpers_peak", "count", "higher", at("wall_s", wlReproduce, wlLUD)},

		metricDef{"exec.checkpoint_records", "count", "lower", at("wall_s", wlLUD)},
		metricDef{"exec.checkpoint_fsyncs", "count", "lower", at("wall_s", wlLUD)},
		metricDef{"exec.fsync_s", "s", "lower", at("wall_s", wlLUD)},

		metricDef{"go.gc_cpu_frac", "ratio", "lower", join(at("peak_rss_mb", all...), at("samples_per_s", all...))},
		metricDef{"go.heap_peak_mb", "MB", "lower", join(at("peak_rss_mb", all...), at("samples_per_s", all...))},

		metricDef{"trace.wall_s", "s", "lower", at("wall_s", all...)},
		metricDef{"trace.setup_s", "s", "lower", at("setup_s", all...)},
		metricDef{"trace.overhead_s", "s", "lower", at("wall_s", all...)},
	)
	return m
}

// experimentIDs are reproduce's experiments in paper order. The list is
// fixed here, not read from the program, so the per-layer metric set
// stays the same across commits; the reproduce-quick child checks that
// the program still runs exactly these.
var experimentIDs = []string{
	"table1", "fig2", "fig3", "fig4", "fig5",
	"table2", "fig6", "fig7", "fig8", "fig9",
	"table3", "fig10a", "fig10b", "fig10c", "fig11a", "fig11b", "fig11c", "fig12", "fig13",
	"ext-bf16", "ext-mbu", "ext-accum", "ext-mitigation", "ext-solver", "ext-due",
}
