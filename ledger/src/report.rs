//! The metric catalogue and the two output formats: the one-line result
//! object the benchmark contract reads, and the `bench-all/1` run file.

use crate::stats::percentile;
use crate::workload::Measured;
use bench::emit::json_string;

/// Schema stamp of a `bench_all` run file.
pub const SCHEMA: &str = "bench-all/1";

/// A declared metric: its name and unit, exactly as in `BENCHMARK.json`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 7] = [
    def("setup_s", "s"),
    def("throughput_rps", "req/s"),
    def("latency_p50_us", "us"),
    def("boolean_p50_us", "us"),
    def("count_p50_us", "us"),
    def("enumerate_p50_us", "us"),
    def("peak_rss_mb", "MiB"),
];

/// The metric catalogue of the traced pass: `(name, unit)` in output
/// order.
pub const PER_LAYER: [MetricDef; 67] = [
    def("cq.parse_ns", "ns"),
    def("cq.text_bytes", "bytes"),
    def("service.execute_ns", "ns"),
    def("service.plan_key_ns", "ns"),
    def("service.plan_cache_get_ns", "ns"),
    def("service.self_ns", "ns"),
    def("service.unaccounted_ratio", "ratio"),
    def("service.prepare_miss_ns", "ns"),
    def("service.plan_cache_hit_ratio", "ratio"),
    def("service.plan_cache_evictions", "count"),
    def("service.replace_snapshot_us", "us"),
    def("service.batch_dedup_ratio", "ratio"),
    def("service.batch_speedup", "ratio"),
    def("service.governed_overhead_ratio", "ratio"),
    def("service.p95_us", "us"),
    def("service.p99_us", "us"),
    def("service.max_us", "us"),
    def("hypergraph.build_ns", "ns"),
    def("hypergraph.join_tree_ns", "ns"),
    def("hypergraph.edges_mean", "count"),
    def("heuristics.best_decomposition_ns", "ns"),
    def("heuristics.decompose_auto_ns", "ns"),
    def("heuristics.calls", "count"),
    def("heuristics.width_mean", "count"),
    def("heuristics.tier_exact_ratio", "ratio"),
    def("heuristics.tier_heuristic_optimal_ratio", "ratio"),
    def("heuristics.tier_heuristic_ratio", "ratio"),
    def("core.exact_search_ns", "ns"),
    def("core.validate_ghd_ns", "ns"),
    def("core.decomp_nodes_mean", "count"),
    def("core.decomp_cache_hit_ratio", "ratio"),
    def("core.complete_ns", "ns"),
    def("eval.bind_ns", "ns"),
    def("eval.bound_rows", "rows"),
    def("eval.reduce_ns", "ns"),
    def("eval.node_join_ns", "ns"),
    def("eval.node_rows", "rows"),
    def("eval.node_cells", "count"),
    def("eval.semijoin_ns", "ns"),
    def("eval.full_reduce_ns", "ns"),
    def("eval.enumerate_ns", "ns"),
    def("eval.output_join_ns", "ns"),
    def("eval.output_rows", "rows"),
    def("eval.count_dp_ns", "ns"),
    def("eval.semijoin_survivor_ratio", "ratio"),
    def("relation.join_ns_per_row", "ns"),
    def("relation.semijoin_ns_per_row", "ns"),
    def("relation.index_build_ns_per_row", "ns"),
    def("relation.dedup_ns_per_row", "ns"),
    def("relation.project_ns_per_row", "ns"),
    def("relation.join_sharded2_ns_per_row", "ns"),
    def("relation.semijoin_sharded2_ns_per_row", "ns"),
    def("obs.traced_overhead_ratio", "ratio"),
    def("obs.phase_parse_ns", "ns"),
    def("obs.phase_plan_cache_ns", "ns"),
    def("obs.phase_decompose_ns", "ns"),
    def("obs.phase_plan_ns", "ns"),
    def("obs.phase_reduce_ns", "ns"),
    def("obs.phase_join_ns", "ns"),
    def("obs.phase_enumerate_ns", "ns"),
    def("obs.phase_count_ns", "ns"),
    def("obs.phase_coverage_ratio", "ratio"),
    def("bench.span_cost_ns", "ns"),
    def("bench.staged_overhead_ratio", "ratio"),
    def("bench.staged_requests", "count"),
    def("bench.requests", "count"),
    def("bench.kernel_pair_rows", "rows"),
];

/// A measured value of a declared metric.
pub type Value = (&'static str, f64);

/// Peak resident set of this process in MiB (`VmHWM`), or `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end values of one untraced run.
pub fn end_to_end(measured: &mut Measured, setup_s: f64) -> Vec<Value> {
    let p50_us = |samples: &mut [u64]| percentile(samples, 50.0) as f64 / 1e3;
    let mut all: Vec<u64> = measured.latency_ns.iter().flatten().copied().collect();
    let [boolean, count, enumerate] = &mut measured.latency_ns;
    vec![
        ("setup_s", setup_s),
        (
            "throughput_rps",
            (measured.attempted - measured.failed) as f64 / measured.busy.as_secs_f64(),
        ),
        ("latency_p50_us", p50_us(&mut all)),
        ("boolean_p50_us", p50_us(boolean)),
        ("count_p50_us", p50_us(count)),
        ("enumerate_p50_us", p50_us(enumerate)),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Render `{"name": {"value": v, "unit": u}, …}` for `values`, which must
/// cover `defs` exactly and in order.
pub fn metrics_json(defs: &[MetricDef], values: &[Value]) -> String {
    assert_eq!(defs.len(), values.len(), "every declared metric, once");
    let fields: Vec<String> = defs
        .iter()
        .zip(values)
        .map(|(d, (name, value))| {
            assert_eq!(d.name, *name, "values follow the catalogue order");
            assert!(value.is_finite(), "{name} is not a number: {value}");
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(d.name),
                json_string(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The single-line result object of one run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    )
}
