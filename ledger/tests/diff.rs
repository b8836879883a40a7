//! `bench_diff`'s two rules, on synthetic `bench-all/1` runs.

use ledger::diff::{bounds, compare, compare_pairs, Verdict, MIN_PAIRS};
use ledger::json::Json;

const BENCHMARK: &str = r#"{"end_to_end": [
    {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
    {"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.1}]}"#;

/// A one-workload run with the given values.
fn run(latency: f64, throughput: f64, error_rate: f64, parse_ns: f64) -> Json {
    let entry = format!(
        "{{\"error_rate\": {error_rate}, \"end_to_end\": {{\
         \"latency_p50_us\": {{\"value\": {latency}, \"unit\": \"us\"}}, \
         \"throughput_rps\": {{\"value\": {throughput}, \"unit\": \"req/s\"}}}}, \
         \"per_layer\": {{\"cq.parse_ns\": {{\"value\": {parse_ns}, \"unit\": \"ns\"}}}}}}"
    );
    let text = bench::emit::run_json(
        "bench-all/1",
        "synthetic",
        "full",
        &[],
        &[("hot_front".to_string(), entry)],
    );
    Json::parse(&text).expect("the emitter writes JSON")
}

fn limits() -> Vec<ledger::diff::Bound> {
    bounds(&Json::parse(BENCHMARK).unwrap()).unwrap()
}

#[test]
fn within_bounds_passes_and_layer_moves_are_only_noted() {
    let c = compare(
        &limits(),
        &run(100.0, 1000.0, 0.0, 50.0),
        &run(108.0, 950.0, 0.0, 80.0),
    )
    .unwrap();
    assert!(!c.regressed());
    assert_eq!(c.end_to_end.len(), 3, "two metrics and error_rate");
    let latency = &c.end_to_end[0];
    assert_eq!(latency.metric, "latency_p50_us");
    assert!((latency.worse_by - 0.08).abs() < 1e-12);
    assert!((latency.ratio() - 1.08).abs() < 1e-12);
    assert_eq!(c.per_layer.len(), 1, "parse moved by 60 %: noted");
    assert!(!c.per_layer[0].regressed, "never failed");
}

#[test]
fn direction_matters_and_past_the_bound_fails() {
    let base = run(100.0, 1000.0, 0.0, 50.0);
    // Latency up 11 % is a regression; down 50 % is not.
    assert!(compare(&limits(), &base, &run(111.0, 1000.0, 0.0, 50.0))
        .unwrap()
        .regressed());
    assert!(!compare(&limits(), &base, &run(50.0, 1000.0, 0.0, 50.0))
        .unwrap()
        .regressed());
    // Throughput down 11 % is a regression; up 50 % is not.
    assert!(compare(&limits(), &base, &run(100.0, 889.0, 0.0, 50.0))
        .unwrap()
        .regressed());
    assert!(!compare(&limits(), &base, &run(100.0, 1500.0, 0.0, 50.0))
        .unwrap()
        .regressed());
}

#[test]
fn any_rise_in_error_rate_fails() {
    let c = compare(
        &limits(),
        &run(100.0, 1000.0, 0.0, 50.0),
        &run(90.0, 1100.0, 0.001, 50.0),
    )
    .unwrap();
    assert!(c.regressed());
    let row = c
        .end_to_end
        .iter()
        .find(|r| r.metric == "error_rate")
        .unwrap();
    assert!(row.regressed);
}

#[test]
fn mismatched_runs_are_typed_errors() {
    let other = Json::parse("{\"schema\": \"bench-service/4\", \"entries\": {}}").unwrap();
    assert!(compare(&limits(), &other, &run(1.0, 1.0, 0.0, 1.0)).is_err());
    let empty = Json::parse("{\"schema\": \"bench-all/1\", \"entries\": {}}").unwrap();
    assert!(compare(&limits(), &run(1.0, 1.0, 0.0, 1.0), &empty).is_err());
    assert!(bounds(&Json::parse("{}").unwrap()).is_err());
}

/// Ten pairs: A's latency wobbles ±`noise` around 100, B's around `b`.
fn pairs(b: f64, noise: f64) -> Vec<(Json, Json)> {
    (0..MIN_PAIRS)
        .map(|k| {
            let wobble = noise * (k as f64 - 4.5) / 4.5;
            (
                run(100.0 + wobble, 1000.0, 0.0, 50.0),
                run(b - wobble, 1000.0, 0.0, 50.0),
            )
        })
        .collect()
}

fn latency_verdict(pairs: &[(Json, Json)]) -> Verdict {
    let rows = compare_pairs(&limits(), pairs).unwrap();
    rows.iter()
        .find(|r| r.metric == "latency_p50_us")
        .unwrap()
        .verdict
}

#[test]
fn the_pair_rule_needs_wins_and_a_gap_wider_than_the_parents_spread() {
    // B wins every pair by far more than A's spread: a gain.
    assert_eq!(latency_verdict(&pairs(80.0, 2.0)), Verdict::Gain);
    // B's median is 3 lower but A's own runs spread over 7: no claim.
    assert_eq!(latency_verdict(&pairs(97.0, 6.0)), Verdict::Unchanged);
    // B is 15 % slower: a regression whatever the spread.
    assert_eq!(latency_verdict(&pairs(115.0, 2.0)), Verdict::Regression);
    // A spreads wider than the bound and B does not beat all of it.
    assert_eq!(latency_verdict(&pairs(100.0, 30.0)), Verdict::Unresolved);
    // Throughput never moved.
    let rows = compare_pairs(&limits(), &pairs(80.0, 2.0)).unwrap();
    let t = rows.iter().find(|r| r.metric == "throughput_rps").unwrap();
    assert_eq!(
        (t.verdict, t.wins, t.pairs),
        (Verdict::Unchanged, 0, MIN_PAIRS)
    );
}

#[test]
fn fewer_than_ten_pairs_are_refused() {
    assert!(compare_pairs(&limits(), &pairs(80.0, 2.0)[..9]).is_err());
}
