//! Compare `bench-all/1` runs against the bounds in `BENCHMARK.json`.
//!
//! ```text
//! bench_diff [--benchmark BENCHMARK.json] BASE.json NEW.json
//! bench_diff [--benchmark BENCHMARK.json] --pairs DIR
//! ```
//!
//! The first form prints one row per (workload, end-to-end metric) with
//! both values and their ratio, lists the per-layer metrics that moved
//! (informational), and exits 1 if any end-to-end metric worsened past
//! its bound or an `error_rate` rose.
//!
//! The second form reads `DIR/A<k>.json` (parent) and `DIR/B<k>.json`
//! (change) for `k = 0, 1, …` — at least ten alternating pairs — and
//! applies the noise rule: a gain needs ≥ 9/10 pairs won *and* a median
//! gap wider than the parent's own inter-quartile spread. It exits 1 on
//! a regression.
//!
//! `--benchmark` defaults to `BENCHMARK.json` in the current directory,
//! then to the one beside this package.

use ledger::diff::{self, Verdict};
use ledger::json::Json;
use std::process::ExitCode;

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn read_benchmark(path: Option<&str>) -> Result<Vec<diff::Bound>, String> {
    let beside = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let path = match path {
        Some(p) => p,
        None if std::path::Path::new("BENCHMARK.json").exists() => "BENCHMARK.json",
        None => beside,
    };
    diff::bounds(&read_json(path)?)
}

fn diff_two(bounds: &[diff::Bound], base: &str, new: &str) -> Result<bool, String> {
    let comparison = diff::compare(bounds, &read_json(base)?, &read_json(new)?)?;
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>8}",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for r in &comparison.end_to_end {
        println!(
            "{:<12} {:<18} {:>14.4} {:>14.4} {:>9.4} {:>7.0}%{}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.ratio(),
            r.bound.unwrap_or(0.0) * 100.0,
            if r.regressed { "  REGRESSED" } else { "" }
        );
    }
    println!(
        "\nper-layer metrics that moved by {:.0} % or more (informational):",
        diff::LAYER_NOTE_THRESHOLD * 100.0
    );
    for r in &comparison.per_layer {
        println!(
            "{:<12} {:<42} {:>14.4} {:>14.4} {:>9.4}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.ratio()
        );
    }
    Ok(comparison.regressed())
}

fn diff_pairs(bounds: &[diff::Bound], dir: &str) -> Result<bool, String> {
    let mut pairs = Vec::new();
    loop {
        let (a, b) = (
            format!("{dir}/A{}.json", pairs.len()),
            format!("{dir}/B{}.json", pairs.len()),
        );
        if !std::path::Path::new(&a).exists() {
            break;
        }
        pairs.push((read_json(&a)?, read_json(&b)?));
    }
    let rows = diff::compare_pairs(bounds, &pairs)?;
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>12} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "IQR A", "B wins"
    );
    for r in &rows {
        println!(
            "{:<12} {:<18} {:>14.4} {:>14.4} {:>12.4} {:>4}/{:<2}  {:?}",
            r.workload, r.metric, r.median_a, r.median_b, r.spread_a, r.wins, r.pairs, r.verdict
        );
    }
    Ok(rows.iter().any(|r| r.verdict == Verdict::Regression))
}

fn run() -> Result<bool, String> {
    let mut benchmark = None;
    let mut pairs_dir = None;
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--benchmark" => benchmark = Some(args.next().ok_or("--benchmark needs a path")?),
            "--pairs" => pairs_dir = Some(args.next().ok_or("--pairs needs a directory")?),
            flag if flag.starts_with("--") => return Err(format!("unknown argument: {flag}")),
            _ => files.push(arg),
        }
    }
    let bounds = read_benchmark(benchmark.as_deref())?;
    match (pairs_dir, files.as_slice()) {
        (Some(dir), []) => diff_pairs(&bounds, &dir),
        (None, [base, new]) => diff_two(&bounds, base, new),
        _ => Err("usage: bench_diff [--benchmark F] BASE.json NEW.json | --pairs DIR".to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("bench_diff: regression past a bound");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::from(2)
        }
    }
}
