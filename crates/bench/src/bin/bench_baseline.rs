//! Emit the machine-readable evaluation benchmark baseline.
//!
//! ```text
//! cargo run --release -p bench --bin bench_baseline -- [--smoke] \
//!     [--label <text>] [--out <path>]
//! ```
//!
//! Prints the `bench-eval/2` JSON run to stdout (and to `--out` when
//! given). `--smoke` uses the short CI budget; the default is the longer
//! local budget. Recorded before/after pairs live in
//! `bench/BENCH_eval.json`; see README.md §Benchmark baselines.

use bench::{baseline, emit};

fn main() {
    let args = emit::parse_common("bench_baseline", &[]);
    let cfg = if args.smoke {
        baseline::Config::smoke()
    } else {
        baseline::Config::full()
    };
    let entries = match baseline::run(&cfg) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("bench_baseline: evaluation failed: {e}");
            std::process::exit(1);
        }
    };
    let json = baseline::to_json(&args.label, args.mode(), &entries);
    emit::write_run("bench_baseline", &json, args.out.as_deref());
}
