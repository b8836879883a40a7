//! The ledger's one command.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml --bin bench_all -- \
//!     [--seed N] [--seconds S] [--smoke] [--label L] [--out F] [--spans-out F]
//!     [--workload W --trace 0|1]
//! ```
//!
//! Without `--workload` it runs all five workloads, each in two fresh
//! child processes (an untraced run for the end-to-end metrics, then a
//! traced run for the per-layer ones), prints the `bench-all/1` run to
//! stdout (and `--out`) and a table to stderr, and exits non-zero if any
//! answer was wrong or any counter gate failed.
//!
//! With `--workload W --seed N --seconds S --trace T` it is the program
//! `BENCHMARK.json` names: one run of one workload whose last line of
//! standard output is `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Every measurement runs in a child process started with pinned glibc
//! allocator thresholds (see [`ALLOCATOR_ENV`]).

use bench::emit;
use ledger::json::Json;
use ledger::report::{self, MetricDef, END_TO_END, PER_LAYER};
use ledger::staged;
use ledger::stats::median;
use ledger::workload::{measure, Bench, BenchError, Window, Workload};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const DEFAULT_SEED: u64 = 0xB11;
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-up is timed this many times per untraced run; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 5;
/// Marks a process that already runs under [`ALLOCATOR_ENV`].
const CHILD_MARK: &str = "LEDGER_MEASURING";
/// glibc's malloc adapts its mmap and trim thresholds to the sizes it has
/// seen, so whether a 1 MiB node relation is served from the heap or by a
/// fresh `mmap` (page faults on every request) depends on allocation
/// history: two seeds of `hot_data` differed by 40 % in `count_p50_us`
/// for that reason alone. Fixing both thresholds turns the adaptation
/// off and keeps freed memory in the heap — the steady state of a
/// long-running server.
const ALLOCATOR_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "2147483647"),
];

/// The checked command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    common: emit::CommonArgs,
}

fn parse_args() -> Result<Args, String> {
    let common = emit::parse_common(
        "bench_all",
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--spans-out",
        ],
    );
    let workload = match common.value_of("--workload") {
        None => None,
        Some(name) => Some(Workload::from_name(name).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?} (one of {})", names.join(", "))
        })?),
    };
    let seed = match common.value_of("--seed") {
        None => DEFAULT_SEED,
        Some(s) => match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        }
        .map_err(|e| format!("--seed {s:?}: {e}"))?,
    };
    let seconds = match common.value_of("--seconds") {
        None if common.smoke => DEFAULT_SECONDS / 20.0,
        None => DEFAULT_SECONDS,
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0 && *v <= 600.0)
            .ok_or_else(|| format!("--seconds {s:?}: a number of seconds in (0, 600]"))?,
    };
    let traced = match common.value_of("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?}: 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        common,
    })
}

/// This executable again, with `args`, under the pinned allocator.
fn child(args: &[String]) -> std::io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(args).envs(ALLOCATOR_ENV).env(CHILD_MARK, "1");
    Ok(cmd)
}

/// One run of one workload; prints the result line.
fn run_single(workload: Workload, args: &Args) -> Result<bool, BenchError> {
    let (line, failed) = if args.traced {
        let bench = Bench::set_up(workload, args.seed)?;
        let traced = staged::trace(&bench, Window::Seconds(args.seconds))?;
        if let Some(path) = args.common.value_of("--spans-out") {
            match traced.recorder.write_to(path) {
                Ok(()) => eprintln!(
                    "bench_all: wrote {} spans to {path}",
                    traced.recorder.spans().len()
                ),
                Err(e) => eprintln!("bench_all: cannot write {path}: {e}"),
            }
        }
        (
            report::result_line(
                traced.failed == 0,
                traced.attempted,
                traced.failed,
                &report::metrics_json(&PER_LAYER, &traced.values),
            ),
            traced.failed,
        )
    } else {
        // The first set-up of a process also pays for faulting in the
        // binary and growing the heap, and runs before the cores are
        // awake: it is made but not timed.
        let mut bench = Bench::set_up(workload, args.seed)?;
        let repeats = if args.common.smoke { 1 } else { SETUP_REPEATS };
        let mut setups = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            drop(bench);
            let t0 = Instant::now();
            bench = Bench::set_up(workload, args.seed)?;
            setups.push(t0.elapsed().as_secs_f64());
        }
        let mut measured = measure(&bench, Window::Seconds(args.seconds))?;
        let values = report::end_to_end(&mut measured, median(&setups));
        (
            report::result_line(
                measured.failed == 0,
                measured.attempted,
                measured.failed,
                &report::metrics_json(&END_TO_END, &values),
            ),
            measured.failed,
        )
    };
    println!("{line}");
    Ok(failed == 0)
}

/// Run `workload` in a child and parse its result line.
fn run_child(workload: Workload, args: &Args, traced: bool) -> Result<Json, String> {
    let mut argv = vec![
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        // The traced pass has no bound to defend; half the window keeps
        // the whole command inside its budget.
        (if traced {
            args.seconds / 2.0
        } else {
            args.seconds
        })
        .to_string(),
        "--trace".to_string(),
        u8::from(traced).to_string(),
    ];
    if args.common.smoke {
        argv.push("--smoke".to_string());
    }
    if let (true, Some(path)) = (traced, args.common.value_of("--spans-out")) {
        argv.extend([
            "--spans-out".to_string(),
            format!("{path}.{}", workload.name()),
        ]);
    }
    let what = format!("{} (trace {})", workload.name(), u8::from(traced));
    let output = child(&argv)
        .and_then(|mut c| c.stdout(Stdio::piped()).stderr(Stdio::inherit()).output())
        .map_err(|e| format!("{what}: cannot run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{what}: no result line ({})", output.status))?;
    Json::parse(line).map_err(|e| format!("{what}: {e}"))
}

fn host_fact(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn value_of(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn table(title: &str, defs: &[MetricDef], results: &[(Workload, Json)]) {
    eprintln!("\n{title}");
    eprint!("{:<48}", "");
    for (w, _) in results {
        eprint!("{:>14}", w.name());
    }
    eprintln!();
    for d in defs {
        eprint!("{:<48}", format!("{} [{}]", d.name, d.unit));
        for (_, r) in results {
            eprint!("{:>14.4}", value_of(r, d.name));
        }
        eprintln!();
    }
}

/// All five workloads, each untraced then traced, in child processes.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for w in Workload::ALL {
        untraced.push((w, run_child(w, args, false)?));
        traced.push((w, run_child(w, args, true)?));
    }
    let count = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let metrics = |r: &Json, defs: &[MetricDef]| {
        let values: Vec<report::Value> =
            defs.iter().map(|d| (d.name, value_of(r, d.name))).collect();
        report::metrics_json(defs, &values)
    };
    let mut all_correct = true;
    let entries: Vec<(String, String)> = untraced
        .iter()
        .zip(&traced)
        .map(|((w, e2e), (_, layers))| {
            let correct = [e2e, layers]
                .iter()
                .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
            all_correct &= correct;
            let (attempted, failed) = (count(e2e, "attempted"), count(e2e, "failed"));
            (
                w.name().to_string(),
                format!(
                    "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
                     \"error_rate\": {}, \"traced_attempted\": {}, \"traced_failed\": {}, \
                     \"end_to_end\": {}, \"per_layer\": {}}}",
                    failed / attempted,
                    count(layers, "attempted"),
                    count(layers, "failed"),
                    metrics(e2e, &END_TO_END),
                    metrics(layers, &PER_LAYER),
                ),
            )
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let json = emit::run_json(
        report::SCHEMA,
        &args.common.label,
        args.common.mode(),
        &[
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("cores", cores.to_string()),
            (
                "rustc",
                emit::json_string(&host_fact("rustc", &["--version"])),
            ),
            (
                "commit",
                emit::json_string(&host_fact("git", &["rev-parse", "--short", "HEAD"])),
            ),
        ],
        &entries,
    );
    table("end to end (tracing off)", &END_TO_END, &untraced);
    table("per layer (traced pass)", &PER_LAYER, &traced);
    emit::write_run("bench_all", &json, args.common.out.as_deref());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_all: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        None => run_all(&args),
        Some(workload) if std::env::var_os(CHILD_MARK).is_some() => {
            run_single(workload, &args).map_err(|e| e.to_string())
        }
        // Re-enter under the pinned allocator; the child prints the result.
        Some(_) => {
            let argv: Vec<String> = std::env::args().skip(1).collect();
            return match child(&argv).and_then(|mut c| c.status()) {
                Ok(status) => ExitCode::from(status.code().map_or(1, |c| c.clamp(0, 255) as u8)),
                Err(e) => {
                    eprintln!("bench_all: cannot re-run under the pinned allocator: {e}");
                    ExitCode::from(2)
                }
            };
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_all: wrong answers or typed errors; see the failed counts");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("bench_all: {e}");
            ExitCode::from(2)
        }
    }
}
