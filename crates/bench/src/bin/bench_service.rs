//! Emit the serving-layer benchmark baseline.
//!
//! ```text
//! cargo run --release -p bench --bin bench_service -- [--smoke] \
//!     [--label <text>] [--out <path>] [--deadline-ms <n>] \
//!     [--metrics-out <path>]
//! ```
//!
//! Prints the `bench-service/5` JSON run to stdout (and to `--out` when
//! given). `--smoke` uses the short CI streams; the default is the longer
//! local replay.
//!
//! Two side modes replace the replay:
//!
//! * `--deadline-ms <n>` runs the *degradation smoke*: every stream is
//!   replayed through a service with that per-request deadline and an
//!   admission cap, and the run succeeds iff every response is an answer
//!   or a typed governance error — CI drives this with a 1 ms deadline
//!   under `timeout` to pin "sheds or errors, never hangs".
//! * `--metrics-out <path>` runs a short traffic sample through one
//!   service, validates the resulting metrics snapshot as Prometheus
//!   text (exit 1 if the renderer ever emits an invalid exposition), and
//!   writes it to `<path>` — CI uploads this as the scrape artifact.
//!
//! Recorded runs live in `bench/BENCH_service.json`; see README.md
//! §Query serving.

use bench::{emit, serving};

fn main() {
    let args = emit::parse_common("bench_service", &["--deadline-ms", "--metrics-out"]);
    let cfg = if args.smoke {
        serving::ServeConfig::smoke()
    } else {
        serving::ServeConfig::full()
    };

    if let Some(ms) = args.value_of("--deadline-ms") {
        let ms: u64 = ms.parse().expect("--deadline-ms takes an integer");
        let (answered, tripped, shed) =
            serving::run_deadline_smoke(&cfg, std::time::Duration::from_millis(ms));
        println!(
            "deadline smoke ({ms} ms): {answered} answered, {tripped} budget-tripped, \
             {shed} shed — no hangs, no untyped failures"
        );
        return;
    }

    if let Some(path) = args.value_of("--metrics-out") {
        let text = match serving::sample_metrics(args.smoke) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("bench_service: metrics sample failed: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = obs::validate_prometheus(&text) {
            eprintln!("bench_service: invalid Prometheus exposition: {e}");
            std::process::exit(1);
        }
        std::fs::write(path, &text).expect("write --metrics-out file");
        eprintln!("bench_service: wrote valid Prometheus snapshot to {path}");
        return;
    }

    let entries = match serving::run(&cfg) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("bench_service: service error: {e}");
            std::process::exit(1);
        }
    };
    let json = serving::to_json(&args.label, args.mode(), &cfg, &entries);
    emit::write_run("bench_service", &json, args.out.as_deref());
}
