//! Machine-readable benchmark baselines (`bench/BENCH_eval.json`).
//!
//! The criterion stand-in (see `vendor/criterion`) prints min/median/max to
//! stdout, which is fine for eyeballing but useless for tracking a perf
//! trajectory across PRs. This module measures a fixed set of *evaluation*
//! workloads — the paths that exercise the join kernel — and serialises
//! the results as JSON so before/after numbers can be committed next to
//! the code they describe.
//!
//! Methodology (documented in README.md §Benchmark baselines):
//!
//! * Each entry warms up by doubling the iteration count until one sample
//!   takes a measurable slice of the budget, then records `samples` timed
//!   samples of `iters` iterations each (same scheme as the criterion
//!   stand-in, so numbers are comparable with `cargo bench` output).
//! * Reported times are wall-clock nanoseconds **per iteration**:
//!   min / median / max over the samples.
//! * Workload inputs are seeded deterministically; only the machine and
//!   the kernel under test vary between runs.
//!
//! Run with `cargo run --release -p bench --bin bench_baseline -- --smoke`.

use eval::{Strategy, Unlimited};
use hypertree_core::HypertreeDecomposition;
use std::time::{Duration, Instant};
use workloads::{families, random, xc3s};

/// Per-iteration timing statistics for one workload.
#[derive(Clone, Debug)]
pub struct Stats {
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
    /// Fastest sample, ns per iteration.
    pub min_ns: f64,
    /// Median sample, ns per iteration.
    pub median_ns: f64,
    /// Slowest sample, ns per iteration.
    pub max_ns: f64,
}

/// One measured workload.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Stable workload id (`group/case`), the key used across PRs.
    pub id: &'static str,
    /// Timing statistics.
    pub stats: Stats,
}

/// Sampling configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Timed samples per entry.
    pub sample_size: usize,
    /// Target total measuring time per entry.
    pub measurement_time: Duration,
}

impl Config {
    /// CI-friendly settings: a few hundred milliseconds per entry.
    pub fn smoke() -> Self {
        Config {
            sample_size: 7,
            measurement_time: Duration::from_millis(350),
        }
    }

    /// Local settings comparable to `cargo bench`.
    pub fn full() -> Self {
        Config {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
        }
    }
}

/// Measure `f` under `cfg`: warm up by doubling the iteration count until a
/// sample takes a measurable slice of the budget, then record
/// `cfg.sample_size` timed samples. Shared by the eval and decomposition
/// baselines.
pub fn measure(cfg: &Config, mut f: impl FnMut()) -> Stats {
    let per_sample = cfg.measurement_time.div_f64(cfg.sample_size as f64);
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed() >= per_sample || iters >= 1 << 20 {
            break;
        }
        iters = iters.saturating_mul(2);
    }
    let mut samples: Vec<f64> = Vec::with_capacity(cfg.sample_size);
    for _ in 0..cfg.sample_size {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Stats {
        samples: samples.len(),
        iters,
        min_ns: samples[0],
        median_ns: samples[samples.len() / 2],
        max_ns: *samples.last().unwrap(),
    }
}

/// Lift a query decomposition to a hypertree decomposition by taking
/// `χ(p) = var(λ(p))` — the containment noted with Definition 4.1: every
/// query decomposition *is* a hypertree decomposition under this labelling.
fn qd_to_hd(
    h: &hypergraph::Hypergraph,
    qd: &hypertree_core::QueryDecomposition,
) -> HypertreeDecomposition {
    let chi = qd
        .tree()
        .nodes()
        .map(|n| h.vertices_of_edges(qd.label(n)))
        .collect();
    let lambda = qd.tree().nodes().map(|n| qd.label(n).clone()).collect();
    let hd = HypertreeDecomposition::new(qd.tree().clone(), chi, lambda);
    assert_eq!(hd.validate(h), Ok(()), "QD must lift to a valid HD");
    hd
}

/// Rebuild a query with every predicate renamed to `"{name}{arity}"`, so
/// that predicates reused at several arities (as in the Section 7 gadget)
/// can bind against a [`relation::Database`], which keys relations by
/// name alone. Variable interning order and atom ids are preserved.
fn disambiguate_predicates(q: &cq::ConjunctiveQuery) -> cq::ConjunctiveQuery {
    let mut b = cq::QueryBuilder::default();
    for v in 0..q.num_vars() {
        b.var(q.var_name(hypergraph::VertexId(v as u32)));
    }
    for atom in q.atoms() {
        b.atom(
            format!("{}{}", atom.predicate, atom.arity()),
            atom.terms.clone(),
        );
    }
    b.build()
}

/// The `tps` workload: the Section 7 gadget query (predicates renamed per
/// arity so it can bind), its Fig. 11 width-4 decomposition lifted to a
/// hypertree decomposition, and a planted database. Shared between the
/// JSON baseline and the criterion `tps` bench.
pub fn fig11_workload() -> (
    cq::ConjunctiveQuery,
    HypertreeDecomposition,
    relation::Database,
) {
    let inst = xc3s::Xc3sInstance::new(6, vec![[0, 2, 3], [0, 1, 3], [2, 3, 5], [2, 4, 5]]);
    let red = xc3s::reduce_to_query(&inst);
    let cover = inst.solve().expect("Ie is a positive instance");
    let query = disambiguate_predicates(&red.query);
    let h = query.hypergraph();
    let hd = qd_to_hd(&h, &xc3s::fig11_decomposition(&red, &cover));
    let mut rng = random::rng(0x3B5);
    let db = random::planted_database(&mut rng, &query, 4, 6);
    (query, hd, db)
}

/// Unwrap a measured call that was pre-flighted with `?` before the
/// timing loop: a rerun can only fail nondeterministically, and if it
/// does, the typed error's own rendering is the report. (The bench
/// harness may panic — the panic-free boundary covers the request path
/// itself, which returned through its typed `Result`.)
pub(crate) fn checked<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| panic!("measured call failed after pre-flight: {e}"))
}

/// Run every baseline workload under `cfg`, in a stable order.
///
/// Evaluation errors from the `Strategy`/reduction pipeline propagate
/// typed — the `bench_baseline` bin reports them and exits non-zero
/// instead of panicking through the request path.
pub fn run(cfg: &Config) -> Result<Vec<Entry>, eval::EvalError> {
    let mut entries = Vec::new();

    // --- eval_acyclic: Yannakakis over path queries (the E10a shape). ---
    let q = families::path(5);
    let plan = Strategy::plan(&q);
    for degree in [2usize, 4] {
        let mut rng = random::rng(100 + degree as u64);
        let db = random::blowup_database(&mut rng, 5, 150, degree);
        assert!(
            plan.boolean(&q, &db, &Unlimited)?,
            "blowup instances are true"
        );
        let id = if degree == 2 {
            "eval_acyclic/boolean_path5_deg2"
        } else {
            "eval_acyclic/boolean_path5_deg4"
        };
        let stats = measure(cfg, || {
            std::hint::black_box(checked(plan.boolean(&q, &db, &Unlimited)));
        });
        entries.push(Entry { id, stats });
    }

    // Output-polynomial enumeration (the E13 shape).
    let q = families::path_endpoints(4);
    let plan = Strategy::plan(&q);
    let db = random::successor_database(4, 400);
    let (expect, _) = plan.enumerate(&q, &db, &Unlimited)?;
    let stats = measure(cfg, || {
        let (out, _) = checked(plan.enumerate(&q, &db, &Unlimited));
        assert_eq!(out.len(), expect.len());
        std::hint::black_box(out);
    });
    entries.push(Entry {
        id: "eval_acyclic/enumerate_endpoints_d400",
        stats,
    });

    // --- tps: the Section 7 gadget evaluated through its Fig. 11
    // decomposition (Lemma 4.6 reduction + Yannakakis sweeps). The
    // gadget reuses predicate names at different arities (the 3PS
    // classes differ in size), which a `Database` keyed by name cannot
    // host, so `fig11_workload` renames predicates per arity — atom ids
    // and variables are untouched and the decomposition stays valid.
    let (query, hd, db) = fig11_workload();
    assert!(
        eval::reduction::boolean_via_hd(&query, &db, &hd)?,
        "planted gadget instance must be true"
    );
    let stats = measure(cfg, || {
        let reduced = checked(eval::reduction::reduce(&query, &db, &hd));
        std::hint::black_box(reduced.size_cells());
    });
    entries.push(Entry {
        id: "tps/fig11_reduce",
        stats,
    });
    let stats = measure(cfg, || {
        std::hint::black_box(checked(eval::reduction::boolean_via_hd(&query, &db, &hd)));
    });
    entries.push(Entry {
        id: "tps/fig11_boolean",
        stats,
    });

    Ok(entries)
}

/// Serialise one run as a JSON object (hand-rolled: the workspace builds
/// offline, so no serde). Schema `bench-eval/2`:
///
/// ```json
/// {
///   "schema": "bench-eval/2",
///   "label": "<free-form run label>",
///   "mode": "smoke" | "full",
///   "unit": "ns/iter",
///   "entries": {
///     "<group/case>": {"min": f, "median": f, "max": f,
///                       "samples": n, "iters": n}
///   }
/// }
/// ```
pub fn to_json(label: &str, mode: &str, entries: &[Entry]) -> String {
    to_json_with_schema("bench-eval/2", label, mode, entries)
}

/// [`to_json`] with an explicit schema id — the decomposition baseline
/// emits the same run shape under `bench-decomp/1`.
pub fn to_json_with_schema(schema: &str, label: &str, mode: &str, entries: &[Entry]) -> String {
    let rendered: Vec<(String, String)> = entries
        .iter()
        .map(|e| {
            (
                e.id.to_string(),
                format!(
                    "{{\"min\": {:.1}, \"median\": {:.1}, \"max\": {:.1}, \
                     \"samples\": {}, \"iters\": {}}}",
                    e.stats.min_ns,
                    e.stats.median_ns,
                    e.stats.max_ns,
                    e.stats.samples,
                    e.stats.iters,
                ),
            )
        })
        .collect();
    crate::emit::run_json(
        schema,
        label,
        mode,
        &[("unit", "\"ns/iter\"".to_string())],
        &rendered,
    )
}

pub(crate) use crate::emit::json_string;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_ordered_stats() {
        let cfg = Config {
            sample_size: 3,
            measurement_time: Duration::from_millis(15),
        };
        let stats = measure(&cfg, || {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        assert_eq!(stats.samples, 3);
        assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);
    }

    #[test]
    fn to_json_is_well_formed_enough() {
        let entries = vec![Entry {
            id: "g/case",
            stats: Stats {
                samples: 3,
                iters: 8,
                min_ns: 1.0,
                median_ns: 2.0,
                max_ns: 3.0,
            },
        }];
        let j = to_json("test", "smoke", &entries);
        assert!(j.contains("\"schema\": \"bench-eval/2\""));
        assert!(j.contains("\"g/case\""));
        assert!(j.ends_with("}\n"));
        // Balanced braces (cheap structural check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
