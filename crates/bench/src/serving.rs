//! The serving-layer benchmark (`bench/BENCH_service.json`, schema
//! `bench-service/5`).
//!
//! Where the other harnesses time isolated phases (kernel, decomposition,
//! heuristics), this one replays *request streams* through a
//! [`service::Service`] — the full front-end path: parse → plan-cache →
//! decomposition-cache → execute against the snapshot. Per stream it
//! records
//!
//! * the **cold** regime: caches cleared before every request, so each
//!   one pays parse + plan + decompose + evaluate (the life of a system
//!   without the serving layer);
//! * the **hot** regime: the working set prepared once, then replayed —
//!   each request is a plan-cache hit whose cost is parse + key + one
//!   `Arc` clone + evaluate. The hot phase is gated on the counters:
//!   zero plan compilations, zero decompositions;
//! * the **hot governed** regime: a hot replay through a service with
//!   resource governance on (a generous deadline and byte quota that
//!   never trip), asserting identical answers — the column that tracks
//!   what cooperative budget polling costs on the hot path (the
//!   acceptance bar is ≤ 5% over the ungoverned hot median). The plain
//!   and governed hot replays are interleaved request by request so both
//!   medians sample the same noise environment;
//! * the **hot traced** regime: the same hot replay through
//!   [`service::Service::execute_traced`] on the *same* service as the
//!   plain hot replay (third leg of the interleave), asserting
//!   byte-identical answers — the column that tracks what full
//!   per-request tracing costs, and the source of the per-phase medians
//!   (`phases` in the JSON);
//! * a **mixed** 80/20 replay (80% of requests over the two hottest
//!   queries, the rest uniform) starting cold — the shape of real
//!   traffic;
//! * one **batch** submission of the whole stream with mixed
//!   boolean/count/enumerate operations, exercising dedup plus the
//!   scoped-thread execution path.
//!
//! Streams come from the three workload tiers: `workloads::families`
//! (cycles, grids, hypercycles), `workloads::large` (banded CSPs via
//! their canonical queries), and `workloads::tps`/`xc3s` (the Section 7
//! gadget query).
//!
//! Run with `cargo run --release -p bench --bin bench_service -- [--smoke]`.

use crate::baseline::fig11_workload;
use crate::emit;
use cq::canonical_query;
use relation::Database;
use service::{Outcome, Request, Service};
use std::sync::Arc;
use std::time::Instant;
use workloads::{families, large, random};

/// Replay configuration for one run.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Requests per stream per regime (cold / hot / mixed).
    pub requests: usize,
    /// Use the short smoke-tier streams.
    pub smoke: bool,
}

impl ServeConfig {
    /// CI-friendly: short streams, few requests.
    pub fn smoke() -> Self {
        ServeConfig {
            requests: 12,
            smoke: true,
        }
    }

    /// Local settings for recorded baselines.
    pub fn full() -> Self {
        ServeConfig {
            requests: 48,
            smoke: false,
        }
    }
}

/// One request stream: a working set of query texts over one database.
pub struct Stream {
    /// Stable `tier/case` id.
    pub id: String,
    /// The working set, as served (query texts).
    pub texts: Vec<String>,
    /// The database snapshot the stream runs against.
    pub db: Database,
}

/// One measured stream.
#[derive(Clone, Debug)]
pub struct ServeEntry {
    /// Stable `tier/case` id.
    pub id: String,
    /// Working-set size (distinct query texts).
    pub working_set: usize,
    /// Requests per regime.
    pub requests: usize,
    /// Median per-request latency with caches cleared before each
    /// request, nanoseconds.
    pub cold_median_ns: u128,
    /// Median per-request latency with the working set fully cached,
    /// nanoseconds.
    pub hot_median_ns: u128,
    /// Median per-request latency of the hot replay with resource
    /// governance on (roomy deadline + byte quota, so the budget is
    /// polled but never trips), nanoseconds.
    pub hot_governed_median_ns: u128,
    /// Median per-request latency of the hot replay through
    /// [`service::Service::execute_traced`] (full tracing on),
    /// nanoseconds.
    pub hot_traced_median_ns: u128,
    /// Median nanoseconds per phase across the traced hot replay, in
    /// [`obs::Phase::ALL`] order (zeros for phases the stream never
    /// enters).
    pub phase_median_ns: [u128; obs::Phase::COUNT],
    /// Median per-request latency of the 80/20 mixed replay, nanoseconds.
    pub mixed_median_ns: u128,
    /// Wall-clock of serving the whole stream as one batch, nanoseconds.
    pub batch_ns: u128,
    /// Requests in that batch.
    pub batch_requests: usize,
    /// Final service counters (whole stream, all regimes).
    pub plan_hits: u64,
    /// Plan-cache misses across the stream.
    pub plan_misses: u64,
    /// Decomposition-cache misses (each one decomposed) across the
    /// stream.
    pub decomp_misses: u64,
}

impl ServeEntry {
    /// Cold-over-hot median latency ratio — the factor the serving layer
    /// saves on repeated queries.
    pub fn speedup(&self) -> f64 {
        self.cold_median_ns as f64 / self.hot_median_ns.max(1) as f64
    }
}

/// The request streams for a run. Ids are stable across runs (bench
/// entries key on them); smoke mode uses shorter family members so CI
/// stays fast.
pub fn streams(smoke: bool) -> Vec<Stream> {
    let mut out = Vec::new();

    // families/cycle — hw = 2, planning is cheap (the heuristic lands on
    // the acyclicity lower bound), so this is the *adversarial* entry for
    // the serving layer: the smallest gap it still has to win.
    let ns: &[usize] = if smoke {
        &[12, 16, 20]
    } else {
        &[16, 24, 32, 40]
    };
    let q_max = families::cycle(*ns.last().unwrap());
    let db = random::planted_database(&mut random::rng(0x5EC1), &q_max, 8, 12);
    out.push(Stream {
        id: "families/cycle".into(),
        texts: ns.iter().map(|&n| families::cycle(n).to_string()).collect(),
        db,
    });

    // families/grid — wider (hw grows with the short side, and the
    // bounded exact deepening works for its budget at k = 2..3), so
    // planning dominates evaluation.
    let hs: &[usize] = if smoke { &[4, 5] } else { &[4, 5, 6, 7] };
    let q_max = families::grid(4, *hs.last().unwrap());
    let db = random::planted_database(&mut random::rng(0x5EC2), &q_max, 4, 6);
    out.push(Stream {
        id: "families/grid4".into(),
        texts: hs
            .iter()
            .map(|&h| families::grid(4, h).to_string())
            .collect(),
        db,
    });

    // families/hypercycle — arity-3 atoms, hw = 2.
    let ns: &[usize] = if smoke { &[8, 10] } else { &[10, 14, 18] };
    let q_max = families::hypercycle(*ns.last().unwrap(), 3);
    let db = random::planted_database(&mut random::rng(0x5EC3), &q_max, 6, 8);
    out.push(Stream {
        id: "families/hypercycle3".into(),
        texts: ns
            .iter()
            .map(|&n| families::hypercycle(n, 3).to_string())
            .collect(),
        db,
    });

    // large/band — canonical queries of the large tier: planning means a
    // full heuristic GHD over hundreds of edges.
    let take = if smoke { 1 } else { 2 };
    for inst in large::large_tier().into_iter().take(take) {
        let q = canonical_query(&inst.h);
        let db = random::planted_database(
            &mut random::rng(0xEB0 ^ inst.h.num_edges() as u64),
            &q,
            3,
            2,
        );
        out.push(Stream {
            id: format!("large/{}", inst.name.replace('/', "_")),
            texts: vec![q.to_string()],
            db,
        });
    }

    // tps/xc3s — the Section 7 NP-hardness gadget as a query (38 atoms,
    // 115 variables, heuristic width ≈ 6): the heaviest single plan.
    let (query, _hd, db) = fig11_workload();
    out.push(Stream {
        id: "tps/xc3s".into(),
        texts: vec![query.to_string()],
        db,
    });

    out
}

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Unpack a boolean response through the typed error surface: a
/// [`service::ServiceError`] propagates to the caller (the bin reports
/// it and exits non-zero). A *successful* non-boolean outcome is a
/// harness bug — the replay only submits boolean requests — and may
/// panic (bench code sits outside the panic-free boundary).
fn expect_bool(id: &str, resp: service::Response) -> Result<bool, service::ServiceError> {
    match resp {
        Ok(Outcome::Boolean(b)) => Ok(b),
        Ok(other) => panic!("{id}: requested a boolean, got {other:?}"),
        Err(e) => Err(e),
    }
}

/// Replay one stream under `cfg`. Service errors propagate typed.
pub fn run_stream(cfg: &ServeConfig, stream: Stream) -> Result<ServeEntry, service::ServiceError> {
    let id = stream.id.clone();
    let db = Arc::new(stream.db);
    let svc = Service::new(Arc::clone(&db));
    let reqs: Vec<Request> = (0..cfg.requests)
        .map(|i| Request::boolean(stream.texts[i % stream.texts.len()].clone()))
        .collect();

    // Cold: every request pays the whole pipeline.
    let mut cold = Vec::with_capacity(reqs.len());
    let mut answers = Vec::with_capacity(reqs.len());
    for r in &reqs {
        svc.clear_caches();
        let t0 = Instant::now();
        let resp = svc.execute(r);
        cold.push(t0.elapsed().as_nanos());
        answers.push(expect_bool(&id, resp)?);
    }

    // Warm the working set on the plain service and on a governed twin
    // whose deadline and byte quota are generous enough that no request
    // ever trips — the only difference from the plain replay is the
    // cooperative budget polling itself. The three hot replays (plain,
    // governed, traced) are *interleaved* request by request so all
    // medians sample the same noise environment (separate phases on a
    // shared host can drift by more than the overheads being measured).
    // The counters gate the whole point: the hot phase must not compile
    // or decompose anything.
    let svc_governed = Service::with_config(
        Arc::clone(&db),
        service::ServiceConfig {
            deadline: Some(std::time::Duration::from_secs(600)),
            max_result_bytes: Some(1 << 44),
            ..Default::default()
        },
    );
    for text in &stream.texts {
        expect_bool(&id, svc.execute(&Request::boolean(text.clone())))?;
        expect_bool(&id, svc_governed.execute(&Request::boolean(text.clone())))?;
    }
    let warm = svc.stats();
    let mut hot = Vec::with_capacity(reqs.len());
    let mut hot_governed = Vec::with_capacity(reqs.len());
    let mut hot_traced = Vec::with_capacity(reqs.len());
    let mut traces = Vec::with_capacity(reqs.len());
    for (r, &cold_answer) in reqs.iter().zip(&answers) {
        let t0 = Instant::now();
        let resp = svc.execute(r);
        hot.push(t0.elapsed().as_nanos());
        assert_eq!(expect_bool(&id, resp)?, cold_answer, "{id}: answer drifted");
        let t0 = Instant::now();
        let resp = svc_governed.execute(r);
        hot_governed.push(t0.elapsed().as_nanos());
        assert_eq!(
            expect_bool(&id, resp)?,
            cold_answer,
            "{id}: governed answer drifted"
        );
        // Third leg: the same request, same service, tracing on. The
        // answer must be byte-identical to the untraced one.
        let t0 = Instant::now();
        let traced = svc.execute_traced(r);
        hot_traced.push(t0.elapsed().as_nanos());
        assert_eq!(
            expect_bool(&id, traced.response)?,
            cold_answer,
            "{id}: traced answer drifted"
        );
        traces.push(traced.trace);
    }
    let after_hot = svc.stats();
    assert_eq!(
        after_hot.plan_misses, warm.plan_misses,
        "{id}: hot requests must not compile plans"
    );
    assert_eq!(
        after_hot.decomp_misses, warm.decomp_misses,
        "{id}: hot requests must not decompose"
    );
    assert_eq!(
        svc_governed.stats().budget_trips,
        0,
        "{id}: the roomy budget must never trip"
    );

    // Mixed 80/20 replay from cold: 80% of requests over the two hottest
    // texts, the rest uniform, no cache clearing — hits accumulate the
    // way they would under real traffic.
    svc.clear_caches();
    let hot_set = stream.texts.len().min(2);
    let mut x: u64 = 0x9E3779B97F4A7C15;
    let mut mixed = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let idx = if x % 10 < 8 {
            (x / 16) as usize % hot_set
        } else {
            (x / 16) as usize % stream.texts.len()
        };
        let req = Request::boolean(stream.texts[idx].clone());
        let t0 = Instant::now();
        let resp = svc.execute(&req);
        mixed.push(t0.elapsed().as_nanos());
        expect_bool(&id, resp)?;
    }

    // The whole stream as one batch with mixed operations: dedup by
    // canonical key plus scoped-thread execution.
    let batch: Vec<Request> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| match i % 3 {
            0 => Request::boolean(r.text.clone()),
            1 => Request::count(r.text.clone()),
            _ => Request::enumerate(r.text.clone()),
        })
        .collect();
    let t0 = Instant::now();
    let responses = svc.execute_batch(&batch);
    let batch_ns = t0.elapsed().as_nanos();
    for resp in responses {
        resp?;
    }

    // Per-phase medians over the traced replay: where a hot request's
    // time actually goes (all-zero phases stay zero — e.g. `decompose`
    // never runs hot).
    let mut phase_median_ns = [0u128; obs::Phase::COUNT];
    for p in obs::Phase::ALL {
        phase_median_ns[p.index()] = median(traces.iter().map(|t| t.phase(p) as u128).collect());
    }

    let stats = svc.stats();
    Ok(ServeEntry {
        id,
        working_set: stream.texts.len(),
        requests: cfg.requests,
        cold_median_ns: median(cold),
        hot_median_ns: median(hot),
        hot_governed_median_ns: median(hot_governed),
        hot_traced_median_ns: median(hot_traced),
        phase_median_ns,
        mixed_median_ns: median(mixed),
        batch_ns,
        batch_requests: batch.len(),
        plan_hits: stats.plan_hits,
        plan_misses: stats.plan_misses,
        decomp_misses: stats.decomp_misses,
    })
}

/// Run every stream under `cfg`, in a stable order. The first service
/// error aborts the run and propagates typed.
pub fn run(cfg: &ServeConfig) -> Result<Vec<ServeEntry>, service::ServiceError> {
    streams(cfg.smoke)
        .into_iter()
        .map(|s| run_stream(cfg, s))
        .collect()
}

/// The degradation smoke: replay every stream through a service with a
/// (typically absurd) per-request `deadline` plus an admission cap, and
/// demand that every response is either a real outcome or a *typed*
/// governance error — never a panic, never a hang. Returns
/// `(answered, budget_tripped, shed)` counts across all streams.
///
/// CI runs this under `timeout` with `--deadline-ms 1`: with governance
/// working, even a 1 ms deadline drains the whole request set in
/// milliseconds per stream, because every long-running loop polls the
/// budget and unwinds.
pub fn run_deadline_smoke(
    cfg: &ServeConfig,
    deadline: std::time::Duration,
) -> (usize, usize, usize) {
    let (mut answered, mut tripped, mut shed) = (0usize, 0usize, 0usize);
    for stream in streams(cfg.smoke) {
        let id = stream.id.clone();
        let svc = Service::with_config(
            Arc::new(stream.db),
            service::ServiceConfig {
                deadline: Some(deadline),
                // Cap admission at half the batch so shedding is exercised.
                max_queue_depth: cfg.requests.div_ceil(2),
                ..Default::default()
            },
        );
        let reqs: Vec<Request> = (0..cfg.requests)
            .map(|i| match i % 3 {
                0 => Request::boolean(stream.texts[i % stream.texts.len()].clone()),
                1 => Request::count(stream.texts[i % stream.texts.len()].clone()),
                _ => Request::enumerate(stream.texts[i % stream.texts.len()].clone()),
            })
            .collect();
        for resp in svc.execute_batch(&reqs) {
            match resp {
                Ok(_) => answered += 1,
                Err(service::ServiceError::Budget(_)) => tripped += 1,
                Err(service::ServiceError::Overloaded { .. }) => shed += 1,
                Err(other) => panic!("{id}: untyped degradation: {other:?}"),
            }
        }
    }
    (answered, tripped, shed)
}

/// Replay the first (cheapest) stream briefly — two untraced requests
/// and one traced request per text — and return the service's metrics
/// snapshot rendered as Prometheus text. This is the CI artifact: one
/// honest scrape of every counter, gauge, and histogram the serving
/// stack exports, produced by real traffic.
pub fn sample_metrics(smoke: bool) -> Result<String, service::ServiceError> {
    let stream = streams(smoke).remove(0);
    let id = stream.id.clone();
    let svc = Service::new(Arc::new(stream.db));
    for text in &stream.texts {
        expect_bool(&id, svc.execute(&Request::boolean(text.clone())))?;
        expect_bool(&id, svc.execute(&Request::boolean(text.clone())))?;
        let traced = svc.execute_traced(&Request::boolean(text.clone()));
        expect_bool(&id, traced.response)?;
    }
    Ok(svc.metrics_snapshot().to_prometheus())
}

/// Serialise a run as `bench-service/5` JSON via the shared
/// [`crate::emit`] envelope:
///
/// ```json
/// {
///   "schema": "bench-service/5", "label": "...",
///   "mode": "smoke" | "full", "requests_per_stream": n,
///   "entries": {
///     "<tier/case>": {
///       "working_set": n, "requests": n,
///       "cold_median_ns": n, "hot_median_ns": n, "speedup": x.y,
///       "hot_governed_median_ns": n, "hot_traced_median_ns": n,
///       "phases": {"parse": n, "plan_cache": n, ...},
///       "mixed_median_ns": n, "batch_ns": n, "batch_requests": n,
///       "plan_hits": n, "plan_misses": n, "decomp_misses": n
///     }
///   }
/// }
/// ```
///
/// `speedup` is `cold_median_ns / hot_median_ns` — the per-query factor
/// the plan cache saves on a repeated (or α-equivalent) query.
/// `bench-service/3` added `hot_governed_median_ns` (the hot replay with
/// a never-tripping budget polled on every kernel chunk — its gap over
/// `hot_median_ns` is the governance overhead); `/4` added
/// `hot_traced_median_ns` (the hot replay with full tracing — its gap
/// over `hot_median_ns` is the tracing overhead) and `phases` (median
/// nanoseconds per [`obs::Phase`] across the traced replay, zero phases
/// omitted); `/5` drops `hot_sharded_median_ns` (`/2`–`/4`: the hot
/// replay with intra-query sharding forced to 2 shards — the sharding
/// axis is gone). Earlier runs lack the newer fields but are otherwise
/// identical.
pub fn to_json(label: &str, mode: &str, cfg: &ServeConfig, entries: &[ServeEntry]) -> String {
    let rendered: Vec<(String, String)> = entries
        .iter()
        .map(|e| {
            let phases: Vec<String> = obs::Phase::ALL
                .iter()
                .filter(|p| e.phase_median_ns[p.index()] > 0)
                .map(|p| {
                    format!(
                        "{}: {}",
                        emit::json_string(p.as_str()),
                        e.phase_median_ns[p.index()]
                    )
                })
                .collect();
            (
                e.id.clone(),
                format!(
                    "{{\"working_set\": {}, \"requests\": {}, \
                     \"cold_median_ns\": {}, \"hot_median_ns\": {}, \"speedup\": {:.1}, \
                     \"hot_governed_median_ns\": {}, \"hot_traced_median_ns\": {}, \
                     \"phases\": {{{}}}, \
                     \"mixed_median_ns\": {}, \"batch_ns\": {}, \"batch_requests\": {}, \
                     \"plan_hits\": {}, \"plan_misses\": {}, \"decomp_misses\": {}}}",
                    e.working_set,
                    e.requests,
                    e.cold_median_ns,
                    e.hot_median_ns,
                    e.speedup(),
                    e.hot_governed_median_ns,
                    e.hot_traced_median_ns,
                    phases.join(", "),
                    e.mixed_median_ns,
                    e.batch_ns,
                    e.batch_requests,
                    e.plan_hits,
                    e.plan_misses,
                    e.decomp_misses,
                ),
            )
        })
        .collect();
    emit::run_json(
        "bench-service/5",
        label,
        mode,
        &[("requests_per_stream", cfg.requests.to_string())],
        &rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_ids_are_unique_and_texts_parse() {
        for smoke in [true, false] {
            let ss = streams(smoke);
            let mut ids: Vec<_> = ss.iter().map(|s| s.id.clone()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), ss.len(), "ids must be unique");
            for s in &ss {
                assert!(!s.texts.is_empty(), "{}: empty working set", s.id);
                for text in &s.texts {
                    let q =
                        cq::parse_query(text).unwrap_or_else(|e| panic!("{}: {e}: {text}", s.id));
                    assert_eq!(q.to_string(), *text, "{}: text roundtrip", s.id);
                }
            }
        }
    }

    #[test]
    fn a_tiny_stream_replay_produces_sane_numbers() {
        let cfg = ServeConfig {
            requests: 4,
            smoke: true,
        };
        // Only the cheapest stream — this runs in debug mode under
        // `cargo test`.
        let stream = streams(true).remove(0);
        assert_eq!(stream.id, "families/cycle");
        let entry = run_stream(&cfg, stream).expect("tiny replay serves");
        assert_eq!(entry.requests, 4);
        assert!(entry.cold_median_ns > 0 && entry.hot_median_ns > 0);
        assert!(entry.plan_misses > 0);
        assert!(entry.plan_hits > 0);
        // The traced leg really traced: total medians and the parse
        // phase are nonzero, and a hot request never decomposes.
        assert!(entry.hot_traced_median_ns > 0);
        assert!(entry.phase_median_ns[obs::Phase::Parse.index()] > 0);
        assert_eq!(entry.phase_median_ns[obs::Phase::Decompose.index()], 0);
    }

    #[test]
    fn sample_metrics_renders_valid_prometheus() {
        let text = sample_metrics(true).expect("metrics sample serves");
        obs::validate_prometheus(&text).expect("valid Prometheus text");
        assert!(text.contains("service_requests_total"));
        assert!(text.contains("service_traced_requests_total"));
    }

    #[test]
    fn json_shape_is_balanced() {
        let cfg = ServeConfig {
            requests: 2,
            smoke: true,
        };
        let entries = vec![ServeEntry {
            id: "t/c".into(),
            working_set: 1,
            requests: 2,
            cold_median_ns: 1000,
            hot_median_ns: 100,
            hot_governed_median_ns: 103,
            hot_traced_median_ns: 107,
            phase_median_ns: {
                let mut p = [0u128; obs::Phase::COUNT];
                p[obs::Phase::Parse.index()] = 40;
                p[obs::Phase::Join.index()] = 60;
                p
            },
            mixed_median_ns: 200,
            batch_ns: 300,
            batch_requests: 2,
            plan_hits: 3,
            plan_misses: 1,
            decomp_misses: 1,
        }];
        let j = to_json("t", "smoke", &cfg, &entries);
        assert!(j.contains("\"schema\": \"bench-service/5\""));
        assert!(j.contains("\"speedup\": 10.0"));
        assert!(j.contains("\"hot_governed_median_ns\": 103"));
        assert!(j.contains("\"hot_traced_median_ns\": 107"));
        assert!(j.contains("\"phases\": {\"parse\": 40, \"join\": 60}"));
        // Zero phases are omitted from the JSON.
        assert!(!j.contains("\"decompose\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
