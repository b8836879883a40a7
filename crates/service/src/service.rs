//! The serving front-end: one shared database snapshot, two caches, and
//! a batched, concurrent execution engine.
//!
//! A [`Service`] owns an `Arc<Database>` *snapshot*. Requests in a batch
//! all see the snapshot that was current when the batch started;
//! [`Service::replace_snapshot`] installs a new database for later
//! batches without disturbing in-flight ones (readers clone the `Arc`,
//! writers swap it — no relation data is ever mutated in place).
//!
//! Batches are deduplicated *before* planning: requests are grouped by
//! their α-invariant plan key, each distinct key is prepared exactly once
//! (through the [`PlanCache`], then the decomposition cache), and the
//! prepared plans plus all request executions are spread over scoped
//! worker threads — the same `std::thread::scope` idiom as
//! `hypertree_core::parallel`, with a shared atomic cursor handing out
//! work items so stragglers do not serialise the batch.
//!
//! There is one execution path. Every entry point — [`Service::execute`],
//! [`Service::execute_traced`], [`Service::execute_batch`],
//! [`Service::prepare`], [`Service::explain`],
//! [`Service::explain_analyze`] — resolves its plan through the same
//! function, under a fresh [`QueryBudget`] and inside the same panic
//! isolation, and evaluates through the same three [`PreparedQuery`]
//! operations. Whether a request pays for budget polling and tracing is
//! decided once per request from what the service can observe — its
//! budget has no limit and its tracer is off — by picking the zero-sized
//! [`eval::Unlimited`] context over [`eval::Governed`]; no option selects
//! a path.

use crate::plan_cache::PlanStats;
use crate::prepared::{plan_key, PrepareConfig, PreparedQuery};
use crate::{PlanCache, ServiceError};
use cq::{parse_query, ConjunctiveQuery};
use eval::{ExecCtx, Governed, Unlimited};
use hypertree_core::parallel::run_parallel;
use hypertree_core::{DecompCache, QueryBudget};
use obs::{Phase, QueryTrace, TraceOutcome, Tracer};
use parking_lot::RwLock;
use relation::{Database, Relation};
use rustc_hash::FxHashMap;
use std::sync::Arc;
use std::time::Duration;

/// Sample 1-in-N whole-request latencies into the latency histogram:
/// a power of two so the sampling decision is a mask on the request
/// counter, not a second atomic.
const LATENCY_SAMPLE_MASK: u64 = 15;

/// What a request asks of its query.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Is the query non-empty on the snapshot?
    Boolean,
    /// The answer relation over the head variables.
    Enumerate,
    /// The number of satisfying assignments over `var(Q)`. The count is
    /// exact up to `u128::MAX - 1` and *saturates* at `u128::MAX`, which
    /// means "at least `u128::MAX`" (see [`eval::Pipeline::count`] for
    /// the full contract).
    Count,
}

/// One textual query plus the operation to run.
#[derive(Clone, Debug)]
pub struct Request {
    /// The conjunctive query, in the `cq` parser's syntax.
    pub text: String,
    /// The operation to evaluate.
    pub op: Op,
}

impl Request {
    /// A Boolean request.
    pub fn boolean(text: impl Into<String>) -> Self {
        Request {
            text: text.into(),
            op: Op::Boolean,
        }
    }

    /// An enumeration request.
    pub fn enumerate(text: impl Into<String>) -> Self {
        Request {
            text: text.into(),
            op: Op::Enumerate,
        }
    }

    /// A counting request.
    pub fn count(text: impl Into<String>) -> Self {
        Request {
            text: text.into(),
            op: Op::Count,
        }
    }
}

/// A successful answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answer to an [`Op::Boolean`] request.
    Boolean(bool),
    /// Answer to an [`Op::Enumerate`] request.
    Rows(Relation),
    /// Answer to an [`Op::Count`] request.
    Count(u128),
    /// A *degraded* answer to an [`Op::Enumerate`] request: the memory
    /// budget tripped while materializing the output, and these rows are
    /// a sound, deduplicated **subset** of the full answer (every row is
    /// a real answer; some answers are missing). Only produced when
    /// [`ServiceConfig::max_result_bytes`] is set — callers that prefer
    /// an error to a partial result can treat this variant as one.
    Partial(Relation),
}

/// Per-request result: an outcome, or why the request failed.
pub type Response = Result<Outcome, ServiceError>;

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Plan-cache capacity (LRU beyond it).
    pub plan_cache_capacity: usize,
    /// Decomposition-cache capacity (LRU beyond it).
    pub decomp_cache_capacity: usize,
    /// Planning budget (see [`PrepareConfig`]).
    pub prepare: PrepareConfig,
    /// Worker-thread cap for batch execution; `0` = the machine's
    /// available parallelism.
    pub max_threads: usize,
    /// Batches smaller than this run inline on the calling thread.
    pub min_parallel_batch: usize,
    /// Per-request wall-clock deadline; `None` = none. The clock starts
    /// when the request's processing starts; in a batch, a preparation
    /// shared by several requests runs under its own deadline of the same
    /// length, so no request inherits a clock another request started.
    /// Tripping yields [`ServiceError::Budget`] with
    /// [`hypertree_core::QueryError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Per-request quota on bytes allocated for relation payloads during
    /// evaluation; `None` = none. An enumeration that trips it mid-join
    /// degrades to [`Outcome::Partial`]; any other trip yields
    /// [`ServiceError::Budget`] with
    /// [`hypertree_core::QueryError::MemoryBudgetExceeded`].
    pub max_result_bytes: Option<u64>,
    /// Batch admission cap: requests beyond this many in a single batch
    /// are shed at admission with [`ServiceError::Overloaded`], before
    /// any parsing or planning happens for them. `0` = no cap.
    pub max_queue_depth: usize,
    /// Flight-recorder shape: how many completed traces to retain, the
    /// slow-query threshold, and the slow-log capture rate limit (see
    /// [`obs::RecorderConfig`]). Set `capacity: 0` to disable recording
    /// entirely.
    pub recorder: obs::RecorderConfig,
    /// Trace 1-in-N single requests that did not ask for a trace
    /// themselves, so the flight recorder and per-plan statistics see a
    /// steady trickle of real executions; `0` disables sampling.
    /// Rounded up to a power of two so the sampling decision is a mask
    /// on the request counter. Traced execution is byte-identical to
    /// untraced (property-tested), so promotion is invisible in the
    /// answer. Batch members are never sampled — a batch's workers
    /// share the cores, and per-plan request counts are cheap enough to
    /// keep exact on every path.
    pub trace_sample: u64,
    /// Deterministic fault plan probed at named sites inside the serving
    /// stack (tests and benches only — the field and every probe compile
    /// away without the `fault-injection` feature).
    #[cfg(feature = "fault-injection")]
    pub fault_injection: Option<crate::fault::FaultInjector>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            plan_cache_capacity: PlanCache::DEFAULT_CAPACITY,
            decomp_cache_capacity: DecompCache::DEFAULT_CAPACITY,
            prepare: PrepareConfig::default(),
            max_threads: 0,
            min_parallel_batch: 4,
            deadline: None,
            max_result_bytes: None,
            max_queue_depth: 0,
            recorder: obs::RecorderConfig::default(),
            trace_sample: 16,
            #[cfg(feature = "fault-injection")]
            fault_injection: None,
        }
    }
}

/// A point-in-time view of the service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Batches served.
    pub batches: u64,
    /// Requests served (across all batches and single executions).
    pub requests: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Plans evicted by capacity pressure.
    pub plan_evictions: u64,
    /// Plans currently cached.
    pub plans_cached: usize,
    /// Decomposition-cache hits.
    pub decomp_hits: u64,
    /// Decomposition-cache misses (each one paid for a decomposition).
    pub decomp_misses: u64,
    /// Decompositions evicted by capacity pressure.
    pub decomp_evictions: u64,
    /// Requests shed at admission ([`ServiceError::Overloaded`]).
    pub sheds: u64,
    /// Requests whose budget tripped ([`ServiceError::Budget`]).
    pub budget_trips: u64,
    /// Panics isolated by the per-request `catch_unwind` boundary
    /// ([`ServiceError::Internal`]).
    pub panics_caught: u64,
}

/// The query-serving subsystem: compile once, execute many, in batches.
pub struct Service {
    db: RwLock<Arc<Database>>,
    plans: PlanCache,
    decomps: DecompCache,
    cfg: ServiceConfig,
    /// Always-on ring of recent traces plus the slow-query log; fed by
    /// explicit traces and by 1-in-N sampled promotions (see
    /// [`ServiceConfig::trace_sample`]).
    recorder: obs::FlightRecorder,
    /// Sampling mask derived from [`ServiceConfig::trace_sample`]
    /// (`None` = sampling off): request `n` is promoted to a traced
    /// execution when `n & mask == 0`.
    trace_mask: Option<u64>,
    // All service counters live in (and are readable through) the
    // metrics registry; the fields below are the hot-path handles to
    // the same underlying atomics.
    registry: obs::Registry,
    batches: Arc<obs::Counter>,
    requests: Arc<obs::Counter>,
    sheds: Arc<obs::Counter>,
    budget_trips: Arc<obs::Counter>,
    panics_caught: Arc<obs::Counter>,
    traced_requests: Arc<obs::Counter>,
    rows_scanned: Arc<obs::Counter>,
    bytes_charged: Arc<obs::Counter>,
    /// Per-op request counters, indexed boolean/enumerate/count.
    op_requests: [Arc<obs::Counter>; 3],
    latency_ns: Arc<obs::Histogram>,
    /// Per-phase latency histograms (traced requests only), indexed by
    /// [`Phase::index`].
    phase_ns: [Arc<obs::Histogram>; Phase::COUNT],
}

impl Service {
    /// A service over `db` with default configuration.
    pub fn new(db: Arc<Database>) -> Self {
        Self::with_config(db, ServiceConfig::default())
    }

    /// A service over `db` with explicit configuration.
    pub fn with_config(db: Arc<Database>, cfg: ServiceConfig) -> Self {
        let plans = PlanCache::with_capacity(cfg.plan_cache_capacity);
        let decomps = DecompCache::with_capacity(cfg.decomp_cache_capacity);
        let registry = obs::Registry::new();
        // The cache counters are owned by the caches; registering their
        // live handles makes every scrape see them with no copying.
        registry.register_counter(
            "plan_cache_hits_total",
            "Plan-cache hits",
            Vec::new(),
            plans.hits_handle(),
        );
        registry.register_counter(
            "plan_cache_misses_total",
            "Plan-cache misses (each one compiled a plan)",
            Vec::new(),
            plans.misses_handle(),
        );
        registry.register_counter(
            "plan_cache_redundant_prepares_total",
            "Plans compiled by a concurrent miss that lost the insert race",
            Vec::new(),
            plans.redundant_prepares_handle(),
        );
        registry.register_counter(
            "decomp_cache_hits_total",
            "Decomposition-cache hits",
            Vec::new(),
            decomps.hits_handle(),
        );
        registry.register_counter(
            "decomp_cache_misses_total",
            "Decomposition-cache misses (each one ran the decomposer)",
            Vec::new(),
            decomps.misses_handle(),
        );
        let op_requests = [
            registry.counter_with(
                "service_requests_by_op_total",
                "Requests by operation",
                vec![("op", "boolean".to_string())],
            ),
            registry.counter_with(
                "service_requests_by_op_total",
                "Requests by operation",
                vec![("op", "enumerate".to_string())],
            ),
            registry.counter_with(
                "service_requests_by_op_total",
                "Requests by operation",
                vec![("op", "count".to_string())],
            ),
        ];
        let phase_ns = Phase::ALL.map(|p| {
            registry.histogram_with(
                "service_phase_latency_ns",
                "Per-phase wall time of traced requests, nanoseconds",
                vec![("phase", p.as_str().to_string())],
            )
        });
        Service {
            db: RwLock::new(db),
            plans,
            decomps,
            recorder: obs::FlightRecorder::new(cfg.recorder),
            trace_mask: (cfg.trace_sample > 0).then(|| cfg.trace_sample.next_power_of_two() - 1),
            cfg,
            batches: registry.counter("service_batches_total", "Batches served"),
            requests: registry.counter(
                "service_requests_total",
                "Requests served (single executions and batch members)",
            ),
            sheds: registry.counter(
                "service_sheds_total",
                "Requests shed at batch admission (Overloaded)",
            ),
            budget_trips: registry.counter(
                "service_budget_trips_total",
                "Requests whose budget tripped (deadline, memory, cancellation)",
            ),
            panics_caught: registry.counter(
                "service_panics_caught_total",
                "Panics isolated by the per-request catch_unwind boundary",
            ),
            traced_requests: registry.counter(
                "service_traced_requests_total",
                "Requests that produced a QueryTrace",
            ),
            rows_scanned: registry.counter(
                "service_rows_scanned_total",
                "Rows scanned by metered operators in traced requests",
            ),
            bytes_charged: registry.counter(
                "service_bytes_charged_total",
                "Bytes charged against memory budgets in traced requests",
            ),
            op_requests,
            latency_ns: registry.histogram(
                "service_request_latency_ns",
                "Whole-request wall time, nanoseconds (1-in-16 sampled)",
            ),
            phase_ns,
            registry,
        }
    }

    /// The current database snapshot. In-flight batches keep the snapshot
    /// they started with; this returns whatever a *new* batch would see.
    pub fn snapshot(&self) -> Arc<Database> {
        Arc::clone(&self.db.read())
    }

    /// Install a new snapshot for future batches, returning the previous
    /// one. Prepared plans are database-independent, so both caches stay
    /// warm across the swap.
    pub fn replace_snapshot(&self, db: Arc<Database>) -> Arc<Database> {
        std::mem::replace(&mut *self.db.write(), db)
    }

    /// Prepare (or fetch from the plan cache) the plan for `text`, exactly
    /// as serving it would: under the configured deadline and inside the
    /// panic-isolation boundary.
    pub fn prepare(&self, text: &str) -> Result<Arc<PreparedQuery>, ServiceError> {
        Ok(self.resolve_text(text)?.0)
    }

    /// Resolve the plan for `text` outside any request, untraced: what
    /// [`Service::prepare`] and [`Service::explain`] share. Returns the
    /// plan and whether the plan cache hit.
    fn resolve_text(&self, text: &str) -> Result<(Arc<PreparedQuery>, bool), ServiceError> {
        let obs = Tracer::off();
        let (q, key) = parse(text, &obs)?;
        let budget = self.new_budget();
        self.isolated(|| self.resolve(&q, &key, text, &budget, &obs))
    }

    /// Serve one request against the current snapshot.
    ///
    /// The request runs inside a `catch_unwind` isolation boundary: a
    /// panic anywhere in the serving stack comes back as
    /// [`ServiceError::Internal`] instead of unwinding into the caller,
    /// and leaves both caches free of half-built entries.
    pub fn execute(&self, req: &Request) -> Response {
        self.serve(req, &Tracer::off()).response
    }

    /// Serve one request with full tracing: same answer as
    /// [`Service::execute`] (byte-identical — the trace rides on atomics
    /// beside the computation, never in it), plus a [`QueryTrace`]
    /// saying where the time went and what was touched.
    pub fn execute_traced(&self, req: &Request) -> TracedResponse {
        let served = self.serve(req, &Tracer::on());
        TracedResponse {
            response: served.response,
            trace: served.trace.unwrap_or_default(),
        }
    }

    /// The single-request path behind [`Service::execute`] (disabled
    /// tracer), [`Service::execute_traced`] and
    /// [`Service::explain_analyze`].
    fn serve(&self, req: &Request, obs: &Tracer) -> Served {
        let n = self.requests.incr();
        self.op_counter(req.op).incr();
        // Promote 1-in-N untraced requests to a full trace so the flight
        // recorder and per-plan statistics stay populated without any
        // caller opting in. Only *explicit* traces (the caller's tracer
        // was already on) count as traced requests in the metrics.
        let explicit = obs.enabled();
        let promoted;
        let obs = if !explicit && self.trace_mask.is_some_and(|m| n & m == 0) {
            promoted = Tracer::on();
            &promoted
        } else {
            obs
        };
        let watch = (n & LATENCY_SAMPLE_MASK == 0).then(obs::Stopwatch::start);
        let snapshot = self.snapshot();
        // The budget lives outside the isolation boundary so its byte and
        // step gauges are still readable when the trace is assembled.
        let budget = self.new_budget();
        // The resolved plan escapes the isolation boundary so the
        // response and trace can be attributed to its plan key; a panic
        // before resolution leaves it `None` (nothing to attribute to).
        let mut plan: Option<Arc<PreparedQuery>> = None;
        let response = self.isolated(|| {
            let (q, key) = parse(&req.text, obs)?;
            let (resolved, _) = self.resolve(&q, &key, &req.text, &budget, obs)?;
            let plan = plan.insert(resolved);
            self.run(req, plan, &snapshot, &budget, obs)
        });
        self.note(&response);
        let stats = plan
            .as_ref()
            .map(|p| self.plans.stats_for(p.key(), &self.registry));
        if let Some(s) = &stats {
            s.requests.incr();
            self.note_plan_errors(s, &response);
        }
        if let Some(w) = watch {
            self.latency_ns.record(w.elapsed_ns());
        }
        let trace = obs.finish(TraceOutcome {
            op: op_name(req.op),
            rows_emitted: match &response {
                Ok(Outcome::Rows(rows)) | Ok(Outcome::Partial(rows)) => rows.len() as u64,
                _ => 0,
            },
            bytes_charged: budget.bytes_charged(),
            steps_charged: budget.steps_charged(),
            truncated: matches!(&response, Ok(Outcome::Partial(_))),
        });
        if let Some(t) = &trace {
            self.record_trace(t, explicit, stats.as_deref());
        }
        Served {
            response,
            trace,
            plan,
        }
    }

    /// Fold one finished trace into the aggregate metrics, the flight
    /// recorder, and (when the plan resolved) its per-plan statistics.
    /// Only explicitly requested traces count toward
    /// `service_traced_requests_total`; sampled promotions ride along in
    /// everything else.
    fn record_trace(&self, trace: &QueryTrace, explicit: bool, stats: Option<&PlanStats>) {
        if explicit {
            self.traced_requests.incr();
        }
        self.rows_scanned.add(trace.rows_scanned);
        self.bytes_charged.add(trace.bytes_charged);
        for p in Phase::ALL {
            let ns = trace.phase(p);
            if ns > 0 {
                self.phase_ns[p.index()].record(ns);
            }
        }
        let id = self.recorder.record(trace);
        if let Some(s) = stats {
            s.observe_trace(trace, id);
        }
    }

    /// Attribute a failed response to its plan's error counters.
    fn note_plan_errors(&self, stats: &PlanStats, resp: &Response) {
        match resp {
            Err(ServiceError::Budget(_)) => {
                stats.budget_trips.incr();
            }
            Err(ServiceError::Internal(_)) => {
                stats.panics.incr();
            }
            _ => {}
        }
    }

    /// Serve a batch: all requests see one snapshot, duplicate (and
    /// α-equivalent) query texts are planned once, and preparation and
    /// execution are spread over scoped worker threads. Responses come
    /// back in request order.
    ///
    /// Resource governance, when configured:
    ///
    /// * requests beyond [`ServiceConfig::max_queue_depth`] are shed at
    ///   admission with [`ServiceError::Overloaded`] — no parsing, no
    ///   planning, no evaluation for them;
    /// * each preparation and each evaluation runs inside its own
    ///   `catch_unwind` boundary, so one panicking request yields
    ///   [`ServiceError::Internal`] while the rest of the batch completes
    ///   (a preparation that fails or panics never inserts into the plan
    ///   cache, and every request sharing its plan key gets the same
    ///   typed error);
    /// * each preparation and each evaluation gets a fresh
    ///   [`QueryBudget`] from the configured deadline and byte quota.
    pub fn execute_batch(&self, reqs: &[Request]) -> Vec<Response> {
        self.batches.incr();
        self.requests.add(reqs.len() as u64);
        let snapshot = self.snapshot();

        // Admission: shed everything past the queue-depth cap before any
        // work happens on its behalf.
        let cap = self.cfg.max_queue_depth;
        let admitted = if cap > 0 && reqs.len() > cap {
            &reqs[..cap]
        } else {
            reqs
        };
        let shed = reqs.len() - admitted.len();
        self.sheds.add(shed as u64);

        // Parse phase (cheap, inline) + dedup by plan key. Each distinct
        // key remembers the first request text that produced it: the
        // fault injector is keyed by text, preparation by plan key.
        let mut uniques: Vec<(String, ConjunctiveQuery, &str)> = Vec::new();
        let mut key_to_unique: FxHashMap<String, usize> = FxHashMap::default();
        let off = Tracer::off();
        let parsed: Vec<Result<usize, ServiceError>> = admitted
            .iter()
            .map(|req| {
                self.op_counter(req.op).incr();
                let (q, key) = parse(&req.text, &off)?;
                let idx = *key_to_unique.entry(key.clone()).or_insert_with(|| {
                    uniques.push((key, q, &req.text));
                    uniques.len() - 1
                });
                Ok(idx)
            })
            .collect();

        // Prepare phase: each distinct key exactly once, in parallel —
        // distinct keys mean distinct (potentially expensive) plans, and
        // the dedup guarantees no two workers decompose the same shape.
        // Each preparation is isolated and governed on its own; its error
        // (typed or panic-turned-Internal) is cloned to every request
        // that deduplicated onto it.
        let workers = self.worker_count(uniques.len());
        let plans: Vec<Result<Arc<PreparedQuery>, ServiceError>> =
            run_parallel(&uniques, workers, |_, (key, q, text)| {
                self.isolated(|| {
                    let budget = self.new_budget();
                    let (plan, _) = self.resolve(q, key, text, &budget, &off)?;
                    Ok(plan)
                })
            });

        // Execute phase: every request independently, against the shared
        // snapshot, through its (shared) plan.
        let workers = self.worker_count(admitted.len());
        let mut responses = run_parallel(admitted, workers, |i, req| {
            let unique = match &parsed[i] {
                Ok(u) => *u,
                Err(e) => return Err(e.clone()),
            };
            let plan = match &plans[unique] {
                Ok(p) => p,
                Err(e) => return Err(e.clone()),
            };
            self.isolated(|| self.run(req, plan, &snapshot, &self.new_budget(), &off))
        });
        // Attribute every admitted response to its plan's statistics
        // (request counts and error counters; batch members carry no
        // traces, so latency/row exemplars come from single executions).
        for (i, resp) in responses.iter().enumerate() {
            self.note(resp);
            if let Ok(u) = &parsed[i] {
                if let Ok(plan) = &plans[*u] {
                    let stats = self.plans.stats_for(plan.key(), &self.registry);
                    stats.requests.incr();
                    self.note_plan_errors(&stats, resp);
                }
            }
        }
        responses.extend((0..shed).map(|_| {
            Err(ServiceError::Overloaded {
                depth: reqs.len(),
                max: cap,
            })
        }));
        responses
    }

    /// EXPLAIN: the structured plan for `text`, without executing it.
    ///
    /// The plan cache is probed for real — a hit is reported (and
    /// counted) as a hit, and a miss prepares and caches the plan
    /// exactly as serving it would (same deadline, same isolation), so an
    /// EXPLAIN warms the cache for the requests that follow.
    pub fn explain(&self, text: &str) -> Result<obs::PlanExplain, ServiceError> {
        let (plan, hit) = self.resolve_text(text)?;
        let mut explain = plan.explain(text);
        explain.plan_cache_hit = Some(hit);
        Ok(explain)
    }

    /// EXPLAIN ANALYZE: execute `req` with full tracing and pair the
    /// answer with the [`obs::PlanExplain`] of the plan that execution
    /// resolved and with its [`QueryTrace`] — render with
    /// [`obs::PlanExplain::render_analyzed`]. One request, one plan-cache
    /// lookup; cache lineage in the explain is what the execution saw.
    ///
    /// Errors only when no plan can be derived at all (parse or
    /// preparation failure); an execution failure under a valid plan
    /// comes back inside [`ExplainAnalyzed::response`].
    pub fn explain_analyze(&self, req: &Request) -> Result<ExplainAnalyzed, ServiceError> {
        let Served {
            response,
            trace,
            plan,
        } = self.serve(req, &Tracer::on());
        let Some(plan) = plan else {
            return Err(response.err().unwrap_or_else(|| {
                ServiceError::Internal("a request was answered without a plan".to_string())
            }));
        };
        let trace = trace.unwrap_or_default();
        let mut explain = plan.explain(&req.text);
        explain.plan_cache_hit = trace.plan_cache_hit;
        if trace.decomp_cache_hit.is_some() {
            explain.decomp_cache_hit = trace.decomp_cache_hit;
        }
        Ok(ExplainAnalyzed {
            response,
            explain,
            trace,
        })
    }

    /// The most recently completed traces (newest first) held by the
    /// flight recorder: explicit [`Service::execute_traced`] /
    /// [`Service::explain_analyze`] runs plus 1-in-N sampled promotions.
    pub fn recent_traces(&self) -> Vec<obs::RecordedTrace> {
        self.recorder.recent()
    }

    /// The slow-query log (newest first): traces over the configured
    /// threshold, captured at most once per rate-limit interval.
    pub fn slow_queries(&self) -> Vec<obs::RecordedTrace> {
        self.recorder.slow_queries()
    }

    /// The flight recorder itself, for capture counters and id lookups.
    pub fn flight_recorder(&self) -> &obs::FlightRecorder {
        &self.recorder
    }

    /// The current counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            batches: self.batches.get(),
            requests: self.requests.get(),
            plan_hits: self.plans.hits(),
            plan_misses: self.plans.misses(),
            plan_evictions: self.plans.evictions(),
            plans_cached: self.plans.len(),
            decomp_hits: self.decomps.hits(),
            decomp_misses: self.decomps.misses(),
            decomp_evictions: self.decomps.evictions(),
            sheds: self.sheds.get(),
            budget_trips: self.budget_trips.get(),
            panics_caught: self.panics_caught.get(),
        }
    }

    /// The service's metrics registry, for registering additional
    /// component counters or scraping directly.
    pub fn registry(&self) -> &obs::Registry {
        &self.registry
    }

    /// A point-in-time snapshot of every service metric, ready for the
    /// JSON ([`obs::Snapshot::to_json`]) or Prometheus
    /// ([`obs::Snapshot::to_prometheus`]) exporters. Scrape-time gauges
    /// (cache sizes, evictions, process-wide index builds) are sampled
    /// here, immediately before the snapshot.
    pub fn metrics_snapshot(&self) -> obs::Snapshot {
        self.registry.set_gauge(
            "plan_cache_len",
            "Plans currently cached",
            self.plans.len() as u64,
        );
        self.registry.set_gauge(
            "plan_cache_evictions",
            "Plans evicted by capacity pressure",
            self.plans.evictions(),
        );
        self.registry.set_gauge(
            "decomp_cache_len",
            "Decompositions currently cached",
            self.decomps.len() as u64,
        );
        self.registry.set_gauge(
            "decomp_cache_evictions",
            "Decompositions evicted by capacity pressure",
            self.decomps.evictions(),
        );
        self.registry.set_gauge(
            "relation_index_builds",
            "Hash indexes built over relation columns, process-wide",
            relation::stats::index_builds_total(),
        );
        self.registry.set_gauge(
            "plan_stats_tracked",
            "Plans with live per-plan statistics series",
            self.plans.stats_len() as u64,
        );
        self.registry.set_gauge(
            "flight_recorder_traces",
            "Traces captured by the flight recorder since start",
            self.recorder.recorded(),
        );
        self.registry.set_gauge(
            "flight_recorder_slow_captured",
            "Slow queries captured into the slow-query log",
            self.recorder.slow_captured(),
        );
        self.registry.set_gauge(
            "flight_recorder_slow_suppressed",
            "Slow queries over threshold but suppressed by the rate limit",
            self.recorder.slow_suppressed(),
        );
        self.registry.snapshot()
    }

    /// Drop every cached plan and decomposition (counters are kept) —
    /// the cold-start state, used by benchmarks and tests.
    pub fn clear_caches(&self) {
        self.plans.clear();
        self.decomps.clear();
    }

    /// The plan cache (observability; execution goes through it anyway).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// The decomposition cache shared by all preparations.
    pub fn decomp_cache(&self) -> &DecompCache {
        &self.decomps
    }

    fn worker_count(&self, items: usize) -> usize {
        if items < self.cfg.min_parallel_batch.max(2) {
            return 1;
        }
        let cap = match self.cfg.max_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        cap.min(items).max(1)
    }

    /// A fresh budget for one unit of work (a preparation or one
    /// request's evaluation), with the configured deadline and byte
    /// quota. The deadline clock starts *now*.
    fn new_budget(&self) -> QueryBudget {
        let mut budget = QueryBudget::unlimited();
        if let Some(d) = self.cfg.deadline {
            budget = budget.with_deadline(d);
        }
        if let Some(b) = self.cfg.max_result_bytes {
            budget = budget.with_byte_quota(b);
        }
        budget
    }

    /// The one plan-resolution function: fetch the plan for the parsed
    /// query `q` (whose plan key is `key`, whose text was `text`) from the
    /// plan cache, or prepare it under `budget` and cache it. Returns the
    /// plan and whether the cache hit; records the plan-cache probe, the
    /// planning spans and the cache provenance into `obs`. One cache
    /// lookup per call. The budget is only consulted on the miss path; a
    /// plan that fails to prepare is not inserted, so the next request
    /// retries it.
    fn resolve(
        &self,
        q: &ConjunctiveQuery,
        key: &str,
        text: &str,
        budget: &QueryBudget,
        obs: &Tracer,
    ) -> Result<(Arc<PreparedQuery>, bool), ServiceError> {
        let cached = {
            let _span = obs.span(Phase::PlanCache);
            self.plans.get(key)
        };
        obs.note_plan_cache(cached.is_some());
        if let Some(plan) = cached {
            plan.note_plan(obs);
            return Ok((plan, true));
        }
        #[cfg(feature = "fault-injection")]
        self.fire_fault(crate::fault::FaultSite::Prepare, text, budget)?;
        #[cfg(not(feature = "fault-injection"))]
        let _ = text;
        let plan = Arc::new(
            PreparedQuery::prepare_parsed(
                q.clone(),
                key.to_string(),
                &self.decomps,
                &self.cfg.prepare,
                budget,
                obs,
            )
            .map_err(ServiceError::Budget)?,
        );
        self.plans.insert_prepared(key, Arc::clone(&plan));
        Ok((plan, false))
    }

    /// Evaluate one resolved request. This is where the request's
    /// execution context is chosen, once: a budget that cannot trip and a
    /// tracer that records nothing need no polling and no taps.
    fn run(
        &self,
        req: &Request,
        plan: &PreparedQuery,
        db: &Database,
        budget: &QueryBudget,
        obs: &Tracer,
    ) -> Response {
        #[cfg(feature = "fault-injection")]
        self.fire_fault(crate::fault::FaultSite::Execute, &req.text, budget)?;
        if budget.is_unlimited() && !obs.enabled() {
            run_op(plan, req.op, db, &Unlimited)
        } else {
            run_op(plan, req.op, db, &Governed::new(budget, obs))
        }
    }

    /// The per-op request counter for `op`.
    fn op_counter(&self, op: Op) -> &obs::Counter {
        &self.op_requests[match op {
            Op::Boolean => 0,
            Op::Enumerate => 1,
            Op::Count => 2,
        }]
    }

    /// Probe the configured fault injector at `site` for `text`.
    #[cfg(feature = "fault-injection")]
    fn fire_fault(
        &self,
        site: crate::fault::FaultSite,
        text: &str,
        budget: &QueryBudget,
    ) -> Result<(), ServiceError> {
        match &self.cfg.fault_injection {
            Some(inj) => inj.fire(site, text, budget).map_err(ServiceError::Budget),
            None => Ok(()),
        }
    }

    /// Run `work` inside the per-request panic-isolation boundary. The
    /// service's shared state stays sound across an unwind:
    /// `parking_lot` locks do not poison, both caches insert only fully
    /// built values (a panicking preparation unwinds *before* its
    /// insert), and the counters are monotone atomics — which is what
    /// makes the `AssertUnwindSafe` below correct.
    fn isolated<T>(
        &self,
        work: impl FnOnce() -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
            Ok(resp) => resp,
            Err(payload) => {
                self.panics_caught.incr();
                let detail = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "panic with non-string payload".to_string()
                };
                Err(ServiceError::Internal(detail))
            }
        }
    }

    /// Bump the budget-trip counter when a response reports one.
    fn note(&self, resp: &Response) {
        if matches!(resp, Err(ServiceError::Budget(_))) {
            self.budget_trips.incr();
        }
    }
}

/// A response paired with its plan's explain and the execution's
/// trace; see [`Service::explain_analyze`].
#[derive(Debug)]
pub struct ExplainAnalyzed {
    /// The answer, exactly as [`Service::execute`] would have returned.
    pub response: Response,
    /// The structured plan, with cache lineage as this execution saw it.
    pub explain: obs::PlanExplain,
    /// Where the time went, per phase and per join-tree node. Render
    /// the pair with [`obs::PlanExplain::render_analyzed`].
    pub trace: QueryTrace,
}

/// A response paired with its [`QueryTrace`]; see
/// [`Service::execute_traced`].
#[derive(Debug)]
pub struct TracedResponse {
    /// The answer, exactly as [`Service::execute`] would have returned.
    pub response: Response,
    /// Where the time went. Default-empty in the degenerate case where
    /// the request panicked before the trace could be assembled.
    pub trace: QueryTrace,
}

/// What [`Service::serve`] hands back: the answer, the trace if the
/// request was traced, and the plan it resolved (`None` when it failed
/// before resolving one).
struct Served {
    response: Response,
    trace: Option<QueryTrace>,
    plan: Option<Arc<PreparedQuery>>,
}

/// Parse `text` and render its plan key, under the tracer's `parse` and
/// `plan_cache` spans.
fn parse(text: &str, obs: &Tracer) -> Result<(ConjunctiveQuery, String), ServiceError> {
    let q = {
        let _span = obs.span(Phase::Parse);
        parse_query(text).map_err(ServiceError::Parse)?
    };
    let _span = obs.span(Phase::PlanCache);
    let key = plan_key(&q);
    Ok((q, key))
}

/// Evaluate one operation under a prepared plan, in context `ctx`. An
/// enumeration that trips the memory quota mid-join comes back as a
/// truncated partial result ([`Outcome::Partial`]); every other trip is a
/// typed [`ServiceError::Budget`].
fn run_op<C: ExecCtx>(plan: &PreparedQuery, op: Op, db: &Database, ctx: &C) -> Response {
    match op {
        Op::Boolean => plan.boolean(db, ctx).map(Outcome::Boolean),
        Op::Enumerate => plan.enumerate(db, ctx).map(|(rows, truncated)| {
            if truncated {
                Outcome::Partial(rows)
            } else {
                Outcome::Rows(rows)
            }
        }),
        Op::Count => plan.count(db, ctx).map(Outcome::Count),
    }
    .map_err(ServiceError::from)
}

/// The stable export name of an [`Op`].
fn op_name(op: Op) -> &'static str {
    match op {
        Op::Boolean => "boolean",
        Op::Enumerate => "enumerate",
        Op::Count => "count",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Value;

    fn triangle_db() -> Arc<Database> {
        let mut db = Database::new();
        db.add_fact("r", &[1, 2]);
        db.add_fact("s", &[2, 3]);
        db.add_fact("t", &[3, 1]);
        db.add_fact("t", &[3, 9]);
        Arc::new(db)
    }

    const TRIANGLE: &str = "ans(X,Y,Z) :- r(X,Y), s(Y,Z), t(Z,X).";

    #[test]
    fn single_requests_round_trip() {
        let svc = Service::new(triangle_db());
        assert_eq!(
            svc.execute(&Request::boolean(TRIANGLE)),
            Ok(Outcome::Boolean(true))
        );
        assert_eq!(
            svc.execute(&Request::count(TRIANGLE)),
            Ok(Outcome::Count(1))
        );
        match svc.execute(&Request::enumerate(TRIANGLE)) {
            Ok(Outcome::Rows(rows)) => {
                assert_eq!(rows.len(), 1);
                assert!(rows.contains_row(&[Value(1), Value(2), Value(3)]));
            }
            other => panic!("expected rows, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.plan_misses, 1, "one compilation for three requests");
        assert_eq!(stats.plan_hits, 2);
    }

    #[test]
    fn plan_cache_hits_perform_zero_decompositions() {
        // The acceptance gate: once a cyclic query's plan is cached,
        // serving it again must not touch the decomposition machinery at
        // all — not even for a cache probe.
        let svc = Service::new(triangle_db());
        svc.execute(&Request::boolean(TRIANGLE)).unwrap();
        let cold = svc.stats();
        assert_eq!(cold.decomp_misses, 1, "first request decomposes once");

        // Same text, α-renamed text, and a different op over the same
        // shape: all plan-cache hits.
        let alpha = "ans(A,B,C) :- r(A,B), s(B,C), t(C,A).";
        svc.execute(&Request::boolean(TRIANGLE)).unwrap();
        svc.execute(&Request::count(TRIANGLE)).unwrap();
        svc.execute(&Request::boolean(alpha)).unwrap();
        let warm = svc.stats();
        assert_eq!(warm.plan_hits, cold.plan_hits + 3);
        assert_eq!(
            (warm.decomp_hits, warm.decomp_misses),
            (cold.decomp_hits, cold.decomp_misses),
            "hit path must not reach the decomposition cache or solver"
        );
    }

    #[test]
    fn batches_dedup_and_answer_in_order() {
        let svc = Service::new(triangle_db());
        let alpha = "ans(A,B,C) :- r(A,B), s(B,C), t(C,A).";
        let reqs = vec![
            Request::boolean(TRIANGLE),
            Request::boolean("broken((."),
            Request::count(TRIANGLE),
            Request::boolean(alpha), // α-equivalent: same plan as TRIANGLE
            Request::boolean("ans :- r(X,Y)."),
        ];
        let responses = svc.execute_batch(&reqs);
        assert_eq!(responses.len(), 5);
        assert_eq!(responses[0], Ok(Outcome::Boolean(true)));
        assert!(matches!(responses[1], Err(ServiceError::Parse(_))));
        assert_eq!(responses[2], Ok(Outcome::Count(1)));
        assert_eq!(responses[3], Ok(Outcome::Boolean(true)));
        assert_eq!(responses[4], Ok(Outcome::Boolean(true)));
        let stats = svc.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.requests, 5);
        // Two distinct plans compiled (triangle + acyclic r): duplicates
        // and the α-variant rode along without a second preparation.
        assert_eq!(stats.plan_misses, 2);
        assert_eq!(stats.decomp_misses, 1);
    }

    #[test]
    fn snapshots_swap_without_touching_plans() {
        let svc = Service::new(triangle_db());
        assert_eq!(
            svc.execute(&Request::boolean(TRIANGLE)),
            Ok(Outcome::Boolean(true))
        );
        let before = svc.stats();

        // New snapshot with the closing edge removed: same plans, new data.
        let mut db2 = Database::new();
        db2.add_fact("r", &[1, 2]);
        db2.add_fact("s", &[2, 3]);
        db2.add_fact("t", &[8, 8]);
        let old = svc.replace_snapshot(Arc::new(db2));
        assert!(old.get("t").unwrap().contains_row(&[Value(3), Value(1)]));
        assert_eq!(
            svc.execute(&Request::boolean(TRIANGLE)),
            Ok(Outcome::Boolean(false))
        );
        let after = svc.stats();
        assert_eq!(after.plan_misses, before.plan_misses, "plans survived");
        assert_eq!(after.decomp_misses, before.decomp_misses);
    }

    #[test]
    fn large_parallel_batch_matches_sequential_answers() {
        let svc = Service::with_config(
            triangle_db(),
            ServiceConfig {
                min_parallel_batch: 2,
                max_threads: 4,
                ..Default::default()
            },
        );
        let mut reqs = Vec::new();
        for i in 0..64 {
            reqs.push(match i % 3 {
                0 => Request::boolean(TRIANGLE),
                1 => Request::count(TRIANGLE),
                _ => Request::boolean("ans :- r(X,Y), s(Y,Z)."),
            });
        }
        let responses = svc.execute_batch(&reqs);
        for (i, resp) in responses.iter().enumerate() {
            match i % 3 {
                0 => assert_eq!(resp, &Ok(Outcome::Boolean(true)), "slot {i}"),
                1 => assert_eq!(resp, &Ok(Outcome::Count(1)), "slot {i}"),
                _ => assert_eq!(resp, &Ok(Outcome::Boolean(true)), "slot {i}"),
            }
        }
    }

    #[test]
    fn repeated_variables_serve_end_to_end() {
        // Regression: a repeated variable inside an atom must act as an
        // equality selection all the way through parse → plan → serve.
        // e(X,X) keeps only the loops of e; the head projects onto X.
        let mut db = Database::new();
        db.add_fact("e", &[1, 1]);
        db.add_fact("e", &[2, 2]);
        db.add_fact("e", &[3, 4]);
        db.add_fact("f", &[1, 5]);
        db.add_fact("f", &[3, 6]);
        let svc = Service::new(Arc::new(db));
        let text = "ans(X) :- e(X,X), f(X,Y).";
        assert_eq!(
            svc.execute(&Request::boolean(text)),
            Ok(Outcome::Boolean(true))
        );
        match svc.execute(&Request::enumerate(text)) {
            Ok(Outcome::Rows(rows)) => {
                assert_eq!(rows.arity(), 1);
                assert_eq!(rows.len(), 1);
                assert!(rows.contains_row(&[Value(1)]));
            }
            other => panic!("expected rows, got {other:?}"),
        }
        // Exactly one satisfying assignment over var(Q) = {X, Y}.
        assert_eq!(svc.execute(&Request::count(text)), Ok(Outcome::Count(1)));
    }

    #[test]
    fn traced_requests_answer_identically_and_carry_provenance() {
        let svc = Service::new(triangle_db());
        let req = Request::enumerate(TRIANGLE);
        let plain = svc.execute(&req);

        // Cold plan cache was consumed by the untraced request; the
        // traced repeat must hit it and still answer byte-identically.
        let traced = svc.execute_traced(&req);
        assert_eq!(traced.response, plain);
        let t = &traced.trace;
        assert_eq!(t.op, "enumerate");
        assert_eq!(t.rows_emitted, 1);
        assert_eq!(t.plan_cache_hit, Some(true));
        assert_eq!(t.plan_kind, Some("hypertree"));
        assert!(t.plan_width >= 1);
        assert!(t.total_ns > 0);
        assert!(t.rows_scanned > 0, "metered joins scanned input rows");
        assert!(!t.truncated);

        // A cold-cache traced request sees the miss and the planning
        // phase.
        svc.clear_caches();
        let cold = svc.execute_traced(&Request::count(TRIANGLE));
        assert_eq!(cold.response, Ok(Outcome::Count(1)));
        assert_eq!(cold.trace.plan_cache_hit, Some(false));
        assert_eq!(cold.trace.decomp_cache_hit, Some(false));
        assert_eq!(cold.trace.op, "count");
        // The rendering mentions the op — smoke for the pretty-printer.
        assert!(cold.trace.render().contains("op=count"));
    }

    #[test]
    fn explain_reports_plan_shape_and_cache_lineage() {
        let svc = Service::new(triangle_db());
        let ex = svc.explain(TRIANGLE).unwrap();
        assert_eq!(ex.plan_cache_hit, Some(false), "cold cache: a real miss");
        assert_eq!(ex.kind, "hypertree");
        assert!(ex.width >= 1);
        assert!(!ex.nodes.is_empty());
        let text = ex.render();
        assert!(text.starts_with("EXPLAIN "));
        assert!(text.contains("kind=hypertree"));
        // EXPLAIN warmed the cache: the repeat (and any execution) hits.
        let again = svc.explain(TRIANGLE).unwrap();
        assert_eq!(again.plan_cache_hit, Some(true));
        assert_eq!(again.nodes, ex.nodes, "same plan, same tree");
        svc.execute(&Request::boolean(TRIANGLE)).unwrap();
        assert_eq!(svc.stats().plan_misses, 1, "EXPLAIN compiled the plan once");
    }

    #[test]
    fn explain_analyze_pairs_answer_with_node_rows() {
        let svc = Service::new(triangle_db());
        let ea = svc.explain_analyze(&Request::enumerate(TRIANGLE)).unwrap();
        match &ea.response {
            Ok(Outcome::Rows(rows)) => assert_eq!(rows.len(), 1),
            other => panic!("expected rows, got {other:?}"),
        }
        assert_eq!(ea.trace.op, "enumerate");
        // The acceptance gate: per-node row accounting lines up with the
        // plan tree, node for node.
        assert_eq!(ea.explain.nodes.len(), ea.trace.node_rows.len());
        assert!(ea.trace.node_rows.iter().any(|n| n.rows_in > 0));
        assert!(ea.trace.node_rows.iter().all(|n| n.rows_out <= n.rows_in));
        let text = ea.explain.render_analyzed(&ea.trace);
        assert!(text.starts_with("EXPLAIN ANALYZE"));
        assert!(text.contains("rows "));
        assert!(text.contains("actual: "));
    }

    #[test]
    fn explain_analyze_probes_the_plan_cache_once() {
        // Regression: EXPLAIN ANALYZE used to execute the request and then
        // call `explain`, which re-parsed and probed the cache again — two
        // lookups (and a phantom hit) per call.
        let svc = Service::new(triangle_db());
        let lookups = |svc: &Service| {
            let s = svc.stats();
            (s.plan_hits + s.plan_misses, s.decomp_hits + s.decomp_misses)
        };
        let cold = svc.explain_analyze(&Request::count(TRIANGLE)).unwrap();
        assert_eq!(cold.explain.plan_cache_hit, Some(false));
        assert_eq!(lookups(&svc), (1, 1), "one miss, one decomposition");
        let warm = svc.explain_analyze(&Request::count(TRIANGLE)).unwrap();
        assert_eq!(warm.explain.plan_cache_hit, Some(true));
        assert_eq!(warm.explain.nodes, cold.explain.nodes);
        assert_eq!(lookups(&svc), (2, 1), "one hit, no decomposition");
        assert_eq!(svc.stats().plan_hits, 1);
    }

    #[test]
    fn prepare_and_explain_run_under_the_request_deadline() {
        // Regression: both used to call the ungoverned preparation
        // directly, so a warm-up or an EXPLAIN ran the planner whatever
        // the deadline said. An already-elapsed deadline must stop them
        // at the first poll, before any plan exists. (A deadline that
        // elapses *during* planning degrades to the heuristic witness
        // instead — the planning tier of the ladder, see
        // `PreparedQuery::prepare_parsed`.)
        let svc = Service::with_config(
            triangle_db(),
            ServiceConfig {
                deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        );
        for got in [
            svc.prepare(TRIANGLE).map(|_| ()),
            svc.explain(TRIANGLE).map(|_| ()),
        ] {
            assert!(
                matches!(
                    got,
                    Err(ServiceError::Budget(
                        hypertree_core::QueryError::DeadlineExceeded { .. }
                    ))
                ),
                "expected a deadline trip, got {got:?}"
            );
        }
        let stats = svc.stats();
        assert_eq!(stats.plans_cached, 0, "a failed preparation caches nothing");
        assert_eq!(stats.decomp_hits + stats.decomp_misses, 0);
        assert_eq!(stats.plan_misses, 2, "both probed the plan cache for real");
    }

    #[test]
    fn flight_recorder_captures_traced_and_sampled_requests() {
        let svc = Service::with_config(
            triangle_db(),
            ServiceConfig {
                recorder: obs::RecorderConfig {
                    capacity: 8,
                    slow_threshold_ns: 0,
                    slow_capacity: 4,
                    slow_min_interval_ns: 0,
                },
                trace_sample: 1, // promote every request
                ..Default::default()
            },
        );
        svc.execute(&Request::boolean(TRIANGLE)).unwrap();
        svc.execute_traced(&Request::count(TRIANGLE));
        let recent = svc.recent_traces();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].trace.op, "count", "newest first");
        assert_eq!(recent[1].trace.op, "boolean");
        assert!(recent[0].id > recent[1].id);
        assert!(svc.flight_recorder().get(recent[0].id).is_some());
        // Threshold 0 + rate limit 0: everything lands in the slow log.
        assert_eq!(svc.slow_queries().len(), 2);
        // Sampled promotions feed the recorder but only the explicit
        // trace counts as a traced request.
        let prom = svc.metrics_snapshot().to_prometheus();
        assert!(prom.contains("service_traced_requests_total 1"));
        assert!(prom.contains("flight_recorder_traces 2"));

        // Sampling off: plain executions leave no wake.
        let quiet = Service::with_config(
            triangle_db(),
            ServiceConfig {
                trace_sample: 0,
                ..Default::default()
            },
        );
        quiet.execute(&Request::boolean(TRIANGLE)).unwrap();
        assert!(quiet.recent_traces().is_empty());
    }

    #[test]
    fn per_plan_stats_aggregate_singles_and_batch_members() {
        let svc = Service::with_config(
            triangle_db(),
            ServiceConfig {
                trace_sample: 1,
                ..Default::default()
            },
        );
        svc.execute(&Request::boolean(TRIANGLE)).unwrap();
        svc.execute_batch(&[Request::count(TRIANGLE), Request::boolean("ans :- r(X,Y).")]);
        let key = plan_key(&parse_query(TRIANGLE).unwrap());
        let stats = svc.plan_cache().stats_for(&key, svc.registry());
        assert_eq!(stats.requests.get(), 2, "one single + one batch member");
        assert!(stats.latency_ns.count() >= 1, "sampled single was traced");
        assert!(stats.rows_scanned.get() > 0);
        let prom = svc.metrics_snapshot().to_prometheus();
        obs::validate_prometheus(&prom).expect("per-plan families export cleanly");
        assert!(prom.contains("plan_requests_total"));
        assert!(prom.contains("plan_slowest_trace_id"));
    }

    #[test]
    fn metrics_snapshot_is_valid_prometheus_and_json() {
        let svc = Service::new(triangle_db());
        svc.execute(&Request::boolean(TRIANGLE)).unwrap();
        svc.execute_traced(&Request::enumerate(TRIANGLE));
        let snap = svc.metrics_snapshot();
        let prom = snap.to_prometheus();
        obs::validate_prometheus(&prom).expect("exporter output must be well-formed");
        for name in [
            "service_requests_total 2",
            "service_traced_requests_total 1",
            "plan_cache_hits_total",
            "decomp_cache_misses_total",
            "service_requests_by_op_total{op=\"boolean\"} 1",
            "plan_cache_len",
            "service_phase_latency_ns_bucket",
        ] {
            assert!(prom.contains(name), "missing {name:?} in:\n{prom}");
        }
        let json = snap.to_json();
        assert!(json.contains(obs::export::JSON_SCHEMA));
        assert!(json.contains("service_rows_scanned_total"));
    }

    #[test]
    fn service_and_plans_are_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<Service>();
        check::<PreparedQuery>();
        check::<super::super::PlanCache>();
    }

    #[test]
    fn missing_relations_answer_false_not_error() {
        let svc = Service::new(Arc::new(Database::new()));
        assert_eq!(
            svc.execute(&Request::boolean(TRIANGLE)),
            Ok(Outcome::Boolean(false))
        );
    }
}
