//! The traced pass: per-layer numbers measured from outside.
//!
//! Every request of the workload's schedule is still served by
//! [`Service::execute`] (untraced, timed); every fourth one is then
//! *replayed as a staged walk* through the layers' public functions —
//! `cq::parse_query`, `service::plan_key`, a plan-cache probe, and on a
//! miss `hypergraph()` / `acyclic::join_tree` / `decompose_auto`, then
//! `reduction::reduce` and the `Pipeline` operation — each call a
//! [`Span`]. Spans live in memory and are written out at exit.
//!
//! Two kinds of span hang under a walk's root (`staged.request`):
//!
//! * **chain** spans (parent = the root) are the calls the service itself
//!   makes, once each, in order. Their sum plus `service.self_ns` is the
//!   mean `execute` — by construction, `self_ns` is defined as the rest.
//! * **nested** spans (parent = a chain span) *re-measure* a call made
//!   inside their parent — `hypergraph()`, `complete()` and `bind_all`
//!   inside `reduce`; `best_decomposition` inside `decompose_auto`;
//!   `full_reduce` inside `enumerate` — by calling it again on the same
//!   inputs. Their interval therefore lies after the parent's, not inside.
//!
//! Times are reported as **mean nanoseconds per staged request**, whatever
//! the request's operation, so that they add; counts are exact.

use crate::oracle;
use crate::report::Value;
use crate::stats::percentile;
use crate::workload::{check_gates, Bench, BenchError, Req, Step, Window};
use cq::ConjunctiveQuery;
use eval::{bind_all, reduction, EvalError, Pipeline};
use hypergraph::{acyclic, Ix, JoinTree, VertexId};
use hypertree_core::HypertreeDecomposition;
use relation::{ops, shard, Database, Relation};
use service::{plan_key, Op, Outcome, PlanCache, PrepareConfig, Request, Service, ServiceConfig};
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every `STAGE_EVERY`-th request is replayed as a staged walk.
pub const STAGE_EVERY: usize = 4;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.metric` name of the call.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span this one belongs under.
    pub parent: Option<u32>,
    /// The staged request the span belongs to.
    pub request_id: u32,
}

/// In-memory span log.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    request_id: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            request_id: 0,
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span called `name` under `parent`; returns its
    /// result, the span's index, and its duration in nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32, u64) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let id = self.push(name, start_ns, end_ns, parent);
        (out, id, end_ns - start_ns)
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: self.request_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Total nanoseconds of the chain spans: those whose parent is a
    /// `staged.request` root.
    pub fn chain_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| {
                s.parent
                    .is_some_and(|p| self.spans[p as usize].name == ROOT)
            })
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Write the spans as JSON lines.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"request_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            )?;
        }
        out.flush()
    }
}

const ROOT: &str = "staged.request";
const EXECUTE: &str = "service.execute_ns";

/// The plan of one shape, rebuilt from the planner's public functions.
enum StagedPlan {
    JoinTree(JoinTree),
    Hypertree(HypertreeDecomposition),
}

fn plan(q: &ConjunctiveQuery, exact_steps: u64) -> StagedPlan {
    let h = q.hypergraph();
    match acyclic::join_tree(&h) {
        Some(jt) => StagedPlan::JoinTree(jt),
        None => StagedPlan::Hypertree(heuristics::decompose_auto(&h, exact_steps).hd),
    }
}

/// Exact counts taken at the layer boundaries of the staged walks.
#[derive(Default)]
struct Counts {
    staged: u64,
    failed: u64,
    text_bytes: u64,
    edges: u64,
    planned: u64,
    width: u64,
    decomp_nodes: u64,
    tiers: [u64; 3],
    heuristics_calls: u64,
    exact_search_ns: u64,
    node_join_ns: u64,
    bound_rows: u64,
    node_rows: u64,
    node_cells: u64,
    output_rows: u64,
    survivors: u64,
    survivor_base: u64,
}

/// Two adjacent node relations and the columns they share.
#[derive(Default)]
struct KernelPair {
    parent: Relation,
    child: Relation,
    parent_cols: Vec<usize>,
    child_cols: Vec<usize>,
}

impl KernelPair {
    fn rows(&self) -> usize {
        self.parent.len() + self.child.len()
    }

    /// Replace `self` by the largest adjacent pair of `rels` that shares
    /// a column, if that is larger.
    fn keep_largest(&mut self, pipeline: &Pipeline, rels: &[Relation]) {
        let tree = pipeline.tree();
        for n in tree.nodes() {
            let Some(p) = tree.parent(n) else { continue };
            let (parent, child) = (&rels[p.index()], &rels[n.index()]);
            let (pv, cv) = (pipeline.node_vars(p), pipeline.node_vars(n));
            let shared: Vec<(usize, usize)> = pv
                .iter()
                .enumerate()
                .filter_map(|(i, v)| cv.iter().position(|w| w == v).map(|j| (i, j)))
                .collect();
            if shared.is_empty() || parent.len() + child.len() <= self.rows() {
                continue;
            }
            *self = KernelPair {
                parent: parent.clone(),
                child: child.clone(),
                parent_cols: shared.iter().map(|&(i, _)| i).collect(),
                child_cols: shared.iter().map(|&(_, j)| j).collect(),
            };
        }
    }
}

/// The state of the staged walks of one traced pass.
struct Walker {
    rec: Recorder,
    counts: Counts,
    /// Hot workloads: one plan per shape, prepared up front (the walk's
    /// plan-cache hit resolves to it). Empty for `cold_plan`, which plans
    /// inside the walk.
    plans: Vec<StagedPlan>,
    /// The walk's own plan cache, probed with the real key: the probe
    /// costs what the service's does without touching its counters.
    cache: PlanCache,
    /// Shapes whose node relations were already considered for `built`;
    /// likewise `reduced_seen` for `reduced`.
    built_seen: Vec<bool>,
    reduced_seen: Vec<bool>,
    /// The largest adjacent pair of freshly built node relations: what
    /// the semijoin sweeps, index builds and projections run on.
    built: KernelPair,
    /// The largest adjacent pair after full reduction: what the output
    /// joins run on (joining unreduced node relations is something the
    /// pipeline never does, and on real data it would not fit in memory).
    reduced: KernelPair,
    exact_steps: u64,
}

impl Walker {
    fn new(bench: &Bench) -> Result<Walker, BenchError> {
        let exact_steps = PrepareConfig::default().exact_steps;
        let cache = PlanCache::new();
        let mut plans = Vec::new();
        if bench.inputs.workload.is_hot() {
            for s in &bench.inputs.shapes {
                // Plan the query as the service sees it: parsing interns
                // variables in text order, which is not the generator's.
                let warm_up = |e: &dyn std::fmt::Display| {
                    BenchError::WarmUp(format!("prepare {}: {e}", s.name))
                };
                let q = cq::parse_query(&s.text).map_err(|e| warm_up(&e))?;
                let prepared = bench.svc.prepare(&s.text).map_err(|e| warm_up(&e))?;
                cache.insert_prepared(&plan_key(&q), prepared);
                plans.push(plan(&q, exact_steps));
            }
        }
        let shapes = bench.inputs.shapes.len();
        Ok(Walker {
            rec: Recorder::default(),
            counts: Counts::default(),
            plans,
            cache,
            built_seen: vec![false; shapes],
            reduced_seen: vec![false; shapes],
            built: KernelPair::default(),
            reduced: KernelPair::default(),
            exact_steps,
        })
    }

    /// Replay one request — `text` asking `op` of shape number `shape` —
    /// as a staged walk over `db`, right after the service answered it
    /// during `execute` (recorder clock), and check the walk's answer.
    fn walk(
        &mut self,
        (text, shape, op): (&str, usize, Op),
        db: &Database,
        expected: &oracle::Expected,
        execute: (u64, u64),
    ) {
        self.rec.request_id += 1;
        self.counts.staged += 1;
        self.rec.push(EXECUTE, execute.0, execute.1, None);
        let start = self.rec.now();
        let root = self.rec.push(ROOT, start, start, None);
        let answer = self.walk_under(root, text, shape, op, db);
        self.rec.spans[root as usize].end_ns = self.rec.now();
        if !oracle::matches(&answer.map_err(Into::into), op, expected) {
            self.counts.failed += 1;
        }
    }

    fn walk_under(
        &mut self,
        root: u32,
        text: &str,
        shape: usize,
        op: Op,
        db: &Database,
    ) -> Result<Outcome, EvalError> {
        let Walker {
            rec,
            counts,
            plans,
            cache,
            ..
        } = self;
        let chain = Some(root);
        counts.text_bytes += text.len() as u64;

        // Front end: parse, key, cache probe — what every request pays.
        let (parsed, _, _) = rec.time("cq.parse_ns", chain, || cq::parse_query(text));
        let q = match parsed {
            Ok(q) => q,
            // Texts are generated, so this cannot happen; answer with
            // something no oracle expects rather than trusting that.
            Err(_) => return Ok(Outcome::Partial(Relation::new(0))),
        };
        let (key, _, _) = rec.time("service.plan_key_ns", chain, || plan_key(&q));
        rec.time("service.plan_cache_get_ns", chain, || cache.get(&key));

        // Planning, on a miss only.
        let mut planning_h = None;
        let planned;
        let staged_plan = match plans.get(shape) {
            Some(p) => p,
            None => {
                let (h, _, h_ns) = rec.time("hypergraph.build_ns", chain, || q.hypergraph());
                counts.edges += h.num_edges() as u64;
                counts.planned += 1;
                let (jt, _, _) =
                    rec.time("hypergraph.join_tree_ns", chain, || acyclic::join_tree(&h));
                planned = match jt {
                    Some(jt) => StagedPlan::JoinTree(jt),
                    None => {
                        let steps = self.exact_steps;
                        let (auto, auto_id, auto_ns) =
                            rec.time("heuristics.decompose_auto_ns", chain, || {
                                heuristics::decompose_auto(&h, steps)
                            });
                        let nested = Some(auto_id);
                        let (_, _, best_ns) =
                            rec.time("heuristics.best_decomposition_ns", nested, || {
                                heuristics::best_decomposition(&h)
                            });
                        let (valid, _, _) =
                            rec.time("core.validate_ghd_ns", nested, || auto.hd.validate_ghd(&h));
                        if valid.is_err() {
                            // The planner handed out an invalid plan:
                            // a failed request, whatever it would answer.
                            return Ok(Outcome::Partial(Relation::new(0)));
                        }
                        counts.heuristics_calls += 2;
                        counts.exact_search_ns += auto_ns.saturating_sub(best_ns);
                        counts.tiers[match auto.provenance {
                            heuristics::Provenance::Exact => 0,
                            heuristics::Provenance::HeuristicOptimal => 1,
                            heuristics::Provenance::Heuristic => 2,
                        }] += 1;
                        counts.width += auto.hd.width() as u64;
                        counts.decomp_nodes += auto.hd.len() as u64;
                        StagedPlan::Hypertree(auto.hd)
                    }
                };
                planning_h = Some((h, h_ns));
                &planned
            }
        };

        // Bind and build the node relations.
        let (pipeline, mut rels) = match staged_plan {
            StagedPlan::Hypertree(hd) => {
                let (reduced, reduce_id, reduce_ns) = rec.time("eval.reduce_ns", chain, || {
                    reduction::reduce(&q, db, hd).map(reduction::ReducedInstance::into_pipeline)
                });
                let nested = Some(reduce_id);
                let (h, h_ns) = planning_h.unwrap_or_else(|| {
                    let (h, _, ns) = rec.time("hypergraph.build_ns", nested, || q.hypergraph());
                    (h, ns)
                });
                let (_, _, complete_ns) = rec.time("core.complete_ns", nested, || hd.complete(&h));
                let (bound, _, bind_ns) = rec.time("eval.bind_ns", nested, || bind_all(&q, db));
                counts.bound_rows += bound?.iter().map(|b| b.rel.len() as u64).sum::<u64>();
                counts.node_join_ns += reduce_ns.saturating_sub(h_ns + complete_ns + bind_ns);
                reduced?
            }
            StagedPlan::JoinTree(jt) => {
                let (bound, _, _) = rec.time("eval.bind_ns", chain, || bind_all(&q, db));
                let bound = bound?;
                counts.bound_rows += bound.iter().map(|b| b.rel.len() as u64).sum::<u64>();
                // A join tree's node relations are the bound atoms
                // themselves: "reduce" only moves them into tree order.
                rec.time("eval.reduce_ns", chain, || {
                    let mut slots: Vec<Option<eval::BoundAtom>> =
                        bound.into_iter().map(Some).collect();
                    let tree = jt.tree();
                    let (vars, rels): (Vec<_>, Vec<_>) = tree
                        .nodes()
                        .filter_map(|n| slots[jt.edge_at(n).index()].take())
                        .map(|b| (b.vars, b.rel))
                        .unzip();
                    (Pipeline::new(tree, vars), rels)
                })
                .0
            }
        };
        let node_rows: u64 = rels.iter().map(|r| r.len() as u64).sum();
        counts.node_rows += node_rows;
        counts.node_cells += rels.iter().map(|r| r.size() as u64).sum::<u64>();
        if !std::mem::replace(&mut self.built_seen[shape], true) {
            self.built.keep_largest(&pipeline, &rels);
        }

        // The operation.
        Ok(match op {
            Op::Boolean => {
                let (b, _, _) = rec.time("eval.semijoin_ns", chain, || pipeline.boolean(&mut rels));
                Outcome::Boolean(b)
            }
            Op::Count => {
                let (c, _, _) = rec.time("eval.count_dp_ns", chain, || pipeline.count(&rels));
                Outcome::Count(c)
            }
            Op::Enumerate => {
                let mut copy = rels.clone();
                let head: Vec<VertexId> = q.head_vars();
                let (rows, enumerate_id, _) = rec.time("eval.enumerate_ns", chain, || {
                    pipeline.enumerate(&mut rels, &head)
                });
                rec.time("eval.full_reduce_ns", Some(enumerate_id), || {
                    pipeline.full_reduce(&mut copy)
                });
                if !std::mem::replace(&mut self.reduced_seen[shape], true) {
                    self.reduced.keep_largest(&pipeline, &copy);
                }
                counts.survivors += copy.iter().map(|r| r.len() as u64).sum::<u64>();
                counts.survivor_base += node_rows;
                counts.output_rows += rows.len() as u64;
                Outcome::Rows(rows)
            }
        })
    }
}

/// A copy of `rel` with no cached index: rows pushed one by one, in
/// reverse when `scramble` (so the copy is not known to be sorted or
/// distinct, and `dedup` has work to do).
fn fresh(rel: &Relation, scramble: bool) -> Relation {
    let mut out = Relation::with_capacity(rel.arity(), rel.len());
    if scramble {
        (0..rel.len()).rev().for_each(|i| out.push_row(rel.row(i)));
    } else {
        rel.rows().for_each(|row| out.push_row(row));
    }
    out
}

/// Median nanoseconds per input row of `reps` runs of `kernel`, each on
/// inputs freshly made by `make` (outside the timed region).
fn kernel_ns_per_row<I>(rows: usize, reps: usize, make: impl Fn() -> I, kernel: impl Fn(I)) -> f64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let input = make();
            let t0 = Instant::now();
            kernel(input);
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    percentile(&mut samples, 50.0) as f64 / rows.max(1) as f64
}

/// Time the `relation` kernels, nanoseconds per input row: the joins on
/// the `reduced` pair, everything else on the `built` pair `pair`.
fn kernels(pair: &KernelPair, reduced: &KernelPair) -> Vec<Value> {
    const REPS: usize = 9;
    let both = pair.rows();
    let on: Vec<(usize, usize)> = reduced
        .parent_cols
        .iter()
        .copied()
        .zip(reduced.child_cols.iter().copied())
        .collect();
    let keep: Vec<usize> = (0..reduced.child.arity())
        .filter(|j| !reduced.child_cols.contains(j))
        .collect();
    let inputs = || (fresh(&pair.parent, false), fresh(&pair.child, false));
    let join_inputs = || (fresh(&reduced.parent, false), fresh(&reduced.child, false));
    vec![
        (
            "relation.join_ns_per_row",
            kernel_ns_per_row(reduced.rows(), REPS, join_inputs, |(p, c)| {
                std::hint::black_box(ops::join(&p, &c, &on, &keep));
            }),
        ),
        (
            "relation.semijoin_ns_per_row",
            kernel_ns_per_row(both, REPS, inputs, |(mut p, c)| {
                p.retain_semijoin_cols(&pair.parent_cols, &c, &pair.child_cols);
                std::hint::black_box(p);
            }),
        ),
        (
            "relation.index_build_ns_per_row",
            kernel_ns_per_row(
                pair.child.len(),
                REPS,
                || fresh(&pair.child, false),
                |c| {
                    std::hint::black_box(c.index_on(&pair.child_cols));
                },
            ),
        ),
        (
            "relation.dedup_ns_per_row",
            kernel_ns_per_row(
                pair.parent.len(),
                REPS,
                || fresh(&pair.parent, true),
                |mut p| {
                    p.dedup();
                    std::hint::black_box(p);
                },
            ),
        ),
        (
            "relation.project_ns_per_row",
            kernel_ns_per_row(
                pair.parent.len(),
                REPS,
                || fresh(&pair.parent, false),
                |p| {
                    std::hint::black_box(ops::project(&p, &pair.parent_cols));
                },
            ),
        ),
        (
            "relation.join_sharded2_ns_per_row",
            kernel_ns_per_row(reduced.rows(), REPS, join_inputs, |(p, c)| {
                std::hint::black_box(shard::join_sharded(&p, &c, &on, &keep, 2));
            }),
        ),
        (
            "relation.semijoin_sharded2_ns_per_row",
            kernel_ns_per_row(both, REPS, inputs, |(mut p, c)| {
                shard::retain_semijoin_cols_sharded(
                    &mut p,
                    &pair.parent_cols,
                    &c,
                    &pair.child_cols,
                    2,
                );
                std::hint::black_box(p);
            }),
        ),
    ]
}

/// What the traced pass produced.
pub struct Traced {
    /// One value per [`crate::report::PER_LAYER`] entry, in order.
    pub values: Vec<Value>,
    /// Requests served by the service under test and checked.
    pub attempted: u64,
    /// Service responses plus staged walks that disagreed with the oracle.
    pub failed: u64,
    /// Every span recorded.
    pub recorder: Recorder,
}

/// The three twins served beside the service under test, request by
/// request, so all four sample the same noise: a governed service (roomy
/// deadline and byte quota: the budget is polled but never trips), one
/// that only ever serves `execute_traced`, and one that only ever
/// `prepare`s (its misses are `service.prepare_miss_ns`).
struct Twins {
    governed: Service,
    traced: Service,
    prepare: Service,
    tally: TwinTally,
}

/// What the twins measured over the staged requests.
#[derive(Default)]
struct TwinTally {
    /// `execute` on the service under test, the base of both ratios.
    plain_ns: u64,
    governed_ns: u64,
    traced_ns: u64,
    prepare_miss_ns: u64,
    /// The program's own `QueryTrace` phases, summed.
    phase_ns: [u64; obs::Phase::COUNT],
    /// Phase time with containers counted once, and the traced wall.
    cover_ns: u64,
    traced_total_ns: u64,
    failed: u64,
}

impl Twins {
    fn new(bench: &Bench) -> Result<Twins, BenchError> {
        let inputs = &bench.inputs;
        let service = |cfg| Service::with_config(Arc::clone(&inputs.snapshots[0]), cfg);
        let twins = Twins {
            governed: service(ServiceConfig {
                deadline: Some(Duration::from_secs(600)),
                max_result_bytes: Some(1 << 44),
                ..inputs.service_config()
            }),
            traced: service(inputs.service_config()),
            prepare: service(inputs.service_config()),
            tally: TwinTally::default(),
        };
        if inputs.workload.is_hot() {
            for item in &inputs.items {
                for svc in [&twins.governed, &twins.traced] {
                    svc.prepare(&item.text)
                        .map_err(|e| BenchError::WarmUp(format!("twin prepare: {e}")))?;
                }
            }
        }
        Ok(twins)
    }

    fn services(&self) -> [&Service; 3] {
        [&self.governed, &self.traced, &self.prepare]
    }

    /// Serve on the twins the request the service under test just
    /// answered in `plain_ns`.
    fn serve(&mut self, request: &Request, expected: &oracle::Expected, plain_ns: u64, cold: bool) {
        let tally = &mut self.tally;
        tally.plain_ns += plain_ns;

        let t0 = Instant::now();
        let resp = self.governed.execute(request);
        tally.governed_ns += t0.elapsed().as_nanos() as u64;
        tally.failed += u64::from(!oracle::matches(&resp, request.op, expected));

        let t0 = Instant::now();
        let resp = self.traced.execute_traced(request);
        tally.traced_ns += t0.elapsed().as_nanos() as u64;
        tally.failed += u64::from(!oracle::matches(&resp.response, request.op, expected));
        let phase = |p| resp.trace.phase(p);
        for p in obs::Phase::ALL {
            tally.phase_ns[p.index()] += phase(p);
        }
        // `enumerate` contains `reduce` and `join`, and `plan` contains
        // `decompose`: cover each nanosecond once.
        let evaluation = match phase(obs::Phase::Enumerate) {
            0 => phase(obs::Phase::Reduce) + phase(obs::Phase::Join),
            container => container,
        };
        tally.cover_ns += evaluation
            + phase(obs::Phase::Parse)
            + phase(obs::Phase::PlanCache)
            + phase(obs::Phase::Plan)
            + phase(obs::Phase::Count);
        tally.traced_total_ns += resp.trace.total_ns;

        if cold {
            let t0 = Instant::now();
            let prepared = self.prepare.prepare(&request.text);
            tally.prepare_miss_ns += t0.elapsed().as_nanos() as u64;
            tally.failed += u64::from(prepared.is_err());
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run the traced pass over `window`.
pub fn trace(bench: &Bench, window: Window) -> Result<Traced, BenchError> {
    let inputs = &bench.inputs;
    let hot = inputs.workload.is_hot();
    let mut walker = Walker::new(bench)?;
    let mut twins = Twins::new(bench)?;

    let before = bench.svc.stats();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut served = 0usize;
    let mut execute_all_ns = 0u64;
    let (mut batch_wall_ns, mut batch_singles_ns) = (0u64, 0u64);
    let (mut batch_keys, mut batch_requests) = (0u64, 0u64);

    // The staged loop gets most of the window; the kernel timings and the
    // snapshot-swap probe need a fixed fraction of a second after it.
    let window = window.scaled(0.85);
    let started = Instant::now();
    let mut snapshot = 0usize;
    'run: for pass_no in 0.. {
        if window.over(pass_no, started) {
            break;
        }
        if !hot {
            bench.svc.clear_caches();
            twins.services().into_iter().for_each(Service::clear_caches);
        }
        for step in inputs.pass_steps(pass_no) {
            let singles: Vec<Req> = match step {
                Step::Swap(i) => {
                    for svc in twins.services().into_iter().chain([&bench.svc]) {
                        svc.replace_snapshot(Arc::clone(&inputs.snapshots[i]));
                    }
                    snapshot = i;
                    continue;
                }
                Step::Single(req) => vec![req],
                Step::Batch(b) => {
                    // The batch itself, then each member singly: the ratio
                    // of the two is what batching buys.
                    let (n, bad, dt) = bench.serve(step, &mut snapshot);
                    attempted += n;
                    failed += bad;
                    batch_wall_ns += dt.as_nanos() as u64;
                    let batch = &inputs.batches[b];
                    let mut shapes: Vec<usize> =
                        batch.iter().map(|r| inputs.items[r.item].shape).collect();
                    shapes.sort_unstable();
                    shapes.dedup();
                    batch_keys += shapes.len() as u64;
                    batch_requests += batch.len() as u64;
                    batch.clone()
                }
            };
            let in_batch = matches!(step, Step::Batch(_));
            for req in singles {
                let request = inputs.request(req);
                let expected = inputs.expected(req, snapshot);
                let start_ns = walker.rec.now();
                let resp = bench.svc.execute(&request);
                let end_ns = walker.rec.now();
                let ns = end_ns - start_ns;
                attempted += 1;
                failed += u64::from(!oracle::matches(&resp, req.op, expected));
                latencies.push(ns);
                execute_all_ns += ns;
                if in_batch {
                    batch_singles_ns += ns;
                }
                served += 1;
                if !served.is_multiple_of(STAGE_EVERY) {
                    continue;
                }
                twins.serve(&request, expected, ns, !hot);
                let item = &inputs.items[req.item];
                walker.walk(
                    (&item.text, item.shape, req.op),
                    &inputs.snapshots[snapshot],
                    expected,
                    (start_ns, end_ns),
                );
            }
            if in_batch && window.over_mid_pass(started) {
                break 'run;
            }
        }
    }
    let after = bench.svc.stats();
    // Batch members are served twice (in the batch, then singly), so the
    // counters saw exactly `attempted` requests either way.
    check_gates(inputs.workload, &before, &after, attempted)?;
    let c = &walker.counts;
    if hot && c.heuristics_calls != 0 {
        return Err(BenchError::Gate(format!(
            "{}: {} decomposer calls staged on a hot workload",
            inputs.workload.name(),
            c.heuristics_calls
        )));
    }
    if c.staged == 0 {
        return Err(BenchError::Gate("no request was staged".to_string()));
    }
    let t = &twins.tally;
    failed += c.failed + t.failed;

    // Snapshot swap: alternate over the workload's snapshots.
    const SWAPS: usize = 64;
    let t0 = Instant::now();
    for i in 0..SWAPS {
        bench
            .svc
            .replace_snapshot(Arc::clone(&inputs.snapshots[i % inputs.snapshots.len()]));
    }
    let replace_snapshot_us = t0.elapsed().as_secs_f64() * 1e6 / SWAPS as f64;
    bench.reset();

    // An empty span, for the record of what recording costs.
    let mut scratch = Recorder::default();
    const EMPTY_SPANS: u32 = 10_000;
    let t0 = Instant::now();
    for _ in 0..EMPTY_SPANS {
        scratch.time("bench.empty", None, || ());
    }
    let span_cost_ns = t0.elapsed().as_nanos() as f64 / f64::from(EMPTY_SPANS);

    let rec = &walker.rec;
    let n = c.staged;
    let mean = |name: &str| rec.total_ns(name) as f64 / n as f64;
    let execute_ns = mean(EXECUTE);
    let self_ns = execute_ns - rec.chain_ns() as f64 / n as f64;
    let planned = c.planned.max(1) as f64;
    let decomposed = c.tiers.iter().sum::<u64>();
    let mut values: Vec<Value> = vec![
        ("cq.parse_ns", mean("cq.parse_ns")),
        ("cq.text_bytes", c.text_bytes as f64 / n as f64),
        (EXECUTE, execute_ns),
        ("service.plan_key_ns", mean("service.plan_key_ns")),
        (
            "service.plan_cache_get_ns",
            mean("service.plan_cache_get_ns"),
        ),
        ("service.self_ns", self_ns),
        ("service.unaccounted_ratio", self_ns / execute_ns),
        (
            "service.prepare_miss_ns",
            t.prepare_miss_ns as f64 / n as f64,
        ),
        (
            "service.plan_cache_hit_ratio",
            ratio(
                after.plan_hits - before.plan_hits,
                after.plan_hits - before.plan_hits + after.plan_misses - before.plan_misses,
            ),
        ),
        (
            "service.plan_cache_evictions",
            (after.plan_evictions - before.plan_evictions) as f64,
        ),
        ("service.replace_snapshot_us", replace_snapshot_us),
        (
            "service.batch_dedup_ratio",
            ratio(batch_keys, batch_requests),
        ),
        (
            "service.batch_speedup",
            ratio(batch_singles_ns, batch_wall_ns),
        ),
        (
            "service.governed_overhead_ratio",
            ratio(t.governed_ns, t.plain_ns),
        ),
        (
            "service.p95_us",
            percentile(&mut latencies, 95.0) as f64 / 1e3,
        ),
        (
            "service.p99_us",
            percentile(&mut latencies, 99.0) as f64 / 1e3,
        ),
        (
            "service.max_us",
            percentile(&mut latencies, 100.0) as f64 / 1e3,
        ),
        ("hypergraph.build_ns", mean("hypergraph.build_ns")),
        ("hypergraph.join_tree_ns", mean("hypergraph.join_tree_ns")),
        ("hypergraph.edges_mean", c.edges as f64 / planned),
        (
            "heuristics.best_decomposition_ns",
            mean("heuristics.best_decomposition_ns"),
        ),
        (
            "heuristics.decompose_auto_ns",
            mean("heuristics.decompose_auto_ns"),
        ),
        ("heuristics.calls", c.heuristics_calls as f64),
        ("heuristics.width_mean", ratio(c.width, decomposed)),
        ("heuristics.tier_exact_ratio", ratio(c.tiers[0], decomposed)),
        (
            "heuristics.tier_heuristic_optimal_ratio",
            ratio(c.tiers[1], decomposed),
        ),
        (
            "heuristics.tier_heuristic_ratio",
            ratio(c.tiers[2], decomposed),
        ),
        ("core.exact_search_ns", c.exact_search_ns as f64 / n as f64),
        ("core.validate_ghd_ns", mean("core.validate_ghd_ns")),
        ("core.decomp_nodes_mean", ratio(c.decomp_nodes, decomposed)),
        (
            "core.decomp_cache_hit_ratio",
            ratio(
                after.decomp_hits - before.decomp_hits,
                after.decomp_hits - before.decomp_hits + after.decomp_misses - before.decomp_misses,
            ),
        ),
        ("core.complete_ns", mean("core.complete_ns")),
        ("eval.bind_ns", mean("eval.bind_ns")),
        ("eval.bound_rows", c.bound_rows as f64 / n as f64),
        ("eval.reduce_ns", mean("eval.reduce_ns")),
        ("eval.node_join_ns", c.node_join_ns as f64 / n as f64),
        ("eval.node_rows", c.node_rows as f64 / n as f64),
        ("eval.node_cells", c.node_cells as f64 / n as f64),
        ("eval.semijoin_ns", mean("eval.semijoin_ns")),
        ("eval.full_reduce_ns", mean("eval.full_reduce_ns")),
        ("eval.enumerate_ns", mean("eval.enumerate_ns")),
        (
            "eval.output_join_ns",
            mean("eval.enumerate_ns") - mean("eval.full_reduce_ns"),
        ),
        ("eval.output_rows", c.output_rows as f64 / n as f64),
        ("eval.count_dp_ns", mean("eval.count_dp_ns")),
        (
            "eval.semijoin_survivor_ratio",
            ratio(c.survivors, c.survivor_base),
        ),
    ];
    values.extend(kernels(&walker.built, &walker.reduced));
    values.push(("obs.traced_overhead_ratio", ratio(t.traced_ns, t.plain_ns)));
    const PHASE_METRICS: [&str; obs::Phase::COUNT] = [
        "obs.phase_parse_ns",
        "obs.phase_plan_cache_ns",
        "obs.phase_decompose_ns",
        "obs.phase_plan_ns",
        "obs.phase_reduce_ns",
        "obs.phase_join_ns",
        "obs.phase_enumerate_ns",
        "obs.phase_count_ns",
    ];
    for (p, name) in obs::Phase::ALL.into_iter().zip(PHASE_METRICS) {
        values.push((name, t.phase_ns[p.index()] as f64 / n as f64));
    }
    values.extend([
        (
            "obs.phase_coverage_ratio",
            ratio(t.cover_ns, t.traced_total_ns),
        ),
        ("bench.span_cost_ns", span_cost_ns),
        (
            "bench.staged_overhead_ratio",
            ratio(execute_all_ns + rec.total_ns(ROOT), execute_all_ns),
        ),
        ("bench.staged_requests", n as f64),
        ("bench.requests", attempted as f64),
        ("bench.kernel_pair_rows", walker.built.rows() as f64),
    ]);
    Ok(Traced {
        values,
        attempted,
        failed,
        recorder: walker.rec,
    })
}
