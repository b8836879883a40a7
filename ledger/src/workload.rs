//! The five workloads: inputs, request schedule, set-up, and the
//! untraced (end-to-end) measurement loop.
//!
//! Load model: a closed loop with one client thread calling
//! [`Service::execute`] — callers of a library wait for the reply.
//! `batch_mixed` calls [`Service::execute_batch`] with at most two worker
//! threads and is the only multi-threaded workload.

use crate::inputs::{self, shuffle, Shape};
use crate::oracle::{self, Expected, OracleError};
use rand::RngExt;
use relation::Database;
use service::{Op, Request, Service, ServiceConfig, ServiceStats};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::random;

/// The operations, in the rotation order every schedule uses.
pub const OPS: [Op; 3] = [Op::Boolean, Op::Count, Op::Enumerate];

/// Index of `op` in [`OPS`].
pub fn op_index(op: Op) -> usize {
    match op {
        Op::Boolean => 0,
        Op::Count => 1,
        Op::Enumerate => 2,
    }
}

/// Requests per `batch_mixed` batch.
pub const BATCH_SIZE: usize = 64;
/// `swap_data` installs the other snapshot every this many requests.
pub const SWAP_EVERY: usize = 8;

/// A named workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Plan-cache hits over tiny data: the front end does the work.
    HotFront,
    /// Plan-cache hits over real data: `eval` + `relation` do the work.
    HotData,
    /// `hot_data` traffic with a snapshot swap every eight requests.
    SwapData,
    /// Every request misses the plan cache and the decomposition cache.
    ColdPlan,
    /// 64-request batches, 80/20 skew, α-renamed duplicates, ≤ 2 threads.
    BatchMixed,
}

impl Workload {
    /// Every workload, in ledger order.
    pub const ALL: [Workload; 5] = [
        Workload::HotFront,
        Workload::HotData,
        Workload::SwapData,
        Workload::ColdPlan,
        Workload::BatchMixed,
    ];

    /// The name `BENCHMARK.json` and later issues use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotFront => "hot_front",
            Workload::HotData => "hot_data",
            Workload::SwapData => "swap_data",
            Workload::ColdPlan => "cold_plan",
            Workload::BatchMixed => "batch_mixed",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Hot workloads must never compile or decompose after warm-up.
    pub fn is_hot(self) -> bool {
        self != Workload::ColdPlan
    }
}

/// One request text and the shape (plan key) it resolves to.
#[derive(Clone, Debug)]
pub struct Item {
    /// Index into [`Inputs::shapes`].
    pub shape: usize,
    /// The request text (the shape's own, or its α-renamed twin).
    pub text: String,
}

/// One scheduled request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Req {
    /// Index into [`Inputs::items`].
    pub item: usize,
    /// The operation requested.
    pub op: Op,
}

/// Everything generated from the seed.
pub struct Inputs {
    /// Which workload these inputs drive.
    pub workload: Workload,
    /// Distinct shapes (= distinct plan keys).
    pub shapes: Vec<Shape>,
    /// Request texts.
    pub items: Vec<Item>,
    /// Database snapshots (two for `swap_data`, one otherwise).
    pub snapshots: Vec<Arc<Database>>,
    /// Oracle answers, `[snapshot][shape]`.
    pub expected: Vec<Vec<Expected>>,
    /// The requests of one pass (empty for `batch_mixed`), reshuffled
    /// for every pass. For `cold_plan` the `op` is the pass-0 assignment
    /// and rotates by one per pass, so every (shape, op) pair is served
    /// within three passes.
    pub pass: Vec<Req>,
    /// Seed of the per-pass shuffles.
    pub order_seed: u64,
    /// One pass of batches (`batch_mixed` only); a batch is single-op.
    pub batches: Vec<Vec<Req>>,
}

/// One step of a pass.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Install snapshot `i` (`swap_data`).
    Swap(usize),
    /// Serve one request.
    Single(Req),
    /// Serve batch `b` of [`Inputs::batches`].
    Batch(usize),
}

impl Inputs {
    /// Generate the inputs of `workload` from `seed`. The same seed gives
    /// the same texts, databases, expected answers and schedule.
    pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, OracleError> {
        let rng = &mut random::rng(seed ^ 0x01ED_6E12);
        // `batch_mixed` only: how many leading shapes run over tiny data.
        let mut tiny = 0;
        // Data sizing, as (domain, rows per relation). Tiny data fills half
        // the domain, so the naive oracle's intermediate joins shrink
        // towards the planted answer even on 150-atom texts; real data is
        // domain 100 / 200 rows (width-2 node relations of 10^4..10^5
        // rows) — past ~400 rows the Cartesian λ-joins cost seconds and
        // gigabytes per request.
        let (shapes, dbs): (Vec<Shape>, Vec<Database>) = match workload {
            Workload::HotFront => {
                let shapes = inputs::front_shapes(5);
                let db = inputs::database(rng, &shapes, 16, 4);
                (shapes, vec![db])
            }
            Workload::HotData => {
                let shapes = inputs::data_shapes(7);
                let db = inputs::database(rng, &shapes, 100, 200);
                (shapes, vec![db])
            }
            Workload::SwapData => {
                let shapes = inputs::data_shapes(7);
                let a = inputs::database(rng, &shapes, 100, 200);
                let b = inputs::database(rng, &shapes, 100, 200);
                (shapes, vec![a, b])
            }
            Workload::ColdPlan => {
                let shapes = inputs::cold_shapes();
                let db = inputs::database(rng, &shapes, 16, 4);
                (shapes, vec![db])
            }
            Workload::BatchMixed => {
                let front = inputs::front_shapes(1);
                let data = inputs::data_shapes(1);
                tiny = front.len();
                let mut db = inputs::database(rng, &front, 16, 4);
                for (name, rel) in inputs::database(rng, &data, 100, 200).relations() {
                    db.insert(name.to_string(), rel.clone());
                }
                (front.into_iter().chain(data).collect(), vec![db])
            }
        };
        let expected = dbs
            .iter()
            .map(|db| shapes.iter().map(|s| oracle::expected(s, db)).collect())
            .collect::<Result<Vec<Vec<Expected>>, OracleError>>()?;

        let mut items: Vec<Item> = shapes
            .iter()
            .enumerate()
            .map(|(shape, s)| Item {
                shape,
                text: s.text.clone(),
            })
            .collect();
        let mut pass = Vec::new();
        let mut batches = Vec::new();
        match workload {
            Workload::HotFront | Workload::HotData | Workload::SwapData => {
                pass = (0..items.len())
                    .flat_map(|item| OPS.map(|op| Req { item, op }))
                    .collect();
            }
            Workload::ColdPlan => {
                pass = (0..items.len())
                    .map(|item| Req {
                        item,
                        op: OPS[item % 3],
                    })
                    .collect();
            }
            Workload::BatchMixed => {
                // Item `n + i` is the α-renamed twin of item `i`.
                let n = shapes.len();
                items.extend(shapes.iter().enumerate().map(|(shape, s)| Item {
                    shape,
                    text: inputs::alpha_twin(s).text,
                }));
                // 80/20: every fifth shape is hot and shares 80 % of each
                // batch's slots. Of the tail, the shapes over real data are
                // served once in every batch — they cost 10–100× a
                // tiny-data shape, and a batch's latency must not depend
                // on which of them it drew — and the tiny-data shapes
                // rotate through the remaining slots, so every text is
                // served within one pass.
                let (hot, tail): (Vec<usize>, Vec<usize>) = (0..n).partition(|i| i % 5 == 0);
                let (mut rotating, fixed): (Vec<usize>, Vec<usize>) =
                    tail.into_iter().partition(|&i| i < tiny);
                shuffle(rng, &mut rotating);
                let hot_slots = BATCH_SIZE * 4 / 5;
                let rotating_slots = BATCH_SIZE - hot_slots - fixed.len();
                for b in 0..3 * rotating.len() {
                    let op = OPS[b % 3];
                    let mut batch: Vec<Req> = (0..hot_slots)
                        .map(|j| hot[j % hot.len()])
                        .chain(fixed.iter().copied())
                        .chain(
                            (0..rotating_slots)
                                .map(|j| rotating[(rotating_slots * b + j) % rotating.len()]),
                        )
                        .map(|shape| {
                            let twin = rng.random_range(0..4u32) == 0;
                            Req {
                                item: if twin { n + shape } else { shape },
                                op,
                            }
                        })
                        .collect();
                    shuffle(rng, &mut batch);
                    batches.push(batch);
                }
            }
        }
        Ok(Inputs {
            workload,
            shapes,
            items,
            snapshots: dbs.into_iter().map(Arc::new).collect(),
            expected,
            pass,
            order_seed: rng.random_range(0..u64::MAX),
            batches,
        })
    }

    /// The steps of pass number `pass_no`, in order.
    pub fn pass_steps(&self, pass_no: usize) -> Vec<Step> {
        if self.workload == Workload::BatchMixed {
            return (0..self.batches.len()).map(Step::Batch).collect();
        }
        // A fresh order every pass: a request's latency depends on what
        // ran just before it (allocator and cache state), and one fixed
        // order would bake that luck into a whole run.
        let mut order = self.pass.clone();
        shuffle(
            &mut random::rng(self.order_seed.wrapping_add(pass_no as u64)),
            &mut order,
        );
        let mut steps = Vec::with_capacity(order.len() + order.len() / SWAP_EVERY + 1);
        for (i, req) in order.iter().enumerate() {
            let served = pass_no * self.pass.len() + i;
            if self.snapshots.len() > 1 && served > 0 && served.is_multiple_of(SWAP_EVERY) {
                steps.push(Step::Swap((served / SWAP_EVERY) % self.snapshots.len()));
            }
            let op = match self.workload {
                Workload::ColdPlan => OPS[(op_index(req.op) + pass_no) % 3],
                _ => req.op,
            };
            steps.push(Step::Single(Req { item: req.item, op }));
        }
        steps
    }

    /// The warm-up schedule: two full passes (the first fills the caches,
    /// the second reaches the steady state); one pass for `cold_plan`,
    /// which has no steady state to reach; and for `batch_mixed` the
    /// first six batches, which serve every shape and every operation
    /// twice — the cold first batch is warm-up by definition.
    pub fn warm_up_steps(&self) -> Vec<Step> {
        match self.workload {
            Workload::BatchMixed => (0..6).map(Step::Batch).collect(),
            Workload::ColdPlan => self.pass_steps(0),
            _ => (0..2).flat_map(|p| self.pass_steps(p)).collect(),
        }
    }

    /// Build the request for `req`.
    pub fn request(&self, req: Req) -> Request {
        Request {
            text: self.items[req.item].text.clone(),
            op: req.op,
        }
    }

    /// The oracle's answer for `req` against snapshot `snapshot`.
    pub fn expected(&self, req: Req, snapshot: usize) -> &Expected {
        &self.expected[snapshot][self.items[req.item].shape]
    }

    /// The service configuration the workload runs under: defaults, except
    /// that `batch_mixed` caps the batch pool at two threads.
    pub fn service_config(&self) -> ServiceConfig {
        let mut cfg = ServiceConfig::default();
        if self.workload == Workload::BatchMixed {
            cfg.max_threads = 2;
        }
        cfg
    }
}

/// A workload that is set up and warm: inputs plus the service under
/// test, positioned at the start of pass 0 on snapshot 0.
pub struct Bench {
    /// The generated inputs.
    pub inputs: Inputs,
    /// The service under test.
    pub svc: Service,
}

/// Why a benchmark run could not produce numbers.
#[derive(Debug)]
pub enum BenchError {
    /// The naive oracle exhausted its row budget during set-up.
    Oracle(OracleError),
    /// A warm-up request failed or answered wrongly: nothing measured
    /// afterwards would mean anything.
    WarmUp(String),
    /// A counter gate failed: the benchmark is not measuring what its
    /// name says (a benchmark bug, never a performance result).
    Gate(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Oracle(e) => write!(f, "set-up: {e}"),
            BenchError::WarmUp(e) => write!(f, "warm-up: {e}"),
            BenchError::Gate(e) => write!(f, "counter gate: {e}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl Bench {
    /// Set up `workload` from `seed`: generate texts and databases, compute
    /// the oracle answers, start the service and serve the warm-up
    /// schedule ([`Inputs::warm_up_steps`]), every answer checked. All of
    /// this is what `setup_s` times.
    pub fn set_up(workload: Workload, seed: u64) -> Result<Bench, BenchError> {
        let inputs = Inputs::generate(workload, seed).map_err(BenchError::Oracle)?;
        let svc = Service::with_config(Arc::clone(&inputs.snapshots[0]), inputs.service_config());
        let bench = Bench { inputs, svc };
        let mut snapshot = 0;
        for step in bench.inputs.warm_up_steps() {
            let (attempted, failed, _) = bench.serve(step, &mut snapshot);
            if failed > 0 {
                return Err(BenchError::WarmUp(format!(
                    "{failed} of {attempted} requests failed at {step:?}"
                )));
            }
        }
        bench.reset();
        Ok(bench)
    }

    /// Back to the start-of-run state: snapshot 0 installed, and for
    /// `cold_plan` both caches empty.
    pub fn reset(&self) {
        self.svc
            .replace_snapshot(Arc::clone(&self.inputs.snapshots[0]));
        if !self.inputs.workload.is_hot() {
            self.svc.clear_caches();
        }
    }

    /// Serve one step, checking every response against the oracle.
    /// Returns `(attempted, failed, time inside the service)`.
    pub fn serve(&self, step: Step, snapshot: &mut usize) -> (u64, u64, Duration) {
        match step {
            Step::Swap(i) => {
                let next = Arc::clone(&self.inputs.snapshots[i]);
                let t0 = Instant::now();
                let previous = self.svc.replace_snapshot(next);
                let dt = t0.elapsed();
                drop(previous);
                *snapshot = i;
                (0, 0, dt)
            }
            Step::Single(req) => {
                let request = self.inputs.request(req);
                let t0 = Instant::now();
                let resp = self.svc.execute(&request);
                let dt = t0.elapsed();
                let ok = oracle::matches(&resp, req.op, self.inputs.expected(req, *snapshot));
                (1, u64::from(!ok), dt)
            }
            Step::Batch(b) => {
                let batch = &self.inputs.batches[b];
                let requests: Vec<Request> =
                    batch.iter().map(|&r| self.inputs.request(r)).collect();
                let t0 = Instant::now();
                let responses = self.svc.execute_batch(&requests);
                let dt = t0.elapsed();
                let failed = batch
                    .iter()
                    .zip(&responses)
                    .filter(|(&r, resp)| {
                        !oracle::matches(resp, r.op, self.inputs.expected(r, *snapshot))
                    })
                    .count()
                    + batch.len().saturating_sub(responses.len());
                (batch.len() as u64, failed as u64, dt)
            }
        }
    }

    /// The operation a step serves (`None` for a swap).
    pub fn step_op(&self, step: Step) -> Option<Op> {
        match step {
            Step::Swap(_) => None,
            Step::Single(req) => Some(req.op),
            Step::Batch(b) => self.inputs.batches[b].first().map(|r| r.op),
        }
    }
}

/// What the untraced loop measured.
#[derive(Default)]
pub struct Measured {
    /// Per-request latency samples in nanoseconds, by [`op_index`]. A
    /// batch contributes one sample: its wall time ÷ its size.
    pub latency_ns: [Vec<u64>; 3],
    /// Requests served and checked.
    pub attempted: u64,
    /// Typed errors, degraded answers and oracle mismatches.
    pub failed: u64,
    /// Total time spent inside the service (requests, batches, swaps).
    pub busy: Duration,
}

/// Assert the counter gates over a measured window from the service's own
/// statistics: hot workloads compile and decompose nothing; `cold_plan`
/// misses both caches on every single request.
pub fn check_gates(
    workload: Workload,
    before: &ServiceStats,
    after: &ServiceStats,
    requests: u64,
) -> Result<(), BenchError> {
    let plan_misses = after.plan_misses - before.plan_misses;
    let plan_hits = after.plan_hits - before.plan_hits;
    let decomp_misses = after.decomp_misses - before.decomp_misses;
    let decomp_hits = after.decomp_hits - before.decomp_hits;
    let ok = if workload.is_hot() {
        plan_misses == 0 && decomp_misses == 0 && decomp_hits == 0
    } else {
        plan_misses == requests && decomp_misses == requests && plan_hits == 0
    };
    if ok && after.panics_caught == before.panics_caught {
        return Ok(());
    }
    Err(BenchError::Gate(format!(
        "{}: {requests} requests gave plan hits/misses {plan_hits}/{plan_misses}, \
         decomposition hits/misses {decomp_hits}/{decomp_misses}, panics {}",
        workload.name(),
        after.panics_caught - before.panics_caught
    )))
}

/// How long a measurement loop runs.
#[derive(Copy, Clone, Debug)]
pub enum Window {
    /// Whole passes until this many seconds have gone by. A `batch_mixed`
    /// pass takes seconds, so there the loop may stop after any batch.
    Seconds(f64),
    /// Exactly this many passes: what makes every count repeat bit for
    /// bit for a fixed seed (the determinism suite runs on it).
    Passes(usize),
}

impl Window {
    /// Is the window over before pass `pass_no`, `started` having begun it?
    pub fn over(self, pass_no: usize, started: Instant) -> bool {
        match self {
            Window::Seconds(s) => pass_no > 0 && started.elapsed().as_secs_f64() >= s,
            Window::Passes(n) => pass_no >= n,
        }
    }

    /// May the loop stop here, in the middle of a pass?
    pub fn over_mid_pass(self, started: Instant) -> bool {
        matches!(self, Window::Seconds(s) if started.elapsed().as_secs_f64() >= s)
    }

    /// The same kind of window, `share` as long.
    pub fn scaled(self, share: f64) -> Window {
        match self {
            Window::Seconds(s) => Window::Seconds(s * share),
            passes => passes,
        }
    }
}

/// Run the workload's schedule over `window`, timing every request
/// individually with tracing off, then assert the counter gates.
pub fn measure(bench: &Bench, window: Window) -> Result<Measured, BenchError> {
    let mut out = Measured::default();
    let before = bench.svc.stats();
    let mid_pass = bench.inputs.workload == Workload::BatchMixed;
    let started = Instant::now();
    let mut snapshot = 0;
    'run: for pass_no in 0.. {
        if window.over(pass_no, started) {
            break;
        }
        if !bench.inputs.workload.is_hot() {
            bench.svc.clear_caches();
        }
        for step in bench.inputs.pass_steps(pass_no) {
            let (attempted, failed, dt) = bench.serve(step, &mut snapshot);
            out.attempted += attempted;
            out.failed += failed;
            out.busy += dt;
            if let Some(op) = bench.step_op(step) {
                out.latency_ns[op_index(op)].push(dt.as_nanos() as u64 / attempted.max(1));
            }
            if mid_pass && window.over_mid_pass(started) {
                break 'run;
            }
        }
    }
    check_gates(
        bench.inputs.workload,
        &before,
        &bench.svc.stats(),
        out.attempted,
    )?;
    bench.reset();
    Ok(out)
}
