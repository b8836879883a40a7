//! Per-request tracing: phase spans, I/O taps, and the resulting
//! [`QueryTrace`].
//!
//! The disabled path is a single branch: a [`Tracer`] built from
//! [`TraceConfig::Off`] holds no state, its [`Span`]s are `None` and
//! never read the clock, and its [`IoTap`] row accounting is a no-op.
//! This mirrors the budget layer's rate-limited clock discipline
//! (PR 7): untraced requests pay no timestamps beyond what the budget
//! already takes.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::phase::Phase;

/// Whether a request should produce a [`QueryTrace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceConfig {
    /// No tracing: the request pays one branch per would-be span.
    #[default]
    Off,
    /// Full tracing: phase wall times, row/byte accounting, cache and
    /// plan provenance.
    On,
}

impl TraceConfig {
    /// True if tracing is enabled.
    pub fn is_on(self) -> bool {
        matches!(self, TraceConfig::On)
    }
}

/// Plan shape recorded in a trace: how the request was evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanShape {
    /// Acyclic query served through a join tree.
    JoinTree,
    /// Cyclic query served through a hypertree decomposition.
    Hypertree,
}

impl PlanShape {
    /// Stable name used in exports (`join-tree` / `hypertree`).
    pub const fn as_str(self) -> &'static str {
        match self {
            PlanShape::JoinTree => "join-tree",
            PlanShape::Hypertree => "hypertree",
        }
    }
}

// Tri-state encodings for the AtomicU8 provenance cells.
const UNKNOWN: u8 = 0;
const MISS: u8 = 1;
const HIT: u8 = 2;
const KIND_JOIN_TREE: u8 = 1;
const KIND_HYPERTREE: u8 = 2;

/// Per-plan-node accounting cells, allocated lazily the first time an
/// evaluation pipeline declares its node count.
struct NodeCell {
    rows_in: AtomicU64,
    rows_bound: AtomicU64,
    disconnected: AtomicBool,
    rows_out: AtomicU64,
    rows_scanned: AtomicU64,
}

struct Inner {
    started: Instant,
    phase_ns: [AtomicU64; Phase::COUNT],
    rows_scanned: AtomicU64,
    nodes: OnceLock<Box<[NodeCell]>>,
    plan_cache: AtomicU8,
    decomp_cache: AtomicU8,
    plan_kind: AtomicU8,
    plan_width: AtomicU64,
}

/// The per-request trace collector.
///
/// Threaded by reference through the serving stack; all recording
/// methods take `&self` (interior atomics), so every layer records
/// through the same shared reference.
#[derive(Default)]
pub struct Tracer {
    inner: Option<Box<Inner>>,
}

impl Tracer {
    /// A disabled tracer: every operation is a branch and nothing is
    /// recorded. This is the value to pass through paths that do not
    /// trace.
    pub const fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer; the request clock starts now.
    pub fn on() -> Tracer {
        Tracer {
            inner: Some(Box::new(Inner {
                started: Instant::now(),
                phase_ns: [const { AtomicU64::new(0) }; Phase::COUNT],
                rows_scanned: AtomicU64::new(0),
                nodes: OnceLock::new(),
                plan_cache: AtomicU8::new(UNKNOWN),
                decomp_cache: AtomicU8::new(UNKNOWN),
                plan_kind: AtomicU8::new(UNKNOWN),
                plan_width: AtomicU64::new(0),
            })),
        }
    }

    /// Build a tracer from a [`TraceConfig`].
    pub fn new(cfg: TraceConfig) -> Tracer {
        match cfg {
            TraceConfig::Off => Tracer::off(),
            TraceConfig::On => Tracer::on(),
        }
    }

    /// True if this tracer records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a phase span; its wall time is added to the phase's
    /// accumulator when the returned guard drops. Disabled tracers
    /// return an inert guard without reading the clock.
    #[inline]
    pub fn span(&self, phase: Phase) -> Span<'_> {
        match &self.inner {
            Some(inner) => Span(Some(SpanInner {
                inner,
                phase,
                start: Instant::now(),
            })),
            None => Span(None),
        }
    }

    /// A copyable row-accounting tap for handing to meters and worker
    /// closures; `add_rows` on a disabled tap is a no-op branch.
    #[inline]
    pub fn io(&self) -> IoTap<'_> {
        IoTap(self.inner.as_deref().map(|i| &i.rows_scanned))
    }

    /// Declare the plan's node count, allocating one accounting cell
    /// per join-tree / decomposition node. First caller wins: repeated
    /// declarations (the reduction and the pipeline sweeps see the same
    /// completed tree) are no-ops, so cells accumulate across phases of
    /// one request. A no-op on disabled tracers.
    pub fn init_nodes(&self, n: usize) {
        if let Some(i) = &self.inner {
            let _ = i.nodes.set(
                (0..n)
                    .map(|_| NodeCell {
                        rows_in: AtomicU64::new(0),
                        rows_bound: AtomicU64::new(0),
                        disconnected: AtomicBool::new(false),
                        rows_out: AtomicU64::new(0),
                        rows_scanned: AtomicU64::new(0),
                    })
                    .collect(),
            );
        }
    }

    /// A row-accounting tap scoped to one plan node's scanned-rows
    /// cell. Disabled tracers, undeclared tables, and out-of-range
    /// nodes all yield an inert tap.
    #[inline]
    pub fn node_tap(&self, node: usize) -> IoTap<'_> {
        IoTap(
            self.inner
                .as_deref()
                .and_then(|i| i.nodes.get())
                .and_then(|cells| cells.get(node))
                .map(|c| &c.rows_scanned),
        )
    }

    /// Record how a plan node's relation was built: the `rows` it holds
    /// entering the semijoin sweeps, the `bound` the construction
    /// guarantees for it (the λ-product Π|rel(A)| for a Lemma 4.6 node,
    /// the relation's own size for a join-tree node), and whether the
    /// node's join inputs stayed `disconnected` (the construction fell
    /// back to a Cartesian product). Last write wins.
    pub fn note_node_built(&self, node: usize, rows: u64, bound: u64, disconnected: bool) {
        if let Some(c) = self.node_cell(node) {
            c.rows_in.store(rows, Ordering::Relaxed);
            c.rows_bound.store(bound, Ordering::Relaxed);
            c.disconnected.store(disconnected, Ordering::Relaxed);
        }
    }

    /// Record the surviving row count at a plan node (its relation
    /// size after the sweeps that touched it). Last write wins, so
    /// after a full reduction this is the consistent-instance size.
    pub fn note_node_rows_out(&self, node: usize, rows: u64) {
        if let Some(c) = self.node_cell(node) {
            c.rows_out.store(rows, Ordering::Relaxed);
        }
    }

    fn node_cell(&self, node: usize) -> Option<&NodeCell> {
        self.inner
            .as_deref()
            .and_then(|i| i.nodes.get())
            .and_then(|cells| cells.get(node))
    }

    /// Record whether the plan cache hit for this request.
    pub fn note_plan_cache(&self, hit: bool) {
        if let Some(i) = &self.inner {
            i.plan_cache
                .store(if hit { HIT } else { MISS }, Ordering::Relaxed);
        }
    }

    /// Record whether the decomposition cache hit (cyclic queries on
    /// the plan-cache miss path only).
    pub fn note_decomp_cache(&self, hit: bool) {
        if let Some(i) = &self.inner {
            i.decomp_cache
                .store(if hit { HIT } else { MISS }, Ordering::Relaxed);
        }
    }

    /// Record the plan shape and (for hypertrees) its width.
    pub fn note_plan(&self, shape: PlanShape, width: u64) {
        if let Some(i) = &self.inner {
            let kind = match shape {
                PlanShape::JoinTree => KIND_JOIN_TREE,
                PlanShape::Hypertree => KIND_HYPERTREE,
            };
            i.plan_kind.store(kind, Ordering::Relaxed);
            i.plan_width.store(width, Ordering::Relaxed);
        }
    }

    /// Close the trace and assemble the [`QueryTrace`]. Returns `None`
    /// for disabled tracers. The execution-outcome fields
    /// (`rows_emitted`, byte/step totals, truncation) are
    /// supplied by the caller, which owns the budget and the result.
    pub fn finish(&self, outcome: TraceOutcome) -> Option<QueryTrace> {
        let i = self.inner.as_deref()?;
        let mut phase_ns = [0u64; Phase::COUNT];
        for (o, p) in phase_ns.iter_mut().zip(i.phase_ns.iter()) {
            *o = p.load(Ordering::Relaxed);
        }
        let tri = |cell: &AtomicU8| match cell.load(Ordering::Relaxed) {
            HIT => Some(true),
            MISS => Some(false),
            _ => None,
        };
        let plan_kind = match i.plan_kind.load(Ordering::Relaxed) {
            KIND_JOIN_TREE => Some(PlanShape::JoinTree.as_str()),
            KIND_HYPERTREE => Some(PlanShape::Hypertree.as_str()),
            _ => None,
        };
        let node_rows = i
            .nodes
            .get()
            .map(|cells| {
                cells
                    .iter()
                    .map(|c| NodeRows {
                        rows_in: c.rows_in.load(Ordering::Relaxed),
                        rows_bound: c.rows_bound.load(Ordering::Relaxed),
                        disconnected: c.disconnected.load(Ordering::Relaxed),
                        rows_out: c.rows_out.load(Ordering::Relaxed),
                        rows_scanned: c.rows_scanned.load(Ordering::Relaxed),
                    })
                    .collect()
            })
            .unwrap_or_default();
        Some(QueryTrace {
            op: outcome.op,
            total_ns: i.started.elapsed().as_nanos() as u64,
            phase_ns,
            node_rows,
            rows_scanned: i.rows_scanned.load(Ordering::Relaxed),
            rows_emitted: outcome.rows_emitted,
            bytes_charged: outcome.bytes_charged,
            steps_charged: outcome.steps_charged,
            plan_cache_hit: tri(&i.plan_cache),
            decomp_cache_hit: tri(&i.decomp_cache),
            plan_kind,
            plan_width: i.plan_width.load(Ordering::Relaxed),
            truncated: outcome.truncated,
        })
    }
}

struct SpanInner<'a> {
    inner: &'a Inner,
    phase: Phase,
    start: Instant,
}

/// RAII guard for one phase span; see [`Tracer::span`].
pub struct Span<'a>(Option<SpanInner<'a>>);

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(s) = &self.0 {
            s.inner.phase_ns[s.phase.index()]
                .fetch_add(s.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// A copyable handle that accumulates rows-scanned into its tracer;
/// inert (one branch) when tracing is off.
#[derive(Clone, Copy, Default)]
pub struct IoTap<'a>(Option<&'a AtomicU64>);

impl IoTap<'_> {
    /// A tap that records nothing, for untraced code paths.
    pub const fn disabled() -> IoTap<'static> {
        IoTap(None)
    }

    /// Add `n` scanned rows.
    #[inline]
    pub fn add_rows(&self, n: u64) {
        if let Some(c) = self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Execution-outcome fields merged into a [`QueryTrace`] at
/// [`Tracer::finish`] time by the layer that owns the budget and the
/// result.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceOutcome {
    /// Operation name (`boolean`, `enumerate`, `count`).
    pub op: &'static str,
    /// Rows in the answer (enumerations; 0 for boolean/count).
    pub rows_emitted: u64,
    /// Bytes charged against the request's memory budget.
    pub bytes_charged: u64,
    /// Budget steps consumed.
    pub steps_charged: u64,
    /// True if the answer is a truncated (sound-prefix) result.
    pub truncated: bool,
}

/// Row accounting for one plan node: relation size entering the
/// pipeline against the bound its construction guarantees, survivors
/// after the semijoin sweeps, and metered scan work attributed to the
/// node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeRows {
    /// Node relation size entering the pipeline: the rows built.
    pub rows_in: u64,
    /// Upper bound on `rows_in`: for a Lemma 4.6 node the λ-product
    /// Π|rel(A)| over λ(p) (saturating) — the `r^|λ|` of the lemma —
    /// and for a join-tree node its own bound atom's size.
    pub rows_bound: u64,
    /// The node's join inputs had no shared variable to chain on, so
    /// building it took a Cartesian product.
    pub disconnected: bool,
    /// Surviving rows after the sweeps that touched the node.
    pub rows_out: u64,
    /// Rows scanned by metered operators attributed to this node.
    pub rows_scanned: u64,
}

/// A completed per-request trace: where the time went and what was
/// touched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Operation name (`boolean`, `enumerate`, `count`).
    pub op: &'static str,
    /// Wall time from tracer creation to finish, in nanoseconds.
    pub total_ns: u64,
    /// Per-phase wall time in nanoseconds, indexed by
    /// [`Phase::index`]. `enumerate` is a container span that overlaps
    /// `reduce` and `join` (see the [`crate::phase`] docs).
    pub phase_ns: [u64; Phase::COUNT],
    /// Per-plan-node row accounting, indexed by node id in the plan's
    /// rooted tree. Empty unless the evaluation pipeline declared its
    /// node count via [`Tracer::init_nodes`] (requests that fail
    /// before evaluation, or legacy producers, leave it empty).
    pub node_rows: Vec<NodeRows>,
    /// Rows scanned by metered operators.
    pub rows_scanned: u64,
    /// Rows in the answer (enumerations).
    pub rows_emitted: u64,
    /// Bytes charged against the memory budget.
    pub bytes_charged: u64,
    /// Budget steps consumed.
    pub steps_charged: u64,
    /// Plan-cache hit (`None` if the request never probed it).
    pub plan_cache_hit: Option<bool>,
    /// Decomposition-cache hit (`None` unless a cyclic query missed
    /// the plan cache).
    pub decomp_cache_hit: Option<bool>,
    /// `join-tree` or `hypertree` (`None` if planning never ran,
    /// e.g. the request failed to parse).
    pub plan_kind: Option<&'static str>,
    /// Plan width (1 for join trees, the hypertree width otherwise).
    pub plan_width: u64,
    /// True if the answer is a truncated sound prefix.
    pub truncated: bool,
}

impl QueryTrace {
    /// Nanoseconds attributed to `phase`.
    pub fn phase(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }

    /// Human-readable multi-line rendering (also available through
    /// `Display`).
    pub fn render(&self) -> String {
        self.to_string()
    }
}

pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl std::fmt::Display for QueryTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "trace: op={} total={}", self.op, fmt_ns(self.total_ns))?;
        for p in Phase::ALL {
            let ns = self.phase(p);
            if ns > 0 {
                writeln!(f, "  {:<10} {:>10}", p.as_str(), fmt_ns(ns))?;
            }
        }
        writeln!(
            f,
            "  rows: scanned={} emitted={}  budget: bytes={} steps={}",
            self.rows_scanned, self.rows_emitted, self.bytes_charged, self.steps_charged
        )?;
        for (i, nr) in self.node_rows.iter().enumerate() {
            writeln!(
                f,
                "  node[{i}]    in={} bound={}{} out={} scanned={}",
                nr.rows_in,
                nr.rows_bound,
                if nr.disconnected { " disconnected" } else { "" },
                nr.rows_out,
                nr.rows_scanned
            )?;
        }
        let cache = |v: Option<bool>| match v {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "-",
        };
        write!(
            f,
            "  plan: kind={} width={} plan_cache={} decomp_cache={}{}",
            self.plan_kind.unwrap_or("-"),
            self.plan_width,
            cache(self.plan_cache_hit),
            cache(self.decomp_cache_hit),
            if self.truncated { " TRUNCATED" } else { "" }
        )
    }
}

/// A plain monotonic stopwatch for cold-path timing (e.g. sampled
/// whole-request latency) so callers outside `obs` never touch
/// `Instant` directly.
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert!(!t.enabled());
        {
            let _s = t.span(Phase::Reduce);
        }
        t.io().add_rows(100);
        t.note_plan_cache(true);
        assert!(t.finish(TraceOutcome::default()).is_none());
    }

    #[test]
    fn spans_accumulate_into_their_phase() {
        let t = Tracer::on();
        {
            let _s = t.span(Phase::Reduce);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _s = t.span(Phase::Reduce);
        }
        t.io().add_rows(7);
        t.io().add_rows(3);
        t.note_plan_cache(false);
        t.note_decomp_cache(true);
        t.note_plan(PlanShape::Hypertree, 2);
        let tr = t
            .finish(TraceOutcome {
                op: "enumerate",
                rows_emitted: 5,
                bytes_charged: 64,
                steps_charged: 9,
                truncated: false,
            })
            .unwrap();
        assert!(tr.phase(Phase::Reduce) >= 2_000_000);
        assert_eq!(tr.phase(Phase::Join), 0);
        assert!(tr.total_ns >= tr.phase(Phase::Reduce));
        assert_eq!(tr.rows_scanned, 10);
        assert_eq!(tr.rows_emitted, 5);
        assert_eq!(tr.plan_cache_hit, Some(false));
        assert_eq!(tr.decomp_cache_hit, Some(true));
        assert_eq!(tr.plan_kind, Some("hypertree"));
        assert_eq!(tr.plan_width, 2);
    }

    #[test]
    fn render_mentions_op_phases_and_provenance() {
        let t = Tracer::on();
        {
            let _s = t.span(Phase::Parse);
        }
        t.note_plan(PlanShape::JoinTree, 0);
        let tr = t
            .finish(TraceOutcome {
                op: "boolean",
                ..TraceOutcome::default()
            })
            .unwrap();
        let text = tr.render();
        assert!(text.contains("op=boolean"));
        assert!(text.contains("kind=join-tree"));
        assert!(text.contains("plan_cache=-"));
        let mut truncated = tr.clone();
        truncated.truncated = true;
        assert!(truncated.render().contains("TRUNCATED"));
    }

    #[test]
    fn node_accounting_is_declared_once_and_scoped() {
        let t = Tracer::on();
        // Taps before declaration are inert.
        t.node_tap(0).add_rows(99);
        t.init_nodes(2);
        t.init_nodes(5); // first declaration wins
        t.note_node_built(0, 10, 12, true);
        t.note_node_rows_out(0, 4);
        t.node_tap(0).add_rows(7);
        t.node_tap(1).add_rows(3);
        t.node_tap(9).add_rows(100); // out of range: inert
        let tr = t.finish(TraceOutcome::default()).unwrap();
        assert_eq!(tr.node_rows.len(), 2);
        assert_eq!(tr.node_rows[0].rows_in, 10);
        assert_eq!(tr.node_rows[0].rows_bound, 12);
        assert!(tr.node_rows[0].disconnected);
        assert!(!tr.node_rows[1].disconnected);
        assert_eq!(tr.node_rows[0].rows_out, 4);
        assert_eq!(tr.node_rows[0].rows_scanned, 7);
        assert_eq!(tr.node_rows[1].rows_scanned, 3);
        assert!(tr
            .render()
            .contains("node[0]    in=10 bound=12 disconnected out=4"));
    }

    #[test]
    fn disabled_tracer_ignores_node_accounting() {
        let t = Tracer::off();
        t.init_nodes(3);
        t.note_node_built(0, 1, 1, false);
        t.node_tap(0).add_rows(1);
        assert!(t.finish(TraceOutcome::default()).is_none());
    }

    #[test]
    fn stopwatch_is_monotone() {
        let w = Stopwatch::start();
        let a = w.elapsed_ns();
        let b = w.elapsed_ns();
        assert!(b >= a);
    }
}
