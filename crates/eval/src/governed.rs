//! The execution context: what every evaluation entry point runs under.
//!
//! There is one body per operation — [`crate::Pipeline::boolean_in`] /
//! `full_reduce_in` / `enumerate_in` / `count_in`,
//! [`crate::reduction::reduce_in`], and the three [`crate::Strategy`]
//! operations — generic over an [`ExecCtx`]: a budget to poll plus a
//! tracer to record into. Two contexts exist:
//!
//! * [`Unlimited`] — no budget, no tracer. Zero-sized: its checks are
//!   constant `Ok`, its meter is [`relation::NoMeter`], its tracer is off,
//!   so this instantiation compiles to plain unmetered loops. The
//!   context-free forms (`Pipeline::boolean`, `reduction::reduce`,
//!   `counting::count_with`, …) are one-line calls under it.
//! * [`Governed`] — borrows a [`QueryBudget`] and an [`obs::Tracer`]. The
//!   budget is polled cooperatively at chunk granularity: between node
//!   steps directly, so even a pipeline whose individual steps are small
//!   cannot overrun a deadline by more than one step, and inside the
//!   relational kernels through the (crate-internal) `BudgetMeter`,
//!   which bridges the two halves of the governance stack that cannot
//!   see each other — `hypertree_core::budget` sits *above* the kernels
//!   in the crate order, and `relation::meter`'s [`CostMeter`] hook knows
//!   nothing about budgets.
//!
//! Callers that hold a budget and a tracer pick between the two **once
//! per request**, from what they can observe — `budget.is_unlimited() &&
//! !tracer.enabled()` — never per kernel call.
//!
//! **Degradation ladder for `enumerate`.** A deadline or cancellation
//! trip always unwinds with an error — a caller out of time has no use
//! for partial rows. A *memory* trip during the output-producing join
//! phase instead degrades: the join keeps the prefix it already built
//! (a sound subset of the answers — joins and projections are monotone)
//! and the run completes with `truncated == true`, ignoring further
//! memory charges for the now-bounded leftover work. Memory trips in the
//! reduce/semijoin phases, or in `boolean`/`count` runs (whose outputs
//! are scalars that must be exact), stay hard errors.

use hypertree_core::{QueryBudget, QueryError};
use relation::meter::{CostMeter, NoMeter, Trip};
use relation::Relation;

/// What an evaluation runs under: a budget to poll and a tracer to
/// record into. See the module docs for the two implementations.
pub trait ExecCtx {
    /// The meter this context hands to the relational kernels.
    type Meter: CostMeter;

    /// Poll deadline and cancellation on behalf of `phase`.
    fn check(&self, phase: &'static str) -> Result<(), QueryError>;

    /// Account `bytes` of scratch against the byte quota.
    fn charge_bytes(&self, bytes: u64) -> Result<(), QueryError>;

    /// A kernel meter for one step of `phase`, attributing scanned rows
    /// to plan node `node` (if any). With `enforce_memory` off, byte
    /// charges are accounted but never trip — what `enumerate`'s join
    /// phase runs under once it has truncated: the quota has by then
    /// tripped once, and the remaining work is bounded by the truncated
    /// prefix and still deadline-checked.
    fn meter(&self, phase: &'static str, node: Option<usize>, enforce_memory: bool) -> Self::Meter;

    /// The tracer phase spans and node row counts go to.
    fn tracer(&self) -> &obs::Tracer;
}

/// No budget, no tracer: the context of every context-free entry point.
#[derive(Clone, Copy, Debug, Default)]
pub struct Unlimited;

impl ExecCtx for Unlimited {
    type Meter = NoMeter;

    #[inline]
    fn check(&self, _phase: &'static str) -> Result<(), QueryError> {
        Ok(())
    }

    #[inline]
    fn charge_bytes(&self, _bytes: u64) -> Result<(), QueryError> {
        Ok(())
    }

    #[inline]
    fn meter(&self, _phase: &'static str, _node: Option<usize>, _enforce: bool) -> NoMeter {
        NoMeter
    }

    #[inline]
    fn tracer(&self) -> &obs::Tracer {
        static OFF: obs::Tracer = obs::Tracer::off();
        &OFF
    }
}

/// A run under `budget`, recorded into `tracer` (pass
/// [`obs::Tracer::off`]'s value to record nothing).
#[derive(Clone, Copy)]
pub struct Governed<'a> {
    budget: &'a QueryBudget,
    tracer: &'a obs::Tracer,
}

impl<'a> Governed<'a> {
    /// Govern by `budget`, record into `tracer`.
    pub fn new(budget: &'a QueryBudget, tracer: &'a obs::Tracer) -> Self {
        Governed { budget, tracer }
    }
}

impl<'a> ExecCtx for Governed<'a> {
    type Meter = BudgetMeter<'a>;

    #[inline]
    fn check(&self, phase: &'static str) -> Result<(), QueryError> {
        self.budget.check(phase)
    }

    #[inline]
    fn charge_bytes(&self, bytes: u64) -> Result<(), QueryError> {
        self.budget.charge_bytes(bytes)
    }

    fn meter(
        &self,
        phase: &'static str,
        node: Option<usize>,
        enforce_memory: bool,
    ) -> BudgetMeter<'a> {
        BudgetMeter {
            budget: self.budget,
            phase,
            enforce_memory,
            tap: self.tracer.io(),
            node_tap: node.map_or(obs::IoTap::disabled(), |n| self.tracer.node_tap(n)),
        }
    }

    #[inline]
    fn tracer(&self) -> &obs::Tracer {
        self.tracer
    }
}

/// [`QueryBudget`] seen through the kernels' [`CostMeter`] hook.
///
/// `tick` maps deadline/cancellation onto [`Trip`]; `charge_bytes`
/// accounts into the budget's byte gauge and trips its quota unless
/// `enforce_memory` is off (see [`ExecCtx::meter`]).
pub struct BudgetMeter<'a> {
    budget: &'a QueryBudget,
    phase: &'static str,
    enforce_memory: bool,
    // Rows-scanned tap for tracing: the kernels already report chunk row
    // counts through `tick`, so the tracer rides the existing hook. A
    // disabled tap ([`obs::IoTap::disabled`]) is a single branch.
    tap: obs::IoTap<'a>,
    // Second tap scoped to the plan node the metered step works on, so
    // EXPLAIN ANALYZE can attribute scan work per node.
    node_tap: obs::IoTap<'a>,
}

impl CostMeter for BudgetMeter<'_> {
    #[inline]
    fn tick(&self, units: u64) -> Result<(), Trip> {
        self.tap.add_rows(units);
        self.node_tap.add_rows(units);
        match self.budget.check(self.phase) {
            Ok(()) => Ok(()),
            Err(QueryError::Cancelled) => Err(Trip::Cancelled),
            Err(_) => Err(Trip::Deadline),
        }
    }

    #[inline]
    fn charge_bytes(&self, bytes: u64) -> Result<(), Trip> {
        match self.budget.charge_bytes(bytes) {
            Ok(()) => Ok(()),
            Err(QueryError::MemoryBudgetExceeded { bytes }) if self.enforce_memory => {
                Err(Trip::Memory { bytes })
            }
            Err(_) => Ok(()),
        }
    }
}

/// Record every node relation's current size as its pipeline-entry row
/// count, and as its own bound: a relation handed to the pipeline as it
/// is (a join-tree node's bound atom) is its own λ-product (one branch
/// when tracing is off).
#[inline]
pub(crate) fn note_nodes_in(obs: &obs::Tracer, rels: &[Relation]) {
    if obs.enabled() {
        obs.init_nodes(rels.len());
        for (i, r) in rels.iter().enumerate() {
            obs.note_node_built(i, r.len() as u64, r.len() as u64, false);
        }
    }
}

/// Record every node relation's current size as its survivor count.
#[inline]
pub(crate) fn note_nodes_out(obs: &obs::Tracer, rels: &[Relation]) {
    if obs.enabled() {
        for (i, r) in rels.iter().enumerate() {
            obs.note_node_rows_out(i, r.len() as u64);
        }
    }
}

/// Map a kernel [`Trip`] back onto the typed error taxonomy, restoring
/// the phase context the meter hop dropped.
pub(crate) fn trip_to_error(trip: Trip, phase: &'static str) -> QueryError {
    match trip {
        Trip::Deadline => QueryError::DeadlineExceeded { phase },
        Trip::Memory { bytes } => QueryError::MemoryBudgetExceeded { bytes },
        Trip::Cancelled => QueryError::Cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalError, Strategy};
    use cq::parse_query;
    use relation::Database;
    use std::time::Duration;

    fn star_db(n: u64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.add_fact("hub", &[i % 40, i % 7, i % 5]);
            db.add_fact("p", &[i % 9]);
            db.add_fact("p2", &[i % 7]);
            db.add_fact("p3", &[i % 4]);
        }
        db
    }

    fn triangle() -> (cq::ConjunctiveQuery, Database) {
        let q = parse_query("ans(X,Y,Z) :- r(X,Y), s(Y,Z), t(Z,X).").unwrap();
        let mut db = Database::new();
        for i in 0..30u64 {
            db.add_fact("r", &[i % 6, (i + 1) % 6]);
            db.add_fact("s", &[(i + 1) % 6, (i + 2) % 6]);
            db.add_fact("t", &[(i + 2) % 6, i % 6]);
        }
        (q, db)
    }

    /// The zero-sized context and a live one that never trips are two
    /// instantiations of every body; they must agree byte for byte.
    fn assert_governed_matches_unlimited(q: &cq::ConjunctiveQuery, db: &Database) {
        let budget = QueryBudget::unlimited();
        let off = obs::Tracer::off();
        let ctx = Governed::new(&budget, &off);
        let plan = Strategy::plan(q);
        assert_eq!(
            plan.boolean(q, db, &ctx).unwrap(),
            plan.boolean(q, db, &Unlimited).unwrap()
        );
        let (rows, truncated) = plan.enumerate(q, db, &ctx).unwrap();
        assert!(!truncated);
        let (plain, _) = plan.enumerate(q, db, &Unlimited).unwrap();
        assert_eq!(rows, plain);
        assert_eq!(
            rows.rows().collect::<Vec<_>>(),
            plain.rows().collect::<Vec<_>>()
        );
        assert_eq!(
            plan.count(q, db, &ctx).unwrap(),
            plan.count(q, db, &Unlimited).unwrap()
        );
    }

    #[test]
    fn unlimited_budget_matches_ungoverned_answers() {
        let q = parse_query("ans(A,B) :- hub(A,B,C), p(A), p2(B), p3(C).").unwrap();
        assert_governed_matches_unlimited(&q, &star_db(300));
    }

    #[test]
    fn governed_cyclic_queries_agree_too() {
        let (q, db) = triangle();
        assert!(matches!(Strategy::plan(&q), Strategy::Hypertree(_)));
        assert_governed_matches_unlimited(&q, &db);
    }

    #[test]
    fn observed_runs_attribute_rows_per_node() {
        let (q, db) = triangle();
        let plan = Strategy::plan(&q);
        let budget = QueryBudget::unlimited();
        let obs = obs::Tracer::on();
        plan.enumerate(&q, &db, &Governed::new(&budget, &obs))
            .unwrap();
        let tr = obs.finish(obs::TraceOutcome::default()).unwrap();
        assert!(!tr.node_rows.is_empty(), "node table never declared");
        assert!(tr.node_rows.iter().any(|nr| nr.rows_in > 0));
        assert!(tr.node_rows.iter().any(|nr| nr.rows_scanned > 0));
        for nr in &tr.node_rows {
            // Semijoins only filter.
            assert!(nr.rows_out <= nr.rows_in, "survivors exceed input");
        }
    }

    #[test]
    fn an_elapsed_deadline_errors_with_the_tripping_phase() {
        let q = parse_query("ans :- hub(A,B,C), p(A), p2(B), p3(C).").unwrap();
        let db = star_db(200);
        let budget = QueryBudget::unlimited().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let err = Strategy::plan(&q)
            .boolean(&q, &db, &Governed::new(&budget, &obs::Tracer::off()))
            .unwrap_err();
        assert!(matches!(
            err,
            EvalError::Budget(QueryError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn cancellation_unwinds_as_cancelled() {
        let q = parse_query("ans :- hub(A,B,C), p(A), p2(B), p3(C).").unwrap();
        let db = star_db(200);
        let budget = QueryBudget::unlimited();
        budget.cancel();
        let err = Strategy::plan(&q)
            .boolean(&q, &db, &Governed::new(&budget, &obs::Tracer::off()))
            .unwrap_err();
        assert_eq!(err, EvalError::Budget(QueryError::Cancelled));
    }

    #[test]
    fn enumerate_degrades_to_a_truncated_sound_subset_on_memory_trips() {
        // A fat cartesian-ish output: r(A) × s(B) through a shared hub.
        let mut b = cq::ConjunctiveQuery::builder();
        b.atom_vars("r", &["H", "A"]);
        b.atom_vars("s", &["H", "B"]);
        b.head("ans", &["A", "B"]);
        let q = b.build();
        let mut db = Database::new();
        for i in 0..200u64 {
            db.add_fact("r", &[1, i]);
            db.add_fact("s", &[1, i]);
        }
        let plan = Strategy::plan(&q);
        let (full, _) = plan.enumerate(&q, &db, &Unlimited).unwrap();
        assert_eq!(full.len(), 40_000);
        let off = obs::Tracer::off();
        // A quota big enough for the inputs but not the 40k-row output.
        let budget = QueryBudget::unlimited().with_byte_quota(150 * 1024);
        let (partial, truncated) = plan
            .enumerate(&q, &db, &Governed::new(&budget, &off))
            .unwrap();
        assert!(truncated, "the quota must trip");
        assert!(partial.len() < full.len());
        // Soundness: every returned row is a real answer.
        for row in partial.rows() {
            assert!(full.contains_row(row), "unsound truncated row {row:?}");
        }
        // Counting under the same quota is a hard error, never a wrong
        // number.
        let budget = QueryBudget::unlimited().with_byte_quota(16);
        let err = plan
            .count(&q, &db, &Governed::new(&budget, &off))
            .unwrap_err();
        assert!(matches!(
            err,
            EvalError::Budget(QueryError::MemoryBudgetExceeded { .. })
        ));
    }
}
