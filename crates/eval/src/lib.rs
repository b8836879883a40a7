//! Query evaluation for the hypertree-decomposition workspace.
//!
//! Three engines, mirroring the paper's narrative:
//!
//! * [`naive`] — full joins with a row budget: the baseline whose
//!   exponential intermediate results motivate the whole theory;
//! * [`yannakakis`] — the acyclic-query algorithm (Boolean sweep, full
//!   reducer, output-polynomial enumeration);
//! * [`reduction`] — Lemma 4.6: evaluate *cyclic* queries of bounded
//!   hypertree width by reducing to an acyclic instance and running
//!   Yannakakis (Theorems 4.7 / 4.8).
//!
//! [`evaluate_boolean`] and [`evaluate`] pick the strategy automatically:
//! acyclic queries go straight to Yannakakis; cyclic ones get an optimal
//! hypertree decomposition first.
//!
//! There is one execution path. Every operation — on [`Pipeline`], in
//! [`reduction`], on [`Strategy`] — has a single body, generic over the
//! [`ExecCtx`] it runs under: [`Unlimited`] (no budget, no tracer; what
//! the context-free forms pass) or [`Governed`] (a
//! `hypertree_core::QueryBudget` polled cooperatively, an `obs::Tracer`
//! recorded into). See [`governed`].
//!
//! # Example
//!
//! ```
//! use cq::parse_query;
//! use relation::Database;
//!
//! // Q1 of Example 1.1 — cyclic (hw = 2).
//! let q = parse_query("ans :- enrolled(S,C,R), teaches(P,C,A), parent(P,S).").unwrap();
//! let mut db = Database::new();
//! db.add_fact("enrolled", &[2, 7, 2000]);
//! db.add_fact("teaches", &[1, 7, 1]);
//! db.add_fact("parent", &[1, 2]);
//! assert_eq!(eval::evaluate_boolean(&q, &db), Ok(true));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod binding;
pub mod containment;
pub mod counting;
pub mod governed;
pub mod naive;
pub mod pipeline;
pub mod reduction;
pub mod yannakakis;

pub use binding::{bind_all, bind_atom, BoundAtom, EvalError};
pub use containment::{contained_in, equivalent};
pub use counting::count_assignments;
pub use governed::{ExecCtx, Governed, Unlimited};
pub use pipeline::Pipeline;

use cq::ConjunctiveQuery;
use hypergraph::{acyclic, Ix};
use hypertree_core::{kdecomp, opt, CandidateMode, HypertreeDecomposition};
use relation::{Database, Relation};

/// A prepared evaluation strategy for a query (reusable across databases).
#[derive(Clone, Debug)]
pub enum Strategy {
    /// The query is acyclic: evaluate on this join tree.
    JoinTree(hypergraph::JoinTree),
    /// The query is cyclic: evaluate through this hypertree decomposition.
    Hypertree(HypertreeDecomposition),
}

impl Strategy {
    /// Plan `q`: a join tree if acyclic, otherwise an optimal-width
    /// hypertree decomposition (Theorem 5.18 + Lemma 4.6 pipeline).
    pub fn plan(q: &ConjunctiveQuery) -> Strategy {
        let h = q.hypergraph();
        match acyclic::join_tree(&h) {
            Some(jt) => Strategy::JoinTree(jt),
            None => Strategy::Hypertree(opt::optimal_decomposition(&h)),
        }
    }

    /// Plan `q` heuristically: a join tree if acyclic, otherwise the best
    /// elimination-ordering GHD (`heuristics::best_decomposition`). Where
    /// [`Strategy::plan`] is exponential in the width, this is polynomial
    /// throughout — the planner for queries beyond the exact engine's
    /// reach, at the price of a possibly non-optimal width.
    pub fn plan_heuristic(q: &ConjunctiveQuery) -> Strategy {
        let h = q.hypergraph();
        match acyclic::join_tree(&h) {
            Some(jt) => Strategy::JoinTree(jt),
            None => Strategy::Hypertree(heuristics::best_decomposition(&h)),
        }
    }

    /// Plan `q` adaptively: a join tree if acyclic, otherwise
    /// `heuristics::decompose_auto` — a heuristic GHD upper bound,
    /// sharpened by a bounded exact search that spends at most
    /// `exact_steps` candidate examinations per width level before
    /// settling for the heuristic witness.
    pub fn plan_auto(q: &ConjunctiveQuery, exact_steps: u64) -> Strategy {
        let h = q.hypergraph();
        match acyclic::join_tree(&h) {
            Some(jt) => Strategy::JoinTree(jt),
            None => Strategy::Hypertree(heuristics::decompose_auto(&h, exact_steps).hd),
        }
    }

    /// Wrap an externally produced decomposition (exact, heuristic, or
    /// hand-written). It must validate for `q`'s hypergraph at least in
    /// [`hypertree_core::ValidityMode::Generalized`] — everything the
    /// Lemma 4.6 pipeline needs.
    pub fn from_decomposition(hd: HypertreeDecomposition) -> Strategy {
        Strategy::Hypertree(hd)
    }

    /// Plan with an explicit width bound; `None` if `hw(q) > k`.
    pub fn plan_with_width(q: &ConjunctiveQuery, k: usize) -> Option<Strategy> {
        let h = q.hypergraph();
        if let Some(jt) = acyclic::join_tree(&h) {
            return Some(Strategy::JoinTree(jt));
        }
        kdecomp::decompose(&h, k, CandidateMode::Pruned).map(Strategy::Hypertree)
    }

    /// The width of the plan (1 for join trees, per Theorem 4.5).
    pub fn width(&self) -> usize {
        match self {
            Strategy::JoinTree(_) => 1,
            Strategy::Hypertree(hd) => hd.width(),
        }
    }

    /// Bind `q` over `db` and compile this plan's pipeline: the bound
    /// atoms in join-tree order, or the Lemma 4.6 node relations. `None`
    /// for a join tree over an empty body, which has nothing to run.
    fn instantiate<C: ExecCtx>(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        ctx: &C,
    ) -> Result<Option<(Pipeline, Vec<Relation>)>, EvalError> {
        ctx.check("bind")?;
        match self {
            Strategy::JoinTree(jt) => {
                let bound = bind_all(q, db)?;
                Ok((!bound.is_empty()).then(|| pipeline_for(jt, bound)))
            }
            Strategy::Hypertree(hd) => {
                Ok(Some(reduction::reduce_in(q, db, hd, ctx)?.into_pipeline()))
            }
        }
    }

    /// Evaluate the Boolean query under this plan.
    pub fn boolean<C: ExecCtx>(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        ctx: &C,
    ) -> Result<bool, EvalError> {
        match self.instantiate(q, db, ctx)? {
            Some((pipeline, mut rels)) => Ok(pipeline.boolean_in(&mut rels, ctx)?),
            None => Ok(true), // empty body is vacuously true
        }
    }

    /// Evaluate the (possibly non-Boolean) query under this plan,
    /// returning `(answers over the head variables, truncated)` — see
    /// [`Pipeline::enumerate_in`] for when a governed run truncates; under
    /// [`Unlimited`] it never does. The whole operation runs under the
    /// tracer's `enumerate` span (a container that overlaps the nested
    /// `reduce` and `join` spans — see the [`obs::phase`] docs).
    pub fn enumerate<C: ExecCtx>(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        ctx: &C,
    ) -> Result<(Relation, bool), EvalError> {
        let _span = ctx.tracer().span(obs::Phase::Enumerate);
        match self.instantiate(q, db, ctx)? {
            Some((pipeline, mut rels)) => {
                Ok(pipeline.enumerate_in(&mut rels, &q.head_vars(), ctx)?)
            }
            None => {
                let mut rel = Relation::new(0);
                rel.push_row(&[]);
                Ok((rel, false))
            }
        }
    }

    /// Count the satisfying substitutions over `var(q)` under this plan
    /// (see [`counting`]; saturates at `u128::MAX`).
    pub fn count<C: ExecCtx>(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        ctx: &C,
    ) -> Result<u128, EvalError> {
        match self.instantiate(q, db, ctx)? {
            Some((pipeline, rels)) => Ok(pipeline.count_in(&rels, ctx)?),
            None => Ok(1), // the empty substitution
        }
    }
}

/// Compile a [`Pipeline`] for a join tree, moving each bound atom's
/// relation into its tree slot (join trees visit every edge exactly once,
/// so nothing is cloned).
pub(crate) fn pipeline_for(
    jt: &hypergraph::JoinTree,
    bound: Vec<BoundAtom>,
) -> (Pipeline, Vec<Relation>) {
    let mut slots: Vec<Option<BoundAtom>> = bound.into_iter().map(Some).collect();
    let tree = jt.tree();
    let mut vars = Vec::with_capacity(tree.len());
    let mut rels = Vec::with_capacity(tree.len());
    for n in tree.nodes() {
        let b = slots[jt.edge_at(n).index()]
            .take()
            // archlint::allow(panic-free-request-path, reason = "join trees visit each edge exactly once; the tree was validated at plan time")
            .expect("join trees visit each edge exactly once");
        vars.push(b.vars);
        rels.push(b.rel);
    }
    (Pipeline::new(tree, vars), rels)
}

/// Answer the Boolean query `q` on `db`, planning automatically.
pub fn evaluate_boolean(q: &ConjunctiveQuery, db: &Database) -> Result<bool, EvalError> {
    Strategy::plan(q).boolean(q, db, &Unlimited)
}

/// Compute the answer relation of `q` on `db` (over the head variables),
/// planning automatically. Output-polynomial for bounded hypertree width
/// (Corollary 5.20).
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Result<Relation, EvalError> {
    let (rows, _) = Strategy::plan(q).enumerate(q, db, &Unlimited)?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::parse_query;
    use relation::Value;

    #[test]
    fn plans_pick_the_right_engine() {
        let acyclic_q = parse_query("ans :- r(X,Y), s(Y,Z).").unwrap();
        assert!(matches!(Strategy::plan(&acyclic_q), Strategy::JoinTree(_)));
        let cyclic_q = parse_query("ans :- r(X,Y), s(Y,Z), t(Z,X).").unwrap();
        let plan = Strategy::plan(&cyclic_q);
        assert!(matches!(plan, Strategy::Hypertree(_)));
        assert_eq!(plan.width(), 2);
    }

    #[test]
    fn plan_with_width_respects_bound() {
        let cyclic_q = parse_query("ans :- r(X,Y), s(Y,Z), t(Z,X).").unwrap();
        assert!(Strategy::plan_with_width(&cyclic_q, 1).is_none());
        assert!(Strategy::plan_with_width(&cyclic_q, 2).is_some());
    }

    #[test]
    fn triangle_query_end_to_end() {
        let q = parse_query("ans(X,Y,Z) :- r(X,Y), s(Y,Z), t(Z,X).").unwrap();
        let mut db = Database::new();
        db.add_fact("r", &[1, 2]);
        db.add_fact("s", &[2, 3]);
        db.add_fact("t", &[3, 1]);
        db.add_fact("t", &[3, 9]);
        assert_eq!(evaluate_boolean(&q, &db), Ok(true));
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_row(&[Value(1), Value(2), Value(3)]));
    }

    #[test]
    fn engines_agree_on_q2() {
        let q = parse_query("ans :- teaches(P,C,A), enrolled(S,C2,R), parent(P,S).").unwrap();
        let mut db = Database::new();
        db.add_fact("teaches", &[1, 7, 100]);
        db.add_fact("enrolled", &[2, 8, 200]);
        db.add_fact("parent", &[1, 2]);
        let auto = evaluate_boolean(&q, &db).unwrap();
        let naive = naive::evaluate_boolean(&q, &db, Default::default(), 1 << 20).unwrap();
        assert_eq!(auto, naive);
        assert!(auto);
    }

    #[test]
    fn repeated_variables_in_atoms_and_head() {
        // q(X,X) :- e(X,X), f(X,Y) — the parser rejects duplicate head
        // variables, but QueryBuilder allows them, and atoms may repeat
        // variables freely. Binding canonicalizes e(X,X) via the equality
        // selection, and the head projection duplicates the X column.
        let mut b = cq::ConjunctiveQuery::builder();
        b.atom_vars("e", &["X", "X"]);
        b.atom_vars("f", &["X", "Y"]);
        b.head("q", &["X", "X"]);
        let q = b.build();
        let mut db = Database::new();
        db.add_fact("e", &[1, 1]);
        db.add_fact("e", &[2, 2]);
        db.add_fact("e", &[3, 4]);
        db.add_fact("f", &[1, 5]);
        db.add_fact("f", &[3, 6]);
        // Only X = 1 survives: e(2,2) has no f-partner, e(3,4) is off the
        // diagonal.
        assert_eq!(evaluate_boolean(&q, &db), Ok(true));
        // head_vars() defines the output schema as the *distinct* head
        // variables, so q(X,X) enumerates over [X].
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.arity(), 1);
        assert_eq!(out.len(), 1);
        assert!(out.contains_row(&[Value(1)]));
        assert_eq!(counting::count_assignments(&q, &db), Ok(1));
        // Agreement with the naive engine on the same query.
        let naive = naive::evaluate(&q, &db, Default::default(), 1 << 20).unwrap();
        assert_eq!(out, naive);
        // A duplicated output list handed straight to the pipeline
        // duplicates the column, as documented.
        if let Strategy::JoinTree(jt) = Strategy::plan(&q) {
            let x = q.var_by_name("X").unwrap();
            let bound = bind_all(&q, &db).unwrap();
            let (pipeline, mut rels) = pipeline_for(&jt, bound);
            let wide = pipeline.enumerate(&mut rels, &[x, x]);
            assert_eq!(wide.arity(), 2);
            assert!(wide.contains_row(&[Value(1), Value(1)]));
            assert_eq!(wide.len(), 1);
        } else {
            panic!("e/f chain is acyclic");
        }
    }

    #[test]
    fn repeated_variables_through_a_decomposition() {
        // Same shape driven through the Lemma 4.6 pipeline: wrap the
        // trivial decomposition so the reduction's node-building joins see
        // the canonicalized repeated-variable atoms.
        let mut b = cq::ConjunctiveQuery::builder();
        b.atom_vars("e", &["X", "X"]);
        b.atom_vars("f", &["X", "Y"]);
        b.head("q", &["X"]);
        let q = b.build();
        let mut db = Database::new();
        db.add_fact("e", &[1, 1]);
        db.add_fact("e", &[2, 2]);
        db.add_fact("f", &[1, 5]);
        let hd = hypertree_core::HypertreeDecomposition::trivial(&q.hypergraph());
        let plan = Strategy::from_decomposition(hd);
        let (out, _) = plan.enumerate(&q, &db, &Unlimited).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_row(&[Value(1)]));
        assert_eq!(plan.count(&q, &db, &Unlimited), Ok(1));
    }

    #[test]
    fn empty_database_yields_false() {
        let q = parse_query("ans :- r(X).").unwrap();
        assert_eq!(evaluate_boolean(&q, &Database::new()), Ok(false));
        assert!(evaluate(&q, &Database::new()).unwrap().is_empty());
    }

    #[test]
    fn heuristic_plans_agree_with_exact_plans() {
        let q = parse_query("ans(X,Y,Z) :- r(X,Y), s(Y,Z), t(Z,X).").unwrap();
        let mut db = Database::new();
        for i in 0..6u64 {
            db.add_fact("r", &[i, (i + 1) % 6]);
            db.add_fact("s", &[(i + 1) % 6, (i + 2) % 6]);
            db.add_fact("t", &[(i + 2) % 6, i]);
        }
        for plan in [
            Strategy::plan_heuristic(&q),
            Strategy::plan_auto(&q, 10_000),
        ] {
            assert!(matches!(plan, Strategy::Hypertree(_)));
            assert_eq!(
                plan.boolean(&q, &db, &Unlimited).unwrap(),
                evaluate_boolean(&q, &db).unwrap()
            );
            let exact = evaluate(&q, &db).unwrap();
            let (heur, _) = plan.enumerate(&q, &db, &Unlimited).unwrap();
            assert_eq!(heur.len(), exact.len());
        }
        // Acyclic queries still get join trees.
        let acyclic_q = parse_query("ans :- r(X,Y), s(Y,Z).").unwrap();
        assert!(matches!(
            Strategy::plan_heuristic(&acyclic_q),
            Strategy::JoinTree(_)
        ));
    }

    #[test]
    fn ghd_without_descendant_condition_drives_the_pipeline() {
        // A GHD that is *not* a hypertree decomposition (condition 4
        // fails at the root) still evaluates correctly via Lemma 4.6.
        use hypergraph::RootedTree;
        let q = parse_query("ans :- enrolled(S,C,R), teaches(P,C,A), parent(P,S).").unwrap();
        let h = q.hypergraph();
        let vset = |names: &[&str]| {
            let mut s = h.empty_vertex_set();
            for n in names {
                s.insert(h.vertex_by_name(n).unwrap());
            }
            s
        };
        let eset = |names: &[&str]| {
            let mut s = h.empty_edge_set();
            for n in names {
                s.insert(h.edge_by_name(n).unwrap());
            }
            s
        };
        let mut tree = RootedTree::new();
        tree.add_child(tree.root());
        // Root drops C from χ while λ provides it; C reappears below.
        let hd = HypertreeDecomposition::new(
            tree,
            vec![vset(&["S", "R"]), vset(&["P", "S", "C", "A", "R"])],
            vec![
                eset(&["enrolled"]),
                eset(&["teaches", "parent", "enrolled"]),
            ],
        );
        assert!(hd.validate(&h).is_err(), "deliberately not a full HD");
        assert_eq!(hd.validate_ghd(&h), Ok(()));
        let mut db = Database::new();
        db.add_fact("enrolled", &[2, 7, 2000]);
        db.add_fact("teaches", &[1, 7, 1]);
        db.add_fact("parent", &[1, 2]);
        let plan = Strategy::from_decomposition(hd);
        assert_eq!(plan.boolean(&q, &db, &Unlimited), Ok(true));
        db.insert("parent", relation::Relation::from_rows(2, &[[9u64, 9]]));
        let plan2 = plan.clone();
        assert_eq!(plan2.boolean(&q, &db, &Unlimited), Ok(false));
    }
}
