//! The Lemma 4.6 reduction: a Boolean query with a width-`k` hypertree
//! decomposition becomes an *acyclic* query `Q'` over a database `DB'` of
//! size `O((‖Q‖+‖HD‖)·r^k)`, together with a join tree `JT` — after which
//! every acyclic-query technique applies (Theorems 4.7 and 4.8).
//!
//! Construction, following the proof: complete the decomposition
//! (Lemma 4.4); for each node `p` build one relation over `χ(p)` by
//! joining, for every `A ∈ λ(p)`, either `rel(A)` (if `var(A) ⊆ χ(p)`) or
//! its projection onto `var(A) ∩ χ(p)`; the tree shape of the
//! decomposition is the join tree of the new query (its connectedness
//! condition is exactly Condition 2 of Definition 4.1).

use crate::binding::{bind_all, BoundAtom, EvalError};
use crate::governed::{trip_to_error, ExecCtx, Unlimited};
use cq::ConjunctiveQuery;
use hypergraph::{Ix, RootedTree, VertexId};
use hypertree_core::HypertreeDecomposition;
use relation::{ops, Database, Relation};

/// The acyclic instance produced by the reduction: a tree whose node `i`
/// carries an "atom" over `vars[i]` with relation `rels[i]`. The tree is a
/// valid join tree of the induced query by construction.
#[derive(Clone, Debug)]
pub struct ReducedInstance {
    /// Join-tree shape (same shape as the completed decomposition).
    pub tree: RootedTree,
    /// Per node: the new atom as a bound relation over `χ(p)`.
    pub nodes: Vec<BoundAtom>,
}

impl ReducedInstance {
    /// Total size of the reduced database in cells — the quantity bounded
    /// by `O((‖Q‖+‖HD‖) · r^k)` in Lemma 4.6.
    pub fn size_cells(&self) -> usize {
        self.nodes.iter().map(|b| b.rel.size()).sum()
    }

    /// Compile the instance into a [`crate::Pipeline`] plus its node
    /// relations, moving (not cloning) the relations out of the nodes.
    pub fn into_pipeline(self) -> (crate::Pipeline, Vec<Relation>) {
        let (vars, rels): (Vec<_>, Vec<_>) =
            self.nodes.into_iter().map(|b| (b.vars, b.rel)).unzip();
        (crate::Pipeline::new(&self.tree, vars), rels)
    }
}

/// Run the Lemma 4.6 construction for `q`, `db`, and a (not necessarily
/// complete) hypertree decomposition `hd` of `q`'s hypergraph.
/// [`reduce_in`] under [`Unlimited`].
pub fn reduce(
    q: &ConjunctiveQuery,
    db: &Database,
    hd: &HypertreeDecomposition,
) -> Result<ReducedInstance, EvalError> {
    reduce_in(q, db, hd, &Unlimited)
}

/// The construction under `ctx`, timed under the tracer's `reduce` span:
/// every accumulator join is metered (deadline polls at chunk
/// granularity, intermediate bytes charged at the exact-size reserve
/// points, row scans tapped).
///
/// A trip unwinds the whole construction with the typed error — there is
/// *no* truncating mode here. The node relations are inputs to later
/// semijoin and join phases, and a silently shrunken node relation would
/// drop answers without any marker; graceful degradation belongs to the
/// output-producing join phase only (see
/// [`crate::Pipeline::enumerate_in`]).
pub fn reduce_in<C: ExecCtx>(
    q: &ConjunctiveQuery,
    db: &Database,
    hd: &HypertreeDecomposition,
    ctx: &C,
) -> Result<ReducedInstance, EvalError> {
    const PHASE: &str = "reduce";
    let _span = ctx.tracer().span(obs::Phase::Reduce);
    ctx.check(PHASE)?;
    let meter = ctx.meter(PHASE, None, true);
    let h = q.hypergraph();
    // The construction only leans on conditions 1–3 (coverage gives every
    // atom a home node, connectedness makes the tree a join tree of the
    // induced query, and χ ⊆ var(λ) bounds node relations by r^|λ|) — the
    // descendant condition plays no role in the proof. Validating in
    // generalized mode is what lets heuristic GHDs drive the pipeline on
    // instances the exact solver cannot decompose.
    debug_assert_eq!(
        hd.validate_ghd(&h),
        Ok(()),
        "reduce() needs a valid (generalized) decomposition"
    );
    let complete = hd.complete(&h);
    let bound = bind_all(q, db)?;

    let tree = complete.tree().clone();
    let mut nodes = Vec::with_capacity(tree.len());
    for p in tree.nodes() {
        let chi: Vec<VertexId> = complete.chi(p).to_vec();
        // Start from the all-rows relation over zero columns and join in
        // each λ-atom, restricted to χ(p).
        let mut acc_vars: Vec<VertexId> = Vec::new();
        let mut acc = {
            let mut r = Relation::new(0);
            r.push_row(&[]);
            r
        };
        for e in complete.lambda(p) {
            let atom = &bound[e.index()];
            // Columns of the atom that fall inside χ(p).
            let keep_cols: Vec<usize> = (0..atom.vars.len())
                .filter(|&i| chi.contains(&atom.vars[i]))
                .collect();
            let restricted_vars: Vec<VertexId> = keep_cols.iter().map(|&i| atom.vars[i]).collect();
            let restricted = if keep_cols.len() == atom.vars.len() {
                atom.rel.clone()
            } else {
                ops::project(&atom.rel, &keep_cols)
            };
            let pairs: Vec<(usize, usize)> = acc_vars
                .iter()
                .enumerate()
                .filter_map(|(i, v)| restricted_vars.iter().position(|w| w == v).map(|j| (i, j)))
                .collect();
            let fresh: Vec<usize> = (0..restricted_vars.len())
                .filter(|&j| !acc_vars.contains(&restricted_vars[j]))
                .collect();
            acc = ops::join_metered(&acc, &restricted, &pairs, &fresh, &meter, false)
                .map_err(|t| trip_to_error(t, PHASE))?
                .0;
            for j in fresh {
                acc_vars.push(restricted_vars[j]);
            }
        }
        // Project onto χ(p). Every χ-variable is provided by some λ-atom
        // (Condition 3 of Definition 4.1), so when no column needs to be
        // dropped the accumulator already *is* the node relation — it is
        // kept under its accumulation-order variable list instead of
        // being permuted into χ-order (bound atoms carry their own
        // variable lists, so downstream consumers do not care).
        if acc_vars.len() == chi.len() {
            acc.dedup(); // no-op unless acc lost its distinctness proof
            nodes.push(BoundAtom {
                vars: acc_vars,
                rel: acc,
            });
        } else {
            let cols: Vec<usize> = chi
                .iter()
                .map(|v| {
                    acc_vars
                        .iter()
                        .position(|w| w == v)
                        // archlint::allow(panic-free-request-path, reason = "decomposition validated before use: condition 3 guarantees chi within var(lambda)")
                        .expect("condition 3: chi ⊆ var(lambda)")
                })
                .collect();
            let rel = ops::project(&acc, &cols);
            nodes.push(BoundAtom { vars: chi, rel });
        }
    }
    Ok(ReducedInstance { tree, nodes })
}

/// Boolean evaluation through the reduction (Theorem 4.7):
/// Lemma 4.6 + the Boolean Yannakakis sweep, run in place over the
/// freshly built node relations (nothing is cloned).
pub fn boolean_via_hd(
    q: &ConjunctiveQuery,
    db: &Database,
    hd: &HypertreeDecomposition,
) -> Result<bool, EvalError> {
    let (pipeline, mut rels) = reduce(q, db, hd)?.into_pipeline();
    Ok(pipeline.boolean(&mut rels))
}

/// Non-Boolean evaluation through the reduction (Theorem 4.8 /
/// Corollary 5.20): output-polynomial enumeration over the reduced
/// acyclic instance.
pub fn enumerate_via_hd(
    q: &ConjunctiveQuery,
    db: &Database,
    hd: &HypertreeDecomposition,
) -> Result<Relation, EvalError> {
    let (pipeline, mut rels) = reduce(q, db, hd)?.into_pipeline();
    Ok(pipeline.enumerate(&mut rels, &q.head_vars()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::parse_query;
    use hypertree_core::{kdecomp, CandidateMode};
    use relation::Value;

    /// Example 1.1's Q1 (cyclic, hw = 2): student enrolled in a course
    /// taught by a parent.
    fn q1() -> ConjunctiveQuery {
        parse_query("ans :- enrolled(S,C,R), teaches(P,C,A), parent(P,S).").unwrap()
    }

    fn q1_db_true() -> Database {
        let mut db = Database::new();
        db.add_fact("enrolled", &[2, 7, 2000]);
        db.add_fact("enrolled", &[3, 8, 2001]);
        db.add_fact("teaches", &[1, 7, 1]);
        db.add_fact("teaches", &[4, 8, 0]);
        db.add_fact("parent", &[1, 2]);
        db
    }

    fn hd_for(q: &ConjunctiveQuery) -> HypertreeDecomposition {
        kdecomp::decompose(&q.hypergraph(), 2, CandidateMode::Pruned).expect("hw ≤ 2")
    }

    #[test]
    fn q1_true_and_false_instances() {
        let q = q1();
        let hd = hd_for(&q);
        assert!(boolean_via_hd(&q, &q1_db_true(), &hd).unwrap());

        let mut db = q1_db_true();
        db.insert("parent", relation::Relation::from_rows(2, &[[4u64, 2]]));
        // Person 4 teaches course 8, child 2 enrolled only in 7: false.
        assert!(!boolean_via_hd(&q, &db, &hd).unwrap());
    }

    #[test]
    fn reduction_produces_join_tree_shapes() {
        let q = q1();
        let hd = hd_for(&q);
        let reduced = reduce(&q, &q1_db_true(), &hd).unwrap();
        assert_eq!(reduced.tree.len(), reduced.nodes.len());
        // Connectedness: every variable's occurrences across node vars
        // form a connected subtree (checked indirectly: Boolean answers
        // agree with naive evaluation in the equivalence tests).
        assert!(reduced.size_cells() > 0);
    }

    #[test]
    fn enumeration_matches_naive() {
        let q = parse_query("ans(S) :- enrolled(S,C,R), teaches(P,C,A), parent(P,S).").unwrap();
        let hd = hd_for(&q);
        let db = q1_db_true();
        let via_hd = enumerate_via_hd(&q, &db, &hd).unwrap();
        let naive = crate::naive::evaluate(&q, &db, Default::default(), 1 << 20).unwrap();
        assert_eq!(via_hd.len(), naive.len());
        assert!(via_hd.contains_row(&[Value(2)]));
    }

    #[test]
    fn size_bound_shape() {
        // r^k bound: with k=2 and r rows per relation, each node relation
        // has at most r^2 rows.
        let q = q1();
        let hd = hd_for(&q);
        let db = q1_db_true();
        let reduced = reduce(&q, &db, &hd).unwrap();
        let r = db.max_relation_rows();
        for node in &reduced.nodes {
            assert!(node.rel.len() <= r * r);
        }
    }

    #[test]
    fn trivial_decomposition_also_works() {
        let q = q1();
        let hd = HypertreeDecomposition::trivial(&q.hypergraph());
        assert!(boolean_via_hd(&q, &q1_db_true(), &hd).unwrap());
    }
}
