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
//!
//! **Children first.** The lemma only needs each node relation to be
//! *bounded* by `r^|λ(p)|`; it never needs the whole λ-product, most of
//! which Yannakakis' bottom-up sweep would throw away again. So nodes
//! are built in post-order, and node `p`'s join also takes each built
//! child `c`'s projection onto `χ(c) ∩ χ(p)` as one more factor. The
//! natural join is order-independent, so the result is exactly
//! `π_χ(p)(⋈ λ(p))` after the bottom-up semijoin pass — the λ-product
//! semijoin-reduced by its whole subtree, still at most `r^|λ(p)|` rows.
//! The factors are joined in a greedy *connected* order — seeded with
//! the smallest, then pure filters (no fresh variable, applied in place
//! as semijoins), then extenders that share a variable — so intermediate
//! results stay near that size instead of passing through the Cartesian
//! λ-product; only a node whose factors stay disconnected (a leaf with
//! disjoint λ-atoms) still takes a product, and is marked `disconnected`
//! in the trace. The relations come
//! out upward-consistent, and the [`crate::Pipeline`] that
//! [`ReducedInstance::into_pipeline`] builds skips the bottom-up sweep
//! this construction has already done.

use crate::binding::{bind_all, BoundAtom, EvalError};
use crate::governed::{trip_to_error, ExecCtx, Unlimited};
use cq::ConjunctiveQuery;
use hypergraph::{Ix, RootedTree, VertexId};
use hypertree_core::HypertreeDecomposition;
use relation::meter::{CostMeter, Trip};
use relation::{ops, Database, Relation};

/// The acyclic instance produced by the reduction: a tree whose node `i`
/// carries an "atom" over `χ(i)` whose relation is the λ-product of `i`
/// semijoin-reduced by `i`'s subtree (see the module docs). The tree is a
/// valid join tree of the induced query by construction.
///
/// Only [`reduce_in`] builds one, which is what lets
/// [`ReducedInstance::into_pipeline`] promise the pipeline that its
/// relations are already upward-consistent.
#[derive(Clone, Debug)]
pub struct ReducedInstance {
    tree: RootedTree,
    /// Per node: the new atom as a bound relation over `χ(p)`.
    nodes: Vec<BoundAtom>,
}

impl ReducedInstance {
    /// Join-tree shape (same shape as the completed decomposition).
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// Total size of the reduced database in cells — the quantity bounded
    /// by `O((‖Q‖+‖HD‖) · r^k)` in Lemma 4.6.
    pub fn size_cells(&self) -> usize {
        self.nodes.iter().map(|b| b.rel.size()).sum()
    }

    /// Compile the instance into a [`crate::Pipeline`] plus its node
    /// relations, moving (not cloning) the relations out of the nodes.
    /// The pipeline knows the relations are upward-consistent: its
    /// `boolean` answers from the root and its `full_reduce` /
    /// `enumerate` run only the top-down sweep, so run it over the
    /// relations it was handed.
    pub fn into_pipeline(self) -> (crate::Pipeline, Vec<Relation>) {
        let (vars, rels): (Vec<_>, Vec<_>) =
            self.nodes.into_iter().map(|b| (b.vars, b.rel)).unzip();
        (crate::Pipeline::upward_consistent(&self.tree, vars), rels)
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
/// the context is checked before every node, and every relation the
/// construction materialises — restricted λ-atoms, child projections,
/// the accumulator seed and every join — is metered (deadline polls at
/// chunk granularity, intermediate bytes charged at the exact-size
/// reserve points, row scans tapped and attributed to the node). Each
/// node's rows built, its λ-product bound and whether it was
/// `disconnected` go to the tracer's node table.
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
    let obs = ctx.tracer();
    let _span = obs.span(obs::Phase::Reduce);
    ctx.check(PHASE)?;
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
    obs.init_nodes(tree.len());
    // Placeholders, each overwritten once by the post-order pass.
    let mut nodes: Vec<BoundAtom> = (0..tree.len())
        .map(|_| BoundAtom {
            vars: Vec::new(),
            rel: Relation::new(0),
        })
        .collect();
    for p in tree.post_order() {
        ctx.check(PHASE)?;
        let chi = complete.chi(p).to_vec();
        let lambda = complete.lambda(p);
        // The λ-atoms and the already built children, each restricted
        // to χ(p).
        let factors: Vec<Factor<'_>> = lambda
            .iter()
            .map(|e| &bound[e.index()])
            .chain(tree.children(p).iter().map(|c| &nodes[c.index()]))
            .map(|atom| Factor::restrict(atom, &chi))
            .collect();
        let meter = ctx.meter(PHASE, Some(p.index()), true);
        let (node, disconnected) =
            build_node(chi, factors, &meter).map_err(|t| trip_to_error(t, PHASE))?;
        if obs.enabled() {
            let product = lambda.iter().fold(1u64, |acc, e| {
                acc.saturating_mul(bound[e.index()].rel.len() as u64)
            });
            obs.note_node_built(p.index(), node.rel.len() as u64, product, disconnected);
        }
        nodes[p.index()] = node;
    }
    Ok(ReducedInstance { tree, nodes })
}

/// One input of a node's join: the columns `cols` of `rel` — those of
/// its variables that fall inside χ(p) — over the variables `vars`.
struct Factor<'a> {
    rel: &'a Relation,
    cols: Vec<usize>,
    vars: Vec<VertexId>,
}

impl<'a> Factor<'a> {
    /// `atom` restricted to the variables in `chi`.
    fn restrict(atom: &'a BoundAtom, chi: &[VertexId]) -> Self {
        let cols: Vec<usize> = (0..atom.vars.len())
            .filter(|&i| chi.contains(&atom.vars[i]))
            .collect();
        let vars = cols.iter().map(|&i| atom.vars[i]).collect();
        Factor {
            rel: &atom.rel,
            cols,
            vars,
        }
    }

    /// Join-order rank against an accumulator over `acc_vars`: 0 for a
    /// pure filter (no fresh variable), 1 for an extender that shares a
    /// variable, 2 for a factor that would take a Cartesian product.
    fn rank(&self, acc_vars: &[VertexId]) -> u8 {
        let shared = self.vars.iter().filter(|v| acc_vars.contains(v)).count();
        match shared {
            s if s == self.vars.len() => 0,
            0 => 2,
            _ => 1,
        }
    }
}

/// Join `factors` into node `p`'s relation over (a permutation of)
/// `chi`, returning it with whether some join had to take a Cartesian
/// product.
///
/// The order is greedy and connected. The accumulator is seeded with
/// the smallest factor — an empty child empties its parent at once.
/// Then, among the unused factors, a *pure filter* (no variable the
/// accumulator lacks) comes first and is applied in place as a semijoin
/// against its source relation, with no copy; next an extender sharing
/// a variable, joined against the factor (projected onto χ(p) first only
/// when it has columns outside it); only when no factor shares a
/// variable does the accumulator take a product with the smallest one.
/// Ties go to the smaller source relation. An empty accumulator ends the
/// node: it is empty over χ(p) whatever the remaining factors hold.
fn build_node<M: CostMeter>(
    chi: Vec<VertexId>,
    mut factors: Vec<Factor<'_>>,
    meter: &M,
) -> Result<(BoundAtom, bool), Trip> {
    let seed = (0..factors.len()).min_by_key(|&i| factors[i].rel.len());
    let (mut vars, mut rel) = match seed {
        Some(i) => {
            let seed = factors.swap_remove(i);
            let rel = ops::project_metered(seed.rel, &seed.cols, meter)?;
            (seed.vars, rel)
        }
        // No factor at all: the all-rows relation over zero columns.
        None => {
            let mut unit = Relation::new(0);
            unit.push_row(&[]);
            (Vec::new(), unit)
        }
    };
    let mut disconnected = false;
    while !rel.is_empty() {
        let next =
            (0..factors.len()).min_by_key(|&i| (factors[i].rank(&vars), factors[i].rel.len()));
        let Some(i) = next else { break };
        let f = factors.swap_remove(i);
        // (accumulator column, factor position) per shared variable, in
        // accumulator order — the node's final column order, so a child
        // is indexed here on the very column list the pipeline's edge to
        // it uses later — and the factor positions of the fresh ones.
        let on: Vec<(usize, usize)> = vars
            .iter()
            .enumerate()
            .filter_map(|(a, v)| f.vars.iter().position(|w| w == v).map(|j| (a, j)))
            .collect();
        let fresh: Vec<usize> = (0..f.vars.len())
            .filter(|&j| !vars.contains(&f.vars[j]))
            .collect();
        if fresh.is_empty() {
            let acc_cols: Vec<usize> = on.iter().map(|&(a, _)| a).collect();
            let src_cols: Vec<usize> = on.iter().map(|&(_, j)| f.cols[j]).collect();
            rel.retain_semijoin_cols_metered(&acc_cols, f.rel, &src_cols, meter)?;
            continue;
        }
        disconnected |= on.is_empty();
        // Factor positions index its source columns directly when the
        // factor spans the whole relation, and the projection's otherwise.
        let projected;
        let right = if f.cols.len() == f.rel.arity() {
            f.rel
        } else {
            projected = ops::project_metered(f.rel, &f.cols, meter)?;
            &projected
        };
        rel = ops::join_metered(&rel, right, &on, &fresh, meter, false)?.0;
        vars.extend(fresh.iter().map(|&j| f.vars[j]));
    }
    if rel.is_empty() {
        let arity = chi.len();
        return Ok((
            BoundAtom {
                vars: chi,
                rel: Relation::new(arity),
            },
            disconnected,
        ));
    }
    // A no-op: every input is a set and every join keeps all of its
    // right side's columns, so the accumulator keeps its distinctness
    // proof. The node stays under its accumulation-order variable list
    // (bound atoms carry their own variable lists, so downstream
    // consumers do not care); under Condition 3 of Definition 4.1 it is
    // a permutation of χ(p).
    rel.dedup_metered(meter)?;
    Ok((BoundAtom { vars, rel }, disconnected))
}

/// Boolean evaluation through the reduction (Theorem 4.7): Lemma 4.6
/// built children-first has already done the Boolean Yannakakis sweep,
/// so the root of the freshly built node relations answers.
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
    use crate::Pipeline;
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
        assert_eq!(reduced.tree().len(), reduced.nodes.len());
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

    /// The λ-product of every node, built the textbook way (each λ-atom
    /// projected onto χ(p), joined left to right), over χ(p) in set order.
    fn lambda_products(
        q: &ConjunctiveQuery,
        db: &Database,
        hd: &HypertreeDecomposition,
    ) -> (RootedTree, Vec<Vec<VertexId>>, Vec<Relation>) {
        let complete = hd.complete(&q.hypergraph());
        let bound = bind_all(q, db).unwrap();
        let tree = complete.tree().clone();
        let (mut vars, mut rels) = (Vec::new(), Vec::new());
        for p in tree.nodes() {
            let chi = complete.chi(p).to_vec();
            let (mut acc_vars, mut acc) = (Vec::new(), Relation::new(0));
            acc.push_row(&[]);
            for e in complete.lambda(p) {
                let f = Factor::restrict(&bound[e.index()], &chi);
                let restricted = ops::project(f.rel, &f.cols);
                let pairs: Vec<(usize, usize)> = acc_vars
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| f.vars.iter().position(|w| w == v).map(|j| (i, j)))
                    .collect();
                let fresh: Vec<usize> = (0..f.vars.len())
                    .filter(|&j| !acc_vars.contains(&f.vars[j]))
                    .collect();
                acc = ops::join(&acc, &restricted, &pairs, &fresh);
                acc_vars.extend(fresh.iter().map(|&j| f.vars[j]));
            }
            let cols: Vec<usize> = chi
                .iter()
                .map(|v| acc_vars.iter().position(|w| w == v).unwrap())
                .collect();
            rels.push(ops::project(&acc, &cols));
            vars.push(chi);
        }
        (tree, vars, rels)
    }

    /// `rel` over `vars`, as sorted rows over `order`.
    fn rows_in(rel: &Relation, vars: &[VertexId], order: &[VertexId]) -> Vec<Vec<Value>> {
        let cols: Vec<usize> = order
            .iter()
            .map(|v| vars.iter().position(|w| w == v).unwrap())
            .collect();
        let mut rows: Vec<Vec<Value>> = rel
            .rows()
            .map(|r| cols.iter().map(|&c| r[c]).collect())
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn children_first_nodes_are_the_lambda_products_after_the_upward_sweep() {
        for seed in 0..16u64 {
            let mut rng = workloads::random::rng(seed);
            let q = workloads::random::random_query(&mut rng, 6, 6, 3);
            let db = workloads::random::planted_database(&mut rng, &q, 4, 10);
            let hd = hypertree_core::opt::optimal_decomposition(&q.hypergraph());
            let (tree, vars, mut products) = lambda_products(&q, &db, &hd);
            // Planted, so the Boolean sweep runs the whole bottom-up pass.
            assert!(Pipeline::new(&tree, vars.clone()).boolean(&mut products));
            let reduced = reduce(&q, &db, &hd).unwrap();
            assert_eq!(reduced.tree(), &tree);
            for (i, node) in reduced.nodes.iter().enumerate() {
                assert_eq!(
                    rows_in(&node.rel, &node.vars, &vars[i]),
                    rows_in(&products[i], &vars[i], &vars[i]),
                    "seed {seed}, node {i} of {q}"
                );
            }
            // And the full reducer still reaches global consistency, with
            // the top-down sweep alone.
            let (pipeline, mut rels) = reduced.into_pipeline();
            pipeline.full_reduce(&mut rels);
            Pipeline::new(&tree, vars.clone()).full_reduce(&mut products);
            for n in tree.nodes() {
                let i = n.index();
                assert_eq!(
                    rows_in(&rels[i], pipeline.node_vars(n), &vars[i]),
                    rows_in(&products[i], &vars[i], &vars[i]),
                    "seed {seed}, node {i} of {q} after full_reduce"
                );
            }
        }
    }

    #[test]
    fn trivial_decomposition_also_works() {
        let q = q1();
        let hd = HypertreeDecomposition::trivial(&q.hypergraph());
        assert!(boolean_via_hd(&q, &q1_db_true(), &hd).unwrap());
    }
}
