//! The planned Yannakakis pipeline: one rooted join tree, planned once,
//! run many ways.
//!
//! [`Pipeline`] precomputes everything the semijoin sweeps need — the
//! post-/pre-order schedules and, per join-tree edge, the shared-variable
//! column lists for both directions — and then runs `boolean` /
//! `full_reduce` / `enumerate` / `count` *in place* over a caller-owned
//! `&mut [Relation]`. Each operation has one body, the `*_in` method,
//! generic over the [`ExecCtx`] it runs under (budget polling, byte
//! accounting, tracing — see [`crate::governed`]); the context-free name
//! is that body under [`Unlimited`], where all of it compiles away.
//!
//! * node relations are never cloned — sweeps filter rows with
//!   [`Relation::retain_semijoin_cols`] instead of materializing new
//!   relations;
//! * every index is obtained through [`Relation::index_on`], which
//!   memoizes per `(relation, columns)` pair, so no index is ever rebuilt
//!   within a run (in-place filtering invalidates a relation's cache only
//!   when rows were actually removed, so e.g. a parent indexed during the
//!   bottom-up sweep serves the top-down sweep for all of its children
//!   with the same connector columns, and unchanged relations keep their
//!   indexes across sweeps).
//!
//! A pipeline compiled by [`crate::reduction::ReducedInstance::into_pipeline`]
//! runs over relations the children-first Lemma 4.6 construction has
//! already made upward-consistent (every node semijoin-reduced by its
//! subtree), and records so privately: its `boolean` answers from the
//! root and its `full_reduce` / `enumerate` run only the top-down sweep.
//! [`Pipeline::new`] makes no such assumption and runs both sweeps; on
//! relations that are already consistent the sweeps are idempotent
//! no-ops either way.
//!
//! The wrappers in [`crate::yannakakis`] keep the historical
//! `(tree, &[BoundAtom]) -> owned results` API on top of this; the
//! planner ([`crate::Strategy`]), the Lemma 4.6 reduction and the
//! counting extension all drive the pipeline directly.

use crate::binding::BoundAtom;
use crate::governed::{note_nodes_in, note_nodes_out, trip_to_error, ExecCtx, Unlimited};
use hypergraph::{Ix, NodeId, RootedTree, VertexId};
use hypertree_core::QueryError;
use relation::meter::untripped;
use relation::{ops, Relation};

/// Column pairs between two variable lists (join keys on shared vars).
///
/// Emits *every* `(i, j)` with `left[i] == right[j]`, not just the first
/// occurrence on either side. On duplicate-free lists — what every
/// in-tree constructor produces, see [`Pipeline::new`] — this is the same
/// single pair per shared variable as before; on lists with repeats
/// (possible through the public `Pipeline::new`) the all-pairs form is
/// what actually enforces the variable's equality semantics: pairing only
/// first occurrences would silently leave later columns unconstrained.
fn var_pairs(left: &[VertexId], right: &[VertexId]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (i, v) in left.iter().enumerate() {
        for (j, w) in right.iter().enumerate() {
            if v == w {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// A compiled evaluation plan over a rooted join tree: traversal orders
/// plus per-edge join-column lists, computed once and reused by every run.
#[derive(Clone, Debug)]
pub struct Pipeline {
    pub(crate) tree: RootedTree,
    /// Per node: its variable list (one column per variable).
    pub(crate) vars: Vec<Vec<VertexId>>,
    pub(crate) post: Vec<NodeId>,
    pub(crate) pre: Vec<NodeId>,
    /// Per non-root node: the columns of the *parent* shared with it.
    pub(crate) parent_cols: Vec<Vec<usize>>,
    /// Per non-root node: its own columns shared with the parent (aligned
    /// with `parent_cols`).
    pub(crate) child_cols: Vec<Vec<usize>>,
    /// The relations this pipeline is run over are already
    /// upward-consistent: set only for the Lemma 4.6 construction's
    /// output, whose bottom-up sweep it has done while building.
    upward_consistent: bool,
}

impl Pipeline {
    /// Plan the tree with the given per-node variable lists.
    ///
    /// Each node's variable list must be duplicate-free. The binding layer
    /// guarantees this for every query-derived pipeline: repeated
    /// variables in an atom are canonicalized at bind time
    /// ([`crate::binding::bind_atom`] applies the equality selections and
    /// projects onto first occurrences), and the Lemma 4.6 reduction only
    /// accumulates fresh variables per node. Debug builds assert it;
    /// `enumerate`'s column bookkeeping relies on it.
    pub fn new(tree: &RootedTree, vars: Vec<Vec<VertexId>>) -> Self {
        assert_eq!(tree.len(), vars.len(), "one variable list per node");
        debug_assert!(
            vars.iter()
                .all(|vs| { vs.iter().enumerate().all(|(i, v)| !vs[..i].contains(v)) }),
            "node variable lists must be duplicate-free (bind atoms first)"
        );
        let mut parent_cols = Vec::with_capacity(tree.len());
        let mut child_cols = Vec::with_capacity(tree.len());
        // archlint::allow(budget-polled-loops, reason = "plan construction: one pass over the join tree, bounded by node count, no data touched")
        for n in tree.nodes() {
            match tree.parent(n) {
                Some(p) => {
                    let pairs = var_pairs(&vars[p.index()], &vars[n.index()]);
                    parent_cols.push(pairs.iter().map(|&(i, _)| i).collect());
                    child_cols.push(pairs.iter().map(|&(_, j)| j).collect());
                }
                None => {
                    parent_cols.push(Vec::new());
                    child_cols.push(Vec::new());
                }
            }
        }
        Pipeline {
            tree: tree.clone(),
            post: tree.post_order(),
            pre: tree.pre_order(),
            vars,
            parent_cols,
            child_cols,
            upward_consistent: false,
        }
    }

    /// [`Pipeline::new`] for relations already semijoin-reduced by their
    /// subtrees — what [`crate::reduction::reduce_in`] builds.
    pub(crate) fn upward_consistent(tree: &RootedTree, vars: Vec<Vec<VertexId>>) -> Self {
        Pipeline {
            upward_consistent: true,
            ..Self::new(tree, vars)
        }
    }

    /// Plan from annotated nodes (variable lists are copied; relations are
    /// not touched — pass them to the run methods).
    pub fn from_nodes(tree: &RootedTree, nodes: &[BoundAtom]) -> Self {
        Self::new(tree, nodes.iter().map(|b| b.vars.clone()).collect())
    }

    /// The planned tree.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// The variable list of node `n`.
    pub fn node_vars(&self, n: NodeId) -> &[VertexId] {
        &self.vars[n.index()]
    }

    /// One bottom-up semijoin sweep, in place; returns `true` iff the
    /// Boolean query holds (the root stays non-empty). Exits early as soon
    /// as any parent empties — it can never recover. On upward-consistent
    /// relations (see the module docs) there is nothing to sweep and the
    /// root answers directly. [`Pipeline::boolean_in`] under
    /// [`Unlimited`].
    pub fn boolean(&self, rels: &mut [Relation]) -> bool {
        untripped(self.boolean_in(rels, &Unlimited))
    }

    /// The full reducer: bottom-up then top-down semijoin sweeps, in
    /// place (top-down only on upward-consistent relations). Afterwards
    /// every remaining tuple of every node participates in at least one
    /// answer. [`Pipeline::full_reduce_in`] under [`Unlimited`].
    pub fn full_reduce(&self, rels: &mut [Relation]) {
        untripped(self.full_reduce_in(rels, &Unlimited))
    }

    /// Enumerate the answers projected onto `output` (Theorem 4.8 shape):
    /// full-reduce in place, then join bottom-up keeping only output
    /// variables and the variables shared with the yet-unjoined parent.
    /// [`Pipeline::enumerate_in`] under [`Unlimited`].
    ///
    /// Consumes the contents of `rels` (each slot is left empty).
    pub fn enumerate(&self, rels: &mut [Relation], output: &[VertexId]) -> Relation {
        untripped(self.enumerate_in(rels, output, &Unlimited)).0
    }

    /// Count the satisfying substitutions by the bottom-up product-sum DP
    /// (the counting extension of Yannakakis' algorithm; see
    /// [`crate::counting`]). [`Pipeline::count_in`] under [`Unlimited`].
    pub fn count(&self, rels: &[Relation]) -> u128 {
        untripped(self.count_in(rels, &Unlimited))
    }

    /// One edge of a semijoin sweep: keep the rows of node `filtered`
    /// that match node `by`. The context is checked before the edge and
    /// polled inside the kernel at chunk granularity; scan work lands on
    /// the node being filtered.
    fn semijoin_edge<C: ExecCtx>(
        &self,
        rels: &mut [Relation],
        (filtered, filtered_cols): (NodeId, &[usize]),
        (by, by_cols): (NodeId, &[usize]),
        ctx: &C,
    ) -> Result<(), QueryError> {
        const PHASE: &str = "semijoin";
        ctx.check(PHASE)?;
        let meter = ctx.meter(PHASE, Some(filtered.index()), true);
        let (left, right) = pair_mut(rels, filtered.index(), by.index());
        left.retain_semijoin_cols_metered(filtered_cols, right, by_cols, &meter)
            .map_err(|t| trip_to_error(t, PHASE))
    }

    /// The Boolean sweep (see [`Pipeline::boolean`]) under `ctx`, timed
    /// under the tracer's `reduce` span. An `Err` leaves every relation
    /// either untouched or validly filtered — never half-compacted.
    pub fn boolean_in<C: ExecCtx>(
        &self,
        rels: &mut [Relation],
        ctx: &C,
    ) -> Result<bool, QueryError> {
        assert_eq!(rels.len(), self.tree.len(), "one relation per node");
        let obs = ctx.tracer();
        let _span = obs.span(obs::Phase::Reduce);
        self.note_entry(obs, rels);
        for &n in self.upward_sweep() {
            if let Some(p) = self.tree.parent(n) {
                let (parent_cols, child_cols) = self.edge_cols(n);
                self.semijoin_edge(rels, (p, parent_cols), (n, child_cols), ctx)?;
                if rels[p.index()].is_empty() {
                    note_nodes_out(obs, rels);
                    return Ok(false);
                }
            }
        }
        note_nodes_out(obs, rels);
        Ok(!rels[self.tree.root().index()].is_empty())
    }

    /// The nodes the bottom-up sweep visits, in post-order: none when the
    /// relations are already upward-consistent.
    fn upward_sweep(&self) -> &[NodeId] {
        if self.upward_consistent {
            &[]
        } else {
            &self.post
        }
    }

    /// Record the node relations entering a run — unless the Lemma 4.6
    /// construction built them and has already recorded what it built
    /// against its bound.
    fn note_entry(&self, obs: &obs::Tracer, rels: &[Relation]) {
        if !self.upward_consistent {
            note_nodes_in(obs, rels);
        }
    }

    /// The full reducer (see [`Pipeline::full_reduce`]) under `ctx`; same
    /// per-edge checking and span as [`Pipeline::boolean_in`].
    pub fn full_reduce_in<C: ExecCtx>(
        &self,
        rels: &mut [Relation],
        ctx: &C,
    ) -> Result<(), QueryError> {
        assert_eq!(rels.len(), self.tree.len(), "one relation per node");
        let obs = ctx.tracer();
        let _span = obs.span(obs::Phase::Reduce);
        self.note_entry(obs, rels);
        for &n in self.upward_sweep() {
            if let Some(p) = self.tree.parent(n) {
                let (parent_cols, child_cols) = self.edge_cols(n);
                self.semijoin_edge(rels, (p, parent_cols), (n, child_cols), ctx)?;
            }
        }
        for &n in &self.pre {
            if let Some(p) = self.tree.parent(n) {
                let (parent_cols, child_cols) = self.edge_cols(n);
                self.semijoin_edge(rels, (n, child_cols), (p, parent_cols), ctx)?;
            }
        }
        note_nodes_out(obs, rels);
        Ok(())
    }

    /// The (parent-side, child-side) shared columns of the edge above
    /// non-root node `n`.
    fn edge_cols(&self, n: NodeId) -> (&[usize], &[usize]) {
        (&self.parent_cols[n.index()], &self.child_cols[n.index()])
    }

    /// Enumeration (see [`Pipeline::enumerate`]) under `ctx`. Returns
    /// `(answers, truncated)`: `truncated == true` means the byte quota
    /// tripped during the join phase and the rows are a sound subset of
    /// the full answer (see the [`crate::governed`] docs for the
    /// degradation ladder). Deadline and cancellation trips error.
    pub fn enumerate_in<C: ExecCtx>(
        &self,
        rels: &mut [Relation],
        output: &[VertexId],
        ctx: &C,
    ) -> Result<(Relation, bool), QueryError> {
        self.full_reduce_in(rels, ctx)?;
        self.join_phase(rels, output, ctx)
    }

    /// The bottom-up join/projection phase of `enumerate`, over already
    /// fully reduced relations, timed under the tracer's `join` span.
    fn join_phase<C: ExecCtx>(
        &self,
        rels: &mut [Relation],
        output: &[VertexId],
        ctx: &C,
    ) -> Result<(Relation, bool), QueryError> {
        const PHASE: &str = "join";
        let _span = ctx.tracer().span(obs::Phase::Join);
        let trip = |t| trip_to_error(t, PHASE);
        let mut truncated = false;
        // Working annotations: (vars, relation) per node, consumed
        // bottom-up; the reduced relations are moved in, not cloned.
        let mut work: Vec<(Vec<VertexId>, Relation)> = self
            .vars
            .iter()
            .cloned()
            .zip(rels.iter_mut().map(std::mem::take))
            .collect();

        for &n in &self.post {
            ctx.check(PHASE)?;
            let (mut vars, mut rel) = std::mem::take(&mut work[n.index()]);
            for &c in self.tree.children(n) {
                let (cvars, crel) = std::mem::take(&mut work[c.index()]);
                let pairs = var_pairs(&vars, &cvars);
                let keep: Vec<usize> = (0..cvars.len())
                    .filter(|&j| !vars.contains(&cvars[j]))
                    .collect();
                let meter = ctx.meter(PHASE, Some(n.index()), !truncated);
                let (joined, cut) =
                    ops::join_metered(&rel, &crel, &pairs, &keep, &meter, true).map_err(trip)?;
                truncated |= cut;
                rel = joined;
                for j in keep {
                    vars.push(cvars[j]);
                }
            }
            // Project onto output vars plus connector vars with the parent.
            let parent_vars: &[VertexId] = match self.tree.parent(n) {
                Some(p) => &self.vars[p.index()],
                None => &[],
            };
            let keep_cols: Vec<usize> = (0..vars.len())
                .filter(|&i| output.contains(&vars[i]) || parent_vars.contains(&vars[i]))
                .collect();
            let projected_vars: Vec<VertexId> = keep_cols.iter().map(|&i| vars[i]).collect();
            // Projections only shrink; memory charges are advisory once
            // truncation has started, and always accounted.
            let meter = ctx.meter(PHASE, Some(n.index()), !truncated);
            let projected = ops::project_metered(&rel, &keep_cols, &meter).map_err(trip)?;
            work[n.index()] = (projected_vars, projected);
        }

        // Root now holds the answers over (a permutation of) the output
        // vars; order the columns as requested, duplicating columns for
        // repeated output variables.
        let root = self.tree.root().index();
        let (vars, rel) = &work[root];
        let cols: Option<Vec<usize>> = output
            .iter()
            .map(|v| vars.iter().position(|w| w == v))
            .collect();
        let Some(cols) = cols else {
            // Some output variable vanished: only possible when the result
            // is empty (full reduction would otherwise have kept it via an
            // atom).
            debug_assert!(rel.is_empty());
            return Ok((Relation::new(output.len()), truncated));
        };
        let meter = ctx.meter(PHASE, Some(root), !truncated);
        let out = ops::project_metered(rel, &cols, &meter).map_err(trip)?;
        Ok((out, truncated))
    }

    /// The counting DP (see [`Pipeline::count`]) under `ctx`, timed under
    /// the tracer's `count` span. Read-only: probes the nodes' cached
    /// indexes, clones nothing, and leaves `rels` untouched. The context
    /// is checked before every DP edge and the per-edge scratch charged
    /// against the byte quota; a memory trip is a hard error — a
    /// truncated count would be silently wrong, unlike a truncated
    /// enumeration.
    ///
    /// **Saturating contract:** every accumulation step — the per-group
    /// child sums, the per-tuple factor products, and the final root sum —
    /// saturates at `u128::MAX` instead of panicking (debug) or wrapping
    /// (release). A result of `u128::MAX` therefore means "at least
    /// `u128::MAX`".
    pub fn count_in<C: ExecCtx>(&self, rels: &[Relation], ctx: &C) -> Result<u128, QueryError> {
        const PHASE: &str = "count";
        assert_eq!(rels.len(), self.tree.len(), "one relation per node");
        let obs = ctx.tracer();
        let _span = obs.span(obs::Phase::Count);
        let tap = obs.io();
        // The DP never filters: rows in == rows out at every node.
        self.note_entry(obs, rels);
        note_nodes_out(obs, rels);
        ctx.check(PHASE)?;
        let cell = std::mem::size_of::<u128>() as u64;
        ctx.charge_bytes(rels.iter().map(|r| r.len() as u64 * cell).sum())?;
        let mut counts: Vec<Vec<u128>> = rels.iter().map(|r| vec![1u128; r.len()]).collect();

        for &n in &self.post {
            let Some(p) = self.tree.parent(n) else {
                continue;
            };
            ctx.check(PHASE)?;
            let child = &rels[n.index()];
            let parent = &rels[p.index()];
            // Each edge scans its child and its parent once.
            tap.add_rows((child.len() + parent.len()) as u64);
            obs.node_tap(n.index()).add_rows(child.len() as u64);
            obs.node_tap(p.index()).add_rows(parent.len() as u64);
            // Per-group sums of the child's tuple counts, laid out by the
            // cached index's group ids.
            let index = child.index_on(&self.child_cols[n.index()]);
            ctx.charge_bytes(index.num_keys() as u64 * cell)?;
            let child_counts = &counts[n.index()];
            let sums: Vec<u128> = index
                .groups()
                .map(|g| saturating_sum(g.iter().map(|&i| child_counts[i as usize])))
                .collect();
            let parent_cols = &self.parent_cols[n.index()];
            let parent_counts = &mut counts[p.index()];
            for (i, row) in parent.rows().enumerate() {
                let factor = index.probe_gid(row, parent_cols).map_or(0, |g| sums[g]);
                parent_counts[i] = parent_counts[i].saturating_mul(factor);
            }
        }

        Ok(saturating_sum(
            counts[self.tree.root().index()].iter().copied(),
        ))
    }
}

/// Saturating fold of tuple counts: the additive half of the counting
/// DP's overflow contract (see [`Pipeline::count`]). Once any partial sum
/// reaches `u128::MAX` it stays there — the old unchecked `Sum` panicked
/// in debug builds and wrapped (returning garbage counts) in release.
#[inline]
fn saturating_sum(counts: impl Iterator<Item = u128>) -> u128 {
    counts.fold(0u128, |acc, c| acc.saturating_add(c))
}

/// Split mutable access to a (parent, child) pair of node relations.
#[inline]
fn pair_mut(rels: &mut [Relation], a: usize, b: usize) -> (&mut Relation, &mut Relation) {
    assert_ne!(a, b, "tree edges never self-loop");
    if a < b {
        let (left, right) = rels.split_at_mut(b);
        (&mut left[a], &mut right[0])
    } else {
        let (left, right) = rels.split_at_mut(a);
        (&mut right[0], &mut left[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::bind_all;
    use cq::parse_query;
    use hypergraph::acyclic;
    use relation::{Database, Value};

    fn pipeline_and_rels(q: &cq::ConjunctiveQuery, db: &Database) -> (Pipeline, Vec<Relation>) {
        let h = q.hypergraph();
        let jt = acyclic::join_tree(&h).expect("query must be acyclic");
        let bound = bind_all(q, db).unwrap();
        let mut slots: Vec<Option<BoundAtom>> = bound.into_iter().map(Some).collect();
        let mut vars = Vec::new();
        let mut rels = Vec::new();
        for n in jt.tree().nodes() {
            let b = slots[jt.edge_at(n).index()]
                .take()
                .expect("join trees visit each edge once");
            vars.push(b.vars);
            rels.push(b.rel);
        }
        (Pipeline::new(jt.tree(), vars), rels)
    }

    #[test]
    fn boolean_sweep_in_place() {
        let q = parse_query("ans :- r(X,Y), s(Y,Z).").unwrap();
        let mut db = Database::new();
        db.add_fact("r", &[1, 10]);
        db.add_fact("s", &[10, 100]);
        let (pl, mut rels) = pipeline_and_rels(&q, &db);
        assert!(pl.boolean(&mut rels));
        let mut db2 = Database::new();
        db2.add_fact("r", &[1, 10]);
        db2.add_fact("s", &[11, 100]);
        let (pl2, mut rels2) = pipeline_and_rels(&q, &db2);
        assert!(!pl2.boolean(&mut rels2));
    }

    #[test]
    fn no_index_is_built_twice_for_the_same_pair() {
        // A star query: the hub is semijoined by three children bottom-up
        // and indexed once for all three probes of the top-down sweep.
        let q = parse_query("ans :- hub(A,B,C), p(A), p2(B), p3(C).").unwrap();
        let mut db = Database::new();
        for i in 0..50u64 {
            db.add_fact("hub", &[i, i % 7, i % 5]);
            db.add_fact("p", &[i % 9]);
            db.add_fact("p2", &[i % 7]);
            db.add_fact("p3", &[i % 4]);
        }
        let (pl, mut rels) = pipeline_and_rels(&q, &db);
        let before = relation::stats::index_builds();
        pl.full_reduce(&mut rels);
        let built = relation::stats::index_builds() - before;
        // Bottom-up: one index per child (3). Top-down: one per distinct
        // (parent, connector-columns) pair, built at most once each (3
        // single-column lists on the hub) — and none of the 6 pairs twice.
        assert!(built <= 6, "expected ≤ 6 index builds, saw {built}");
        // A second run may rebuild indexes of relations the first run's
        // top-down sweep filtered, but it filters nothing itself (the
        // instance is fixpointed) — so a third run finds every cache warm
        // and builds nothing at all.
        pl.full_reduce(&mut rels);
        let before = relation::stats::index_builds();
        pl.full_reduce(&mut rels);
        assert_eq!(relation::stats::index_builds() - before, 0);
    }

    #[test]
    fn count_matches_enumerate_cardinality_on_distinct_vars() {
        let q = parse_query("ans(H,X,Y) :- r(H,X), s(H,Y).").unwrap();
        let mut db = Database::new();
        for x in 0..3 {
            db.add_fact("r", &[1, x]);
        }
        for y in 0..5 {
            db.add_fact("s", &[1, y]);
        }
        let (pl, rels) = pipeline_and_rels(&q, &db);
        assert_eq!(pl.count(&rels), 15);
        let mut rels2 = rels.clone();
        let out = pl.enumerate(&mut rels2, &q.head_vars());
        assert_eq!(out.len(), 15);
        assert!(out.contains_row(&[Value(1), Value(2), Value(4)]));
    }
}
