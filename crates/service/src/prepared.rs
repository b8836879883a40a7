//! One-shot query compilation: text → parsed query → (cached)
//! decomposition → executable [`PreparedQuery`].
//!
//! Preparation is the expensive half of serving — parsing is cheap, but a
//! cyclic query pays for a hypertree/GHD search. A `PreparedQuery` does
//! that work exactly once and is then a passive, `Send + Sync` plan
//! object: it holds no reference to any [`Database`], so one prepared
//! plan answers the same query against any number of database snapshots,
//! sequentially or concurrently.

use crate::ServiceError;
use cq::{parse_query, ConjunctiveQuery, Term};
use eval::{EvalError, ExecCtx, Strategy};
use hypergraph::acyclic;
use hypertree_core::{DecompCache, QueryBudget, QueryError};
use relation::{Database, Relation};
use std::fmt::Write as _;
use std::time::Instant;

/// Planning knobs for [`PreparedQuery::prepare`].
#[derive(Clone, Copy, Debug)]
pub struct PrepareConfig {
    /// Candidate-step budget per deepening level of the bounded exact
    /// search inside [`heuristics::decompose_auto`]. Small instances come
    /// back width-optimal; large ones fall back to the heuristic GHD
    /// instead of stalling the serving thread.
    pub exact_steps: u64,
}

impl Default for PrepareConfig {
    fn default() -> Self {
        PrepareConfig {
            exact_steps: 50_000,
        }
    }
}

/// How a prepared plan evaluates: directly over a join tree (acyclic
/// queries) or through a decomposition that came out of the shared
/// [`DecompCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanKind {
    /// The query is acyclic; the plan is a join tree (width 1).
    JoinTree,
    /// The query is cyclic; the plan routes through a hypertree/GHD.
    Decomposition,
}

/// A fully compiled query: parse + plan, reusable across databases.
///
/// Execution methods borrow the database immutably, so any number of
/// threads can drive the same plan against the same (or different)
/// snapshots at once — the property the [`crate::Service`] batch engine
/// is built on.
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    query: ConjunctiveQuery,
    key: String,
    strategy: Strategy,
    kind: PlanKind,
    provenance: &'static str,
    decomp_cache_hit: Option<bool>,
}

/// Render a decomposition provenance as its stable explain label.
fn provenance_str(p: heuristics::Provenance) -> &'static str {
    match p {
        heuristics::Provenance::Exact => "exact",
        heuristics::Provenance::HeuristicOptimal => "heuristic-optimal",
        heuristics::Provenance::Heuristic => "heuristic",
    }
}

impl PreparedQuery {
    /// Compile `text` end to end, with no budget and no trace.
    /// Decompositions go through `cache`, so preparing two queries with
    /// the same hypergraph shape decomposes once.
    pub fn prepare(
        text: &str,
        cache: &DecompCache,
        cfg: &PrepareConfig,
    ) -> Result<PreparedQuery, ServiceError> {
        let q = parse_query(text).map_err(ServiceError::Parse)?;
        let key = plan_key(&q);
        let (budget, obs) = (QueryBudget::unlimited(), obs::Tracer::off());
        Self::prepare_parsed(q, key, cache, cfg, &budget, &obs).map_err(ServiceError::Budget)
    }

    /// Compile an already parsed query whose plan key is already
    /// rendered (`key` must be `plan_key(&q)`) under a [`QueryBudget`] —
    /// the planning tier of the degradation ladder — recording into
    /// `obs`.
    ///
    /// The budget is polled before planning starts, and a cyclic query's
    /// decomposition runs [`heuristics::decompose_auto_governed`] with
    /// the bounded exact search capped to *half* the budget's remaining
    /// time: an exact search that overruns its share degrades to the
    /// heuristic witness rather than eating the whole request deadline.
    /// Preparation fails only when the budget trips before *any* plan
    /// exists (every query has at worst the trivial single-node
    /// decomposition); a failed preparation inserts nothing into `cache`.
    ///
    /// The whole preparation runs under a `plan` span, a
    /// decomposition-cache miss additionally under a nested `decompose`
    /// span, and the decomposition-cache outcome and resulting plan
    /// shape/width are noted on the trace.
    pub fn prepare_parsed(
        q: ConjunctiveQuery,
        key: String,
        cache: &DecompCache,
        cfg: &PrepareConfig,
        budget: &QueryBudget,
        obs: &obs::Tracer,
    ) -> Result<PreparedQuery, QueryError> {
        let _span = obs.span(obs::Phase::Plan);
        debug_assert_eq!(key, plan_key(&q), "key must be the query's plan key");
        budget.check("plan")?;
        let h = q.hypergraph();
        let (strategy, kind, provenance, decomp_cache_hit) = match acyclic::join_tree(&h) {
            Some(jt) => (Strategy::JoinTree(jt), PlanKind::JoinTree, "acyclic", None),
            None => {
                // archlint::allow(timing-via-obs, reason = "deadline arithmetic for the exact-search budget split, not telemetry — the plan span already times this")
                let exact_deadline = budget.remaining().map(|rem| Instant::now() + rem / 2);
                let fresh = std::cell::Cell::new(None::<heuristics::Provenance>);
                let hd = cache.try_get_or_insert_with(&h, |h| {
                    let _span = obs.span(obs::Phase::Decompose);
                    heuristics::decompose_auto_governed(h, cfg.exact_steps, exact_deadline, budget)
                        .map(|auto| {
                            fresh.set(Some(auto.provenance));
                            auto.hd
                        })
                })?;
                let hit = fresh.get().is_none();
                obs.note_decomp_cache(hit);
                // The cache stores only the decomposition: a hit cannot
                // recover how the original decomposer tier arrived at it.
                let provenance = match fresh.get() {
                    Some(p) => provenance_str(p),
                    None => "cached",
                };
                // One decomposition clone per *prepare* (not per execution);
                // the plan must own its data to outlive cache eviction.
                (
                    Strategy::from_decomposition((*hd).clone()),
                    PlanKind::Decomposition,
                    provenance,
                    Some(hit),
                )
            }
        };
        let prepared = PreparedQuery {
            query: q,
            key,
            strategy,
            kind,
            provenance,
            decomp_cache_hit,
        };
        prepared.note_plan(obs);
        Ok(prepared)
    }

    /// Record this plan's shape and width on a trace (used both when a
    /// preparation runs under the tracer and when a plan-cache hit skips
    /// preparation entirely).
    pub fn note_plan(&self, obs: &obs::Tracer) {
        if !obs.enabled() {
            return;
        }
        let shape = match self.kind {
            PlanKind::JoinTree => obs::PlanShape::JoinTree,
            PlanKind::Decomposition => obs::PlanShape::Hypertree,
        };
        obs.note_plan(shape, self.width() as u64);
    }

    /// The α-invariant plan-cache key of the compiled query.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The parsed query this plan answers.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// Join tree or decomposition?
    pub fn kind(&self) -> PlanKind {
        self.kind
    }

    /// Width of the underlying plan (1 for join trees).
    pub fn width(&self) -> usize {
        self.strategy.width()
    }

    /// How planning arrived at this plan: `acyclic` for join trees,
    /// otherwise `exact` / `heuristic-optimal` / `heuristic` when this
    /// prepare ran the decomposer and `cached` when the decomposition
    /// came out of the shared [`DecompCache`].
    pub fn provenance(&self) -> &'static str {
        self.provenance
    }

    /// Whether the decomposition cache hit when this plan was prepared
    /// (`None` for join trees, which never touch it).
    pub fn decomp_cache_hit(&self) -> Option<bool> {
        self.decomp_cache_hit
    }

    /// Build the structured EXPLAIN of this plan: shape, width,
    /// provenance, and the plan tree with per-node variable bags and
    /// edge covers. Node ids match the evaluation pipeline's tree (the
    /// *completed* decomposition for hypertree plans — the same tree
    /// the Lemma 4.6 reduction runs on), so
    /// [`obs::QueryTrace::node_rows`] indices line up for EXPLAIN
    /// ANALYZE. Plan-cache lineage is left for the serving layer to fill
    /// in.
    pub fn explain(&self, query_text: &str) -> obs::PlanExplain {
        let h = self.query.hypergraph();
        let mut nodes = Vec::new();
        match &self.strategy {
            Strategy::JoinTree(jt) => {
                let tree = jt.tree();
                for n in tree.pre_order() {
                    let e = jt.edge_at(n);
                    nodes.push(obs::ExplainNode {
                        id: hypergraph::Ix::index(n),
                        parent: tree.parent(n).map(hypergraph::Ix::index),
                        depth: tree.depth(n),
                        bag: h
                            .edge_vertex_list(e)
                            .iter()
                            .map(|&v| h.vertex_name(v).to_string())
                            .collect(),
                        cover: vec![h.edge_name(e).to_string()],
                    });
                }
            }
            Strategy::Hypertree(hd) => {
                let complete = hd.complete(&h);
                let tree = complete.tree();
                for n in tree.pre_order() {
                    nodes.push(obs::ExplainNode {
                        id: hypergraph::Ix::index(n),
                        parent: tree.parent(n).map(hypergraph::Ix::index),
                        depth: tree.depth(n),
                        bag: complete
                            .chi(n)
                            .iter()
                            .map(|v| h.vertex_name(v).to_string())
                            .collect(),
                        cover: complete
                            .lambda(n)
                            .iter()
                            .map(|e| h.edge_name(e).to_string())
                            .collect(),
                    });
                }
            }
        }
        let kind = match self.kind {
            PlanKind::JoinTree => obs::PlanShape::JoinTree,
            PlanKind::Decomposition => obs::PlanShape::Hypertree,
        };
        obs::PlanExplain {
            query: query_text.to_string(),
            plan_key: self.key.clone(),
            kind: kind.as_str(),
            width: self.width() as u64,
            provenance: self.provenance,
            plan_cache_hit: None,
            decomp_cache_hit: self.decomp_cache_hit,
            nodes,
        }
    }

    /// Answer the Boolean query against `db`, under `ctx`
    /// ([`eval::Unlimited`] for no budget and no trace): every
    /// long-running loop polls the context at chunk granularity and
    /// unwinds with [`EvalError::Budget`] on a trip.
    pub fn boolean<C: ExecCtx>(&self, db: &Database, ctx: &C) -> Result<bool, EvalError> {
        self.strategy.boolean(&self.query, db, ctx)
    }

    /// Enumerate the answers over the head variables against `db`.
    /// Returns `(rows, truncated)`: `truncated == true` means the byte
    /// quota tripped during the output join and the rows are a sound
    /// *subset* of the answers (see [`eval::Pipeline::enumerate_in`]).
    pub fn enumerate<C: ExecCtx>(
        &self,
        db: &Database,
        ctx: &C,
    ) -> Result<(Relation, bool), EvalError> {
        self.strategy.enumerate(&self.query, db, ctx)
    }

    /// Count the satisfying assignments over `var(Q)` against `db`.
    /// Saturates at `u128::MAX` (see [`eval::Pipeline::count_in`]).
    /// Memory trips are hard errors — a truncated count would be
    /// silently wrong.
    pub fn count<C: ExecCtx>(&self, db: &Database, ctx: &C) -> Result<u128, EvalError> {
        self.strategy.count(&self.query, db, ctx)
    }
}

/// The plan-cache key of `q`: the query rendered with its variables
/// replaced by their interned indices (`#0`, `#1`, … in head-then-body
/// first-occurrence order). Two queries that differ only by a consistent
/// renaming of variables — α-equivalent texts — share a key, so the plan
/// cache serves both from one compilation; predicate names, constants,
/// atom order, and argument positions all stay significant.
pub fn plan_key(q: &ConjunctiveQuery) -> String {
    let mut out = String::new();
    let render = |out: &mut String, terms: &[Term]| {
        out.push('(');
        for (i, t) in terms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // fmt::Write into a String cannot fail; no panic path on the
            // request-handling route.
            let _ = match t {
                Term::Var(v) => write!(out, "#{}", hypergraph::Ix::index(*v)),
                Term::Const(c) => write!(out, "{c}"),
            };
        }
        out.push(')');
    };
    out.push_str(q.head_name());
    render(&mut out, q.head());
    out.push_str(":-");
    for (i, atom) in q.atoms().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&atom.predicate);
        render(&mut out, &atom.terms);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> DecompCache {
        DecompCache::new()
    }

    #[test]
    fn plan_keys_are_alpha_invariant() {
        let a = parse_query("ans(X) :- r(X,Y), s(Y,Z), t(Z,X).").unwrap();
        let b = parse_query("ans(U) :- r(U,V), s(V,W), t(W,U).").unwrap();
        assert_eq!(plan_key(&a), plan_key(&b));
        // Predicate names, constants, and structure stay significant.
        let c = parse_query("ans(X) :- r(X,Y), s(Y,Z), u(Z,X).").unwrap();
        assert_ne!(plan_key(&a), plan_key(&c));
        let d = parse_query("ans(X) :- r(X,7), s(7,Z), t(Z,X).").unwrap();
        assert_ne!(plan_key(&a), plan_key(&d));
        let swapped = parse_query("ans(X) :- s(Y,Z), r(X,Y), t(Z,X).").unwrap();
        assert_ne!(plan_key(&a), plan_key(&swapped), "atom order matters");
    }

    #[test]
    fn acyclic_queries_skip_the_decomposition_cache() {
        let cache = cache();
        let p =
            PreparedQuery::prepare("ans :- r(X,Y), s(Y,Z).", &cache, &Default::default()).unwrap();
        assert_eq!(p.kind(), PlanKind::JoinTree);
        assert_eq!(p.width(), 1);
        assert_eq!(cache.hits() + cache.misses(), 0, "no cache traffic");
    }

    #[test]
    fn cyclic_queries_share_one_decomposition() {
        let cache = cache();
        let cfg = PrepareConfig::default();
        let p1 = PreparedQuery::prepare("ans :- r(X,Y), s(Y,Z), t(Z,X).", &cache, &cfg).unwrap();
        assert_eq!(p1.kind(), PlanKind::Decomposition);
        assert_eq!(p1.width(), 2);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Same hypergraph shape (different variable names): cache hit.
        let p2 = PreparedQuery::prepare("ans :- r(A,B), s(B,C), t(C,A).", &cache, &cfg).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(p1.key(), p2.key());
    }

    #[test]
    fn prepared_plans_execute_all_three_ops() {
        let cache = cache();
        let p = PreparedQuery::prepare(
            "ans(X,Y,Z) :- r(X,Y), s(Y,Z), t(Z,X).",
            &cache,
            &Default::default(),
        )
        .unwrap();
        let mut db = Database::new();
        db.add_fact("r", &[1, 2]);
        db.add_fact("s", &[2, 3]);
        db.add_fact("t", &[3, 1]);
        let ctx = eval::Unlimited;
        assert_eq!(p.boolean(&db, &ctx), Ok(true));
        let (rows, truncated) = p.enumerate(&db, &ctx).unwrap();
        assert_eq!((rows.len(), truncated), (1, false));
        assert_eq!(p.count(&db, &ctx), Ok(1));
        // The very same plan object answers a different database.
        let empty = Database::new();
        assert_eq!(p.boolean(&empty, &ctx), Ok(false));
        assert_eq!(p.count(&empty, &ctx), Ok(0));
    }

    #[test]
    fn parse_failures_surface_as_service_errors() {
        let err =
            PreparedQuery::prepare("ans(X,X) :- r(X).", &cache(), &Default::default()).unwrap_err();
        match err {
            ServiceError::Parse(e) => assert_eq!(
                e.kind,
                cq::ParseErrorKind::DuplicateHeadVariable("X".to_string())
            ),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}
