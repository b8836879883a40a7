//! # hypertree — Hypertree Decompositions and Tractable Queries
//!
//! A Rust implementation of *Gottlob, Leone, Scarcello: "Hypertree
//! Decompositions and Tractable Queries"* (PODS'99; JCSS 64(3), 2002):
//! hypertree decompositions, the `k-decomp` recognition algorithm, query
//! decompositions, and decomposition-guided conjunctive-query evaluation,
//! together with the acyclic-query, relational, and graph-theoretic
//! substrate they stand on.
//!
//! ## Quick start
//!
//! ```
//! use hypertree::prelude::*;
//!
//! // Example 1.1 of the paper: is some student enrolled in a course
//! // taught by their own parent? (Cyclic — no join tree exists.)
//! let q = parse_query("ans :- enrolled(S,C,R), teaches(P,C,A), parent(P,S).").unwrap();
//!
//! // Structural analysis: hypertree width 2, with a witness decomposition.
//! assert_eq!(hypertree_width(&q), 2);
//! let hd = decompose(&q, 2).expect("width-2 decomposition exists");
//! assert_eq!(hd.validate(&q.hypergraph()), Ok(()));
//!
//! // Evaluation: the decomposition turns the cyclic query into an acyclic
//! // one (Lemma 4.6) evaluated with Yannakakis' algorithm.
//! let mut db = Database::new();
//! db.add_fact("enrolled", &[2, 7, 2000]);
//! db.add_fact("teaches", &[1, 7, 1]);
//! db.add_fact("parent", &[1, 2]);
//! assert_eq!(evaluate_boolean(&q, &db), Ok(true));
//! ```
//!
//! ## Crate map
//!
//! * [`hypergraph`] — hypergraphs, `[V]`-components, GYO/join trees,
//!   primal & incidence graphs, treewidth, CSP baselines;
//! * [`cq`] — conjunctive queries, parser, canonical queries;
//! * [`relation`] — relations, databases, joins/semijoins;
//! * [`core`] (crate `hypertree-core`) — hypertree decompositions,
//!   normal form, `k-decomp` (top-down, bottom-up Datalog, parallel),
//!   query decompositions;
//! * [`heuristics`] — elimination-ordering GHDs, local improvement, and
//!   the bounded-exact-search funnel for instances beyond `k-decomp`;
//! * [`eval`] — naive, Yannakakis, and decomposition-guided engines;
//! * [`obs`] — query-lifecycle observability: phase-taxonomy spans and
//!   per-request traces, a counters/gauges/histograms metrics registry,
//!   JSON / Prometheus-text / pretty-print exporters, EXPLAIN /
//!   EXPLAIN ANALYZE plan rendering, and a bounded flight recorder with
//!   a slow-query log — all dependency-free and allocation-free on the
//!   disabled path;
//! * [`service`] — the serving layer: prepared plans, a bounded plan
//!   cache, a batched concurrent execution front-end, resource
//!   governance (per-request deadlines and byte quotas, admission
//!   shedding, panic isolation, graceful degradation), and the traced
//!   request/metrics-snapshot surface over [`obs`];
//! * [`workloads`] — the paper's queries and figures, query families, the
//!   Section 7 NP-hardness gadget, random generators, the `.hg` format,
//!   and the large-instance tier.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub use cq;
pub use eval;
pub use heuristics;
pub use hypergraph;
pub use hypertree_core as core;
pub use obs;
pub use relation;
pub use service;
pub use workloads;

use cq::ConjunctiveQuery;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::{decompose, hypertree_width, query_width};
    pub use cq::{parse_query, ConjunctiveQuery, QueryBuilder, Term};
    pub use eval::{evaluate, evaluate_boolean, Pipeline, Strategy, Unlimited};
    pub use hypergraph::{Hypergraph, JoinTree};
    pub use hypertree_core::{HypertreeDecomposition, QueryBudget, QueryDecomposition, QueryError};
    pub use obs::{PlanExplain, QueryTrace, Registry, Tracer};
    pub use relation::{Database, Relation, Value};
    pub use service::{PreparedQuery, Request, Service, ServiceConfig};
}

/// The hypertree width `hw(Q)` of a conjunctive query (Definition 4.1;
/// computed via iterative deepening over `k-decomp`, Theorem 5.16).
pub fn hypertree_width(q: &ConjunctiveQuery) -> usize {
    hypertree_core::opt::hypertree_width(&q.hypergraph())
}

/// A width-`≤ k` normal-form hypertree decomposition of `q`, if one exists
/// (Theorem 5.18).
pub fn decompose(q: &ConjunctiveQuery, k: usize) -> Option<hypertree_core::HypertreeDecomposition> {
    hypertree_core::kdecomp::decompose(&q.hypergraph(), k, hypertree_core::CandidateMode::Pruned)
}

/// The query width `qw(Q)` (Definition 3.1), computed by the exact
/// exponential search — NP-complete in general (Theorem 3.4), so a step
/// budget guards the search.
pub fn query_width(
    q: &ConjunctiveQuery,
    budget: u64,
) -> Result<usize, hypertree_core::BudgetExceeded> {
    hypertree_core::querydecomp::query_width(&q.hypergraph(), budget)
}

/// A heuristic *generalized* hypertree decomposition of `q`, polynomial
/// in the query size: the narrowest of the elimination-ordering GHDs
/// after local improvement. Validates in
/// [`hypertree_core::ValidityMode::Generalized`] and drives the same
/// Lemma 4.6 evaluation pipeline — the road into queries whose exact
/// decomposition is out of reach.
pub fn decompose_heuristic(q: &ConjunctiveQuery) -> hypertree_core::HypertreeDecomposition {
    heuristics::best_decomposition(&q.hypergraph())
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_roundtrip() {
        let q = parse_query("ans :- r(X,Y), s(Y,Z), t(Z,X).").unwrap();
        assert_eq!(crate::hypertree_width(&q), 2);
        assert!(crate::decompose(&q, 1).is_none());
        assert_eq!(crate::query_width(&q, 1_000_000), Ok(2));
        let ghd = crate::decompose_heuristic(&q);
        assert_eq!(ghd.validate_ghd(&q.hypergraph()), Ok(()));
        assert!(ghd.width() >= 2);
    }

    #[test]
    fn facade_governs_requests() {
        let mut db = Database::new();
        db.add_fact("r", &[1, 2]);
        db.add_fact("s", &[2, 3]);
        let svc = Service::with_config(
            std::sync::Arc::new(db),
            ServiceConfig {
                deadline: Some(std::time::Duration::ZERO),
                ..Default::default()
            },
        );
        let resp = svc.execute(&Request::boolean("ans :- r(X,Y), s(Y,Z)."));
        assert!(
            matches!(
                resp,
                Err(service::ServiceError::Budget(
                    QueryError::DeadlineExceeded { .. }
                ))
            ),
            "{resp:?}"
        );
        let _ = QueryBudget::unlimited(); // re-exported alongside the error
    }

    #[test]
    fn facade_explains_plans() {
        let mut db = Database::new();
        db.add_fact("r", &[1, 2]);
        db.add_fact("s", &[2, 3]);
        db.add_fact("t", &[3, 1]);
        let svc = Service::new(std::sync::Arc::new(db));
        let explain: PlanExplain = svc
            .explain("ans :- r(X,Y), s(Y,Z), t(Z,X).")
            .expect("triangle explains");
        assert_eq!(explain.kind, "hypertree");
        assert!(explain.render().contains("tree:"));
        // The prelude carries the tracing types too.
        let tracer = Tracer::off();
        assert!(!tracer.enabled());
        let _trace = QueryTrace::default();
        let _registry = Registry::new();
    }

    #[test]
    fn facade_serves_batches() {
        let mut db = Database::new();
        db.add_fact("r", &[1, 2]);
        db.add_fact("s", &[2, 3]);
        db.add_fact("t", &[3, 1]);
        let svc = Service::new(std::sync::Arc::new(db));
        let responses = svc.execute_batch(&[
            Request::boolean("ans :- r(X,Y), s(Y,Z), t(Z,X)."),
            Request::count("ans :- r(A,B), s(B,C), t(C,A)."),
        ]);
        assert_eq!(responses[0], Ok(service::Outcome::Boolean(true)));
        assert_eq!(responses[1], Ok(service::Outcome::Count(1)));
        assert_eq!(svc.stats().decomp_misses, 1, "α-equivalent: one plan");
    }
}
