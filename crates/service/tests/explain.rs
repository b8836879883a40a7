//! EXPLAIN / EXPLAIN ANALYZE and flight-recorder contracts.
//!
//! Two halves:
//!
//! * a planted workload whose EXPLAIN ANALYZE output must line up with
//!   the execution's trace, node for node and phase for phase;
//! * a property test pinning the diagnostics to be purely
//!   observational — a service with sampling, the flight recorder, and
//!   per-plan statistics all turned up answers byte-identically to one
//!   with everything off, across all operations and the default /
//!   governed configurations.

mod common;

use common::gen_workload;
use cq::parse_query;
use proptest::prelude::*;
use relation::Database;
use service::{Op, Outcome, Request, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

const TRIANGLE: &str = "ans(X,Y,Z) :- r(X,Y), s(Y,Z), t(Z,X).";

fn planted_db() -> Arc<Database> {
    let mut db = Database::new();
    for i in 0..6u64 {
        db.add_fact("r", &[i, i + 1]);
        db.add_fact("s", &[i + 1, i + 2]);
    }
    db.add_fact("t", &[2, 0]);
    db.add_fact("t", &[5, 3]);
    db.add_fact("t", &[9, 9]);
    Arc::new(db)
}

#[test]
fn explain_analyze_rows_and_phases_match_the_trace() {
    let svc = Service::new(planted_db());
    let ea = svc
        .explain_analyze(&Request::enumerate(TRIANGLE))
        .expect("triangle plans");
    let rows = match &ea.response {
        Ok(Outcome::Rows(rows)) => rows.len() as u64,
        other => panic!("expected rows, got {other:?}"),
    };
    assert!(rows >= 2, "planted db closes at least two triangles");

    let t = &ea.trace;
    assert_eq!(t.rows_emitted, rows);
    assert!(t.total_ns > 0);
    assert_eq!(t.plan_kind, Some("hypertree"), "triangle is cyclic");

    // Node accounting lines up with the plan tree, node for node: the
    // explain's ids index the same tree the pipeline executed on.
    assert_eq!(ea.explain.nodes.len(), t.node_rows.len());
    assert!(ea.explain.nodes.iter().all(|n| n.id < t.node_rows.len()));
    assert!(t.node_rows.iter().any(|n| n.rows_in > 0));
    assert!(t.node_rows.iter().all(|n| n.rows_out <= n.rows_in));
    // Per-node scan attribution never exceeds the request total (the
    // Lemma 4.6 reduction's scans are counted globally only).
    let per_node: u64 = t.node_rows.iter().map(|n| n.rows_scanned).sum();
    assert!(
        per_node <= t.rows_scanned,
        "{per_node} > {}",
        t.rows_scanned
    );

    // The rendered tree names every node with its measured rows.
    let text = ea.explain.render_analyzed(t);
    assert!(text.starts_with("EXPLAIN ANALYZE"), "{text}");
    for node in &ea.explain.nodes {
        assert!(text.contains(&format!("[{}]", node.id)), "{text}");
    }
    assert!(text.contains("rows "), "{text}");
    assert!(text.contains(&format!("emitted={rows}")), "{text}");

    // And the JSON form carries the schema tag plus the analyze block.
    let json = ea.explain.to_json_analyzed(t);
    assert!(json.contains(obs::EXPLAIN_SCHEMA));
    assert!(json.contains("\"analyze\""));
    assert!(json.contains("\"rows\""));
}

/// A Boolean hypertree run no longer sweeps (the children-first
/// construction already made its node relations upward-consistent), yet
/// its EXPLAIN ANALYZE still has a row for every plan node: rows built
/// against the λ-product bound, recorded while building.
#[test]
fn boolean_explain_analyze_reports_rows_built_against_the_bound() {
    let svc = Service::new(planted_db());
    let ea = svc
        .explain_analyze(&Request::boolean(TRIANGLE))
        .expect("triangle plans");
    assert_eq!(ea.response, Ok(Outcome::Boolean(true)));
    let t = &ea.trace;
    assert_eq!(t.plan_kind, Some("hypertree"));
    assert_eq!(t.node_rows.len(), ea.explain.nodes.len());
    assert!(t.node_rows.iter().any(|n| n.rows_in > 0));
    for n in &t.node_rows {
        assert!(n.rows_in <= n.rows_bound, "{n:?} exceeds its bound");
        assert!(n.rows_out <= n.rows_in, "{n:?}");
    }
    let text = ea.explain.render_analyzed(t);
    assert!(text.contains("built/bound="), "{text}");
    assert!(ea.explain.to_json_analyzed(t).contains("\"bound\": "));
}

#[test]
fn explain_analyze_on_an_acyclic_plan_uses_join_tree_nodes() {
    let svc = Service::new(planted_db());
    let ea = svc
        .explain_analyze(&Request::count("ans :- r(X,Y), s(Y,Z)."))
        .expect("path query plans");
    assert_eq!(ea.explain.kind, "join-tree");
    assert_eq!(ea.explain.provenance, "acyclic");
    assert_eq!(ea.explain.nodes.len(), ea.trace.node_rows.len());
    // The counting DP never filters: rows in == rows out at every node.
    assert!(ea.trace.node_rows.iter().all(|n| n.rows_in == n.rows_out));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Diagnostics are purely observational: full instrumentation
    /// (trace every request, record every trace, slow-log everything)
    /// changes no answer, single or batched, under any configuration.
    #[test]
    fn instrumented_service_answers_identically(seed in 0u64..(1 << 48)) {
        let (texts, db) = gen_workload(seed);
        let texts: Vec<String> = texts
            .into_iter()
            .filter(|t| parse_query(t).is_ok())
            .collect();
        prop_assume!(!texts.is_empty());
        let db = Arc::new(db);

        let configs: [(&str, ServiceConfig); 2] = [
            ("default", ServiceConfig::default()),
            ("governed", ServiceConfig {
                deadline: Some(Duration::from_secs(600)),
                max_result_bytes: Some(1 << 40),
                ..Default::default()
            }),
        ];
        for (label, base) in configs {
            let bare = Service::with_config(Arc::clone(&db), ServiceConfig {
                trace_sample: 0,
                recorder: obs::RecorderConfig {
                    capacity: 0,
                    slow_capacity: 0,
                    ..Default::default()
                },
                ..base.clone()
            });
            let inst = Service::with_config(Arc::clone(&db), ServiceConfig {
                trace_sample: 1,
                recorder: obs::RecorderConfig {
                    capacity: 4,
                    slow_threshold_ns: 0,
                    slow_capacity: 2,
                    slow_min_interval_ns: 0,
                },
                ..base
            });
            for text in &texts {
                for op in [Op::Boolean, Op::Enumerate, Op::Count] {
                    let req = Request { text: text.clone(), op };
                    prop_assert_eq!(
                        bare.execute(&req),
                        inst.execute(&req),
                        "{}: instrumented response diverged on {:?} {}",
                        label, op, text
                    );
                }
                // EXPLAIN works on every parseable query and renders in
                // both forms.
                let ex = inst.explain(text);
                prop_assert!(ex.is_ok(), "{}: explain failed for {}", label, text);
                let ex = ex.unwrap();
                prop_assert!(!ex.nodes.is_empty(), "{}: empty plan tree for {}", label, text);
                prop_assert!(ex.render().starts_with("EXPLAIN"));
                prop_assert!(ex.to_json().contains(obs::EXPLAIN_SCHEMA));
            }
            let reqs: Vec<Request> = texts.iter().map(|t| Request::count(t.clone())).collect();
            prop_assert_eq!(
                bare.execute_batch(&reqs),
                inst.execute_batch(&reqs),
                "{}: batch diverged", label
            );
            // Every single request was promoted, so the recorder filled
            // up — and stayed within its bounds.
            prop_assert!(inst.flight_recorder().recorded() > 0, "{}: recorder idle", label);
            prop_assert!(inst.recent_traces().len() <= 4, "{}: ring overflow", label);
            prop_assert!(inst.slow_queries().len() <= 2, "{}: slow log overflow", label);
            prop_assert!(bare.flight_recorder().recorded() == 0, "{}: disabled recorder ran", label);
        }
    }
}
