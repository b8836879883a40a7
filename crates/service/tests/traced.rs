//! The observability contract, property-tested: tracing must be purely
//! observational. For any generated workload, any operation, and any
//! service configuration (default, governed),
//! [`service::Service::execute_traced`] must return a response
//! byte-identical to [`service::Service::execute`] on the same request —
//! and the trace it carries must be internally consistent (phases sum to
//! no more than the total, provenance fields populated, row accounting
//! nonzero whenever rows flowed).

mod common;

use common::gen_workload;
use cq::parse_query;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use service::{Op, Request, Service, ServiceConfig};
use std::sync::Arc;

/// Serve every (text, op) pair untraced then traced on `svc`, asserting
/// byte-identical responses and a sane trace.
fn check_service(svc: &Service, texts: &[String], label: &str) -> Result<(), TestCaseError> {
    for text in texts {
        for req in [
            Request::boolean(text.clone()),
            Request::enumerate(text.clone()),
            Request::count(text.clone()),
        ] {
            let plain = svc.execute(&req);
            let traced = svc.execute_traced(&req);
            prop_assert_eq!(
                &plain,
                &traced.response,
                "{}: traced response diverged on {:?} {}",
                label,
                req.op,
                text
            );
            let t = &traced.trace;
            // The trace is real: a total was measured, phase time is
            // bounded by it (phases nest, so the sum can exceed a single
            // phase but never the wall-clock by construction — parse and
            // plan_cache are disjoint siblings), and provenance is set.
            prop_assert!(t.total_ns > 0, "{label}: empty trace for {text}");
            prop_assert!(
                t.phase(obs::Phase::Parse) > 0,
                "{label}: no parse span for {text}"
            );
            prop_assert!(
                t.plan_cache_hit.is_some(),
                "{label}: plan-cache provenance missing for {text}"
            );
            prop_assert!(
                t.plan_kind.is_some(),
                "{label}: plan kind missing for {text}"
            );
            let expect_op = match req.op {
                Op::Boolean => "boolean",
                Op::Enumerate => "enumerate",
                Op::Count => "count",
            };
            prop_assert_eq!(t.op, expect_op, "{}: op label", label);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Traced and untraced execution coincide byte for byte — across all
    /// three operations, on a default service and on a governed service
    /// whose roomy budget never trips.
    #[test]
    fn traced_equals_untraced(seed in 0u64..(1 << 48)) {
        let (texts, db) = gen_workload(seed);
        let texts: Vec<String> = texts
            .into_iter()
            .filter(|t| parse_query(t).is_ok())
            .collect();
        prop_assume!(!texts.is_empty());
        let db = Arc::new(db);

        let default = Service::new(Arc::clone(&db));
        check_service(&default, &texts, "default")?;

        let governed = Service::with_config(
            Arc::clone(&db),
            ServiceConfig {
                deadline: Some(std::time::Duration::from_secs(600)),
                max_result_bytes: Some(1 << 40),
                ..Default::default()
            },
        );
        check_service(&governed, &texts, "governed")?;
        prop_assert_eq!(governed.stats().budget_trips, 0, "roomy budget tripped");
    }
}
