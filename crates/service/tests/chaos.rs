//! Chaos suite: deterministic fault injection through the serving stack.
//!
//! Compiled only with `--features fault-injection`. Every test drives a
//! real [`Service`] whose [`FaultInjector`] panics, spins, or
//! alloc-bombs specific requests, and asserts the governance contract:
//! healthy requests in the same batch come back with the exact answers
//! an unfaulted service gives, faulty ones come back with *typed*
//! errors, nothing hangs, and no cache is polluted on the way down.

#![cfg(feature = "fault-injection")]

use hypertree_core::QueryError;
use relation::Database;
use service::fault::{Fault, FaultInjector, FaultSite};
use service::{Outcome, Request, Service, ServiceConfig, ServiceError};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn db() -> Arc<Database> {
    let mut db = Database::new();
    db.add_fact("r", &[1, 2]);
    db.add_fact("r", &[2, 3]);
    db.add_fact("s", &[2, 3]);
    db.add_fact("s", &[3, 4]);
    db.add_fact("t", &[3, 1]);
    Arc::new(db)
}

const TRIANGLE: &str = "ans :- r(X,Y), s(Y,Z), t(Z,X).";
const CHAIN: &str = "ans(X,Z) :- r(X,Y), s(Y,Z).";
const PANICKY: &str = "ans :- r(A,B).";
const SPINNY: &str = "ans :- s(A,B).";
const BOMBY: &str = "ans :- t(A,B).";

fn governed_config(deadline: Duration, faults: Option<FaultInjector>) -> ServiceConfig {
    ServiceConfig {
        deadline: Some(deadline),
        max_result_bytes: Some(1 << 20),
        min_parallel_batch: 2,
        max_threads: 4,
        fault_injection: faults,
        ..Default::default()
    }
}

/// The acceptance gate: a batch of 8 requests, 3 of them fault-injected
/// (one panics, one spins until the deadline, one alloc-bombs the byte
/// quota). The 5 healthy requests answer exactly as on an unfaulted
/// service, the 3 faulty ones get their typed errors, and the whole
/// batch completes within 2× the configured deadline.
#[test]
fn mixed_batch_isolates_faults_and_meets_the_deadline() {
    const DEADLINE: Duration = Duration::from_millis(500);
    let reqs = vec![
        Request::boolean(TRIANGLE),
        Request::boolean(PANICKY), // fault: panic at Execute
        Request::count(TRIANGLE),
        Request::boolean(SPINNY), // fault: spins until the deadline
        Request::enumerate(CHAIN),
        Request::boolean(BOMBY), // fault: allocation bomb
        Request::count(CHAIN),
        Request::enumerate(TRIANGLE),
    ];
    let healthy = [0usize, 2, 4, 6, 7];

    let clean = Service::with_config(db(), governed_config(DEADLINE, None));
    let expected = clean.execute_batch(&reqs);

    let faults = FaultInjector::new([
        (FaultSite::Execute, PANICKY.to_string(), Fault::Panic),
        (FaultSite::Execute, SPINNY.to_string(), Fault::Busy),
        (
            FaultSite::Execute,
            BOMBY.to_string(),
            Fault::AllocSpike(1 << 40),
        ),
    ]);
    let svc = Service::with_config(db(), governed_config(DEADLINE, Some(faults)));

    let start = Instant::now();
    let responses = svc.execute_batch(&reqs);
    let elapsed = start.elapsed();
    assert!(
        elapsed < 2 * DEADLINE,
        "the batch must finish within 2× the deadline (took {elapsed:?})"
    );

    for &i in &healthy {
        assert_eq!(responses[i], expected[i], "healthy slot {i} is unaffected");
        assert!(responses[i].is_ok(), "healthy slot {i} answered");
    }
    assert!(
        matches!(responses[1], Err(ServiceError::Internal(_))),
        "the panic came back typed, not unwound: {:?}",
        responses[1]
    );
    assert!(
        matches!(
            responses[3],
            Err(ServiceError::Budget(QueryError::DeadlineExceeded { .. }))
        ),
        "the spin was cut off by the deadline: {:?}",
        responses[3]
    );
    assert!(
        matches!(
            responses[5],
            Err(ServiceError::Budget(
                QueryError::MemoryBudgetExceeded { .. }
            ))
        ),
        "the allocation bomb tripped the byte quota: {:?}",
        responses[5]
    );

    let stats = svc.stats();
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.budget_trips, 2);
}

#[test]
fn a_panicked_preparation_inserts_nothing_and_every_dupe_gets_the_error() {
    // Two α-equivalent texts share one plan key, so the batch prepares
    // once; that preparation panics. Both requests must get the same
    // typed error (the shared-preparation contract), and the plan cache
    // must stay empty so a later request retries from scratch.
    let alpha = "ans :- r(P,Q).";
    let faults = FaultInjector::new([
        (FaultSite::Prepare, PANICKY.to_string(), Fault::Panic),
        (FaultSite::Prepare, alpha.to_string(), Fault::Panic),
    ]);
    let svc = Service::with_config(db(), governed_config(Duration::from_secs(30), Some(faults)));
    let responses = svc.execute_batch(&[
        Request::boolean(PANICKY),
        Request::boolean(alpha),
        Request::count(TRIANGLE), // healthy bystander
    ]);
    assert!(matches!(responses[0], Err(ServiceError::Internal(_))));
    assert_eq!(
        responses[0], responses[1],
        "both requests on the shared key see the same typed error"
    );
    assert_eq!(responses[2], Ok(Outcome::Count(1)));

    let stats = svc.stats();
    assert_eq!(stats.panics_caught, 1, "one prepare, one isolated panic");
    // Nothing was inserted for the panicked key: only the healthy
    // triangle plan is cached, and serving the α-key again re-misses.
    assert_eq!(stats.plans_cached, 1);
    let before = svc.stats().plan_misses;
    assert!(matches!(
        svc.execute(&Request::boolean(PANICKY)),
        Err(ServiceError::Internal(_))
    ));
    assert_eq!(
        svc.stats().plan_misses,
        before + 1,
        "the retry was a fresh miss, not a hit on a poisoned entry"
    );
}

#[test]
fn a_busy_preparation_is_cut_off_by_the_deadline_without_cache_pollution() {
    let faults = FaultInjector::new([(FaultSite::Prepare, SPINNY.to_string(), Fault::Busy)]);
    let svc = Service::with_config(
        db(),
        governed_config(Duration::from_millis(200), Some(faults)),
    );
    let start = Instant::now();
    let resp = svc.execute(&Request::boolean(SPINNY));
    assert!(start.elapsed() < Duration::from_secs(2), "no hang");
    assert!(
        matches!(
            resp,
            Err(ServiceError::Budget(QueryError::DeadlineExceeded { .. }))
        ),
        "{resp:?}"
    );
    assert_eq!(
        svc.stats().plans_cached,
        0,
        "the tripped prepare inserted nothing"
    );
}

#[test]
fn prepare_and_explain_pass_the_prepare_fault_site_inside_isolation() {
    // Regression: `Service::prepare` and `Service::explain` used to call
    // the preparation directly — past the `Prepare` fault site and
    // outside `catch_unwind`, so this panic would have unwound into the
    // caller (or, without the probe, not fired at all).
    let faults = FaultInjector::new([(FaultSite::Prepare, PANICKY.to_string(), Fault::Panic)]);
    let svc = Service::with_config(db(), governed_config(Duration::from_secs(30), Some(faults)));
    assert!(matches!(
        svc.prepare(PANICKY),
        Err(ServiceError::Internal(_))
    ));
    assert!(matches!(
        svc.explain(PANICKY),
        Err(ServiceError::Internal(_))
    ));
    let stats = svc.stats();
    assert_eq!(stats.panics_caught, 2);
    assert_eq!(stats.plans_cached, 0, "nothing half-built was cached");
    // Healthy texts still prepare and explain.
    assert!(svc.prepare(TRIANGLE).is_ok());
    assert_eq!(svc.explain(TRIANGLE).unwrap().plan_cache_hit, Some(true));
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    /// Whatever faults hit whatever slots, healthy requests answer
    /// exactly as on an unfaulted service and faulty ones come back as
    /// typed errors — never a hang, never a wrong answer.
    #[test]
    fn random_fault_mixes_never_corrupt_healthy_answers(choice in 0u8..27) {
        const DEADLINE: Duration = Duration::from_millis(150);
        let pick = |d: u8| match d % 3 {
            0 => Fault::Panic,
            1 => Fault::Busy,
            _ => Fault::AllocSpike(1 << 40),
        };
        let reqs = vec![
            Request::boolean(TRIANGLE),
            Request::boolean(PANICKY),
            Request::enumerate(CHAIN),
            Request::count(SPINNY),
            Request::count(TRIANGLE),
            Request::enumerate(BOMBY),
        ];
        let faulted = [1usize, 3, 5];
        let clean = Service::with_config(db(), governed_config(DEADLINE, None));
        let expected = clean.execute_batch(&reqs);
        let faults = FaultInjector::new([
            (FaultSite::Execute, PANICKY.to_string(), pick(choice)),
            (FaultSite::Execute, SPINNY.to_string(), pick(choice / 3)),
            (FaultSite::Execute, BOMBY.to_string(), pick(choice / 9)),
        ]);
        let svc = Service::with_config(db(), governed_config(DEADLINE, Some(faults)));
        let start = Instant::now();
        let responses = svc.execute_batch(&reqs);
        // Up to three Busy faults may spin their full deadline *in
        // sequence* on a single-core host, so the bound here is loose;
        // the precise 2×-deadline bound lives in the acceptance test.
        proptest::prop_assert!(start.elapsed() < Duration::from_secs(3), "no hang");
        for (i, resp) in responses.iter().enumerate() {
            if faulted.contains(&i) {
                proptest::prop_assert!(
                    matches!(
                        resp,
                        Err(ServiceError::Internal(_))
                            | Err(ServiceError::Budget(
                                QueryError::DeadlineExceeded { .. }
                                    | QueryError::MemoryBudgetExceeded { .. }
                            ))
                    ),
                    "slot {}: {:?}",
                    i,
                    resp
                );
            } else {
                proptest::prop_assert_eq!(resp, &expected[i], "healthy slot {}", i);
            }
        }
    }
}

#[test]
fn single_request_panics_are_isolated_too() {
    let faults = FaultInjector::new([(FaultSite::Execute, PANICKY.to_string(), Fault::Panic)]);
    let svc = Service::with_config(db(), governed_config(Duration::from_secs(30), Some(faults)));
    assert!(matches!(
        svc.execute(&Request::boolean(PANICKY)),
        Err(ServiceError::Internal(_))
    ));
    // The service stays fully functional afterwards.
    assert_eq!(
        svc.execute(&Request::boolean(TRIANGLE)),
        Ok(Outcome::Boolean(true))
    );
    assert_eq!(svc.stats().panics_caught, 1);
}
