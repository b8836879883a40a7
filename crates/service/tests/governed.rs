//! Resource-governance tests that need no fault injection: roomy budgets
//! change nothing, tripped budgets produce typed errors and leave the
//! snapshot untouched, admission shedding is precise, and enumeration
//! degrades to a sound partial result instead of erroring.

use hypertree_core::QueryError;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use relation::{Database, Relation, Value};
use service::{Outcome, Request, Service, ServiceConfig, ServiceError};
use std::sync::Arc;
use std::time::Duration;

fn gen_db(rng: &mut StdRng, arities: &[usize], domain: u64, max_rows: usize) -> Database {
    let mut db = Database::new();
    for (i, &arity) in arities.iter().enumerate() {
        let mut rel = Relation::new(arity);
        for _ in 0..rng.random_range(0..=max_rows) {
            let row: Vec<Value> = (0..arity)
                .map(|_| Value(rng.random_range(0..domain)))
                .collect();
            rel.push_row(&row);
        }
        rel.dedup();
        db.insert(format!("p{i}"), rel);
    }
    db
}

/// A small random workload: a few joins over `p0..p2` plus a triangle.
fn gen_requests(rng: &mut StdRng) -> Vec<Request> {
    let mut reqs = vec![
        Request::boolean("ans :- p0(A,B), p1(B,C), p2(C,A)."),
        Request::count("ans :- p0(A,B), p1(B,C), p2(C,A)."),
        Request::enumerate("ans(A,C) :- p0(A,B), p1(B,C)."),
        Request::enumerate("ans(A) :- p0(A,A)."),
        Request::count("ans :- p1(X,Y), p2(Y,Z)."),
    ];
    // A couple of random extra shapes so the mix varies per case.
    for _ in 0..rng.random_range(0..3usize) {
        let p = rng.random_range(0..3u32);
        let q = rng.random_range(0..3u32);
        reqs.push(Request::boolean(format!("ans :- p{p}(A,B), p{q}(B,C).")));
    }
    reqs
}

/// Databases compared relation-by-relation (`Database` itself has no
/// `PartialEq`; `Relation` compares payload bytes).
fn db_rows(db: &Database) -> Vec<(String, Relation)> {
    let mut rows: Vec<(String, Relation)> = db
        .relations()
        .map(|(name, rel)| (name.to_string(), rel.clone()))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Governance with room to spare is invisible: a service with a
    /// generous deadline and byte quota answers every request (single
    /// and batched) exactly like the ungoverned service.
    #[test]
    fn roomy_budgets_do_not_change_answers(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = Arc::new(gen_db(&mut rng, &[2, 2, 2], 4, 8));
        let reqs = gen_requests(&mut rng);
        let plain = Service::new(Arc::clone(&db));
        let governed = Service::with_config(
            Arc::clone(&db),
            ServiceConfig {
                deadline: Some(Duration::from_secs(60)),
                max_result_bytes: Some(1 << 30),
                ..Default::default()
            },
        );
        prop_assert_eq!(governed.execute_batch(&reqs), plain.execute_batch(&reqs));
        for req in &reqs {
            prop_assert_eq!(governed.execute(req), plain.execute(req), "{}", req.text);
        }
    }

    /// A tripped budget unwinds cleanly: whatever mix of deadline and
    /// byte-quota trips a batch produces, every response is either a
    /// real outcome or a typed error, and the snapshot's relations are
    /// byte-identical afterwards — no torn semijoin state leaks out of
    /// an unwound evaluation.
    #[test]
    fn tripped_budgets_leave_the_snapshot_byte_identical(
        seed in 0u64..1 << 48,
        quota in 1u64..512,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = Arc::new(gen_db(&mut rng, &[2, 2, 2], 4, 24));
        let before = db_rows(&db);
        let reqs = gen_requests(&mut rng);
        let svc = Service::with_config(
            Arc::clone(&db),
            ServiceConfig {
                // A quota this small trips on any non-trivial join.
                max_result_bytes: Some(quota),
                ..Default::default()
            },
        );
        for resp in svc.execute_batch(&reqs) {
            match resp {
                Ok(_) => {}
                Err(ServiceError::Budget(QueryError::MemoryBudgetExceeded { bytes })) => {
                    prop_assert!(bytes > quota);
                }
                Err(other) => {
                    return Err(TestCaseError::Fail(format!("unexpected error: {other:?}")));
                }
            }
        }
        prop_assert_eq!(db_rows(&svc.snapshot()), before);
    }
}

#[test]
fn an_elapsed_deadline_is_a_typed_error_not_a_hang() {
    let mut db = Database::new();
    for i in 0..64u64 {
        db.add_fact("r", &[i, i + 1]);
        db.add_fact("s", &[i + 1, i + 2]);
        db.add_fact("t", &[i + 2, i]);
    }
    let svc = Service::with_config(
        Arc::new(db),
        ServiceConfig {
            deadline: Some(Duration::ZERO),
            ..Default::default()
        },
    );
    let resp = svc.execute(&Request::count("ans :- r(A,B), s(B,C), t(C,A)."));
    match resp {
        Err(ServiceError::Budget(QueryError::DeadlineExceeded { .. })) => {}
        other => panic!("expected a deadline trip, got {other:?}"),
    }
    assert_eq!(svc.stats().budget_trips, 1);
}

#[test]
fn admission_sheds_precisely_beyond_the_queue_depth() {
    let mut db = Database::new();
    db.add_fact("r", &[1, 2]);
    db.add_fact("s", &[2, 3]);
    let svc = Service::with_config(
        Arc::new(db),
        ServiceConfig {
            max_queue_depth: 2,
            ..Default::default()
        },
    );
    let reqs: Vec<Request> = (0..5)
        .map(|_| Request::boolean("ans :- r(X,Y), s(Y,Z)."))
        .collect();
    let responses = svc.execute_batch(&reqs);
    assert_eq!(responses.len(), 5, "every request gets a response");
    assert_eq!(responses[0], Ok(Outcome::Boolean(true)));
    assert_eq!(responses[1], Ok(Outcome::Boolean(true)));
    for resp in &responses[2..] {
        assert_eq!(
            resp,
            &Err(ServiceError::Overloaded { depth: 5, max: 2 }),
            "shed requests carry the observed depth and the cap"
        );
    }
    assert_eq!(svc.stats().sheds, 3);
    // An uncapped service takes the same batch whole.
    assert_eq!(svc.stats().requests, 5, "shed requests still count");
}

#[test]
fn enumeration_degrades_to_a_sound_partial_result() {
    // A hub join with a 40 000-row output: the byte quota trips mid-join
    // and the service answers with a truncated subset instead of an
    // error — every returned row is a genuine answer.
    let mut db = Database::new();
    for i in 0..200u64 {
        db.add_fact("r", &[0, i]);
        db.add_fact("s", &[0, i]);
    }
    let db = Arc::new(db);
    let text = "ans(A,B) :- r(H,A), s(H,B).";
    let full = match Service::new(Arc::clone(&db)).execute(&Request::enumerate(text)) {
        Ok(Outcome::Rows(rows)) => rows,
        other => panic!("expected full rows, got {other:?}"),
    };
    assert_eq!(full.len(), 200 * 200);

    let svc = Service::with_config(
        Arc::clone(&db),
        ServiceConfig {
            max_result_bytes: Some(150 * 1024),
            ..Default::default()
        },
    );
    match svc.execute(&Request::enumerate(text)) {
        Ok(Outcome::Partial(rows)) => {
            assert!(!rows.is_empty(), "the partial result is non-trivial");
            assert!(rows.len() < full.len(), "the quota really truncated");
            for row in rows.rows() {
                assert!(full.contains_row(row), "sound: {row:?} is a real answer");
            }
        }
        other => panic!("expected a partial result, got {other:?}"),
    }
    // The same quota on a *count* has no prefix to return: hard error.
    let tiny = Service::with_config(
        Arc::clone(&db),
        ServiceConfig {
            max_result_bytes: Some(16),
            ..Default::default()
        },
    );
    match tiny.execute(&Request::count(text)) {
        Err(ServiceError::Budget(QueryError::MemoryBudgetExceeded { .. })) => {}
        other => panic!("expected a memory trip, got {other:?}"),
    }
}

/// The λ-product cliff is gone. A width-2 cycle over 2 000-row relations
/// answers all three operations exactly under an 8 MiB byte quota, though
/// a node's λ-product here has 2 000² = 4·10⁶ rows, tens of megabytes
/// (materialising it trips this quota with `MemoryBudgetExceeded`): node
/// relations are built children-first, in a connected join order, so no
/// node passes through the product.
#[test]
fn a_width_two_cycle_over_large_relations_fits_a_small_byte_quota() {
    const DOMAIN: u64 = 1_000;
    // Each r_i maps x to x + a_i and to x + b_i (mod DOMAIN): 2 000 rows
    // and out-degree 2, so the naive join along the cycle stays near
    // 2 000 · 2⁵ rows. A cycle closes where the chosen offsets sum to
    // 0 mod DOMAIN: here the all-a choice (43) and (2, 5, 7, 13, 23) + 950.
    let offsets: [(u64, u64); 6] = [(1, 2), (3, 5), (7, 11), (13, 17), (19, 23), (957, 950)];
    let mut db = Database::new();
    for (i, (a, b)) in offsets.iter().enumerate() {
        for x in 0..DOMAIN {
            db.add_fact(&format!("r{i}"), &[x, (x + a) % DOMAIN]);
            db.add_fact(&format!("r{i}"), &[x, (x + b) % DOMAIN]);
        }
    }
    let text = "ans(A,B,C,D,E,F) :- r0(A,B), r1(B,C), r2(C,D), r3(D,E), r4(E,F), r5(F,A).";
    let q = cq::parse_query(text).unwrap();
    let order = eval::naive::JoinOrder::GreedySmallest;
    let naive = eval::naive::evaluate(&q, &db, order, 1 << 20).unwrap();
    assert!(naive.len() as u64 >= 2 * DOMAIN, "planted cycles close");

    let svc = Service::with_config(
        Arc::new(db),
        ServiceConfig {
            max_result_bytes: Some(8 << 20),
            ..Default::default()
        },
    );
    assert_eq!(
        svc.execute(&Request::boolean(text)),
        Ok(Outcome::Boolean(true))
    );
    assert_eq!(
        svc.execute(&Request::count(text)),
        Ok(Outcome::Count(naive.len() as u128))
    );
    let sorted = |r: &Relation| {
        let mut rows: Vec<Vec<Value>> = r.rows().map(<[Value]>::to_vec).collect();
        rows.sort();
        rows
    };
    match svc.execute(&Request::enumerate(text)) {
        Ok(Outcome::Rows(rows)) => assert_eq!(sorted(&rows), sorted(&naive)),
        other => panic!("expected every answer, got {other:?}"),
    }
}
