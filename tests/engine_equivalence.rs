//! Differential testing of the three evaluation engines: on random queries
//! and databases, the naive engine (ground truth by construction), the
//! Yannakakis engine (acyclic queries), and the Lemma 4.6 hypertree
//! pipeline must produce identical answers — Boolean and enumerated.

use hypertree::core::HypertreeDecomposition;
use hypertree::eval::naive::JoinOrder;
use hypertree::eval::{self, Strategy};
use hypertree::workloads::random;

const NAIVE_BUDGET: usize = 1 << 22;

#[test]
fn boolean_agreement_on_random_instances() {
    let mut rng = random::rng(0xB00);
    let mut true_count = 0;
    for round in 0..120 {
        let q = random::random_query(&mut rng, 6, 5, 3);
        let db = if round % 2 == 0 {
            random::random_database(&mut rng, &q, 5, 20)
        } else {
            random::planted_database(&mut rng, &q, 5, 20)
        };
        let naive = eval::naive::evaluate_boolean(&q, &db, JoinOrder::GreedySmallest, NAIVE_BUDGET)
            .expect("small domains fit the budget");
        let planned = eval::evaluate_boolean(&q, &db).unwrap();
        assert_eq!(naive, planned, "round {round}: engines disagree on {q}");
        if round % 2 == 1 {
            assert!(planned, "round {round}: planted instance must be true");
        }
        true_count += usize::from(planned);
    }
    assert!(true_count >= 60, "planted rounds alone give half");
}

#[test]
fn enumeration_agreement_on_random_instances() {
    let mut rng = random::rng(0xE11);
    for round in 0..60 {
        let base = random::random_query(&mut rng, 5, 4, 3);
        // Rebuild with variable 0 promoted to the head (same interning
        // order, so the term ids stay valid).
        let mut b = hypertree::cq::QueryBuilder::default();
        for v in 0..base.num_vars() {
            b.var(base.var_name(hypertree::hypergraph::VertexId(v as u32)));
        }
        for atom in base.atoms() {
            b.atom(atom.predicate.clone(), atom.terms.clone());
        }
        let head_var = base.atom(0).variables()[0];
        b.head_raw("ans", vec![hypertree::cq::Term::Var(head_var)]);
        let q = b.try_build().expect("the head variable occurs in atom 0");

        let db = random::planted_database(&mut rng, &q, 4, 15);
        let naive = eval::naive::evaluate(&q, &db, JoinOrder::GreedySmallest, NAIVE_BUDGET)
            .expect("fits budget");
        let planned = eval::evaluate(&q, &db).unwrap();
        assert_eq!(naive.len(), planned.len(), "round {round} cardinality");
        for row in naive.rows() {
            assert!(planned.contains_row(row), "round {round} missing {row:?}");
        }
    }
}

/// The same Boolean instance evaluated through *every* valid decomposition
/// width: trivial, optimal, and everything between must agree.
#[test]
fn all_widths_agree() {
    let mut rng = random::rng(0xA11);
    for _ in 0..25 {
        let q = random::random_query(&mut rng, 6, 5, 3);
        let h = q.hypergraph();
        let db = random::random_database(&mut rng, &q, 4, 12);
        let reference =
            eval::naive::evaluate_boolean(&q, &db, JoinOrder::GreedySmallest, NAIVE_BUDGET)
                .unwrap();
        // Trivial decomposition (width = m).
        let trivial = HypertreeDecomposition::trivial(&h);
        assert_eq!(
            eval::reduction::boolean_via_hd(&q, &db, &trivial).unwrap(),
            reference
        );
        // Every width from hw up to m.
        let hw = hypertree::core::opt::hypertree_width(&h).max(1);
        for k in hw..=h.num_edges().min(hw + 2) {
            if let Some(plan) = Strategy::plan_with_width(&q, k) {
                assert_eq!(
                    plan.boolean(&q, &db, &eval::Unlimited).unwrap(),
                    reference,
                    "width {k}"
                );
            }
        }
    }
}

/// Queries with constants and repeated variables flow through all engines.
#[test]
fn constants_and_repeats_agree() {
    use hypertree::prelude::*;
    let q = parse_query("ans(X) :- r(X, X, 3), s(X, Y), s(Y, X).").unwrap();
    let mut db = Database::new();
    for i in 0..10u64 {
        db.add_fact("r", &[i, i, 3]);
        db.add_fact("r", &[i, i + 1, 3]);
        db.add_fact("s", &[i, (i * 3) % 10]);
    }
    let naive = eval::naive::evaluate(&q, &db, JoinOrder::AsWritten, NAIVE_BUDGET).unwrap();
    let planned = eval::evaluate(&q, &db).unwrap();
    assert_eq!(naive.len(), planned.len());
    for row in naive.rows() {
        assert!(planned.contains_row(row));
    }
}

/// Disconnected queries: Boolean conjunction semantics across components.
#[test]
fn disconnected_queries_agree() {
    use hypertree::prelude::*;
    let q = parse_query("ans :- r(X,Y), r(Y,X), s(A,B), s(B,C), s(C,A).").unwrap();
    let mut rng = random::rng(0xD15);
    for _ in 0..20 {
        let db = random::random_database(&mut rng, &q, 4, 10);
        let naive = eval::naive::evaluate_boolean(&q, &db, JoinOrder::GreedySmallest, NAIVE_BUDGET)
            .unwrap();
        let planned = eval::evaluate_boolean(&q, &db).unwrap();
        assert_eq!(naive, planned);
    }
}
