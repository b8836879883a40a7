//! The one differential suite for the one execution path: for any query
//! and database the generators produce, every operation × every
//! execution context × every kind of plan must equal the naive evaluator.
//!
//! * **Contexts** — [`Unlimited`] (the zero-sized instantiation every
//!   context-free entry point runs), [`Governed`] by a roomy budget, and
//!   the same with the tracer on. Answers must match `eval::naive` as
//!   row sets and be *byte-identical* across the three contexts: same
//!   rows in the same order, same count, never truncated.
//! * **Plans** — the join tree (acyclic queries), the exact hypertree
//!   decomposition, the heuristic GHD, and the trivial one-node
//!   decomposition; and, for planted shapes, hand-written decompositions
//!   that drive the children-first node construction down its rarer
//!   paths (a disconnected leaf, a node that empties mid-tree, a nullary
//!   child factor, a GHD without the descendant condition).
//! * **Tripped budgets** — an elapsed deadline, a 16-byte quota and a
//!   cancelled budget must produce the matching typed error, or the exact
//!   answer if the run never reached the limit, or (enumerations under a
//!   byte quota only) a truncated *sound subset* — never a wrong answer,
//!   and never a changed input relation.

use cq::ConjunctiveQuery;
use eval::naive::{self, JoinOrder};
use eval::{EvalError, ExecCtx, Governed, Strategy, Unlimited};
use hypergraph::{acyclic, Ix, VertexId};
use hypertree_core::{opt, HypertreeDecomposition, QueryBudget, QueryError};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use relation::{Database, Relation, Value};
use std::time::Duration;
use workloads::random;

const NAIVE_ROWS: usize = 1 << 20;

/// Rebuild `q` (the generators emit Boolean queries) with up to `head_k`
/// of its body variables as the head, so enumeration has real columns.
fn with_head(q: &ConjunctiveQuery, head_k: usize) -> ConjunctiveQuery {
    let mut b = ConjunctiveQuery::builder();
    let vars: Vec<VertexId> = (0..q.num_vars()).map(VertexId::new).collect();
    for &v in &vars {
        b.var(q.var_name(v));
    }
    for atom in q.atoms() {
        b.atom(atom.predicate.clone(), atom.terms.clone());
    }
    // Only variables that occur in the body are safe head variables (a
    // random hypergraph may leave a vertex out of every edge).
    let head: Vec<&str> = vars
        .iter()
        .filter(|&&v| q.atoms().iter().any(|a| a.variables().contains(&v)))
        .map(|&v| q.var_name(v))
        .take(head_k)
        .collect();
    if !head.is_empty() {
        b.head("ans", &head);
    }
    b.build()
}

/// Every way this workspace can plan `q`.
fn plans(q: &ConjunctiveQuery) -> Vec<(&'static str, Strategy)> {
    let h = q.hypergraph();
    let mut plans = vec![
        (
            "exact HD",
            Strategy::from_decomposition(opt::optimal_decomposition(&h)),
        ),
        (
            "heuristic GHD",
            Strategy::from_decomposition(heuristics::best_decomposition(&h)),
        ),
        (
            "trivial HD",
            Strategy::from_decomposition(HypertreeDecomposition::trivial(&h)),
        ),
    ];
    if let Some(jt) = acyclic::join_tree(&h) {
        plans.push(("join tree", Strategy::JoinTree(jt)));
    }
    plans
}

/// What `eval::naive` says the three operations answer.
struct Oracle {
    boolean: bool,
    rows: Vec<Vec<Value>>,
    count: u128,
}

fn oracle(q: &ConjunctiveQuery, db: &Database) -> Oracle {
    let order = JoinOrder::GreedySmallest;
    // One satisfying assignment per row of the join over every variable.
    let all_vars = with_head(q, usize::MAX);
    Oracle {
        boolean: naive::evaluate_boolean(q, db, order, NAIVE_ROWS).unwrap(),
        rows: sorted(&naive::evaluate(q, db, order, NAIVE_ROWS).unwrap()),
        count: naive::evaluate(&all_vars, db, order, NAIVE_ROWS)
            .unwrap()
            .len() as u128,
    }
}

fn sorted(r: &Relation) -> Vec<Vec<Value>> {
    let mut rows = stored(r);
    rows.sort();
    rows
}

fn stored(r: &Relation) -> Vec<Vec<Value>> {
    r.rows().map(<[Value]>::to_vec).collect()
}

fn snapshot(db: &Database) -> Vec<(String, Vec<Vec<Value>>)> {
    let mut rels: Vec<_> = db
        .relations()
        .map(|(name, rel)| (name.to_string(), stored(rel)))
        .collect();
    rels.sort();
    rels
}

/// The three answers of one plan in one context, as stored.
type Answers = (bool, Vec<Vec<Value>>, u128);

fn answers<C: ExecCtx>(
    plan: &Strategy,
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &C,
) -> Result<Answers, TestCaseError> {
    let (rows, truncated) = plan.enumerate(q, db, ctx).unwrap();
    prop_assert!(!truncated, "a roomy context truncated");
    Ok((
        plan.boolean(q, db, ctx).unwrap(),
        stored(&rows),
        plan.count(q, db, ctx).unwrap(),
    ))
}

fn budget_error(e: EvalError) -> Result<QueryError, TestCaseError> {
    match e {
        EvalError::Budget(b) => Ok(b),
        other => Err(TestCaseError::Fail(format!("untyped failure: {other:?}"))),
    }
}

fn check(q: &ConjunctiveQuery, db: &Database) -> Result<(), TestCaseError> {
    check_plans(q, db, plans(q))
}

fn check_plans(
    q: &ConjunctiveQuery,
    db: &Database,
    plans: Vec<(&'static str, Strategy)>,
) -> Result<(), TestCaseError> {
    let expected = oracle(q, db);
    let before = snapshot(db);
    let roomy = || {
        QueryBudget::unlimited()
            .with_deadline(Duration::from_secs(600))
            .with_byte_quota(1 << 40)
    };
    for (kind, plan) in plans {
        // Every context equals the oracle, and each other byte for byte.
        let plain = answers(&plan, q, db, &Unlimited)?;
        prop_assert_eq!(plain.0, expected.boolean, "{}: boolean of {}", kind, q);
        let mut rows = plain.1.clone();
        rows.sort();
        prop_assert_eq!(&rows, &expected.rows, "{}: rows of {}", kind, q);
        prop_assert_eq!(plain.2, expected.count, "{}: count of {}", kind, q);
        for tracer in [obs::Tracer::off(), obs::Tracer::on()] {
            let budget = roomy();
            let governed = answers(&plan, q, db, &Governed::new(&budget, &tracer))?;
            prop_assert_eq!(
                &governed,
                &plain,
                "{}: governed (traced: {}) diverged on {}",
                kind,
                tracer.enabled(),
                q
            );
        }

        // Tripped budgets: the matching typed error, the exact answer, or
        // a sound truncated subset — and the inputs as they were.
        type Kind = fn(&QueryError) -> bool;
        let trips: [(QueryBudget, Kind); 3] = [
            (
                QueryBudget::unlimited().with_deadline(Duration::ZERO),
                |e| matches!(e, QueryError::DeadlineExceeded { .. }),
            ),
            (QueryBudget::unlimited().with_byte_quota(16), |e| {
                matches!(e, QueryError::MemoryBudgetExceeded { .. })
            }),
            (
                {
                    let b = QueryBudget::unlimited();
                    b.cancel();
                    b
                },
                |e| matches!(e, QueryError::Cancelled),
            ),
        ];
        let off = obs::Tracer::off();
        for (budget, is_kind) in &trips {
            let ctx = Governed::new(budget, &off);
            match plan.boolean(q, db, &ctx) {
                Ok(b) => prop_assert_eq!(b, expected.boolean),
                Err(e) => prop_assert!(is_kind(&budget_error(e)?)),
            }
            match plan.count(q, db, &ctx) {
                Ok(c) => prop_assert_eq!(c, expected.count),
                Err(e) => prop_assert!(is_kind(&budget_error(e)?)),
            }
            match plan.enumerate(q, db, &ctx) {
                Ok((rows, false)) => prop_assert_eq!(sorted(&rows), expected.rows.clone()),
                Ok((rows, true)) => {
                    prop_assert!(budget.bytes_charged() > 16, "truncated within quota");
                    for row in stored(&rows) {
                        prop_assert!(
                            expected.rows.binary_search(&row).is_ok(),
                            "{}: unsound truncated row {:?} of {}",
                            kind,
                            row,
                            q
                        );
                    }
                }
                Err(e) => prop_assert!(is_kind(&budget_error(e)?)),
            }
        }
        prop_assert_eq!(&snapshot(db), &before, "{}: inputs changed", kind);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random query, random database (possibly with empty relations).
    #[test]
    fn every_ctx_and_plan_matches_naive(
        seed in 0u64..1 << 48,
        n_vars in 2usize..6,
        m_atoms in 1usize..5,
        head_k in 0usize..4,
        rows in 0usize..24,
    ) {
        let mut rng = random::rng(seed);
        let q = with_head(&random::random_query(&mut rng, n_vars, m_atoms, 3), head_k);
        let db = random::random_database(&mut rng, &q, 4, rows);
        check(&q, &db)?;
    }

    /// Planted databases guarantee at least one satisfying assignment, so
    /// the non-empty paths (probe hits, join fan-out) are always hit.
    #[test]
    fn every_ctx_and_plan_matches_naive_on_planted_instances(seed in 0u64..1 << 48) {
        let mut rng = random::rng(seed);
        let q = with_head(&random::random_query(&mut rng, 5, 4, 3), 2);
        let db = random::planted_database(&mut rng, &q, 4, 12);
        check(&q, &db)?;
    }
}

/// Arity-0 relations: a nullary atom is a fact-or-not flag, present or
/// absent, and every context and plan must treat it as the oracle does.
#[test]
fn nullary_atoms_match_naive_under_every_ctx() {
    let mut b = ConjunctiveQuery::builder();
    b.atom("flag", vec![]);
    b.atom_vars("e", &["X", "Y"]);
    b.head("q", &["X"]);
    let q = b.build();

    let mut present = Relation::new(0);
    present.push_row(&[]);
    for flag in [present, Relation::new(0)] {
        let mut db = Database::new();
        db.insert("flag", flag);
        db.add_fact("e", &[1, 2]);
        db.add_fact("e", &[3, 4]);
        check(&q, &db).unwrap();
    }
}

/// A decomposition written out by hand: `nodes[i] = (parent, χ, λ)` by
/// variable and predicate name, node 0 the root, parents listed before
/// their children. It must be a valid GHD of `q` (the reduction
/// debug-asserts it).
fn hand_hd(q: &ConjunctiveQuery, nodes: &[(Option<usize>, &[&str], &[&str])]) -> Strategy {
    let h = q.hypergraph();
    let mut tree = hypergraph::RootedTree::new();
    let (mut chi, mut lambda) = (Vec::new(), Vec::new());
    for (i, (parent, bag, cover)) in nodes.iter().enumerate() {
        if let Some(p) = parent {
            assert_eq!(tree.add_child(hypergraph::NodeId::new(*p)).index(), i);
        }
        let mut vs = h.empty_vertex_set();
        for v in *bag {
            vs.insert(h.vertex_by_name(v).unwrap());
        }
        let mut es = h.empty_edge_set();
        for e in *cover {
            es.insert(h.edge_by_name(e).unwrap());
        }
        chi.push(vs);
        lambda.push(es);
    }
    let hd = HypertreeDecomposition::new(tree, chi, lambda);
    assert_eq!(hd.validate_ghd(&h), Ok(()), "planted shape is not a GHD");
    Strategy::from_decomposition(hd)
}

/// The planted shapes: a query, its hand-written decomposition, and what
/// the node construction must do on it.
fn shapes() -> Vec<(&'static str, ConjunctiveQuery, Strategy)> {
    let parse = |text| cq::parse_query(text).unwrap();
    // A leaf whose λ-atoms share no variable: r and s only meet through
    // the root's c, so the leaf falls back to the Cartesian product.
    let disjoint = parse("ans(X,Z) :- r(X,Y), s(Z,W), c(Y,W).");
    let disjoint_hd = hand_hd(
        &disjoint,
        &[
            (None, &["Y", "W"], &["c"]),
            (Some(0), &["X", "Y", "Z", "W"], &["r", "s"]),
        ],
    );
    // A path r — s — t under a root that also has a sibling u: when s
    // and t do not join, the middle node empties and so must everything
    // above it, while the sibling is still built.
    let path = parse("ans(A,E) :- r(A,B), s(B,C), t(C,D), u(A,E).");
    let path_hd = hand_hd(
        &path,
        &[
            (None, &["A", "B"], &["r"]),
            (Some(0), &["B", "C"], &["s"]),
            (Some(1), &["C", "D"], &["t"]),
            (Some(0), &["A", "E"], &["u"]),
        ],
    );
    // Two components: the child shares nothing with the root, so its
    // factor at the root is nullary — a non-empty / empty flag.
    let split = parse("ans(X) :- r(X,Y), s(Z,W).");
    let split_hd = hand_hd(
        &split,
        &[(None, &["X", "Y"], &["r"]), (Some(0), &["Z", "W"], &["s"])],
    );
    // A GHD that is not a hypertree decomposition: the root drops C from
    // χ while λ provides it, and C reappears below (condition 4 fails).
    let ghd = parse("ans(S) :- enrolled(S,C,R), teaches(P,C,A), parent(P,S).");
    let ghd_hd = hand_hd(
        &ghd,
        &[
            (None, &["S", "R"], &["enrolled"]),
            (
                Some(0),
                &["P", "S", "C", "A", "R"],
                &["teaches", "parent", "enrolled"],
            ),
        ],
    );
    vec![
        ("disjoint leaf", disjoint, disjoint_hd),
        ("empty mid-tree", path, path_hd),
        ("nullary child factor", split, split_hd),
        ("GHD without descendant condition", ghd, ghd_hd),
    ]
}

/// Every planted shape, under its own decomposition and the trivial one
/// (plus the workspace's planners), on generated databases: every
/// context, every tripped budget, equal to naive, inputs untouched.
#[test]
fn planted_shapes_match_naive_under_every_ctx() {
    for (name, q, plan) in shapes() {
        for seed in 0..24u64 {
            let mut rng = random::rng(seed);
            let db = if seed % 2 == 0 {
                random::planted_database(&mut rng, &q, 3, 6)
            } else {
                random::random_database(&mut rng, &q, 3, 6)
            };
            let mut all = vec![(name, plan.clone())];
            all.extend(plans(&q));
            check_plans(&q, &db, all).unwrap_or_else(|e| panic!("{name}, seed {seed}: {e:?}"));
        }
    }
}

/// The planted shapes take the paths they were planted for: the leaf
/// with disjoint λ-atoms is built as a product (and says so), the empty
/// middle node empties its ancestors but not its sibling, and a nullary
/// child factor empties the root exactly when the child is empty.
#[test]
fn planted_shapes_take_their_planted_paths() {
    let traced = |q: &ConjunctiveQuery, plan: &Strategy, db: &Database| {
        let budget = QueryBudget::unlimited();
        let tracer = obs::Tracer::on();
        let answer = plan
            .boolean(q, db, &Governed::new(&budget, &tracer))
            .unwrap();
        let trace = tracer.finish(obs::TraceOutcome::default()).unwrap();
        (answer, trace.node_rows)
    };
    let shapes = shapes();

    let (_, q, plan) = &shapes[0];
    let mut db = Database::new();
    for i in 0..4u64 {
        db.add_fact("r", &[i, i]);
        db.add_fact("s", &[i, i + 10]);
    }
    db.add_fact("c", &[1, 11]);
    let (answer, rows) = traced(q, plan, &db);
    assert!(answer);
    assert!(rows[1].disconnected && !rows[0].disconnected, "{rows:?}");
    assert_eq!((rows[1].rows_in, rows[1].rows_bound), (16, 16), "{rows:?}");
    assert_eq!(rows[0].rows_in, 1, "the root keeps only c(1, 11)");

    let (_, q, plan) = &shapes[1];
    let mut db = Database::new();
    db.add_fact("r", &[1, 2]);
    db.add_fact("s", &[2, 3]);
    db.add_fact("t", &[4, 5]); // s(_, 3) meets no t(3, _)
    db.add_fact("u", &[1, 6]);
    let (answer, rows) = traced(q, plan, &db);
    assert!(!answer);
    let built: Vec<u64> = rows.iter().map(|n| n.rows_in).collect();
    assert_eq!(built, [0, 0, 1, 1], "root and middle empty, leaves built");

    let (_, q, plan) = &shapes[2];
    for s_rows in [0u64, 2] {
        let mut db = Database::new();
        db.add_fact("r", &[1, 2]);
        db.insert("s", Relation::new(2));
        for i in 0..s_rows {
            db.add_fact("s", &[i, i]);
        }
        let (answer, rows) = traced(q, plan, &db);
        assert_eq!(answer, s_rows > 0);
        assert_eq!(rows[0].rows_in, u64::from(s_rows > 0), "{rows:?}");
    }
}
