//! Counting satisfying assignments without materialising the join.
//!
//! The same tree structure that makes Boolean evaluation polynomial
//! (Theorem 4.7) supports *counting*: over a join tree (or the Lemma 4.6
//! reduction of a bounded-hw query), the number of satisfying
//! substitutions `θ : var(Q) → U` equals a bottom-up product-sum — for
//! each tuple `t` of node `n`, `c(t) = Π_child Σ_{t' matching t} c(t')`,
//! and the total is `Σ_root c(t)`. Correctness rests exactly on the
//! connectedness condition: two different subtrees share variables only
//! through their common ancestors, so the per-child factors are
//! independent. This is the classic counting extension of Yannakakis'
//! algorithm, reproduced here as a consumer of the decomposition API.

use crate::binding::EvalError;
use crate::Strategy;
use cq::ConjunctiveQuery;
use relation::Database;

/// Count the satisfying substitutions of the (Boolean or not) query —
/// i.e. `|⋈_A rel(A)|` over the distinct variables of `q` — using the
/// automatically planned join tree or hypertree decomposition.
///
/// The count is exact in `u128` up to `u128::MAX - 1`; beyond that the
/// DP saturates and `u128::MAX` means "at least `u128::MAX`" (see
/// [`crate::Pipeline::count_in`] for the full saturating contract).
pub fn count_assignments(q: &ConjunctiveQuery, db: &Database) -> Result<u128, EvalError> {
    let plan = Strategy::plan(q);
    count_with(&plan, q, db)
}

/// [`count_assignments`] under an explicit plan: [`Strategy::count`]
/// under [`Unlimited`](crate::Unlimited).
pub fn count_with(plan: &Strategy, q: &ConjunctiveQuery, db: &Database) -> Result<u128, EvalError> {
    plan.count(q, db, &crate::Unlimited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::BoundAtom;
    use cq::parse_query;
    use relation::Database;

    fn chain_db(n: u64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.add_fact("r", &[i, i + 1]);
        }
        db
    }

    #[test]
    fn path_counts_match_enumeration() {
        let q = parse_query("ans :- r(A,B), r(B,C), r(C,D).").unwrap();
        let db = chain_db(10);
        // Exactly one assignment per starting point 0..=7.
        assert_eq!(count_assignments(&q, &db), Ok(8));
    }

    #[test]
    fn counts_multiply_across_branches() {
        // Star: hub H with two leaves; r(H, X), s(H, Y).
        let q = parse_query("ans :- r(H,X), s(H,Y).").unwrap();
        let mut db = Database::new();
        for x in 0..3 {
            db.add_fact("r", &[1, x]);
        }
        for y in 0..5 {
            db.add_fact("s", &[1, y]);
        }
        assert_eq!(count_assignments(&q, &db), Ok(15));
    }

    #[test]
    fn cyclic_counting_through_the_reduction() {
        // Triangle with every edge the complete relation on {0,1,2}:
        // all 27 assignments satisfy it... no — all three constraints are
        // unconstrained total relations, so 3^3 = 27.
        let q = parse_query("ans :- r(X,Y), s(Y,Z), t(Z,X).").unwrap();
        let mut db = Database::new();
        for a in 0..3 {
            for b in 0..3 {
                db.add_fact("r", &[a, b]);
                db.add_fact("s", &[a, b]);
                db.add_fact("t", &[a, b]);
            }
        }
        assert_eq!(count_assignments(&q, &db), Ok(27));
        // Proper 3-colourings of a triangle: 3! = 6.
        let mut neq = Database::new();
        for a in 0..3u64 {
            for b in 0..3 {
                if a != b {
                    neq.add_fact("r", &[a, b]);
                    neq.add_fact("s", &[a, b]);
                    neq.add_fact("t", &[a, b]);
                }
            }
        }
        assert_eq!(count_assignments(&q, &neq), Ok(6));
    }

    #[test]
    fn zero_and_empty_cases() {
        let q = parse_query("ans :- r(X,Y), r(Y,X).").unwrap();
        assert_eq!(count_assignments(&q, &chain_db(4)), Ok(0));
        let empty_body = cq::ConjunctiveQuery::builder().build();
        assert_eq!(count_assignments(&empty_body, &Database::new()), Ok(1));
    }

    #[test]
    fn counts_match_naive_join_cardinality() {
        use workloads::random;
        let mut rng = random::rng(0xC0DE);
        for _ in 0..30 {
            let q = random::random_query(&mut rng, 5, 4, 3);
            let db = random::planted_database(&mut rng, &q, 4, 12);
            let counted = count_assignments(&q, &db).unwrap();
            // The naive full join over all distinct variables has exactly
            // one row per satisfying assignment (bound atoms are sets).
            let bound = crate::bind_all(&q, &db).unwrap();
            let full = naive_count(&bound);
            assert_eq!(counted, full, "count mismatch on {q}");
        }
    }

    #[test]
    fn deep_chain_counts_saturate_at_u128_max() {
        // 65 chained atoms, each bound to the complete 4×4 relation over
        // {0..3}: every one of the 4^66 > 2^128 assignments satisfies the
        // query, so the DP must overflow u128 somewhere on the way up.
        // Regression for the unchecked `Sum` sites in `Pipeline::count`:
        // this used to panic in debug builds (wrap in release); the
        // saturating contract pins the answer to exactly u128::MAX.
        let names: Vec<String> = (0..=65).map(|i| format!("X{i}")).collect();
        let mut b = cq::ConjunctiveQuery::builder();
        let mut db = Database::new();
        for i in 0..65 {
            let pred = format!("r{i}");
            b.atom_vars(pred.clone(), &[names[i].as_str(), names[i + 1].as_str()]);
            for a in 0..4u64 {
                for c in 0..4u64 {
                    db.add_fact(&pred, &[a, c]);
                }
            }
        }
        let q = b.build();
        assert_eq!(count_assignments(&q, &db), Ok(u128::MAX));
    }

    /// Reference: nested-loop count of the full join.
    fn naive_count(bound: &[BoundAtom]) -> u128 {
        use relation::ops;
        let mut acc = {
            let mut r = relation::Relation::new(0);
            r.push_row(&[]);
            BoundAtom {
                vars: Vec::new(),
                rel: r,
            }
        };
        for b in bound {
            let pairs = crate::binding::shared_columns(&acc, b);
            let keep: Vec<usize> = (0..b.vars.len())
                .filter(|&j| !acc.vars.contains(&b.vars[j]))
                .collect();
            let rel = ops::join(&acc.rel, &b.rel, &pairs, &keep);
            let mut vars = acc.vars.clone();
            for j in keep {
                vars.push(b.vars[j]);
            }
            acc = BoundAtom { vars, rel };
        }
        acc.rel.len() as u128
    }
}
