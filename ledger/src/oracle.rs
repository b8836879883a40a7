//! Expected answers from the naive evaluator, and the per-response
//! check run inside the measured loop.
//!
//! One row-budgeted `eval::naive` run per (shape, snapshot) over the
//! shape's *all-variables* twin yields the full join `J`; from it the
//! three expected answers follow: Boolean = `J ≠ ∅`, Count = `|J|`
//! (satisfying assignments over `var(Q)`), Enumerate = `π_head(J)`,
//! kept as a row count plus an order-independent checksum so the
//! in-loop comparison costs O(answer) and allocates nothing.

use crate::inputs::Shape;
use eval::naive::{self, JoinOrder, NaiveError};
use hypergraph::{Ix, VertexId};
use relation::{ops, Database, Relation};
use service::{Op, Outcome, Response};
use std::fmt;

/// Intermediate-result cap of one oracle run. Workload data is sized so
/// the oracle stays three orders of magnitude below it.
pub const ORACLE_ROW_BUDGET: usize = 4_000_000;

/// The three expected answers of one (shape, snapshot).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Expected `Op::Boolean` answer.
    pub boolean: bool,
    /// Expected `Op::Count` answer.
    pub count: u128,
    /// Expected number of `Op::Enumerate` rows.
    pub rows: usize,
    /// Order-independent checksum of the expected rows.
    pub checksum: u64,
}

/// The oracle could not produce an answer: set-up must abort, the
/// workload's data is mis-sized (a benchmark bug, not a service error).
#[derive(Debug)]
pub struct OracleError {
    /// The shape the oracle was evaluating.
    pub shape: String,
    /// Why it stopped.
    pub cause: NaiveError,
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle failed on {}: {}", self.shape, self.cause)
    }
}

impl std::error::Error for OracleError {}

/// Order-independent checksum of a relation: the wrapping sum of a
/// mixed hash of each row.
pub fn checksum(rel: &Relation) -> u64 {
    rel.rows().fold(0u64, |acc, row| {
        let h = row.iter().fold(0x9E37_79B9_7F4A_7C15u64, |h, v| {
            let x = (h ^ v.0).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^ (x >> 29)
        });
        acc.wrapping_add(h)
    })
}

/// Evaluate `shape` naively against `db`.
pub fn expected(shape: &Shape, db: &Database) -> Result<Expected, OracleError> {
    let q = &shape.query;
    // var(Q): the variables that occur in the body (a canonical query
    // interns isolated hypergraph vertices too; no atom constrains them
    // and no evaluator counts them).
    let mut body = vec![false; q.num_vars()];
    for atom in q.atoms() {
        for v in atom.variables() {
            body[v.index()] = true;
        }
    }
    let all: Vec<VertexId> = (0..q.num_vars())
        .filter(|&i| body[i])
        .map(VertexId::new)
        .collect();
    let full = crate::inputs::with_head(q, &all);
    let joined = naive::evaluate(&full, db, JoinOrder::GreedySmallest, ORACLE_ROW_BUDGET).map_err(
        |cause| OracleError {
            shape: shape.name.clone(),
            cause,
        },
    )?;
    // Column `i` of `joined` is variable `all[i]`.
    let head: Vec<usize> = q
        .head_vars()
        .iter()
        .filter_map(|v| all.iter().position(|w| w == v))
        .collect();
    let rows = ops::project(&joined, &head);
    Ok(Expected {
        boolean: !joined.is_empty(),
        count: joined.len() as u128,
        rows: rows.len(),
        checksum: checksum(&rows),
    })
}

/// Does `resp` answer `op` exactly as the oracle did? A typed error or a
/// degraded [`Outcome::Partial`] is a failure like any mismatch.
pub fn matches(resp: &Response, op: Op, exp: &Expected) -> bool {
    match (op, resp) {
        (Op::Boolean, Ok(Outcome::Boolean(b))) => *b == exp.boolean,
        (Op::Count, Ok(Outcome::Count(c))) => *c == exp.count,
        (Op::Enumerate, Ok(Outcome::Rows(r))) => r.len() == exp.rows && checksum(r) == exp.checksum,
        _ => false,
    }
}
