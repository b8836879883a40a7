//! `budget-polled-loops`: any substantial loop in a kernel, DP, or
//! search module must poll the request's budget. ROADMAP's invariant:
//! *"any new long-running loop (kernel scan, DP sweep, search) must
//! poll the request's `core::QueryBudget` at chunk granularity (via
//! `CostMeter` below `core`, directly above it) and unwind with a typed
//! `QueryError`"*.
//!
//! A loop counts as polling when its body (or anything it textually
//! contains — a nested polled loop satisfies the outer one) references
//! the budget machinery: an identifier matching `meter`, `budget`,
//! `charge`, `poll`, `trip`, or `deadline` (case-insensitive,
//! substring), which covers `CostMeter`, `QueryBudget`, `BudgetMeter`,
//! `m.charge(…)`, `budget.poll(…)`, `Trip`, and the solver's
//! step-budget checks. Small loops — under [`TOKEN_THRESHOLD`] body
//! tokens — are exempt: their cost is bounded by construction and the
//! per-iteration poll would dominate the work.
//!
//! The few loops that legitimately never poll (plan construction, index
//! builds, validation passes) carry explicit `archlint::allow`s, so every
//! new un-polled loop is a conscious, reviewed decision.

use super::Rule;
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::matching_close;
use crate::workspace::Workspace;

/// Kernel / DP / search modules where the invariant bites.
const SCOPE: &[&str] = &[
    "crates/relation/src/ops.rs",
    "crates/relation/src/shard.rs",
    "crates/relation/src/index.rs",
    "crates/eval/src/pipeline.rs",
    "crates/eval/src/counting.rs",
    "crates/eval/src/reduction.rs",
    "crates/eval/src/governed.rs",
    "crates/eval/src/naive.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/kdecomp.rs",
    "crates/core/src/querydecomp.rs",
    "crates/core/src/opt.rs",
];

/// Loops with fewer body tokens than this are bounded-cost by
/// inspection and exempt.
pub const TOKEN_THRESHOLD: usize = 100;

/// Identifier fragments that witness a budget poll.
const POLL_FRAGMENTS: &[&str] = &["meter", "budget", "charge", "poll", "trip", "deadline"];

pub struct BudgetPolled;

impl Rule for BudgetPolled {
    fn name(&self) -> &'static str {
        "budget-polled-loops"
    }

    fn explain(&self) -> &'static str {
        "substantial loops in kernel/DP/search modules must poll the query budget \
         (CostMeter / QueryBudget) so deadlines and quotas can trip them"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in &ws.files {
            if !ws.in_scope(file, SCOPE) || file.is_test_path() {
                continue;
            }
            let t = &file.tokens;
            let mut i = 0;
            while i < t.len() {
                let tok = &t[i];
                let is_loop_kw =
                    tok.is_ident("for") || tok.is_ident("while") || tok.is_ident("loop");
                if !is_loop_kw || file.is_test_line(tok.line) {
                    i += 1;
                    continue;
                }
                // The body is the first `{` at delimiter depth 0 after
                // the keyword (struct literals are not legal in loop
                // header position, so this is unambiguous).
                let mut j = i + 1;
                let mut depth = 0usize;
                let mut body_open = None;
                while j < t.len() {
                    match t[j].kind {
                        TokKind::Open => {
                            if t[j].is_open('{') && depth == 0 {
                                body_open = Some(j);
                                break;
                            }
                            depth += 1;
                        }
                        TokKind::Close => depth = depth.saturating_sub(1),
                        _ => {
                            if depth == 0 && t[j].is_punct(';') {
                                break;
                            }
                        }
                    }
                    j += 1;
                }
                let Some(open) = body_open else {
                    i += 1;
                    continue;
                };
                let close = matching_close(t, open);
                let body = &t[open + 1..close];
                if body.len() >= TOKEN_THRESHOLD && !polls(body) {
                    out.push(Diagnostic {
                        rule: self.name(),
                        file: file.rel.clone(),
                        line: tok.line,
                        msg: format!(
                            "`{}` loop with {} body tokens (≥ {}) never polls the budget — \
                             thread a CostMeter/QueryBudget through it or justify with an allow",
                            tok.text,
                            body.len(),
                            TOKEN_THRESHOLD
                        ),
                    });
                }
                // Continue *inside* the body: nested loops are checked
                // independently (an outer poll does not excuse a huge
                // un-polled inner loop — but an inner poll does satisfy
                // the outer, since the fragment scan sees the whole body).
                i = open + 1;
            }
        }
    }
}

fn polls(body: &[crate::lexer::Token]) -> bool {
    body.iter().any(|tok| {
        tok.kind == TokKind::Ident && {
            let lower = tok.text.to_ascii_lowercase();
            POLL_FRAGMENTS.iter().any(|f| lower.contains(f))
        }
    })
}
