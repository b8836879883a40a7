//! `single-exec-path`: one body per operation. The relational kernels,
//! the evaluation pipeline and the serving layer each run an operation
//! through a single implementation, parameterised by its execution
//! context (`relation::CostMeter`, `eval::ExecCtx`); the context-free
//! name is that body under the no-op context. What this rule keeps from
//! coming back is the axis PRs 6–10 grew and PR 13 removed: a
//! `fn <name>_sharded` / `_governed` / `_observed` defined beside a
//! `fn <name>` in the same crate — a second copy of the operation, held
//! to the first only by an equivalence test.
//!
//! Test code is exempt (test names may say what they like).

use super::Rule;
use crate::diag::Diagnostic;
use crate::workspace::Workspace;

/// The crates that execute queries; names are compared within one crate.
const SCOPE: &[&str] = &[
    "crates/relation/src/",
    "crates/eval/src/",
    "crates/service/src/",
];

/// The suffixes the removed execution paths were named by.
const TWIN_SUFFIXES: &[&str] = &["_sharded", "_governed", "_observed"];

pub struct SingleExecPath;

impl Rule for SingleExecPath {
    fn name(&self) -> &'static str {
        "single-exec-path"
    }

    fn explain(&self) -> &'static str {
        "relation/eval/service keep one body per operation: no `fn x_sharded` / \
         `x_governed` / `x_observed` beside a `fn x` — parameterise the one body \
         by its CostMeter / ExecCtx instead"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        // In fixture mode every loaded file is one crate.
        let crates: &[&str] = if ws.fixture_mode { &[""] } else { SCOPE };
        for krate in crates {
            let fns: Vec<(&str, String, u32)> = ws
                .files
                .iter()
                .filter(|f| f.rel.starts_with(krate) && !f.is_test_path())
                .flat_map(|f| {
                    f.fns()
                        .into_iter()
                        .filter(|span| !f.is_test_line(span.line))
                        .map(|span| (f.rel.as_str(), span.name, span.line))
                })
                .collect();
            for (rel, name, line) in &fns {
                let base = TWIN_SUFFIXES.iter().find_map(|s| name.strip_suffix(s));
                let Some(base) = base else { continue };
                if fns.iter().any(|(_, other, _)| other == base) {
                    out.push(Diagnostic {
                        rule: self.name(),
                        file: rel.to_string(),
                        line: *line,
                        msg: format!(
                            "`fn {name}` is a second execution path beside `fn {base}` — \
                             keep one body and pass it the context"
                        ),
                    });
                }
            }
        }
    }
}
