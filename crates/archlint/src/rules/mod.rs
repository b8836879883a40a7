//! The rule framework: each rule scans the lexed workspace and emits
//! [`Diagnostic`]s; the engine then applies inline
//! `// archlint::allow(rule, reason = "…")` suppressions and reports
//! allow-hygiene problems (malformed allows, unknown rule names, allows
//! that suppress nothing) as findings in their own right, so the
//! suppression surface can never rot silently.

mod budget_polled;
mod lock_order;
mod lru_caches;
mod no_std_sync;
mod panic_free;
mod scoped_sweeps;
mod single_exec_path;
mod timing_via_obs;

pub use lock_order::{acquisition_graph, LockGraph};

use crate::diag::{self, Diagnostic};
use crate::workspace::Workspace;

/// A single architecture-invariant check.
pub trait Rule {
    /// Kebab-case rule name — the `archlint::allow` argument.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules` and the README catalogue.
    fn explain(&self) -> &'static str;
    /// Scan the workspace, appending findings.
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// Every shipped rule, in catalogue order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(panic_free::PanicFree),
        Box::new(budget_polled::BudgetPolled),
        Box::new(lru_caches::LruCaches),
        Box::new(scoped_sweeps::ScopedSweeps),
        Box::new(no_std_sync::NoStdSync),
        Box::new(lock_order::LockOrder),
        Box::new(timing_via_obs::TimingViaObs),
        Box::new(single_exec_path::SingleExecPath),
    ]
}

/// The meta-rule name under which allow-hygiene findings are reported.
/// It is deliberately not suppressible.
pub const ALLOW_HYGIENE: &str = "allow-hygiene";

/// Run every rule over `ws`, apply suppressions, and append
/// allow-hygiene findings. The result is sorted and ready to print.
pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    for rule in all_rules() {
        rule.check(ws, &mut raw);
    }
    let known: Vec<&'static str> = all_rules().iter().map(|r| r.name()).collect();

    let mut out = Vec::new();
    // Per file: which allow comments exist, and which lines each covers.
    for file in &ws.files {
        // A standalone allow covers the next line that is not itself an
        // allow comment, so a block of allows above one statement stacks.
        let allow_lines: Vec<u32> = file.allows.iter().map(|a| a.line).collect();
        let covered: Vec<u32> = file
            .allows
            .iter()
            .map(|a| {
                if !a.standalone {
                    return a.line;
                }
                let mut target = a.line + 1;
                while allow_lines.contains(&target) {
                    target += 1;
                }
                target
            })
            .collect();
        let mut used = vec![false; file.allows.len()];

        for d in raw.iter().filter(|d| d.file == file.rel) {
            let suppressed = file
                .allows
                .iter()
                .enumerate()
                .find(|(i, a)| a.rule == d.rule && (covered[*i] == d.line || a.line == d.line));
            match suppressed {
                Some((i, _)) => used[i] = true,
                None => out.push(d.clone()),
            }
        }

        for (line, why) in &file.malformed_allows {
            out.push(Diagnostic {
                rule: ALLOW_HYGIENE,
                file: file.rel.clone(),
                line: *line,
                msg: format!("malformed suppression: {why}"),
            });
        }
        for (i, a) in file.allows.iter().enumerate() {
            if !known.contains(&a.rule.as_str()) {
                out.push(Diagnostic {
                    rule: ALLOW_HYGIENE,
                    file: file.rel.clone(),
                    line: a.line,
                    msg: format!("allow names unknown rule `{}`", a.rule),
                });
            } else if !used[i] {
                out.push(Diagnostic {
                    rule: ALLOW_HYGIENE,
                    file: file.rel.clone(),
                    line: a.line,
                    msg: format!(
                        "unused allow({}) — the rule reports nothing here; remove it",
                        a.rule
                    ),
                });
            }
        }
    }
    // Findings in files the workspace didn't load under a known rel
    // (shouldn't happen, but never drop a diagnostic silently).
    for d in raw {
        if !ws.files.iter().any(|f| f.rel == d.file) {
            out.push(d);
        }
    }
    diag::sort(&mut out);
    out
}
