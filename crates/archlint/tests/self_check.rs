//! The analyzer's own acceptance gate, run against the *real*
//! workspace: zero findings, and the serving layer's lock-acquisition
//! graph present and acyclic. CI runs the CLI as well; this test keeps
//! the same guarantee inside `cargo test`.

use archlint::{acquisition_graph, default_root, run, Workspace};

fn load() -> Workspace {
    Workspace::load(&default_root()).expect("workspace loads from the repo root")
}

#[test]
fn workspace_has_zero_findings() {
    let ws = load();
    // Sanity: we really loaded the repo, not an empty directory.
    assert!(
        ws.files.len() > 50,
        "suspiciously few files ({}) — wrong root?",
        ws.files.len()
    );
    let diags = run(&ws);
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    assert!(
        diags.is_empty(),
        "archlint must run clean on its own workspace:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn serving_lock_graph_is_discovered_and_acyclic() {
    let g = acquisition_graph(&load());
    // The serving layer's lock classes: the database snapshot RwLock,
    // both cache mutexes, and the relation index cache. New classes may
    // appear; these must not silently vanish (a rename here means the
    // lock-order pass lost sight of a real lock).
    for expected in [
        "Service.db",
        "PlanCache.map",
        "DecompCache.map",
        "Relation.cache",
    ] {
        assert!(
            g.classes.iter().any(|c| c == expected),
            "lock class `{expected}` missing from {:?}",
            g.classes
        );
    }
    assert!(
        g.cycles.is_empty(),
        "serving-layer lock graph has cycles: {:?}\nedges: {:?}",
        g.cycles,
        g.edges
    );
}

#[test]
fn every_rule_is_listed_with_an_explanation() {
    let rules = archlint::all_rules();
    let names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
    assert_eq!(
        names,
        vec![
            "panic-free-request-path",
            "budget-polled-loops",
            "lru-backed-caches",
            "scoped-component-sweeps",
            "no-std-sync",
            "lock-order",
            "timing-via-obs",
            "single-exec-path",
        ]
    );
    for r in &rules {
        assert!(!r.explain().is_empty(), "{} has no explanation", r.name());
    }
}
