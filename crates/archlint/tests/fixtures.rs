//! Per-rule fixture tests. Every rule has a positive fixture (`bad.rs`,
//! findings asserted down to exact `file:line`) and a negative fixture
//! (`good.rs`, zero findings). The fixture files live under
//! `tests/fixtures/` — a directory the workspace walker skips, so the
//! planted violations never leak into the real run.

use archlint::{run, Diagnostic, Workspace};

fn lint_one(rel: &str, src: &str) -> Vec<Diagnostic> {
    run(&Workspace::fixture([(rel.to_string(), src.to_string())]))
}

/// `(line, rule)` for every finding, in report order.
fn sites(diags: &[Diagnostic]) -> Vec<(u32, &'static str)> {
    diags.iter().map(|d| (d.line, d.rule)).collect()
}

fn assert_clean(rel: &str, src: &str) {
    let diags = lint_one(rel, src);
    assert!(diags.is_empty(), "{rel} should be clean:\n{diags:#?}");
}

// ---- panic-free-request-path -------------------------------------------

#[test]
fn panic_free_positive() {
    let rel = "fixtures/panic_free/bad.rs";
    let diags = lint_one(rel, include_str!("fixtures/panic_free/bad.rs"));
    assert!(diags.iter().all(|d| d.file == rel), "{diags:#?}");
    assert_eq!(
        sites(&diags),
        vec![
            (5, "panic-free-request-path"),  // .unwrap()
            (6, "panic-free-request-path"),  // .expect(…)
            (8, "panic-free-request-path"),  // panic!
            (10, "panic-free-request-path"), // todo!
        ],
        "{diags:#?}"
    );
}

#[test]
fn panic_free_negative() {
    assert_clean(
        "fixtures/panic_free/good.rs",
        include_str!("fixtures/panic_free/good.rs"),
    );
}

// ---- budget-polled-loops -----------------------------------------------

#[test]
fn budget_polled_positive() {
    let rel = "fixtures/budget_polled/bad.rs";
    let diags = lint_one(rel, include_str!("fixtures/budget_polled/bad.rs"));
    assert_eq!(
        sites(&diags),
        vec![(7, "budget-polled-loops")],
        "{diags:#?}"
    );
}

#[test]
fn budget_polled_negative() {
    assert_clean(
        "fixtures/budget_polled/good.rs",
        include_str!("fixtures/budget_polled/good.rs"),
    );
}

// ---- lru-backed-caches -------------------------------------------------

#[test]
fn lru_caches_positive() {
    let rel = "fixtures/lru_caches/bad.rs";
    let diags = lint_one(rel, include_str!("fixtures/lru_caches/bad.rs"));
    assert_eq!(sites(&diags), vec![(6, "lru-backed-caches")], "{diags:#?}");
    assert!(diags[0].msg.contains("ShapeCache"), "{diags:#?}");
}

#[test]
fn lru_caches_negative() {
    assert_clean(
        "fixtures/lru_caches/good.rs",
        include_str!("fixtures/lru_caches/good.rs"),
    );
}

// ---- scoped-component-sweeps -------------------------------------------

#[test]
fn scoped_sweeps_positive() {
    let rel = "fixtures/scoped_sweeps/bad.rs";
    let diags = lint_one(rel, include_str!("fixtures/scoped_sweeps/bad.rs"));
    assert_eq!(
        sites(&diags),
        vec![
            (5, "scoped-component-sweeps"), // components(…)
            (6, "scoped-component-sweeps"), // components_within(…)
        ],
        "{diags:#?}"
    );
}

#[test]
fn scoped_sweeps_negative() {
    assert_clean(
        "fixtures/scoped_sweeps/good.rs",
        include_str!("fixtures/scoped_sweeps/good.rs"),
    );
}

// ---- no-std-sync -------------------------------------------------------

#[test]
fn no_std_sync_positive() {
    let rel = "fixtures/no_std_sync/bad.rs";
    let diags = lint_one(rel, include_str!("fixtures/no_std_sync/bad.rs"));
    assert_eq!(
        sites(&diags),
        vec![
            (4, "no-std-sync"), // use std::sync::Mutex
            (5, "no-std-sync"), // grouped RwLock
            (8, "no-std-sync"), // field type std::sync::Mutex
        ],
        "{diags:#?}"
    );
}

#[test]
fn no_std_sync_negative() {
    assert_clean(
        "fixtures/no_std_sync/good.rs",
        include_str!("fixtures/no_std_sync/good.rs"),
    );
}

// ---- lock-order --------------------------------------------------------

#[test]
fn lock_order_positive() {
    let rel = "fixtures/lock_order/bad.rs";
    let diags = lint_one(rel, include_str!("fixtures/lock_order/bad.rs"));
    // One cycle (Pair.a -> Pair.b -> Pair.a), anchored at the witness of
    // its first edge: `self.b.lock()` on line 14 while the `a` guard is
    // still live.
    assert_eq!(sites(&diags), vec![(14, "lock-order")], "{diags:#?}");
    assert!(
        diags[0].msg.contains("Pair.a -> Pair.b -> Pair.a"),
        "{diags:#?}"
    );
}

#[test]
fn lock_order_negative() {
    assert_clean(
        "fixtures/lock_order/good.rs",
        include_str!("fixtures/lock_order/good.rs"),
    );
}

#[test]
fn lock_order_self_loop() {
    // parking_lot locks are not re-entrant: re-acquiring a lock whose
    // guard is still live deadlocks the acquiring thread itself.
    let src = "use parking_lot::Mutex;\n\
               pub struct S {\n\
               \x20   m: Mutex<u32>,\n\
               }\n\
               impl S {\n\
               \x20   pub fn twice(&self) -> u32 {\n\
               \x20       let g = self.m.lock();\n\
               \x20       let h = self.m.lock();\n\
               \x20       *g + *h\n\
               \x20   }\n\
               }\n";
    let diags = lint_one("fixtures/inline/self_loop.rs", src);
    assert_eq!(sites(&diags), vec![(8, "lock-order")], "{diags:#?}");
    assert!(diags[0].msg.contains("S.m -> S.m"), "{diags:#?}");
}

#[test]
fn lock_order_sees_through_calls() {
    // The guard of `a` is live across a call to a helper that locks
    // `b`; the edge must be found through the call summary, and the
    // reverse direct order closes the cycle.
    let src = "use parking_lot::Mutex;\n\
               pub struct S {\n\
               \x20   a: Mutex<u32>,\n\
               \x20   b: Mutex<u32>,\n\
               }\n\
               impl S {\n\
               \x20   fn peek_b(&self) -> u32 {\n\
               \x20       *self.b.lock()\n\
               \x20   }\n\
               \x20   pub fn outer(&self) -> u32 {\n\
               \x20       let g = self.a.lock();\n\
               \x20       *g + self.peek_b()\n\
               \x20   }\n\
               \x20   pub fn reverse(&self) -> u32 {\n\
               \x20       let g = self.b.lock();\n\
               \x20       let h = self.a.lock();\n\
               \x20       *g + *h\n\
               \x20   }\n\
               }\n";
    let diags = lint_one("fixtures/inline/via_call.rs", src);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, "lock-order");
    assert!(diags[0].msg.contains("S.a -> S.b"), "{diags:#?}");
}

// ---- timing-via-obs -----------------------------------------------------

#[test]
fn timing_via_obs_positive() {
    let rel = "fixtures/timing_via_obs/bad.rs";
    let diags = lint_one(rel, include_str!("fixtures/timing_via_obs/bad.rs"));
    assert_eq!(
        sites(&diags),
        vec![
            (7, "timing-via-obs"),
            (9, "timing-via-obs"),
            (16, "timing-via-obs"),
        ],
        "{diags:#?}"
    );
    assert!(diags[0].msg.contains("obs span"), "{diags:#?}");
}

#[test]
fn timing_via_obs_negative() {
    assert_clean(
        "fixtures/timing_via_obs/good.rs",
        include_str!("fixtures/timing_via_obs/good.rs"),
    );
}

#[test]
fn timing_via_obs_allow_suppresses() {
    let src = "pub fn split_deadline() -> std::time::Instant {\n\
               \x20   // archlint::allow(timing-via-obs, reason = \"budget arithmetic\")\n\
               \x20   std::time::Instant::now()\n\
               }\n";
    assert_clean("fixtures/inline/timing_allow.rs", src);
}

// ---- single-exec-path ----------------------------------------------------

#[test]
fn single_exec_path_positive() {
    let rel = "fixtures/single_exec_path/bad.rs";
    let diags = lint_one(rel, include_str!("fixtures/single_exec_path/bad.rs"));
    assert!(diags.iter().all(|d| d.file == rel), "{diags:#?}");
    assert_eq!(
        sites(&diags),
        vec![
            (11, "single-exec-path"), // join_sharded beside join
            (16, "single-exec-path"), // join_governed beside join
            (27, "single-exec-path"), // Pipeline::count_observed beside count
        ],
        "{diags:#?}"
    );
    assert!(diags[0].msg.contains("`fn join`"), "{diags:#?}");
}

#[test]
fn single_exec_path_negative() {
    assert_clean(
        "fixtures/single_exec_path/good.rs",
        include_str!("fixtures/single_exec_path/good.rs"),
    );
}

#[test]
fn single_exec_path_allow_suppresses() {
    let src = "pub fn join() {}\n\
               // archlint::allow(single-exec-path, reason = \"parked kernel kept for the ledger\")\n\
               pub fn join_sharded() {}\n";
    assert_clean("fixtures/inline/parked_kernel.rs", src);
}

// ---- allow hygiene ------------------------------------------------------

#[test]
fn unused_allow_is_reported() {
    let src = "// archlint::allow(panic-free-request-path, reason = \"nothing here panics\")\n\
               pub fn fine() -> u32 {\n\
               \x20   7\n\
               }\n";
    let diags = lint_one("fixtures/inline/unused_allow.rs", src);
    assert_eq!(sites(&diags), vec![(1, "allow-hygiene")], "{diags:#?}");
    assert!(diags[0].msg.contains("unused allow"), "{diags:#?}");
}

#[test]
fn allow_without_reason_is_malformed() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n\
               \x20   // archlint::allow(panic-free-request-path)\n\
               \x20   *v.first().unwrap()\n\
               }\n";
    let diags = lint_one("fixtures/inline/no_reason.rs", src);
    // The malformed allow suppresses nothing, so both the hygiene
    // finding and the original panic finding surface.
    assert_eq!(
        sites(&diags),
        vec![(2, "allow-hygiene"), (3, "panic-free-request-path")],
        "{diags:#?}"
    );
}

#[test]
fn allow_naming_unknown_rule_is_reported() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n\
               \x20   // archlint::allow(no-such-rule, reason = \"typo\")\n\
               \x20   *v.first().unwrap()\n\
               }\n";
    let diags = lint_one("fixtures/inline/unknown_rule.rs", src);
    assert_eq!(
        sites(&diags),
        vec![(2, "allow-hygiene"), (3, "panic-free-request-path")],
        "{diags:#?}"
    );
}
