//! Experiment harness: one function per paper artifact (table/figure),
//! each printing the reproduced result. See DESIGN.md §3 for the index and
//! EXPERIMENTS.md for recorded paper-vs-measured outcomes.
//!
//! Run with `cargo run --release -p bench --bin experiments -- <id|all>`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod baseline;
pub mod decomp;
pub mod emit;
pub mod heur;
pub mod serving;

use cq::parse_query;
use eval::naive::JoinOrder;
use hypergraph::{acyclic, graph, treewidth, Hypergraph};
use hypertree_core::{datalog, kdecomp, normal_form, opt, parallel, querydecomp, CandidateMode};
use std::fmt::Write as _;
use std::time::Instant;
use workloads::{families, paper, random, tps, xc3s};

/// Budget for exact query-width searches (candidate evaluations).
pub const QW_BUDGET: u64 = 50_000_000;

fn ms(d: std::time::Duration) -> String {
    format!("{:.3}ms", d.as_secs_f64() * 1e3)
}

/// E1 — Fig. 1 / Fig. 3: join trees of Q2 and Q3; Q1 has none.
pub fn e1() -> String {
    let mut out = String::new();
    writeln!(out, "E1: acyclicity and join trees (Fig. 1, Fig. 3)").unwrap();
    for (name, q) in [
        ("Q1", paper::q1()),
        ("Q2", paper::q2()),
        ("Q3", paper::q3()),
    ] {
        let h = q.hypergraph();
        match acyclic::join_tree(&h) {
            Some(jt) => {
                assert_eq!(jt.validate(&h), Ok(()));
                writeln!(out, "{name}: acyclic; join tree:").unwrap();
                for line in jt.display(&h).lines() {
                    writeln!(out, "    {line}").unwrap();
                }
            }
            None => writeln!(out, "{name}: cyclic (no join tree) — as the paper states").unwrap(),
        }
    }
    out
}

/// E2 — Fig. 2 / Fig. 4 / Fig. 5: query decompositions and exact qw.
pub fn e2() -> String {
    let mut out = String::new();
    writeln!(out, "E2: query decompositions (Fig. 2, Fig. 4, Fig. 5)").unwrap();
    let cases = [
        ("Q1", paper::q1(), 2usize),
        ("Q4", paper::q4(), 2),
        ("Q5", paper::q5(), 3),
    ];
    for (name, q, expected) in cases {
        let h = q.hypergraph();
        let qw = querydecomp::query_width(&h, QW_BUDGET).expect("within budget");
        writeln!(out, "{name}: qw = {qw} (paper: {expected})").unwrap();
        assert_eq!(qw, expected);
    }
    let h1 = paper::q1().hypergraph();
    let fig2 = paper::fig2_query_decomposition(&h1);
    assert_eq!(fig2.validate(&h1), Ok(()));
    writeln!(
        out,
        "Fig. 2 decomposition of Q1 validates at width {}:",
        fig2.width()
    )
    .unwrap();
    for line in fig2.display(&h1).lines() {
        writeln!(out, "    {line}").unwrap();
    }
    let h5 = paper::q5().hypergraph();
    let fig5 = paper::fig5_query_decomposition(&h5);
    assert_eq!(fig5.validate(&h5), Ok(()));
    writeln!(
        out,
        "Fig. 5 decomposition of Q5 validates at width {}",
        fig5.width()
    )
    .unwrap();
    writeln!(
        out,
        "and no width-2 query decomposition of Q5 exists (checked exhaustively)"
    )
    .unwrap();
    out
}

/// E3 — Fig. 6a / Fig. 6b / Fig. 7: hypertree decompositions and hw.
pub fn e3() -> String {
    let mut out = String::new();
    writeln!(out, "E3: hypertree decompositions (Fig. 6, Fig. 7)").unwrap();
    let h1 = paper::q1().hypergraph();
    let fig6a = paper::fig6a_hypertree(&h1);
    assert_eq!(fig6a.validate(&h1), Ok(()));
    writeln!(out, "Fig. 6a (Q1), width {}:", fig6a.width()).unwrap();
    for line in fig6a.display(&h1).lines() {
        writeln!(out, "    {line}").unwrap();
    }
    let h5 = paper::q5().hypergraph();
    let fig6b = paper::fig6b_hypertree(&h5);
    assert_eq!(fig6b.validate(&h5), Ok(()));
    writeln!(
        out,
        "Fig. 6b/7 (Q5), width {} (atom representation):",
        fig6b.width()
    )
    .unwrap();
    for line in fig6b.display(&h5).lines() {
        writeln!(out, "    {line}").unwrap();
    }
    writeln!(
        out,
        "hw(Q1) = {}, hw(Q5) = {} — Theorem 6.1(b): hw(Q5) < qw(Q5) = 3",
        opt::hypertree_width(&h1),
        opt::hypertree_width(&h5)
    )
    .unwrap();
    out
}

/// E4 — Fig. 8 / Lemma 4.6: the reduction to an acyclic instance.
pub fn e4() -> String {
    let mut out = String::new();
    writeln!(out, "E4: the Lemma 4.6 reduction on Q5 (Fig. 8)").unwrap();
    let q = parse_query(
        "ans :- a(S,X,X',C,F), b(S,Y,Y',C',F'), c(C,C',Z), d(X,Z), e(Y,Z), \
         f(F,F',Z'), g(X',Z'), h(Y',Z'), j(J,X,Y,X',Y').",
    )
    .unwrap();
    let h = q.hypergraph();
    let hd = paper::fig6b_hypertree(&h);
    let mut rng = random::rng(42);
    let db = random::planted_database(&mut rng, &q, 20, 60);
    let reduced = eval::reduction::reduce(&q, &db, &hd).unwrap();
    writeln!(
        out,
        "reduced instance: {} nodes, {} cells (each node the λ-product reduced by its \
         subtree, ≤ r^k rows; r = {} rows, k = {}: r^k = {})",
        reduced.tree().len(),
        reduced.size_cells(),
        db.max_relation_rows(),
        hd.width(),
        db.max_relation_rows().pow(hd.width() as u32),
    )
    .unwrap();
    let via_hd = eval::reduction::boolean_via_hd(&q, &db, &hd).unwrap();
    let naive = eval::naive::evaluate_boolean(&q, &db, JoinOrder::GreedySmallest, 1 << 24).unwrap();
    writeln!(
        out,
        "Q5 answer via reduction: {via_hd}; naive agrees: {}",
        via_hd == naive
    )
    .unwrap();
    assert_eq!(via_hd, naive);
    assert!(via_hd, "planted database must satisfy the query");
    out
}

/// E5 — Fig. 9 / Theorem 5.4: normal-form transformation.
pub fn e5() -> String {
    use hypergraph::RootedTree;
    let mut out = String::new();
    writeln!(
        out,
        "E5: normal form (Definition 5.1, Theorem 5.4, Lemma 5.7)"
    )
    .unwrap();
    for (name, q) in [
        ("Q1", paper::q1()),
        ("Q4", paper::q4()),
        ("Q5", paper::q5()),
    ] {
        let h = q.hypergraph();
        // A deliberately redundant decomposition: three stacked copies of
        // the trivial node, plus one single-atom child per atom.
        let all_edges = h.all_edges();
        let all_vars = h.vertices_of_edges(&all_edges);
        let mut tree = RootedTree::new();
        let mid = tree.add_child(tree.root());
        let bottom = tree.add_child(mid);
        let mut chi = vec![all_vars.clone(), all_vars.clone(), all_vars.clone()];
        let mut lambda = vec![all_edges.clone(), all_edges.clone(), all_edges.clone()];
        for e in h.edges() {
            tree.add_child(bottom);
            chi.push(h.edge_vertices(e).clone());
            lambda.push(hypergraph::EdgeSet::singleton(h.num_edges(), e));
        }
        let messy = hypertree_core::HypertreeDecomposition::new(tree, chi, lambda);
        assert_eq!(messy.validate(&h), Ok(()));
        let nf = normal_form::normalize(&h, &messy);
        writeln!(
            out,
            "{name}: messy input has {} nodes (width {}) → NF has {} nodes (width {}), ≤ |var| = {}",
            messy.len(),
            messy.width(),
            nf.len(),
            nf.width(),
            h.num_vertices()
        )
        .unwrap();
        assert!(normal_form::is_normal_form(&h, &nf));
        assert!(nf.len() <= h.num_vertices());
        assert!(nf.width() <= messy.width());
        // k-decomp witnesses are already NF (Lemma 5.13).
        let witness =
            kdecomp::decompose(&h, opt::hypertree_width(&h), CandidateMode::Pruned).unwrap();
        assert!(normal_form::is_normal_form(&h, &witness));
    }
    writeln!(
        out,
        "all k-decomp witness trees are in normal form (Lemma 5.13)"
    )
    .unwrap();
    out
}

/// E6 — Fig. 10 / Theorem 5.14: agreement of the four deciders.
pub fn e6() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E6: k-decomp correctness — four independent deciders agree"
    )
    .unwrap();
    writeln!(
        out,
        "{:<22} {:>2} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "instance", "k", "verdict", "full", "pruned", "datalog", "parallel"
    )
    .unwrap();
    let mut rng = random::rng(7);
    let mut zoo: Vec<(String, Hypergraph)> = vec![
        ("Q1".into(), paper::q1().hypergraph()),
        ("Q5".into(), paper::q5().hypergraph()),
        ("cycle(8)".into(), families::cycle(8).hypergraph()),
        ("grid(3,3)".into(), families::grid(3, 3).hypergraph()),
    ];
    for i in 0..4 {
        zoo.push((
            format!("random#{i}"),
            random::random_hypergraph(&mut rng, 8, 7, 3),
        ));
    }
    for (name, h) in &zoo {
        for k in 1..=2usize {
            let t0 = Instant::now();
            let full = kdecomp::decide(h, k, CandidateMode::Full);
            let t_full = t0.elapsed();
            let t0 = Instant::now();
            let pruned = kdecomp::decide(h, k, CandidateMode::Pruned);
            let t_pruned = t0.elapsed();
            let t0 = Instant::now();
            let bottom = datalog::decide_bottom_up(h, k);
            let t_bottom = t0.elapsed();
            let t0 = Instant::now();
            let par = parallel::decide_parallel(h, k, CandidateMode::Pruned);
            let t_par = t0.elapsed();
            assert_eq!(full, pruned);
            assert_eq!(full, bottom);
            assert_eq!(full, par);
            writeln!(
                out,
                "{:<22} {:>2} {:>8} {:>10} {:>10} {:>10} {:>10}",
                name,
                k,
                full,
                ms(t_full),
                ms(t_pruned),
                ms(t_bottom),
                ms(t_par)
            )
            .unwrap();
        }
    }
    out
}

/// E7 — Theorem 4.5: acyclic ⟺ hw = 1 on random hypergraphs.
pub fn e7() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E7: Theorem 4.5 (acyclic ⟺ hw = 1) on 200 random hypergraphs"
    )
    .unwrap();
    let mut rng = random::rng(11);
    let mut acyclic_count = 0;
    for _ in 0..200 {
        let h = random::random_hypergraph(&mut rng, 8, 6, 4);
        let gyo = acyclic::is_acyclic(&h);
        let width1 = kdecomp::decide(&h, 1, CandidateMode::Pruned);
        assert_eq!(gyo, width1, "GYO and k-decomp disagree on {h:?}");
        acyclic_count += usize::from(gyo);
    }
    writeln!(
        out,
        "200/200 agree between GYO and k-decomp at k=1 ({acyclic_count} acyclic)"
    )
    .unwrap();
    out
}

/// E8 — Theorem 6.2: the Qn family (qw = hw = 1, tw(VAIG) = n).
pub fn e8() -> String {
    let mut out = String::new();
    writeln!(out, "E8: Theorem 6.2 — Qn has qw = hw = 1 but tw(VAIG) = n").unwrap();
    writeln!(out, "{:>3} {:>4} {:>4} {:>9}", "n", "hw", "qw", "tw(VAIG)").unwrap();
    for n in 1..=6usize {
        let q = families::qn(n);
        let h = q.hypergraph();
        let hw = opt::hypertree_width(&h);
        let qw = querydecomp::query_width(&h, QW_BUDGET).unwrap();
        let vaig = graph::incidence_graph(&h);
        let (tw, exact) = treewidth::treewidth(&vaig);
        writeln!(
            out,
            "{:>3} {:>4} {:>4} {:>8}{}",
            n,
            hw,
            qw,
            tw,
            if exact { " " } else { "~" }
        )
        .unwrap();
        assert_eq!(hw, 1);
        assert_eq!(qw, 1);
        if exact {
            assert_eq!(tw, n);
        }
    }
    out
}

/// E9 — Theorem 3.4 / Section 7 / Fig. 11: the XC3S reduction.
pub fn e9() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E9: the XC3S → query-width-4 reduction (Section 7, Fig. 11)"
    )
    .unwrap();
    let instances: Vec<(&str, xc3s::Xc3sInstance)> = vec![
        ("s=1 positive", xc3s::Xc3sInstance::new(3, vec![[0, 1, 2]])),
        (
            "Ie (s=2, positive)",
            xc3s::Xc3sInstance::new(6, vec![[0, 2, 3], [0, 1, 3], [2, 3, 5], [2, 4, 5]]),
        ),
        (
            "s=2 negative",
            xc3s::Xc3sInstance::new(6, vec![[0, 1, 2], [1, 2, 3], [2, 3, 4]]),
        ),
    ];
    for (name, inst) in &instances {
        let red = xc3s::reduce_to_query(inst);
        let verdict = inst.solve();
        write!(
            out,
            "{name}: |atoms| = {}, brute force: {} — ",
            red.query.atoms().len(),
            if verdict.is_some() {
                "positive"
            } else {
                "negative"
            }
        )
        .unwrap();
        match &verdict {
            Some(cover) => {
                let qd = xc3s::fig11_decomposition(&red, cover);
                let h = red.query.hypergraph();
                assert_eq!(qd.validate(&h), Ok(()));
                writeln!(
                    out,
                    "Fig. 11 decomposition validates at width {}",
                    qd.width()
                )
                .unwrap();
            }
            None => {
                writeln!(out, "no exact cover, so no width-4 QD per Theorem 3.4").unwrap();
            }
        }
    }
    writeln!(
        out,
        "strictness backbone: strict (m+1,2)-3PS verified exhaustively for m ≤ 6"
    )
    .unwrap();
    for m in 1..=6 {
        let s = tps::strict_3ps(m + 1, 2);
        assert!(s.is_valid() && s.is_strict_exhaustive());
    }
    out
}

/// E10a — acyclic evaluation: Yannakakis vs naive on path queries.
pub fn e10a() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E10a: Boolean path query, Yannakakis vs naive (budget 2^22 rows)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>7} {:>7} {:>18} {:>18} {:>12}",
        "domain", "degree", "yannakakis", "naive", "naive rows"
    )
    .unwrap();
    let q = families::path(6);
    for degree in [2usize, 4, 8] {
        let mut rng = random::rng(100 + degree as u64);
        let db = random::blowup_database(&mut rng, 6, 200, degree);
        let t0 = Instant::now();
        let plan = eval::Strategy::plan(&q);
        let yk = plan.boolean(&q, &db, &eval::Unlimited).unwrap();
        let t_yk = t0.elapsed();
        let t0 = Instant::now();
        let naive = eval::naive::evaluate_boolean(&q, &db, JoinOrder::AsWritten, 1 << 22);
        let t_naive = t0.elapsed();
        let (naive_str, rows) = match naive {
            Ok(b) => {
                assert_eq!(b, yk);
                (ms(t_naive), "fits".to_string())
            }
            Err(eval::naive::NaiveError::BudgetExceeded { rows, .. }) => {
                (format!("abort {}", ms(t_naive)), format!(">{rows}"))
            }
            Err(e) => panic!("{e}"),
        };
        writeln!(
            out,
            "{:>7} {:>7} {:>18} {:>18} {:>12}",
            200,
            degree,
            format!("{} ({})", ms(t_yk), yk),
            naive_str,
            rows
        )
        .unwrap();
    }
    writeln!(
        out,
        "shape: Yannakakis flat; naive grows ~degree^len and aborts"
    )
    .unwrap();
    out
}

/// E10b — cyclic evaluation (hw = 2): hypertree pipeline vs naive.
pub fn e10b() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E10b: Boolean cycle query C6 (hw = 2), hypertree vs naive"
    )
    .unwrap();
    writeln!(
        out,
        "{:>7} {:>7} {:>18} {:>18}",
        "domain", "degree", "hypertree", "naive"
    )
    .unwrap();
    let q = families::cycle(6);
    let plan = eval::Strategy::plan_with_width(&q, 2).expect("cycles have hw 2");
    for degree in [2usize, 4, 8] {
        let mut rng = random::rng(200 + degree as u64);
        let db = random::blowup_database(&mut rng, 6, 150, degree);
        let t0 = Instant::now();
        let hd_ans = plan.boolean(&q, &db, &eval::Unlimited).unwrap();
        let t_hd = t0.elapsed();
        let t0 = Instant::now();
        let naive = eval::naive::evaluate_boolean(&q, &db, JoinOrder::AsWritten, 1 << 22);
        let naive_str = match naive {
            Ok(b) => {
                assert_eq!(b, hd_ans);
                format!("{} ({b})", ms(t0.elapsed()))
            }
            Err(eval::naive::NaiveError::BudgetExceeded { .. }) => {
                format!("abort {}", ms(t0.elapsed()))
            }
            Err(e) => panic!("{e}"),
        };
        writeln!(
            out,
            "{:>7} {:>7} {:>18} {:>18}",
            150,
            degree,
            format!("{} ({hd_ans})", ms(t_hd)),
            naive_str
        )
        .unwrap();
    }
    out
}

/// E11 — Theorems 5.16/5.18: polynomial recognition; sequential vs
/// parallel; versus the exponential qw search.
pub fn e11() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E11: k-decomp scaling on cycles (k = 2, pruned candidates)"
    )
    .unwrap();
    writeln!(out, "{:>4} {:>12} {:>12}", "n", "sequential", "parallel").unwrap();
    for n in [8usize, 16, 32, 64] {
        let h = families::cycle(n).hypergraph();
        let t0 = Instant::now();
        assert!(kdecomp::decide(&h, 2, CandidateMode::Pruned));
        let t_seq = t0.elapsed();
        let t0 = Instant::now();
        assert!(parallel::decide_parallel(&h, 2, CandidateMode::Pruned));
        let t_par = t0.elapsed();
        writeln!(out, "{:>4} {:>12} {:>12}", n, ms(t_seq), ms(t_par)).unwrap();
    }
    writeln!(
        out,
        "\nexact qw search on Q5 vs hw check (the NP-hard contrast):"
    )
    .unwrap();
    let h5 = paper::q5().hypergraph();
    let t0 = Instant::now();
    let hw = opt::hypertree_width(&h5);
    let t_hw = t0.elapsed();
    let t0 = Instant::now();
    let qw = querydecomp::query_width(&h5, QW_BUDGET).unwrap();
    let t_qw = t0.elapsed();
    writeln!(
        out,
        "hw(Q5) = {hw} in {}; qw(Q5) = {qw} in {}",
        ms(t_hw),
        ms(t_qw)
    )
    .unwrap();
    out
}

/// E12 — Lemma 7.3: strict (m,k)-3PS construction cost and validity.
pub fn e12() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E12: strict (m,2)-3PS construction (Lemma 7.3: O(m²+km))"
    )
    .unwrap();
    writeln!(
        out,
        "{:>6} {:>8} {:>12} {:>16}",
        "m", "|S|", "construct", "strict?"
    )
    .unwrap();
    for m in [4usize, 8, 16, 32, 64] {
        let t0 = Instant::now();
        let s = tps::strict_3ps(m, 2);
        let t_build = t0.elapsed();
        let strict = if m <= 16 {
            s.is_strict_exhaustive().to_string()
        } else {
            "(skipped: O(c³))".to_string()
        };
        assert!(s.is_valid());
        writeln!(
            out,
            "{:>6} {:>8} {:>12} {:>16}",
            m,
            s.base_size(),
            ms(t_build),
            strict
        )
        .unwrap();
    }
    out
}

/// E13 — Corollary 5.20: output-polynomial enumeration.
pub fn e13() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E13: output-polynomial enumeration (path endpoints, fixed input)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>14}",
        "domain", "output", "time", "time/output"
    )
    .unwrap();
    let q = families::path_endpoints(4);
    for domain in [200u64, 400, 800, 1600] {
        let db = random::successor_database(4, domain);
        let t0 = Instant::now();
        let result = eval::evaluate(&q, &db).unwrap();
        let t = t0.elapsed();
        writeln!(
            out,
            "{:>8} {:>10} {:>12} {:>14}",
            domain,
            result.len(),
            ms(t),
            format!("{:.2}ns", t.as_nanos() as f64 / result.len().max(1) as f64)
        )
        .unwrap();
    }
    writeln!(
        out,
        "shape: time grows linearly with output (and input) size"
    )
    .unwrap();
    out
}

/// E14 — the Section 6 comparison table across decomposition methods.
pub fn e14() -> String {
    use hypergraph::baselines;
    let mut out = String::new();
    writeln!(
        out,
        "E14: width comparison across methods (Section 6 / [21])"
    )
    .unwrap();
    writeln!(
        out,
        "{:<16} {:>4} {:>6} {:>9} {:>8} {:>7} {:>7}",
        "query", "hw", "qw", "tw(prim)", "tw(inc)", "bicomp", "cutset"
    )
    .unwrap();
    let rows: Vec<(String, cq::ConjunctiveQuery)> = vec![
        ("cycle(8)".into(), families::cycle(8)),
        ("grid(3,3)".into(), families::grid(3, 3)),
        ("clique(5)".into(), families::clique(5)),
        ("hypercycle(4,3)".into(), families::hypercycle(4, 3)),
        ("hypercycle(4,4)".into(), families::hypercycle(4, 4)),
        ("Q5".into(), paper::q5()),
        ("Qn(3)".into(), families::qn(3)),
        ("Qn(5)".into(), families::qn(5)),
    ];
    for (name, q) in rows {
        let h = q.hypergraph();
        let hw = opt::hypertree_width(&h);
        let qw = match querydecomp::query_width(&h, QW_BUDGET) {
            Ok(w) => w.to_string(),
            Err(_) => "budget".into(),
        };
        let primal = graph::primal_graph(&h);
        let (tw_p, ep) = treewidth::treewidth(&primal);
        let inc = graph::incidence_graph(&h);
        let (tw_i, ei) = treewidth::treewidth(&inc);
        writeln!(
            out,
            "{:<16} {:>4} {:>6} {:>8}{} {:>7}{} {:>7} {:>7}",
            name,
            hw,
            qw,
            tw_p,
            if ep { " " } else { "~" },
            tw_i,
            if ei { " " } else { "~" },
            baselines::biconnected_width(&primal),
            baselines::cycle_cutset_width(&primal),
        )
        .unwrap();
    }
    writeln!(
        out,
        "(~ = heuristic bound) hw is the lowest column throughout — the §6 claim"
    )
    .unwrap();
    out
}

/// An experiment entry: id plus the function that regenerates it.
pub type Experiment = (&'static str, fn() -> String);

/// All experiment ids in order.
pub const ALL: &[Experiment] = &[
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10a", e10a),
    ("e10b", e10b),
    ("e11", e11),
    ("e12", e12),
    ("e13", e13),
    ("e14", e14),
];

#[cfg(test)]
mod tests {
    #[test]
    fn quick_experiments_run() {
        // The fast subset is exercised as a smoke test; the heavy ones run
        // via the binary / integration suite.
        for id in ["e1", "e3", "e5", "e12"] {
            let f = super::ALL.iter().find(|(n, _)| *n == id).unwrap().1;
            let out = f();
            assert!(!out.is_empty());
        }
    }
}
