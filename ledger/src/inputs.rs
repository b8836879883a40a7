//! Seeded input generation: query texts and database snapshots for the
//! five workloads.
//!
//! Shapes come from the repo's own generators (`workloads::families`,
//! `workloads::large`, `workloads::random`); this module only re-heads
//! them (the family queries are head-less, and a head-less enumeration
//! is a Boolean in disguise), gives every shape its own predicate
//! namespace (`cycle` and `hypercycle` both emit `r{i}` at different
//! arities), and renders the request text. The program under test sees
//! nothing but these texts and databases.

use cq::{canonical_query, ConjunctiveQuery, QueryBuilder, Term};
use hypergraph::{acyclic, Ix, VertexId};
use rand::rngs::StdRng;
use rand::RngExt;
use relation::{Database, Relation, Value};
use workloads::{families, large, random};

/// One query of a working set.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Stable name, also the predicate prefix (`cycle16`, `grid4x5`, …).
    pub name: String,
    /// The headed, namespaced query.
    pub query: ConjunctiveQuery,
    /// `query` rendered as request text.
    pub text: String,
}

/// Re-render `q` with predicates `{pred_prefix}{pred}`, variables
/// `{var_tag}{i}` (interned order is kept, so every `var_tag` yields the
/// same plan key) and the given head variables.
fn rebuild(
    q: &ConjunctiveQuery,
    pred_prefix: &str,
    var_tag: &str,
    head: &[VertexId],
) -> ConjunctiveQuery {
    let mut b = QueryBuilder::default();
    let vars: Vec<VertexId> = (0..q.num_vars())
        .map(|i| b.var(&format!("{var_tag}{i}")))
        .collect();
    b.head_raw(
        "ans",
        head.iter().map(|v| Term::Var(vars[v.index()])).collect(),
    );
    for atom in q.atoms() {
        let terms = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => Term::Var(vars[v.index()]),
                Term::Const(c) => Term::Const(*c),
            })
            .collect();
        b.atom(format!("{pred_prefix}{}", atom.predicate), terms);
    }
    b.build()
}

/// `q` with its head replaced by `head` (variable ids are kept).
pub fn with_head(q: &ConjunctiveQuery, head: &[VertexId]) -> ConjunctiveQuery {
    rebuild(q, "", "X", head)
}

/// Re-head and namespace a generated query: predicates become
/// `{name}_{pred}` and the head lists two variables — the first
/// variable of the first atom and of the middle atom — so enumerations
/// project.
fn shape(name: &str, q: &ConjunctiveQuery) -> Shape {
    let first_var = |i: usize| q.atom(i).variables()[0];
    let mut head = vec![first_var(0)];
    let mid = first_var(q.atoms().len() / 2);
    if mid != head[0] {
        head.push(mid);
    }
    let query = rebuild(q, &format!("{name}_"), "X", &head);
    Shape {
        name: name.to_string(),
        text: query.to_string(),
        query,
    }
}

/// The α-renamed twin of `s`: same plan key, different text.
pub fn alpha_twin(s: &Shape) -> Shape {
    let query = rebuild(&s.query, "", "Y", &s.query.head_vars());
    Shape {
        name: s.name.clone(),
        text: query.to_string(),
        query,
    }
}

/// One database holding every shape's relations (predicate namespaces
/// are disjoint by construction). Each relation's `rows` rows are dealt
/// from random permutations of `0..domain`, one per column and round, so
/// every value occurs `rows / domain` times in every column, rounded up
/// or down: the size of a join along a shared variable is then almost
/// the same whatever the seed, and mostly the few answers that close a
/// cycle vary — with
/// `workloads::random::planted_database`'s independent draws the
/// heavy-tailed answer counts moved a workload's medians by ±15 %
/// between seeds, more than any regression bound could absorb. One
/// consistent tuple per atom is planted on top, so every query is
/// satisfiable.
pub fn database(rng: &mut StdRng, shapes: &[Shape], domain: u64, rows: usize) -> Database {
    let mut db = Database::new();
    for s in shapes {
        let assignment: Vec<u64> = (0..s.query.num_vars())
            .map(|_| rng.random_range(0..domain))
            .collect();
        for atom in s.query.atoms() {
            let arity = atom.arity();
            let mut rel = Relation::with_capacity(arity, rows + 1);
            let mut row = vec![Value(0); arity];
            for round in 0..rows.div_ceil(domain as usize) {
                let dealt = (rows - round * domain as usize).min(domain as usize);
                let columns: Vec<Vec<u64>> = (0..arity)
                    .map(|_| {
                        let mut perm: Vec<u64> = (0..domain).collect();
                        shuffle(rng, &mut perm);
                        perm
                    })
                    .collect();
                for i in 0..dealt {
                    for (cell, column) in row.iter_mut().zip(&columns) {
                        *cell = Value(column[i]);
                    }
                    rel.push_row(&row);
                }
            }
            for (cell, term) in row.iter_mut().zip(&atom.terms) {
                *cell = Value(match term {
                    Term::Var(v) => assignment[v.index()],
                    Term::Const(c) => *c,
                });
            }
            rel.push_row(&row);
            rel.dedup();
            db.insert(atom.predicate.clone(), rel);
        }
    }
    db
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.random_range(0..=i));
    }
}

/// `copies` namespaced copies of each named query, copy-major (`a`
/// copies first). A copy is the same text over its own relations:
/// serving several averages out how lucky one data instance is (join
/// sizes, hash collisions), which moved a single instance's latency by
/// up to 20 % between seeds.
fn replicate(named: Vec<(String, ConjunctiveQuery)>, copies: usize) -> Vec<Shape> {
    (0..copies)
        .flat_map(|c| {
            let tag = (b'a' + c as u8) as char;
            named
                .iter()
                .map(move |(name, q)| shape(&format!("{name}{tag}"), q))
        })
        .collect()
}

/// `hot_front`'s working set: long texts whose evaluation is trivial —
/// cycles 16..=40, grids 4×4..4×7, 3-uniform hypercycles 10..=18 and the
/// 150-atom `band/n120_m150_w8` canonical query, `copies` of each.
pub fn front_shapes(copies: usize) -> Vec<Shape> {
    let mut named = Vec::new();
    for n in (16..=40).step_by(2) {
        named.push((format!("cycle{n}"), families::cycle(n)));
    }
    for h in 4..=7 {
        named.push((format!("grid4x{h}"), families::grid(4, h)));
    }
    for n in (10..=18).step_by(2) {
        named.push((format!("hcycle{n}"), families::hypercycle(n, 3)));
    }
    let band = large::large_tier().swap_remove(0);
    assert_eq!(band.name, "band/n120_m150_w8", "large tier order changed");
    named.push(("band120".to_string(), canonical_query(&band.h)));
    replicate(named, copies)
}

/// `hot_data`'s working set: short texts over real data — two cycles, a
/// 3-uniform hypercycle, a 3×3 grid, and an acyclic control, `copies` of
/// each. An odd number of shapes on purpose: with every (shape,
/// operation) pair served equally often, a per-operation median over an
/// even number of well-separated latency modes would flip between the
/// two middle ones from run to run.
pub fn data_shapes(copies: usize) -> Vec<Shape> {
    let named = vec![
        ("cycle6".to_string(), families::cycle(6)),
        ("cycle8".to_string(), families::cycle(8)),
        ("hcycle6".to_string(), families::hypercycle(6, 3)),
        ("grid3x3".to_string(), families::grid(3, 3)),
        ("path8".to_string(), families::path_endpoints(8)),
    ];
    replicate(named, copies)
}

/// Distinct shapes per `cold_plan` pass (the plan cache holds 256).
pub const COLD_SHAPES: usize = 192;

/// `cold_plan`'s working set: [`COLD_SHAPES`] distinct cyclic shapes — half random
/// queries (8–14 variables, 8–16 atoms, arity ≤ 3), the rest cycles,
/// grids 3×k / 4×k, hypercycles and banded CSPs with ≤ 120 variables.
/// Every shape has its own predicate namespace, so each is a distinct
/// plan key *and* a distinct decomposition-cache key.
///
/// The set is part of the workload's definition, like a fixed query
/// suite: its generator seed is constant and `--seed` varies only data,
/// order and operation assignment. Planning cost is heavy-tailed in the
/// shape, and a seed-dependent set moved the median by ±15 % between
/// seeds.
pub fn cold_shapes() -> Vec<Shape> {
    let rng = &mut random::rng(0xC01D);
    let mut out: Vec<Shape> = Vec::with_capacity(COLD_SHAPES);
    let push = |out: &mut Vec<Shape>, kind: &str, q: ConjunctiveQuery| {
        let name = format!("{kind}{}", out.len());
        out.push(shape(&name, &q));
    };
    for i in 0..COLD_SHAPES {
        match i % 8 {
            0 | 2 | 4 | 6 => {
                // Redraw until cyclic: an acyclic shape never reaches
                // the decomposition cache the workload must miss.
                let q = loop {
                    let vars = rng.random_range(8..=14);
                    let atoms = rng.random_range(8..=16);
                    let q = random::random_query(rng, vars, atoms, 3);
                    if acyclic::join_tree(&q.hypergraph()).is_none() {
                        break q;
                    }
                };
                push(&mut out, "rand", q);
            }
            1 => push(&mut out, "cycle", families::cycle(5 + i / 8)),
            3 => push(
                &mut out,
                "grid",
                families::grid(3 + (i / 8) % 2, 3 + i / 16),
            ),
            5 => push(
                &mut out,
                "hcycle",
                families::hypercycle(6 + i / 8, 3 + (i / 8) % 2),
            ),
            _ => {
                let vars = rng.random_range(40..=120);
                let h = large::banded_csp(rng, vars, vars + vars / 4, 8, 3, true);
                push(&mut out, "band", canonical_query(&h));
            }
        }
    }
    out
}
