//! Property suite for the allocation-free join kernel: the cached-index
//! join, packed/wide key probes, and the in-place retain operators must be
//! row-set-equivalent to naive nested-loop reference operators on random
//! relations — including arity-0/1 relations, duplicate-heavy inputs, and
//! huge values that overflow the packed-key representation.
//!
//! Each kernel has one body, generic over its [`CostMeter`]; the plain
//! names run it under [`NoMeter`]. The last two properties drive that
//! body under a counting meter and a tripping meter as well: untripped
//! runs must be byte-identical to the unmetered one (and so to the
//! reference), tripped runs must return the trip — or, for a truncating
//! join, a sound prefix — and leave every input byte-identical.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use relation::{ops, CostMeter, NoMeter, Relation, Trip, Value, METER_CHUNK};
use std::cell::Cell;

/// The value universe deliberately mixes a tiny interned-style domain
/// (heavy duplication, packed keys) with huge values (forcing the wide
/// key fallback for multi-column indexes).
const UNIVERSE: [u64; 6] = [0, 1, 2, 3, u64::MAX - 1, 1 << 55];

/// Random row material: up to `max_rows` rows of 4 universe indices; each
/// test slices the prefix it needs for the arity under test.
fn arb_rows(max_rows: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(
        proptest::collection::vec(0..UNIVERSE.len() as u64, 4..=4),
        0..=max_rows,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|row| row.into_iter().map(|i| UNIVERSE[i as usize]).collect())
            .collect()
    })
}

fn rel_of(rows: &[Vec<u64>], arity: usize) -> Relation {
    let sliced: Vec<&[u64]> = rows.iter().map(|r| &r[..arity]).collect();
    Relation::from_rows(arity, &sliced)
}

fn sorted_rows(r: &Relation) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
    out.sort();
    out
}

/// Reference nested-loop join.
fn join_reference(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
    right_keep: &[usize],
) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for l in left.rows() {
        for r in right.rows() {
            if on.iter().all(|&(a, b)| l[a] == r[b]) {
                let mut row = l.to_vec();
                row.extend(right_keep.iter().map(|&c| r[c]));
                out.push(row);
            }
        }
    }
    out.sort();
    out
}

/// A live meter that never trips and counts what it is told.
#[derive(Default)]
struct Counting {
    rows: Cell<u64>,
    bytes: Cell<u64>,
}

impl CostMeter for Counting {
    fn tick(&self, units: u64) -> Result<(), Trip> {
        self.rows.set(self.rows.get() + units);
        Ok(())
    }

    fn charge_bytes(&self, bytes: u64) -> Result<(), Trip> {
        self.bytes.set(self.bytes.get() + bytes);
        Ok(())
    }
}

/// A live meter whose `after`-th call (polls and charges share one
/// count, from 0) and every later one fails: a deadline or cancellation
/// surfaces at a poll, a memory trip at a charge.
struct Tripping {
    after: u64,
    calls: Cell<u64>,
    trip: Trip,
}

impl Tripping {
    fn new(after: u64, trip: Trip) -> Self {
        Tripping {
            after,
            calls: Cell::new(0),
            trip,
        }
    }

    fn call(&self, fails_here: bool) -> Result<(), Trip> {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if n >= self.after && fails_here {
            return Err(self.trip);
        }
        Ok(())
    }
}

impl CostMeter for Tripping {
    fn tick(&self, _units: u64) -> Result<(), Trip> {
        self.call(!matches!(self.trip, Trip::Memory { .. }))
    }

    fn charge_bytes(&self, _bytes: u64) -> Result<(), Trip> {
        self.call(matches!(self.trip, Trip::Memory { .. }))
    }
}

const TRIPS: [Trip; 3] = [Trip::Deadline, Trip::Cancelled, Trip::Memory { bytes: 1 }];

/// Rows exactly as stored, plus the structural flags: what
/// "byte-identical" means for a relation.
fn stored(r: &Relation) -> (Vec<Vec<Value>>, bool, bool) {
    (
        r.rows().map(<[Value]>::to_vec).collect(),
        r.is_set(),
        r.is_sorted_set(),
    )
}

/// `rel` with every row repeated under `copies` distinct values of a new
/// leading column — enough rows to cross [`METER_CHUNK`], so the live
/// meters take their chunked, two-pass and instalment branches.
fn blown_up(rel: &Relation, copies: u64) -> Relation {
    let mut out = Relation::with_capacity(rel.arity() + 1, rel.len() * copies as usize);
    for id in 0..copies {
        for row in rel.rows() {
            let mut wide = vec![Value(id)];
            wide.extend_from_slice(row);
            out.push_row(&wide);
        }
    }
    out
}

/// Every kernel under every meter, on one (left, right) pair.
fn check_metered_kernels(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
    keep: &[usize],
    trip_points: &[u64],
) -> Result<(), TestCaseError> {
    let reference = join_reference(left, right, on, keep);
    let plain = ops::join(left, right, on, keep);
    prop_assert_eq!(sorted_rows(&plain), reference);
    let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let mut semi = left.clone();
    semi.retain_semijoin_cols(&left_cols, right, &right_cols);
    let proj_cols: Vec<usize> = (0..left.arity()).rev().step_by(2).collect();
    let projected = ops::project(left, &proj_cols);
    let mut scrambled = Relation::with_capacity(left.arity(), 2 * left.len());
    for i in (0..left.len()).rev().chain(0..left.len()) {
        scrambled.push_row(left.row(i));
    }
    let mut deduped = scrambled.clone();
    deduped.dedup();

    // Untripped: NoMeter and a live counting meter, both join modes.
    for truncate in [false, true] {
        let (none, t) = ops::join_metered(left, right, on, keep, &NoMeter, truncate).unwrap();
        prop_assert!(!t);
        prop_assert_eq!(stored(&none), stored(&plain));
        let meter = Counting::default();
        let (live, t) = ops::join_metered(left, right, on, keep, &meter, truncate).unwrap();
        prop_assert!(!t);
        prop_assert_eq!(stored(&live), stored(&plain));
        prop_assert!(meter.bytes.get() >= 8 * plain.size() as u64);
        if plain.arity() > 0 {
            prop_assert_eq!(meter.rows.get(), (left.len() + plain.len()) as u64);
        }
    }
    let meter = Counting::default();
    let mut live = left.clone();
    live.retain_semijoin_cols_metered(&left_cols, right, &right_cols, &meter)
        .unwrap();
    prop_assert_eq!(stored(&live), stored(&semi));
    prop_assert_eq!(
        stored(&ops::project_metered(left, &proj_cols, &meter).unwrap()),
        stored(&projected)
    );
    let mut live = scrambled.clone();
    live.dedup_metered(&meter).unwrap();
    prop_assert_eq!(stored(&live), stored(&deduped));

    // Tripped: the typed trip or the full answer, never anything else,
    // and in-place kernels leave their input as it was.
    for &after in trip_points {
        for trip in TRIPS {
            for truncate in [false, true] {
                let meter = Tripping::new(after, trip);
                match ops::join_metered(left, right, on, keep, &meter, truncate) {
                    Err(got) => prop_assert_eq!(got, trip),
                    Ok((out, false)) => prop_assert_eq!(stored(&out), stored(&plain)),
                    Ok((out, true)) => {
                        prop_assert!(truncate && matches!(trip, Trip::Memory { .. }));
                        prop_assert!(out.len() < plain.len());
                        let full = stored(&plain).0;
                        prop_assert_eq!(&stored(&out).0[..], &full[..out.len()]);
                    }
                }
            }
            let mut live = left.clone();
            match live.retain_semijoin_cols_metered(
                &left_cols,
                right,
                &right_cols,
                &Tripping::new(after, trip),
            ) {
                Err(got) => {
                    prop_assert_eq!(got, trip);
                    prop_assert_eq!(stored(&live), stored(left));
                }
                Ok(()) => prop_assert_eq!(stored(&live), stored(&semi)),
            }
            match ops::project_metered(left, &proj_cols, &Tripping::new(after, trip)) {
                Err(got) => prop_assert_eq!(got, trip),
                Ok(out) => prop_assert_eq!(stored(&out), stored(&projected)),
            }
            let mut live = scrambled.clone();
            match live.dedup_metered(&Tripping::new(after, trip)) {
                Err(got) => {
                    prop_assert_eq!(got, trip);
                    prop_assert_eq!(stored(&live), stored(&scrambled));
                }
                Ok(()) => prop_assert_eq!(stored(&live), stored(&deduped)),
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Cached-index hash join ≡ nested-loop join across arities (0–3
    /// wide), join-column counts (0–2), and both key representations.
    #[test]
    fn join_matches_reference_across_shapes(
        lrows in arb_rows(10),
        rrows in arb_rows(10),
    ) {
        for (la, ra, on, keep) in [
            (2, 2, vec![(1usize, 0usize)], vec![1usize]),
            (3, 3, vec![(0, 0), (2, 1)], vec![2]),
            (1, 1, vec![(0, 0)], vec![]),
            (2, 1, vec![], vec![0]),          // cartesian
            (0, 2, vec![], vec![0, 1]),       // nullary left
            (2, 0, vec![], vec![]),           // nullary right
            (3, 3, vec![(0, 1)], vec![0, 0]), // duplicated keep column
        ] {
            let left = rel_of(&lrows, la);
            let right = rel_of(&rrows, ra);
            let joined = ops::join(&left, &right, &on, &keep);
            prop_assert_eq!(joined.arity(), la + keep.len());
            prop_assert_eq!(
                sorted_rows(&joined),
                join_reference(&left, &right, &on, &keep)
            );
        }
    }

    /// In-place `retain_semijoin` ≡ the reference filter, and it agrees
    /// with the materializing `ops::semijoin`.
    #[test]
    fn retain_semijoin_matches_reference(
        lrows in arb_rows(12),
        rrows in arb_rows(12),
    ) {
        for (la, ra, on) in [
            (2, 2, vec![(0usize, 0usize)]),
            (3, 2, vec![(2, 0), (0, 1)]),
            (1, 3, vec![(0, 2)]),
            (2, 1, vec![]), // boolean guard
            (0, 1, vec![]), // nullary left
        ] {
            let left = rel_of(&lrows, la);
            let right = rel_of(&rrows, ra);
            let mut retained = left.clone();
            retained.retain_semijoin(&on, &right);
            // Reference: keep exactly the left rows with some match.
            let expected: Vec<Vec<Value>> = left
                .rows()
                .filter(|l| {
                    right
                        .rows()
                        .any(|r| on.iter().all(|&(a, b)| l[a] == r[b]))
                        && !right.is_empty()
                })
                .map(|l| l.to_vec())
                .collect();
            let mut expected = expected;
            expected.sort();
            prop_assert_eq!(sorted_rows(&retained), expected.clone());
            let materialized = ops::semijoin(&left, &right, &on);
            prop_assert_eq!(sorted_rows(&materialized), expected);
        }
    }

    /// Index probes group exactly the rows with equal keys, under both
    /// packed and wide representations.
    #[test]
    fn index_groups_are_exact(rows in arb_rows(14)) {
        for cols in [vec![0usize], vec![1, 0], vec![0, 1, 2, 3]] {
            let rel = rel_of(&rows, 4.max(cols.iter().max().map_or(0, |&c| c + 1)));
            let index = rel.index_on(&cols);
            // Every row is found by probing with itself.
            for (i, row) in rel.rows().enumerate() {
                let group = index.probe_rows(row, &cols);
                prop_assert!(group.contains(&(i as u32)));
                // The group holds exactly the rows agreeing on the key.
                for &j in group {
                    let other = rel.row(j as usize);
                    prop_assert!(cols.iter().all(|&c| other[c] == row[c]));
                }
                let matching = rel
                    .rows()
                    .filter(|other| cols.iter().all(|&c| other[c] == row[c]))
                    .count();
                prop_assert_eq!(group.len(), matching);
            }
            // The groups partition the rows.
            let total: usize = index.groups().map(<[u32]>::len).sum();
            prop_assert_eq!(total, rel.len());
        }
    }

    /// Sort-based dedup: set semantics, ascending duplicate-free output,
    /// and agreement between the packed-key and comparator paths.
    #[test]
    fn dedup_is_sorted_set_semantics(rows in arb_rows(16)) {
        for arity in [1usize, 2, 4] {
            // Duplicate-heavy: append the rows twice.
            let mut doubled: Vec<&[u64]> =
                rows.iter().map(|r| &r[..arity]).collect();
            doubled.extend(rows.iter().map(|r| &r[..arity]));
            let mut rel = Relation::new(arity);
            for row in &doubled {
                let vals: Vec<Value> = row.iter().map(|&v| Value(v)).collect();
                rel.push_row(&vals);
            }
            rel.dedup();
            prop_assert!(rel.is_sorted_set());
            let got = sorted_rows(&rel);
            // dedup emits ascending order already.
            prop_assert_eq!(&got, &rel.rows().map(<[Value]>::to_vec).collect::<Vec<_>>());
            let mut expected: Vec<Vec<Value>> = doubled
                .iter()
                .map(|r| r.iter().map(|&v| Value(v)).collect())
                .collect();
            expected.sort();
            expected.dedup();
            prop_assert_eq!(got, expected);
        }
    }

    /// `retain_select` / `retain_select_eq` ≡ their materializing
    /// counterparts, and `project` (including the permutation fast path)
    /// ≡ the reference projection.
    #[test]
    fn selections_and_projections_match(rows in arb_rows(14)) {
        let rel = rel_of(&rows, 3);
        let v = Value(UNIVERSE[1]);
        let mut sel = rel.clone();
        sel.retain_select(0, v);
        let expected: Vec<Vec<Value>> = rel
            .rows()
            .filter(|r| r[0] == v)
            .map(|r| r.to_vec())
            .collect();
        prop_assert_eq!(sorted_rows(&sel), {
            let mut e = expected;
            e.sort();
            e
        });

        let mut sel_eq = rel.clone();
        sel_eq.retain_select_eq(0, 2);
        prop_assert_eq!(
            sorted_rows(&sel_eq),
            sorted_rows(&ops::select_eq(&rel, 0, 2))
        );

        for cols in [vec![2usize, 0, 1], vec![0usize, 2], vec![1usize, 1], vec![]] {
            let projected = ops::project(&rel, &cols);
            let mut expected: Vec<Vec<Value>> = rel
                .rows()
                .map(|r| cols.iter().map(|&c| r[c]).collect())
                .collect();
            expected.sort();
            expected.dedup();
            prop_assert_eq!(sorted_rows(&projected), expected);
        }
    }

    /// The structural distinct/sorted claims made by the operators are
    /// truthful: whenever a flag is set, the data backs it up.
    #[test]
    fn advertised_flags_are_truthful(
        lrows in arb_rows(8),
        rrows in arb_rows(8),
    ) {
        let left = rel_of(&lrows, 2);
        let right = rel_of(&rrows, 2);
        for (on, keep) in [
            (vec![(0usize, 0usize)], vec![1usize]),
            (vec![], vec![0, 1]),
            (vec![(1, 1)], vec![]),
        ] {
            let out = ops::join(&left, &right, &on, &keep);
            let rows = sorted_rows(&out);
            if out.is_set() {
                let mut uniq = rows.clone();
                uniq.dedup();
                prop_assert_eq!(rows.len(), uniq.len(), "distinct flag lied");
            }
            if out.is_sorted_set() && out.arity() > 0 {
                let as_stored: Vec<Vec<Value>> =
                    out.rows().map(<[Value]>::to_vec).collect();
                let mut sorted = as_stored.clone();
                sorted.sort();
                sorted.dedup();
                prop_assert_eq!(as_stored, sorted, "sorted flag lied");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The metered kernels under `NoMeter`, a counting meter and a
    /// tripping meter, across the same shapes as the unmetered join
    /// property: all within one meter chunk, so a live meter polls once
    /// per pass.
    #[test]
    fn metered_kernels_match_reference_under_every_meter(
        lrows in arb_rows(10),
        rrows in arb_rows(10),
    ) {
        for (la, ra, on, keep) in [
            (2, 2, vec![(1usize, 0usize)], vec![1usize]),
            (3, 3, vec![(0, 0), (2, 1)], vec![2]),
            (2, 1, vec![], vec![0]),    // cartesian
            (0, 2, vec![], vec![0, 1]), // nullary left
            (2, 0, vec![], vec![]),     // nullary right
            (0, 0, vec![], vec![]),     // nullary output
        ] {
            let left = rel_of(&lrows, la);
            let right = rel_of(&rrows, ra);
            check_metered_kernels(&left, &right, &on, &keep, &[0, 1, 2, 3])?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same, past `METER_CHUNK` rows on the left and in the output:
    /// chunked probe polls, the two-pass semijoin and the join's
    /// instalment loop, tripped at early, middle and late polls.
    #[test]
    fn metered_kernels_match_reference_past_one_chunk(
        lrows in arb_rows(10),
        rrows in arb_rows(6),
        extra in 1u64..400,
    ) {
        let small = rel_of(&lrows, 2);
        prop_assume!(!small.is_empty());
        let copies = METER_CHUNK as u64 / small.len() as u64 + extra;
        let left = blown_up(&small, copies);
        let right = rel_of(&rrows, 2);
        for (on, keep) in [
            (vec![(1usize, 0usize)], vec![1usize]),
            (vec![], vec![0]), // cartesian
        ] {
            check_metered_kernels(&left, &right, &on, &keep, &[0, 2, 3, 5, 9])?;
        }
    }
}
