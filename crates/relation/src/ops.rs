//! Relational-algebra operators: projection, selection, hash join and
//! semijoin. These are the building blocks of Yannakakis' algorithm and of
//! the Lemma 4.6 reduction in the `eval` crate.
//!
//! All operators are positional: the caller supplies column indices. The
//! `eval` crate owns the mapping between query variables and columns.
//!
//! The operators probe through each relation's cached [`crate::Index`]
//! (packed keys, no per-row allocation; see [`crate::Relation::index_on`]),
//! so repeated operations against the same relation share one index
//! build. Filtering operators that do not need a fresh relation have
//! in-place counterparts on [`Relation`] itself
//! ([`Relation::retain_semijoin`], [`Relation::retain_select`]), which the
//! evaluation pipeline prefers.

use crate::meter::{untripped, CostMeter, NoMeter, Trip, METER_CHUNK};
use crate::relation::{Relation, Value};

/// `π_cols(r)` with set semantics (duplicates removed). Columns may repeat
/// and reorder. [`project_metered`] without a meter.
pub fn project(r: &Relation, cols: &[usize]) -> Relation {
    untripped(project_metered(r, cols, &NoMeter))
}

/// `true` iff `cols` names each of `0..cols.len()` exactly once.
fn is_permutation(cols: &[usize]) -> bool {
    let mut seen = [false; 64];
    let mut seen_vec;
    let seen: &mut [bool] = if cols.len() <= 64 {
        &mut seen[..cols.len()]
    } else {
        seen_vec = vec![false; cols.len()];
        &mut seen_vec
    };
    for &c in cols {
        if c >= seen.len() || seen[c] {
            return false;
        }
        seen[c] = true;
    }
    true
}

/// `σ_{col = v}(r)`. See [`Relation::retain_select`] for the in-place
/// form.
pub fn select_const(r: &Relation, col: usize, v: Value) -> Relation {
    let mut out = r.clone();
    out.retain_select(col, v);
    out
}

/// `σ_{a = b}(r)` for two columns. See [`Relation::retain_select_eq`] for
/// the in-place form.
pub fn select_eq(r: &Relation, a: usize, b: usize) -> Relation {
    let mut out = r.clone();
    out.retain_select_eq(a, b);
    out
}

/// Hash join of `left` and `right` on the column pairs `on`
/// (`left[l] = right[r]` for each `(l, r)` in `on`). The output schema is
/// all columns of `left` followed by `right_keep` columns of `right`.
/// With `on` empty this is a cartesian product. [`join_metered`] without a
/// meter.
pub fn join(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
    right_keep: &[usize],
) -> Relation {
    untripped(join_metered(left, right, on, right_keep, &NoMeter, false)).0
}

/// Structural flags `(sorted, distinct)` for the output of a join. The
/// output is a set when both inputs are sets and the kept right columns,
/// together with the join columns, cover every right column (two matching
/// right rows then can only produce equal output rows by being equal
/// themselves); it is additionally sorted for cartesian products of
/// sorted sets that keep the right columns verbatim. Shared by
/// [`join_metered`] and the sharded kernel so the rule cannot drift
/// between them.
pub(crate) fn join_output_flags(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
    right_keep: &[usize],
) -> (bool, bool) {
    let mut covered = vec![false; right.arity()];
    for &(_, rc) in on {
        covered[rc] = true;
    }
    for &c in right_keep {
        covered[c] = true;
    }
    let covers_right = covered.iter().all(|&b| b);
    let distinct = left.is_set() && right.is_set() && covers_right;
    let keep_identity =
        right_keep.len() == right.arity() && right_keep.iter().enumerate().all(|(i, &c)| i == c);
    let sorted = on.is_empty() && keep_identity && left.is_sorted_set() && right.is_sorted_set();
    (sorted, distinct)
}

/// The join kernel, under a [`CostMeter`]. The output is sized exactly by
/// one cheap probe pass (no index, no pass at all for a cartesian
/// product), so a large result lives in a single allocation instead of a
/// doubling realloc chain; under a live meter the output is charged
/// through `meter.charge_bytes` before it is allocated, and both passes
/// poll `meter.tick` once per [`METER_CHUNK`] rows (the build pass
/// between left rows, so a trip is observed within one chunk of output
/// or one left row's matches, whichever is more).
///
/// Returns `(output, truncated)`. With `truncate_on_memory == false` a
/// memory trip aborts the join (`Err(Trip::Memory)`). With it `true`, a
/// live meter is charged the output in [`METER_CHUNK`]-row instalments
/// and a memory trip stops the build instead: the rows already built are
/// returned with `truncated == true`. A truncated output is a *prefix* of
/// the full output, hence a sound subset — the degraded-enumeration mode
/// of the governance ladder. Deadline and cancellation trips always
/// abort; there is no useful partial answer to a caller that has run out
/// of time.
pub fn join_metered<M: CostMeter>(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
    right_keep: &[usize],
    meter: &M,
    truncate_on_memory: bool,
) -> Result<(Relation, bool), Trip> {
    let mut out = Relation::new(left.arity() + right_keep.len());
    if out.arity() == 0 {
        // Both sides nullary: the output is `{()}` iff both are non-empty.
        meter.tick(1)?;
        if !left.is_empty() && !right.is_empty() {
            out.push_row(&[]);
        }
        return Ok((out, false));
    }
    let (sorted, distinct) = join_output_flags(left, right, on, right_keep);
    let row_bytes = (out.arity() * std::mem::size_of::<Value>()) as u64;
    let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    // A cartesian product is one conceptual group holding every right
    // row: no index, no hashing.
    let index = (!on.is_empty()).then(|| right.index_on(&right_cols));

    let out_rows = match &index {
        None => {
            meter.tick(left.len() as u64)?;
            left.len() * right.len()
        }
        Some(index) => {
            let mut rows = 0usize;
            for (i, lrow) in left.rows().enumerate() {
                if M::LIVE && i.is_multiple_of(METER_CHUNK) {
                    meter.tick(METER_CHUNK.min(left.len() - i) as u64)?;
                }
                rows += index.probe_rows(lrow, &left_cols).len();
            }
            rows
        }
    };

    if !(M::LIVE && truncate_on_memory) {
        // One exact-size allocation, charged before it is made; a live
        // meter is polled between left rows, once per chunk built.
        meter.charge_bytes(out_rows as u64 * row_bytes)?;
        out.reserve_rows(out_rows);
        let mut unpolled = 0usize;
        let mut poll = |built: usize| -> Result<(), Trip> {
            unpolled += built;
            if M::LIVE && unpolled >= METER_CHUNK {
                meter.tick(std::mem::take(&mut unpolled) as u64)?;
            }
            Ok(())
        };
        match &index {
            None => {
                for lrow in left.rows() {
                    for rrow in right.rows() {
                        out.extend_joined(lrow, rrow, right_keep);
                    }
                    poll(right.len())?;
                }
            }
            Some(index) => {
                for lrow in left.rows() {
                    let matches = index.probe_rows(lrow, &left_cols);
                    for &ri in matches {
                        out.extend_joined(lrow, right.row(ri as usize), right_keep);
                    }
                    poll(matches.len())?;
                }
            }
        }
        meter.tick(unpolled as u64)?;
        out.set_flags(sorted, distinct);
        return Ok((out, false));
    }

    // Truncating build under a live meter: the output is charged, polled
    // for and reserved in instalments of one chunk, so a memory trip
    // leaves a prefix behind instead of nothing.
    let mut truncated = false;
    let (mut built, mut granted) = (0usize, 0usize);
    'build: for lrow in left.rows() {
        let matches = index.as_ref().map(|ix| ix.probe_rows(lrow, &left_cols));
        let n = matches.map_or(right.len(), <[u32]>::len);
        let mut done = 0usize;
        while done < n {
            if built == granted {
                let next = METER_CHUNK.min(out_rows - built);
                meter.tick(next as u64)?;
                match meter.charge_bytes(next as u64 * row_bytes) {
                    Ok(()) => out.reserve_rows(next),
                    Err(Trip::Memory { .. }) => {
                        truncated = true;
                        break 'build;
                    }
                    Err(trip) => return Err(trip),
                }
                granted += next;
            }
            let take = (n - done).min(granted - built);
            match matches {
                Some(ids) => {
                    for &ri in &ids[done..done + take] {
                        out.extend_joined(lrow, right.row(ri as usize), right_keep);
                    }
                }
                None => {
                    for ri in done..done + take {
                        out.extend_joined(lrow, right.row(ri), right_keep);
                    }
                }
            }
            done += take;
            built += take;
        }
    }
    out.set_flags(sorted, distinct);
    Ok((out, truncated))
}

/// The projection kernel, under a [`CostMeter`]: charges the projected
/// copy, polls once, and deduplicates through
/// [`Relation::dedup_metered`]. Projections never truncate — they only
/// ever shrink their input, so the join kernel is where degradation pays
/// off.
///
/// Fast paths when the input is known to be a set: an identity column
/// list is answered by a clone (sharing the cached indexes), and a column
/// list that merely *permutes* the columns copies rows without any
/// deduplication — a permutation of a set is still a set. The Lemma 4.6
/// reduction's final per-node projections are exactly such permutations.
pub fn project_metered<M: CostMeter>(
    r: &Relation,
    cols: &[usize],
    meter: &M,
) -> Result<Relation, Trip> {
    meter.tick(r.len() as u64)?;
    meter.charge_bytes((r.len() * cols.len() * std::mem::size_of::<Value>()) as u64)?;
    if r.is_set() && cols.len() == r.arity() && is_permutation(cols) {
        if cols.iter().enumerate().all(|(i, &c)| i == c) {
            return Ok(r.clone());
        }
        let mut out = Relation::with_capacity(cols.len(), r.len());
        for row in r.rows() {
            out.extend_projected(row, cols);
        }
        out.set_flags(false, true);
        return Ok(out);
    }
    let mut out = Relation::with_capacity(cols.len(), r.len());
    let mut buf: Vec<Value> = Vec::with_capacity(cols.len());
    for row in r.rows() {
        buf.clear();
        buf.extend(cols.iter().map(|&c| row[c]));
        out.push_row(&buf);
    }
    out.dedup_metered(meter)?;
    Ok(out)
}

/// Semijoin `left ⋉ right` on the column pairs `on`: the rows of `left`
/// with at least one matching row in `right`. With `on` empty the result is
/// `left` if `right` is non-empty and empty otherwise — exactly the Boolean
/// cross-component behaviour Yannakakis needs on stitched join trees.
///
/// Materializes a new relation; the evaluation pipeline uses the in-place
/// [`Relation::retain_semijoin`] instead.
pub fn semijoin(left: &Relation, right: &Relation, on: &[(usize, usize)]) -> Relation {
    let mut out = left.clone();
    out.retain_semijoin(on, right);
    out
}

/// Set union of two relations of equal arity.
pub fn union(a: &Relation, b: &Relation) -> Relation {
    assert_eq!(a.arity(), b.arity(), "union arity mismatch");
    let mut out = a.clone();
    for row in b.rows() {
        out.push_row(row);
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(rows: &[[u64; 2]]) -> Relation {
        Relation::from_rows(2, rows)
    }

    #[test]
    fn project_dedups_and_reorders() {
        let rel = r(&[[1, 10], [2, 10], [1, 10]]);
        let p = project(&rel, &[1]);
        assert_eq!(p.len(), 1);
        assert!(p.contains_row(&[Value(10)]));
        let swapped = project(&rel, &[1, 0]);
        assert!(swapped.contains_row(&[Value(10), Value(2)]));
        let dup = project(&rel, &[0, 0]);
        assert!(dup.contains_row(&[Value(1), Value(1)]));
        assert_eq!(dup.len(), 2);
        // Identity projection short-circuits but agrees.
        let id = project(&rel, &[0, 1]);
        assert_eq!(id, rel);
    }

    #[test]
    fn selections() {
        let rel = r(&[[1, 1], [1, 2], [2, 2]]);
        assert_eq!(select_const(&rel, 0, Value(1)).len(), 2);
        assert_eq!(select_eq(&rel, 0, 1).len(), 2);
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let a = r(&[[1, 10], [2, 20], [3, 30]]);
        let b = r(&[[10, 100], [10, 101], [30, 300]]);
        let j = join(&a, &b, &[(1, 0)], &[1]);
        assert_eq!(j.arity(), 3);
        assert_eq!(j.len(), 3);
        assert!(j.contains_row(&[Value(1), Value(10), Value(100)]));
        assert!(j.contains_row(&[Value(1), Value(10), Value(101)]));
        assert!(j.contains_row(&[Value(3), Value(30), Value(300)]));
    }

    #[test]
    fn join_on_multiple_columns() {
        let a = r(&[[1, 2], [1, 3]]);
        let b = r(&[[1, 2], [1, 3], [2, 2]]);
        let j = join(&a, &b, &[(0, 0), (1, 1)], &[]);
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn empty_on_is_cartesian_product() {
        let a = r(&[[1, 2], [3, 4]]);
        let b = Relation::from_rows(1, &[[7], [8], [9]]);
        let j = join(&a, &b, &[], &[0]);
        assert_eq!(j.len(), 6);
    }

    #[test]
    fn semijoin_filters() {
        let a = r(&[[1, 10], [2, 20], [3, 30]]);
        let b = Relation::from_rows(1, &[[10], [30]]);
        let s = semijoin(&a, &b, &[(1, 0)]);
        assert_eq!(s.len(), 2);
        assert!(!s.contains_row(&[Value(2), Value(20)]));
    }

    #[test]
    fn semijoin_without_shared_columns_is_boolean_guard() {
        let a = r(&[[1, 2]]);
        let nonempty = Relation::from_rows(1, &[[5]]);
        let empty = Relation::new(1);
        assert_eq!(semijoin(&a, &nonempty, &[]).len(), 1);
        assert_eq!(semijoin(&a, &empty, &[]).len(), 0);
    }

    #[test]
    fn union_dedups() {
        let a = r(&[[1, 2]]);
        let b = r(&[[1, 2], [3, 4]]);
        assert_eq!(union(&a, &b).len(), 2);
    }

    #[test]
    fn nullary_interactions() {
        let mut truth = Relation::new(0);
        truth.push_row(&[]);
        let a = r(&[[1, 2]]);
        // Joining against a nullary truth value keeps rows.
        let j = join(&a, &truth, &[], &[]);
        assert_eq!(j.len(), 1);
        let falsum = Relation::new(0);
        assert_eq!(join(&a, &falsum, &[], &[]).len(), 0);
        assert_eq!(semijoin(&a, &truth, &[]).len(), 1);
        assert_eq!(semijoin(&a, &falsum, &[]).len(), 0);
    }

    #[test]
    fn governed_join_deadline_trip_aborts_without_output() {
        use crate::meter::{testing::TripAfter, Trip};
        let rows: Vec<[u64; 2]> = (0..100).map(|i| [i, i]).collect();
        let a = Relation::from_rows(2, &rows);
        let meter = TripAfter::new(0, Trip::Deadline);
        let err = join_metered(&a, &a, &[(0, 0)], &[1], &meter, true).unwrap_err();
        assert_eq!(err, Trip::Deadline);
    }

    #[test]
    fn governed_join_memory_trip_truncates_to_a_sound_prefix() {
        use crate::meter::{testing::ByteQuota, Trip};
        let rows: Vec<[u64; 1]> = (0..100).map(|i| [i]).collect();
        let a = Relation::from_rows(1, &rows);
        // Cartesian product: 10_000 two-value rows, far past the quota —
        // which still grants the first METER_CHUNK-row instalment, so the
        // partial result is non-trivial.
        let quota = ByteQuota::new(70_000);
        let (out, truncated) = join_metered(&a, &a, &[], &[0], &quota, true).unwrap();
        assert!(truncated, "quota must have tripped");
        assert!(!out.is_empty(), "truncation keeps the rows already built");
        assert!(out.len() < 10_000);
        let full = join(&a, &a, &[], &[0]);
        // The partial output is a prefix of the full output.
        for (got, want) in out.rows().zip(full.rows()) {
            assert_eq!(got, want);
        }
        // Without truncation the same quota is a hard error.
        let quota = ByteQuota::new(1024);
        let err = join_metered(&a, &a, &[], &[0], &quota, false).unwrap_err();
        assert!(matches!(err, Trip::Memory { bytes } if bytes > 1024));
    }

    #[test]
    fn governed_project_matches_and_trips() {
        use crate::meter::{testing::ByteQuota, Trip};
        let rel = r(&[[1, 10], [2, 10], [1, 10]]);
        let roomy = ByteQuota::new(1 << 20);
        let p = project_metered(&rel, &[1], &roomy).unwrap();
        assert_eq!(p, project(&rel, &[1]));
        let tiny = ByteQuota::new(4);
        let err = project_metered(&rel, &[1], &tiny).unwrap_err();
        assert!(matches!(err, Trip::Memory { .. }));
    }

    #[test]
    fn join_with_huge_values_uses_wide_keys() {
        let big = u64::MAX;
        let a = Relation::from_rows(3, &[[big, big - 1, 1], [big, big, 2]]);
        let b = Relation::from_rows(3, &[[big, big - 1, 10], [0, 0, 11]]);
        let j = join(&a, &b, &[(0, 0), (1, 1), (2, 2)], &[]);
        assert!(j.is_empty());
        let j2 = join(&a, &b, &[(0, 0), (1, 1)], &[2]);
        assert_eq!(j2.len(), 1);
        assert!(j2.contains_row(&[Value(big), Value(big - 1), Value(1), Value(10)]));
    }
}
