//! Hash-sharding: partition a relation by a join key and run the
//! probe-heavy operators (join, semijoin) shard-parallel with
//! byte-identical results.
//!
//! **Measured and parked.** Nothing in the workspace executes queries
//! through this module any more: on the 2-core reference host, on the
//! largest node-relation pair the benchmark serves (80 802 rows), two
//! shards lose to the sequential kernels by 7.1× (join) and 1.8×
//! (semijoin), so the intra-query sharding axis was removed from `eval`
//! and `service`. [`join_sharded`] and [`retain_semijoin_cols_sharded`]
//! stay only because the perf ledger (`ledger/`) times them as
//! `relation.join_sharded2_ns_per_row` /
//! `relation.semijoin_sharded2_ns_per_row`; they go when a later
//! benchmark change drops those two columns, and come back into the
//! pipeline only with a ledger row where two shards beat sequential.
//!
//! The scheme:
//!
//! * the **index side** of an operator is hash-partitioned by its join
//!   columns ([`partition_by_cols`]) and each shard gets its own packed
//!   [`crate::Index`] — shard indexes build concurrently and are smaller,
//!   so build *and* probe parallelize;
//! * the **scan side** is never moved: workers walk contiguous row
//!   chunks in original order, route each row to its shard by the same
//!   hash, and chunk outputs are concatenated in chunk order. Row order,
//!   flags, and therefore the bytes of the result are identical to the
//!   sequential operator's.
//!
//! Shard routing hashes the **raw `u64` column values** ([`shard_of`]),
//! not the packed-`u128` index keys: packing widths are derived per
//! relation from column maxima, so packed keys from the two sides of a
//! join are not comparable — the raw-value hash is, and both sides agree
//! on it. Within a shard, probing still goes through the packed-key
//! [`crate::Index`] machinery.
//!
//! Thresholding (when sharding is worth the partition pass) is the
//! caller's job; these operators just honor the `shards` they are given,
//! falling back to the sequential operator for `shards <= 1`, empty join
//! keys, and nullary relations.

use crate::index::Index;
use crate::ops;
use crate::relation::{Relation, Value};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The shard of `row` under `shards`-way hash-partitioning on `cols`.
///
/// Deterministic, platform-independent, and defined on the raw values
/// (see the module docs for why packed index keys cannot be used): an
/// FxHash-style multiply-mix folded over the key columns.
#[inline]
pub fn shard_of(row: &[Value], cols: &[usize], shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let mut h: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    for &c in cols {
        h = (h ^ row[c].0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
    }
    (h % shards as u64) as usize
}

/// Hash-partition `rel` into `shards` relations on the key columns
/// `cols`: row `r` goes to shard [`shard_of`]`(r, cols, shards)`.
///
/// Within each shard the rows keep their relative order, so each part is
/// a subsequence of `rel` and inherits its sorted/distinct flags. Rows
/// with equal keys land in the same shard — the partition is key-disjoint
/// across shards, which is what lets per-shard join/semijoin results
/// compose exactly.
///
/// With `cols` empty (or a nullary relation) every row shares the empty
/// key: everything lands in shard 0.
pub fn partition_by_cols(rel: &Relation, cols: &[usize], shards: usize) -> Vec<Relation> {
    assert!(shards > 0, "shard count must be positive");
    let mut parts: Vec<Relation> = (0..shards).map(|_| Relation::new(rel.arity())).collect();
    if rel.arity() == 0 || cols.is_empty() {
        parts[0] = rel.clone();
        return parts;
    }
    for row in rel.rows() {
        parts[shard_of(row, cols, shards)].extend_row(row);
    }
    for p in &mut parts {
        p.set_flags(rel.is_sorted_set(), rel.is_set());
    }
    parts
}

/// Concatenate `parts` (in order) into one relation.
///
/// The inverse of scan-side chunking: when the parts are per-chunk
/// operator outputs, concatenation in chunk order reproduces the
/// sequential operator's row order exactly. Flags are conservative —
/// callers that can prove more (the sharded join below) settle them
/// separately.
pub fn concat(parts: &[Relation]) -> Relation {
    concat_with_flags(parts, false, false)
}

/// [`concat`] with the output flags asserted by the caller.
fn concat_with_flags(parts: &[Relation], sorted: bool, distinct: bool) -> Relation {
    let arity = parts.first().map_or(0, |p| p.arity());
    let rows: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = Relation::with_capacity(arity, rows);
    for p in parts {
        out.extend_all_rows(p);
    }
    out.set_flags(sorted, distinct);
    out
}

/// `left.len()` split into `k` contiguous near-equal ranges (fewer when
/// `n < k`; none when `n == 0`).
fn chunk_ranges(n: usize, k: usize) -> Vec<Range<usize>> {
    let k = k.min(n).max(1);
    if n == 0 {
        return Vec::new();
    }
    let base = n / k;
    let extra = n % k;
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Scoped-thread fork/join over a flat work list with an atomic cursor —
/// the `hypertree_core::parallel` idiom, replicated here because this
/// substrate crate sits below `hypertree_core` in the dependency order.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            // A panicked worker re-raises with its original payload so
            // the service request boundary (`catch_unwind`) reports the
            // real fault, not a second-hand join error.
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, r) in part {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        // archlint::allow(panic-free-request-path, reason = "the work cursor claims each index exactly once; an empty slot is a scheduler bug, not data")
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

/// Partition the index side and build one packed index per shard, in
/// parallel. The empty-key / nullary cases never reach this (callers
/// fall back to the sequential operator first).
fn shard_indexes(
    right: &Relation,
    right_cols: &[usize],
    shards: usize,
) -> Vec<(Relation, Arc<Index>)> {
    let parts = partition_by_cols(right, right_cols, shards);
    parallel_map(&parts, shards, |_, p| p.index_on(right_cols))
        .into_iter()
        .zip(parts)
        .map(|(idx, part)| (part, idx))
        .collect()
}

/// [`ops::join`] with the right side hash-partitioned on the join key and
/// the left side probed in parallel over contiguous row chunks.
///
/// Byte-identical to `ops::join(left, right, on, right_keep)`: chunk
/// outputs concatenate in left-row order, per-row match order follows the
/// shard index's group layout (row ids ascending, exactly as in the whole
/// relation), and the structural output flags are computed by the same
/// rules.
// archlint::allow(single-exec-path, reason = "measured-and-parked kernel the perf ledger times as relation.join_sharded2_ns_per_row; no request path calls it (see the module docs)")
pub fn join_sharded(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
    right_keep: &[usize],
    shards: usize,
) -> Relation {
    if shards <= 1 || on.is_empty() || left.arity() + right_keep.len() == 0 {
        // Cartesian products and nullary outputs have no key to shard on.
        return ops::join(left, right, on, right_keep);
    }
    let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let indexed = shard_indexes(right, &right_cols, shards);

    // `sorted` is always false here: it requires an empty `on`, which
    // took the fallback above.
    let (_, distinct) = ops::join_output_flags(left, right, on, right_keep);

    let chunks = chunk_ranges(left.len(), shards);
    let outs: Vec<Relation> = parallel_map(&chunks, shards, |_, range| {
        let mut rows = 0usize;
        for i in range.clone() {
            let lrow = left.row(i);
            let (part, idx) = &indexed[shard_of(lrow, &left_cols, shards)];
            let _ = part;
            rows += idx.probe_rows(lrow, &left_cols).len();
        }
        let mut out = Relation::with_capacity(left.arity() + right_keep.len(), rows);
        for i in range.clone() {
            let lrow = left.row(i);
            let (part, idx) = &indexed[shard_of(lrow, &left_cols, shards)];
            for &ri in idx.probe_rows(lrow, &left_cols) {
                out.extend_joined(lrow, part.row(ri as usize), right_keep);
            }
        }
        out
    });
    concat_with_flags(&outs, false, distinct)
}

/// [`Relation::retain_semijoin_cols`] with the right side hash-partitioned
/// on the join key and the left side probed in parallel over contiguous
/// row chunks. In-place and order-preserving like its sequential
/// counterpart, hence byte-identical.
// archlint::allow(single-exec-path, reason = "measured-and-parked kernel the perf ledger times as relation.semijoin_sharded2_ns_per_row; no request path calls it (see the module docs)")
pub fn retain_semijoin_cols_sharded(
    left: &mut Relation,
    left_cols: &[usize],
    right: &Relation,
    right_cols: &[usize],
    shards: usize,
) {
    assert_eq!(left_cols.len(), right_cols.len(), "join column mismatch");
    if shards <= 1 || left_cols.is_empty() || left.len() <= 1 {
        left.retain_semijoin_cols(left_cols, right, right_cols);
        return;
    }
    let indexed = shard_indexes(right, right_cols, shards);
    let chunks = chunk_ranges(left.len(), shards);
    let keeps: Vec<Vec<bool>> = {
        // Shadow `left` immutably for the probe phase.
        let left = &*left;
        parallel_map(&chunks, shards, |_, range| {
            range
                .clone()
                .map(|i| {
                    let lrow = left.row(i);
                    let (_, idx) = &indexed[shard_of(lrow, left_cols, shards)];
                    idx.contains(lrow, left_cols)
                })
                .collect()
        })
    };
    let mut flags = keeps.iter().flatten();
    // archlint::allow(panic-free-request-path, reason = "keep-flags are built one per row by the chunk loop above")
    left.retain(|_| *flags.next().expect("one flag per row"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(rows: &[[u64; 2]]) -> Relation {
        Relation::from_rows(2, rows)
    }

    fn sample(n: u64) -> Relation {
        let rows: Vec<[u64; 2]> = (0..n).map(|i| [i % 17, i % 11]).collect();
        Relation::from_rows(2, &rows)
    }

    #[test]
    fn partition_is_exhaustive_and_key_disjoint() {
        let r = sample(200);
        for shards in [1, 2, 3, 7, 1000] {
            let parts = partition_by_cols(&r, &[0], shards);
            assert_eq!(parts.len(), shards);
            assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), r.len());
            // Equal keys never straddle shards.
            for (s, p) in parts.iter().enumerate() {
                for row in p.rows() {
                    assert_eq!(shard_of(row, &[0], shards), s);
                }
                assert!(p.is_sorted_set(), "subsequence of a sorted set");
            }
        }
    }

    #[test]
    fn partition_with_empty_key_or_nullary_goes_to_shard_zero() {
        let r = sample(10);
        let parts = partition_by_cols(&r, &[], 4);
        assert_eq!(parts[0].len(), 10);
        assert!(parts[1..].iter().all(|p| p.is_empty()));
        let mut truth = Relation::new(0);
        truth.push_row(&[]);
        let parts = partition_by_cols(&truth, &[], 3);
        assert_eq!(parts[0].len(), 1);
    }

    #[test]
    fn concat_restores_partition_order_within_shards() {
        let r = sample(50);
        let parts = partition_by_cols(&r, &[1], 4);
        let merged = concat(&parts);
        assert_eq!(merged.len(), r.len());
        // Same multiset of rows (order is by shard, not original).
        let mut a = merged.clone();
        let mut b = r.clone();
        a.dedup();
        b.dedup();
        assert_eq!(a, b);
    }

    #[test]
    fn join_sharded_is_byte_identical_to_join() {
        let a = sample(300);
        let b_rows: Vec<[u64; 2]> = (0..120u64).map(|i| [i % 17, i]).collect();
        let b = Relation::from_rows(2, &b_rows);
        let seq = ops::join(&a, &b, &[(0, 0)], &[1]);
        for shards in [1, 2, 3, 8, 1000] {
            let par = join_sharded(&a, &b, &[(0, 0)], &[1], shards);
            assert_eq!(par, seq, "shards = {shards}");
            assert_eq!(par.is_set(), seq.is_set());
            assert_eq!(par.is_sorted_set(), seq.is_sorted_set());
            let rows_par: Vec<_> = par.rows().collect();
            let rows_seq: Vec<_> = seq.rows().collect();
            assert_eq!(rows_par, rows_seq, "row order must match");
        }
    }

    #[test]
    fn join_sharded_multi_column_and_wide_values() {
        let big = u64::MAX;
        let a = Relation::from_rows(3, &[[big, big - 1, 1], [big, big, 2], [0, 1, 3]]);
        let b = Relation::from_rows(3, &[[big, big - 1, 10], [0, 1, 11], [5, 5, 12]]);
        let on = [(0, 0), (1, 1)];
        let seq = ops::join(&a, &b, &on, &[2]);
        for shards in [2, 5] {
            let par = join_sharded(&a, &b, &on, &[2], shards);
            assert_eq!(par, seq);
            assert_eq!(
                par.rows().collect::<Vec<_>>(),
                seq.rows().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn join_sharded_falls_back_on_cartesian_and_nullary() {
        let a = rel(&[[1, 2], [3, 4]]);
        let b = Relation::from_rows(1, &[[7], [8]]);
        assert_eq!(
            join_sharded(&a, &b, &[], &[0], 4),
            ops::join(&a, &b, &[], &[0])
        );
        let mut truth = Relation::new(0);
        truth.push_row(&[]);
        assert_eq!(
            join_sharded(&truth, &truth, &[], &[], 4),
            ops::join(&truth, &truth, &[], &[])
        );
    }

    #[test]
    fn semijoin_sharded_is_byte_identical_in_place() {
        let base = sample(257);
        let filter_rows: Vec<[u64; 2]> = (0..40u64).map(|i| [i % 17, 3]).collect();
        let filter = Relation::from_rows(2, &filter_rows);
        let mut seq = base.clone();
        seq.retain_semijoin_cols(&[0], &filter, &[0]);
        for shards in [1, 2, 3, 9, 999] {
            let mut par = base.clone();
            retain_semijoin_cols_sharded(&mut par, &[0], &filter, &[0], shards);
            assert_eq!(par, seq, "shards = {shards}");
            assert_eq!(
                par.rows().collect::<Vec<_>>(),
                seq.rows().collect::<Vec<_>>()
            );
            assert_eq!(par.is_sorted_set(), seq.is_sorted_set());
        }
    }

    #[test]
    fn semijoin_sharded_against_empty_filter_empties() {
        let mut r = sample(20);
        retain_semijoin_cols_sharded(&mut r, &[0], &Relation::new(1), &[0], 4);
        assert!(r.is_empty());
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (n, k) in [(0, 3), (1, 3), (10, 3), (3, 10), (100, 7)] {
            let ranges = chunk_ranges(n, k);
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, n);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(!r.is_empty());
                next = r.end;
            }
        }
    }
}
