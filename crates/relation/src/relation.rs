//! Relations: flat, row-major tuple stores with cached hash indexes.

use crate::index::Index;
use crate::meter::{untripped, CostMeter, NoMeter, Trip, METER_CHUNK};
use parking_lot::RwLock;
use rustc_hash::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// An atomic database value. The universe `U` of a database instance
/// (Section 2.1 of the paper) is encoded as `u64`; symbolic domains are
/// interned to integers by the caller.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(pub u64);

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value(v)
    }
}

/// A relation instance: a multiset of `arity`-tuples stored row-major.
///
/// Duplicate rows are representable (intermediate results may produce
/// them); [`Relation::dedup`] restores set semantics where the algorithms
/// need it.
///
/// # Storage layout and caches
///
/// Rows live contiguously in one `Vec<Value>` (row-major, no per-row
/// allocation). Two lazily maintained layers sit on top:
///
/// * an **index cache**: [`Relation::index_on`] memoizes one [`Index`] per
///   distinct column list behind a `parking_lot::RwLock`, so repeated
///   joins/semijoins against the same relation share one build. Every
///   `&mut self` method that changes the rows clears the cache; read-only
///   probes never do.
/// * two **order/duplicate flags**, both conservative (`false` only means
///   "unknown"): `distinct` records that the rows form a set, and
///   `sorted` additionally records ascending lexicographic order (the
///   postcondition of [`Relation::dedup`]; `sorted` implies `distinct`).
///   Row-filtering operations preserve both; the join operator proves
///   them structurally for its outputs. They make later `dedup` calls
///   free, let projections that merely permute columns skip
///   deduplication entirely, and turn [`Relation::contains_row`] into a
///   binary search on sorted relations.
///
/// Cloning a relation clones the cached indexes by `Arc`, which is cheap
/// and sound (the clone starts with identical rows; each copy invalidates
/// only its own cache on mutation).
#[derive(Default)]
pub struct Relation {
    arity: usize,
    data: Vec<Value>,
    /// Presence flag for the empty tuple of a nullary relation: a 0-ary
    /// relation is either `{}` or `{()}`, and its rows carry no data cells.
    nullary: bool,
    /// Rows are duplicate-free (conservative).
    distinct: bool,
    /// Rows are sorted ascending and duplicate-free (conservative;
    /// implies `distinct`).
    sorted: bool,
    /// Memoized indexes per column list; cleared on mutation.
    cache: RwLock<FxHashMap<Box<[usize]>, Arc<Index>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            arity: self.arity,
            data: self.data.clone(),
            nullary: self.nullary,
            distinct: self.distinct,
            sorted: self.sorted,
            cache: RwLock::new(self.cache.read().clone()),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        // Same notion as the former derived impl: row storage equality.
        // The sorted flag and index cache are derived state and excluded.
        self.arity == other.arity && self.nullary == other.nullary && self.data == other.data
    }
}

impl Eq for Relation {}

impl Relation {
    /// An empty relation of the given arity.
    #[inline]
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            data: Vec::new(),
            nullary: false,
            distinct: true,
            sorted: true,
            cache: RwLock::default(),
        }
    }

    /// An empty relation with space reserved for `rows` tuples.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        Relation {
            arity,
            data: Vec::with_capacity(arity * rows),
            nullary: false,
            distinct: true,
            sorted: true,
            cache: RwLock::default(),
        }
    }

    /// Build from explicit rows (deduplicated).
    pub fn from_rows<R: AsRef<[u64]>>(arity: usize, rows: &[R]) -> Self {
        let mut r = Relation::with_capacity(arity, rows.len());
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), arity, "row arity mismatch");
            if arity == 0 {
                r.nullary = true;
            } else {
                r.data.extend(row.iter().map(|&v| Value(v)));
            }
        }
        r.sorted = false;
        r.distinct = false;
        r.dedup();
        r
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        match self.arity {
            0 => usize::from(self.nullary),
            arity => self.data.len() / arity,
        }
    }

    /// `true` iff the relation has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` iff the rows are known to be sorted ascending with no
    /// duplicates (see the type docs; `false` only means "unknown").
    #[inline]
    pub fn is_sorted_set(&self) -> bool {
        self.arity == 0 || self.sorted
    }

    /// `true` iff the rows are known to be duplicate-free (see the type
    /// docs; `false` only means "unknown").
    #[inline]
    pub fn is_set(&self) -> bool {
        self.arity == 0 || self.distinct
    }

    /// Drop all rows (and cached indexes).
    pub fn clear(&mut self) {
        self.data.clear();
        self.nullary = false;
        self.distinct = true;
        self.sorted = true;
        self.invalidate();
    }

    /// Clear the memoized indexes; every mutating method calls this.
    #[inline]
    fn invalidate(&mut self) {
        let cache = self.cache.get_mut();
        if !cache.is_empty() {
            cache.clear();
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        if self.arity == 0 {
            if !self.nullary {
                self.nullary = true;
                self.invalidate();
            }
            return;
        }
        if self.sorted {
            let n = self.len();
            if n > 0 && self.row(n - 1) >= row {
                self.sorted = false;
                self.distinct = false;
            }
        } else {
            self.distinct = false;
        }
        self.data.extend_from_slice(row);
        self.invalidate();
    }

    /// The `i`-th row.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate over rows.
    #[inline]
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        // A nullary relation's one row is the empty slice `data[0..0]`.
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Set-semantics membership test: binary search on sorted relations,
    /// linear scan otherwise.
    pub fn contains_row(&self, row: &[Value]) -> bool {
        if self.arity == 0 {
            return self.nullary && row.is_empty();
        }
        if self.sorted {
            let mut lo = 0usize;
            let mut hi = self.len();
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                match self.row(mid).cmp(row) {
                    std::cmp::Ordering::Equal => return true,
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                }
            }
            return false;
        }
        self.rows().any(|r| r == row)
    }

    /// Remove duplicate rows. A no-op when the rows are already known to
    /// be a set; otherwise sort-based: afterwards the rows are in
    /// ascending lexicographic order and [`Relation::is_sorted_set`]
    /// holds, so a second `dedup` (and every dedup after a row-filtering
    /// operation) is free.
    ///
    /// When the whole row bit-packs into a `u128` (per-column widths from
    /// the column maxima — always for arity ≤ 2 and for any arity over
    /// small interned domains), the sort runs over packed keys, whose
    /// order is exactly the lexicographic row order; wider rows fall back
    /// to slice comparisons.
    ///
    /// This is [`Relation::dedup_metered`] without a meter.
    pub fn dedup(&mut self) {
        untripped(self.dedup_metered(&NoMeter))
    }

    /// The dedup kernel, under a [`CostMeter`]: polls once up front and
    /// charges the rebuilt row store (plus the sort scratch) before
    /// running. The poll granularity is the whole call rather than
    /// [`METER_CHUNK`] — dedup rebuilds `self.data` in one atomic swap, so
    /// there is no prefix worth keeping, and its inputs are bounded by
    /// joins that were themselves metered.
    ///
    /// Abort-safe: a trip surfaces before the sort starts and the swap at
    /// the end is the only mutation, so `Err` leaves `self` untouched.
    pub fn dedup_metered<M: CostMeter>(&mut self, meter: &M) -> Result<(), Trip> {
        if self.arity == 0 || self.distinct || self.sorted {
            return Ok(());
        }
        meter.tick(self.len() as u64)?;
        // Rebuilt row store + (key, index) sort scratch, both ~|data|.
        meter.charge_bytes(2 * (self.data.len() * std::mem::size_of::<Value>()) as u64)?;
        let n = self.len();
        let arity = self.arity;
        let mut maxes = vec![0u64; arity];
        for row in self.rows() {
            for (m, v) in maxes.iter_mut().zip(row) {
                *m = (*m).max(v.0);
            }
        }
        let widths: Vec<u32> = maxes
            .iter()
            .map(|m| (64 - m.leading_zeros()).max(1))
            .collect();
        let mut data = Vec::with_capacity(self.data.len());
        if widths.iter().sum::<u32>() <= 128 {
            // Fixed-width concatenation is order-isomorphic to
            // lexicographic comparison of the rows.
            let mut keyed: Vec<(u128, u32)> = (0..n)
                .map(|i| {
                    let row = self.row(i);
                    let mut key: u128 = 0;
                    for (v, &w) in row.iter().zip(&widths) {
                        key = (key << w) | v.0 as u128;
                    }
                    (key, i as u32)
                })
                .collect();
            keyed.sort_unstable();
            let mut prev: Option<u128> = None;
            for &(key, i) in &keyed {
                if prev == Some(key) {
                    continue;
                }
                data.extend_from_slice(self.row(i as usize));
                prev = Some(key);
            }
        } else {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_unstable_by(|&a, &b| self.row(a as usize).cmp(self.row(b as usize)));
            let mut prev: Option<u32> = None;
            for &i in &order {
                if let Some(p) = prev {
                    if self.row(p as usize) == self.row(i as usize) {
                        continue;
                    }
                }
                data.extend_from_slice(self.row(i as usize));
                prev = Some(i);
            }
        }
        self.data = data;
        self.distinct = true;
        self.sorted = true;
        self.invalidate();
        Ok(())
    }

    /// The memoized hash index of this relation on `cols` (building it on
    /// first use). Probing the returned [`Index`] allocates nothing; see
    /// the [`crate::index`] module docs for the key representation.
    pub fn index_on(&self, cols: &[usize]) -> Arc<Index> {
        if let Some(idx) = self.cache.read().get(cols) {
            return Arc::clone(idx);
        }
        let idx = Arc::new(Index::build(self, cols));
        Arc::clone(
            self.cache.write().entry(cols.into()).or_insert(idx), // a racing builder may have beaten us; keep theirs
        )
    }

    /// Keep only the rows satisfying `pred`, in place (no reallocation).
    /// Order is preserved, so the sorted flag survives; cached indexes are
    /// invalidated only if rows were actually removed.
    pub fn retain(&mut self, mut pred: impl FnMut(&[Value]) -> bool) {
        if self.arity == 0 {
            if self.nullary && !pred(&[]) {
                self.nullary = false;
                self.invalidate();
            }
            return;
        }
        let arity = self.arity;
        let n = self.len();
        let mut write = 0usize;
        for i in 0..n {
            let start = i * arity;
            if pred(&self.data[start..start + arity]) {
                if write != start {
                    self.data.copy_within(start..start + arity, write);
                }
                write += arity;
            }
        }
        if write != self.data.len() {
            self.data.truncate(write);
            self.invalidate();
        }
    }

    /// In-place semijoin `self ⋉ right` on the column pairs `on`
    /// (`self[l] = right[r]` for each `(l, r)`): keep exactly the rows
    /// with at least one match in `right`. With `on` empty this is the
    /// Boolean guard (keep everything iff `right` is non-empty). Uses
    /// `right`'s cached index; nothing is materialized.
    pub fn retain_semijoin(&mut self, on: &[(usize, usize)], right: &Relation) {
        if on.is_empty() {
            if right.is_empty() {
                self.clear();
            }
            return;
        }
        let left_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
        let right_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        self.retain_semijoin_cols(&left_cols, right, &right_cols);
    }

    /// [`Relation::retain_semijoin`] with the column lists already split
    /// out — the form the evaluation pipeline precomputes per join-tree
    /// edge. [`Relation::retain_semijoin_cols_metered`] without a meter.
    pub fn retain_semijoin_cols(
        &mut self,
        left_cols: &[usize],
        right: &Relation,
        right_cols: &[usize],
    ) {
        untripped(self.retain_semijoin_cols_metered(left_cols, right, right_cols, &NoMeter))
    }

    /// The semijoin kernel, under a [`CostMeter`].
    ///
    /// Abort-safe by construction: every poll that can trip happens
    /// *before* the first mutation, so `Err` guarantees `self` is
    /// untouched and the next query sees an uncorrupted relation. A
    /// relation within one chunk — or any relation when the meter is not
    /// live — polls exactly once up front and then runs the single-pass
    /// in-place compaction (no scratch, no second scan: the hot case on
    /// microsecond-scale queries); a larger one under a live meter probes
    /// over `&self` into a charged flag vector, polling once per
    /// [`METER_CHUNK`] rows, and compacts only once every row has been
    /// probed.
    pub fn retain_semijoin_cols_metered<M: CostMeter>(
        &mut self,
        left_cols: &[usize],
        right: &Relation,
        right_cols: &[usize],
        meter: &M,
    ) -> Result<(), Trip> {
        assert_eq!(left_cols.len(), right_cols.len(), "join column mismatch");
        if left_cols.is_empty() {
            meter.tick(1)?;
            if right.is_empty() {
                self.clear();
            }
            return Ok(());
        }
        let n = self.len();
        if !M::LIVE || n <= METER_CHUNK {
            meter.tick(n as u64)?;
            let index = right.index_on(right_cols);
            self.retain(|row| index.contains(row, left_cols));
            return Ok(());
        }
        let index = right.index_on(right_cols);
        meter.charge_bytes(n as u64)?; // keep-flag scratch, one byte per row
        let mut keep = vec![false; n];
        for (i, flag) in keep.iter_mut().enumerate() {
            if i.is_multiple_of(METER_CHUNK) {
                meter.tick(METER_CHUNK.min(n - i) as u64)?;
            }
            *flag = index.contains(self.row(i), left_cols);
        }
        let mut row = 0;
        self.retain(|_| {
            row += 1;
            keep[row - 1]
        });
        Ok(())
    }

    /// Append the concatenation of `lrow` and the `keep` columns of
    /// `rrow` — the hash-join inner loop, writing straight into the row
    /// store. Crate-internal: flags are settled once by the caller via
    /// [`Relation::set_flags`] after the bulk load.
    #[inline]
    pub(crate) fn extend_joined(&mut self, lrow: &[Value], rrow: &[Value], keep: &[usize]) {
        debug_assert_eq!(lrow.len() + keep.len(), self.arity, "row arity mismatch");
        self.data.extend_from_slice(lrow);
        self.data.extend(keep.iter().map(|&c| rrow[c]));
    }

    /// Append `row` projected onto `cols` — the projection inner loop.
    /// Crate-internal; same contract as [`Relation::extend_joined`].
    #[inline]
    pub(crate) fn extend_projected(&mut self, row: &[Value], cols: &[usize]) {
        debug_assert_eq!(cols.len(), self.arity, "row arity mismatch");
        self.data.extend(cols.iter().map(|&c| row[c]));
    }

    /// Append `row` verbatim — the bulk-scatter inner loop of
    /// [`crate::shard`]. Crate-internal; same contract as
    /// [`Relation::extend_joined`].
    #[inline]
    pub(crate) fn extend_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity, "row arity mismatch");
        self.data.extend_from_slice(row);
    }

    /// Append every row of `other` verbatim, preserving order — the
    /// shard-merge inner loop of [`crate::shard`]. Crate-internal; same
    /// contract as [`Relation::extend_joined`].
    pub(crate) fn extend_all_rows(&mut self, other: &Relation) {
        debug_assert_eq!(other.arity, self.arity, "row arity mismatch");
        if self.arity == 0 {
            self.nullary |= other.nullary;
            return;
        }
        self.data.extend_from_slice(&other.data);
    }

    /// Reserve space for `rows` additional rows.
    #[inline]
    pub(crate) fn reserve_rows(&mut self, rows: usize) {
        self.data.reserve_exact(rows * self.arity);
    }

    /// Settle the order/duplicate flags after a bulk load, and drop any
    /// cached indexes. The caller vouches for the claims (`sorted` is
    /// widened to imply `distinct`).
    #[inline]
    pub(crate) fn set_flags(&mut self, sorted: bool, distinct: bool) {
        self.sorted = sorted;
        self.distinct = distinct || sorted;
        self.invalidate();
    }

    /// In-place selection `σ_{col = v}`.
    pub fn retain_select(&mut self, col: usize, v: Value) {
        self.retain(|row| row[col] == v);
    }

    /// In-place selection `σ_{a = b}` over two columns.
    pub fn retain_select_eq(&mut self, a: usize, b: usize) {
        self.retain(|row| row[a] == row[b]);
    }

    /// Total number of cells (rows × arity); the paper's `‖r‖` size
    /// measure up to a constant.
    pub fn size(&self) -> usize {
        self.data.len()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation(arity={}, rows={})", self.arity, self.len())?;
        for row in self.rows().take(20) {
            writeln!(f, "  {row:?}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  … {} more", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governed_semijoin_trip_leaves_the_relation_untouched() {
        use crate::meter::testing::TripAfter;
        // 50 rows exercises the single-chunk fast path, METER_CHUNK + 10
        // the flag-vector path — the abort-safety contract is the same.
        for n in [50u64, METER_CHUNK as u64 + 10] {
            let rows: Vec<[u64; 2]> = (0..n).map(|i| [i % 7, i]).collect();
            let mut left = Relation::from_rows(2, &rows);
            let before = left.clone();
            let filter = Relation::from_rows(1, &[[0], [1], [2]]);
            // Trip on the very first poll: the probe aborts before retain.
            let meter = TripAfter::new(0, Trip::Cancelled);
            let err = left
                .retain_semijoin_cols_metered(&[0], &filter, &[0], &meter)
                .unwrap_err();
            assert_eq!(err, Trip::Cancelled);
            assert_eq!(left, before, "Err must leave the relation byte-identical");
            assert_eq!(
                left.rows().collect::<Vec<_>>(),
                before.rows().collect::<Vec<_>>()
            );
            // Untripped, the live-meter passes match the unmetered one.
            let mut governed = before.clone();
            governed
                .retain_semijoin_cols_metered(
                    &[0],
                    &filter,
                    &[0],
                    &TripAfter::new(u64::MAX, Trip::Deadline),
                )
                .unwrap();
            let mut plain = before.clone();
            plain.retain_semijoin_cols(&[0], &filter, &[0]);
            assert_eq!(governed, plain);
            assert!(governed.len() < before.len());
        }
    }

    #[test]
    fn governed_dedup_trips_before_mutating_and_matches_when_allowed() {
        use crate::meter::testing::ByteQuota;
        // push_row leaves the flags unset, so dedup has real work to do
        // (from_rows would dedup eagerly).
        let mut r = Relation::new(2);
        for row in [[3u64, 4], [1, 2], [3, 4]] {
            r.push_row(&[Value(row[0]), Value(row[1])]);
        }
        let before = r.clone();
        let tiny = ByteQuota::new(8);
        let err = r.dedup_metered(&tiny).unwrap_err();
        assert!(matches!(err, Trip::Memory { .. }));
        assert_eq!(r, before, "tripped dedup must not touch the rows");
        r.dedup_metered(&ByteQuota::new(1 << 20)).unwrap();
        let mut plain = before.clone();
        plain.dedup();
        assert_eq!(r, plain);
        assert!(r.is_sorted_set());
    }

    #[test]
    fn push_and_read_rows() {
        let mut r = Relation::new(2);
        r.push_row(&[Value(1), Value(2)]);
        r.push_row(&[Value(3), Value(4)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.row(1), &[Value(3), Value(4)]);
        assert_eq!(r.rows().count(), 2);
        assert!(r.contains_row(&[Value(1), Value(2)]));
        assert!(!r.contains_row(&[Value(2), Value(1)]));
        assert_eq!(r.size(), 4);
    }

    #[test]
    fn from_rows_dedups() {
        let r = Relation::from_rows(2, &[[1, 2], [1, 2], [3, 4]]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn from_rows_nullary_keeps_the_empty_tuple() {
        // Regression: the arity-0 path must set the nullary flag, not
        // silently drop the row.
        let empty_rows: &[[u64; 0]] = &[];
        assert!(Relation::from_rows(0, empty_rows).is_empty());
        let t = Relation::from_rows(0, &[[]]);
        assert_eq!(t.len(), 1);
        assert!(t.contains_row(&[]));
        let t2 = Relation::from_rows(0, &[[], []]);
        assert_eq!(t2.len(), 1, "nullary relations are sets");
    }

    #[test]
    fn dedup_preserves_distinct_rows() {
        let mut r = Relation::new(1);
        for v in [5u64, 5, 7, 5, 7] {
            r.push_row(&[Value(v)]);
        }
        r.dedup();
        assert_eq!(r.len(), 2);
        assert!(r.contains_row(&[Value(5)]));
        assert!(r.contains_row(&[Value(7)]));
    }

    #[test]
    fn dedup_sorts_and_marks() {
        let mut r = Relation::from_rows(2, &[[3, 1], [1, 2], [3, 0], [1, 2]]);
        assert!(r.is_sorted_set());
        let rows: Vec<Vec<Value>> = r.rows().map(|x| x.to_vec()).collect();
        let mut expected = rows.clone();
        expected.sort();
        expected.dedup();
        assert_eq!(rows, expected);
        // Sorted-order pushes keep the flag; out-of-order pushes drop it.
        r.push_row(&[Value(9), Value(9)]);
        assert!(r.is_sorted_set());
        r.push_row(&[Value(0), Value(0)]);
        assert!(!r.is_sorted_set());
        r.dedup();
        assert!(r.is_sorted_set());
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn contains_row_binary_search_matches_linear() {
        let mut r = Relation::from_rows(2, &[[4, 1], [0, 9], [2, 2], [4, 0]]);
        r.dedup();
        assert!(r.is_sorted_set());
        for probe in [[4u64, 1], [0, 9], [2, 2], [4, 0]] {
            assert!(r.contains_row(&[Value(probe[0]), Value(probe[1])]));
        }
        for probe in [[1u64, 1], [4, 2], [5, 0], [0, 0]] {
            assert!(!r.contains_row(&[Value(probe[0]), Value(probe[1])]));
        }
    }

    #[test]
    fn index_groups_rows() {
        let r = Relation::from_rows(2, &[[1, 10], [1, 20], [2, 30]]);
        let idx = r.index_on(&[0]);
        assert_eq!(idx.probe_key(&[Value(1)]).len(), 2);
        assert_eq!(idx.probe_key(&[Value(2)]).len(), 1);
        assert!(idx.probe_key(&[Value(3)]).is_empty());
        // Composite keys, probed through another row shape.
        let idx2 = r.index_on(&[1, 0]);
        let matches = idx2.probe_key(&[Value(10), Value(1)]);
        assert_eq!(matches.len(), 1);
        assert_eq!(r.row(matches[0] as usize), &[Value(1), Value(10)]);
        assert_eq!(idx2.num_keys(), 3);
    }

    #[test]
    fn index_cache_hits_and_invalidation() {
        let mut r = Relation::from_rows(2, &[[1, 10], [2, 20]]);
        let before = crate::stats::index_builds();
        let a = r.index_on(&[0]);
        let b = r.index_on(&[0]);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        assert_eq!(crate::stats::index_builds(), before + 1);
        r.index_on(&[1]);
        assert_eq!(crate::stats::index_builds(), before + 2);
        // Mutation invalidates; the next lookup rebuilds.
        r.push_row(&[Value(3), Value(30)]);
        let c = r.index_on(&[0]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.probe_key(&[Value(3)]).len(), 1);
        assert_eq!(crate::stats::index_builds(), before + 3);
        // A pure filter that removes nothing keeps the cache.
        let before_noop = crate::stats::index_builds();
        r.retain(|_| true);
        let d = r.index_on(&[0]);
        assert!(Arc::ptr_eq(&c, &d));
        assert_eq!(crate::stats::index_builds(), before_noop);
    }

    #[test]
    fn wide_keys_fall_back_exactly() {
        // Three huge-valued columns cannot pack into 128 bits.
        let big = u64::MAX - 1;
        let r = Relation::from_rows(3, &[[big, big, big], [big, big, 7], [1, 2, 3]]);
        let idx = r.index_on(&[0, 1, 2]);
        assert_eq!(idx.num_keys(), 3);
        assert_eq!(
            idx.probe_key(&[Value(big), Value(big), Value(big)]).len(),
            1
        );
        assert!(idx
            .probe_key(&[Value(big), Value(7), Value(big)])
            .is_empty());
    }

    #[test]
    fn packed_probe_rejects_out_of_width_values() {
        let r = Relation::from_rows(2, &[[1, 1], [2, 3]]);
        let idx = r.index_on(&[0, 1]);
        // 1 << 40 exceeds both columns' widths: must be a clean miss.
        assert!(idx.probe_key(&[Value(1 << 40), Value(1)]).is_empty());
        assert!(idx
            .probe_key(&[Value(u64::MAX), Value(u64::MAX)])
            .is_empty());
    }

    #[test]
    fn retain_semijoin_filters_in_place() {
        let mut a = Relation::from_rows(2, &[[1, 10], [2, 20], [3, 30]]);
        let b = Relation::from_rows(1, &[[10], [30]]);
        a.retain_semijoin(&[(1, 0)], &b);
        assert_eq!(a.len(), 2);
        assert!(a.contains_row(&[Value(1), Value(10)]));
        assert!(!a.contains_row(&[Value(2), Value(20)]));
        assert!(a.is_sorted_set(), "filtering preserves sortedness");
        // Boolean guard on empty `on`.
        let mut c = Relation::from_rows(1, &[[5]]);
        c.retain_semijoin(&[], &b);
        assert_eq!(c.len(), 1);
        c.retain_semijoin(&[], &Relation::new(1));
        assert!(c.is_empty());
    }

    #[test]
    fn retain_selects() {
        let mut r = Relation::from_rows(2, &[[1, 1], [1, 2], [2, 2]]);
        let mut s = r.clone();
        r.retain_select(0, Value(1));
        assert_eq!(r.len(), 2);
        s.retain_select_eq(0, 1);
        assert_eq!(s.len(), 2);
        assert!(s.contains_row(&[Value(2), Value(2)]));
    }

    #[test]
    fn nullary_relations() {
        let mut t = Relation::new(0);
        assert!(t.is_empty());
        t.push_row(&[]);
        assert_eq!(t.len(), 1);
        assert!(t.contains_row(&[]));
        t.push_row(&[]);
        assert_eq!(t.len(), 1, "nullary relations are sets");
        assert_eq!(t.rows().count(), 1);
        assert_eq!(t.rows().next(), Some(&[][..]));
        t.retain(|_| false);
        assert!(t.is_empty());
    }

    #[test]
    fn clones_share_indexes_until_mutation() {
        let r = Relation::from_rows(2, &[[1, 2], [3, 4]]);
        let idx = r.index_on(&[0]);
        let mut c = r.clone();
        let idx2 = c.index_on(&[0]);
        assert!(Arc::ptr_eq(&idx, &idx2), "clone inherits the cache");
        c.push_row(&[Value(5), Value(6)]);
        assert_eq!(c.index_on(&[0]).probe_key(&[Value(5)]).len(), 1);
        // The original is unaffected.
        assert!(r.index_on(&[0]).probe_key(&[Value(5)]).is_empty());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.push_row(&[Value(1)]);
    }
}
