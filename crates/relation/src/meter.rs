//! Cooperative cost metering for the relational kernels.
//!
//! The resource-governance layer (`hypertree_core::budget::QueryBudget`)
//! lives *above* this crate in the dependency order, so the kernels
//! cannot see it directly — the same layering that gives
//! [`crate::shard`] its own `parallel_map`. Instead the kernels meter
//! through this minimal trait: the `eval` crate (which sees both) adapts
//! a `QueryBudget` into a [`CostMeter`].
//!
//! Every kernel has **one** body, generic over its meter
//! (`ops::join_metered`, `ops::project_metered`,
//! [`crate::Relation::retain_semijoin_cols_metered`],
//! [`crate::Relation::dedup_metered`]). Budget-less callers use the plain
//! names (`ops::join`, [`crate::Relation::dedup`], …), which run that body
//! under the zero-sized [`NoMeter`]: its polls are erased at compile
//! time, and the branches that exist only so a trip can abort cleanly
//! (two-pass probing, instalment charging) are guarded by
//! [`CostMeter::LIVE`], so they are not even compiled into that
//! instantiation.
//!
//! Contract for the kernels under a live meter:
//!
//! * **Chunk granularity** — [`CostMeter::tick`] is polled once per
//!   [`METER_CHUNK`] rows (and at least once per kernel call), so the
//!   polling overhead is amortised to nothing while a trip is observed
//!   within one chunk of work.
//! * **Byte accounting** — [`CostMeter::charge_bytes`] is called for
//!   intermediate allocations at their sizing points (the join kernels'
//!   exact-size reserve, dedup's rebuilt row store, semijoin keep-flag
//!   scratch). Charges are cumulative: the meter sees what the run
//!   allocated in total, not what is live.
//! * **Abort safety** — a kernel that returns [`Trip`] leaves its inputs
//!   exactly as they were: in-place operators poll and probe *before*
//!   the first mutation, and fresh outputs under construction are simply
//!   dropped. A budget-tripped run is observationally side-effect-free
//!   on the database.

/// Rows per meter poll: the same chunk size the sharded pipeline uses as
/// its parallelism threshold — small enough to bound trip latency, large
/// enough that a poll (two atomic loads and, under a deadline, one clock
/// read) vanishes against the per-row work.
pub const METER_CHUNK: usize = 4096;

/// Why a metered kernel stopped early. The `eval` crate maps this (plus
/// phase context) onto `hypertree_core::budget::QueryError`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trip {
    /// The deadline passed.
    Deadline,
    /// The byte quota was exceeded; the running total that tripped it.
    Memory {
        /// Total bytes charged when the quota tripped.
        bytes: u64,
    },
    /// The budget was cancelled.
    Cancelled,
}

/// The metering hook the kernels poll. Implementations must be cheap —
/// both methods sit on (chunked) hot paths.
pub trait CostMeter {
    /// `false` only for a meter that can neither trip nor observe
    /// ([`NoMeter`]): kernels then take their single-pass,
    /// single-allocation forms, which are not abort-safe mid-way and do
    /// not need to be.
    const LIVE: bool = true;

    /// Poll for deadline/cancellation after processing `units` more rows
    /// (advisory; called at chunk granularity).
    fn tick(&self, units: u64) -> Result<(), Trip>;

    /// Account `bytes` of intermediate allocation; trip once a quota is
    /// exceeded.
    fn charge_bytes(&self, bytes: u64) -> Result<(), Trip>;
}

/// The no-op meter: never trips, never counts. What the plain operator
/// names run their kernel under.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMeter;

impl CostMeter for NoMeter {
    const LIVE: bool = false;

    #[inline]
    fn tick(&self, _units: u64) -> Result<(), Trip> {
        Ok(())
    }

    #[inline]
    fn charge_bytes(&self, _bytes: u64) -> Result<(), Trip> {
        Ok(())
    }
}

/// The value of a run that was handed no live meter or budget, and so
/// cannot have tripped: how the context-free operator forms (`ops::join`,
/// `eval::Pipeline::boolean`, …) return plain values from the one
/// fallible body.
pub fn untripped<T, E: std::fmt::Debug>(run: Result<T, E>) -> T {
    match run {
        Ok(value) => value,
        // archlint::allow(panic-free-request-path, reason = "only called on runs under NoMeter / the unlimited context, whose polls are constant Ok; a trip here is a bug in this program, not in the request")
        Err(trip) => unreachable!("tripped without a live meter: {trip:?}"),
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! Deterministic meters for kernel tests.

    use super::{CostMeter, Trip};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Trips with the given [`Trip`] after a fixed number of ticks;
    /// counts every call so tests can assert no work continues after the
    /// trip surfaced.
    pub struct TripAfter {
        pub ticks_before_trip: u64,
        pub trip: Trip,
        pub ticks: AtomicU64,
        pub charges: AtomicU64,
    }

    impl TripAfter {
        pub fn new(ticks_before_trip: u64, trip: Trip) -> Self {
            TripAfter {
                ticks_before_trip,
                trip,
                ticks: AtomicU64::new(0),
                charges: AtomicU64::new(0),
            }
        }
    }

    impl CostMeter for TripAfter {
        fn tick(&self, _units: u64) -> Result<(), Trip> {
            if self.ticks.fetch_add(1, Ordering::Relaxed) >= self.ticks_before_trip {
                return Err(self.trip);
            }
            Ok(())
        }

        fn charge_bytes(&self, bytes: u64) -> Result<(), Trip> {
            self.charges.fetch_add(bytes, Ordering::Relaxed);
            Ok(())
        }
    }

    /// Grants a fixed byte quota, then trips [`Trip::Memory`].
    pub struct ByteQuota {
        pub quota: u64,
        pub charged: AtomicU64,
    }

    impl ByteQuota {
        pub fn new(quota: u64) -> Self {
            ByteQuota {
                quota,
                charged: AtomicU64::new(0),
            }
        }
    }

    impl CostMeter for ByteQuota {
        fn tick(&self, _units: u64) -> Result<(), Trip> {
            Ok(())
        }

        fn charge_bytes(&self, bytes: u64) -> Result<(), Trip> {
            let total = self.charged.fetch_add(bytes, Ordering::Relaxed) + bytes;
            if total > self.quota {
                return Err(Trip::Memory { bytes: total });
            }
            Ok(())
        }
    }
}
