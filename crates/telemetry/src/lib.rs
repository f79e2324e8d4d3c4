//! # `turnq-telemetry` — wait-freedom-preserving observability
//!
//! The paper's headline claims (`O(MAX_THREADS)` step bounds, HP's
//! bounded backlog, one allocation per item) are machine-checked offline by the
//! model checker and the allocator-counting tests; this crate makes the
//! same quantities *observable in a running binary*: helping pressure,
//! CAS-retry rates, HP scan/retire traffic, pool hit rates, and a
//! helping-depth histogram (the runtime analogue of the paper's
//! `MAX_THREADS - 1` overtaking bound).
//!
//! ## Design rules (why this cannot break wait-freedom)
//!
//! 1. **No RMW on hot paths.** Every counter cell is owned by exactly one
//!    thread (rows are indexed by the dense registry tid, like every other
//!    per-thread array in the stack). Increments are
//!    `store(load(Relaxed) + 1, Relaxed)` — two straight-line
//!    instructions, no retry loop, so per-op step bounds gain a constant,
//!    not a loop. The CAS-only claim is untouched: telemetry performs no
//!    CAS, no `fetch_add`, no `swap`. The one allocation on a recording
//!    path is bounded: a sheet allocates at most one latency block per
//!    thread slot over its lifetime, on that slot's first sampled
//!    operation, and publishes it with one `Release` store — no RMW, lock
//!    or loop (see the `sheet` module).
//! 2. **Observers are exempt from the model checker.** Atomics come from
//!    `turnq_sync::observer` (always std). Telemetry state is write-only
//!    for the algorithm — nothing branches on it — so instrumenting it
//!    would inflate the explored interleaving space and the audited step
//!    counts without making new behaviour reachable.
//! 3. **Reads are Relaxed and best-effort.** An aggregator snapshotting a
//!    live sheet sees a monotone under-estimate; after the recording
//!    threads quiesce (join), the snapshot is exact. Tests rely only on
//!    the post-quiescence guarantee.
//!
//! ## Feature `probe`
//!
//! Default-on. With `--no-default-features` every recording method
//! compiles to an empty `#[inline(always)]` body, a sheet stores only its
//! size, and snapshots are all-zero — call sites keep working without
//! `cfg`, and the disabled build is asserted in CI. Runtime code can
//! branch on [`ENABLED`] (e.g. tests that assert exact counter values
//! only when the probes exist).

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod counters;
pub mod latency;
mod sheet;
mod snapshot;

pub use counters::{CounterId, N_COUNTERS};
pub use latency::{OpKey, OpTimer, LATENCY_SAMPLE_PERIOD, N_OP_KEYS};
pub use sheet::{TelemetryHandle, TelemetrySheet, LATENCY_BLOCK_BYTES};
pub use snapshot::{
    all_metric_names, LatencySeries, TelemetrySnapshot, EXTRA_COUNTER_NAMES, GAUGE_NAMES,
    HISTOGRAM_NAMES, LANE_GAUGE_NAMES,
};

/// `true` when this build records (`probe` feature on). With probes off,
/// sheets are inert and snapshots all-zero; tests use this to keep exact
/// assertions honest in both builds.
pub const ENABLED: bool = cfg!(feature = "probe");

#[cfg(test)]
mod crate_tests {
    use super::*;
    use std::sync::Arc;

    /// The concurrent-aggregation contract: after join, the aggregate
    /// equals the per-thread sums — no bump is lost even though the
    /// increments are plain stores (each cell has a single writer).
    #[test]
    fn concurrent_snapshot_equals_per_thread_sums() {
        const THREADS: usize = 8;
        const OPS: u64 = 10_000;
        let sheet = Arc::new(TelemetrySheet::new(THREADS));
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let sheet = Arc::clone(&sheet);
                s.spawn(move || {
                    for i in 0..OPS {
                        sheet.bump(tid, CounterId::EnqOps);
                        if i % 3 == 0 {
                            sheet.bump(tid, CounterId::CasFailTail);
                        }
                        sheet.record_depth(tid, (i % 4) as usize);
                    }
                });
            }
        });
        let snap = sheet.snapshot();
        if ENABLED {
            let per_thread: u64 = (0..THREADS)
                .map(|t| sheet.thread_counter(t, CounterId::EnqOps))
                .sum();
            assert_eq!(per_thread, THREADS as u64 * OPS);
            assert_eq!(snap.counter(CounterId::EnqOps), THREADS as u64 * OPS);
            assert_eq!(
                snap.counter(CounterId::CasFailTail),
                THREADS as u64 * OPS.div_ceil(3)
            );
            assert_eq!(snap.helping_depth_count(), THREADS as u64 * OPS);
            assert_eq!(snap.helping_depth_max(), Some(3));
        } else {
            assert_eq!(snap.counter(CounterId::EnqOps), 0);
            assert_eq!(snap.helping_depth_max(), None);
        }
    }
}
