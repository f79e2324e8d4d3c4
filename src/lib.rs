//! # turnq-repro — the Turn queue paper, reproduced in Rust
//!
//! Facade crate for the workspace reproducing *"A Wait-Free Queue with
//! Wait-Free Memory Reclamation"* (Ramalhete & Correia, PPoPP 2017).
//! Everything is re-exported here so the examples and integration tests
//! (and downstream users who want one dependency) can reach the whole
//! system:
//!
//! * [`TurnQueue`] and its [`TurnMpscQueue`]/[`TurnSpmcQueue`] variants,
//!   plus [`CRTurnMutex`] — the paper's contribution (`turn-queue`);
//! * [`hazard`] — wait-free-bounded Hazard Pointers and Conditional Hazard
//!   Pointers (`turnq-hazard`);
//! * [`KPQueue`] — the Kogan–Petrank port with HP + CHP (`turnq-kp`);
//! * [`ShardedTurnQueue`] — the coordination-free multi-lane front-end
//!   with bounded k-relaxation (`turnq-sharded`, DESIGN.md §6e);
//! * [`BoundedQueue`] — the wait-free bounded MPMC ring, the
//!   memory-bounded contrast (`turnq-bounded`, DESIGN.md §6f);
//! * [`baselines`] — Michael–Scott, mutex, FAA-array
//!   (`turnq-baselines`);
//! * [`harness`] — the paper's measurement protocols (`turnq-harness`);
//! * [`linearize`] — history recording and linearizability checking
//!   (`turnq-linearize`);
//! * [`telemetry`] — wait-freedom-preserving counters, latency histograms
//!   and the helping-depth histogram every queue records into (`turnq-telemetry`;
//!   see `docs/metrics.md` for the metric catalogue);
//! * [`api`] / [`threadreg`] — shared traits and the thread-slot registry.
//!
//! See `README.md` for the quickstart, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results.

pub use turn_queue::{
    CRTurnGuard, CRTurnMutex, MpscConsumer, SegHandle, SegTurnQueue, SpmcProducer, TurnHandle,
    TurnMpscQueue, TurnQueue, TurnQueueBuilder, TurnSpmcQueue, DEFAULT_FAST_TRIES,
    DEFAULT_MAX_THREADS, DEFAULT_SEG_SIZE,
};
pub use turnq_bounded::{BoundedBuilder, BoundedFamily, BoundedQueue};
pub use turnq_kp::KPQueue;
pub use turnq_sharded::{ShardedBuilder, ShardedTurnFamily, ShardedTurnQueue};

pub use turnq_api as api;
pub use turnq_baselines as baselines;
pub use turnq_bounded as bounded;
pub use turnq_harness as harness;
pub use turnq_hazard as hazard;
pub use turnq_linearize as linearize;
pub use turnq_sharded as sharded;
pub use turnq_telemetry as telemetry;
pub use turnq_threadreg as threadreg;

pub use turnq_api::ConcurrentQueue;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_work_together() {
        let q: TurnQueue<u32> = TurnQueue::with_max_threads(2);
        ConcurrentQueue::enqueue(&q, 5);
        assert_eq!(ConcurrentQueue::dequeue(&q), Some(5));
        let kp: KPQueue<u32> = KPQueue::with_max_threads(2);
        kp.enqueue(6);
        assert_eq!(kp.dequeue(), Some(6));
    }
}
