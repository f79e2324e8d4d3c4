//! The four user-facing queues behind one narrow interface.
//!
//! Every queue is built through its library default
//! `QueueFamily::with_max_threads`, and driven only through its public
//! API, so a change to a harness or telemetry helper cannot change what
//! the benchmark measures.

use turn_queue::{SegTurnFamily, SegTurnQueue, TurnFamily, TurnQueue};
use turnq_api::{QueueFamily, QueueIntrospect, TelemetrySnapshot};
use turnq_bounded::{BoundedFamily, BoundedQueue, Full, DEFAULT_CAPACITY};
use turnq_sharded::{ShardedTurnFamily, ShardedTurnQueue};

use crate::MAX_THREADS;

/// What the driver needs from a queue of `u64` items.
pub trait BenchQueue: Send + Sync {
    /// Register the calling thread (claims its registry slot).
    fn register(&self);
    /// Insert `item`; `Err(item)` is a bounded queue's `Full` verdict.
    fn enqueue(&self, item: u64) -> Result<(), u64>;
    /// Remove the head item, or `None` on an empty verdict.
    fn dequeue(&self) -> Option<u64>;
    /// The queue's aggregated telemetry (all-zero without probes).
    fn snapshot(&self) -> TelemetrySnapshot;
    /// True when the queue's contract allows `None` while another thread's
    /// item is in flight (the sharded front-end's relaxed emptiness).
    fn relaxed_empty(&self) -> bool {
        false
    }
}

fn snapshot_of<Q: QueueIntrospect>(q: &Q) -> TelemetrySnapshot {
    q.telemetry_snapshot()
        .unwrap_or_else(|| TelemetrySnapshot::empty(1))
}

impl BenchQueue for TurnQueue<u64> {
    fn register(&self) {
        self.handle()
            .expect("max_threads covers every benchmark thread");
    }
    fn enqueue(&self, item: u64) -> Result<(), u64> {
        TurnQueue::enqueue(self, item);
        Ok(())
    }
    fn dequeue(&self) -> Option<u64> {
        TurnQueue::dequeue(self)
    }
    fn snapshot(&self) -> TelemetrySnapshot {
        snapshot_of(self)
    }
}

impl BenchQueue for SegTurnQueue<u64> {
    fn register(&self) {
        self.handle()
            .expect("max_threads covers every benchmark thread");
    }
    fn enqueue(&self, item: u64) -> Result<(), u64> {
        SegTurnQueue::enqueue(self, item);
        Ok(())
    }
    fn dequeue(&self) -> Option<u64> {
        SegTurnQueue::dequeue(self)
    }
    fn snapshot(&self) -> TelemetrySnapshot {
        snapshot_of(self)
    }
}

impl BenchQueue for BoundedQueue<u64> {
    fn register(&self) {
        self.registry_handle().current_index();
    }
    fn enqueue(&self, item: u64) -> Result<(), u64> {
        self.try_enqueue(item).map_err(|Full(back)| back)
    }
    fn dequeue(&self) -> Option<u64> {
        self.try_dequeue()
    }
    fn snapshot(&self) -> TelemetrySnapshot {
        snapshot_of(self)
    }
}

impl BenchQueue for ShardedTurnQueue<u64> {
    fn register(&self) {
        self.home_lane()
            .expect("max_threads covers every benchmark thread");
    }
    fn enqueue(&self, item: u64) -> Result<(), u64> {
        ShardedTurnQueue::enqueue(self, item);
        Ok(())
    }
    fn dequeue(&self) -> Option<u64> {
        ShardedTurnQueue::dequeue(self)
    }
    fn snapshot(&self) -> TelemetrySnapshot {
        snapshot_of(self)
    }
    fn relaxed_empty(&self) -> bool {
        true
    }
}

/// The queues the benchmark measures, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// `TurnFamily`: the per-item Turn queue.
    Turn,
    /// `SegTurnFamily`: the segment-node Turn queue.
    Seg,
    /// `BoundedFamily`: the wait-free bounded ring.
    Bounded,
    /// `ShardedTurnFamily`: the sharded front-end.
    Sharded,
}

impl QueueKind {
    /// Every queue, in the order a repetition runs them.
    pub const ALL: [QueueKind; 4] = [
        QueueKind::Turn,
        QueueKind::Seg,
        QueueKind::Bounded,
        QueueKind::Sharded,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::Turn => "turn",
            QueueKind::Seg => "seg",
            QueueKind::Bounded => "bounded",
            QueueKind::Sharded => "sharded",
        }
    }

    /// Items in the `deep` prefill (and the footprint probe): 2^20 for the
    /// unbounded queues, half the ring for the bounded one, so it never
    /// meets `Full`.
    pub fn deep_depth(self) -> usize {
        match self {
            QueueKind::Bounded => DEFAULT_CAPACITY / 2,
            _ => 1 << 20,
        }
    }
}

/// Build a `TurnFamily` queue.
pub fn turn() -> TurnQueue<u64> {
    TurnFamily::with_max_threads(MAX_THREADS)
}

/// Build a `SegTurnFamily` queue.
pub fn seg() -> SegTurnQueue<u64> {
    SegTurnFamily::with_max_threads(MAX_THREADS)
}

/// Build a `BoundedFamily` queue.
pub fn bounded() -> BoundedQueue<u64> {
    BoundedFamily::with_max_threads(MAX_THREADS)
}

/// Build a `ShardedTurnFamily` queue.
pub fn sharded() -> ShardedTurnQueue<u64> {
    ShardedTurnFamily::with_max_threads(MAX_THREADS)
}
