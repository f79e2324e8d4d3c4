//! # Turn queue — wait-free MPMC queue with wait-free memory reclamation
//!
//! A from-scratch Rust implementation of the queue described in
//! *"A Wait-Free Queue with Wait-Free Memory Reclamation"* (Pedro Ramalhete
//! & Andreia Correia, PPoPP 2017 poster).
//!
//! ## What you get
//!
//! * [`TurnQueue`] — a linearizable, memory-unbounded multi-producer /
//!   multi-consumer FIFO queue where **every** `enqueue()` and `dequeue()`
//!   completes in `O(max_threads)` steps (*wait-free bounded*), using no
//!   atomic read-modify-write instruction beyond compare-and-swap.
//! * **Embedded wait-free reclamation** — nodes are reclaimed with hazard
//!   pointers used in the paper's wait-free discipline (`turnq-hazard`),
//!   so the queue is usable without a garbage collector and its
//!   unreclaimed-memory backlog is bounded.
//! * **One allocation per item** — the node is the only heap allocation;
//!   enqueue/dequeue *requests* are represented by array slots and queue
//!   nodes, never by separate request objects.
//! * [`SegTurnQueue`] — the segment-node execution mode (`build_seg`):
//!   nodes carry `seg_size` FAA-claimed item cells, paying CRTurn consensus
//!   (and HP/pool traffic) only at segment boundaries. The paper-literal
//!   per-item queue is `.pool_capacity(0).fast_tries(0).build()`.
//! * [`TurnMpscQueue`] / [`TurnSpmcQueue`] — the paper's observation that
//!   the enqueue and dequeue halves are independently pluggable, realized
//!   as single-consumer / single-producer variants.
//! * [`CRTurnMutex`] — a reconstruction of the starvation-free turn lock
//!   whose consensus the queue generalizes.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use turn_queue::TurnQueue;
//!
//! let q: Arc<TurnQueue<u64>> = Arc::new(TurnQueue::with_max_threads(8));
//! let producer = {
//!     let q = Arc::clone(&q);
//!     std::thread::spawn(move || {
//!         for i in 0..1000 {
//!             q.enqueue(i);
//!         }
//!     })
//! };
//! let mut seen = 0;
//! while seen < 1000 {
//!     if let Some(v) = q.dequeue() {
//!         assert_eq!(v, seen); // FIFO from a single producer
//!         seen += 1;
//!     }
//! }
//! producer.join().unwrap();
//! ```
//!
//! ## When to use this queue
//!
//! The design goals, in the paper's priority order, are **low tail
//! latency** (no operation can be starved: all threads help the oldest
//! request), **simplicity**, and **low memory usage**. If raw throughput
//! under low contention is all that matters, a lock-free queue such as
//! Michael–Scott (`turnq-baselines`) is faster at the median — and slower
//! by orders of magnitude at the 99.99th percentile. The repository's
//! benches reproduce exactly that trade-off.

mod crturn_mutex;
mod node;
mod pool;
mod queue;
mod seg;
mod variants;

pub use crturn_mutex::{CRTurnGuard, CRTurnMutex};
pub use pool::POOL_LIST_BYTES;
pub use queue::{
    TurnFamily, TurnHandle, TurnQueue, TurnQueueBuilder, DEFAULT_FAST_TRIES, DEFAULT_MAX_THREADS,
    DEFAULT_SEG_SIZE,
};
pub use seg::{SegHandle, SegTurnFamily, SegTurnQueue};
// Re-exported so `TurnQueue::pool_stats` is usable without a separate
// turnq-api dependency.
pub use turnq_api::PoolStats;
pub use variants::{MpscConsumer, SpmcProducer, TurnMpscQueue, TurnSpmcQueue};

/// Test payload for the queue-drop unwinding tests: it counts its drops
/// per item and panics in the drop of one chosen item.
#[cfg(test)]
pub(crate) mod drop_probe {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    pub(crate) struct Item {
        id: usize,
        panic_id: usize,
        drops: Arc<[AtomicUsize]>,
    }

    impl Drop for Item {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::SeqCst);
            if self.id == self.panic_id {
                panic!("item {} panics in drop", self.id);
            }
        }
    }

    /// Enqueue items `0..n` into `q` (item `panic_id` panics when dropped),
    /// drop the queue, and assert that the panic propagates and that every
    /// item is dropped exactly once.
    pub(crate) fn assert_drop_frees_all<Q>(q: Q, enqueue: fn(&Q, Item), n: usize, panic_id: usize) {
        let drops: Arc<[AtomicUsize]> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for id in 0..n {
            let item = Item {
                id,
                panic_id,
                drops: Arc::clone(&drops),
            };
            enqueue(&q, item);
        }
        let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(q)));
        assert!(dropped.is_err(), "the payload's panic must propagate");
        let counts: Vec<usize> = drops.iter().map(|d| d.load(Ordering::SeqCst)).collect();
        assert_eq!(counts, vec![1; n], "every item dropped exactly once");
    }
}
