//! Integration tests for segment-node mode (DESIGN.md §6d) composed with
//! the node pool and hazard-pointer reclamation.
//!
//! The properties pinned here are the ones segment recycling could
//! plausibly break:
//!
//! * a recycled segment's cell array must be *fully* reset before reuse —
//!   a stale `deq_idx`, a leftover `FULL`/`TAKEN` state, or a surviving
//!   item would surface as a lost, duplicated, or resurrected value;
//! * ring reuse hands out the *same addresses* (node and cells alike)
//!   with fresh contents, the strongest ABA pressure the segmented HP
//!   discipline (including the cached `HP_HEAD_TAIL` slot) can see;
//! * the drained-segment guard means no advance abandons undelivered
//!   cells even when producers and consumers race across a boundary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use turn_queue::{SegTurnQueue, TurnQueueBuilder};

/// 8 threads hammering a short segmented queue with a tiny `seg_size`:
/// every couple of items crosses a boundary, so appends, head advances,
/// retires, and pool reuse all run at full tilt while the FAA cell claims
/// race across threads. Exactly-once delivery is the oracle: any stale
/// ticket counter or unreset cell in a recycled ring loses or duplicates
/// an item.
#[test]
fn seg_aba_hammer_eight_threads_delivers_exactly_once() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 5_000;
    // seg_size 2 maximizes boundary traffic: a boundary every other item.
    // +1 slot for the main thread's final drain.
    let q: Arc<SegTurnQueue<u64>> = Arc::new(
        TurnQueueBuilder::new()
            .max_threads(THREADS + 1)
            .seg_size(2)
            .build_seg(),
    );
    let mut all: Vec<u64> = std::thread::scope(|s| {
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            workers.push(s.spawn(move || {
                let h = q.handle().expect("registry slot");
                let mut got = Vec::new();
                for i in 0..PER_THREAD {
                    h.enqueue((t as u64) << 32 | i);
                    // Mixed role: dequeue right behind the enqueue, keeping
                    // the queue short and the segment recycle loop tight.
                    if let Some(v) = h.dequeue() {
                        got.push(v);
                    }
                }
                got
            }));
        }
        workers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    // Drain whatever the racing dequeues left behind.
    while let Some(v) = q.dequeue() {
        all.push(v);
    }
    all.sort_unstable();
    let mut expected: Vec<u64> = (0..THREADS as u64)
        .flat_map(|t| (0..PER_THREAD).map(move |i| t << 32 | i))
        .collect();
    expected.sort_unstable();
    assert_eq!(all, expected, "every item delivered exactly once");
    // Under churn the pool must have actually recycled segments (the
    // hammer above is only an ABA test if ring addresses were reused).
    let s = q.pool_stats();
    assert!(s.hits > 0, "hammer never exercised segment recycling: {s:?}");
}

/// Deterministic single-thread shadow of the reset property: cycle the
/// same few segments through the pool hundreds of times and verify every
/// round delivers its exact window in order, ending empty. A recycled
/// ring that kept any previous state — ticket counters, cell states, or
/// items — breaks a round immediately.
#[test]
fn recycled_rings_start_from_a_clean_slate_every_round() {
    let k = 4u64;
    let q: SegTurnQueue<u64> = TurnQueueBuilder::new()
        .max_threads(1)
        .seg_size(k as usize)
        .build_seg();
    for round in 0..500u64 {
        // k+1 items: exactly one boundary append per round, so every
        // round consumes one ring from the pool and retires one into it.
        for i in 0..=k {
            q.enqueue(round * 100 + i);
        }
        for i in 0..=k {
            assert_eq!(
                q.dequeue(),
                Some(round * 100 + i),
                "round {round}: recycled ring replayed stale state"
            );
        }
        assert_eq!(q.dequeue(), None, "round {round}: ring held a stale item");
    }
    assert!(
        q.pool_stats().hits > 100,
        "rounds must run out of the pool: {:?}",
        q.pool_stats()
    );
}

/// Items still inside recycled-and-refilled segments drop exactly once
/// when the queue drops — the compose-time double-free/leak hazard of
/// ring reuse (the ring allocation survives retirement, its *contents*
/// must not).
#[test]
fn ring_reuse_never_double_drops_or_leaks_items() {
    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    const ITEMS: usize = 40;
    const DEQUEUED: usize = 17;
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let q: SegTurnQueue<DropCounter> = TurnQueueBuilder::new()
            .max_threads(2)
            .seg_size(4)
            .build_seg();
        // Warm the pool with a few full cycles first, so the final fill
        // below lands in recycled rings.
        for _ in 0..3 {
            for _ in 0..ITEMS {
                q.enqueue(DropCounter(Arc::clone(&drops)));
            }
            while q.dequeue().is_some() {}
        }
        let warmed = drops.load(Ordering::SeqCst);
        assert_eq!(warmed, 3 * ITEMS);
        for _ in 0..ITEMS {
            q.enqueue(DropCounter(Arc::clone(&drops)));
        }
        for _ in 0..DEQUEUED {
            drop(q.dequeue().expect("queue holds items"));
        }
        assert_eq!(drops.load(Ordering::SeqCst), warmed + DEQUEUED);
        // The queue now drops with items spread across live segments AND
        // recycled rings sitting in the pool.
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        4 * ITEMS,
        "every payload dropped exactly once after queue drop"
    );
}
