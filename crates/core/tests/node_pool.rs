//! Integration tests for the node-recycling pool composed with the queue's
//! hazard-pointer reclamation.
//!
//! The properties pinned here are the ones recycling could plausibly break:
//!
//! * every item payload is dropped exactly once — including items still in
//!   the queue when it drops while the pool holds recycled nodes;
//! * recycling reuses pointer values aggressively, which is exactly the ABA
//!   scenario hazard pointers (`HP_DEQ` included) must defend against — a
//!   multi-thread hammer checks exactly-once delivery under that pressure;
//! * after warm-up, a single-threaded ping-pong runs entirely out of the
//!   pool (hit rate ≈ 100%, zero misses).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use turn_queue::TurnQueue;

/// Payload that counts its drops.
struct DropCounter(Arc<AtomicUsize>);

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn every_item_drops_exactly_once_even_with_a_warm_pool() {
    const ITEMS: usize = 100;
    const DEQUEUED: usize = 50;
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let q: TurnQueue<DropCounter> = TurnQueue::with_max_threads(2);
        for _ in 0..ITEMS {
            q.enqueue(DropCounter(Arc::clone(&drops)));
        }
        for _ in 0..DEQUEUED {
            drop(q.dequeue().expect("queue holds items"));
        }
        assert_eq!(drops.load(Ordering::SeqCst), DEQUEUED);
        // The dequeues retired nodes into the pool, so the queue now drops
        // with BOTH undequeued items in the list AND recycled nodes in the
        // pool — the compose-time double-free/leak hazard this test pins.
        assert!(
            q.pool_stats().pooled_now > 0,
            "test must exercise drop with a non-empty pool"
        );
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        ITEMS,
        "every payload dropped exactly once after queue drop"
    );
}

#[test]
fn ping_pong_runs_out_of_the_pool_after_warmup() {
    const WARMUP: u64 = 100;
    const MEASURED: u64 = 10_000;
    let q: TurnQueue<u64> = TurnQueue::with_max_threads(4);
    for i in 0..WARMUP {
        q.enqueue(i);
        assert_eq!(q.dequeue(), Some(i));
    }
    let warm = q.pool_stats();
    for i in 0..MEASURED {
        q.enqueue(i);
        assert_eq!(q.dequeue(), Some(i));
    }
    let done = q.pool_stats();
    assert_eq!(
        done.misses, warm.misses,
        "steady-state enqueues must never fall through to the allocator"
    );
    assert_eq!(
        done.hits - warm.hits,
        MEASURED,
        "every steady-state enqueue is served by the pool"
    );
    assert!(done.hit_rate() > 0.99, "hit rate {:.4}", done.hit_rate());
}

#[test]
fn pool_capacity_zero_reproduces_allocate_free_behavior() {
    const OPS: u64 = 1_000;
    // Pool off (the paper's allocate/free behavior) via the runtime knob.
    let q: TurnQueue<u64> = TurnQueue::with_pool_config(2, 0, 0, 0);
    assert_eq!(q.pool_capacity(), 0);
    for i in 0..OPS {
        q.enqueue(i);
        assert_eq!(q.dequeue(), Some(i));
    }
    let s = q.pool_stats();
    assert_eq!(s.hits, 0, "capacity 0 can never serve a node");
    assert_eq!(s.recycled, 0, "capacity 0 can never cache a node");
    assert_eq!(s.pooled_now, 0);
    assert_eq!(s.hit_rate(), 0.0);
}

/// 8 threads × recycled pointer values: the strongest ABA pressure the
/// queue can see. Every thread both enqueues and dequeues, so its own
/// dequeue-retired nodes feed its next enqueues — a node freed and
/// immediately reused gets the *same address* with fresh contents, and any
/// validation that compared pointers without holding a hazard (head/tail
/// via `HP_HEAD_TAIL`, next via `HP_NEXT`, the dequeue-request nodes via
/// `HP_DEQ`) would misread. The exactly-once delivery check below fails if
/// any of them does.
#[test]
fn aba_hammer_eight_threads_delivers_exactly_once() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 5_000;
    // +1 slot for the main thread's final drain.
    let q: Arc<TurnQueue<u64>> = Arc::new(TurnQueue::with_max_threads(THREADS + 1));
    let mut all: Vec<u64> = std::thread::scope(|s| {
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            workers.push(s.spawn(move || {
                let mut got = Vec::new();
                for i in 0..PER_THREAD {
                    q.enqueue((t as u64) << 32 | i);
                    // Mixed role: dequeue right behind the enqueue, keeping
                    // the queue short and the recycle loop tight.
                    if let Some(v) = q.dequeue() {
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
    // Under churn the pool must have actually recycled (the hammer above is
    // only an ABA test if pointer values were reused).
    let s = q.pool_stats();
    assert!(s.hits > 0, "hammer never exercised recycling: {s:?}");
}
