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
//! * with split roles, nodes travel from consumers to producers through
//!   the pool's depot, so recycled nodes change threads while other threads
//!   still race on the list — a 4-producer/4-consumer hammer checks
//!   exactly-once delivery under that pressure;
//! * pooled memory stays within `(max_threads + 1) × capacity` nodes while
//!   split roles recycle through the depot.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use turn_queue::{TurnQueue, TurnQueueBuilder};

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
    let q: TurnQueue<u64> = TurnQueueBuilder::new().max_threads(2).pool_capacity(0).build();
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

/// 4 dedicated producers × 4 dedicated consumers. Producers never retire a
/// node, so every node a producer reuses was handed over through the
/// depot by a consumer's scan: recycled addresses cross threads while the
/// queue is live. The exactly-once check fails if a hand-over ever gave a
/// chain to two threads or published a node before its links were settled.
///
/// The hand-over is forced, not hoped for. The producers enqueue half
/// their items and wait until all of them are dequeued. A consumer's list
/// reaches the depot only once it has released `capacity + 1` nodes, and
/// the first half is large enough that at least one consumer must have
/// done so however the items split between consumers. So when the
/// producers resume, either one of them already took the depot's chain or
/// the chain is still there for their next acquire.
#[test]
fn split_roles_four_by_four_deliver_exactly_once() {
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 4;
    const PER_PRODUCER: u64 = 10_000;
    const HALF: u64 = PER_PRODUCER / 2;
    const TOTAL: usize = (PRODUCERS * PER_PRODUCER) as usize;
    const WAIT: Duration = Duration::from_secs(60);
    let max_threads = PRODUCERS as usize + CONSUMERS;
    let q: TurnQueue<u64> = TurnQueue::with_max_threads(max_threads);
    // Every node the head has passed is retired by some consumer, which
    // has released all it retired but its backlog (at most
    // `retired_bound`, with 3 hazard slots a thread) and the two request
    // nodes a slow-path dequeue keeps for later; the head node itself is
    // still live.
    let held_back = CONSUMERS * (turnq_hazard::retired_bound(max_threads, 3) + 2) + 1;
    let deposit_after = CONSUMERS * (q.pool_capacity() + 1);
    assert!(
        (PRODUCERS * HALF) as usize >= held_back + deposit_after,
        "the first half is too small to force a deposit"
    );
    let taken = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut all: Vec<u64> = std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let (q, taken, stop) = (&q, &taken, &stop);
            s.spawn(move || {
                for i in 0..HALF {
                    q.enqueue(p << 32 | i);
                }
                let deadline = Instant::now() + WAIT;
                while taken.load(Ordering::SeqCst) < (PRODUCERS * HALF) as usize {
                    if Instant::now() > deadline {
                        stop.store(true, Ordering::SeqCst);
                        panic!("the first half was not dequeued within {WAIT:?}");
                    }
                    std::thread::yield_now();
                }
                for i in HALF..PER_PRODUCER {
                    q.enqueue(p << 32 | i);
                }
            });
        }
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    while taken.load(Ordering::SeqCst) < TOTAL && !stop.load(Ordering::SeqCst) {
                        match q.dequeue() {
                            Some(v) => {
                                got.push(v);
                                taken.fetch_add(1, Ordering::SeqCst);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();
        consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    all.sort_unstable();
    let expected: Vec<u64> = (0..PRODUCERS)
        .flat_map(|p| (0..PER_PRODUCER).map(move |i| p << 32 | i))
        .collect();
    assert_eq!(all, expected, "every item delivered exactly once");
    let s = q.pool_stats();
    assert!(s.hits > 0, "no node ever reached a producer through the depot: {s:?}");
}

/// Pooled memory stays within `(max_threads + 1) × capacity` nodes (every
/// free list plus the depot's one chain) while a dedicated producer and a
/// dedicated consumer recycle through the depot, and after they stop.
/// The producer runs ahead unthrottled, so the consumer's scans keep its
/// list full and the depot busy: the gauge sits near its bound.
#[test]
fn split_role_pool_stays_within_its_bound() {
    const ITEMS: u64 = 200_000;
    let q: TurnQueue<u64> = TurnQueue::with_max_threads(4);
    let bound = (q.max_threads() as u64 + 1) * q.pool_capacity() as u64;
    let done = AtomicBool::new(false);
    let (mut peak, mut samples) = (0, 0u64);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..ITEMS {
                q.enqueue(i);
            }
        });
        s.spawn(|| {
            let mut next = 0;
            while next < ITEMS {
                match q.dequeue() {
                    Some(v) => {
                        assert_eq!(v, next, "single producer, single consumer: FIFO order");
                        next += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        while !done.load(Ordering::SeqCst) {
            peak = peak.max(q.pool_stats().pooled_now);
            samples += 1;
            std::thread::yield_now();
        }
    });
    let after = q.pool_stats();
    println!("{samples} samples, peak {peak} pooled nodes, bound {bound}, after {after:?}");
    assert!(peak <= bound, "pooled {peak} nodes during traffic, bound {bound}");
    let now = after.pooled_now;
    assert!(now <= bound, "pooled {now} nodes after traffic, bound {bound}");
    assert!(after.recycled > 0, "the run never exercised the pool: {after:?}");
}
