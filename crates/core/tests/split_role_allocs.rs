//! Split-role recycling, measured at the allocator: with one dedicated
//! producer and one dedicated consumer, the consumer's scans fill its free
//! list and the producer's list stays empty, so only the pool's depot
//! (a full list handed over whole, see `pool.rs`) keeps the producer off
//! the allocator. Without it every item costs a fresh node; with it the
//! steady state is nearly allocation-free.
//!
//! This file deliberately holds a single test: the counting
//! `#[global_allocator]` tallies every allocation in the process, so the
//! measured windows must not race with sibling tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use turn_queue::{PoolStats, TurnQueueBuilder};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates to `System`; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The producer pauses while more than this many items are queued.
const BACKLOG: u64 = 1_024;
const WARMUP: u64 = 20_000;
const WINDOW: u64 = 40_000;
const WINDOWS: u64 = 5;

/// The fewest allocator calls per item over `WINDOWS` windows of `WINDOW`
/// items that a dedicated consumer dequeues after `WARMUP`, while a
/// dedicated producer keeps about `BACKLOG` items queued. Both threads
/// spin rather than yield while they wait: two threads that keep yielding
/// to each other can stay on one core.
///
/// The counter is process-wide and a window can also be tainted by the
/// scheduler: the depot holds one list, so if one thread is descheduled
/// while the other moves more than two lists' worth of items, the surplus
/// overflows to the allocator. One clean window is conclusive the other
/// way: without the hand-over every window of every attempt would count
/// about one allocation per item.
fn split_role_allocs_per_item(
    enqueue: impl Fn(u64) + Sync,
    dequeue: impl Fn() -> Option<u64> + Sync,
) -> f64 {
    let total = WARMUP + WINDOW * WINDOWS;
    let consumed = AtomicU64::new(0);
    let mut fewest = u64::MAX;
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..total {
                while i - consumed.load(Ordering::Acquire) > BACKLOG {
                    std::hint::spin_loop();
                }
                enqueue(i);
            }
        });
        let consumer = s.spawn(|| {
            let mut fewest = u64::MAX;
            let mut start = 0;
            for i in 0..total {
                if i >= WARMUP && (i - WARMUP).is_multiple_of(WINDOW) {
                    let now = ALLOCS.load(Ordering::SeqCst);
                    if i > WARMUP {
                        fewest = fewest.min(now - start);
                    }
                    start = now;
                }
                let v = loop {
                    match dequeue() {
                        Some(v) => break v,
                        None => std::hint::spin_loop(),
                    }
                };
                assert_eq!(v, i, "single producer, single consumer: FIFO order");
                consumed.store(i + 1, Ordering::Release);
            }
            fewest.min(ALLOCS.load(Ordering::SeqCst) - start)
        });
        fewest = consumer.join().unwrap();
    });
    fewest as f64 / WINDOW as f64
}

/// Fresh producer/consumer pairs to try before giving up.
const ATTEMPTS: usize = 5;

/// Runs `attempt` (a fresh queue and thread pair each time) until its rate
/// meets `bound` and, if `overflows_per_mille` is given, at most that many
/// of every 1,000 recycled nodes overflowed to the allocator; at most
/// `ATTEMPTS` times.
///
/// The kernel may place both threads on one core, where they take turns
/// in scheduler time slices and a slice can move more than the depot's
/// one list, so the surplus overflows; a fresh pair usually lands on two
/// cores. With fewer than two cores that is the only placement, so the
/// bounds do not apply and the hand-over must merely have served the
/// producer some nodes.
fn check(
    name: &str,
    bound: f64,
    overflows_per_mille: Option<u64>,
    attempt: impl Fn() -> (f64, PoolStats),
) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut failed = Vec::new();
    for _ in 0..ATTEMPTS {
        let (rate, stats) = attempt();
        println!("{name} 1P:1C: {rate:.4} allocs/item, pool {stats:?}");
        if cores < 2 {
            assert!(stats.hits > 0, "{name}: the producer never reused a node ({stats:?})");
            return;
        }
        let spilled = overflows_per_mille
            .is_some_and(|per_mille| stats.overflows * 1000 > stats.recycled * per_mille);
        if rate <= bound && !spilled {
            return;
        }
        failed.push((rate, stats.overflows, stats.recycled));
    }
    panic!(
        "{name} split roles: (allocator calls per item, overflows, recycled) {failed:?} \
         in {ATTEMPTS} attempts, bounds {bound} calls per item and \
         {overflows_per_mille:?} overflows per 1,000 recycled"
    );
}

#[test]
fn dedicated_producer_recycles_through_the_depot() {
    // A per-item list holds `POOL_LIST_BYTES` of nodes, enough to ride out
    // the backlog's swings between hand-overs, so almost nothing spills.
    check("TurnQueue", 0.1, Some(1), || {
        let q = TurnQueueBuilder::new().max_threads(4).build::<u64>();
        let rate = split_role_allocs_per_item(|v| q.enqueue(v), || q.dequeue());
        (rate, q.pool_stats())
    });
    check("SegTurnQueue", 0.01, None, || {
        let q = TurnQueueBuilder::new().max_threads(4).build_seg::<u64>();
        let rate = split_role_allocs_per_item(|v| q.enqueue(v), || q.dequeue());
        (rate, q.pool_stats())
    });
}
