//! The acceptance check for node recycling, measured at the allocator:
//! with the default pool a steady-state enqueue+dequeue performs **zero**
//! heap allocations, and with `.pool_capacity(0)` (the paper's
//! allocate/free behavior) it performs at least one per item.
//!
//! This file deliberately holds a single test: the counting
//! `#[global_allocator]` tallies every allocation in the process, so the
//! measured windows must not race with sibling tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use turn_queue::{TurnQueue, TurnQueueBuilder};

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

const WARMUP: u64 = 100;
const MEASURED: u64 = 10_000;

fn ping_pong(q: &TurnQueue<u64>, n: u64) {
    for i in 0..n {
        q.enqueue(i);
        assert_eq!(q.dequeue(), Some(i));
    }
}

/// The fewest allocator calls seen over up to five windows of `MEASURED`
/// enqueue+dequeue pairs on an already warmed-up `q`.
///
/// The counter is process-wide, and the libtest harness's own coordination
/// threads allocate at unpredictable moments, so a single window can be
/// tainted by an allocation that is not ours. One *clean* window is
/// conclusive the other way: if the transfer path allocated, every window
/// would count at least `MEASURED` allocations.
fn fewest_window_allocs(q: &TurnQueue<u64>) -> u64 {
    let mut fewest = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::SeqCst);
        ping_pong(q, MEASURED);
        fewest = fewest.min(ALLOCS.load(Ordering::SeqCst) - before);
        if fewest == 0 {
            break;
        }
    }
    fewest
}

#[test]
fn steady_state_allocs_are_zero_with_the_pool_and_one_per_item_without() {
    // Warm-up primes the pool (the first dequeues retire their consumed
    // nodes into it) and lets the hazard-pointer retired `Vec`s reach their
    // steady capacity.
    let pooled: TurnQueue<u64> = TurnQueue::with_max_threads(2);
    ping_pong(&pooled, WARMUP);
    let warm_misses = pooled.pool_stats().misses;
    let window = fewest_window_allocs(&pooled);
    assert_eq!(
        window, 0,
        "steady-state transfer must not touch the allocator \
         ({window} allocations over {MEASURED} enqueue+dequeue pairs, \
         in every one of 5 windows)"
    );
    // Cross-check against the pool's own accounting (the only miss on
    // record is the cold first enqueue, before any node had been retired).
    let s = pooled.pool_stats();
    assert_eq!(s.misses, warm_misses, "warm pool must serve every node: {s:?}");

    let unpooled: TurnQueue<u64> = TurnQueueBuilder::new()
        .max_threads(2)
        .pool_capacity(0)
        .build();
    ping_pong(&unpooled, WARMUP);
    let window = fewest_window_allocs(&unpooled);
    assert!(
        window >= MEASURED,
        "pool_capacity(0) must allocate a node per enqueue \
         ({window} allocations over {MEASURED} enqueue+dequeue pairs)"
    );
}
