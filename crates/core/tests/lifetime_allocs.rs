//! Every Turn-family queue frees each heap block it allocated by the time
//! it has dropped — the initial sentinel included — whatever its knobs.
//! Measured at the allocator around one queue's whole life: build,
//! operations and drop run on a thread that is joined before the final
//! count, so the thread-local state those operations create has been freed
//! too.
//!
//! This file deliberately holds a single test: the counting
//! `#[global_allocator]` tallies every allocation in the process, so the
//! measured windows must not race with sibling tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use turn_queue::{TurnMpscQueue, TurnQueue, TurnQueueBuilder, TurnSpmcQueue};

/// Heap blocks allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: delegates to `System`; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // The default `realloc` is alloc + copy + dealloc, which keeps the
    // live count exact.
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const OPS: u64 = 100_000;
/// Items still queued when the queue drops, unless a case says otherwise:
/// with none left, a node retired early sits in the pool at drop, which is
/// where a second free of it would show.
const LEFT: u64 = 10;

fn builder() -> TurnQueueBuilder {
    TurnQueueBuilder::new().max_threads(2)
}

fn pairs(q: &TurnQueue<u64>, n: u64) {
    for i in 0..n {
        q.enqueue(i);
        assert_eq!(q.dequeue(), Some(i));
    }
}

fn turn(q: TurnQueue<u64>, n: u64) {
    pairs(&q, n);
    for i in 0..LEFT {
        q.enqueue(i);
    }
}

fn spmc(n: u64) {
    let q: TurnSpmcQueue<u64> = TurnSpmcQueue::with_max_threads(2);
    let mut producer = q.producer().unwrap();
    for i in 0..n {
        producer.enqueue(i);
        assert_eq!(q.dequeue(), Some(i));
    }
    for i in 0..LEFT {
        producer.enqueue(i);
    }
}

fn mpsc(n: u64, left: u64) {
    let q: TurnMpscQueue<u64> = TurnMpscQueue::with_max_threads(2);
    let mut consumer = q.consumer().unwrap();
    for i in 0..n {
        q.enqueue(i);
        assert_eq!(consumer.dequeue(), Some(i));
    }
    for i in 0..left {
        q.enqueue(i);
    }
}

fn seg(n: u64, left: u64) {
    let q = builder().build_seg::<u64>();
    for i in 0..n {
        q.enqueue(i);
        assert_eq!(q.dequeue(), Some(i));
    }
    for i in 0..left {
        q.enqueue(i);
    }
}

/// Blocks left live by one run of `life` on a joined thread. The counter
/// is process-wide and the libtest harness's own threads allocate at
/// unpredictable moments, so a reading can be off by their traffic; up to
/// five runs are made and the first exact 0 is taken. A queue that leaks
/// reads its leak on every run.
fn leaked_blocks(life: fn()) -> i64 {
    let mut leaked = 0;
    for _ in 0..5 {
        let before = LIVE.load(Ordering::SeqCst);
        std::thread::spawn(life)
            .join()
            .expect("queue life panicked");
        leaked = LIVE.load(Ordering::SeqCst) - before;
        if leaked == 0 {
            break;
        }
    }
    leaked
}

#[test]
fn every_turn_queue_frees_all_it_allocates() {
    let lives: [(&str, fn()); 13] = [
        ("TurnQueue::new, no ops", || drop(TurnQueue::<u64>::new())),
        ("TurnQueue::new, 1 op", || turn(TurnQueue::new(), 1)),
        ("TurnQueue default", || turn(builder().build(), OPS)),
        ("TurnQueue pool_capacity(0)", || {
            turn(builder().pool_capacity(0).build(), OPS)
        }),
        ("TurnQueue fast_tries(0)", || {
            turn(builder().fast_tries(0).build(), OPS)
        }),
        ("TurnQueue paper-literal", || {
            let q = builder().pool_capacity(0).fast_tries(0);
            turn(q.build(), OPS)
        }),
        ("TurnSpmcQueue, 1 op", || spmc(1)),
        ("TurnSpmcQueue", || spmc(OPS)),
        ("TurnMpscQueue, no dequeue", || mpsc(0, LEFT)),
        ("TurnMpscQueue, 1 op, none left", || mpsc(1, 0)),
        ("TurnMpscQueue", || mpsc(OPS, LEFT)),
        // Past the first segment boundary, where the sentinel is retired.
        ("SegTurnQueue, 100 ops, none left", || seg(100, 0)),
        ("SegTurnQueue", || seg(OPS, LEFT)),
    ];
    let leaks: Vec<(&str, i64)> = lives
        .iter()
        .map(|&(name, life)| (name, leaked_blocks(life)))
        .collect();
    assert!(
        leaks.iter().all(|&(_, leaked)| leaked == 0),
        "heap blocks left live after a queue's whole life: {leaks:?}"
    );
}
