//! Plugging the Turn queue's halves: MPSC and SPMC variants.
//!
//! ```sh
//! cargo run --release --example variants_plugin
//! ```
//!
//! The paper (§5): "the algorithm for enqueueing is independent from the
//! algorithm for dequeuing which means it can used to make a SPMC or MPSC
//! queue". This example runs both variants.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use turnq_repro::{TurnMpscQueue, TurnSpmcQueue};

fn mpsc_demo() {
    const PRODUCERS: usize = 3;
    const PER: u64 = 50_000;
    println!("-- Turn MPSC: {PRODUCERS} producers -> 1 consumer --");
    let q: Arc<TurnMpscQueue<u64>> = Arc::new(TurnMpscQueue::with_max_threads(PRODUCERS + 1));
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            s.spawn(move || {
                for i in 0..PER {
                    q.enqueue((p as u64) << 32 | i);
                }
            });
        }
        let mut consumer = q.consumer().expect("first claim");
        assert!(q.consumer().is_none(), "consumer endpoint is exclusive");
        let mut last_seen = [0u64; PRODUCERS];
        let mut received = 0u64;
        while received < PRODUCERS as u64 * PER {
            if let Some(v) = consumer.dequeue() {
                let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                assert!(
                    i + 1 > last_seen[p],
                    "per-producer FIFO violated for producer {p}"
                );
                last_seen[p] = i + 1;
                received += 1;
            }
        }
        println!("   delivered {} items, per-producer FIFO intact", received);
    });
}

fn spmc_demo() {
    const CONSUMERS: usize = 3;
    const TOTAL: u64 = 150_000;
    println!("-- Turn SPMC: 1 producer -> {CONSUMERS} consumers --");
    let q: Arc<TurnSpmcQueue<u64>> = Arc::new(TurnSpmcQueue::with_max_threads(CONSUMERS + 1));
    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut producer = q.producer().expect("first claim");
                assert!(q.producer().is_none(), "producer endpoint is exclusive");
                for i in 0..TOTAL {
                    producer.enqueue(i);
                }
                // After this flips, a `None` dequeue really means drained.
                done.store(true, Ordering::Release);
            });
        }
        let mut sinks = Vec::new();
        for _ in 0..CONSUMERS {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            sinks.push(s.spawn(move || {
                let mut got = Vec::new();
                loop {
                    match q.dequeue() {
                        Some(v) => got.push(v),
                        None if done.load(Ordering::Acquire) => break,
                        None => std::thread::yield_now(),
                    }
                }
                got
            }));
        }
        let mut all = Vec::new();
        for h in sinks {
            all.extend(h.join().unwrap());
        }
        all.sort_unstable();
        assert_eq!(all, (0..TOTAL).collect::<Vec<_>>());
        println!("   delivered {TOTAL} items exactly once across {CONSUMERS} consumers");
    });
}

fn main() {
    mpsc_demo();
    spmc_demo();
    println!("all variant demos passed.");
}
