//! Quickstart: the Turn queue as a drop-in MPMC channel.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Demonstrates construction, the ergonomic and handle-based APIs,
//! multi-threaded producing/consuming, and the exactly-once delivery
//! guarantee.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turnq_repro::TurnQueue;

fn main() {
    const PRODUCERS: usize = 3;
    const CONSUMERS: usize = 3;
    const ITEMS_PER_PRODUCER: u64 = 100_000;

    // Size the queue to the number of threads that will actually touch it:
    // every operation's wait-free bound is O(max_threads). The +1 is the
    // main thread, which does the warm-up ops below — a thread occupies a
    // slot from its first operation until it exits.
    let queue: Arc<TurnQueue<u64>> =
        Arc::new(TurnQueue::with_max_threads(PRODUCERS + CONSUMERS + 1));

    // Single-threaded warm-up: the basic API.
    queue.enqueue(42);
    assert_eq!(queue.dequeue(), Some(42));
    assert_eq!(queue.dequeue(), None); // empty queue → None, never blocks

    let produced = Arc::new(AtomicU64::new(0));
    let consumed = Arc::new(AtomicU64::new(0));
    let checksum = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let queue = Arc::clone(&queue);
            let produced = Arc::clone(&produced);
            s.spawn(move || {
                // The handle API caches the thread's registry slot — use it
                // in hot loops.
                let handle = queue.handle().expect("registry slot");
                for i in 0..ITEMS_PER_PRODUCER {
                    handle.enqueue((p as u64) << 32 | i);
                    produced.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for _ in 0..CONSUMERS {
            let queue = Arc::clone(&queue);
            let consumed = Arc::clone(&consumed);
            let checksum = Arc::clone(&checksum);
            s.spawn(move || {
                let handle = queue.handle().expect("registry slot");
                let target = PRODUCERS as u64 * ITEMS_PER_PRODUCER;
                loop {
                    match handle.dequeue() {
                        Some(v) => {
                            checksum.fetch_add(v, Ordering::Relaxed);
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        // Wait-free means dequeue never blocks: on empty it
                        // returns immediately and we decide what to do.
                        None => {
                            if consumed.load(Ordering::Relaxed) >= target {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });

    let expected_count = PRODUCERS as u64 * ITEMS_PER_PRODUCER;
    let expected_sum: u64 = (0..PRODUCERS as u64)
        .map(|p| (p << 32) * ITEMS_PER_PRODUCER + (0..ITEMS_PER_PRODUCER).sum::<u64>())
        .sum();
    println!("produced: {}", produced.load(Ordering::Relaxed));
    println!("consumed: {}", consumed.load(Ordering::Relaxed));
    assert_eq!(consumed.load(Ordering::Relaxed), expected_count);
    assert_eq!(checksum.load(Ordering::Relaxed), expected_sum);
    println!("exactly-once delivery verified (checksum {expected_sum}).");

    // Every queue carries always-on telemetry (no-op when the `telemetry`
    // feature is off): op counts, helping pressure, CAS retries, hazard-
    // pointer and node-pool traffic. All threads are joined, so the
    // snapshot is exact — Prometheus text, ready to scrape or diff.
    let snap = queue.telemetry_snapshot();
    println!("\n--- telemetry snapshot ---");
    print!("{}", snap.to_prometheus());

    // About one operation in 64 per thread also recorded its wall-clock
    // latency, attributed to the path it actually took (fast append,
    // consensus slow path, helped by another thread, segment cell); the
    // op counters above stay exact. Per-path quantiles come straight out
    // of the in-queue histograms — no external timing harness needed.
    println!("\n--- op latency by path (ns) ---");
    println!(
        "{:<12} {:>10} {:>8} {:>8} {:>8}",
        "op_path", "count", "p50", "p99", "p999"
    );
    for (key, series) in snap.latency_series() {
        if series.count() == 0 {
            continue;
        }
        println!(
            "{:<12} {:>10} {:>8} {:>8} {:>8}",
            key.name(),
            series.count(),
            series.quantile(0.5).unwrap_or(0),
            series.quantile(0.99).unwrap_or(0),
            series.quantile(0.999).unwrap_or(0),
        );
    }
}
