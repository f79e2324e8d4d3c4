//! Ablation benches for the design choices the paper calls out.
//!
//! * `hp_scan_threshold` — §3.1: the paper picks `R = 0` "to reduce
//!   latency on dequeue() as much as possible". Larger `R` batches the
//!   retire scans (fewer, bigger) at the cost of a larger bounded backlog.
//! * `max_threads_sizing` — the enqueue/dequeue helping scans are
//!   `O(max_threads)`, so oversizing the bound has a direct per-op cost;
//!   this measures it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use turn_queue::{TurnQueue, TurnQueueBuilder};

fn bench_hp_scan_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("hp_scan_threshold");
    for r in [0usize, 8, 64] {
        let q: TurnQueue<u64> = TurnQueueBuilder::new().max_threads(2).hp_scan_threshold(r).build();
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, _| {
            b.iter(|| {
                q.enqueue(black_box(1));
                black_box(q.dequeue())
            })
        });
    }
    group.finish();
}

fn bench_max_threads_sizing(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_threads_sizing");
    for n in [2usize, 8, 32, 128] {
        let q: TurnQueue<u64> = TurnQueue::with_max_threads(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                q.enqueue(black_box(1));
                black_box(q.dequeue())
            })
        });
    }
    group.finish();
}

/// §4.1's deliberate-backoff observation: after publishing a request, spin
/// briefly betting a helper completes it. Measured as multi-threaded pairs
/// throughput (the contended regime where backoff can pay off).
fn bench_backoff(c: &mut Criterion) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    let mut group = c.benchmark_group("deliberate_backoff");
    group.sample_size(10);
    for spins in [0u32, 64, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(spins), &spins, |b, &spins| {
            b.iter_custom(|iters| {
                const THREADS: usize = 4;
                let q: Arc<TurnQueue<u64>> = Arc::new(
                    TurnQueueBuilder::new()
                        .max_threads(THREADS)
                        .backoff_spins(spins)
                        .build(),
                );
                let barrier = Arc::new(Barrier::new(THREADS));
                let total_ns = Arc::new(AtomicU64::new(0));
                let per_thread = (iters as usize / THREADS).max(1) as u64;
                std::thread::scope(|s| {
                    for _ in 0..THREADS {
                        let q = Arc::clone(&q);
                        let barrier = Arc::clone(&barrier);
                        let total_ns = Arc::clone(&total_ns);
                        s.spawn(move || {
                            barrier.wait();
                            let t0 = std::time::Instant::now();
                            for i in 0..per_thread {
                                q.enqueue(i);
                                let _ = q.dequeue();
                            }
                            total_ns.fetch_add(
                                t0.elapsed().as_nanos() as u64,
                                Ordering::Relaxed,
                            );
                        });
                    }
                });
                // Average per-thread wall time stands in for the batch.
                std::time::Duration::from_nanos(
                    total_ns.load(Ordering::Relaxed) / THREADS as u64,
                )
            })
        });
    }
    group.finish();
}

/// The node-recycling pool ablation: pool-on vs pool-off (capacity 0 —
/// every reclaim frees, every enqueue allocates) on otherwise identical
/// queues, across thread counts. Each thread runs enqueue+dequeue pairs,
/// the regime where recycling closes the allocate/free loop entirely
/// (steady-state hit rate ≈ 100%, see `steady_state_allocs.rs`).
fn bench_node_pool(c: &mut Criterion) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    fn run_pairs(threads: usize, pool_on: bool, iters: u64) -> std::time::Duration {
        let builder = TurnQueueBuilder::new().max_threads(threads);
        let q: Arc<TurnQueue<u64>> = Arc::new(if pool_on {
            // Default capacity: retired_bound-sized free lists.
            builder.build()
        } else {
            builder.pool_capacity(0).build()
        });
        let barrier = Arc::new(Barrier::new(threads));
        let total_ns = Arc::new(AtomicU64::new(0));
        let per_thread = (iters as usize / threads).max(1) as u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                let total_ns = Arc::clone(&total_ns);
                s.spawn(move || {
                    barrier.wait();
                    let t0 = std::time::Instant::now();
                    for i in 0..per_thread {
                        q.enqueue(black_box(i));
                        black_box(q.dequeue());
                    }
                    total_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                });
            }
        });
        std::time::Duration::from_nanos(total_ns.load(Ordering::Relaxed) / threads as u64)
    }

    let mut group = c.benchmark_group("ablation_node_pool");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        for pool_on in [true, false] {
            let label = format!(
                "{threads}t/pool_{}",
                if pool_on { "on" } else { "off" }
            );
            group.bench_with_input(
                BenchmarkId::from_parameter(&label),
                &(threads, pool_on),
                |b, &(threads, pool_on)| {
                    b.iter_custom(|iters| run_pairs(threads, pool_on, iters))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_hp_scan_threshold, bench_max_threads_sizing, bench_backoff,
        bench_node_pool
);
criterion_main!(benches);
