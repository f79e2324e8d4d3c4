//! The paper's §4.4 throughput microbenchmarks.
//!
//! * **Pairs** (Figure 2): every thread performs `pairs / threads`
//!   iterations of one `enqueue` followed by one `dequeue`; the metric is
//!   total operations per second, median of `runs` runs.
//! * **Bursts** (Figure 3): alternating all-threads-enqueue and
//!   all-threads-dequeue bursts of `burst_items` items, timed separately,
//!   so enqueue and dequeue throughput are measured independently and "all
//!   threads are either enqueueing or all dequeueing".

use std::sync::Barrier;
use std::time::Instant;

use turnq_api::{ConcurrentQueue, QueueFamily};

use crate::config::Scale;
use crate::kinds::QueueKind;
use crate::stats::median;
use crate::with_queue_family;

/// Result of the pairs benchmark: operations per second, median of runs.
#[derive(Debug, Clone, Copy)]
pub struct PairsResult {
    /// Total operations (enqueues + dequeues) per second.
    pub ops_per_sec: u64,
}

/// Figure 2 protocol for one queue.
pub fn measure_pairs(kind: QueueKind, scale: &Scale) -> PairsResult {
    with_queue_family!(kind, F => measure_pairs_generic::<F>(scale))
}

fn measure_pairs_generic<F: QueueFamily>(scale: &Scale) -> PairsResult {
    let mut per_run = Vec::with_capacity(scale.runs);
    for _ in 0..scale.runs {
        let queue = F::with_max_threads::<u64>(scale.threads);
        per_run.push(pairs_once_on(&queue, scale));
    }
    PairsResult {
        ops_per_sec: median(&per_run),
    }
}

/// One pairs run against an already built queue.
fn pairs_once_on<Q: ConcurrentQueue<u64>>(queue: &Q, scale: &Scale) -> u64 {
    let threads = scale.threads;
    let per_thread = (scale.pairs / threads).max(1);
    let barrier = Barrier::new(threads);
    // Every worker records its own (start, end) against a shared origin;
    // wall time = max(end) - min(start). A single observer thread would be
    // unreliable here: on an oversubscribed machine it can be descheduled
    // between the barrier release and its timestamp, shrinking the
    // measured window arbitrarily.
    let origin = Instant::now();
    let spans: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                let origin = &origin;
                s.spawn(move || {
                    barrier.wait();
                    let start = origin.elapsed().as_nanos() as u64;
                    for i in 0..per_thread {
                        queue.enqueue(((t * per_thread + i) as u64) + 1);
                        // A pair leaves at most `threads` items in flight,
                        // so the dequeue may legitimately observe empty if
                        // another thread consumed our item first — but an
                        // item is always consumed per iteration on average.
                        let _ = queue.dequeue();
                        crate::latency::artificial_work(scale.work_spins, i as u64);
                    }
                    let end = origin.elapsed().as_nanos() as u64;
                    (start, end)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let start = spans.iter().map(|s| s.0).min().unwrap();
    let end = spans.iter().map(|s| s.1).max().unwrap();
    let elapsed_ns = (end - start).max(1);
    let total_ops = 2 * per_thread as u64 * threads as u64;
    ((total_ops as f64) / (elapsed_ns as f64 / 1e9)) as u64
}

/// Split `total` worker threads into producer and consumer counts in the
/// proportion `p:c`, keeping at least one thread on each side (so callers
/// sweeping a thread axis can apply one `--ratio` across it). `Err` with
/// a usage message when the split is impossible: fewer than 2 threads, or
/// a zero ratio side (which would ask for no producer or no consumer).
pub fn try_split_ratio(total: usize, p: usize, c: usize) -> Result<(usize, usize), String> {
    if total < 2 {
        return Err(format!(
            "a P:C split needs at least 2 threads (got --threads={total})"
        ));
    }
    if p == 0 || c == 0 {
        return Err(format!(
            "both ratio sides must be >= 1 (got {p}:{c}; a zero side would leave \
             no producer or no consumer)"
        ));
    }
    let producers = ((total * p + (p + c) / 2) / (p + c)).clamp(1, total - 1);
    Ok((producers, total - producers))
}

/// [`try_split_ratio`] for binaries: prints the error to stderr and exits
/// with status 2 (a usage error, not a panic backtrace).
pub fn split_ratio(total: usize, p: usize, c: usize) -> (usize, usize) {
    try_split_ratio(total, p, c).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// Asymmetric producer:consumer protocol for one queue — the `--ratio`
/// variant of the pairs benchmark (used by `figure2_throughput_pairs`;
/// see docs/bench_format.md). The scale's
/// `threads` field is ignored: the run uses `producers + consumers`
/// worker threads.
pub fn measure_ratio(
    kind: QueueKind,
    scale: &Scale,
    producers: usize,
    consumers: usize,
) -> PairsResult {
    with_queue_family!(kind, F => measure_ratio_generic::<F>(scale, producers, consumers))
}

fn measure_ratio_generic<F: QueueFamily>(
    scale: &Scale,
    producers: usize,
    consumers: usize,
) -> PairsResult {
    let mut per_run = Vec::with_capacity(scale.runs);
    for _ in 0..scale.runs {
        let queue = F::with_max_threads::<u64>(producers + consumers);
        per_run.push(ratio_once_on(&queue, scale, producers, consumers));
    }
    PairsResult {
        ops_per_sec: median(&per_run),
    }
}

/// One asymmetric run against an already built queue (which must have
/// been built for at least `producers + consumers` threads): `producers`
/// threads push `scale.pairs / producers` items each while `consumers`
/// threads pop until every pushed item has been consumed. Returns total
/// operations per second, counting one enqueue and one dequeue per item
/// (failed pops on a momentarily empty queue are not counted — the metric
/// stays comparable with [`pairs_once_on`]).
fn ratio_once_on<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    scale: &Scale,
    producers: usize,
    consumers: usize,
) -> u64 {
    assert!(
        producers >= 1 && consumers >= 1,
        "ratio runs need at least one producer and one consumer"
    );
    let per_prod = (scale.pairs / producers).max(1);
    let total = per_prod * producers;
    let threads = producers + consumers;
    let barrier = Barrier::new(threads);
    // Consumed-item count, shared by the consumers so the run terminates
    // exactly when the last pushed item has been popped (a fixed per-
    // consumer quota would deadlock whenever another consumer overtakes).
    let consumed = std::sync::atomic::AtomicUsize::new(0);
    let origin = Instant::now();
    // Per-worker spans against a shared origin, as in `pairs_once_on`.
    let spans: Vec<(u64, u64)> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for p in 0..producers {
            let barrier = &barrier;
            let origin = &origin;
            handles.push(s.spawn(move || {
                barrier.wait();
                let start = origin.elapsed().as_nanos() as u64;
                for i in 0..per_prod {
                    queue.enqueue(((p * per_prod + i) as u64) + 1);
                    crate::latency::artificial_work(scale.work_spins, i as u64);
                }
                let end = origin.elapsed().as_nanos() as u64;
                (start, end)
            }));
        }
        for _ in 0..consumers {
            let barrier = &barrier;
            let origin = &origin;
            let consumed = &consumed;
            handles.push(s.spawn(move || {
                barrier.wait();
                let start = origin.elapsed().as_nanos() as u64;
                while consumed.load(std::sync::atomic::Ordering::Relaxed) < total {
                    if queue.dequeue().is_some() {
                        consumed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    } else {
                        std::hint::spin_loop();
                    }
                }
                let end = origin.elapsed().as_nanos() as u64;
                (start, end)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let start = spans.iter().map(|s| s.0).min().unwrap();
    let end = spans.iter().map(|s| s.1).max().unwrap();
    let elapsed_ns = (end - start).max(1);
    let total_ops = 2 * total as u64;
    ((total_ops as f64) / (elapsed_ns as f64 / 1e9)) as u64
}

/// Result of the burst benchmark: items per second for each side,
/// median across measured bursts and runs.
#[derive(Debug, Clone, Copy)]
pub struct BurstResult {
    /// Enqueue-side throughput (items/s).
    pub enqueue_items_per_sec: u64,
    /// Dequeue-side throughput (items/s).
    pub dequeue_items_per_sec: u64,
}

/// Figure 3 protocol for one queue.
pub fn measure_bursts(kind: QueueKind, scale: &Scale) -> BurstResult {
    with_queue_family!(kind, F => measure_bursts_generic::<F>(scale))
}

fn measure_bursts_generic<F: QueueFamily>(scale: &Scale) -> BurstResult {
    let mut enq_rates = Vec::new();
    let mut deq_rates = Vec::new();
    for _ in 0..scale.runs {
        let (e, d) = bursts_once::<F>(scale);
        enq_rates.extend(e);
        deq_rates.extend(d);
    }
    BurstResult {
        enqueue_items_per_sec: median(&enq_rates),
        dequeue_items_per_sec: median(&deq_rates),
    }
}

/// One run of alternating bursts; returns per-burst rates (items/s).
///
/// Each worker records its own start/end offsets per burst against a
/// shared origin; the burst's wall time is `max(end) - min(start)` over
/// the workers (no separate timekeeper — see `pairs_once_on` for why).
fn bursts_once<F: QueueFamily>(scale: &Scale) -> (Vec<u64>, Vec<u64>) {
    let threads = scale.threads;
    let per_thread = (scale.burst_items / threads).max(1);
    let items = per_thread * threads;
    let queue = F::with_max_threads::<u64>(threads);
    let barrier = Barrier::new(threads);
    let total_bursts = scale.warmup + scale.bursts;
    let origin = Instant::now();

    // spans[thread] = per-burst (enq_start, enq_end, deq_start, deq_end).
    let spans: Vec<Vec<(u64, u64, u64, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let queue = &queue;
                let barrier = &barrier;
                let origin = &origin;
                s.spawn(move || {
                    let mut mine = Vec::with_capacity(total_bursts);
                    for burst in 0..total_bursts {
                        barrier.wait();
                        let e0 = origin.elapsed().as_nanos() as u64;
                        for i in 0..per_thread {
                            queue.enqueue(((burst * items + t * per_thread + i) as u64) + 1);
                        }
                        let e1 = origin.elapsed().as_nanos() as u64;
                        barrier.wait();
                        let d0 = origin.elapsed().as_nanos() as u64;
                        for _ in 0..per_thread {
                            let got = queue.dequeue();
                            assert!(got.is_some(), "burst protocol lost an item");
                        }
                        let d1 = origin.elapsed().as_nanos() as u64;
                        mine.push((e0, e1, d0, d1));
                        barrier.wait();
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut enq_rates = Vec::with_capacity(scale.bursts);
    let mut deq_rates = Vec::with_capacity(scale.bursts);
    for burst in scale.warmup..total_bursts {
        let e_start = spans.iter().map(|v| v[burst].0).min().unwrap();
        let e_end = spans.iter().map(|v| v[burst].1).max().unwrap();
        let d_start = spans.iter().map(|v| v[burst].2).min().unwrap();
        let d_end = spans.iter().map(|v| v[burst].3).max().unwrap();
        let enq_ns = (e_end - e_start).max(1);
        let deq_ns = (d_end - d_start).max(1);
        enq_rates.push(((items as f64) / (enq_ns as f64 / 1e9)) as u64);
        deq_rates.push(((items as f64) / (deq_ns as f64 / 1e9)) as u64);
    }
    (enq_rates, deq_rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            threads: 2,
            bursts: 2,
            burst_items: 200,
            runs: 2,
            pairs: 1_000,
            warmup: 1,
            work_spins: 0,
        }
    }

    #[test]
    fn pairs_reports_positive_throughput() {
        for kind in QueueKind::paper_set() {
            let r = measure_pairs(kind, &tiny());
            assert!(r.ops_per_sec > 0, "{}", kind.name());
        }
    }

    #[test]
    fn bursts_report_both_sides() {
        for kind in QueueKind::paper_set() {
            let r = measure_bursts(kind, &tiny());
            assert!(r.enqueue_items_per_sec > 0, "{}", kind.name());
            assert!(r.dequeue_items_per_sec > 0, "{}", kind.name());
        }
    }

    #[test]
    fn single_thread_pairs() {
        let s = Scale {
            threads: 1,
            ..tiny()
        };
        let r = measure_pairs(QueueKind::Turn, &s);
        assert!(r.ops_per_sec > 0);
    }

    #[test]
    fn split_ratio_rounds_and_clamps() {
        assert_eq!(split_ratio(4, 1, 1), (2, 2));
        assert_eq!(split_ratio(8, 3, 1), (6, 2));
        assert_eq!(split_ratio(2, 7, 1), (1, 1)); // clamped: one each side
        assert_eq!(split_ratio(3, 1, 2), (1, 2));
        // Extreme ratios still leave a thread on each side.
        assert_eq!(try_split_ratio(8, 1000, 1), Ok((7, 1)));
        assert_eq!(try_split_ratio(8, 1, 1000), Ok((1, 7)));
    }

    #[test]
    fn split_ratio_rejects_impossible_splits_with_clear_error() {
        for total in [0, 1] {
            let err = try_split_ratio(total, 1, 1).unwrap_err();
            assert!(err.contains("at least 2 threads"), "{total}: {err}");
            assert!(err.contains(&total.to_string()), "{total}: {err}");
        }
        for (p, c) in [(0, 2), (2, 0), (0, 0)] {
            let err = try_split_ratio(4, p, c).unwrap_err();
            assert!(err.contains("must be >= 1"), "{p}:{c}: {err}");
            assert!(err.contains(&format!("{p}:{c}")), "{p}:{c}: {err}");
        }
    }

    #[test]
    fn ratio_runs_asymmetric_splits() {
        let s = tiny();
        for (p, c) in [(1, 1), (3, 1), (1, 3)] {
            let r = measure_ratio(QueueKind::Turn, &s, p, c);
            assert!(r.ops_per_sec > 0, "{p}:{c}");
        }
    }

    #[test]
    fn ratio_on_external_queue_consumes_everything() {
        let s = tiny();
        let q = turn_queue::TurnQueue::<u64>::with_max_threads(4);
        let rate = ratio_once_on(&q, &s, 3, 1);
        assert!(rate > 0);
        // Every pushed item was consumed: the queue ends empty.
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mutex_and_faa_also_run() {
        let r = measure_pairs(QueueKind::Mutex, &tiny());
        assert!(r.ops_per_sec > 0);
        let r = measure_bursts(QueueKind::Faa, &tiny());
        assert!(r.enqueue_items_per_sec > 0);
    }
}
