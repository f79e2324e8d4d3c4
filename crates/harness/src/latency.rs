//! The paper's §4.1 latency-measurement procedure.
//!
//! Per run: every thread pre-allocates sample arrays, then the threads
//! execute `bursts` cycles of (all-enqueue, barrier, all-dequeue, barrier),
//! timing each individual `enqueue()`/`dequeue()` call with a monotonic
//! clock. Warmup bursts are executed but not recorded. At the end the
//! per-thread arrays are aggregated, sorted, and the paper's six quantiles
//! extracted; across runs the per-quantile min–max (Table 3) or median
//! (Figure 1) is reported. For paper-scale sample counts the same loop can
//! record into constant-memory histograms instead
//! ([`measure_latency_hist`]).
//!
//! As in the paper, **no artificial delay** is inserted between operations:
//! "we wanted to show that the tail latency on a lock-free queue is
//! severely impacted as contention increases, while on wait-free queues it
//! is not."

use std::sync::Barrier;
use std::time::Instant;

use turnq_api::{ConcurrentQueue, QueueFamily};
use turnq_telemetry::LatencySeries;

use crate::config::Scale;
use crate::kinds::QueueKind;
use crate::stats::{median, paper_quantiles, PAPER_QUANTILES};
use crate::with_queue_family;

/// Emulate the 50-100ns of "work" prior studies insert between queue
/// operations (§4.1 discussion); `spins == 0` (the paper's choice) is
/// free.
#[inline]
pub(crate) fn artificial_work(spins: u32, salt: u64) {
    if spins == 0 {
        return;
    }
    // Randomize in [spins/2, spins] like the cited studies' 50-100ns.
    let jitter = (salt ^ salt >> 7).wrapping_mul(0x9E37_79B9) as u32;
    let n = spins / 2 + jitter % (spins / 2 + 1);
    for _ in 0..n {
        std::hint::spin_loop();
    }
}

/// Quantiles (ns) per run, for both operations.
#[derive(Debug, Clone)]
pub struct LatencyRuns {
    /// One `[p50, p90, p99, p99.9, p99.99, p99.999]` array per run, ns.
    pub enqueue: Vec<[u64; 6]>,
    /// Same for dequeue.
    pub dequeue: Vec<[u64; 6]>,
}

impl LatencyRuns {
    /// Per-quantile median across runs (Figure 1 aggregation).
    pub fn median_enqueue(&self) -> [u64; 6] {
        median_per_quantile(&self.enqueue)
    }

    /// Per-quantile median across runs for dequeue.
    pub fn median_dequeue(&self) -> [u64; 6] {
        median_per_quantile(&self.dequeue)
    }
}

fn median_per_quantile(runs: &[[u64; 6]]) -> [u64; 6] {
    let mut out = [0u64; 6];
    for i in 0..6 {
        let column: Vec<u64> = runs.iter().map(|r| r[i]).collect();
        out[i] = median(&column);
    }
    out
}

/// Run the full latency protocol (`scale.runs` runs) for one queue,
/// keeping every sample as the paper does.
pub fn measure_latency(kind: QueueKind, scale: &Scale) -> LatencyRuns {
    with_queue_family!(kind, F => measure::<F, Vec<u64>>(scale))
}

/// [`measure_latency`] for paper-scale sample counts: each thread records
/// into a [`LatencySeries`] at [`HIST_SUB_BUCKET_BITS`], so memory stays
/// constant (~32 KiB per thread and operation) instead of 8 bytes per
/// sample (1.6 GB at the paper's 2x10^8 samples). Quantiles under-report
/// by at most one bucket (~1.6 % relative).
pub fn measure_latency_hist(kind: QueueKind, scale: &Scale) -> LatencyRuns {
    with_queue_family!(kind, F => measure::<F, LatencySeries>(scale))
}

/// Resolution of [`measure_latency_hist`]: `2^6` linear sub-buckets per
/// power-of-two range, ≤ 1/64 ≈ 1.6 % relative error.
pub const HIST_SUB_BUCKET_BITS: u32 = 6;

/// What one thread of a run records its timed operations into.
trait Samples: Send + Sized {
    /// An empty record for a thread that will time `ops` operations.
    fn for_ops(ops: usize) -> Self;
    fn record(&mut self, nanos: u64);
    /// Aggregate every thread's record into the paper's six quantiles.
    fn paper_quantiles(threads: Vec<Self>) -> [u64; 6];
}

/// The paper's procedure: "the arrays of all threads are aggregated into
/// a single array for the enqueues and a single array for the dequeues"
/// (§4.1), then sorted.
impl Samples for Vec<u64> {
    fn for_ops(ops: usize) -> Self {
        Vec::with_capacity(ops)
    }

    fn record(&mut self, nanos: u64) {
        self.push(nanos);
    }

    fn paper_quantiles(threads: Vec<Self>) -> [u64; 6] {
        paper_quantiles(&mut threads.concat())
    }
}

impl Samples for LatencySeries {
    fn for_ops(_: usize) -> Self {
        LatencySeries::new(HIST_SUB_BUCKET_BITS)
    }

    fn record(&mut self, nanos: u64) {
        LatencySeries::record(self, nanos);
    }

    fn paper_quantiles(threads: Vec<Self>) -> [u64; 6] {
        let mut all = LatencySeries::new(HIST_SUB_BUCKET_BITS);
        for t in &threads {
            all.merge(t);
        }
        PAPER_QUANTILES.map(|q| all.quantile(q).expect("a run times at least one operation"))
    }
}

fn measure<F: QueueFamily, S: Samples>(scale: &Scale) -> LatencyRuns {
    let mut enq_runs = Vec::with_capacity(scale.runs);
    let mut deq_runs = Vec::with_capacity(scale.runs);
    for _ in 0..scale.runs {
        let (enq, deq) = one_run::<F, S>(scale);
        enq_runs.push(S::paper_quantiles(enq));
        deq_runs.push(S::paper_quantiles(deq));
    }
    LatencyRuns {
        enqueue: enq_runs,
        dequeue: deq_runs,
    }
}

/// One run: every thread's enqueue and dequeue records (ns per op).
fn one_run<F: QueueFamily, S: Samples>(scale: &Scale) -> (Vec<S>, Vec<S>) {
    let threads = scale.threads;
    let per_thread = (scale.burst_items / threads).max(1);
    let queue = F::with_max_threads::<u64>(threads);
    let barrier = Barrier::new(threads);
    let total_bursts = scale.warmup + scale.bursts;

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let queue = &queue;
                let barrier = &barrier;
                s.spawn(move || {
                    // "Each thread will pre-allocate two arrays … where the
                    // measurement of the delays of the individual calls …
                    // are stored" (§4.1).
                    let mut enq_samples = S::for_ops(scale.bursts * per_thread);
                    let mut deq_samples = S::for_ops(scale.bursts * per_thread);
                    for burst in 0..total_bursts {
                        let measured = burst >= scale.warmup;
                        barrier.wait();
                        for i in 0..per_thread {
                            let value = ((t * per_thread + i) as u64) | ((burst as u64) << 32);
                            let t0 = Instant::now();
                            queue.enqueue(value);
                            let dt = t0.elapsed().as_nanos() as u64;
                            if measured {
                                enq_samples.record(dt);
                            }
                            artificial_work(scale.work_spins, i as u64);
                        }
                        // "then wait for all the other threads to complete
                        // and then do … dequeues" (§4.1).
                        barrier.wait();
                        for _ in 0..per_thread {
                            let t0 = Instant::now();
                            let got = queue.dequeue();
                            let dt = t0.elapsed().as_nanos() as u64;
                            // Every burst enqueues exactly as many items as
                            // it dequeues, so an empty result would be a
                            // correctness bug, not an expected outcome.
                            assert!(got.is_some(), "burst protocol lost an item");
                            if measured {
                                deq_samples.record(dt);
                            }
                            artificial_work(scale.work_spins, dt);
                        }
                    }
                    (enq_samples, deq_samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).unzip()
    })
}

/// Figure 1: the latency quantiles as a function of the number of
/// competing threads. Returns, per thread count, the per-quantile medians
/// across runs for enqueue and dequeue.
pub fn sweep_latency(
    kind: QueueKind,
    scale: &Scale,
    thread_counts: &[usize],
) -> Vec<(usize, [u64; 6], [u64; 6])> {
    thread_counts
        .iter()
        .map(|&threads| {
            let s = Scale { threads, ..*scale };
            let runs = measure_latency(kind, &s);
            (threads, runs.median_enqueue(), runs.median_dequeue())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            threads: 2,
            bursts: 3,
            burst_items: 64,
            runs: 2,
            pairs: 0,
            warmup: 1,
            work_spins: 0,
        }
    }

    #[test]
    fn protocol_produces_full_quantile_sets() {
        for kind in QueueKind::paper_set() {
            let runs = measure_latency(kind, &tiny());
            assert_eq!(runs.enqueue.len(), 2, "{}", kind.name());
            assert_eq!(runs.dequeue.len(), 2);
            for q in runs.enqueue.iter().chain(runs.dequeue.iter()) {
                for w in q.windows(2) {
                    assert!(w[0] <= w[1], "quantiles must be monotone");
                }
                assert!(q[0] > 0, "a timed op cannot take zero time forever");
            }
        }
    }

    #[test]
    fn sweep_covers_requested_thread_counts() {
        let points = sweep_latency(QueueKind::Turn, &tiny(), &[1, 2]);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].0, 1);
        assert_eq!(points[1].0, 2);
    }

    #[test]
    fn median_per_quantile_is_columnwise() {
        let runs = LatencyRuns {
            enqueue: vec![[1, 10, 100, 1000, 10000, 100000], [3, 30, 300, 3000, 30000, 300000], [2, 20, 200, 2000, 20000, 200000]],
            dequeue: vec![[5, 5, 5, 5, 5, 5]],
        };
        assert_eq!(runs.median_enqueue(), [2, 20, 200, 2000, 20000, 200000]);
        assert_eq!(runs.median_dequeue(), [5, 5, 5, 5, 5, 5]);
    }

    #[test]
    fn histogram_variant_tracks_exact_variant() {
        // Same protocol, two accumulators: the histogram answer may only
        // under-report, and by a bounded factor.
        let scale = tiny();
        let exact = measure_latency(QueueKind::Turn, &scale);
        let hist = measure_latency_hist(QueueKind::Turn, &scale);
        assert_eq!(hist.enqueue.len(), exact.enqueue.len());
        for q in hist.enqueue.iter().chain(hist.dequeue.iter()) {
            for w in q.windows(2) {
                assert!(w[0] <= w[1], "histogram quantiles must be monotone");
            }
        }
    }

    #[test]
    fn artificial_work_zero_is_free_and_nonzero_returns() {
        // Zero must not spin at all; nonzero must terminate promptly.
        artificial_work(0, 123);
        for salt in 0..50 {
            artificial_work(100, salt);
        }
    }

    #[test]
    fn work_spins_protocol_still_measures() {
        let s = Scale {
            work_spins: 200,
            ..tiny()
        };
        let runs = measure_latency(QueueKind::Turn, &s);
        assert_eq!(runs.enqueue.len(), s.runs);
    }

    #[test]
    fn single_thread_run_works() {
        let s = Scale {
            threads: 1,
            ..tiny()
        };
        let runs = measure_latency(QueueKind::Ms, &s);
        assert_eq!(runs.enqueue.len(), 2);
    }
}
