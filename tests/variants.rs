//! Integration tests for the pluggable variants (§5): composing the Turn
//! MPSC and SPMC halves into pipelines, and cross-checking them against
//! the Vyukov MPSC and the bounded SPSC ring on the same workloads.
//!
//! Also home of the dual-mode ordering gate: CI runs this suite once on
//! the relaxed default build and once with `--features seqcst` (which
//! collapses every `turnq_sync::ord` ordering back to the paper's SC),
//! so the stress + linearizability oracle below certifies both sides of
//! the ablation in `docs/orderings.md`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use turnq_repro::baselines::{Full, SpscRing, VyukovMpscQueue};
use turnq_repro::linearize::recorder::RecordConfig;
use turnq_repro::linearize::{check_history, check_history_relaxed, record_history, CheckResult};
use turnq_repro::{
    BoundedBuilder, BoundedQueue, ConcurrentQueue, SegTurnQueue, ShardedBuilder,
    ShardedTurnQueue, TurnMpscQueue, TurnQueue, TurnQueueBuilder, TurnSpmcQueue,
    DEFAULT_FAST_TRIES,
};

/// Fan-in then fan-out: producers → (Turn MPSC) → router thread →
/// (Turn SPMC) → consumers. Exercises both variants simultaneously with
/// ownership of the single-sided endpoints living on the router.
#[test]
fn mpsc_to_spmc_pipeline() {
    const PRODUCERS: usize = 3;
    const CONSUMERS: usize = 3;
    const PER: u64 = 4_000;
    const TOTAL: u64 = PRODUCERS as u64 * PER;

    let fan_in: Arc<TurnMpscQueue<u64>> =
        Arc::new(TurnMpscQueue::with_max_threads(PRODUCERS + 1));
    let fan_out: Arc<TurnSpmcQueue<u64>> =
        Arc::new(TurnSpmcQueue::with_max_threads(CONSUMERS + 1));
    let routed = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let fan_in = Arc::clone(&fan_in);
            s.spawn(move || {
                for i in 0..PER {
                    fan_in.enqueue((p as u64) << 40 | i);
                }
            });
        }
        {
            // Router: the exclusive consumer of fan_in and the exclusive
            // producer of fan_out.
            let fan_in = Arc::clone(&fan_in);
            let fan_out = Arc::clone(&fan_out);
            let routed = Arc::clone(&routed);
            s.spawn(move || {
                let mut rx = fan_in.consumer().expect("router owns fan-in");
                let mut tx = fan_out.producer().expect("router owns fan-out");
                let mut moved = 0;
                while moved < TOTAL {
                    if let Some(v) = rx.dequeue() {
                        tx.enqueue(v);
                        moved += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                routed.store(true, Ordering::Release);
            });
        }
        let sinks: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let fan_out = Arc::clone(&fan_out);
                let routed = Arc::clone(&routed);
                s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match fan_out.dequeue() {
                            Some(v) => got.push(v),
                            None if routed.load(Ordering::Acquire) => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u64> = sinks
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), TOTAL as usize, "pipeline lost or duplicated items");
    });
}

/// The same MPSC workload through Turn and Vyukov must deliver identical
/// multisets with identical per-producer orderings.
#[test]
fn turn_and_vyukov_mpsc_agree() {
    const PRODUCERS: usize = 3;
    const PER: u64 = 3_000;

    fn run_turn(producers: usize, per: u64) -> Vec<u64> {
        let q: Arc<TurnMpscQueue<u64>> =
            Arc::new(TurnMpscQueue::with_max_threads(producers + 1));
        std::thread::scope(|s| {
            for p in 0..producers {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..per {
                        q.enqueue((p as u64) << 40 | i);
                    }
                });
            }
            let mut c = q.consumer().unwrap();
            let mut got = Vec::new();
            while got.len() < producers * per as usize {
                match c.dequeue() {
                    Some(v) => got.push(v),
                    None => std::thread::yield_now(),
                }
            }
            got
        })
    }

    fn run_vyukov(producers: usize, per: u64) -> Vec<u64> {
        let q: Arc<VyukovMpscQueue<u64>> = Arc::new(VyukovMpscQueue::new());
        std::thread::scope(|s| {
            for p in 0..producers {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..per {
                        q.enqueue((p as u64) << 40 | i);
                    }
                });
            }
            let mut c = q.consumer().unwrap();
            let mut got = Vec::new();
            while got.len() < producers * per as usize {
                match c.dequeue() {
                    Some(v) => got.push(v),
                    None => std::thread::yield_now(),
                }
            }
            got
        })
    }

    for got in [run_turn(PRODUCERS, PER), run_vyukov(PRODUCERS, PER)] {
        // Exact multiset.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), PRODUCERS * PER as usize);
        // Per-producer FIFO.
        let mut last = [-1i64; PRODUCERS];
        for v in got {
            let (p, i) = ((v >> 40) as usize, (v & 0xff_ffff_ffff) as i64);
            assert!(i > last[p]);
            last[p] = i;
        }
    }
}

/// Backpressure loop: bounded SPSC ring feeding a Turn SPMC stage. The
/// bounded stage applies backpressure (Full errors); nothing may be lost.
#[test]
fn bounded_front_unbounded_back() {
    const TOTAL: u64 = 20_000;
    const CONSUMERS: usize = 2;
    let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::with_capacity(32));
    let stage2: Arc<TurnSpmcQueue<u64>> =
        Arc::new(TurnSpmcQueue::with_max_threads(CONSUMERS + 1));
    let pumped = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        {
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                let mut tx = ring.producer().unwrap();
                let mut backpressure_hits = 0u64;
                for i in 0..TOTAL {
                    let mut item = i;
                    loop {
                        match tx.try_enqueue(item) {
                            Ok(()) => break,
                            Err(Full(back)) => {
                                item = back;
                                backpressure_hits += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                // A 32-slot ring in front of 20k items must push back.
                assert!(backpressure_hits > 0, "backpressure never engaged");
            });
        }
        {
            let ring = Arc::clone(&ring);
            let stage2 = Arc::clone(&stage2);
            let pumped = Arc::clone(&pumped);
            s.spawn(move || {
                let mut rx = ring.consumer().unwrap();
                let mut tx = stage2.producer().unwrap();
                let mut moved = 0;
                while moved < TOTAL {
                    match rx.dequeue() {
                        Some(v) => {
                            tx.enqueue(v);
                            moved += 1;
                        }
                        None => std::thread::yield_now(),
                    }
                }
                pumped.store(true, Ordering::Release);
            });
        }
        let sinks: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let stage2 = Arc::clone(&stage2);
                let pumped = Arc::clone(&pumped);
                s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match stage2.dequeue() {
                            Some(v) => got.push(v),
                            None if pumped.load(Ordering::Acquire) => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u64> = sinks
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..TOTAL).collect::<Vec<_>>());
    });
}

/// The dual-mode ordering gate (see module docs), run once per fast-path
/// mode and once on the paper-literal queue (`fast_tries(0)` plus
/// `pool_capacity(0)`): an 8-thread MPMC stress with an exactly-once +
/// per-producer-FIFO oracle, then exact linearizability windows at 8
/// threads. `turnq_sync::SEQCST_BUILD` labels the ordering mode and
/// `fast_tries` labels the fast-path mode, so together with the seqcst
/// CI leg this covers all four cells of the
/// fastpath-{on,off} × {relaxed,seqcst} matrix (DESIGN.md §6c).
#[test]
fn eight_thread_stress_and_oracle_dual_mode() {
    let ordering = if turnq_sync::SEQCST_BUILD { "seqcst" } else { "relaxed" };
    for (label, tries, pool) in [
        ("fastpath-on", DEFAULT_FAST_TRIES, None),
        ("fastpath-off", 0, None),
        ("fastpath-off+pool-off", 0, Some(0)),
    ] {
        stress_and_oracle(&format!("{ordering}+{label}"), tries, pool);
    }
}

/// A builder with `pool_capacity` applied when given (`Some(0)` turns node
/// recycling off: the paper's allocate/free behavior).
fn builder(max_threads: usize, pool_capacity: Option<usize>) -> TurnQueueBuilder {
    let b = TurnQueueBuilder::new().max_threads(max_threads);
    match pool_capacity {
        Some(c) => b.pool_capacity(c),
        None => b,
    }
}

fn stress_and_oracle(mode: &str, fast_tries: u32, pool_capacity: Option<usize>) {
    println!("mode under test: {mode} (fast_tries={fast_tries}, pool_capacity={pool_capacity:?})");

    // --- 8-thread stress: 4 producers + 4 consumers on the full queue.
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 4;
    const PER: u64 = 10_000;
    const TOTAL: usize = PRODUCERS * PER as usize;

    let q: Arc<TurnQueue<u64>> = Arc::new(
        builder(PRODUCERS + CONSUMERS, pool_capacity)
            .fast_tries(fast_tries)
            .build(),
    );
    let received = Arc::new(AtomicUsize::new(0));

    let lanes: Vec<Vec<u64>> = std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            s.spawn(move || {
                let h = q.handle().expect("registry slot");
                for i in 0..PER {
                    h.enqueue((p as u64) << 40 | i);
                }
            });
        }
        let sinks: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let received = Arc::clone(&received);
                s.spawn(move || {
                    let h = q.handle().expect("registry slot");
                    let mut got = Vec::new();
                    while received.load(Ordering::SeqCst) < TOTAL {
                        if let Some(v) = h.dequeue() {
                            received.fetch_add(1, Ordering::SeqCst);
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                })
            })
            .collect();
        sinks.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly-once delivery...
    let mut all: Vec<u64> = lanes.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), TOTAL, "[{mode}] stress lost or duplicated items");
    // ...and per-producer FIFO within each consumer lane.
    for lane in &lanes {
        let mut last = [-1i64; PRODUCERS];
        for &v in lane {
            let (p, i) = ((v >> 40) as usize, (v & ((1 << 40) - 1)) as i64);
            assert!(i > last[p], "[{mode}] producer {p} reordered");
            last[p] = i;
        }
    }

    // --- Exact linearizability oracle at 8 threads (short windows keep
    // the exact checker tractable; each seed is a fresh adversarial
    // window, as in tests/linearizability.rs).
    let config = RecordConfig {
        threads: 8,
        ops_per_thread: 2,
        enqueue_bias: 128,
    };
    for seed in 500..510 {
        let q: TurnQueue<u64> = builder(config.threads + 1, pool_capacity)
            .fast_tries(fast_tries)
            .build();
        let history = record_history(&q, config, seed);
        match check_history(&history) {
            CheckResult::Linearizable(_) => {}
            CheckResult::NotLinearizable => {
                panic!("[{mode}] Turn: NOT linearizable (seed {seed}): {history:?}")
            }
            CheckResult::Inconclusive => {
                panic!("[{mode}] Turn: checker budget exhausted (seed {seed})")
            }
        }
    }
}

/// The segment-mode twin of the gate above (DESIGN.md §6d), run with
/// 16-cell segments (pooled and unpooled rings) and in the `seg_size = 1`
/// paper-literal degeneration: the same 8-thread stress oracle plus exact
/// linearizability windows, over the FAA cell claims, boundary appends,
/// head advances, and the cached-HP discipline that per-item mode never
/// exercises. Together with the seqcst CI leg this covers the
/// seg-{16,1} × {relaxed,seqcst} matrix.
#[test]
fn eight_thread_stress_and_oracle_segmented_dual_mode() {
    let ordering = if turnq_sync::SEQCST_BUILD { "seqcst" } else { "relaxed" };
    for (label, seg_size, pool) in [
        ("seg-16", 16, None),
        ("seg-16+pool-off", 16, Some(0)),
        ("seg-1", 1, None),
    ] {
        seg_stress_and_oracle(&format!("{ordering}+{label}"), seg_size, pool);
    }
}

fn seg_stress_and_oracle(mode: &str, seg_size: usize, pool_capacity: Option<usize>) {
    println!("mode under test: {mode} (seg_size={seg_size}, pool_capacity={pool_capacity:?})");

    // --- 8-thread stress: 4 producers + 4 consumers on the segmented
    // queue, same oracle as the fast-path gate.
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 4;
    const PER: u64 = 10_000;
    const TOTAL: usize = PRODUCERS * PER as usize;

    let q: Arc<SegTurnQueue<u64>> = Arc::new(
        builder(PRODUCERS + CONSUMERS, pool_capacity)
            .seg_size(seg_size)
            .build_seg(),
    );
    let received = Arc::new(AtomicUsize::new(0));

    let lanes: Vec<Vec<u64>> = std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            s.spawn(move || {
                let h = q.handle().expect("registry slot");
                for i in 0..PER {
                    h.enqueue((p as u64) << 40 | i);
                }
            });
        }
        let sinks: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let received = Arc::clone(&received);
                s.spawn(move || {
                    let h = q.handle().expect("registry slot");
                    let mut got = Vec::new();
                    while received.load(Ordering::SeqCst) < TOTAL {
                        if let Some(v) = h.dequeue() {
                            received.fetch_add(1, Ordering::SeqCst);
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                })
            })
            .collect();
        sinks.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly-once delivery...
    let mut all: Vec<u64> = lanes.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), TOTAL, "[{mode}] stress lost or duplicated items");
    // ...and per-producer FIFO within each consumer lane.
    for lane in &lanes {
        let mut last = [-1i64; PRODUCERS];
        for &v in lane {
            let (p, i) = ((v >> 40) as usize, (v & ((1 << 40) - 1)) as i64);
            assert!(i > last[p], "[{mode}] producer {p} reordered");
            last[p] = i;
        }
    }

    // --- Exact linearizability oracle at 8 threads, fresh adversarial
    // windows per seed (the recorder is generic over ConcurrentQueue, so
    // the segmented queue slots straight in).
    let config = RecordConfig {
        threads: 8,
        ops_per_thread: 2,
        enqueue_bias: 128,
    };
    for seed in 700..710 {
        let q: SegTurnQueue<u64> = builder(config.threads + 1, pool_capacity)
            .seg_size(seg_size)
            .build_seg();
        let history = record_history(&q, config, seed);
        match check_history(&history) {
            CheckResult::Linearizable(_) => {}
            CheckResult::NotLinearizable => {
                panic!("[{mode}] Turn-seg: NOT linearizable (seed {seed}): {history:?}")
            }
            CheckResult::Inconclusive => {
                panic!("[{mode}] Turn-seg: checker budget exhausted (seed {seed})")
            }
        }
    }
}

/// Starvation gate for the fast path's panic flag (DESIGN.md §6c): a
/// thread whose operations fall back to published slow-path requests
/// must keep completing while fast-path threads hammer the queue — the
/// panic-flag scan reroutes the hammer into helping as soon as a request
/// is published. A broken flag lets the hammer win the tail/head race
/// forever, which here would hang the victim's join (liveness is the
/// assertion; the model-check twin in crates/modelcheck/tests/fastpath.rs
/// proves the step-bound form of the same property deterministically).
#[test]
fn published_request_completes_under_fastpath_hammer() {
    const HAMMERS: usize = 6;
    const VICTIM_PAIRS: u64 = 4_000;
    // A 1-try budget makes the victim fall back to the slow path on the
    // slightest interference while the hammer still runs fast-path ops.
    let q: Arc<TurnQueue<u64>> = Arc::new(
        TurnQueueBuilder::new()
            .max_threads(HAMMERS + 1)
            .fast_tries(1)
            .build(),
    );
    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for t in 0..HAMMERS {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let h = q.handle().expect("registry slot");
                let mut i = 0u64;
                while !done.load(Ordering::SeqCst) {
                    h.enqueue((t as u64) << 40 | i);
                    let _ = h.dequeue();
                    i += 1;
                }
            });
        }
        let victim = {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let h = q.handle().expect("registry slot");
                for i in 0..VICTIM_PAIRS {
                    h.enqueue(u64::MAX - i);
                    let _ = h.dequeue();
                }
                done.store(true, Ordering::SeqCst);
            })
        };
        victim.join().expect("victim starved or panicked");
    });
    if turnq_repro::telemetry::ENABLED {
        let snap = q.telemetry_snapshot();
        assert!(
            snap.get("fast_enq_hit") + snap.get("fast_deq_hit") > 0,
            "hammer never took the fast path — the gate tested nothing"
        );
        println!(
            "starvation gate: fast hits enq={} deq={}, slow fallbacks enq={} deq={}",
            snap.get("fast_enq_hit"),
            snap.get("fast_deq_hit"),
            snap.get("fast_enq_fallback"),
            snap.get("fast_deq_fallback"),
        );
    }
}

/// The bounded ring's side of the stress + linearizability gate
/// (ISSUE 10): the same 8-thread exactly-once / per-producer-FIFO oracle
/// the Turn variants run above, on `BoundedQueue` — which, unlike the
/// sharded front-end, is *strict* FIFO, so the exact checker applies.
/// The trait `enqueue` spins on `Full`, so a ring smaller than the
/// in-flight backlog doubles as live backpressure during the stress.
#[test]
fn bounded_eight_thread_stress_and_exact_oracle() {
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 4;
    const PER: u64 = 10_000;
    const TOTAL: usize = PRODUCERS * PER as usize;

    let q: Arc<BoundedQueue<u64>> = Arc::new(
        BoundedBuilder::new()
            .capacity(256) // far below the 40k in flight: Full engages
            .max_threads(PRODUCERS + CONSUMERS)
            .build(),
    );
    let received = Arc::new(AtomicUsize::new(0));

    let lanes: Vec<Vec<u64>> = std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            s.spawn(move || {
                for i in 0..PER {
                    q.enqueue((p as u64) << 40 | i);
                }
            });
        }
        let sinks: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let received = Arc::clone(&received);
                s.spawn(move || {
                    let mut got = Vec::new();
                    while received.load(Ordering::SeqCst) < TOTAL {
                        if let Some(v) = q.dequeue() {
                            received.fetch_add(1, Ordering::SeqCst);
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                })
            })
            .collect();
        sinks.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly-once delivery...
    let mut all: Vec<u64> = lanes.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), TOTAL, "bounded stress lost or duplicated items");
    // ...and per-producer FIFO within each consumer lane.
    for lane in &lanes {
        let mut last = [-1i64; PRODUCERS];
        for &v in lane {
            let (p, i) = ((v >> 40) as usize, (v & ((1 << 40) - 1)) as i64);
            assert!(i > last[p], "bounded: producer {p} reordered");
            last[p] = i;
        }
    }

    // --- Exact linearizability oracle at 8 threads, fresh adversarial
    // windows per seed (the recorder is generic over ConcurrentQueue;
    // the default capacity never fills on these short windows, so the
    // spinning enqueue adapter stays on its one-shot path).
    let config = RecordConfig {
        threads: 8,
        ops_per_thread: 2,
        enqueue_bias: 128,
    };
    for seed in 900..910 {
        let q: BoundedQueue<u64> = BoundedBuilder::new()
            .max_threads(config.threads + 1)
            .build();
        let history = record_history(&q, config, seed);
        match check_history(&history) {
            CheckResult::Linearizable(_) => {}
            CheckResult::NotLinearizable => {
                panic!("bounded: NOT linearizable (seed {seed}): {history:?}")
            }
            CheckResult::Inconclusive => {
                panic!("bounded: checker budget exhausted (seed {seed})")
            }
        }
    }
}

/// The bounded-*lane* sharded mode under the k-relaxed gate
/// (DESIGN.md §6f): tiny rings force constant `Full` spills into the
/// unbounded Turn lane mid-window, and the recorded histories must stay
/// within the `relaxation_k` the queue itself declares for that shape —
/// the contract `k = rings × capacity + spill bound` is only honest if
/// the spill route neither loses, duplicates, nor over-reorders items.
#[test]
fn bounded_lane_sharded_stress_passes_k_gate() {
    let config = RecordConfig {
        threads: 8,
        ops_per_thread: 3,
        enqueue_bias: 128,
    };
    // Worst case: every enqueue of the window backlogged in the spill
    // lane (the rings hold at most capacity each, enforced by Full).
    let bound = config.threads * config.ops_per_thread;
    for seed in 640..652u64 {
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new()
            .lanes(2)
            .bounded_lane_capacity(4)
            .lane_occupancy_bound(bound)
            .max_threads(config.threads + 1)
            .build();
        assert_eq!(q.bounded_lane_capacity(), Some(4));
        let k = q.relaxation_k();
        let history = record_history(&q, config, seed);
        match check_history_relaxed(&history, k) {
            CheckResult::Linearizable(_) => {}
            CheckResult::NotLinearizable => panic!(
                "bounded-lane sharded: NOT k-relaxed linearizable (k={k}, seed {seed}): {history:?}"
            ),
            CheckResult::Inconclusive => {
                panic!("bounded-lane sharded: checker budget exhausted (seed {seed})")
            }
        }
    }
}

/// Drop discipline of the pre-allocated ring: items still sitting in
/// ring slots when the queue is dropped must be freed exactly once, and
/// items handed out by `dequeue` must not be double-freed by the ring's
/// own teardown (the per-thread index cache holds *indices*, never
/// values, so parked cache entries must not drop anything).
#[test]
fn bounded_drop_frees_every_undequeued_item_exactly_once() {
    struct Tally(Arc<AtomicUsize>);
    impl Drop for Tally {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    let drops = Arc::new(AtomicUsize::new(0));
    let q: BoundedQueue<Tally> = BoundedBuilder::new()
        .capacity(16)
        .max_threads(2)
        .build();
    for _ in 0..12 {
        assert!(q.try_enqueue(Tally(Arc::clone(&drops))).is_ok());
    }
    // Five dequeued items drop here, on the caller's side; the dequeues
    // also park a freed index in this thread's cache.
    for _ in 0..5 {
        drop(q.try_dequeue().expect("item present"));
    }
    assert_eq!(drops.load(Ordering::SeqCst), 5, "caller-side drops");
    // The remaining seven live in ring slots until the queue goes away.
    drop(q);
    assert_eq!(drops.load(Ordering::SeqCst), 12, "ring teardown drops");
}
