//! Telemetry consistency under real concurrency.
//!
//! The telemetry sheets record with plain owner-only stores (no RMW), so
//! these tests pin down the guarantee that design rests on: once the
//! recording threads have joined, aggregates are *exact* — and the
//! recorded quantities obey the algorithm's own invariants:
//!
//! * enqueues == dequeues + items left in the queue,
//! * pool hits + misses == node acquisitions (one per enqueue),
//! * observed helping depth never exceeds the paper's `MAX_THREADS - 1`
//!   overtaking bound,
//! * registry slot claims == releases once every thread has exited,
//! * latency samples partition the ops exactly when the stall watchdog is
//!   armed (it times every op), and cover each op kind at about the
//!   sampling rate otherwise.
//!
//! Every exact assertion is gated on `turnq_telemetry::ENABLED`, so the
//! same test compiles and passes with `--no-default-features` (where the
//! branch instead asserts that the all-zero snapshot really is inert).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turnq_repro::telemetry::{CounterId, OpKey, TelemetrySnapshot, LATENCY_SAMPLE_PERIOD};
use turnq_repro::{
    BoundedBuilder, BoundedQueue, ConcurrentQueue, SegTurnQueue, ShardedBuilder, ShardedTurnQueue,
    TurnQueue,
};

const THREADS: usize = 8;
const PER_THREAD: u64 = 20_000;

const ENQ_KEYS: [OpKey; 4] = [
    OpKey::EnqFast,
    OpKey::EnqSlow,
    OpKey::EnqHelped,
    OpKey::EnqSegCell,
];
const DEQ_KEYS: [OpKey; 4] = [
    OpKey::DeqFast,
    OpKey::DeqSlow,
    OpKey::DeqHelped,
    OpKey::DeqSegCell,
];

/// Latency samples recorded under any of `keys`.
fn samples(snap: &TelemetrySnapshot, keys: &[OpKey]) -> u64 {
    keys.iter().map(|&k| snap.latency(k).count()).sum()
}

/// One thread alternates `pairs` enqueues and dequeues; every dequeue
/// must return the item just enqueued.
fn alternate<Q: ConcurrentQueue<u64>>(queue: &Q, pairs: u64) {
    for i in 0..pairs {
        queue.enqueue(i);
        assert_eq!(queue.dequeue(), Some(i));
    }
}

/// Half the threads enqueue, half dequeue until they have drained their
/// share; returns (items dequeued by workers, items drained at the end).
fn churn(queue: &Arc<TurnQueue<u64>>) -> (u64, u64) {
    let producers = THREADS / 2;
    let consumers = THREADS - producers;
    let consumed = Arc::new(AtomicU64::new(0));
    let target = producers as u64 * PER_THREAD;
    std::thread::scope(|s| {
        for p in 0..producers {
            let queue = Arc::clone(queue);
            s.spawn(move || {
                let handle = queue.handle().expect("slot");
                for i in 0..PER_THREAD {
                    handle.enqueue((p as u64) << 32 | i);
                }
            });
        }
        for _ in 0..consumers {
            let queue = Arc::clone(queue);
            let consumed = Arc::clone(&consumed);
            s.spawn(move || {
                let handle = queue.handle().expect("slot");
                // Stop a little early so the final queue is non-empty and
                // the size term of the invariant is exercised.
                while consumed.load(Ordering::Relaxed) < target - 64 {
                    if handle.dequeue().is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    let worker_consumed = consumed.load(Ordering::Relaxed);
    (worker_consumed, target - worker_consumed)
}

#[test]
fn counters_are_internally_consistent_after_quiesce() {
    let queue: Arc<TurnQueue<u64>> = Arc::new(TurnQueue::with_max_threads(THREADS + 1));
    let (worker_consumed, leftover) = churn(&queue);

    // Snapshot *before* draining: enqueues == dequeues + current size.
    let snap = queue.telemetry_snapshot();
    if turnq_telemetry::ENABLED {
        assert_eq!(
            snap.counter(CounterId::EnqOps),
            snap.counter(CounterId::DeqOps) + leftover,
            "enqueues must equal dequeues plus items still queued"
        );
        assert_eq!(snap.counter(CounterId::DeqOps), worker_consumed);
        // Every enqueue acquires exactly one node: from the pool (hit) or
        // the allocator (miss).
        assert_eq!(
            snap.get("pool_hit") + snap.get("pool_miss"),
            snap.counter(CounterId::EnqOps),
            "pool hits + misses must equal node acquisitions"
        );
        // Completed transfers are exactly the depth-histogram population.
        assert_eq!(
            snap.helping_depth_count(),
            snap.counter(CounterId::EnqOps) + snap.counter(CounterId::DeqOps)
        );
    } else {
        assert_eq!(snap.counter(CounterId::EnqOps), 0);
        assert_eq!(snap.get("pool_hit"), 0);
        assert_eq!(snap.helping_depth_count(), 0);
    }

    // Drain on this thread; afterwards enqueues == dequeues exactly.
    let mut drained = 0;
    while queue.dequeue().is_some() {
        drained += 1;
    }
    assert_eq!(drained, leftover);
    let snap = queue.telemetry_snapshot();
    if turnq_telemetry::ENABLED {
        assert_eq!(
            snap.counter(CounterId::EnqOps),
            snap.counter(CounterId::DeqOps)
        );
    }
}

#[test]
fn helping_depth_respects_the_paper_bound() {
    let max_threads = THREADS + 1;
    let queue: Arc<TurnQueue<u64>> = Arc::new(TurnQueue::with_max_threads(max_threads));
    let _ = churn(&queue);
    while queue.dequeue().is_some() {}

    let snap = queue.telemetry_snapshot();
    if turnq_telemetry::ENABLED {
        let max_depth = snap
            .helping_depth_max()
            .expect("contended run must record depths");
        assert!(
            max_depth < max_threads,
            "observed helping depth {max_depth} exceeds the paper's \
             MAX_THREADS - 1 = {} bound",
            max_threads - 1
        );
        // The histogram is sized by the bound: no bucket beyond it exists.
        assert!(snap.helping_depth().len() <= max_threads);
    } else {
        assert_eq!(snap.helping_depth_max(), None);
    }
}

#[test]
fn registry_churn_balances_claims_and_releases() {
    let queue: Arc<TurnQueue<u64>> = Arc::new(TurnQueue::with_max_threads(4));
    for round in 0..3 {
        std::thread::scope(|s| {
            for t in 0..4 {
                let queue = Arc::clone(&queue);
                s.spawn(move || {
                    queue.enqueue(round * 4 + t);
                    let _ = queue.dequeue();
                });
            }
        });
    }
    // All workers joined and the main thread never registered, so every
    // claim will get a matching release — but releases land in TLS
    // destructors, which can lag the scope join by a beat (DESIGN.md §9).
    // The release tally is bumped before the slot flag flips, so waiting
    // for the tallies to balance (and the gauge to drain) is event-driven,
    // the same idiom as `many_threads_churn_through_one_slot_pool`.
    let snap = loop {
        let snap = queue.telemetry_snapshot();
        if !turnq_telemetry::ENABLED
            || (snap.counter(CounterId::SlotRelease) == snap.counter(CounterId::SlotClaim)
                && snap.get("registry_registered") == 0)
        {
            break snap;
        }
        std::thread::yield_now();
    };
    if turnq_telemetry::ENABLED {
        assert_eq!(snap.counter(CounterId::SlotClaim), 12);
        assert_eq!(
            snap.counter(CounterId::SlotClaim),
            snap.counter(CounterId::SlotRelease)
        );
        assert_eq!(snap.get("registry_registered"), 0);
    } else {
        // Registry tallies are unconditional (they feed the churn test in
        // turnq-threadreg), but the snapshot path is feature-gated.
        assert_eq!(snap.counter(CounterId::SlotClaim), 0);
    }
}

#[test]
fn latency_samples_account_for_every_operation() {
    // An armed watchdog times every op; this threshold never trips.
    let queue: Arc<TurnQueue<u64>> = Arc::new(
        TurnQueue::<u64>::builder()
            .max_threads(THREADS + 1)
            .stall_threshold_ns(u64::MAX - 1)
            .build(),
    );
    let _ = churn(&queue);
    while queue.dequeue().is_some() {}

    let snap = queue.telemetry_snapshot();
    if turnq_telemetry::ENABLED {
        // Every enqueue exits through exactly one path class.
        assert_eq!(
            samples(&snap, &ENQ_KEYS),
            snap.counter(CounterId::EnqOps),
            "enqueue latency samples must partition completed enqueues"
        );
        // Dequeues record a latency whether or not they found an item.
        assert_eq!(
            samples(&snap, &DEQ_KEYS),
            snap.counter(CounterId::DeqOps) + snap.counter(CounterId::DeqEmpty),
            "dequeue latency samples must cover item and empty returns"
        );
        assert_eq!(snap.counter(CounterId::StallDump), 0);
        // Quantiles are well-formed on every populated series.
        for (_, series) in snap.latency_series() {
            if series.count() == 0 {
                continue;
            }
            let p50 = series.quantile(0.5).unwrap();
            let p999 = series.quantile(0.999).unwrap();
            assert!(series.min() <= p50 && p50 <= p999 && p999 <= series.max());
        }
    } else {
        assert_eq!(snap.latency_count(), 0, "probe-off builds record nothing");
        for key in OpKey::ALL {
            assert_eq!(snap.latency(key).count(), 0);
            assert_eq!(snap.latency(key).quantile(0.5), None);
        }
    }
}

#[test]
fn sampled_latency_covers_each_op_kind() {
    // One thread alternating enqueue and dequeue is the pattern a fixed
    // even sampling stride would alias with (and seg mode adds a segment
    // boundary every 16 items): each kind must still be sampled at about
    // 1 in LATENCY_SAMPLE_PERIOD, and never more often than it runs.
    const PAIRS: u64 = 1 << 16;
    let turn: TurnQueue<u64> = TurnQueue::with_max_threads(2);
    let seg: SegTurnQueue<u64> = TurnQueue::<u64>::builder().max_threads(2).build_seg();
    let bounded: BoundedQueue<u64> = BoundedBuilder::new().capacity(16).max_threads(2).build();
    alternate(&turn, PAIRS);
    alternate(&seg, PAIRS);
    alternate(&bounded, PAIRS);
    for (name, snap) in [
        ("turn", turn.telemetry_snapshot()),
        ("seg", seg.telemetry_snapshot()),
        ("bounded", bounded.telemetry().snapshot()),
    ] {
        let enq_ops = snap.counter(CounterId::EnqOps);
        let deq_ops = snap.counter(CounterId::DeqOps) + snap.counter(CounterId::DeqEmpty);
        let enq = samples(&snap, &ENQ_KEYS);
        let deq = samples(&snap, &DEQ_KEYS);
        if turnq_telemetry::ENABLED {
            assert_eq!((enq_ops, deq_ops), (PAIRS, PAIRS), "{name}");
            for (kind, n, ops) in [("enq", enq, enq_ops), ("deq", deq, deq_ops)] {
                assert!(
                    n > 0 && n <= ops && n >= ops / (4 * LATENCY_SAMPLE_PERIOD),
                    "{name} {kind}: {n} samples over {ops} ops"
                );
            }
        } else {
            assert_eq!((enq, deq), (0, 0), "{name}");
        }
    }
}

#[test]
fn armed_watchdog_judges_every_operation() {
    // A 1 ns threshold trips on every timed op, so the dump count is the
    // number of ops the watchdog saw: all of them, on every Turn family
    // queue (sharded lanes inherit the rule from their segment queues).
    const PAIRS: u64 = 100;
    let turn: TurnQueue<u64> = TurnQueue::<u64>::builder()
        .max_threads(2)
        .stall_threshold_ns(1)
        .build();
    let seg: SegTurnQueue<u64> = TurnQueue::<u64>::builder()
        .max_threads(2)
        .stall_threshold_ns(1)
        .build_seg();
    let sharded: ShardedTurnQueue<u64> = ShardedBuilder::new()
        .lanes(2)
        .max_threads(2)
        .stall_threshold_ns(1)
        .build();
    alternate(&turn, PAIRS);
    alternate(&seg, PAIRS);
    alternate(&sharded, PAIRS);
    let expected = if turnq_telemetry::ENABLED {
        2 * PAIRS
    } else {
        0
    };
    for (name, snap) in [
        ("turn", turn.telemetry_snapshot()),
        ("seg", seg.telemetry_snapshot()),
        ("sharded", sharded.telemetry_snapshot()),
    ] {
        assert_eq!(snap.counter(CounterId::StallDump), expected, "{name}");
    }
}

#[test]
fn seeded_stall_triggers_the_flight_recorder() {
    // Threshold of 1 ns + an injected 100 µs busy-wait: every operation
    // "stalls", so the flight recorder provably fires.
    let queue: TurnQueue<u64> = TurnQueue::<u64>::builder()
        .max_threads(2)
        .stall_threshold_ns(1)
        .inject_op_delay_for_tests(100_000)
        .build();
    queue.enqueue(7);
    assert_eq!(queue.dequeue(), Some(7));

    let snap = queue.telemetry_snapshot();
    let reports = queue.telemetry().take_stall_reports();
    if turnq_telemetry::ENABLED {
        assert!(
            snap.counter(CounterId::StallDump) >= 2,
            "both ops overran the threshold: {}",
            snap.counter(CounterId::StallDump)
        );
        assert!(!reports.is_empty(), "flight recorder must capture a dump");
        let report = &reports[0];
        assert!(report.contains("\"schema\":\"turnq-stall-report/1\""), "{report}");
        assert!(report.contains("\"latency_ns\":"), "{report}");
        assert!(report.contains("\"enq_open\":"), "{report}");
        // The stalled thread's event trail is part of the black box: the
        // first report is the enqueue's, so its trail ends at that op.
        assert!(report.contains("\"stalled_thread_events\":["), "{report}");
        assert!(report.contains("\"kind\":\"op_start\""), "{report}");
        assert!(report.contains("\"kind\":\"op_finish\""), "{report}");
        // Reports parse as JSON as far as our hand-rolled writer promises:
        // balanced braces, no trailing comma before a close.
        assert_eq!(
            report.matches('{').count(),
            report.matches('}').count(),
            "unbalanced braces: {report}"
        );
        assert!(!report.contains(",]") && !report.contains(",}"), "{report}");
    } else {
        assert_eq!(snap.counter(CounterId::StallDump), 0);
        assert!(reports.is_empty(), "probe-off builds never dump");
    }
}

#[test]
fn watchdog_off_by_default_records_no_dumps() {
    let queue: TurnQueue<u64> = TurnQueue::with_max_threads(2);
    for i in 0..100 {
        queue.enqueue(i);
    }
    while queue.dequeue().is_some() {}
    let snap = queue.telemetry_snapshot();
    assert_eq!(snap.counter(CounterId::StallDump), 0);
    assert!(queue.telemetry().take_stall_reports().is_empty());
}

#[test]
fn exporters_agree_with_the_snapshot() {
    let queue: TurnQueue<u64> = TurnQueue::with_max_threads(2);
    for i in 0..100 {
        queue.enqueue(i);
    }
    while queue.dequeue().is_some() {}
    let snap = queue.telemetry_snapshot();
    let prom = snap.to_prometheus();
    let json = snap.to_json();
    if turnq_telemetry::ENABLED {
        assert!(prom.contains("turnq_enq_ops_total 100"), "{prom}");
        assert!(json.contains("\"enq_ops\":100"), "{json}");
        // The histograms are exposed in proper cumulative Prometheus form:
        // every populated op/path series closes with an `le="+Inf"` bucket
        // matching its `_count`, and bucket values never decrease.
        assert!(prom.contains("# TYPE turnq_op_latency_ns histogram"), "{prom}");
        for (key, series) in snap.latency_series().filter(|(_, s)| s.count() > 0) {
            let labels = format!(
                "op=\"{}\",path=\"{}\"",
                key.op(),
                key.path()
            );
            let inf = format!(
                "turnq_op_latency_ns_bucket{{{labels},le=\"+Inf\"}} {}",
                series.count()
            );
            assert!(prom.contains(&inf), "missing {inf} in:\n{prom}");
            let mut last = 0u64;
            for line in prom.lines().filter(|l| {
                l.starts_with("turnq_op_latency_ns_bucket") && l.contains(&labels)
            }) {
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "non-cumulative bucket: {line}\n{prom}");
                last = v;
            }
            assert_eq!(last, series.count());
        }
        let depth_inf = format!(
            "turnq_helping_depth_bucket{{le=\"+Inf\"}} {}",
            snap.helping_depth_count()
        );
        assert!(prom.contains(&depth_inf), "{prom}");
    } else {
        assert!(prom.contains("turnq_enq_ops_total 0"));
        assert!(json.contains("\"enq_ops\":0"));
        assert!(!prom.contains("turnq_op_latency_ns_bucket"), "{prom}");
    }
}
