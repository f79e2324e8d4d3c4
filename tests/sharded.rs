//! Integration tests for the sharded front-end (`turnq-sharded`,
//! DESIGN.md §6e): the 16-thread stress with the k-relaxed
//! linearizability gate, the production sweep's drift within `k`, and
//! lane-affinity stability across thread churn through the shared
//! registry. The mutant sweep that provably fails the gate is planted by
//! the model checker (`crates/modelcheck/tests/sharded.rs`).

use std::time::Instant;

use turnq_repro::linearize::recorder::RecordConfig;
use turnq_repro::linearize::{
    check_history_relaxed, record_history, CheckResult, History, OpKind, OpRecord,
};
use turnq_repro::{ShardedBuilder, ShardedTurnQueue};

/// 16 threads hammering a 4-lane queue, with recorded adversarial windows
/// gated by the k-relaxed oracle at the queue's own configured
/// `relaxation_k()`. The declared per-lane bound is sized to the window's
/// worst case (every enqueue of the window backlogged in one lane), so
/// the contract the oracle checks is honest for this workload — a lost
/// item, an invented or duplicated value, or a sweep verdict that hides
/// `≥ k` pending items would all fail the gate.
#[test]
fn sixteen_thread_stress_passes_k_relaxed_gate() {
    let config = RecordConfig {
        threads: 16,
        ops_per_thread: 3,
        enqueue_bias: 128,
    };
    // Worst-case per-lane backlog: every enqueue of the window lands in
    // one lane (threads/lanes producers × ops each, rounded up to the
    // whole window for slack).
    let bound = config.threads * config.ops_per_thread / 4;
    for seed in 500..516u64 {
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new()
            .lanes(4)
            .max_threads(config.threads + 1)
            .lane_occupancy_bound(bound)
            .build();
        let k = q.relaxation_k();
        assert_eq!(k, 4 * bound);
        let history = record_history(&q, config, seed);
        match check_history_relaxed(&history, k) {
            CheckResult::Linearizable(_) => {}
            CheckResult::NotLinearizable => {
                panic!("sharded: NOT k-relaxed linearizable (k={k}, seed {seed}): {history:?}")
            }
            CheckResult::Inconclusive => {
                panic!("sharded: checker budget exhausted (seed {seed})")
            }
        }
    }
}

/// Record one queue operation with real timestamps against a shared
/// origin, mirroring `record_history`'s format for hand-sequenced runs.
fn record_op(origin: &Instant, thread: usize, op: impl FnOnce() -> OpKind) -> OpRecord {
    let start = origin.elapsed().as_nanos() as u64;
    let kind = op();
    let end = origin.elapsed().as_nanos() as u64;
    OpRecord {
        thread,
        kind,
        start,
        end,
    }
}

/// Deterministic drift sequence: two old items in this thread's home
/// lane, a newer one in the neighbour lane (via a scoped thread holding
/// registry index 1), then one dequeue — every step fully sequenced, so
/// the recorded history's real-time order is total and the oracle
/// verdict is exact.
fn drift_sequence(q: &ShardedTurnQueue<u64>) -> (History, Option<u64>) {
    assert_eq!(q.registry().current_index(), 0, "test thread must hold index 0");
    let origin = Instant::now();
    let mut ops = Vec::new();
    ops.push(record_op(&origin, 0, || {
        q.enqueue(1);
        OpKind::Enqueue(1)
    }));
    ops.push(record_op(&origin, 0, || {
        q.enqueue(2);
        OpKind::Enqueue(2)
    }));
    std::thread::scope(|s| {
        s.spawn(|| {
            ops.push(record_op(&origin, 1, || {
                q.enqueue(3);
                OpKind::Enqueue(3)
            }));
        })
        .join()
        .unwrap();
    });
    let mut got = None;
    ops.push(record_op(&origin, 0, || {
        got = q.dequeue();
        OpKind::Dequeue(got)
    }));
    (History::new(ops), got)
}

/// Drift bound: the sequence against the production sweep returns the
/// oldest item and passes the `k = lanes × B = 2` gate (the over-k twin
/// is the modelcheck `sh.sweep-skip` mutant).
#[test]
fn production_sweep_passes_the_k_gate() {
    let q: ShardedTurnQueue<u64> = ShardedBuilder::new()
        .lanes(2)
        .max_threads(4)
        .lane_occupancy_bound(1)
        .build();
    assert_eq!(q.relaxation_k(), 2);
    let (history, got) = drift_sequence(&q);
    assert_eq!(got, Some(1), "the honest sweep takes the oldest lane head");
    assert!(
        check_history_relaxed(&history, 2).is_ok(),
        "honest drift is within k=2: {history:?}"
    );
}

/// Lane affinity across thread churn: a long-lived thread's home lane is
/// pinned for as long as it holds its registry slot, while short-lived
/// threads churn through the remaining slots (claiming, enqueueing into
/// *their* home lanes, exiting, and handing their slots to the next
/// wave). The shared registry's claim/release tallies make the wait for
/// slot hand-back event-driven, as in the threadreg churn test.
#[test]
fn lane_affinity_is_stable_across_thread_churn() {
    let q: ShardedTurnQueue<u64> = ShardedBuilder::new().lanes(2).max_threads(4).build();
    let home = q.home_lane().unwrap();
    assert_eq!(home, q.registry().current_index() & 1);

    for round in 0..8u64 {
        std::thread::scope(|s| {
            for i in 0..3u64 {
                let q = &q;
                s.spawn(move || {
                    // Each visitor enqueues into its own home lane and
                    // drains one item from wherever the sweep finds one.
                    q.enqueue(round * 3 + i);
                    assert!(q.dequeue().is_some());
                });
            }
        });
        // Slots are released by TLS destructors slightly after `scope`
        // returns; wait on the tallies (this thread's claim is the +1).
        let reg = q.registry();
        while reg.slot_releases() + 1 < reg.slot_claims() {
            std::thread::yield_now();
        }
        // The long-lived thread's affinity never moved.
        assert_eq!(q.home_lane().unwrap(), home, "round {round}");
    }
    // 1 long-lived + 8 rounds × 3 visitors claimed; all visitors released.
    assert_eq!(q.registry().slot_claims(), 25);
    assert_eq!(q.registry().registered_count(), 1);
    assert!(q.is_empty());
}
