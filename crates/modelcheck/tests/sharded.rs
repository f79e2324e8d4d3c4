//! Model-check suites for the sharded front-end (DESIGN.md §6e): 2-lane ×
//! 3-thread explorations under the k-relaxed oracle, plus the two seeded
//! sweep mutants.
//!
//! The positive suites assert that every explored interleaving of home-lane
//! enqueues, cursor-start dequeues, and cross-lane steals stays k-relaxed
//! linearizable (`Config::relaxed_k` set to the queue's
//! `relaxation_k() = lanes × lane_occupancy_bound`), race free, and within
//! [`sharded_step_bound`]. The mutants, planted through
//! [`Config::mutants`], cripple the dequeue sweep two ways:
//!
//! * `sh.sweep-skip` biases the sweep past the first non-empty lane, so a
//!   dequeue can overtake more than `k − 1` pending items (over-k drift);
//! * `sh.sweep-lanes` caps the sweep at one lane, so an emptiness verdict
//!   no longer observes every lane (a false `None` with ≥ `k` items
//!   pending).
//!
//! Each mutant must be caught as `not-linearizable` and the violation's
//! recorded schedule must reproduce it deterministically under [`replay`];
//! the identical scenario with the production sweep is the positive control.

use std::sync::Arc;
use turnq_modelcheck::{explore, replay, sharded_step_bound, Config, OpLogger, Scenario};
use turnq_sharded::{ShardedBuilder, ShardedTurnQueue};

/// Producers on their home lanes racing a sweeping consumer: thread 0
/// pushes two items, thread 1 one, thread 2 drains two. DFS covers the
/// registry claim order (which decides each thread's home lane and the
/// consumer's cursor start), the in-lane consensus, and hit-vs-steal
/// sweeps. The declared per-lane bound B = 2 covers every reachable
/// backlog (one producer never holds more than two items in its lane), so
/// `k = 2 × 2 = 4` is the honest contract and the oracle must accept
/// every interleaving at exactly that `k`.
#[test]
fn sharded_two_lane_sweep_explores_clean() {
    let bound = sharded_step_bound(3, 2, 2);
    let cfg = Config {
        threads: 3,
        budget: 2_500,
        dfs_budget: 2_000,
        step_bound: Some(bound),
        relaxed_k: 4,
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q: Arc<ShardedTurnQueue<u64>> = Arc::new(
            ShardedBuilder::new()
                .lanes(2)
                .max_threads(3)
                .seg_size(2)
                .lane_occupancy_bound(2)
                .build(),
        );
        assert_eq!(q.relaxation_k(), 4, "cfg.relaxed_k must match the contract");
        let qp = Arc::clone(&q);
        let q0 = Arc::clone(&q);
        let q1 = Arc::clone(&q);
        let q2 = q;
        let l0 = log.clone();
        let l1 = log.clone();
        let l2 = log;
        Scenario {
            bodies: vec![
                Box::new(move || {
                    l0.enqueue(0, 1, || q0.enqueue(1));
                    l0.enqueue(0, 2, || q0.enqueue(2));
                }),
                Box::new(move || {
                    l1.enqueue(1, 3, || q1.enqueue(3));
                }),
                Box::new(move || {
                    l2.dequeue(2, || q2.dequeue());
                    l2.dequeue(2, || q2.dequeue());
                }),
            ],
            post: Some(Box::new(move || {
                drop(qp);
                Ok(())
            })),
        }
    });
    report.assert_clean();
    assert!(report.max_enqueue_steps <= bound);
    assert!(report.max_dequeue_steps <= bound);
    println!(
        "sharded sweep race: executed={} dfs_complete={} max_enqueue_steps={} \
         max_dequeue_steps={} bound={}",
        report.executed,
        report.dfs_complete,
        report.max_enqueue_steps,
        report.max_dequeue_steps,
        bound
    );
}

/// The relaxed emptiness verdict under racing consumers: one item, two
/// drainers — in most interleavings one dequeue returns `None` after a
/// full sweep while the enqueue and the winning dequeue are in flight.
/// With `k = 2` the oracle accepts a `None` whenever fewer than two items
/// are pending at some orderable point, which the full-sweep argument of
/// `docs/algorithm.md` guarantees here (pending never exceeds one).
#[test]
fn sharded_empty_verdict_race_explores_clean() {
    let bound = sharded_step_bound(3, 2, 2);
    let cfg = Config {
        threads: 3,
        budget: 2_500,
        dfs_budget: 2_000,
        step_bound: Some(bound),
        relaxed_k: 2,
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q: Arc<ShardedTurnQueue<u64>> = Arc::new(
            ShardedBuilder::new()
                .lanes(2)
                .max_threads(3)
                .seg_size(2)
                .lane_occupancy_bound(1)
                .build(),
        );
        let qp = Arc::clone(&q);
        let q0 = Arc::clone(&q);
        let q1 = Arc::clone(&q);
        let q2 = q;
        let l0 = log.clone();
        let l1 = log.clone();
        let l2 = log;
        Scenario {
            bodies: vec![
                Box::new(move || {
                    l0.enqueue(0, 1, || q0.enqueue(1));
                }),
                Box::new(move || {
                    l1.dequeue(1, || q1.dequeue());
                }),
                Box::new(move || {
                    l2.dequeue(2, || q2.dequeue());
                }),
            ],
            post: Some(Box::new(move || {
                drop(qp);
                Ok(())
            })),
        }
    });
    report.assert_clean();
    assert!(report.max_dequeue_steps <= bound);
}

/// Scenario shared by the over-k mutant and its positive control: two
/// old items in one producer's lane, a newer item in the other's, one
/// dequeue. The two-item backlog deliberately exceeds the declared
/// B = 1 — that breach is what a biased sweep needs to manifest as over-k
/// drift, while the honest sweep keeps drift at zero here (a dequeue
/// starting at the backlogged lane takes its oldest item; one starting at
/// the other lane only ever sees the newer item *before* the old ones
/// exist or concurrently with them, which the oracle may reorder).
fn skip_scenario(log: OpLogger) -> Scenario {
    let q: Arc<ShardedTurnQueue<u64>> = Arc::new(
        ShardedBuilder::new()
            .lanes(2)
            .max_threads(3)
            .seg_size(2)
            .lane_occupancy_bound(1)
            .build(),
    );
    let qp = Arc::clone(&q);
    let q0 = Arc::clone(&q);
    let q1 = Arc::clone(&q);
    let q2 = q;
    let l0 = log.clone();
    let l1 = log.clone();
    let l2 = log;
    Scenario {
        bodies: vec![
            Box::new(move || {
                l0.enqueue(0, 1, || q0.enqueue(1));
                l0.enqueue(0, 2, || q0.enqueue(2));
            }),
            Box::new(move || {
                l1.enqueue(1, 3, || q1.enqueue(3));
            }),
            Box::new(move || {
                l2.dequeue(2, || q2.dequeue());
            }),
        ],
        post: Some(Box::new(move || {
            drop(qp);
            Ok(())
        })),
    }
}

/// Seeded over-k mutant: with the sweep biased to skip the first
/// non-empty lane, the dequeue overtakes both old items and returns the
/// newest one — pending position 3 with `k = lanes × B = 2`, which the
/// k-relaxed oracle must reject. The canonical schedule (each thread runs
/// to completion in id order) already exhibits it: items 1 and 2 complete
/// in the first producer's lane, 3 in the second's, and the skip-biased
/// sweep steals 3 while 1 and 2 are pending. The verdict is about the
/// bound, not the structure: the same schedule replays clean once `k`
/// covers the drift.
#[test]
fn sharded_sweep_skip_mutant_exceeds_k() {
    let cfg = Config {
        threads: 3,
        budget: 400,
        dfs_budget: 320,
        relaxed_k: 2,
        mutants: &["sh.sweep-skip"],
        ..Config::default()
    };
    let report = explore(&cfg, skip_scenario);
    let violation = report
        .violation
        .as_ref()
        .expect("the skip-biased sweep must violate the k-relaxed oracle");
    // Log the full reproduction recipe so CI's --nocapture run records it.
    println!("sharded over-k mutant caught:\n{violation}");
    report.assert_caught("not-linearizable");

    // The recipe must replay: the exact recorded schedule, run again from
    // scratch, reproduces the same class of violation deterministically.
    let schedule = violation.schedule.clone();
    let replayed = replay(&cfg, skip_scenario, &schedule);
    replayed.assert_caught("not-linearizable");
    let wider = Config { relaxed_k: 3, ..cfg };
    replay(&wider, skip_scenario, &schedule).assert_clean();
}

/// Positive control: the identical scenario with the production sweep
/// (no skip) explores clean at the same `k` — the honest sweep always
/// takes a lane *head*, so drift stays within the contract even though
/// the workload breaches the declared per-lane bound.
#[test]
fn sharded_sweep_skip_control_explores_clean() {
    let cfg = Config {
        threads: 3,
        budget: 2_000,
        dfs_budget: 1_600,
        relaxed_k: 2,
        ..Config::default()
    };
    let report = explore(&cfg, skip_scenario);
    report.assert_clean();
}

/// Scenario shared by the missed-lane mutant and its control: one
/// producer backlogs its home lane with two items, one consumer sweeps.
/// A violation requires hiding ≥ `k = lanes × B` items from the sweep,
/// which forces some lane past `B` — the same deliberate breach as
/// [`skip_scenario`], harmless to the honest full sweep (all items sit in
/// one lane, so honest drift is zero and a full sweep always finds them).
fn window_scenario(log: OpLogger) -> Scenario {
    let q: Arc<ShardedTurnQueue<u64>> = Arc::new(
        ShardedBuilder::new()
            .lanes(2)
            .max_threads(2)
            .seg_size(2)
            .lane_occupancy_bound(1)
            .build(),
    );
    let qp = Arc::clone(&q);
    let q0 = Arc::clone(&q);
    let q1 = q;
    let l0 = log.clone();
    let l1 = log;
    Scenario {
        bodies: vec![
            Box::new(move || {
                l0.enqueue(0, 1, || q0.enqueue(1));
                l0.enqueue(0, 2, || q0.enqueue(2));
            }),
            Box::new(move || {
                l1.dequeue(1, || q1.dequeue());
            }),
        ],
        post: Some(Box::new(move || {
            drop(qp);
            Ok(())
        })),
    }
}

/// Seeded missed-lane mutant: the sweep is capped at one lane, so the
/// emptiness verdict stops observing every lane. On the canonical
/// schedule the producer registers first (home lane 0, both items), the
/// consumer's cursor starts at its own index's lane 1, and the crippled
/// one-lane sweep returns `None` while two completed items — `≥ k = 2` —
/// are pending: exactly the false verdict `docs/algorithm.md`'s full-sweep
/// argument exists to rule out, and the oracle must reject it.
#[test]
fn sharded_missed_lane_mutant_false_empty() {
    let cfg = Config {
        threads: 2,
        budget: 400,
        dfs_budget: 320,
        relaxed_k: 2,
        mutants: &["sh.sweep-lanes"],
        ..Config::default()
    };
    let report = explore(&cfg, window_scenario);
    let violation = report
        .violation
        .as_ref()
        .expect("the capped sweep's false empty verdict must be caught");
    println!("sharded missed-lane mutant caught:\n{violation}");
    report.assert_caught("not-linearizable");

    let schedule = violation.schedule.clone();
    let replayed = replay(&cfg, window_scenario, &schedule);
    replayed.assert_caught("not-linearizable");
}

/// Positive control: the identical scenario with the full sweep explores
/// clean at the same `k` — a `None` only ever surfaces when the pending
/// items' enqueues overlap the dequeue, which the oracle may order after
/// it.
#[test]
fn sharded_full_sweep_control_explores_clean() {
    let cfg = Config {
        threads: 2,
        budget: 1_500,
        dfs_budget: 1_200,
        relaxed_k: 2,
        ..Config::default()
    };
    let report = explore(&cfg, window_scenario);
    report.assert_clean();
}
