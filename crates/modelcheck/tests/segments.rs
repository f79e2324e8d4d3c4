//! Model-check suites for the segment-node execution mode (DESIGN.md §6d):
//! FAA cell claims racing each other and the boundary consensus, plus the
//! seeded drained-guard mutant.
//!
//! The positive suites assert that every explored interleaving of cell
//! claims, poisons, boundary appends, and head advances stays linearizable,
//! race free, and within [`seg_step_bound`]. The per-item queue's stricter
//! `turn_step_bound` is pinned by `turn_queue.rs`. The mutant disables the drained-segment guard
//! (`TurnQueueBuilder::seg_drained_guard_for_tests(false)`): the head then
//! advances past a segment as soon as a successor exists, abandoning its
//! undelivered cells, and the linearizability oracle must report the lost
//! items as `not-linearizable` on a deterministic, replayable schedule.

use std::sync::Arc;
use turn_queue::{SegTurnQueue, TurnQueueBuilder};
use turnq_modelcheck::{explore, replay, seg_step_bound, Config, Scenario};

/// Cell claims racing the boundary: thread 0 pushes three items through
/// 2-cell segments (the third append runs the consensus path), thread 1
/// drains concurrently, so DFS covers enqueue-FAA vs dequeue-FAA vs
/// poison vs head-advance interleavings on both sides of the boundary.
#[test]
fn seg_boundary_race_explores_clean() {
    let bound = seg_step_bound(2, 2);
    let cfg = Config {
        threads: 2,
        budget: 6_000,
        dfs_budget: 5_000,
        step_bound: Some(bound),
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q: Arc<SegTurnQueue<u64>> =
            Arc::new(TurnQueueBuilder::new().max_threads(2).seg_size(2).build_seg());
        let qp = Arc::clone(&q);
        let q0 = Arc::clone(&q);
        let q1 = q;
        let l0 = log.clone();
        let l1 = log;
        Scenario {
            bodies: vec![
                Box::new(move || {
                    let h = q0.handle().expect("registry slot");
                    l0.enqueue(0, 1, || h.enqueue(1));
                    l0.enqueue(0, 2, || h.enqueue(2));
                    l0.enqueue(0, 3, || h.enqueue(3)); // past the 2-cell boundary
                }),
                Box::new(move || {
                    let h = q1.handle().expect("registry slot");
                    l1.dequeue(1, || h.dequeue());
                    l1.dequeue(1, || h.dequeue());
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
        "seg boundary race: executed={} dfs_complete={} max_enqueue_steps={} \
         max_dequeue_steps={} bound={}",
        report.executed,
        report.dfs_complete,
        report.max_enqueue_steps,
        report.max_dequeue_steps,
        bound
    );
}

/// Segment recycling through the node pool under exploration: each thread
/// fills and drains past the boundary, so retired segments come back out
/// of the pool (ring reuse) while the other thread still races the list.
#[test]
fn seg_recycling_boundary_explores_clean() {
    let bound = seg_step_bound(2, 2);
    let cfg = Config {
        threads: 2,
        budget: 2_000,
        dfs_budget: 1_600,
        step_bound: Some(bound),
        step_limit: 200_000,
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q: Arc<SegTurnQueue<u64>> =
            Arc::new(TurnQueueBuilder::new().max_threads(2).seg_size(2).build_seg());
        let qp = Arc::clone(&q);
        let q0 = Arc::clone(&q);
        let q1 = q;
        let l0 = log.clone();
        let l1 = log;
        Scenario {
            bodies: vec![
                Box::new(move || {
                    let h = q0.handle().expect("registry slot");
                    for v in [10, 11, 12] {
                        l0.enqueue(0, v, || h.enqueue(v));
                    }
                    l0.dequeue(0, || h.dequeue());
                }),
                Box::new(move || {
                    let h = q1.handle().expect("registry slot");
                    l1.dequeue(1, || h.dequeue());
                    l1.dequeue(1, || h.dequeue());
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

/// Scenario shared by the mutant and its positive control: three enqueues
/// through 2-cell segments (so a successor segment exists), then racing
/// dequeues. With the drained guard disabled the first dequeue past the
/// append abandons the head segment's undelivered cells.
fn boundary_scenario(
    drained_guard: bool,
) -> impl Fn(turnq_modelcheck::OpLogger) -> Scenario {
    move |log| {
        let q: Arc<SegTurnQueue<u64>> = Arc::new(
            TurnQueueBuilder::new()
                .max_threads(2)
                .seg_size(2)
                .seg_drained_guard_for_tests(drained_guard)
                .build_seg(),
        );
        let qp = Arc::clone(&q);
        let q0 = Arc::clone(&q);
        let q1 = q;
        let l0 = log.clone();
        let l1 = log;
        Scenario {
            bodies: vec![
                Box::new(move || {
                    let h = q0.handle().expect("registry slot");
                    l0.enqueue(0, 1, || h.enqueue(1));
                    l0.enqueue(0, 2, || h.enqueue(2));
                    l0.enqueue(0, 3, || h.enqueue(3)); // appends the successor
                    l0.dequeue(0, || h.dequeue());
                }),
                Box::new(move || {
                    let h = q1.handle().expect("registry slot");
                    l1.dequeue(1, || h.dequeue());
                }),
            ],
            post: Some(Box::new(move || {
                drop(qp);
                Ok(())
            })),
        }
    }
}

/// Seeded boundary mutant: with the drained-segment guard removed, the
/// dequeue that runs after the successor append swings the head past the
/// first segment *before* its cells are covered by dequeue tickets — items
/// 1 and 2 are abandoned and a dequeue returns 3 while an older item is
/// still in the queue. The linearizability oracle must catch the loss, and
/// the violation's schedule must reproduce it deterministically under
/// `replay`.
#[test]
fn drained_guard_removed_mutant_loses_items() {
    let cfg = Config {
        threads: 2,
        budget: 500,
        dfs_budget: 400,
        step_bound: Some(seg_step_bound(2, 2)),
        ..Config::default()
    };
    let report = explore(&cfg, boundary_scenario(false));
    let violation = report
        .violation
        .as_ref()
        .expect("the guard-removed mutant must violate linearizability");
    // Log the full reproduction recipe so CI's --nocapture run records it.
    println!("drained-guard mutant caught:\n{violation}");
    report.assert_caught("not-linearizable");

    // The recipe must replay: the exact recorded schedule, run again from
    // scratch, reproduces the same class of violation deterministically.
    let schedule = violation.schedule.clone();
    let replayed = replay(&cfg, boundary_scenario(false), &schedule);
    replayed.assert_caught("not-linearizable");
}

/// Positive control: the identical scenario with the guard intact explores
/// clean — a dequeue only advances the head once its own FAA ticket proves
/// every cell of the outgoing segment is covered.
#[test]
fn drained_guard_intact_explores_clean() {
    let bound = seg_step_bound(2, 2);
    let cfg = Config {
        threads: 2,
        budget: 3_000,
        dfs_budget: 2_400,
        step_bound: Some(bound),
        ..Config::default()
    };
    let report = explore(&cfg, boundary_scenario(true));
    report.assert_clean();
    assert!(report.max_dequeue_steps <= bound);
}
