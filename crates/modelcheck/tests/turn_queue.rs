//! Model-check suites for the Turn queue.
//!
//! Every test explores schedules of a small multi-threaded history under
//! the instrumented `turnq-sync` scheduler and asserts, for *every*
//! explored interleaving:
//!
//! * the logged history is linearizable (Wing & Gong oracle),
//! * every operation stays within the wait-freedom step bound
//!   [`turn_step_bound`] (the paper's `O(MAX_THREADS)` claim),
//! * the vector-clock detector reports no plain/atomic races (this is
//!   what certifies the node pool's owner-only fast paths end-to-end:
//!   the only happens-before edge ordering a recycled node's plain
//!   `reset` against the previous owner's atomic reads is the hazard
//!   scan itself).

use std::sync::Arc;
use turn_queue::TurnQueue;
use turnq_modelcheck::{explore, turn_step_bound, Config, Scenario};

/// Acceptance driver: ≥ 10k interleavings of a 2-thread Turn-queue
/// history, linearizability + step bound + race freedom on all of them.
#[test]
fn two_thread_history_explores_10k_interleavings() {
    let cfg = Config {
        threads: 2,
        budget: 12_000,
        dfs_budget: 9_000,
        step_bound: Some(turn_step_bound(2)),
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q = Arc::new(TurnQueue::<u64>::with_max_threads(2));
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
                    l0.dequeue(0, || h.dequeue());
                }),
                Box::new(move || {
                    let h = q1.handle().expect("registry slot");
                    l1.enqueue(1, 2, || h.enqueue(2));
                    l1.dequeue(1, || h.dequeue());
                }),
            ],
            post: Some(Box::new(move || {
                let stats = qp.pool_stats();
                // Every pool hit must have been fed by a recycled node.
                if stats.hits > stats.recycled {
                    return Err(format!(
                        "pool served {} hits from only {} recycled nodes",
                        stats.hits, stats.recycled
                    ));
                }
                // (No post-run drain: the controller is an unregistered
                // third thread and the registry is sized for the two
                // workers; value conservation is the oracle's job.)
                Ok(())
            })),
        }
    });
    report.assert_clean();
    assert!(
        report.executed >= 10_000,
        "acceptance requires ≥ 10k interleavings, got {}",
        report.executed
    );
    assert!(report.max_enqueue_steps <= turn_step_bound(2));
    assert!(report.max_dequeue_steps <= turn_step_bound(2));
    println!(
        "turn 2-thread: executed={} dfs_complete={} max_enqueue_steps={} \
         max_dequeue_steps={} bound={} max_total_steps={} inconclusive={}",
        report.executed,
        report.dfs_complete,
        report.max_enqueue_steps,
        report.max_dequeue_steps,
        turn_step_bound(2),
        report.max_total_steps,
        report.inconclusive
    );
}

/// Helping-loop overtake: three threads, mixed operations, so schedules
/// exist where a helper completes another thread's request before the
/// requester reruns its loop (the paper's Invariant 7 territory: `deqhelp`
/// may be written by any thread, and the requester must converge on the
/// same node).
#[test]
fn three_thread_helping_overtake() {
    let cfg = Config {
        threads: 3,
        budget: 2_500,
        dfs_budget: 2_000,
        step_bound: Some(turn_step_bound(3)),
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q = Arc::new(TurnQueue::<u64>::with_max_threads(3));
        let qp = Arc::clone(&q);
        let mk = |tid: usize| (Arc::clone(&q), log.clone(), tid);
        let (qa, la, _) = mk(0);
        let (qb, lb, _) = mk(1);
        let (qc, lc, _) = mk(2);
        Scenario {
            bodies: vec![
                Box::new(move || {
                    let h = qa.handle().expect("registry slot");
                    la.enqueue(0, 1, || h.enqueue(1));
                    la.enqueue(0, 2, || h.enqueue(2));
                }),
                Box::new(move || {
                    let h = qb.handle().expect("registry slot");
                    lb.dequeue(1, || h.dequeue());
                    lb.enqueue(1, 3, || h.enqueue(3));
                }),
                Box::new(move || {
                    let h = qc.handle().expect("registry slot");
                    lc.dequeue(2, || h.dequeue());
                    lc.dequeue(2, || h.dequeue());
                }),
            ],
            // Holding the last `Arc` here moves queue teardown onto the
            // controller, outside the modeled history (see `Scenario`).
            post: Some(Box::new(move || {
                drop(qp);
                Ok(())
            })),
        }
    });
    report.assert_clean();
    assert!(report.max_enqueue_steps <= turn_step_bound(3));
    assert!(report.max_dequeue_steps <= turn_step_bound(3));
    println!(
        "turn 3-thread: executed={} dfs_complete={} max_enqueue_steps={} \
         max_dequeue_steps={} bound={}",
        report.executed,
        report.dfs_complete,
        report.max_enqueue_steps,
        report.max_dequeue_steps,
        turn_step_bound(3)
    );
}

/// Pool ABA hammer: repeated enqueue/dequeue pairs recycle retired nodes
/// through the per-thread pool, so the same addresses come back as
/// "fresh" nodes (the classic ABA surface). The oracle checks values
/// never cross-talk; the race detector checks the owner-only plain
/// `reset()` of a recycled node is ordered behind every other thread's
/// last atomic access to it (the hazard-scan edge).
#[test]
fn pool_aba_hammer() {
    let cfg = Config {
        threads: 2,
        budget: 1_200,
        dfs_budget: 1_000,
        step_bound: Some(turn_step_bound(2)),
        step_limit: 200_000,
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q = Arc::new(TurnQueue::<u64>::with_max_threads(2));
        let qp = Arc::clone(&q);
        let q0 = Arc::clone(&q);
        let q1 = q;
        let l0 = log.clone();
        let l1 = log;
        Scenario {
            bodies: vec![
                Box::new(move || {
                    let h = q0.handle().expect("registry slot");
                    for v in 10..=16 {
                        l0.enqueue(0, v, || h.enqueue(v));
                        l0.dequeue(0, || h.dequeue());
                    }
                }),
                Box::new(move || {
                    let h = q1.handle().expect("registry slot");
                    for v in 20..=26 {
                        l1.enqueue(1, v, || h.enqueue(v));
                        l1.dequeue(1, || h.dequeue());
                    }
                }),
            ],
            post: Some(Box::new(move || {
                let stats = qp.pool_stats();
                if stats.hits > stats.recycled {
                    return Err(format!(
                        "pool served {} hits from only {} recycled nodes",
                        stats.hits, stats.recycled
                    ));
                }
                // Fourteen dequeues of fourteen enqueued values: the hammer
                // must actually recycle (otherwise it tests nothing). Every
                // dequeue retires a node, a thread scans on its seventh
                // retire (`retired_bound(2, 3)`), and the pool capacity
                // covers the backlog, so at least one reuse must happen.
                if stats.recycled == 0 {
                    return Err("pool never recycled a node — hammer ineffective".into());
                }
                Ok(())
            })),
        }
    });
    report.assert_clean();
    println!(
        "pool ABA hammer: executed={} max_enqueue_steps={} max_dequeue_steps={} bound={}",
        report.executed,
        report.max_enqueue_steps,
        report.max_dequeue_steps,
        turn_step_bound(2)
    );
}

/// Split roles: thread 0 only enqueues and thread 1 only dequeues, so the
/// producer's free list can only be filled from the pool's depot, by a
/// chain the consumer's scan handed over. With `pool_capacity(1)` one
/// reclaimed node fills the consumer's list and the next one deposits it;
/// `fast_tries(0)` keeps dequeues on the slow path, which retires one
/// request node per non-empty dequeue. The consumer first scans on its
/// seventh retire (`retired_bound(2, 3)`), so it needs seven items, and
/// the producer enqueues more than that to still be running when the
/// chain arrives. Both the deposit and the producer's take then fall
/// inside the explored prefix. The race detector checks that the depot
/// CAS pair orders the consumer's plain link writes before the producer's
/// plain reads and its `Node::reset`: with either CAS weakened to
/// `Relaxed` in `pool.rs`, this test reports a race.
///
/// Thread 0 never retires (enqueues do not), so every pool hit is a node
/// thread 0 took from the depot. The scheduler has no blocking, and its
/// default schedule runs thread 0 to completion before thread 1 starts, so
/// a hit cannot be required of every run; the test requires it of at
/// least one explored run and counts them.
#[test]
fn split_role_handoff_through_the_depot() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let cfg = Config {
        threads: 2,
        budget: 3_000,
        dfs_budget: 2_000,
        step_bound: Some(turn_step_bound(2)),
        ..Config::default()
    };
    let runs_with_handoff = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&runs_with_handoff);
    let report = explore(&cfg, move |log| {
        let q = Arc::new(
            TurnQueue::<u64>::builder()
                .max_threads(2)
                .pool_capacity(1)
                .fast_tries(0)
                .build(),
        );
        let qp = Arc::clone(&q);
        let q0 = Arc::clone(&q);
        let q1 = q;
        let l0 = log.clone();
        let l1 = log;
        let counter = Arc::clone(&counter);
        Scenario {
            bodies: vec![
                Box::new(move || {
                    let h = q0.handle().expect("registry slot");
                    for v in 1..=12 {
                        l0.enqueue(0, v, || h.enqueue(v));
                    }
                }),
                Box::new(move || {
                    let h = q1.handle().expect("registry slot");
                    for _ in 0..8 {
                        l1.dequeue(1, || h.dequeue());
                    }
                }),
            ],
            post: Some(Box::new(move || {
                let stats = qp.pool_stats();
                if stats.hits > stats.recycled {
                    return Err(format!(
                        "pool served {} hits from only {} recycled nodes",
                        stats.hits, stats.recycled
                    ));
                }
                if stats.hits > 0 {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                drop(qp);
                Ok(())
            })),
        }
    });
    report.assert_clean();
    let handoffs = runs_with_handoff.load(Ordering::Relaxed);
    println!(
        "split-role handoff: executed={} runs_with_producer_hit={handoffs} \
         max_enqueue_steps={} max_dequeue_steps={} bound={}",
        report.executed,
        report.max_enqueue_steps,
        report.max_dequeue_steps,
        turn_step_bound(2)
    );
    assert!(handoffs > 0, "no explored run handed a chain to the producer");
}
