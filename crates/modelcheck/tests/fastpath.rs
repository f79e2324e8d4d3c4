//! Model-check suites for the fast-path/slow-path execution mode
//! (DESIGN.md §6c): direct MS-style CAS attempts racing published CRTurn
//! requests, plus the seeded panic-flag mutant.
//!
//! The positive suites assert that every explored interleaving of fast
//! CASes against a published slow-path request stays linearizable, race
//! free, and within [`turn_step_bound`]. The mutant drops the panic-flag
//! check, planted as the `q.panic-check` site of [`Config::mutants`]:
//! fast-path threads then keep winning the tail race without ever
//! helping, the published request's helping loop burns a failed
//! validation per fast append, and the wait-freedom auditor must flag the
//! overrun as a `step-bound` violation on a deterministic, replayable
//! schedule.

use std::sync::Arc;
use turn_queue::{TurnQueue, TurnQueueBuilder};
use turnq_modelcheck::{explore, replay, turn_step_bound, Config, Scenario};

/// Fast CAS racing a published request: thread 0 leans on the fast path
/// (uncontended appends/swings), thread 1 is built into the slow path by
/// the schedule mix. DFS covers the orders where thread 1's request is
/// published in the middle of thread 0's fast window — the panic flag
/// must reroute thread 0 into helping before it can starve the request.
#[test]
fn fast_cas_races_published_request() {
    let cfg = Config {
        threads: 2,
        budget: 6_000,
        dfs_budget: 5_000,
        step_bound: Some(turn_step_bound(2)),
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q: Arc<TurnQueue<u64>> = Arc::new(TurnQueueBuilder::new().max_threads(2).build());
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
                    l0.dequeue(0, || h.dequeue());
                }),
                Box::new(move || {
                    let h = q1.handle().expect("registry slot");
                    l1.enqueue(1, 3, || h.enqueue(3));
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
    assert!(report.max_enqueue_steps <= turn_step_bound(2));
    assert!(report.max_dequeue_steps <= turn_step_bound(2));
    println!(
        "fastpath race: executed={} dfs_complete={} max_enqueue_steps={} \
         max_dequeue_steps={} bound={}",
        report.executed,
        report.dfs_complete,
        report.max_enqueue_steps,
        report.max_dequeue_steps,
        turn_step_bound(2)
    );
}

/// The paper-literal ablation through the runtime knob: `fast_tries(0)`
/// must behave exactly like the pre-fastpath queue under the same
/// exploration (publication on every op, helping on every op).
#[test]
fn slow_only_knob_explores_clean() {
    let cfg = Config {
        threads: 2,
        budget: 4_000,
        dfs_budget: 3_000,
        step_bound: Some(turn_step_bound(2)),
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q: Arc<TurnQueue<u64>> =
            Arc::new(TurnQueueBuilder::new().max_threads(2).fast_tries(0).build());
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
                    l1.dequeue(1, || h.dequeue());
                    l1.enqueue(1, 2, || h.enqueue(2));
                }),
            ],
            post: Some(Box::new(move || {
                drop(qp);
                Ok(())
            })),
        }
    });
    report.assert_clean();
    assert!(report.max_enqueue_steps <= turn_step_bound(2));
    assert!(report.max_dequeue_steps <= turn_step_bound(2));
}

/// Fast dequeues racing fast enqueues on a recycling queue: the
/// fast-claim encoding (`deq_tid ≤ -2`) must hand retirement to the
/// unique head-advance winner without double-retire or leak, even when
/// the pool hands the same node addresses back (ABA surface).
#[test]
fn fast_dequeue_claims_race_cleanly() {
    let cfg = Config {
        threads: 2,
        budget: 2_000,
        dfs_budget: 1_600,
        step_bound: Some(turn_step_bound(2)),
        step_limit: 200_000,
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q: Arc<TurnQueue<u64>> = Arc::new(TurnQueueBuilder::new().max_threads(2).build());
        let qp = Arc::clone(&q);
        let q0 = Arc::clone(&q);
        let q1 = q;
        let l0 = log.clone();
        let l1 = log;
        Scenario {
            bodies: vec![
                Box::new(move || {
                    let h = q0.handle().expect("registry slot");
                    for v in [10, 11] {
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
    assert!(report.max_dequeue_steps <= turn_step_bound(2));
}

/// One 10-entry period of the starvation schedule: nine attacker steps
/// (thread 1) for every victim step (thread 0). Under this bias a full
/// fast append lands inside every victim protect→validate window, so the
/// victim's helping loop cannot make progress while the attacker runs.
fn starvation_schedule(periods: usize) -> String {
    let mut s = Vec::with_capacity(periods * 10);
    for _ in 0..periods {
        s.extend(std::iter::repeat_n("1", 9));
        s.push("0");
    }
    s.join(",")
}

fn starvation_scenario(attacker_ops: u64) -> impl Fn(turnq_modelcheck::OpLogger) -> Scenario {
    move |log| {
        let q: Arc<TurnQueue<u64>> = Arc::new(TurnQueueBuilder::new().max_threads(2).build());
        let q0 = Arc::clone(&q);
        let q1 = q;
        let l0 = log;
        Scenario {
            bodies: vec![
                // Victim: one enqueue. Its fast tries fail under the
                // attacker's tail churn, so it publishes a slow-path
                // request — the op whose step count is under audit.
                Box::new(move || {
                    let h = q0.handle().expect("registry slot");
                    l0.enqueue(0, 999, || h.enqueue(999));
                }),
                // Attacker: a long run of fast-path enqueues, never
                // logged (only the victim's step count is the subject;
                // an unfinished history would drown the checker anyway).
                Box::new(move || {
                    let h = q1.handle().expect("registry slot");
                    for v in 0..attacker_ops {
                        h.enqueue(v);
                    }
                }),
            ],
            post: None,
        }
    }
}

/// Seeded mutant: drop the panic-flag check. Fast-path threads no longer
/// scan the consensus array before appending, so nothing ever reroutes
/// them into helping and the published request starves for as long as
/// the attacker keeps enqueueing. On the deterministic 9:1 starvation
/// schedule the victim's single enqueue completes (once the attacker
/// runs dry) having burned far more than [`turn_step_bound`] accesses —
/// the wait-freedom auditor must report `step-bound`.
#[test]
fn panic_flag_removed_mutant_breaks_the_step_bound() {
    let cfg = Config {
        threads: 2,
        budget: 1,
        dfs_budget: 1,
        step_bound: Some(turn_step_bound(2)),
        step_limit: 200_000,
        mutants: &["q.panic-check"],
        ..Config::default()
    };
    let schedule = starvation_schedule(800);
    let report = replay(&cfg, starvation_scenario(1_000), &schedule);
    // Log the full reproduction recipe so CI's --nocapture run records it.
    if let Some(v) = &report.violation {
        println!("panic-flag mutant caught:\n{v}");
    }
    report.assert_caught("step-bound");
}

/// Positive control: the identical scenario and the identical adversarial
/// schedule with the panic flag intact. The attacker's very next fast try
/// after the victim publishes sees the pending request and falls into the
/// helping path, so the victim completes within the bound and the whole
/// run is clean.
#[test]
fn panic_flag_intact_survives_the_starvation_schedule() {
    let cfg = Config {
        threads: 2,
        budget: 1,
        dfs_budget: 1,
        step_bound: Some(turn_step_bound(2)),
        step_limit: 200_000,
        ..Config::default()
    };
    let schedule = starvation_schedule(800);
    let report = replay(&cfg, starvation_scenario(1_000), &schedule);
    report.assert_clean();
    assert!(report.max_enqueue_steps <= turn_step_bound(2));
    println!(
        "panic-flag control: victim completed in {} steps (bound {})",
        report.max_enqueue_steps,
        turn_step_bound(2)
    );
}
