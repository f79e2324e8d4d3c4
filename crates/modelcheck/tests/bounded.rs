//! Model-check suites for the bounded MPMC ring (DESIGN.md §6f):
//! 2/3-thread exhaustive histories under the linearize oracle, plus the
//! two seeded mutants the acceptance criteria name.
//!
//! The positive suites assert that every explored interleaving of
//! FAA-claimed ring rounds — racing installs, consume CASes, hole
//! advances, threshold accounting, and request-slot publications — stays
//! strictly linearizable, race free, and within [`bounded_step_bound`].
//! The mutants, planted through [`Config::mutants`]:
//!
//! * `bq.threshold-reset` breaks the threshold-counter emptiness verdict
//!   (every ring's reset stores 0 instead of `3·capacity − 1`): a single
//!   failed dequeue round then flips the counter negative, so a dequeue
//!   reports `None` while a *completed* enqueue's item is still
//!   reachable — a false empty the oracle must reject as
//!   `not-linearizable` on a replayable schedule;
//! * `bq.help-scan` drops the request-slot helping scan
//!   (verdict delivery and the defer window): under an adversarial
//!   3-thread schedule two churn threads sustain the SCQ burn cycle —
//!   every install for the victim's claimed ticket is mid-flight when
//!   the victim reads its slot, and completed installs keep resetting
//!   the threshold — so a slow-path enqueue's rounds burn unboundedly
//!   and the wait-freedom auditor must flag the overrun as a
//!   `step-bound` violation. The identical schedule with the scan
//!   intact completes within the bound (the defer window is exactly
//!   what makes the requester's loop finite).

use std::sync::Arc;
use turnq_api::ConcurrentQueue;
use turnq_bounded::{BoundedBuilder, BoundedQueue};
use turnq_modelcheck::{bounded_step_bound, explore, replay, Config, OpLogger, Scenario};

/// Two threads, two items through a capacity-2 ring: producer and
/// consumer race across both index rings (fq pop → data write → aq push
/// against aq pop → data read → fq push), covering install/consume CAS
/// races, hole advances on early dequeue tickets, and the threshold
/// accounting of empty probes. DFS must exhaust the tree clean.
#[test]
fn bounded_two_thread_pair_explores_clean() {
    let bound = bounded_step_bound(2, 2);
    let cfg = Config {
        threads: 2,
        budget: 4_000,
        dfs_budget: 3_000,
        step_bound: Some(bound),
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q: Arc<BoundedQueue<u64>> = Arc::new(
            BoundedBuilder::new().capacity(2).max_threads(2).build(),
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
                    l1.dequeue(1, || q1.dequeue());
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
        "bounded pair race: executed={} dfs_complete={} max_enqueue_steps={} \
         max_dequeue_steps={} bound={}",
        report.executed,
        report.dfs_complete,
        report.max_enqueue_steps,
        report.max_dequeue_steps,
        bound
    );
}

/// Three threads on one ring: two producers racing for free indices and
/// install tickets, one consumer interleaving dequeue tickets with both
/// (including the burned-ticket and unsafe-mark arms when its ticket
/// outruns an install). The oracle checks strict FIFO across every
/// explored order.
#[test]
fn bounded_three_thread_mpmc_explores_clean() {
    let bound = bounded_step_bound(3, 4);
    let cfg = Config {
        threads: 3,
        budget: 2_500,
        dfs_budget: 2_000,
        step_bound: Some(bound),
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q: Arc<BoundedQueue<u64>> = Arc::new(
            BoundedBuilder::new().capacity(4).max_threads(3).build(),
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
        "bounded mpmc race: executed={} dfs_complete={} max_total_steps={} bound={}",
        report.executed, report.dfs_complete, report.max_total_steps, bound
    );
}

/// The slow path under exploration: `fast_tries(1)` pushes contended
/// operations into the request-slot path (publish, requester-owned
/// rounds, verdict polls, unpublish), so DFS covers the helping scan's
/// verdict CAS racing the requester's own rounds.
#[test]
fn bounded_slow_path_with_helping_explores_clean() {
    let bound = bounded_step_bound(2, 2);
    let cfg = Config {
        threads: 2,
        budget: 2_500,
        dfs_budget: 2_000,
        step_bound: Some(bound),
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q: Arc<BoundedQueue<u64>> = Arc::new(
            BoundedBuilder::new()
                .capacity(2)
                .max_threads(2)
                .fast_tries(1)
                .defer_spins(2)
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
                    l0.dequeue(0, || q0.dequeue());
                }),
                Box::new(move || {
                    l1.dequeue(1, || q1.dequeue());
                    l1.enqueue(1, 2, || q1.enqueue(2));
                }),
            ],
            post: Some(Box::new(move || {
                drop(qp);
                Ok(())
            })),
        }
    });
    report.assert_clean();
    assert!(report.max_total_steps <= 2 * bound);
}

/// Scenario shared by the broken-threshold mutant and its positive
/// control. The shape that manifests the false empty: producer 0's
/// install can stall mid-push while producer 1's later-ticket install
/// completes *and returns* — the consumer's dequeue ticket then lands on
/// producer 0's still-empty slot, burns it (hole advance), and runs the
/// threshold accounting. With the production reset (`3·capacity − 1`)
/// the decrement is absorbed and the retry round finds producer 1's
/// item; with the mutant reset (0) the first decrement flips the verdict
/// negative and the dequeue returns `None` while a completed enqueue's
/// item sits in the ring.
fn threshold_scenario(log: OpLogger) -> Scenario {
    let q: Arc<BoundedQueue<u64>> =
        Arc::new(BoundedBuilder::new().capacity(2).max_threads(3).build());
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
                l1.enqueue(1, 2, || q1.enqueue(2));
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

/// Seeded broken-threshold mutant: reset 0 makes the very first failed
/// dequeue round a conclusive (and wrong) emptiness verdict. The oracle
/// must reject the explored false `None` as `not-linearizable`, and the
/// recorded schedule must reproduce it deterministically under replay.
#[test]
fn bounded_broken_threshold_mutant_false_empty() {
    // The violating trace needs exactly one forced preemption (away from
    // producer 0 between its ticket FAA and its install; the remaining
    // switches fall on natural completions), so a CHESS-style bound of 1
    // keeps the DFS tree small enough to cover exhaustively.
    let cfg = Config {
        threads: 3,
        budget: 2_000,
        dfs_budget: 50_000,
        preemption_bound: Some(1),
        mutants: &["bq.threshold-reset"],
        ..Config::default()
    };
    let report = explore(&cfg, threshold_scenario);
    let violation = report
        .violation
        .as_ref()
        .expect("the broken threshold's false empty verdict must be caught");
    // Log the full reproduction recipe so CI's --nocapture run records it.
    println!("bounded broken-threshold mutant caught:\n{violation}");
    report.assert_caught("not-linearizable");

    let schedule = violation.schedule.clone();
    let replayed = replay(&cfg, threshold_scenario, &schedule);
    replayed.assert_caught("not-linearizable");
}

/// Positive control: the identical scenario with the production reset
/// explores clean — the SCQ threshold absorbs every burned-ticket
/// decrement that can occur while an item is still reachable.
#[test]
fn bounded_threshold_control_explores_clean() {
    let cfg = Config {
        threads: 3,
        budget: 2_000,
        dfs_budget: 50_000,
        preemption_bound: Some(1),
        ..Config::default()
    };
    let report = explore(&cfg, threshold_scenario);
    report.assert_clean();
}

/// One period of the starvation schedule: three steps for the enqueue
/// churn (thread 1), seven for the dequeue churn (thread 2), one for the
/// victim (thread 0). The 3:7 phasing keeps the enqueuer's install for
/// the victim's claimed free-index ticket in flight across the victim's
/// state-word read, round after round.
fn starvation_schedule(periods: usize) -> String {
    let mut s = Vec::with_capacity(periods * 11);
    for _ in 0..periods {
        s.extend(std::iter::repeat_n("1", 3));
        s.extend(std::iter::repeat_n("2", 7));
        s.push("0");
    }
    s.join(",")
}

/// Victim: one logged enqueue, driven into the request-slot path by
/// `fast_tries(1)`. Attackers: an enqueue-churn thread and a (longer)
/// dequeue-churn thread bouncing free indices through both rings of a
/// capacity-4 queue. Under the biased schedule the victim's free-index
/// pop rounds keep missing: the churn enqueuer's install for the
/// victim's ticket is perpetually mid-flight when the victim reads its
/// slot, the victim's hole-advance burns that reservation, and the
/// churn's completed installs keep resetting the threshold — the SCQ
/// burn cycle that makes the bare ring lock-free only. The dequeue
/// churn runs 400 extra ops so the ring is drained when the attackers
/// retire and the victim's enqueue can always complete eventually.
/// (Capacity 4 rather than 2: the dequeue churn parks one free index in
/// its per-thread reuse cache, and with only one other index circulating
/// the victim would starve on genuine `Full` backpressure — real, but
/// not the wait-freedom property under audit here.)
///
/// Only the victim is logged: the oracle history is a single enqueue
/// (always linearizable), so the step auditor's verdict is the whole
/// test.
fn starvation_scenario(churn: u64) -> impl Fn(OpLogger) -> Scenario {
    move |log| {
        let q: Arc<BoundedQueue<u64>> = Arc::new(
            BoundedBuilder::new()
                .capacity(4)
                .max_threads(3)
                .fast_tries(1)
                .build(),
        );
        let qp = Arc::clone(&q);
        let q0 = Arc::clone(&q);
        let q1 = Arc::clone(&q);
        let q2 = q;
        let l0 = log;
        Scenario {
            bodies: vec![
                // Victim: the op whose step count is under audit.
                Box::new(move || {
                    l0.enqueue(0, 999, || q0.enqueue(999));
                }),
                Box::new(move || {
                    for v in 0..churn {
                        let _ = q1.try_enqueue(v);
                    }
                }),
                Box::new(move || {
                    for _ in 0..churn + 400 {
                        let _ = q2.try_dequeue();
                    }
                }),
            ],
            // Drop in the post hook: the harness joins the threads first,
            // so the destructor's plain data-slot walk has a
            // happens-before edge to every body access.
            post: Some(Box::new(move || {
                drop(qp);
                Ok(())
            })),
        }
    }
}

/// Seeded dropped-helping-scan mutant: without the scan there is no
/// defer window, so the churn threads never yield the rings to the
/// victim's published request and its rounds burn for as long as the
/// attackers run (~3 700 audited steps on this schedule, vs a bound of
/// 1 206). The wait-freedom auditor must report `step-bound`.
#[test]
fn bounded_help_scan_removed_mutant_breaks_the_step_bound() {
    let bound = bounded_step_bound(3, 4);
    let cfg = Config {
        threads: 3,
        budget: 1,
        dfs_budget: 1,
        step_bound: Some(bound),
        step_limit: 5_000_000,
        mutants: &["bq.help-scan"],
        ..Config::default()
    };
    let schedule = starvation_schedule(4_000);
    let report = replay(&cfg, starvation_scenario(1_200), &schedule);
    // Log the full reproduction recipe so CI's --nocapture run records it.
    if let Some(v) = &report.violation {
        println!("bounded help-scan mutant caught:\n{v}");
    }
    report.assert_caught("step-bound");
}

/// Positive control: the identical scenario and the identical
/// adversarial schedule with the helping scan intact. Each churn op's
/// entry sees `pending_count > 0`, delivers any due verdict, and defers
/// its own ring mutations — the victim completes well within the bound
/// and the whole run is clean.
#[test]
fn bounded_help_scan_intact_survives_the_starvation_schedule() {
    let bound = bounded_step_bound(3, 4);
    let cfg = Config {
        threads: 3,
        budget: 1,
        dfs_budget: 1,
        step_bound: Some(bound),
        step_limit: 5_000_000,
        ..Config::default()
    };
    let schedule = starvation_schedule(4_000);
    let report = replay(&cfg, starvation_scenario(1_200), &schedule);
    report.assert_clean();
    assert!(report.max_enqueue_steps <= bound);
    println!(
        "bounded help-scan control: victim completed in {} steps (bound {})",
        report.max_enqueue_steps, bound
    );
}
