//! Seeded-bug mutants: each test plants a known concurrency bug and
//! asserts the model checker catches it with the *right* violation class.
//! This is the negative control for the whole subsystem — a checker that
//! cannot catch a planted bug proves nothing when it reports clean runs.
//!
//! One mutant per detection layer:
//!
//! * lost-update enqueue  → `not-linearizable` (the oracle),
//! * non-owner pool push  → `race` (the vector-clock detector),
//! * spin on a dead flag  → `step-limit` (the scheduler valve),
//! * absurdly small bound → `step-bound` (the wait-freedom auditor),
//! * relaxed link read    → `race` (the *ordering-aware* detector: a
//!   `Relaxed` load where the relaxed build needs `Acquire` drops the
//!   happens-before edge; the acquire twin is the positive control).
//! * relaxed depot take   → `race` (the node pool's list hand-over: a
//!   take CAS that wins with `Relaxed` reads the depositor's plain links
//!   with no happens-before edge; the acquire twin is the positive
//!   control).

use std::sync::Arc;
use turn_queue::TurnQueue;
use turnq_modelcheck::{explore, turn_step_bound, Config, Scenario};
use turnq_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use turnq_sync::cell::UnsafeCell;

/// A bounded "queue" with a classic ordering bug: the enqueue reserves a
/// slot with a plain load-then-store on `len` instead of a fetch-add, so
/// two concurrent enqueues can claim the same slot and one value is lost.
/// All accesses are atomic — the race detector stays quiet and the
/// linearizability oracle must do the catching.
struct LostUpdateQueue {
    buf: Vec<AtomicU64>,
    len: AtomicUsize,
    head: AtomicUsize,
}

impl LostUpdateQueue {
    fn new(cap: usize) -> Self {
        LostUpdateQueue {
            buf: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            len: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
        }
    }

    fn enqueue(&self, v: u64) {
        // BUG (deliberate): load + store is not a reservation.
        let i = self.len.load(Ordering::SeqCst);
        self.buf[i].store(v, Ordering::SeqCst);
        self.len.store(i + 1, Ordering::SeqCst);
    }

    fn dequeue(&self) -> Option<u64> {
        let h = self.head.fetch_add(1, Ordering::SeqCst);
        if h >= self.len.load(Ordering::SeqCst) {
            return None;
        }
        match self.buf[h].swap(0, Ordering::SeqCst) {
            0 => None,
            v => Some(v),
        }
    }
}

#[test]
fn lost_update_mutant_is_not_linearizable() {
    let cfg = Config {
        threads: 2,
        budget: 2_000,
        dfs_budget: 2_000,
        step_bound: None,
        ..Config::default()
    };
    let report = explore(&cfg, |log| {
        let q = Arc::new(LostUpdateQueue::new(4));
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
                    l1.enqueue(1, 2, || q1.enqueue(2));
                    l1.dequeue(1, || q1.dequeue());
                }),
            ],
            post: None,
        }
    });
    // Both enqueues complete, yet in the lost-update interleaving one
    // value vanishes and a dequeue returns None from a non-empty queue.
    report.assert_caught("not-linearizable");
}

/// The PR-1 node-pool shape with its central invariant broken: free lists
/// are owner-only by design, but this mutant's thread 1 "helpfully"
/// pushes into thread 0's list. Two plain accesses, no happens-before
/// edge — exactly what the detector exists to flag.
struct BrokenPool {
    slots: [UnsafeCell<Vec<u64>>; 2],
}

// SAFETY: *intentionally wrong* for the system under test — the mutant
// violates the owner-only discipline this impl would normally encode. The
// test itself stays sound because the model-check scheduler serializes
// all accesses (at most one worker runs at any instant).
unsafe impl Sync for BrokenPool {}

#[test]
fn non_owner_pool_push_is_a_race() {
    let cfg = Config {
        threads: 2,
        budget: 200,
        dfs_budget: 200,
        step_bound: None,
        ..Config::default()
    };
    let report = explore(&cfg, |_log| {
        let pool = Arc::new(BrokenPool {
            slots: [UnsafeCell::new(Vec::new()), UnsafeCell::new(Vec::new())],
        });
        let p0 = Arc::clone(&pool);
        let p1 = pool;
        Scenario {
            bodies: vec![
                Box::new(move || {
                    // Owner fast path: thread 0 on its own list.
                    // SAFETY: serialized by the model-check scheduler (and
                    // the bug under test is the *discipline* violation,
                    // which the detector must report).
                    unsafe { (*p0.slots[0].get()).push(10) };
                }),
                Box::new(move || {
                    // BUG (deliberate): non-owner push into list 0.
                    // SAFETY: as above.
                    unsafe { (*p1.slots[0].get()).push(20) };
                }),
            ],
            post: None,
        }
    });
    report.assert_caught("race");
}

#[test]
fn dead_flag_spin_hits_the_step_limit() {
    let cfg = Config {
        threads: 2,
        budget: 10,
        dfs_budget: 10,
        step_bound: None,
        step_limit: 500,
        ..Config::default()
    };
    let report = explore(&cfg, |_log| {
        let flag = Arc::new(AtomicBool::new(false));
        let f0 = Arc::clone(&flag);
        let f1 = flag;
        Scenario {
            bodies: vec![
                Box::new(move || {
                    // BUG (deliberate): nobody ever sets the flag; this is
                    // not wait-free, not lock-free, not anything.
                    while !f0.load(Ordering::SeqCst) {
                        turnq_sync::hint::spin_loop();
                    }
                }),
                Box::new(move || {
                    f1.fetch_and(true, Ordering::SeqCst);
                }),
            ],
            post: None,
        }
    });
    report.assert_caught("step-limit");
}

/// The real Turn queue with a bound far below its true step complexity:
/// the auditor (not the oracle) must object. Guards against a silently
/// vacuous step audit — if `max_*_steps` were miscounted as 0, this test
/// would fail.
#[test]
fn absurd_bound_trips_the_step_auditor() {
    let cfg = Config {
        threads: 2,
        budget: 50,
        dfs_budget: 50,
        step_bound: Some(5),
        ..Config::default()
    };
    assert!(turn_step_bound(2) > 5, "mutant bound must be below the real one");
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
    });
    report.assert_caught("step-bound");
}

/// The message-passing cell of the ordering-relaxation pass: a plainly
/// written payload published by a `Release` store of `next`, read back
/// through a load of `next` and a plain payload read. This is the shape
/// of the Turn queue's dequeue — node fields written plainly, published
/// by the linking CAS's release half, dereferenced after an `Acquire`
/// read of `head.next` (see `// ORDERING:` at that site in
/// `crates/core/src/queue.rs` and docs/orderings.md).
struct WeakLink {
    item: UnsafeCell<u64>,
    next: AtomicUsize,
}

// SAFETY: the test relies on the model-check scheduler serializing all
// accesses; the *discipline* violation in the mutant below is exactly
// what the ordering-aware race detector must report.
unsafe impl Sync for WeakLink {}

fn explore_link_read(load_order: Ordering) -> turnq_modelcheck::Report {
    let cfg = Config {
        threads: 2,
        budget: 200,
        dfs_budget: 200,
        step_bound: None,
        ..Config::default()
    };
    explore(&cfg, move |_log| {
        let link = Arc::new(WeakLink {
            item: UnsafeCell::new(0),
            next: AtomicUsize::new(0),
        });
        let l0 = Arc::clone(&link);
        let l1 = link;
        Scenario {
            bodies: vec![
                Box::new(move || {
                    // Producer: plain payload write, then release-publish —
                    // the enqueue side's linking discipline, intact.
                    // SAFETY: serialized by the model-check scheduler.
                    unsafe { *l0.item.get() = 42 };
                    l0.next.store(1, Ordering::Release);
                }),
                Box::new(move || {
                    // Consumer: `load_order` is the mutation point. With
                    // `Relaxed` (the mutant) observing 1 creates no
                    // happens-before edge and the plain read below races
                    // with the producer's plain write.
                    if l1.next.load(load_order) == 1 {
                        // SAFETY: as above.
                        let _v = unsafe { *l1.item.get() };
                    }
                }),
            ],
            post: None,
        }
    })
}

#[test]
fn relaxed_link_read_mutant_is_a_race() {
    let report = explore_link_read(Ordering::Relaxed);
    // Log the full reproduction recipe (schedule, seed if the random
    // phase found it) so CI's --nocapture run records it.
    if let Some(v) = &report.violation {
        println!("weak-ordering mutant caught:\n{v}");
    }
    report.assert_caught("race");
}

/// Positive control for the mutant above: the exact same program with
/// the `Acquire` the relaxed build actually uses must explore clean.
#[test]
fn acquire_link_read_is_race_free() {
    explore_link_read(Ordering::Acquire).assert_clean();
}

/// The node pool's depot (`crates/core/src/pool.rs`) in miniature: a
/// thread with a full free list writes the list's links plainly and hands
/// the whole chain over with one `Release` CAS `null → head`; a thread
/// with an empty list peeks with a `Relaxed` load, takes the chain with
/// one CAS `head → null`, and only then walks the links plainly. Chains
/// are node indices + 1 (0 = null).
struct MiniDepot {
    next: [UnsafeCell<usize>; 2],
    depot: AtomicUsize,
}

// SAFETY: the test relies on the model-check scheduler serializing all
// accesses; the missing edge in the mutant below is exactly what the
// ordering-aware race detector must report.
unsafe impl Sync for MiniDepot {}

fn explore_depot_take(take_order: Ordering) -> turnq_modelcheck::Report {
    let cfg = Config {
        threads: 2,
        budget: 200,
        dfs_budget: 200,
        step_bound: None,
        ..Config::default()
    };
    explore(&cfg, move |_log| {
        let pool = Arc::new(MiniDepot {
            next: [UnsafeCell::new(0), UnsafeCell::new(0)],
            depot: AtomicUsize::new(0),
        });
        let p0 = Arc::clone(&pool);
        let p1 = pool;
        Scenario {
            bodies: vec![
                Box::new(move || {
                    // Depositor: link node 1 → node 2 → null, then hand
                    // the chain over (the production deposit, intact).
                    // SAFETY: serialized by the model-check scheduler.
                    unsafe {
                        *p0.next[0].get() = 2;
                        *p0.next[1].get() = 0;
                    }
                    let _ = p0.depot.compare_exchange(0, 1, Ordering::Release, Ordering::Relaxed);
                }),
                Box::new(move || {
                    // Taker: `take_order` is the mutation point. A win with
                    // `Relaxed` (the mutant) creates no happens-before edge,
                    // so the plain link reads race with the depositor's.
                    let head = p1.depot.load(Ordering::Relaxed);
                    if head != 0
                        && p1
                            .depot
                            .compare_exchange(head, 0, take_order, Ordering::Relaxed)
                            .is_ok()
                    {
                        let mut node = head;
                        while node != 0 {
                            // SAFETY: as above.
                            node = unsafe { *p1.next[node - 1].get() };
                        }
                    }
                }),
            ],
            post: None,
        }
    })
}

#[test]
fn relaxed_depot_take_mutant_is_a_race() {
    let report = explore_depot_take(Ordering::Relaxed);
    if let Some(v) = &report.violation {
        println!("relaxed depot take caught:\n{v}");
    }
    report.assert_caught("race");
}

/// Positive control: the `Acquire` take the pool actually uses is clean.
#[test]
fn acquire_depot_take_is_race_free() {
    explore_depot_take(Ordering::Acquire).assert_clean();
}
