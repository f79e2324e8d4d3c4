//! Reclamation correctness across crates: every allocated object is freed
//! exactly once, no use-after-free manifests under churn, backlogs honour
//! their wait-free bounds, and — the paper's Table 2 argument — a stalled
//! reader blocks an epoch domain but not an HP domain.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use turnq_repro::api::{ConcurrentQueue, QueueFamily};
use turnq_repro::harness::with_queue_family;
use turnq_repro::harness::QueueKind;
use turnq_repro::hazard::epoch_demo::EpochDomain;
use turnq_repro::hazard::{retired_bound, HazardPointers};

/// An item whose clone/drop balance is counted.
struct Tracked {
    drops: Arc<AtomicUsize>,
    payload: u64,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

fn churn_generic<F: QueueFamily>(threads: usize, per_thread: usize) {
    let drops = Arc::new(AtomicUsize::new(0));
    let created = Arc::new(AtomicUsize::new(0));
    {
        let q = Arc::new(F::with_max_threads::<Tracked>(threads));
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = Arc::clone(&q);
                let drops = Arc::clone(&drops);
                let created = Arc::clone(&created);
                s.spawn(move || {
                    for i in 0..per_thread {
                        q.enqueue(Tracked {
                            drops: Arc::clone(&drops),
                            payload: (t * per_thread + i) as u64,
                        });
                        created.fetch_add(1, Ordering::SeqCst);
                        // Interleave dequeues; read payload to catch UAF-ish
                        // garbage under the drop counter.
                        if let Some(item) = q.dequeue() {
                            assert!(item.payload < (threads * per_thread) as u64);
                        }
                    }
                });
            }
        });
        // Some items remain queued; dropping the queue must free them too.
        drop(Arc::try_unwrap(q).ok().expect("sole owner"));
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        created.load(Ordering::SeqCst),
        "every item dropped exactly once"
    );
}

#[test]
fn churn_drop_balance_all_queues() {
    for kind in QueueKind::all() {
        with_queue_family!(kind, F => churn_generic::<F>(4, 2_000));
    }
}

#[test]
fn churn_drop_balance_oversubscribed() {
    for kind in QueueKind::paper_set() {
        with_queue_family!(kind, F => churn_generic::<F>(8, 500));
    }
}

/// The §3 claim: with HP scanning at `retired_bound`, the unreclaimed
/// backlog of a thread is bounded even while other threads hold live
/// protections.
#[test]
fn hp_backlog_bound_under_live_protections() {
    const T: usize = 8;
    const K: usize = 3;
    let hp: HazardPointers<u64> = HazardPointers::new(T, K);
    // Fill every hazard slot of threads 1..T.
    let mut pinned = Vec::new();
    for tid in 1..T {
        for k in 0..K {
            let p = Box::into_raw(Box::new(0u64));
            hp.protect_ptr(tid, k, p);
            pinned.push(p);
        }
    }
    for &p in &pinned {
        // SAFETY: fresh `Box::into_raw` pointer owned by this test, unlinked, retired exactly once.
        unsafe { hp.retire(0, p) };
    }
    for _ in 0..10_000 {
        let p = Box::into_raw(Box::new(0u64));
        unsafe { hp.retire(0, p) };
        assert!(hp.retired_count(0) <= retired_bound(T, K));
    }
}

/// Table 2 made executable: epoch reclamation is blocking, HP is not.
#[test]
fn epoch_blocks_hp_does_not() {
    const N: usize = 5_000;
    // Epoch domain with a stalled reader: backlog grows without bound.
    let epoch: EpochDomain<u64> = EpochDomain::new(2);
    epoch.pin(1);
    for _ in 0..N {
        let p = Box::into_raw(Box::new(0u64));
        // SAFETY: fresh `Box::into_raw` pointer owned by this test, unlinked, retired exactly once.
        unsafe { epoch.retire(0, p) };
    }
    assert_eq!(epoch.retired_count(0), N, "stalled reader must block epochs");

    // Same schedule under HP: bounded.
    let hp: HazardPointers<u64> = HazardPointers::new(2, 1);
    let held = Box::into_raw(Box::new(0u64));
    hp.protect_ptr(1, 0, held);
    unsafe { hp.retire(0, held) };
    for _ in 0..N {
        let p = Box::into_raw(Box::new(0u64));
        unsafe { hp.retire(0, p) };
    }
    assert!(hp.retired_count(0) <= retired_bound(2, 1));

    // Once the stalled reader moves on, the epoch backlog drains.
    epoch.unpin(1);
    for _ in 0..4 {
        let p = Box::into_raw(Box::new(0u64));
        // SAFETY: fresh `Box::into_raw` pointer owned by this test, unlinked, retired exactly once.
        unsafe { epoch.retire(0, p) };
    }
    assert!(epoch.retired_count(0) <= 3);
}

/// The Turn queue's own reclamation stays bounded while a dequeuer-heavy
/// workload churns nodes (the hp.retire(prReq) path of Algorithm 3).
#[test]
fn turn_queue_steady_state_memory() {
    use turnq_repro::TurnQueue;
    let q: TurnQueue<u64> = TurnQueue::with_max_threads(4);
    // Single-threaded steady state: the node population reachable from the
    // queue is bounded by in-flight items + per-slot request dummies +
    // bounded retired backlog. Exercise many rounds and rely on the
    // drop-balance test above for exactness; here we assert liveness of
    // reclamation indirectly by keeping a long-running churn from growing
    // the process (proxy: the loop completes and drop balance holds).
    for i in 0..200_000u64 {
        q.enqueue(i);
        assert_eq!(q.dequeue(), Some(i));
    }
}
