//! The Michael–Scott lock-free queue with hazard-pointer reclamation.
//!
//! This is the paper's baseline: "probably the simplest of the lock-free
//! queues … The MS queue has no thread-local variables, and the only shared
//! variables are the head and the tail" (§4.1). Like the paper's benchmark
//! version, it uses the same hazard-pointer implementation as the Turn
//! queue (one scan per `max_threads·k + 1` retires, the paper's bound).
//!
//! Progress: lock-free only. Under contention a thread can lose the
//! head/tail CAS indefinitely — this is precisely the fat latency tail that
//! Table 3 and Figure 1 of the paper measure.

use turnq_sync::cell::UnsafeCell;
use std::ptr;
use turnq_sync::atomic::AtomicPtr;
use turnq_sync::ord;

use crossbeam_utils::CachePadded;
use turnq_api::{ConcurrentQueue, Progress, QueueFamily, QueueIntrospect, QueueProps, SizeReport};
use std::sync::Arc;
use turnq_hazard::HazardPointers;
use turnq_telemetry::{
    CounterId, OpKey, OpTimer, TelemetryHandle, TelemetrySheet, TelemetrySnapshot,
};
use turnq_threadreg::ThreadRegistry;

/// Hazard slot for head/tail.
const HP_HEAD_TAIL: usize = 0;
/// Hazard slot for the successor node.
const HP_NEXT: usize = 1;
const HPS_PER_THREAD: usize = 2;

/// An MS-queue node: just the item and the link (16 bytes for pointer-sized
/// items — the smallest node in Table 4).
struct MsNode<T> {
    item: UnsafeCell<Option<T>>,
    next: AtomicPtr<MsNode<T>>,
}

impl<T> MsNode<T> {
    fn alloc(item: Option<T>) -> *mut MsNode<T> {
        Box::into_raw(Box::new(MsNode {
            item: UnsafeCell::new(item),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// The Michael–Scott lock-free MPMC queue (PODC 1996) with embedded
/// hazard-pointer reclamation.
pub struct MSQueue<T> {
    max_threads: usize,
    head: CachePadded<AtomicPtr<MsNode<T>>>,
    tail: CachePadded<AtomicPtr<MsNode<T>>>,
    hp: HazardPointers<MsNode<T>>,
    registry: ThreadRegistry,
    /// Observer-only probes (see `turnq-telemetry`). MS being lock-free,
    /// its CAS-fail counters are unbounded per op — exactly the contrast
    /// with the Turn queue the telemetry tables exist to show.
    telemetry: Arc<TelemetrySheet>,
}

// SAFETY(send-sync): same reasoning as TurnQueue — atomics + HP-managed
// raw pointers.
unsafe impl<T: Send> Send for MSQueue<T> {}
unsafe impl<T: Send> Sync for MSQueue<T> {}

impl<T> MSQueue<T> {
    /// A queue usable by up to `max_threads` threads.
    pub fn with_max_threads(max_threads: usize) -> Self {
        assert!(max_threads >= 1);
        let sentinel = MsNode::<T>::alloc(None);
        let telemetry = Arc::new(TelemetrySheet::new(max_threads));
        let mut hp = HazardPointers::new(max_threads, HPS_PER_THREAD);
        hp.attach_telemetry(TelemetryHandle::connected(&telemetry));
        MSQueue {
            max_threads,
            head: CachePadded::new(AtomicPtr::new(sentinel)),
            tail: CachePadded::new(AtomicPtr::new(sentinel)),
            hp,
            registry: ThreadRegistry::new(max_threads),
            telemetry,
        }
    }

    /// Aggregate this queue's telemetry (op, CAS-retry and HP counters,
    /// plus backlog/registry gauges). All-zero with the feature off.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        // Keep the `probe`-off ⇒ all-zero contract (the registry tallies
        // below are recorded unconditionally).
        if turnq_telemetry::ENABLED {
            snap.set_gauge("hp_retired_backlog", self.hp.retired_backlog() as u64);
            snap.set_gauge("registry_registered", self.registry.registered_count() as u64);
            snap.add_counter("slot_claim", self.registry.slot_claims());
            snap.add_counter("slot_release", self.registry.slot_releases());
        }
        snap
    }

    /// The thread bound.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Lock-free enqueue: link after the tail, then swing the tail.
    pub fn enqueue(&self, item: T) {
        let tid = self.registry.current_index();
        self.enqueue_with(tid, item);
    }

    /// Lock-free dequeue.
    pub fn dequeue(&self) -> Option<T> {
        let tid = self.registry.current_index();
        self.dequeue_with(tid)
    }

    pub(crate) fn enqueue_with(&self, tid: usize, item: T) {
        // Single-path baseline: all latency lands under the slow-path key.
        let timer = OpTimer::start();
        let node = MsNode::alloc(Some(item));
        loop {
            let ltail = match self.hp.try_protect(tid, HP_HEAD_TAIL, &self.tail) {
                Ok(p) => p,
                Err(_) => continue,
            };
            // SAFETY(hp-validate): protected + validated by try_protect.
            let ltail_ref = unsafe { &*ltail };
            // ORDERING(ms.link-read): ACQUIRE — link read; pairs with the
            // linking CAS's release half (crossbeam-standard MS orderings).
            // pairs=ms.link-cas
            let lnext = ltail_ref.next.load(ord::ACQUIRE);
            // ORDERING(ms.tail-read): SEQ_CST — protect/validate handshake
            // re-load, ordered after the SC hazard publication in
            // try_protect. pairs=ms.tail-swing
            if ltail != self.tail.load(ord::SEQ_CST) {
                continue;
            }
            if lnext.is_null() {
                // ORDERING(ms.link-cas): RELEASE / RELAXED — the linking CAS
                // publishes the node's plainly-written item to every acquire
                // link read (and to the winning head advance that takes it);
                // MS needs no total order here because every decision is
                // re-validated against head/tail. Failure value unused.
                // pairs=ms.link-read,ms.head-advance
                if ltail_ref
                    .next
                    .compare_exchange(ptr::null_mut(), node, ord::RELEASE, ord::RELAXED)
                    .is_ok()
                {
                    // ORDERING(ms.tail-swing): SEQ_CST / RELAXED — tail
                    // swing: must stay in the total order the try_protect
                    // validations read (the hazard contract: a node is
                    // retired only after head passed it, and head never
                    // passes the tail). Failure value unused (someone
                    // helped). pairs=ms.tail-read
                    let _ = self.tail.compare_exchange(
                        ltail,
                        node,
                        ord::SEQ_CST,
                        ord::RELAXED,
                    );
                    break;
                }
                self.telemetry.bump(tid, CounterId::CasFailNext);
            } else {
                // Help swing a lagging tail.
                // ORDERING(ms.tail-swing): SEQ_CST / RELAXED — tail swing
                // (see above). pairs=ms.tail-read
                let _ =
                    self.tail
                        .compare_exchange(ltail, lnext, ord::SEQ_CST, ord::RELAXED);
            }
        }
        self.hp.clear(tid);
        self.telemetry.bump(tid, CounterId::EnqOps);
        self.telemetry
            .record_latency(tid, OpKey::EnqSlow, timer.nanos());
    }

    pub(crate) fn dequeue_with(&self, tid: usize) -> Option<T> {
        let timer = OpTimer::start();
        loop {
            let lhead = match self.hp.try_protect(tid, HP_HEAD_TAIL, &self.head) {
                Ok(p) => p,
                Err(_) => continue,
            };
            // ORDERING(ms.tail-read): SEQ_CST — emptiness-test input
            // (`lhead == ltail` below): the None answer must be ordered
            // against concurrent tail swings. pairs=ms.tail-swing
            let ltail = self.tail.load(ord::SEQ_CST);
            // SAFETY(hp-validate): lhead protected + validated.
            // ORDERING(ms.link-read): ACQUIRE — candidate link read for
            // protection; the SC head re-load below validates it.
            // pairs=ms.link-cas
            let lnext = self
                .hp
                .protect_ptr(tid, HP_NEXT, unsafe { &*lhead }.next.load(ord::ACQUIRE));
            // ORDERING(ms.head-read): SEQ_CST — protect/validate handshake
            // re-load. pairs=ms.head-advance
            if lhead != self.head.load(ord::SEQ_CST) {
                continue;
            }
            if lhead == ltail {
                if lnext.is_null() {
                    self.hp.clear(tid);
                    self.telemetry.bump(tid, CounterId::DeqEmpty);
                    self.telemetry
                        .record_latency(tid, OpKey::DeqSlow, timer.nanos());
                    return None; // observed empty
                }
                // Tail is lagging: help it, then retry.
                // ORDERING(ms.tail-swing): SEQ_CST / RELAXED — tail swing
                // (see enqueue). pairs=ms.tail-read
                let _ =
                    self.tail
                        .compare_exchange(ltail, lnext, ord::SEQ_CST, ord::RELAXED);
                continue;
            }
            // ORDERING(ms.head-advance): SEQ_CST / RELAXED — head advance:
            // the dequeue's decision point; stays in the total order every
            // try_protect validation and emptiness check reads. Acquire on
            // success also carries the enqueuer's item (linking-CAS release)
            // into the take below. Failure value unused (loop re-protects).
            // pairs=ms.head-read,ms.link-cas
            if self
                .head
                .compare_exchange(lhead, lnext, ord::SEQ_CST, ord::RELAXED)
                .is_ok()
            {
                // We won the dequeue; the item in the new sentinel is ours.
                // SAFETY(claim-owner): unique CAS winner; lnext is protected (HP_NEXT) so
                // a concurrent dequeuer that advances past it cannot free it
                // while we read the item.
                let item = unsafe { (*lnext).item.get().as_mut().unwrap().take() };
                debug_assert!(item.is_some());
                self.hp.clear(tid);
                // SAFETY(retire-unique): lhead is now unreachable (head moved past it);
                // only the CAS winner retires it.
                unsafe { self.hp.retire(tid, lhead) };
                self.telemetry.bump(tid, CounterId::DeqOps);
                self.telemetry
                    .record_latency(tid, OpKey::DeqSlow, timer.nanos());
                return item;
            }
            self.telemetry.bump(tid, CounterId::CasFailHead);
        }
    }
}

impl<T> Drop for MSQueue<T> {
    fn drop(&mut self) {
        // ORDERING(ms.drop-walk): RELAXED (both Drop loads) — `&mut self`
        // in Drop: no concurrency.
        let mut node = self.head.load(ord::RELAXED);
        while !node.is_null() {
            // SAFETY(drop-exclusive): `&mut self` means no concurrent access; every node
            // in the list is a live Box::into_raw allocation.
            let next = unsafe { &*node }.next.load(ord::RELAXED);
            // SAFETY(drop-exclusive): exclusive access; list nodes freed exactly once.
            unsafe { drop(Box::from_raw(node)) };
            node = next;
        }
    }
}

impl<T: Send> ConcurrentQueue<T> for MSQueue<T> {
    fn enqueue(&self, item: T) {
        MSQueue::enqueue(self, item);
    }

    fn dequeue(&self) -> Option<T> {
        MSQueue::dequeue(self)
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }
}

impl<T> QueueIntrospect for MSQueue<T> {
    fn props() -> QueueProps {
        QueueProps {
            name: "MS",
            progress_enqueue: Progress::LockFree,
            progress_dequeue: Progress::LockFree,
            consensus: "CAS retry loop",
            atomic_instructions: "CAS",
            reclamation: "HP (R = H + 1)",
            min_memory: "O(1)",
        }
    }

    fn size_report() -> SizeReport {
        SizeReport {
            node_bytes: std::mem::size_of::<MsNode<Box<u64>>>(),
            enqueue_request_bytes: 0,
            dequeue_request_bytes: 0,
            fixed_per_thread_bytes: 0, // "no thread-local variables" (§4.1)
            min_heap_allocs_per_item: 1,
            steady_state_allocs_per_item: 1, // no recycling layer
        }
    }

    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        Some(MSQueue::telemetry_snapshot(self))
    }
}

/// [`QueueFamily`] selector for the MS queue.
pub struct MsFamily;

impl QueueFamily for MsFamily {
    type Queue<T: Send + 'static> = MSQueue<T>;
    const NAME: &'static str = "ms";

    fn with_max_threads<T: Send + 'static>(max_threads: usize) -> MSQueue<T> {
        MSQueue::with_max_threads(max_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread() {
        let q: MSQueue<u32> = MSQueue::with_max_threads(2);
        assert_eq!(q.dequeue(), None);
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn node_is_16_bytes() {
        // Table 4: the FK/MS style node is the minimum 16 bytes.
        assert_eq!(std::mem::size_of::<MsNode<Box<u64>>>(), 16);
    }

    #[test]
    fn drop_frees_pending_items() {
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q: MSQueue<D> = MSQueue::with_max_threads(2);
            for _ in 0..8 {
                q.enqueue(D(Arc::clone(&drops)));
            }
            for _ in 0..3 {
                q.dequeue();
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn mpmc_no_loss_no_dup() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 3;
        const PER: u64 = 3_000;
        let q: Arc<MSQueue<u64>> = Arc::new(MSQueue::with_max_threads(PRODUCERS + CONSUMERS));
        let received = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER {
                        q.enqueue((p as u64) << 32 | i);
                    }
                });
            }
            let mut sinks = Vec::new();
            for _ in 0..CONSUMERS {
                let q = Arc::clone(&q);
                let received = Arc::clone(&received);
                sinks.push(s.spawn(move || {
                    let mut got = Vec::new();
                    while received.load(Ordering::SeqCst) < (PRODUCERS * PER as usize) {
                        if let Some(v) = q.dequeue() {
                            received.fetch_add(1, Ordering::SeqCst);
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                }));
            }
            let mut all: Vec<u64> = sinks
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), PRODUCERS * PER as usize);
        });
    }
}
