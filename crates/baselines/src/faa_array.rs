//! A fetch-and-add array queue — the YMC-fast-path analogue.
//!
//! The paper excludes the Yang–Mellor-Crummey queue from its benchmarks
//! (use-after-free in its reclamation, §4), but its *discussion* of
//! FAA-based designs needs a live comparator: a queue whose consensus is a
//! ticket from `fetch_add` into per-node arrays. This implementation
//! follows the FAA-array design from the same authors as the Turn queue —
//! structurally the YMC fast path with a correct HP-based reclamation and
//! no slow path (hence **lock-free**, not wait-free: a dequeuer can chase
//! tickets forever if enqueuers keep losing their slots).
//!
//! Design notes mirroring the paper's YMC critique:
//!
//! * each node holds [`BUFFER_SIZE`] item slots (the YMC paper used 10⁶+
//!   entries; we default to 1024 — the trade-off is measured by the
//!   `ablation` benches);
//! * a dequeue ticket taken on an empty queue burns its array cell forever
//!   (§1's "that position … will never contain an item");
//! * items are boxed, so the queue costs one allocation per item plus an
//!   amortized `1/BUFFER_SIZE` node allocation (Table 4 discussion).

use std::ptr;
use turnq_sync::atomic::{AtomicPtr, AtomicUsize};
use turnq_sync::ord;

use crossbeam_utils::CachePadded;
use turnq_api::{ConcurrentQueue, Progress, QueueFamily, QueueIntrospect, QueueProps, SizeReport};
use std::sync::Arc;
use turnq_hazard::HazardPointers;
use turnq_telemetry::{
    CounterId, OpKey, OpTimer, TelemetryHandle, TelemetrySheet, TelemetrySnapshot,
};
use turnq_threadreg::ThreadRegistry;

/// Item slots per node.
pub const BUFFER_SIZE: usize = 1024;

const HP_NODE: usize = 0;
const HPS_PER_THREAD: usize = 1;

/// Sentinel marking a cell whose ticket was consumed by a dequeuer before
/// any enqueuer could claim it.
#[inline]
fn taken<T>() -> *mut T {
    std::ptr::without_provenance_mut(1)
}

struct FaaNode<T> {
    deqidx: CachePadded<AtomicUsize>,
    items: Box<[AtomicPtr<T>]>,
    enqidx: CachePadded<AtomicUsize>,
    next: AtomicPtr<FaaNode<T>>,
}

impl<T> FaaNode<T> {
    /// A node whose first cell already holds `first` (or an empty node when
    /// `first` is null).
    fn alloc(first: *mut T) -> *mut FaaNode<T> {
        let items: Box<[AtomicPtr<T>]> = (0..BUFFER_SIZE)
            .map(|i| {
                AtomicPtr::new(if i == 0 { first } else { ptr::null_mut() })
            })
            .collect();
        Box::into_raw(Box::new(FaaNode {
            deqidx: CachePadded::new(AtomicUsize::new(0)),
            items,
            enqidx: CachePadded::new(AtomicUsize::new(if first.is_null() { 0 } else { 1 })),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

impl<T> Drop for FaaNode<T> {
    fn drop(&mut self) {
        // Free any items that were enqueued into this node but never
        // dequeued (possible when the whole queue is dropped).
        for cell in self.items.iter() {
            // ORDERING(fa.drop-walk): RELAXED — `&mut self` in Drop: no
            // concurrency.
            let p = cell.load(ord::RELAXED);
            if !p.is_null() && p != taken::<T>() {
                // SAFETY(drop-exclusive): `&mut self` in Drop; cell values
                // other than null/taken are unique Box::into_raw item
                // pointers owned by the queue.
                unsafe { drop(Box::from_raw(p)) };
            }
        }
    }
}

/// Lock-free FAA-array MPMC queue with hazard-pointer reclamation.
pub struct FaaArrayQueue<T> {
    max_threads: usize,
    head: CachePadded<AtomicPtr<FaaNode<T>>>,
    tail: CachePadded<AtomicPtr<FaaNode<T>>>,
    hp: HazardPointers<FaaNode<T>>,
    registry: ThreadRegistry,
    /// Observer-only probes (see `turnq-telemetry`).
    telemetry: Arc<TelemetrySheet>,
}

// SAFETY(send-sync): atomics + HP-managed pointers, as in the other queues.
unsafe impl<T: Send> Send for FaaArrayQueue<T> {}
unsafe impl<T: Send> Sync for FaaArrayQueue<T> {}

impl<T> FaaArrayQueue<T> {
    /// A queue usable by up to `max_threads` threads.
    pub fn with_max_threads(max_threads: usize) -> Self {
        assert!(max_threads >= 1);
        let sentinel = FaaNode::<T>::alloc(ptr::null_mut());
        let telemetry = Arc::new(TelemetrySheet::new(max_threads));
        let mut hp = HazardPointers::new(max_threads, HPS_PER_THREAD);
        hp.attach_telemetry(TelemetryHandle::connected(&telemetry));
        FaaArrayQueue {
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

    /// Lock-free enqueue: take a ticket, CAS the item into the cell.
    pub fn enqueue(&self, item: T) {
        let tid = self.registry.current_index();
        // Single-path baseline: all latency lands under the slow-path key.
        let timer = OpTimer::start();
        let item_ptr = Box::into_raw(Box::new(item));
        loop {
            let ltail = match self.hp.try_protect(tid, HP_NODE, &self.tail) {
                Ok(p) => p,
                Err(_) => continue,
            };
            // SAFETY(hp-validate): protected + validated.
            let tail_ref = unsafe { &*ltail };
            // ORDERING(fa.enq-ticket): SEQ_CST — enqueue ticket: the FAA
            // must be ordered before our item CAS and inside the total order
            // the dequeuer's empty check (deqidx/enqidx/next reads)
            // observes.
            let idx = tail_ref.enqidx.fetch_add(1, ord::SEQ_CST);
            if idx >= BUFFER_SIZE {
                // Node full: append a fresh node (or help whoever did).
                // ORDERING(fa.tail-read): SEQ_CST — protect/validate
                // handshake re-load. pairs=fa.tail-swing
                if ltail != self.tail.load(ord::SEQ_CST) {
                    continue;
                }
                // ORDERING(fa.link-read): ACQUIRE — link read; pairs with
                // the linking CAS's release half. pairs=fa.link-cas
                let lnext = tail_ref.next.load(ord::ACQUIRE);
                if lnext.is_null() {
                    let new_node = FaaNode::alloc(item_ptr);
                    // ORDERING(fa.link-cas): SEQ_CST / RELAXED — the linking
                    // CAS: publishes the new node (items written plainly in
                    // alloc) and must sit in the total order the empty
                    // check's `next` read observes. Failure value unused
                    // (our node never escaped; we retry). pairs=fa.link-read
                    if tail_ref
                        .next
                        .compare_exchange(ptr::null_mut(), new_node, ord::SEQ_CST, ord::RELAXED)
                        .is_ok()
                    {
                        // ORDERING(fa.tail-swing): SEQ_CST / RELAXED — tail
                        // swing; stays in the order try_protect validations
                        // read. Failure value unused (someone helped).
                        // pairs=fa.tail-read
                        let _ = self.tail.compare_exchange(
                            ltail,
                            new_node,
                            ord::SEQ_CST,
                            ord::RELAXED,
                        );
                        self.hp.clear(tid);
                        self.telemetry.bump(tid, CounterId::EnqOps);
                        self.telemetry
                            .record_latency(tid, OpKey::EnqSlow, timer.nanos());
                        return;
                    }
                    self.telemetry.bump(tid, CounterId::CasFailNext);
                    // Lost the append race: reclaim our speculative node
                    // (nobody saw it) but keep the item for the next round.
                    // SAFETY(node-unpublished): new_node never escaped; clear cell 0 first so
                    // FaaNode::drop does not free our still-live item.
                    unsafe {
                        // ORDERING(fa.spec-reset): RELAXED — new_node never
                        // escaped.
                        (*new_node).items[0].store(ptr::null_mut(), ord::RELAXED);
                        drop(Box::from_raw(new_node));
                    }
                } else {
                    // ORDERING(fa.tail-swing): SEQ_CST / RELAXED — tail swing
                    // (see above). pairs=fa.tail-read
                    let _ = self.tail.compare_exchange(
                        ltail,
                        lnext,
                        ord::SEQ_CST,
                        ord::RELAXED,
                    );
                }
                continue;
            }
            // ORDERING(fa.cell-publish): RELEASE / RELAXED — item
            // publication into our ticket's cell: release pairs with the
            // dequeuer's acquiring swap so the boxed payload is visible. A
            // failure means a dequeuer poisoned the cell; the value is
            // discarded. pairs=fa.cell-take
            if tail_ref.items[idx]
                .compare_exchange(ptr::null_mut(), item_ptr, ord::RELEASE, ord::RELAXED)
                .is_ok()
            {
                self.hp.clear(tid);
                self.telemetry.bump(tid, CounterId::EnqOps);
                self.telemetry
                    .record_latency(tid, OpKey::EnqSlow, timer.nanos());
                return;
            }
            // A dequeuer poisoned our cell; burn the ticket and retry.
        }
    }

    /// Lock-free dequeue: take a ticket, swap the cell out.
    pub fn dequeue(&self) -> Option<T> {
        let tid = self.registry.current_index();
        let timer = OpTimer::start();
        loop {
            let lhead = match self.hp.try_protect(tid, HP_NODE, &self.head) {
                Ok(p) => p,
                Err(_) => continue,
            };
            // SAFETY(hp-validate): protected + validated.
            let head_ref = unsafe { &*lhead };
            // Empty check: all tickets consumed and no successor node.
            // ORDERING(fa.empty-check): SEQ_CST (all three) — the empty
            // check: the None answer linearizes against concurrent tickets
            // and appends, exactly like the Turn queue's Inv. 11 head==tail
            // read.
            if head_ref.deqidx.load(ord::SEQ_CST) >= head_ref.enqidx.load(ord::SEQ_CST)
                && head_ref.next.load(ord::SEQ_CST).is_null()
            {
                self.hp.clear(tid);
                self.telemetry.bump(tid, CounterId::DeqEmpty);
                self.telemetry
                    .record_latency(tid, OpKey::DeqSlow, timer.nanos());
                return None;
            }
            // ORDERING(fa.deq-ticket): SEQ_CST — dequeue ticket (see
            // enqueue ticket).
            let idx = head_ref.deqidx.fetch_add(1, ord::SEQ_CST);
            if idx >= BUFFER_SIZE {
                // Node drained: advance head, retiring the old node.
                // ORDERING(fa.empty-check): SEQ_CST — doubles as link read
                // and empty-check input (the None below is an emptiness
                // answer).
                let lnext = head_ref.next.load(ord::SEQ_CST);
                if lnext.is_null() {
                    self.hp.clear(tid);
                    self.telemetry.bump(tid, CounterId::DeqEmpty);
                    self.telemetry
                        .record_latency(tid, OpKey::DeqSlow, timer.nanos());
                    return None;
                }
                // ORDERING(fa.head-advance): SEQ_CST / RELAXED — head
                // advance; stays in the order try_protect validations read
                // (retire safety). Failure value unused.
                if self
                    .head
                    .compare_exchange(lhead, lnext, ord::SEQ_CST, ord::RELAXED)
                    .is_ok()
                {
                    self.hp.clear(tid);
                    // SAFETY(retire-unique): unreachable (head moved past it); the CAS
                    // winner is the unique retirer. Every cell is null,
                    // taken, or an item that a straggling enqueuer lost —
                    // FaaNode::drop frees the latter.
                    unsafe { self.hp.retire(tid, lhead) };
                }
                continue;
            }
            // ORDERING(fa.cell-take): ACQUIRE — consume-or-poison swap:
            // acquire pairs with the enqueuer's release CAS so the boxed
            // payload is visible before we deref it. The poison marker
            // itself carries no payload, so the store half needs no
            // release. pairs=fa.cell-publish
            let it = head_ref.items[idx].swap(taken::<T>(), ord::ACQUIRE);
            if it.is_null() {
                // We beat the enqueuer to this ticket; its cell is burnt
                // ("will never contain an item", §1). Retry.
                continue;
            }
            self.hp.clear(tid);
            self.telemetry.bump(tid, CounterId::DeqOps);
            self.telemetry
                .record_latency(tid, OpKey::DeqSlow, timer.nanos());
            // SAFETY(claim-owner): unique swap winner (our FAA ticket) for
            // a real item pointer.
            return Some(*unsafe { Box::from_raw(it) });
        }
    }
}

impl<T> Drop for FaaArrayQueue<T> {
    fn drop(&mut self) {
        // ORDERING(fa.drop-walk): RELAXED (both Drop loads) — `&mut self`
        // in Drop: no concurrency.
        let mut node = self.head.load(ord::RELAXED);
        while !node.is_null() {
            // SAFETY(drop-exclusive): exclusive access; FaaNode::drop
            // frees residual items.
            let next = unsafe { &*node }.next.load(ord::RELAXED);
            unsafe { drop(Box::from_raw(node)) };
            node = next;
        }
    }
}

impl<T: Send> ConcurrentQueue<T> for FaaArrayQueue<T> {
    fn enqueue(&self, item: T) {
        FaaArrayQueue::enqueue(self, item);
    }

    fn dequeue(&self) -> Option<T> {
        FaaArrayQueue::dequeue(self)
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }
}

impl<T> QueueIntrospect for FaaArrayQueue<T> {
    fn props() -> QueueProps {
        QueueProps {
            name: "FAA-array",
            progress_enqueue: Progress::LockFree,
            progress_dequeue: Progress::LockFree,
            consensus: "FAA tickets",
            atomic_instructions: "FAA + CAS + XCHG",
            reclamation: "HP (R = H + 1)",
            min_memory: "O(BUFFER_SIZE)",
        }
    }

    fn size_report() -> SizeReport {
        SizeReport {
            node_bytes: std::mem::size_of::<FaaNode<u64>>()
                + BUFFER_SIZE * std::mem::size_of::<*mut u8>(),
            enqueue_request_bytes: 0,
            dequeue_request_bytes: 0,
            fixed_per_thread_bytes: 0,
            // One box per item; the node is amortized over BUFFER_SIZE.
            min_heap_allocs_per_item: 1,
            steady_state_allocs_per_item: 1, // no recycling layer
        }
    }

    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        Some(FaaArrayQueue::telemetry_snapshot(self))
    }
}

/// [`QueueFamily`] selector for the FAA-array queue.
pub struct FaaFamily;

impl QueueFamily for FaaFamily {
    type Queue<T: Send + 'static> = FaaArrayQueue<T>;
    const NAME: &'static str = "faa";

    fn with_max_threads<T: Send + 'static>(max_threads: usize) -> FaaArrayQueue<T> {
        FaaArrayQueue::with_max_threads(max_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread() {
        let q: FaaArrayQueue<u32> = FaaArrayQueue::with_max_threads(2);
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
    fn crosses_node_boundaries() {
        let q: FaaArrayQueue<usize> = FaaArrayQueue::with_max_threads(2);
        let n = BUFFER_SIZE * 3 + 17;
        for i in 0..n {
            q.enqueue(i);
        }
        for i in 0..n {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn empty_dequeues_interleaved() {
        let q: FaaArrayQueue<u32> = FaaArrayQueue::with_max_threads(2);
        // Burn some tickets on the empty queue, then verify enqueues still
        // get through (the design wastes cells, not items).
        for _ in 0..10 {
            assert_eq!(q.dequeue(), None);
        }
        q.enqueue(1);
        assert_eq!(q.dequeue(), Some(1));
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
            let q: FaaArrayQueue<D> = FaaArrayQueue::with_max_threads(2);
            for _ in 0..10 {
                q.enqueue(D(Arc::clone(&drops)));
            }
            for _ in 0..4 {
                q.dequeue();
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn mpmc_no_loss_no_dup() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 3;
        const PER: u64 = 4_000;
        let q: Arc<FaaArrayQueue<u64>> =
            Arc::new(FaaArrayQueue::with_max_threads(PRODUCERS + CONSUMERS));
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
