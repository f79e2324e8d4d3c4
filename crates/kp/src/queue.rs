//! The Kogan–Petrank queue with hazard-pointer and conditional-hazard-
//! pointer reclamation. See the crate docs for the reclamation design.

use std::ptr;
use turnq_sync::atomic::{AtomicI32, AtomicPtr};
use turnq_sync::ord;

use crossbeam_utils::CachePadded;
use turnq_api::{ConcurrentQueue, Progress, QueueFamily, QueueIntrospect, QueueProps, SizeReport};
use std::sync::Arc;
use turnq_hazard::{ConditionalHazardPointers, ConditionalReclaim, HazardPointers};
use turnq_telemetry::{
    CounterId, OpKey, OpTimer, TelemetryHandle, TelemetrySheet, TelemetrySnapshot,
};
use turnq_threadreg::ThreadRegistry;

const IDX_NONE: i32 = -1;

// Node-domain (CHP) hazard slots.
const N_HP_HEAD: usize = 0;
const N_HP_TAIL: usize = 1;
const N_HP_NEXT: usize = 2;
const NODE_HPS: usize = 3;

// Descriptor-domain (HP) hazard slots.
const D_HP_CUR: usize = 0;
const DESC_HPS: usize = 1;

/// A KP list node. `value` is an atomic pointer (not an inline value)
/// because nulling it is the Conditional-HP reclamation condition, set by
/// the one thread that consumes the value (paper §3.2).
struct KpNode<T> {
    value: AtomicPtr<T>,
    next: AtomicPtr<KpNode<T>>,
    enq_tid: i32,
    deq_tid: AtomicI32,
}

impl<T> KpNode<T> {
    fn alloc(value: *mut T, enq_tid: i32) -> *mut KpNode<T> {
        Box::into_raw(Box::new(KpNode {
            value: AtomicPtr::new(value),
            next: AtomicPtr::new(ptr::null_mut()),
            enq_tid,
            deq_tid: AtomicI32::new(IDX_NONE),
        }))
    }
}

impl<T> ConditionalReclaim for KpNode<T> {
    fn can_reclaim(&self) -> bool {
        // Safe to delete once the value has been taken (or never existed,
        // as for the sentinel). Until then the consuming thread may still
        // reach this node through its descriptor, GC-style (§3.2).
        // ORDERING(kp.value-null-read): ACQUIRE — pairs with the
        // consumer's release null-store: observing null orders every access
        // the consumer made to this node before the reclaim that a true
        // condition licenses. pairs=kp.value-consume
        self.value.load(ord::ACQUIRE).is_null()
    }
}

impl<T> Drop for KpNode<T> {
    fn drop(&mut self) {
        // ORDERING(kp.drop-walk): RELAXED — `&mut self` in Drop: no
        // concurrency.
        let v = self.value.load(ord::RELAXED);
        if !v.is_null() {
            // The value was enqueued but never consumed (queue teardown).
            // SAFETY(drop-exclusive): value pointers are unique
            // Box::into_raw allocations owned by the node until consumed;
            // `&mut self` in Drop makes this the only access.
            unsafe { drop(Box::from_raw(v)) };
        }
    }
}

/// An immutable operation descriptor (the KP paper's `OpDesc`). Every state
/// transition allocates a fresh one — the allocation churn the Turn-queue
/// paper's Table 4 charges KP for.
struct OpDesc<T> {
    phase: i64,
    pending: bool,
    enqueue: bool,
    node: *mut KpNode<T>,
}

impl<T> OpDesc<T> {
    fn alloc(phase: i64, pending: bool, enqueue: bool, node: *mut KpNode<T>) -> *mut OpDesc<T> {
        Box::into_raw(Box::new(OpDesc {
            phase,
            pending,
            enqueue,
            node,
        }))
    }
}

/// The Kogan–Petrank wait-free MPMC queue with embedded wait-free memory
/// reclamation (HP for descriptors and traversal, CHP for nodes).
pub struct KPQueue<T> {
    max_threads: usize,
    head: CachePadded<AtomicPtr<KpNode<T>>>,
    tail: CachePadded<AtomicPtr<KpNode<T>>>,
    /// `state[i]` — thread `i`'s current operation descriptor.
    state: Box<[CachePadded<AtomicPtr<OpDesc<T>>>]>,
    node_hp: ConditionalHazardPointers<KpNode<T>>,
    desc_hp: HazardPointers<OpDesc<T>>,
    registry: ThreadRegistry,
    /// Observer-only probes (see `turnq-telemetry`): op counters plus the
    /// HP/CHP traffic recorded by the two hazard domains. KP has no
    /// helping-depth notion (phases replace per-slot turns), so its depth
    /// histogram stays empty.
    telemetry: Arc<TelemetrySheet>,
}

// SAFETY(send-sync): atomics plus HP/CHP-managed raw pointers; items are
// moved across threads (`T: Send`).
unsafe impl<T: Send> Send for KPQueue<T> {}
unsafe impl<T: Send> Sync for KPQueue<T> {}

impl<T> KPQueue<T> {
    /// A queue usable by up to `max_threads` threads.
    pub fn with_max_threads(max_threads: usize) -> Self {
        assert!(max_threads >= 1);
        assert!(max_threads <= i32::MAX as usize);
        let sentinel = KpNode::<T>::alloc(ptr::null_mut(), IDX_NONE);
        let state = (0..max_threads)
            .map(|_| {
                // Initial descriptor: phase -1, nothing pending.
                CachePadded::new(AtomicPtr::new(OpDesc::<T>::alloc(
                    -1,
                    false,
                    true,
                    ptr::null_mut(),
                )))
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let telemetry = Arc::new(TelemetrySheet::new(max_threads));
        let mut node_hp = ConditionalHazardPointers::new(max_threads, NODE_HPS);
        node_hp.attach_telemetry(TelemetryHandle::connected(&telemetry));
        let mut desc_hp = HazardPointers::new(max_threads, DESC_HPS);
        desc_hp.attach_telemetry(TelemetryHandle::connected(&telemetry));
        KPQueue {
            max_threads,
            head: CachePadded::new(AtomicPtr::new(sentinel)),
            tail: CachePadded::new(AtomicPtr::new(sentinel)),
            state,
            node_hp,
            desc_hp,
            registry: ThreadRegistry::new(max_threads),
            telemetry,
        }
    }

    /// Aggregate this queue's telemetry: op counters, HP/CHP traffic from
    /// both hazard domains, retirement-backlog gauges, and registry churn.
    /// All-zero when the `telemetry` feature is off.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        // Keep the `probe`-off ⇒ all-zero contract (the registry tallies
        // below are recorded unconditionally).
        if turnq_telemetry::ENABLED {
            snap.set_gauge("hp_retired_backlog", self.desc_hp.retired_backlog() as u64);
            snap.set_gauge("chp_retired_backlog", self.node_hp.retired_backlog() as u64);
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

    /// Wait-free-bounded enqueue.
    pub fn enqueue(&self, item: T) {
        let tid = self.registry.current_index();
        self.enqueue_with(tid, item);
    }

    /// Wait-free-bounded dequeue.
    pub fn dequeue(&self) -> Option<T> {
        let tid = self.registry.current_index();
        self.dequeue_with(tid)
    }

    pub(crate) fn enqueue_with(&self, tid: usize, item: T) {
        // Every KP op runs the full helping protocol — a single path, so
        // all latency lands under the slow-path key.
        let timer = OpTimer::start();
        let value = Box::into_raw(Box::new(item));
        let phase = self.max_phase(tid) + 1;
        let node = KpNode::alloc(value, tid as i32);
        let desc = OpDesc::alloc(phase, true, true, node);
        self.install_descriptor(tid, desc);
        self.help(tid, phase);
        self.help_finish_enq(tid);
        self.clear_all(tid);
        self.telemetry.bump(tid, CounterId::EnqOps);
        self.telemetry
            .record_latency(tid, OpKey::EnqSlow, timer.nanos());
    }

    pub(crate) fn dequeue_with(&self, tid: usize) -> Option<T> {
        let timer = OpTimer::start();
        let phase = self.max_phase(tid) + 1;
        let desc = OpDesc::alloc(phase, true, false, ptr::null_mut());
        self.install_descriptor(tid, desc);
        self.help(tid, phase);
        self.help_finish_deq(tid);

        // Read back our final descriptor to learn the outcome. Our own
        // completed descriptor can only be displaced by ourselves, so the
        // raw load is stable — but protect anyway for uniformity.
        let my_desc = self.protect_desc(tid, tid);
        // SAFETY(hp-validate): protected; `my_desc` is our own completed
        // descriptor.
        let node = unsafe { &*my_desc }.node;
        if node.is_null() {
            self.clear_all(tid);
            self.telemetry.bump(tid, CounterId::DeqEmpty);
            self.telemetry
                .record_latency(tid, OpKey::DeqSlow, timer.nanos());
            return None; // empty queue
        }
        // Our request was assigned `node` (the head at linearization); the
        // value we return lives in `node.next`. `node` is kept alive
        // because *we* are its retirer (below); `next_node` is kept alive
        // by its non-null value slot (the CHP condition).
        // SAFETY(retire-unique): owner-retires discipline, see crate
        // docs — we are this node's unique retirer and have not retired it
        // yet, so the CHP domain keeps it allocated.
        // ORDERING(kp.link-read): ACQUIRE — reads the link published by
        // the linking CAS's release half; makes next_node's contents
        // (incl. the boxed value pointer) visible before we dereference
        // them. pairs=kp.link-cas
        let next_node = unsafe { &*node }.next.load(ord::ACQUIRE);
        debug_assert!(!next_node.is_null());
        // SAFETY(cond-alive): CHP keeps next_node allocated while value
        // is non-null; we are the unique consumer of this value
        // (node.deqTid == tid).
        let next_ref = unsafe { &*next_node };
        // ORDERING(kp.value-read): ACQUIRE — the boxed payload behind
        // this pointer is dereferenced below; acquire (with the link
        // acquire above) keeps the enqueuer's allocation visible. We are
        // the unique consumer, so no later write to the slot exists yet.
        // pairs=kp.link-cas
        let value = next_ref.value.load(ord::ACQUIRE);
        debug_assert!(!value.is_null(), "value consumed twice");
        // Null the slot: this *is* the CHP reclamation condition for
        // next_node — after this store no thread dereferences it again
        // through a descriptor.
        // ORDERING(kp.value-consume): RELEASE — the CHP reclamation
        // condition: orders our final accesses to next_node before the
        // null that lets a scanning thread (acquire condition read behind
        // its SC fence) free it. pairs=kp.value-null-read
        next_ref.value.store(ptr::null_mut(), ord::RELEASE);
        self.clear_all(tid);
        // Retire the old head we were assigned. It is unreachable from the
        // list (head advanced past it in help_finish_deq before our
        // operation completed) and we are its unique retirer.
        // SAFETY(retire-unique): see above; CHP defers the free until
        // its value slot is nulled by the thread consuming *its* value.
        unsafe { self.node_hp.retire(tid, node) };
        self.telemetry.bump(tid, CounterId::DeqOps);
        self.telemetry
            .record_latency(tid, OpKey::DeqSlow, timer.nanos());
        // SAFETY(tid-exclusive): unique Box::into_raw value pointer; the
        // node's dequeue was assigned to our registered tid, making us its
        // unique consumer.
        Some(*unsafe { Box::from_raw(value) })
    }

    /// CAS a fresh descriptor into our own slot, retiring the displaced
    /// one. A CAS loop (not a plain store) so we always learn exactly which
    /// descriptor we displaced — required for exactly-once retirement.
    fn install_descriptor(&self, tid: usize, desc: *mut OpDesc<T>) {
        loop {
            let cur = self.protect_desc(tid, tid);
            // ORDERING(kp.announce-cas): SEQ_CST / RELAXED — phase announcement, the Dekker
            // half paired with every helper's SC descriptor scans: the new
            // descriptor must be in the total order before our own
            // `max_phase`/`help` scans so concurrent announcers cannot
            // mutually miss each other (KP's wait-freedom argument). The
            // failure value is discarded; the loop re-protects.
            if self.state[tid]
                .compare_exchange(cur, desc, ord::SEQ_CST, ord::RELAXED)
                .is_ok()
            {
                self.desc_hp.clear_one(tid, D_HP_CUR);
                // SAFETY(retire-unique): `cur` is now unlinked; the CAS
                // winner is the unique retirer of the displaced
                // descriptor.
                unsafe { self.desc_hp.retire(tid, cur) };
                return;
            }
        }
    }

    /// Protect-and-validate `state[owner]` into our descriptor hazard slot.
    fn protect_desc(&self, tid: usize, owner: usize) -> *mut OpDesc<T> {
        loop {
            if let Ok(p) = self.desc_hp.try_protect(tid, D_HP_CUR, &self.state[owner]) {
                return p;
            }
        }
    }

    /// The KP paper's `maxPhase()`: the highest phase announced by any
    /// thread. Each descriptor is dereferenced under HP.
    fn max_phase(&self, tid: usize) -> i64 {
        let mut max = -1;
        for i in 0..self.max_threads {
            let desc = self.protect_desc(tid, i);
            // SAFETY(hp-validate): protected + validated.
            let phase = unsafe { &*desc }.phase;
            max = max.max(phase);
        }
        self.desc_hp.clear_one(tid, D_HP_CUR);
        max
    }

    /// `isStillPending(tid, phase)` from the KP paper.
    fn is_still_pending(&self, tid: usize, owner: usize, phase: i64) -> bool {
        let desc = self.protect_desc(tid, owner);
        // SAFETY(hp-validate): protected + validated.
        let d = unsafe { &*desc };
        d.pending && d.phase <= phase
    }

    /// `help(phase)`: help every operation with a phase at or below ours.
    fn help(&self, tid: usize, phase: i64) {
        for i in 0..self.max_threads {
            let desc = self.protect_desc(tid, i);
            // SAFETY(hp-validate): protected + validated.
            let d = unsafe { &*desc };
            let (pending, d_phase, enqueue) = (d.pending, d.phase, d.enqueue);
            if pending && d_phase <= phase {
                if enqueue {
                    self.help_enq(tid, i, phase);
                } else {
                    self.help_deq(tid, i, phase);
                }
            }
        }
    }

    /// `help_enq`: drive thread `owner`'s enqueue to completion.
    fn help_enq(&self, tid: usize, owner: usize, phase: i64) {
        while self.is_still_pending(tid, owner, phase) {
            let last = match self.node_hp.try_protect(tid, N_HP_TAIL, &self.tail) {
                Ok(p) => p,
                Err(_) => continue,
            };
            // SAFETY(hp-validate): protected + validated.
            // ORDERING(kp.link-read): ACQUIRE — link read; pairs with the
            // linking CAS's release half so the appended node's fields are
            // visible. pairs=kp.link-cas
            let next = unsafe { &*last }.next.load(ord::ACQUIRE);
            // ORDERING(kp.tail-read): SEQ_CST — protect/validate
            // handshake re-load (Alg. 5 pattern): ordered after the SC
            // hazard publication. pairs=kp.tail-advance
            if last != self.tail.load(ord::SEQ_CST) {
                continue;
            }
            if next.is_null() {
                if self.is_still_pending(tid, owner, phase) {
                    let desc = self.protect_desc(tid, owner);
                    // SAFETY(hp-validate): protected + validated.
                    let d = unsafe { &*desc };
                    // The descriptor may have transitioned to a different
                    // operation; only append for a pending enqueue.
                    if !(d.pending && d.enqueue && d.phase <= phase) {
                        continue;
                    }
                    let node = d.node;
                    // ORDERING(kp.link-cas): SEQ_CST / RELAXED — the linking CAS: the
                    // enqueue's visibility point. Success releases the
                    // node's plainly-written fields to every acquire link
                    // read and keeps the append in the protocol's total
                    // order; a failure value is discarded (retry observes
                    // state afresh). pairs=kp.link-read,kp.value-read
                    if unsafe { &*last }
                        .next
                        .compare_exchange(ptr::null_mut(), node, ord::SEQ_CST, ord::RELAXED)
                        .is_ok()
                    {
                        self.help_finish_enq(tid);
                        return;
                    }
                }
            } else {
                self.help_finish_enq(tid);
            }
        }
    }

    /// `help_finish_enq`: complete the enqueue whose node is linked after
    /// the tail — mark its descriptor done and swing the tail.
    fn help_finish_enq(&self, tid: usize) {
        let last = match self.node_hp.try_protect(tid, N_HP_TAIL, &self.tail) {
            Ok(p) => p,
            Err(_) => return, // tail moved: someone else finished it
        };
        // SAFETY(hp-validate): protected + validated.
        // ORDERING(kp.link-read): ACQUIRE — candidate link read for
        // protection; the SC tail re-load below is what validates it.
        // pairs=kp.link-cas
        let next = self
            .node_hp
            .protect_ptr(tid, N_HP_NEXT, unsafe { &*last }.next.load(ord::ACQUIRE));
        // Re-validate the tail: while `last == tail`, `next` cannot have
        // been retired (nodes are only retired once head passed them, and
        // head never passes the tail). This is the validation whose absence
        // is the YMC use-after-free the paper reports (§4).
        // ORDERING(kp.tail-read): SEQ_CST — the validating re-load after
        // the SC hazard publication (the check whose absence is YMC's
        // use-after-free). pairs=kp.tail-advance
        if last != self.tail.load(ord::SEQ_CST) {
            return;
        }
        if next.is_null() {
            return;
        }
        // SAFETY(hp-validate): next is protected and proven live by the
        // tail check.
        let owner = unsafe { &*next }.enq_tid;
        if owner == IDX_NONE {
            // The sentinel cannot be mid-enqueue; nothing to finish.
            // ORDERING(kp.tail-advance): SEQ_CST / RELAXED — tail
            // advance; must stay in the total order every try_protect
            // validation reads. Failure value unused. pairs=kp.tail-read
            let _ = self
                .tail
                .compare_exchange(last, next, ord::SEQ_CST, ord::RELAXED);
            return;
        }
        let owner = owner as usize;
        let cur_desc = self.protect_desc(tid, owner);
        // SAFETY(hp-validate): protected + validated.
        let d = unsafe { &*cur_desc };
        // ORDERING(kp.tail-read): SEQ_CST — re-validation that `next` is
        // still the node being appended at the current tail.
        // pairs=kp.tail-advance
        if last == self.tail.load(ord::SEQ_CST) && d.node == next {
            if d.pending {
                let new_desc = OpDesc::alloc(d.phase, false, true, next);
                // ORDERING(kp.desc-transition): SEQ_CST / RELAXED —
                // descriptor transition (pending→done): releases
                // new_desc's plain fields and stays in the announcement
                // total order (see install_descriptor). Failure value
                // unused (loser frees).
                if self.state[owner]
                    .compare_exchange(cur_desc, new_desc, ord::SEQ_CST, ord::RELAXED)
                    .is_ok()
                {
                    self.desc_hp.clear_one(tid, D_HP_CUR);
                    // SAFETY(retire-unique): unlinked by our CAS; unique retirer.
                    unsafe { self.desc_hp.retire(tid, cur_desc) };
                } else {
                    // SAFETY(node-unpublished): new_desc never escaped.
                    unsafe { drop(Box::from_raw(new_desc)) };
                }
            }
            // ORDERING(kp.tail-advance): SEQ_CST / RELAXED — tail
            // advance (see above). pairs=kp.tail-read
            let _ = self
                .tail
                .compare_exchange(last, next, ord::SEQ_CST, ord::RELAXED);
        }
    }

    /// `help_deq`: drive thread `owner`'s dequeue to completion.
    fn help_deq(&self, tid: usize, owner: usize, phase: i64) {
        while self.is_still_pending(tid, owner, phase) {
            let first = match self.node_hp.try_protect(tid, N_HP_HEAD, &self.head) {
                Ok(p) => p,
                Err(_) => continue,
            };
            // ORDERING(kp.tail-read): SEQ_CST — emptiness test input
            // (`first == last` below): must be ordered against concurrent
            // tail advances the same way the Turn queue's Inv. 11 check
            // is. pairs=kp.tail-advance
            let last = self.tail.load(ord::SEQ_CST);
            // SAFETY(hp-validate): first protected + validated.
            // ORDERING(kp.link-read): ACQUIRE — link read.
            // pairs=kp.link-cas
            let next = unsafe { &*first }.next.load(ord::ACQUIRE);
            // ORDERING(kp.head-read): SEQ_CST — protect/validate
            // handshake re-load. pairs=kp.head-advance
            if first != self.head.load(ord::SEQ_CST) {
                continue;
            }
            if first == last {
                if next.is_null() {
                    // Queue empty: complete the dequeue with no node.
                    let cur_desc = self.protect_desc(tid, owner);
                    // SAFETY(hp-validate): protected + validated.
                    let d = unsafe { &*cur_desc };
                    // ORDERING(kp.tail-read): SEQ_CST — empty-path
                    // re-validation: the None answer linearizes against
                    // this tail read. pairs=kp.tail-advance
                    if last != self.tail.load(ord::SEQ_CST) {
                        continue;
                    }
                    if d.pending && !d.enqueue && d.phase <= phase {
                        let new_desc = OpDesc::alloc(d.phase, false, false, ptr::null_mut());
                        // ORDERING(kp.desc-transition): SEQ_CST /
                        // RELAXED — descriptor transition (see
                        // help_finish_enq).
                        if self.state[owner]
                            .compare_exchange(cur_desc, new_desc, ord::SEQ_CST, ord::RELAXED)
                            .is_ok()
                        {
                            self.desc_hp.clear_one(tid, D_HP_CUR);
                            // SAFETY(retire-unique): unlinked by our CAS; unique retirer.
                            unsafe { self.desc_hp.retire(tid, cur_desc) };
                        } else {
                            // SAFETY(node-unpublished): never escaped.
                            unsafe { drop(Box::from_raw(new_desc)) };
                        }
                    }
                } else {
                    // Tail is lagging: finish that enqueue first.
                    self.help_finish_enq(tid);
                }
            } else {
                let cur_desc = self.protect_desc(tid, owner);
                // SAFETY(hp-validate): protected + validated.
                let d = unsafe { &*cur_desc };
                let node = d.node;
                if !(d.pending && !d.enqueue && d.phase <= phase) {
                    break; // no longer pending
                }
                // ORDERING(kp.head-read): SEQ_CST — candidate-head
                // re-validation before recording it in the owner's
                // descriptor. pairs=kp.head-advance
                if first == self.head.load(ord::SEQ_CST) && node != first {
                    // Record the candidate head in the descriptor first
                    // (pointer write only — `node` is never dereferenced
                    // through a descriptor by helpers).
                    let new_desc = OpDesc::alloc(d.phase, true, false, first);
                    // ORDERING(kp.desc-transition): SEQ_CST / RELAXED —
                    // descriptor transition (see help_finish_enq).
                    if self.state[owner]
                        .compare_exchange(cur_desc, new_desc, ord::SEQ_CST, ord::RELAXED)
                        .is_ok()
                    {
                        self.desc_hp.clear_one(tid, D_HP_CUR);
                        // SAFETY(retire-unique): unlinked by our CAS; unique retirer.
                        unsafe { self.desc_hp.retire(tid, cur_desc) };
                    } else {
                        // SAFETY(node-unpublished): never escaped.
                        unsafe { drop(Box::from_raw(new_desc)) };
                        continue;
                    }
                }
                // SAFETY(hp-validate): first still protected from above.
                // ORDERING(kp.deqtid-cas): ACQ_REL / RELAXED — write-once
                // assignment: the per-location CAS order alone picks the
                // winner; release pairs with help_finish_deq's acquire
                // deq_tid read, and the discarded failure value needs no
                // edge (the follow-up help_finish_deq re-reads it).
                // pairs=kp.deqtid-read
                let _ = unsafe { &*first }.deq_tid.compare_exchange(
                    IDX_NONE,
                    owner as i32,
                    ord::ACQ_REL,
                    ord::RELAXED,
                );
                self.help_finish_deq(tid);
            }
        }
    }

    /// `help_finish_deq`: complete the dequeue claimed in `head.deqTid` —
    /// mark its descriptor done and advance the head.
    fn help_finish_deq(&self, tid: usize) {
        let first = match self.node_hp.try_protect(tid, N_HP_HEAD, &self.head) {
            Ok(p) => p,
            Err(_) => return, // head moved: that dequeue is finished
        };
        // SAFETY(hp-validate): protected + validated.
        let first_ref = unsafe { &*first };
        // ORDERING(kp.link-read): ACQUIRE — link read. pairs=kp.link-cas
        let next = first_ref.next.load(ord::ACQUIRE);
        // ORDERING(kp.deqtid-read): ACQUIRE — pairs with the ACQ_REL
        // assignment CAS in help_deq: the recorded candidate in the
        // owner's descriptor is visible once we see the owner id.
        // pairs=kp.deqtid-cas
        let owner = first_ref.deq_tid.load(ord::ACQUIRE);
        if owner == IDX_NONE {
            return;
        }
        let owner = owner as usize;
        let cur_desc = self.protect_desc(tid, owner);
        // SAFETY(hp-validate): protected + validated.
        let d = unsafe { &*cur_desc };
        // ORDERING(kp.head-read): SEQ_CST — protect/validate handshake
        // re-load. pairs=kp.head-advance
        if first == self.head.load(ord::SEQ_CST) && !next.is_null() {
            if d.pending {
                let new_desc = OpDesc::alloc(d.phase, false, false, d.node);
                // ORDERING(kp.desc-transition): SEQ_CST / RELAXED —
                // descriptor transition (see help_finish_enq).
                if self.state[owner]
                    .compare_exchange(cur_desc, new_desc, ord::SEQ_CST, ord::RELAXED)
                    .is_ok()
                {
                    self.desc_hp.clear_one(tid, D_HP_CUR);
                    // SAFETY(retire-unique): unlinked by our CAS; unique retirer.
                    unsafe { self.desc_hp.retire(tid, cur_desc) };
                } else {
                    // SAFETY(node-unpublished): never escaped.
                    unsafe { drop(Box::from_raw(new_desc)) };
                }
            }
            // ORDERING(kp.head-advance): SEQ_CST / RELAXED — head
            // advance; stays in the total order the protect/validate
            // re-loads observe. Failure value unused. pairs=kp.head-read
            let _ = self
                .head
                .compare_exchange(first, next, ord::SEQ_CST, ord::RELAXED);
        }
    }

    fn clear_all(&self, tid: usize) {
        self.node_hp.clear(tid);
        self.desc_hp.clear(tid);
        // Conditions may have become true since our last retire; flush so
        // the backlog honours its bound even on one-sided workloads.
        // SAFETY(tid-exclusive): tid is ours.
        unsafe { self.node_hp.flush(tid) };
    }
}

impl<T> Drop for KPQueue<T> {
    fn drop(&mut self) {
        // Exclusive access. Free the list (KpNode::drop releases any
        // unconsumed boxed values) and the final descriptors; the HP/CHP
        // domains free their retired backlogs in their own Drops.
        // ORDERING(kp.drop-walk): RELAXED (all Drop loads) — `&mut
        // self`: no concurrency.
        let mut node = self.head.load(ord::RELAXED);
        while !node.is_null() {
            // SAFETY(drop-exclusive): `&mut self` in Drop — list nodes are
            // uniquely owned here.
            let next = unsafe { &*node }.next.load(ord::RELAXED);
            unsafe { drop(Box::from_raw(node)) };
            node = next;
        }
        for slot in self.state.iter() {
            let desc = slot.load(ord::RELAXED);
            if !desc.is_null() {
                // SAFETY(drop-exclusive): the resident descriptor was
                // never retired; the nodes it points to are owned by the
                // list (already freed) or the CHP backlog — OpDesc::drop
                // does not touch them.
                unsafe { drop(Box::from_raw(desc)) };
            }
        }
    }
}

impl<T: Send> ConcurrentQueue<T> for KPQueue<T> {
    fn enqueue(&self, item: T) {
        KPQueue::enqueue(self, item);
    }

    fn dequeue(&self) -> Option<T> {
        KPQueue::dequeue(self)
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }
}

impl<T> QueueIntrospect for KPQueue<T> {
    fn props() -> QueueProps {
        QueueProps {
            name: "KP",
            progress_enqueue: Progress::WaitFreeBounded,
            progress_dequeue: Progress::WaitFreeBounded,
            consensus: "Lamport's bakery (phases)",
            atomic_instructions: "CAS",
            reclamation: "HP + Conditional HP",
            min_memory: "O(N_threads)",
        }
    }

    fn size_report() -> SizeReport {
        SizeReport {
            node_bytes: std::mem::size_of::<KpNode<u64>>(),
            // Opening and closing each operation allocates OpDescs.
            enqueue_request_bytes: std::mem::size_of::<OpDesc<u64>>(),
            dequeue_request_bytes: std::mem::size_of::<OpDesc<u64>>(),
            fixed_per_thread_bytes: std::mem::size_of::<*mut u8>(), // state[i]
            // node + boxed value + ≥2 OpDescs per enqueue + ≥2 per dequeue
            // (the paper's "5+", plus one for boxing the value natively).
            min_heap_allocs_per_item: 6,
            steady_state_allocs_per_item: 6, // no recycling layer
        }
    }

    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        Some(KPQueue::telemetry_snapshot(self))
    }
}

/// [`QueueFamily`] selector for the KP queue.
pub struct KpFamily;

impl QueueFamily for KpFamily {
    type Queue<T: Send + 'static> = KPQueue<T>;
    const NAME: &'static str = "kp";

    fn with_max_threads<T: Send + 'static>(max_threads: usize) -> KPQueue<T> {
        KPQueue::with_max_threads(max_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread() {
        let q: KPQueue<u32> = KPQueue::with_max_threads(2);
        assert_eq!(q.dequeue(), None);
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn interleaved() {
        let q: KPQueue<u32> = KPQueue::with_max_threads(2);
        q.enqueue(1);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), None);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(2));
        q.enqueue(4);
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), Some(4));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn node_matches_table4_24_bytes() {
        assert_eq!(std::mem::size_of::<KpNode<u64>>(), 24);
        // OpDesc: phase(8) + node(8) + pending(1) + enqueue(1) + padding.
        assert_eq!(std::mem::size_of::<OpDesc<u64>>(), 24);
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
            let q: KPQueue<D> = KPQueue::with_max_threads(2);
            for _ in 0..10 {
                q.enqueue(D(Arc::clone(&drops)));
            }
            for _ in 0..4 {
                q.dequeue();
            }
            assert_eq!(drops.load(Ordering::SeqCst), 4);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn two_thread_producer_consumer() {
        const N: u64 = 5_000;
        let q: Arc<KPQueue<u64>> = Arc::new(KPQueue::with_max_threads(2));
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                qp.enqueue(i);
            }
        });
        let mut expected = 0;
        while expected < N {
            if let Some(v) = q.dequeue() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mpmc_no_loss_no_dup() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 3;
        const PER: u64 = 1_500;
        let q: Arc<KPQueue<u64>> = Arc::new(KPQueue::with_max_threads(PRODUCERS + CONSUMERS));
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

    #[test]
    fn reclamation_backlog_is_bounded_under_churn() {
        let q: KPQueue<u64> = KPQueue::with_max_threads(4);
        for round in 0..2_000u64 {
            q.enqueue(round);
            assert_eq!(q.dequeue(), Some(round));
            // Single-threaded churn: every node's value is consumed right
            // away, so the CHP backlog must stay small — within the
            // conditional-HP bound (the plain HP bound plus one
            // condition-deferred node per thread).
            assert!(
                q.node_hp.retired_count(0)
                    <= turnq_hazard::conditional_retired_bound(4, NODE_HPS),
                "CHP backlog grew unboundedly: {}",
                q.node_hp.retired_count(0)
            );
        }
    }
}
