//! Segment-node execution mode (DESIGN.md §6d): linked nodes carry K item
//! cells claimed by FAA, so CRTurn consensus, hazard-pointer publication,
//! and node-pool traffic are paid once per K items instead of once per item.
//!
//! The layering reuses the Turn queue wholesale: a [`SegTurnQueue`] is a
//! `TurnQueue<SegRing<T>>` whose *list protocol* (append consensus, fast
//! path, head advance, HP reclamation, pooling) is untouched — only the
//! *payload protocol* changes. Every list node carries a [`SegRing`]: a
//! `cells` array plus two FAA tickets counters. Producers claim a cell with
//! one `fetch_add` on the tail ring's `enq_idx`; consumers with one
//! `fetch_add` on the head ring's `deq_idx`. The consensus machinery runs
//! only at segment boundaries:
//!
//! * a producer whose ticket lands past the boundary appends a fresh ring
//!   (seeded with its item) through PR 5's fast path or the paper's
//!   Algorithm 2 slow path, after a bounded number of claim retries;
//! * a consumer whose ticket lands past the boundary swings `head` past the
//!   exhausted ring through [`TurnQueue::advance_head`] — the same CAS +
//!   retire discipline as the per-item fast path.
//!
//! **No seal/close bit is needed**: a consumer advances the head only after
//! drawing ticket `d >= K`, which proves all K cells are covered by unique
//! consumer tickets (the FAA hands each index out once); and a producer
//! stalled before its FAA on a passed ring can only draw a ticket `>= K`
//! (`enq_idx` is monotone), which diverts it to the append path.
//!
//! **HP caching**: cell-path operations leave the hazard slot published
//! when they return. The next operation compares a fresh `SeqCst` load of
//! the source (`tail`/`head`) against the still-published slot
//! ([`HazardPointers::protected`](turnq_hazard::HazardPointers::protected));
//! on a match the protect/validate handshake is skipped — continuous
//! coverage means the node was never reclaimed, so no ABA is possible and
//! the original validation verdict stands. Inside a segment this reduces
//! HP traffic to *zero* stores per operation (the protect store and clear
//! store both disappear); the slot is re-validated or reset only at
//! boundaries, which is what makes the "HP publication amortized over K"
//! claim literal. The price is bounded: at most one node per thread has
//! its reclamation deferred while a slot idles — the same bound as a
//! thread stalled mid-operation under classic HP.
//!
//! Progress (the honest version, argued in §6d): enqueue stays wait-free
//! bounded — at most [`SEG_CLAIM_TRIES`] FAA attempts, then the
//! `O(max_threads)` consensus append. Dequeue is interference-bounded: a
//! retry implies another consumer took an item, poisoned a cell, or
//! advanced the head, so it is lock-free in the strict sense and bounded by
//! `K + max_threads` steps between boundary crossings in any finite
//! execution. The paper-literal wait-free bound belongs to the per-item
//! [`TurnQueue`] ([`TurnQueueBuilder::build`]).

use std::marker::PhantomData;
use std::mem::MaybeUninit;

use crossbeam_utils::CachePadded;
use turnq_api::{
    ConcurrentQueue, PoolStats, Progress, QueueFamily, QueueIntrospect, QueueProps, SizeReport,
};
use turnq_sync::atomic::{AtomicU32, AtomicU64};
use turnq_sync::cell::UnsafeCell;
use turnq_sync::ord;
use turnq_telemetry::{CounterId, OpKey, OpTimer, TelemetrySheet, TelemetrySnapshot};
use turnq_threadreg::RegistryFull;

use crate::node::{encode_fast, Node, IDX_NONE};
use crate::queue::{
    TurnQueue, TurnQueueBuilder, DEFAULT_SEG_SIZE, HPS_PER_THREAD, HP_HEAD_TAIL,
};

/// Bounded FAA claim budget per enqueue before the consensus append
/// (mirrors `fast_tries`): each attempt is a constant number of steps, so
/// the budget preserves the wait-free bound while absorbing poison races
/// and tail movement. Small on purpose — past a couple of retries the
/// segment is contended enough that appending is the productive move.
const SEG_CLAIM_TRIES: u32 = 8;

/// The K-cell payload of one segment-mode list node.
///
/// `enq_idx`/`deq_idx` are monotone FAA ticket dispensers; `cells[i]` is
/// owned by the unique holder of enqueue ticket `i` (writer) and the unique
/// holder of dequeue ticket `i` (reader). The counters sit on their own
/// cache lines: producers hammer `enq_idx` while consumers hammer
/// `deq_idx`, and neither should invalidate the other's line.
/// `repr(C)` with `cells` first: the model checker's race detector tracks
/// one address per `UnsafeCell`, so the node payload `Option<SegRing<T>>`
/// is recorded at its base address — which (via the `Box` niche) must not
/// coincide with an atomically-accessed field, or every `ring_of` payload
/// read would alias the `enq_idx` FAAs. A `Box` pointer at offset 0 is
/// never touched atomically, keeping the detector's view exact.
#[repr(C)]
pub(crate) struct SegRing<T> {
    cells: Box<[SegCell<T>]>,
    enq_idx: CachePadded<AtomicU64>,
    deq_idx: CachePadded<AtomicU64>,
}

impl<T> SegRing<T> {
    /// An empty ring of `k` cells (the initial sentinel's payload).
    fn fresh(k: usize) -> Self {
        SegRing {
            cells: (0..k).map(|_| SegCell::new()).collect(),
            enq_idx: CachePadded::new(AtomicU64::new(0)),
            deq_idx: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// A ring carrying `item` in cell 0 with enqueue ticket 0 already
    /// consumed — the payload of a freshly appended segment. Plain
    /// (non-atomic) initialization: the ring is unreachable until the
    /// append's linking CAS (release) publishes it.
    fn seeded(k: usize, item: T) -> Self {
        let mut ring = Self::fresh(k);
        ring.reset_seeded(item);
        ring
    }

    /// Re-initialize an exclusively-owned ring to the exact state
    /// [`seeded`](Self::seeded) produces, reusing the cells allocation.
    /// `&mut self` proves exclusivity, so plain stores are race-free; the
    /// appending thread's linking CAS (release) publishes them. Only the
    /// state words are rewritten: a retired ring's cells are TAKEN or
    /// POISONED, and `clear` drops an item only from a FULL cell.
    fn reset_seeded(&mut self, item: T) {
        *self.enq_idx.get_mut() = 1;
        *self.deq_idx.get_mut() = 0;
        for cell in self.cells.iter_mut() {
            cell.clear();
        }
        self.cells[0].item.get_mut().write(item);
        *self.cells[0].state.get_mut() = CELL_FULL;
    }
}

/// Cell has never been written: the producer holding the matching enqueue
/// ticket may fill it; the consumer holding the matching dequeue ticket may
/// poison it instead.
const CELL_EMPTY: u32 = 0;
/// The producer's item is stored and published; only the consumer holding
/// the matching dequeue ticket may take it.
const CELL_FULL: u32 = 1;
/// The consumer arrived before the producer and burnt the cell; the
/// producer takes its item back and retries elsewhere. Terminal.
const CELL_POISONED: u32 = 2;
/// The consumer took the item. Terminal.
const CELL_TAKEN: u32 = 3;

/// One item slot of a segment ring: a state word plus the item payload.
///
/// The state machine is `EMPTY → FULL → TAKEN` (the rendezvous succeeded)
/// or `EMPTY → POISONED` (the consumer outran the producer). Exactly one
/// producer (the unique holder of enqueue ticket `i`) and exactly one
/// consumer (the unique holder of dequeue ticket `i`) ever touch cell `i` —
/// FAA tickets are handed out once — so `item` has one writer and one
/// reader, synchronized through `state`.
///
/// The state word already says whether the cell owns an item, so the
/// payload carries no tag of its own: `item` is initialised exactly while
/// `state` is FULL. A POISONED cell may still hold the bytes of an item the
/// producer took back, and a TAKEN one those of a delivered item; both are
/// moved-from and are never dropped. The fields are private to this module
/// because the drop relies on that pairing. With a `u64` item a cell is 16
/// bytes, four to a 64-byte line.
struct SegCell<T> {
    state: AtomicU32,
    item: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY(send-sync): the ticket discipline above gives `item` at most one writing
// thread (the producer with the cell's enqueue ticket) and one reading
// thread (the consumer with its dequeue ticket), ordered by the
// release/acquire edges on `state`. `T: Send` because items cross threads
// through the cell.
unsafe impl<T: Send> Sync for SegCell<T> {}

impl<T> SegCell<T> {
    fn new() -> Self {
        SegCell {
            state: AtomicU32::new(CELL_EMPTY),
            item: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// Return an exclusively owned cell to EMPTY, dropping its item if it
    /// still holds one (FULL). The state is reset before the drop, so an
    /// item whose `Drop` panics is never dropped a second time.
    fn clear(&mut self) {
        if std::mem::replace(self.state.get_mut(), CELL_EMPTY) == CELL_FULL {
            // SAFETY(drop-exclusive): `&mut self` — no other reference to
            // the cell exists; FULL means the item is initialised and was
            // neither taken nor handed back.
            unsafe { self.item.get_mut().assume_init_drop() };
        }
    }

    /// The producer half of the rendezvous: store `item` and publish FULL.
    /// Returns the item when the consumer poisoned the cell first.
    ///
    /// # Safety
    ///
    /// The caller holds this cell's enqueue ticket (won by the `enq_idx`
    /// FAA), and the ring stays alive for the call.
    unsafe fn publish(&self, item: T) -> Result<(), T> {
        // SAFETY(claim-owner): the enqueue ticket makes us the cell's
        // unique writer; the consumer side never reads `item` unless it
        // observes FULL, published by the CAS below.
        unsafe { (*self.item.get()).write(item) };
        // ORDERING(sg.cell-publish): RELEASE / ACQUIRE — the
        // rendezvous publish: release makes the item write above
        // visible to the consumer's acquire read of FULL; on failure
        // (consumer poisoned first) acquire orders our item take-back
        // after its CAS, though only our own write is read back.
        // pairs=sg.cell-read,sg.cell-poison
        match self
            .state
            .compare_exchange(CELL_EMPTY, CELL_FULL, ord::RELEASE, ord::ACQUIRE)
        {
            Ok(_) => Ok(()),
            Err(state) => {
                // Only the dequeue-ticket holder can move the cell out of
                // EMPTY besides us, and only to POISONED.
                debug_assert_eq!(state, CELL_POISONED);
                // SAFETY(claim-owner): a poisoned cell's consumer never
                // reads `item`, and POISONED cells are never dropped, so
                // the value written above is still ours to move out.
                Err(unsafe { (*self.item.get()).assume_init_read() })
            }
        }
    }
}

impl<T> Drop for SegCell<T> {
    fn drop(&mut self) {
        self.clear();
    }
}

/// The ring carried by a segment-mode list node.
///
/// # Safety
///
/// `node` must be alive and reachable by the caller — HP-protected and
/// validated, or exclusively owned. In segment mode every list node
/// carries `Some(ring)` from construction to drop (`take_item` is never
/// called on the inner queue), so the payload read cannot race a writer.
unsafe fn ring_of<'a, T>(node: *mut Node<SegRing<T>>) -> &'a SegRing<T> {
    // SAFETY(hp-inherited): liveness per the contract above; the payload is written only
    // before the node is published (seed/reset) and after it is reclaimed
    // (pool reuse), never while a hazard pointer covers it — which is the
    // declared-shared-read contract `shared_read_ptr` asserts to the model
    // checker (any unordered writer is still flagged as a race).
    unsafe { (*turnq_sync::cell::shared_read_ptr(&(*node).item)).as_ref() }
        .expect("seg-mode list node always carries a ring")
}

/// A Turn queue running in segment-node mode (DESIGN.md §6d): consensus,
/// HP publication, and pool traffic amortized over `seg_size`-item
/// segments, FAA cell claims inside each segment.
///
/// Built by [`TurnQueueBuilder::build_seg`]. The paper-literal per-item
/// queue, with its strict wait-free dequeue bound and 24-byte nodes, is
/// [`TurnQueue`] ([`TurnQueueBuilder::build`]).
///
/// ```
/// use turn_queue::{SegTurnQueue, TurnQueueBuilder};
///
/// let q: SegTurnQueue<u64> = TurnQueueBuilder::new().max_threads(4).seg_size(8).build_seg();
/// q.enqueue(1);
/// q.enqueue(2);
/// assert_eq!(q.dequeue(), Some(1));
/// assert_eq!(q.dequeue(), Some(2));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct SegTurnQueue<T> {
    /// The inner Turn queue over ring payloads: its list protocol runs
    /// only at segment boundaries.
    inner: TurnQueue<SegRing<T>>,
    seg_size: usize,
}

impl<T> SegTurnQueue<T> {
    /// Pop a recycled node (reusing its retained ring allocation when the
    /// geometry matches) or allocate a fresh one; either way the node
    /// carries a ring seeded with `item` and our thread id.
    fn alloc_seg_node(&self, myidx: usize, item: T) -> *mut Node<SegRing<T>> {
        // SAFETY(pool-owner): `myidx` is the caller's registered index
        // (the pool's exclusivity contract, same as
        // `TurnQueue::alloc_node`).
        match unsafe { self.inner.pool.acquire(myidx) } {
            Some(recycled) => {
                // SAFETY(pool-owner): the node came off our own free list
                // — no hazard pointer covers it, we own it exclusively.
                let node = unsafe { &mut *recycled };
                // The pool runs in retain mode (see `set_retain_payload`),
                // so the node usually still carries its previous ring:
                // reset it in place and save both heap allocations.
                let ring = match node.item.get_mut().take() {
                    Some(mut ring) if ring.cells.len() == self.seg_size => {
                        ring.reset_seeded(item);
                        ring
                    }
                    _ => SegRing::seeded(self.seg_size, item),
                };
                // SAFETY(node-unpublished): exclusive ownership as above;
                // the previous payload was just taken out.
                unsafe { Node::reset(recycled, Some(ring), myidx as u32) };
                recycled
            }
            None => Node::alloc(Some(SegRing::seeded(self.seg_size, item)), myidx as u32),
        }
    }

    /// Segment-mode enqueue: bounded FAA cell claims on the tail ring, then
    /// the consensus append. Wait-free bounded: at most [`SEG_CLAIM_TRIES`]
    /// constant-step attempts plus one `O(max_threads)` append.
    fn enqueue_with(&self, myidx: usize, item: T) {
        debug_assert!(myidx < self.inner.max_threads());
        let tel: &TelemetrySheet = &self.inner.telemetry;
        let timer = self.inner.op_timer();
        let k = self.seg_size as u64;
        // A poisoned cell hands the item back for the next attempt.
        let mut item = item;
        let mut tries = 0u32;
        while tries < SEG_CLAIM_TRIES {
            tries += 1;
            // ORDERING(q.tail-validate): SEQ_CST — the claim's source
            // read; on the cached path it is the only handshake load (see
            // below), and it orders the ticket FAA after this point in the
            // total order. pairs=q.tail-advance
            let ltail = self.inner.tail.load(ord::SEQ_CST);
            // HP caching (§6d): skip protect/validate when our slot —
            // continuously published since seg code last validated it —
            // already covers the current tail. Coverage means no retire
            // scan could reclaim the node in the interim, so the match
            // proves it is the same live node (no ABA) and the original
            // validation verdict still stands. Seg code resets the slot
            // after every inner consensus call (which may return with an
            // unvalidated pointer published), so a non-null slot value
            // always traces back to a validated, never-overwritten
            // protect.
            if ltail != self.inner.hp.protected(myidx, HP_HEAD_TAIL) {
                self.inner.hp.protect_ptr(myidx, HP_HEAD_TAIL, ltail);
                // ORDERING(q.tail-validate): SEQ_CST — protect/validate
                // handshake (Algorithm 5, same pattern as the per-item
                // fast path). pairs=q.tail-advance
                if ltail != self.inner.tail.load(ord::SEQ_CST) {
                    tel.bump(myidx, CounterId::SegEnqRetry);
                    continue;
                }
            }
            // SAFETY(hp-validate): ltail is protected and validated; HP
            // keeps it (and its ring) alive through the whole claim,
            // including the poisoned-cell item take-back below.
            let ring = unsafe { ring_of(ltail) };
            // ORDERING(sg.enq-ticket): SEQ_CST — the ticket dispenser.
            // The FAA must sit in the same total order as the consumers'
            // `enq_idx` loads in the empty check and their `deq_idx` FAAs,
            // so "ticket < K" and the emptiness verdicts agree across
            // threads (the faa_array baseline uses the same ordering for
            // the same reason).
            let e = ring.enq_idx.fetch_add(1, ord::SEQ_CST);
            if e >= k {
                // Exhausted ring. Ticket exactly K makes us the *designated
                // appender* — the first producer past the boundary, so
                // appending immediately is the productive move. Later
                // tickets retry: the tail has likely moved to a fresh ring.
                if e == k {
                    break;
                }
                tel.bump(myidx, CounterId::SegEnqRetry);
                continue;
            }
            // SAFETY(claim-owner): we hold enqueue ticket `e` (won by the
            // FAA above), and HP keeps the ring alive through the
            // publish, including a poisoned cell's item take-back.
            match unsafe { ring.cells[e as usize].publish(item) } {
                Ok(()) => {
                    // HP stays published (caching): the slot keeps
                    // covering ltail so the next op can skip the
                    // handshake. Cost: reclamation of at most one node
                    // per thread is deferred until the slot moves on —
                    // the same bound as a thread stalled mid-operation.
                    tel.bump(myidx, CounterId::SegEnqCellHit);
                    self.inner.record_enqueue(myidx, 0, &timer, OpKey::EnqSegCell);
                    return;
                }
                Err(back) => {
                    item = back;
                    tel.bump(myidx, CounterId::SegEnqRetry);
                }
            }
        }
        // Boundary: append a fresh ring seeded with the item through the
        // same consensus machinery as a per-item enqueue (fast path first,
        // then Algorithm 2). Those paths manage HP themselves and record
        // the completed enqueue.
        let node = self.alloc_seg_node(myidx, item);
        // The consensus paths record the latency under their own keys
        // (EnqFast / EnqSlow / EnqHelped) with the segment op's timer, so
        // an append's full cost — claim attempts included — is attributed
        // to the path that completed it.
        if !(self.inner.fast_tries() > 0 && self.inner.try_fast_enqueue(myidx, node, &timer)) {
            self.inner.slow_enqueue(myidx, node, &timer);
        }
        // Reset the HP cache: the consensus paths protect and clear on
        // their own schedule, so the next op must not treat the slot as a
        // validated cache. One release store per K items — amortized away.
        self.inner.hp.clear_one(myidx, HP_HEAD_TAIL);
        tel.bump(myidx, CounterId::SegEnqAppend);
    }

    /// Segment-mode dequeue: FAA ticket on the head ring, cell rendezvous,
    /// boundary advance past exhausted rings. Interference-bounded (§6d):
    /// every retry implies another thread's completed step.
    fn dequeue_with(&self, myidx: usize) -> Option<T> {
        debug_assert!(myidx < self.inner.max_threads());
        let tel: &TelemetrySheet = &self.inner.telemetry;
        let timer = self.inner.op_timer();
        let k = self.seg_size as u64;
        loop {
            // ORDERING(q.head-validate): SEQ_CST — source read; on the
            // cached path it is the only handshake load (HP caching,
            // argued at the enqueue counterpart). pairs=q.head-advance
            let lhead = self.inner.head.load(ord::SEQ_CST);
            if lhead != self.inner.hp.protected(myidx, HP_HEAD_TAIL) {
                self.inner.hp.protect_ptr(myidx, HP_HEAD_TAIL, lhead);
                // ORDERING(q.head-validate): SEQ_CST — protect/validate
                // handshake (Algorithm 5). pairs=q.head-advance
                if lhead != self.inner.head.load(ord::SEQ_CST) {
                    continue;
                }
            }
            // SAFETY(hp-validate): lhead is protected and validated (now
            // or on the cached-slot round that published it); HP keeps it
            // (and its ring) alive through the rendezvous below.
            let lhead_ref = unsafe { &*lhead };
            // SAFETY(hp-validate): same protection as above.
            let ring = unsafe { ring_of(lhead) };
            if turnq_sync::mutant("sg.drained-guard") {
                // Modelcheck mutant: drop the drained-segment guard (a
                // consumer advances `head` only once its own FAA ticket
                // proves all K cells covered) and advance as soon as a
                // successor exists, abandoning undelivered cells.
                // ORDERING(q.fast-empty-check): SEQ_CST — mirrors the
                // guarded advance below. pairs=q.link-cas
                let lnext = lhead_ref.next.load(ord::SEQ_CST);
                if !lnext.is_null() {
                    lhead_ref.cas_deq_tid(IDX_NONE, encode_fast(0));
                    self.inner.advance_head(lhead, lnext, myidx);
                    tel.bump(myidx, CounterId::SegDeqAdvance);
                    continue;
                }
            }
            // Linearizable empty check, the segment analogue of the
            // per-item `next == null` check (Inv. 11): every filled cell is
            // covered by a dequeue ticket AND no successor segment exists.
            // ORDERING(sg.empty-verdict): SEQ_CST — the verdict is
            // conclusive only if these loads sit in the single total order
            // with the producers' `enq_idx` FAA, rendezvous publish, and
            // append link; the faa_array baseline's triple check carries
            // the same argument.
            if ring.deq_idx.load(ord::SEQ_CST) >= ring.enq_idx.load(ord::SEQ_CST).min(k)
                // ORDERING(q.fast-empty-check): SEQ_CST — the successor
                // half of the verdict, against the append link.
                // pairs=q.link-cas
                && lhead_ref.next.load(ord::SEQ_CST).is_null()
            {
                // HP stays published (caching) — lhead is still the head,
                // so the slot is a valid cache for the next op.
                tel.bump(myidx, CounterId::DeqEmpty);
                self.inner.finish_op(myidx, &timer, OpKey::DeqSegCell);
                return None;
            }
            // ORDERING(sg.deq-ticket): SEQ_CST — ticket dispenser, same
            // total-order reasoning as the enqueue-side FAA.
            let d = ring.deq_idx.fetch_add(1, ord::SEQ_CST);
            if d >= k {
                // Boundary: all K cells are covered by unique consumer
                // tickets (the FAA hands each of 0..K out exactly once), so
                // the ring is fully claimed and the head may pass it.
                // ORDERING(q.fast-empty-check): SEQ_CST — conclusive
                // successor check, ordered after our FAA (StoreLoad) like
                // the empty check above. pairs=q.link-cas
                let lnext = lhead_ref.next.load(ord::SEQ_CST);
                if lnext.is_null() {
                    // HP stays published (caching), as in the verdict above.
                    tel.bump(myidx, CounterId::DeqEmpty);
                    self.inner.finish_op(myidx, &timer, OpKey::DeqSegCell);
                    return None;
                }
                // Mark the outgoing head as fast-claimed so the advance
                // winner retires it (`advance_head`'s fast-claim duty): in
                // segment mode no node ever enters a deqself/deqhelp
                // rotation, so the winner is the only safe retirer. Losing
                // this CAS is fine — some consumer won it, which is all
                // `advance_head` needs.
                lhead_ref.cas_deq_tid(IDX_NONE, encode_fast(0));
                self.inner.advance_head(lhead, lnext, myidx);
                tel.bump(myidx, CounterId::SegDeqAdvance);
                continue;
            }
            let cell = &ring.cells[d as usize];
            // ORDERING(sg.cell-read): ACQUIRE — rendezvous read: pairs
            // with the producer's release CAS to FULL, making its item
            // write visible before the take below. pairs=sg.cell-publish
            if cell.state.load(ord::ACQUIRE) == CELL_FULL {
                return Some(self.take_cell(myidx, cell, tel, &timer));
            }
            // ORDERING(sg.cell-poison): ACQ_REL / ACQUIRE — poison CAS.
            // Success: the producer must observe POISONED (its CAS to FULL
            // fails) and reclaim its item; release orders our ticket burn
            // before that. Failure: the cell went FULL (only the
            // enqueue-ticket holder can do that), and acquire pairs with
            // its release so the item is visible. pairs=sg.cell-publish
            match cell
                .state
                .compare_exchange(CELL_EMPTY, CELL_POISONED, ord::ACQ_REL, ord::ACQUIRE)
            {
                Ok(_) => {
                    // Burnt ticket: the producer retries elsewhere with its
                    // item; we draw the next ticket. Bounded interference —
                    // at most K poisons per ring, then the boundary.
                    tel.bump(myidx, CounterId::SegCellPoison);
                }
                Err(state) => {
                    debug_assert_eq!(state, CELL_FULL);
                    return Some(self.take_cell(myidx, cell, tel, &timer));
                }
            }
        }
    }

    /// Take the item out of a FULL cell we hold the dequeue ticket for.
    fn take_cell(&self, myidx: usize, cell: &SegCell<T>, tel: &TelemetrySheet, timer: &OpTimer) -> T {
        // SAFETY(ring-slot): we hold the cell's unique dequeue ticket
        // and observed FULL through an acquire edge: the producer's item
        // write is visible, it will never touch the cell again, and the
        // ring is still HP-protected (the slot stays published as a
        // cache). The TAKEN store below makes the moved-from bytes inert.
        let item = unsafe { (*cell.item.get()).assume_init_read() };
        // ORDERING(sg.cell-taken): RELAXED — terminal marker: no
        // concurrent protocol decision reads TAKEN. Only `SegCell::clear`
        // (ring reset or drop, both under exclusive ownership) reads it,
        // to skip the moved-from item; the hazard-pointer hand-over that
        // gives the reclaimer the ring orders this store before them.
        cell.state.store(CELL_TAKEN, ord::RELAXED);
        // HP stays published (caching) — see `enqueue_with`'s cell hit.
        tel.bump(myidx, CounterId::SegDeqCellHit);
        self.inner.record_dequeue(myidx, 0, timer, OpKey::DeqSegCell);
        item
    }

    /// Racy-in-result but memory-safe emptiness probe: the segment version
    /// of `TurnQueue::is_empty` must dereference the head ring, so unlike
    /// the per-item hint it takes full HP protection.
    fn is_empty_probe(&self, myidx: usize) -> bool {
        let k = self.seg_size as u64;
        loop {
            // ORDERING(q.head-validate): SEQ_CST — source read;
            // cached-path handshake as in `dequeue_with`.
            // pairs=q.head-advance
            let lhead = self.inner.head.load(ord::SEQ_CST);
            if lhead != self.inner.hp.protected(myidx, HP_HEAD_TAIL) {
                self.inner.hp.protect_ptr(myidx, HP_HEAD_TAIL, lhead);
                // ORDERING(q.head-validate): SEQ_CST — protect/validate
                // handshake. pairs=q.head-advance
                if lhead != self.inner.head.load(ord::SEQ_CST) {
                    continue;
                }
            }
            // SAFETY(hp-validate): lhead protected and validated
            // (possibly cached).
            let ring = unsafe { ring_of(lhead) };
            // ORDERING(sg.empty-verdict): SEQ_CST — same triple check as
            // `dequeue_with`'s empty verdict (it is that check, without
            // the FAA).
            let empty = ring.deq_idx.load(ord::SEQ_CST) >= ring.enq_idx.load(ord::SEQ_CST).min(k)
                // SAFETY(hp-validate): lhead protected and validated above.
                // ORDERING(q.fast-empty-check): SEQ_CST — successor half.
                // pairs=q.link-cas
                && unsafe { &*lhead }.next.load(ord::SEQ_CST).is_null();
            // HP stays published (caching).
            return empty;
        }
    }
}

impl<T: Send> SegTurnQueue<T> {
    pub(crate) fn from_builder(mut builder: TurnQueueBuilder) -> Self {
        let k = builder.seg_size.unwrap_or(DEFAULT_SEG_SIZE);
        // The setter validates; this re-checks the defaults path.
        debug_assert!(k >= 2 && k.is_power_of_two());
        // Retired segments keep their ring allocation through the pool so
        // a steady-state append reuses both the node and the cells array.
        builder.pool_retain_payload = true;
        // A pooled segment already carries a `k`-cell ring, so its lists
        // stay at the hazard backlog bound, not the per-item byte budget.
        builder.pool_capacity.get_or_insert(turnq_hazard::retired_bound(
            builder.max_threads,
            HPS_PER_THREAD,
        ));
        let mut inner: TurnQueue<SegRing<T>> = builder.build();
        // The boundary advance retires every head it passes, the sentinel
        // included, so `TurnQueue::drop` must not free it too.
        inner.sentinel = std::ptr::null_mut();
        // Seed the sentinel with an empty ring: in segment mode the head
        // node's payload is *live* (it is the active dequeue segment, not a
        // consumed dummy), so every list node must carry Some(ring).
        // ORDERING(q.ctor-init): RELAXED — single-threaded constructor;
        // whatever shares the queue afterwards (Arc, scoped spawn)
        // provides the release/acquire publication edge (same as the
        // builder's dummies).
        let sentinel = inner.head.load(ord::RELAXED);
        // SAFETY(node-unpublished): the constructor owns the queue
        // exclusively — no other thread can reach the sentinel yet.
        unsafe { *(*sentinel).item.get() = Some(SegRing::fresh(k)) };
        SegTurnQueue {
            inner,
            seg_size: k,
        }
    }

    /// The builder carrying every knob ([`TurnQueueBuilder`]); finish with
    /// [`build_seg`](TurnQueueBuilder::build_seg).
    pub fn builder() -> TurnQueueBuilder {
        TurnQueueBuilder::new()
    }

    /// Insert `item` at the tail. Wait-free bounded: at most
    /// `SEG_CLAIM_TRIES` FAA cell claims, then one `O(max_threads)`
    /// consensus append.
    #[inline]
    pub fn enqueue(&self, item: T) {
        let tid = self.inner.registry.current_index();
        self.enqueue_with(tid, item);
    }

    /// Remove and return the head item, or `None` if the queue is empty.
    #[inline]
    pub fn dequeue(&self) -> Option<T> {
        let tid = self.inner.registry.current_index();
        self.dequeue_with(tid)
    }

    /// A handle caching the calling thread's registry index (cannot be
    /// sent to another thread) — the segment counterpart of
    /// [`TurnQueue::handle`].
    #[inline]
    pub fn handle(&self) -> Result<SegHandle<'_, T>, RegistryFull> {
        let tid = self.inner.registry.try_current_index()?;
        Ok(SegHandle {
            queue: self,
            tid,
            _not_send: PhantomData,
        })
    }

    /// The `max_threads` bound this queue was built with.
    pub fn max_threads(&self) -> usize {
        self.inner.max_threads()
    }

    /// Items per segment.
    pub fn seg_size(&self) -> usize {
        self.seg_size
    }

    /// The fast-path retry budget of the underlying consensus appends.
    pub fn fast_tries(&self) -> u32 {
        self.inner.fast_tries()
    }

    /// Racy emptiness hint (memory-safe: the segmented probe holds HP
    /// while it dereferences the head ring).
    pub fn is_empty(&self) -> bool {
        let tid = self.inner.registry.current_index();
        self.is_empty_probe(tid)
    }

    /// Aggregated counters of the node-recycling pool (all threads).
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool_stats()
    }

    /// See [`TurnQueue::telemetry_snapshot`].
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.inner.telemetry_snapshot()
    }

    /// The raw telemetry sheet.
    pub fn telemetry(&self) -> &TelemetrySheet {
        self.inner.telemetry()
    }
}

/// A per-thread handle to a [`SegTurnQueue`] with the registry index
/// cached. Not `Send`: the cached index is only valid on its thread.
pub struct SegHandle<'a, T> {
    queue: &'a SegTurnQueue<T>,
    tid: usize,
    _not_send: PhantomData<*const ()>,
}

impl<T: Send> SegHandle<'_, T> {
    /// See [`SegTurnQueue::enqueue`].
    #[inline]
    pub fn enqueue(&self, item: T) {
        self.queue.enqueue_with(self.tid, item);
    }

    /// See [`SegTurnQueue::dequeue`].
    #[inline]
    pub fn dequeue(&self) -> Option<T> {
        self.queue.dequeue_with(self.tid)
    }

    /// The registry index this handle caches.
    pub fn tid(&self) -> usize {
        self.tid
    }
}

impl<T: Send> ConcurrentQueue<T> for SegTurnQueue<T> {
    #[inline]
    fn enqueue(&self, item: T) {
        SegTurnQueue::enqueue(self, item);
    }

    #[inline]
    fn dequeue(&self) -> Option<T> {
        SegTurnQueue::dequeue(self)
    }

    fn max_threads(&self) -> usize {
        SegTurnQueue::max_threads(self)
    }
}

impl<T: Send> QueueIntrospect for SegTurnQueue<T> {
    fn props() -> QueueProps {
        QueueProps {
            name: "Turn-seg",
            progress_enqueue: Progress::WaitFreeBounded,
            // Honest label (§6d): the dequeue retry loop is interference-
            // bounded — every retry implies another thread's completed
            // step — which is lock-free, not wait-free bounded.
            progress_dequeue: Progress::LockFree,
            consensus: "Turn (CRTurn) at segment boundaries",
            atomic_instructions: "CAS+FAA",
            reclamation: "wait-free bounded HP",
            min_memory: "O(N_threads * seg_size)",
        }
    }

    fn size_report() -> SizeReport {
        SizeReport {
            // The node header plus the inline ring struct (cells are a
            // separate allocation of seg_size cells, amortized per item).
            node_bytes: std::mem::size_of::<Node<SegRing<Box<u64>>>>(),
            enqueue_request_bytes: 0,
            dequeue_request_bytes: 0,
            fixed_per_thread_bytes: 3 * std::mem::size_of::<*mut u8>(),
            // Two allocations (node + cells) per K items: amortized < 1
            // per item for every K >= 2; the field is an integer, so
            // report the floor.
            min_heap_allocs_per_item: 0,
            steady_state_allocs_per_item: 0,
        }
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(SegTurnQueue::pool_stats(self))
    }

    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        Some(SegTurnQueue::telemetry_snapshot(self))
    }
}

/// [`QueueFamily`] selector for the segment-node Turn queue (default
/// [`DEFAULT_SEG_SIZE`]).
pub struct SegTurnFamily;

impl QueueFamily for SegTurnFamily {
    type Queue<T: Send + 'static> = SegTurnQueue<T>;
    const NAME: &'static str = "turn-seg";

    fn with_max_threads<T: Send + 'static>(max_threads: usize) -> SegTurnQueue<T> {
        TurnQueueBuilder::new().max_threads(max_threads).build_seg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn seg_queue<T: Send>(max_threads: usize, k: usize) -> SegTurnQueue<T> {
        TurnQueueBuilder::new()
            .max_threads(max_threads)
            .seg_size(k)
            .build_seg()
    }

    #[test]
    fn seg_cell_is_16_bytes_for_word_sized_items() {
        // item(8) + state(4) + padding(4): the state word is the cell's
        // only tag, so the payload needs no `Option` discriminant; four
        // cells share a 64-byte line.
        assert_eq!(std::mem::size_of::<SegCell<u64>>(), 16);
        assert_eq!(std::mem::size_of::<SegCell<Box<u64>>>(), 16);
    }

    #[test]
    fn pool_keeps_the_backlog_bound_not_the_byte_budget() {
        // Each pooled segment already carries a whole ring, so its lists
        // stay at `retired_bound` while per-item lists hold
        // `POOL_LIST_BYTES` of nodes; an explicit capacity still wins.
        for max_threads in [2, 4, crate::DEFAULT_MAX_THREADS] {
            let q: SegTurnQueue<u64> = TurnQueueBuilder::new()
                .max_threads(max_threads)
                .build_seg();
            assert_eq!(
                q.inner.pool_capacity(),
                turnq_hazard::retired_bound(max_threads, HPS_PER_THREAD)
            );
        }
        let q: SegTurnQueue<u64> = TurnQueueBuilder::new()
            .max_threads(4)
            .pool_capacity(100)
            .build_seg();
        assert_eq!(q.inner.pool_capacity(), 100);
    }

    #[test]
    fn fifo_across_segment_boundaries() {
        // 100 items through 4-cell segments: 25 boundary appends and head
        // advances, every item in order.
        let q: SegTurnQueue<u32> = seg_queue(2, 4);
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
    fn interleaved_enq_deq_crossing_boundaries() {
        let q: SegTurnQueue<u32> = seg_queue(2, 2);
        q.enqueue(1);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), None);
        q.enqueue(2);
        q.enqueue(3);
        q.enqueue(4); // crosses the 2-cell boundary
        assert_eq!(q.dequeue(), Some(2));
        q.enqueue(5);
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), Some(4));
        assert_eq!(q.dequeue(), Some(5));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn seg_size_zero_rejected() {
        // 1 too: per-item nodes are `build()`'s queue, not a segment size.
        for k in [0, 1] {
            let err = std::panic::catch_unwind(|| TurnQueueBuilder::new().seg_size(k)).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("seg_size must be at least 2"), "{msg}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn seg_size_non_power_of_two_rejected() {
        let _ = TurnQueueBuilder::new().seg_size(12);
    }

    #[test]
    fn is_empty_probe_tracks_contents() {
        let q: SegTurnQueue<u32> = seg_queue(1, 4);
        assert!(q.is_empty());
        q.enqueue(1);
        assert!(!q.is_empty());
        q.dequeue();
        assert!(q.is_empty());
        // Across a boundary: fill a segment + 1, drain it all.
        for i in 0..5 {
            q.enqueue(i);
        }
        assert!(!q.is_empty());
        for _ in 0..5 {
            q.dequeue();
        }
        assert!(q.is_empty());
    }

    #[test]
    fn segments_recycle_through_pool_with_ring_reuse() {
        let q: SegTurnQueue<u64> = seg_queue(1, 2);
        // Each round fills one segment past the boundary, forcing an
        // append, then drains it, forcing an advance + retire.
        for round in 0..200u64 {
            for i in 0..4 {
                q.enqueue(round * 4 + i);
            }
            for i in 0..4 {
                assert_eq!(q.dequeue(), Some(round * 4 + i));
            }
        }
        assert_eq!(q.dequeue(), None);
        let s = q.pool_stats();
        assert!(s.hits > 0, "appends must reuse pooled segments: {s:?}");
    }

    /// An item that counts its own drops in a per-item slot, so a double
    /// drop of one item cannot hide behind a missed drop of another.
    struct Counted(usize, Arc<[AtomicUsize]>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1[self.0].fetch_add(1, Ordering::SeqCst);
        }
    }

    fn drop_counts(n: usize) -> Arc<[AtomicUsize]> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn counts(drops: &[AtomicUsize]) -> Vec<usize> {
        drops.iter().map(|d| d.load(Ordering::SeqCst)).collect()
    }

    #[test]
    fn drop_with_items_left_frees_everything() {
        // Each case leaves a head ring partly drained (its first cells
        // TAKEN, the rest FULL), full rings behind it, and a tail ring
        // whose FULL cells are followed by EMPTY ones. At the default K
        // that is four segments.
        let k = DEFAULT_SEG_SIZE;
        for (seg, n, drained) in [(4, 10, 3), (k, 3 * k + k / 2, k / 2)] {
            let drops = drop_counts(n);
            let q: SegTurnQueue<Counted> = seg_queue(4, seg);
            for id in 0..n {
                q.enqueue(Counted(id, Arc::clone(&drops)));
            }
            for id in 0..drained {
                assert_eq!(q.dequeue().map(|c| c.0), Some(id));
            }
            let mut expected = vec![0; n];
            expected[..drained].fill(1);
            assert_eq!(counts(&drops), expected, "only the dequeued items dropped");
            drop(q);
            assert_eq!(counts(&drops), vec![1; n], "K = {seg}: dropped once");
        }
    }

    #[test]
    fn poisoned_producer_item_is_delivered_or_dropped_once() {
        for deliver in [true, false] {
            let drops = drop_counts(2);
            let q: SegTurnQueue<Counted> = seg_queue(1, 4);
            // A producer that drew its enqueue ticket and stalled before
            // publishing the cell.
            let tail = q.inner.tail.load(Ordering::SeqCst);
            // SAFETY: single-threaded test; the queue owns the live tail.
            let ring = unsafe { ring_of(tail) };
            let e = ring.enq_idx.fetch_add(1, Ordering::SeqCst) as usize;
            // The consumer holding the matching dequeue ticket finds the
            // cell EMPTY, poisons it and reports the queue empty.
            assert!(q.dequeue().is_none());
            assert_eq!(ring.cells[e].state.load(Ordering::SeqCst), CELL_POISONED);
            // The producer resumes: its publish fails and hands the item
            // back, which it enqueues again, as `enqueue_with` retries.
            // SAFETY: this thread holds ticket `e`; the ring is live.
            let back = unsafe { ring.cells[e].publish(Counted(0, Arc::clone(&drops))) };
            let back = back.expect_err("a poisoned cell returns the item");
            assert_eq!(counts(&drops), [0, 0], "the take-back drops nothing");
            q.enqueue(back);
            q.enqueue(Counted(1, Arc::clone(&drops)));
            if deliver {
                assert_eq!(q.dequeue().map(|c| c.0), Some(0));
                assert_eq!(counts(&drops), [1, 0]);
            }
            // The poisoned cell still holds the moved-from item's bytes;
            // only the item's live copy may be dropped.
            drop(q);
            assert_eq!(counts(&drops), [1, 1], "deliver={deliver}");
        }
    }

    #[test]
    fn drop_survives_a_panicking_payload() {
        // One FULL cell panics in drop: the other cells of its ring and
        // every later segment must still drop. At K = 4 the panicking item
        // sits in the head ring of three; at the default K it sits mid-ring
        // with two full rings and one partial ring behind it.
        let k = DEFAULT_SEG_SIZE;
        for (seg, n, panic_id) in [(4, 10, 1), (k, 3 * k + 1, k / 2)] {
            let q: SegTurnQueue<crate::drop_probe::Item> = seg_queue(2, seg);
            crate::drop_probe::assert_drop_frees_all(q, SegTurnQueue::enqueue, n, panic_id);
        }
    }

    #[test]
    fn handle_paths_cover_both_modes() {
        for k in [2usize, 4] {
            let q: SegTurnQueue<u32> = seg_queue(2, k);
            let h = q.handle().unwrap();
            for i in 0..10 {
                h.enqueue(i);
            }
            for i in 0..10 {
                assert_eq!(h.dequeue(), Some(i));
            }
            assert_eq!(h.dequeue(), None);
            assert!(h.tid() < q.max_threads());
        }
    }

    #[test]
    fn telemetry_counts_cells_and_boundaries() {
        if !turnq_telemetry::ENABLED {
            return;
        }
        let q: SegTurnQueue<u64> = seg_queue(1, 4);
        for i in 0..16 {
            q.enqueue(i);
        }
        for i in 0..16 {
            assert_eq!(q.dequeue(), Some(i));
        }
        let snap = q.telemetry_snapshot();
        assert_eq!(snap.counter(CounterId::EnqOps), 16, "EnqOps counts items");
        assert_eq!(snap.counter(CounterId::DeqOps), 16, "DeqOps counts items");
        // 16 items through 4-cell segments: 3 appends (the seed segment
        // holds the first 4), each carrying one item; the rest hit cells.
        assert_eq!(snap.counter(CounterId::SegEnqAppend), 3);
        assert_eq!(snap.counter(CounterId::SegEnqCellHit), 13);
        assert!(snap.counter(CounterId::SegDeqAdvance) >= 3);
    }
}
