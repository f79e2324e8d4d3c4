//! The list node shared by the Turn queue and its MPSC/SPMC variants
//! (paper Algorithm 1).

use turnq_sync::atomic::{AtomicI32, AtomicPtr};
use turnq_sync::cell::UnsafeCell;
use turnq_sync::ord;

/// "No thread" marker for [`Node::deq_tid`] (the paper's `IDX_NONE`).
pub(crate) const IDX_NONE: i32 = -1;

/// Base of the fast-path claim encoding in [`Node::deq_tid`].
///
/// A fast-path dequeue claims a node by CASing `deq_tid` from [`IDX_NONE`]
/// to `FAST_BASE - turn` (always ≤ -2, so it can never collide with
/// `IDX_NONE` or a real thread index ≥ 0). The encoded *turn* keeps the
/// CRTurn dequeue rotation intact: `search_next` decodes the head's
/// effective turn with [`decode_turn`] whether the head was consumed by the
/// slow path (`deq_tid == tid`, turn = tid) or the fast path.
pub(crate) const FAST_BASE: i32 = -2;

/// Encode a dequeue turn as a fast-path claim value (≤ -2).
#[inline]
pub(crate) fn encode_fast(turn: i32) -> i32 {
    FAST_BASE - turn
}

/// The effective dequeue turn of a consumed node: the assigned thread index
/// for a slow-path claim, the preserved predecessor turn for a fast-path
/// claim. `IDX_NONE` (the initial sentinel) passes through unchanged — the
/// rotation in `search_next` already treats -1 as "start at slot 0".
#[inline]
pub(crate) fn decode_turn(raw: i32) -> i32 {
    if raw <= FAST_BASE {
        FAST_BASE - raw
    } else {
        raw
    }
}

/// Whether a raw `deq_tid` value is a fast-path claim.
#[inline]
pub(crate) fn is_fast_claim(raw: i32) -> bool {
    raw <= FAST_BASE
}

/// A singly-linked-list node carrying one item.
///
/// Field-for-field the paper's `Node` struct:
///
/// * `item` — the enqueued value. The paper stores `T*`; we store the value
///   inline (`Option<T>`), which is what lets the Turn queue claim *one*
///   heap allocation per item (Table 4, last row). `UnsafeCell` because the
///   single thread the node is assigned to (unique `deq_tid`, paper
///   Invariant 9) takes the value out while other threads still hold `&Node`
///   references for pointer comparisons.
/// * `enq_tid` — which thread enqueued the node; drives the *enqueue* turn.
///   Immutable after construction, hence not atomic (paper §2.1).
/// * `deq_tid` — which thread the node's dequeue is assigned to; drives the
///   *dequeue* turn. CAS'd exactly once from [`IDX_NONE`].
/// * `next` — list linkage.
///
/// With a pointer-sized `T` this is 24 bytes, matching the paper's Table 4.
pub(crate) struct Node<T> {
    pub(crate) item: UnsafeCell<Option<T>>,
    pub(crate) enq_tid: u32,
    pub(crate) deq_tid: AtomicI32,
    pub(crate) next: AtomicPtr<Node<T>>,
}

impl<T> Node<T> {
    /// Allocate a node and return its raw pointer (ownership transfers to
    /// the queue's reclamation protocol).
    pub(crate) fn alloc(item: Option<T>, enq_tid: u32) -> *mut Node<T> {
        Box::into_raw(Box::new(Node {
            item: UnsafeCell::new(item),
            enq_tid,
            deq_tid: AtomicI32::new(IDX_NONE),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }

    /// Re-initialize a recycled node in place to the exact state
    /// [`Node::alloc`] would produce, so a pool hit is indistinguishable
    /// from a fresh allocation to the queue protocol.
    ///
    /// Plain (non-atomic) stores via `get_mut` are correct here: the node
    /// came out of the caller's *own* free list (filled by its own scans,
    /// or by a chain it won from the pool's depot with an acquire CAS), so
    /// no other thread can reach it until the caller publishes it with a
    /// CAS on `tail` (or `next`), which orders these writes before any
    /// reader.
    ///
    /// # Safety
    ///
    /// * `ptr` is valid, came from `Box::into_raw`, and is exclusively
    ///   owned by the caller (unlinked and reclaimed — no thread holds a
    ///   validated hazard pointer to it);
    /// * any previous item payload has already been dropped or taken.
    #[inline]
    pub(crate) unsafe fn reset(ptr: *mut Node<T>, item: Option<T>, enq_tid: u32) {
        // SAFETY(node-unpublished): exclusive ownership per the contract
        // above — the node is unlinked and reclaimed, reachable by no
        // other thread until the caller republishes it.
        let node = unsafe { &mut *ptr };
        *node.item.get_mut() = item;
        node.enq_tid = enq_tid;
        *node.deq_tid.get_mut() = IDX_NONE;
        *node.next.get_mut() = std::ptr::null_mut();
    }

    /// The paper's `casDeqTid`: assign the node to a dequeue request.
    /// Returns whether this call performed the assignment.
    #[inline]
    pub(crate) fn cas_deq_tid(&self, expected: i32, desired: i32) -> bool {
        // ORDERING(n.deqtid-cas): ACQ_REL / ACQUIRE — the write-once
        // assignment: the per-location CAS order alone decides which
        // helper wins (Inv. 9); release pairs with the acquire deq_tid
        // loads, and acquire on both outcomes ensures the winner's
        // assignment is visible before the caller acts on it. The
        // request-level consensus runs on the SeqCst deqself/deqhelp
        // scans, not on this field. pairs=q.deqtid-read
        self.deq_tid
            .compare_exchange(expected, desired, ord::ACQ_REL, ord::ACQUIRE)
            .is_ok()
    }

    /// Take the item out of the node.
    ///
    /// # Safety
    ///
    /// Caller must be the unique owner of the item: either the thread this
    /// node's dequeue was assigned to (paper Invariant 9 — the assignment
    /// never changes), or a context with exclusive access (`Drop`).
    #[inline]
    pub(crate) unsafe fn take_item(&self) -> Option<T> {
        // SAFETY(tid-exclusive): unique-owner contract above — the
        // caller is the thread the node's dequeue was uniquely assigned
        // to (Inv. 9); no other thread reads or writes `item` (helpers
        // only compare node *pointers*).
        unsafe { (*self.item.get()).take() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn fast_claim_encoding_round_trips() {
        // Every normalized turn t ∈ [0, MAX_THREADS) must encode to a value
        // ≤ FAST_BASE (distinct from IDX_NONE and every real tid) and
        // decode back to itself; slow-path tids and the sentinel pass
        // through decode unchanged.
        for t in 0..64 {
            let enc = encode_fast(t);
            assert!(enc <= FAST_BASE, "turn {t} encoded to {enc}");
            assert!(is_fast_claim(enc));
            assert_eq!(decode_turn(enc), t);
            assert!(!is_fast_claim(t));
            assert_eq!(decode_turn(t), t);
        }
        assert!(!is_fast_claim(IDX_NONE));
        assert_eq!(decode_turn(IDX_NONE), IDX_NONE);
    }

    #[test]
    fn node_is_24_bytes_for_pointer_sized_items() {
        // Table 4 row 1: item(8) + enqTid(4) + deqTid(4) + next(8) = 24.
        // The paper's `T* item` is an owned heap pointer, i.e. `Box<T>` —
        // whose null niche lets `Option<Box<T>>` stay one word.
        assert_eq!(std::mem::size_of::<Node<Box<u64>>>(), 24);
        assert_eq!(std::mem::size_of::<Node<std::ptr::NonNull<u8>>>(), 24);
    }

    #[test]
    fn cas_deq_tid_assigns_once() {
        let n = Node::<u32> {
            item: UnsafeCell::new(Some(5)),
            enq_tid: 0,
            deq_tid: AtomicI32::new(IDX_NONE),
            next: AtomicPtr::new(std::ptr::null_mut()),
        };
        assert!(n.cas_deq_tid(IDX_NONE, 3));
        // A second CAS from IDX_NONE must fail and leave the first
        // assignment in place (Invariant 9: the protocol only ever CASes
        // from IDX_NONE, so the assignment is permanent).
        assert!(!n.cas_deq_tid(IDX_NONE, 4));
        assert_eq!(n.deq_tid.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn alloc_and_take_roundtrip() {
        let p = Node::alloc(Some(String::from("x")), 7);
        // SAFETY: the node is alive: this context owns it exclusively (or frees it last).
        let node = unsafe { &*p };
        assert_eq!(node.enq_tid, 7);
        assert_eq!(node.deq_tid.load(Ordering::SeqCst), IDX_NONE);
        assert!(node.next.load(Ordering::SeqCst).is_null());
        assert_eq!(unsafe { node.take_item() }, Some(String::from("x")));
        assert_eq!(unsafe { node.take_item() }, None);
        unsafe { drop(Box::from_raw(p)) };
    }

    #[test]
    fn reset_restores_freshly_allocated_state() {
        let p = Node::alloc(Some(String::from("first")), 1);
        // Dirty every mutable field the way a completed dequeue would.
        {
            // SAFETY: the node is alive: this context owns it exclusively (or frees it last).
            let node = unsafe { &*p };
            assert!(node.cas_deq_tid(IDX_NONE, 5));
            node.next.store(p, Ordering::SeqCst);
            assert_eq!(unsafe { node.take_item() }, Some(String::from("first")));
        }
        unsafe { Node::reset(p, Some(String::from("second")), 9) };
        let node = unsafe { &*p };
        assert_eq!(node.enq_tid, 9);
        assert_eq!(node.deq_tid.load(Ordering::SeqCst), IDX_NONE);
        assert!(node.next.load(Ordering::SeqCst).is_null());
        assert_eq!(unsafe { node.take_item() }, Some(String::from("second")));
        unsafe { drop(Box::from_raw(p)) };
    }
}
