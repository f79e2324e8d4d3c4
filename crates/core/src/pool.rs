//! Wait-free node recycling: per-thread free lists fed by hazard-pointer
//! reclamation, plus a one-slot depot that moves whole lists between
//! threads.
//!
//! The Turn queue pays exactly one heap allocation per item (Table 4) — the
//! node — and one matching free when the hazard-pointer scan reclaims it.
//! Under steady traffic that allocate/free pair is pure overhead: the node
//! freed by a dequeue's scan is bit-compatible with the node the next
//! enqueue is about to allocate. This module closes the loop. A
//! [`PoolSink`] installed as the queue's [`ReclaimSink`] diverts reclaimed
//! nodes into a [`NodePool`] of per-thread free lists, and the enqueue path
//! pops from the caller's list before falling back to the allocator.
//!
//! ## Free lists and the depot
//!
//! Each free list is owned by exactly one registered thread index and is
//! only ever touched by the thread holding that index (the same exclusivity
//! contract the hazard-pointer retired lists already rely on): `acquire`
//! runs inside the owner's enqueue, and `release` runs inside the owner's
//! retire-scan, on the same thread. A list is intrusive: it is threaded
//! through each pooled node's own `next` field, which is free to reuse once
//! the scan has proven the node unreachable. Pushes and pops are plain
//! loads and stores.
//!
//! Nodes recycle on the *retiring* thread, so with split roles (a dedicated
//! producer and a dedicated consumer) the consumer's list is always full
//! and the producer's always empty. The depot bridges the two: one shared
//! slot that is either null or one chain of exactly `capacity` nodes.
//!
//! * `release` on a full list tries one CAS `null → head`. If it wins, the
//!   whole list moves to the depot and the node starts a fresh list; if
//!   it loses (the depot is occupied), the node overflows to the allocator.
//! * `acquire` on an empty list loads the depot and, if it holds a chain,
//!   tries one CAS `chain → null`. If it wins, the chain becomes the
//!   caller's list; if it loses, the caller allocates.
//!
//! ## Why wait-freedom is untouched
//!
//! Each call makes at most one depot load and one CAS, with no loop, so
//! both operations stay O(1) and population-oblivious and the queue's
//! `O(max_threads)` bounds are preserved. A take reads the chain's links
//! only after its CAS has won, so an ABA on the depot hands out whatever
//! chain is in the slot at that moment, never a stale one; a deposit only
//! succeeds into an empty slot, so no chain is ever overwritten. No
//! `swap` or fetch-and-add is used (the counters are atomics only so other
//! threads may *read* them; the owner updates them with load+store),
//! keeping the crate's CAS-only claim intact.
//!
//! ## Why the capacity is a byte budget
//!
//! A scan delivers at most the thread's whole retired backlog in one burst,
//! and that backlog is bounded by
//! [`retired_bound(max_threads, k)`](turnq_hazard::retired_bound), so a
//! list of at least that many nodes absorbs the worst-case reclamation
//! burst. That bound is not what limits recycling, though. With split
//! roles the depot moves one list per hand-over, while the queue's backlog
//! swings by thousands of items between hand-overs; a list of
//! `retired_bound` nodes (13 at `max_threads = 4`) fills long before the
//! producer takes the depot's chain, and the surplus spills to the
//! allocator only for the producer to allocate it again. So a per-item
//! queue sizes each list by bytes: the default capacity is
//! `max(retired_bound(max_threads, 3), POOL_LIST_BYTES / size_of::<Node<T>>())`
//! nodes, 4,096 for a word-sized item (a 32-byte node) at any
//! `max_threads` up to 1,365. A large `T` falls back to `retired_bound`.
//!
//! Pooled memory stays bounded: every list plus the depot hold at most
//! `(max_threads + 1) × capacity` nodes per queue, which for word-sized
//! items is `(max_threads + 1) × 128 KiB`: 640 KiB at `max_threads = 4`
//! and 4,224 KiB at the default 32, below segment mode's bound (next
//! paragraph). Anything beyond that overflows to the allocator, and a
//! capacity of 0 never touches the depot, so it reproduces the classic
//! free-to-allocator behavior exactly.
//!
//! Segment mode keeps `retired_bound` lists: a pooled node keeps its ring,
//! so each one already holds a 512-byte node (the ring's two ticket
//! counters on lines of their own) plus `seg_size × 16` bytes of cells for
//! a word-sized item: 1,536 B at the default `seg_size` of 64. With `k = 3` hazard slots per thread the
//! bound is `(512 + 64 × 16) × (max_threads + 1) × retired_bound(max_threads,
//! 3)` bytes: 1,536 × 5 × 13 = 99,840 B at `max_threads = 4`, and
//! 1,536 × 33 × 97 = 4,916,736 B (about 4.7 MiB) at the default 32.

use std::ptr;
use std::sync::Arc;
use turnq_sync::atomic::{AtomicPtr, AtomicU64};
use turnq_sync::cell::UnsafeCell;
use turnq_sync::ord;

use crossbeam_utils::CachePadded;
use turnq_api::PoolStats;
use turnq_hazard::ReclaimSink;

use crate::node::Node;

/// Byte budget of one per-item free list (and of the depot's one chain):
/// unless [`pool_capacity`](crate::TurnQueueBuilder::pool_capacity) says
/// otherwise, a per-item queue's lists hold this many bytes of nodes, or
/// the hazard backlog bound if that is more nodes (module docs). Picked by
/// a benchmark sweep over 8, 32 and 128 KiB (EXPERIMENTS.md "Pool byte
/// budget"): 128 KiB, 4,096 word-sized nodes, read the best split-role
/// `stream` throughput, 9 % above 32 KiB. A larger budget would put the
/// per-item pool bound above segment mode's at the default 32 threads.
pub const POOL_LIST_BYTES: usize = 128 * 1024;

/// One thread's free list plus its counters.
///
/// `head` is owner-only (see module docs); `len` is the list's length,
/// written only by the owner and atomic so `stats()` may read it from other
/// threads. The counters mirror state the same way.
struct PoolSlot<T> {
    head: UnsafeCell<*mut Node<T>>,
    len: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    overflows: AtomicU64,
}

impl<T> PoolSlot<T> {
    fn new() -> Self {
        PoolSlot {
            head: UnsafeCell::new(ptr::null_mut()),
            len: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            overflows: AtomicU64::new(0),
        }
    }
}

/// Owner-only counter bump: a load+store, deliberately not a fetch-and-add
/// RMW, so the crate-wide CAS-only claim (`core_uses_cas_only`) holds.
/// Exact because only the slot's owning thread writes its counters.
#[inline]
fn bump(counter: &AtomicU64) {
    // ORDERING(pl.counter-mirror): RELAXED — owner-only counter mirror:
    // one writer per slot, cross-thread readers take a racy-but-coherent
    // snapshot (stats()).
    counter.store(counter.load(ord::RELAXED) + 1, ord::RELAXED);
}

/// Free every node of a chain linked through `next`.
///
/// # Safety
///
/// The caller owns the whole chain exclusively, and every node in it came
/// from `Box::into_raw`.
unsafe fn free_chain<T>(mut node: *mut Node<T>) {
    while !node.is_null() {
        // SAFETY(drop-exclusive): the chain is exclusively owned (caller
        // contract); each node is read once and freed once.
        let next = unsafe { *(*node).next.get_mut() };
        // SAFETY(drop-exclusive): as above — allocated by `Box::into_raw`.
        unsafe { drop(Box::from_raw(node)) };
        node = next;
    }
}

/// Per-thread lists of recycled queue nodes plus the shared depot.
///
/// Crate-private: the pool's `Send`/`Sync` are asserted unconditionally
/// (see below) and are only sound because every access path is gated behind
/// `TurnQueue`'s own `T: Send` bounds.
pub(crate) struct NodePool<T> {
    slots: Box<[CachePadded<PoolSlot<T>>]>,
    /// Null, or one chain of exactly `capacity` nodes handed over by a
    /// thread whose list was full (module docs). Owned by whoever wins the
    /// CAS that empties it.
    depot: CachePadded<AtomicPtr<Node<T>>>,
    capacity: usize,
    /// Keep the item payload alive across release/acquire instead of
    /// dropping it on release. Off for per-item queues (a pooled node must
    /// not prolong a `T` lifetime); on for the segment mode, where the
    /// payload is the K-cell ring whose `Box<[SegCell]>` allocation is
    /// exactly what recycling is meant to amortize — the segment layer
    /// resets the retained cell array in place on reuse (DESIGN.md §6d).
    /// Sound either way: release only runs on unreachable nodes, and in
    /// retain mode every retained ring's cells are already item-free (all
    /// TAKEN/POISONED before the segment is retired).
    retain_payload: bool,
}

// SAFETY(send-sync): slot `i` is only accessed by the thread registered at index `i`
// (module-doc contract), except under exclusive access (`Drop`); the depot
// is an atomic whose chain belongs to the thread that wins the CAS emptying
// it. The raw node pointers may own `T` payloads, but the pool is only
// reachable through `TurnQueue`/its variants, whose `Send`/`Sync` impls
// require `T: Send`.
unsafe impl<T> Send for NodePool<T> {}
unsafe impl<T> Sync for NodePool<T> {}

impl<T> NodePool<T> {
    /// A pool with one free list per thread index, each holding at most
    /// `capacity` nodes. `capacity == 0` disables recycling entirely.
    pub(crate) fn new(max_threads: usize, capacity: usize) -> Self {
        NodePool {
            slots: (0..max_threads)
                .map(|_| CachePadded::new(PoolSlot::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            depot: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            capacity,
            retain_payload: false,
        }
    }

    /// Switch the pool into segment mode: released nodes keep their payload
    /// (see the `retain_payload` field docs). Must run before the pool is
    /// shared (the queue constructor configures pre-`Arc`).
    pub(crate) fn set_retain_payload(&mut self, retain: bool) {
        self.retain_payload = retain;
    }

    /// Per-thread free-list capacity this pool was built with.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pop a recycled node from the caller's free list, adopting the
    /// depot's chain first if the list is empty. O(1): plain loads/stores
    /// plus at most one depot load and one CAS.
    ///
    /// # Safety
    ///
    /// `tid` is the caller's registered index and no other thread uses it
    /// concurrently.
    #[inline]
    pub(crate) unsafe fn acquire(&self, tid: usize) -> Option<*mut Node<T>> {
        let slot = &self.slots[tid];
        // SAFETY(tid-exclusive): `tid` exclusivity (caller contract)
        // makes this the only access to the list.
        let head = unsafe { &mut *slot.head.get() };
        let len = if head.is_null() {
            let Some(chain) = self.take_depot() else {
                bump(&slot.misses);
                return None;
            };
            *head = chain;
            self.capacity as u64
        } else {
            // ORDERING(pl.counter-mirror): RELAXED — owner-only length;
            // our own last store, exact by coherence.
            slot.len.load(ord::RELAXED)
        };
        let node = *head;
        // SAFETY(pool-owner): the node heads our own list (or the chain
        // `take_depot` just handed us), so we own it exclusively and may
        // read the link it carries while pooled.
        *head = unsafe { *(*node).next.get_mut() };
        // ORDERING(pl.counter-mirror): RELAXED — owner-only gauge mirror
        // of the free list's length; readers are racy by contract.
        slot.len.store(len - 1, ord::RELAXED);
        bump(&slot.hits);
        Some(node)
    }

    /// Take ownership of a reclaimed node: push it on `tid`'s free list,
    /// first handing a full list to an empty depot, or free it to the
    /// allocator if the list is full and the depot occupied. O(1) aside
    /// from dropping any stale item payload.
    ///
    /// # Safety
    ///
    /// * `ptr` came from `Box::into_raw` and the caller transfers sole
    ///   ownership (it is unreachable — the hazard-pointer scan contract);
    /// * `tid` is the caller's registered index (or access is exclusive,
    ///   as during drop).
    pub(crate) unsafe fn release(&self, tid: usize, ptr: *mut Node<T>) {
        // Drop any leftover payload now, not when the node is reused:
        // pooled nodes must not prolong `T` lifetimes. (On the queue's
        // paths the item was already taken by the assigned dequeuer.)
        // In retain mode (segment rings) the payload is deliberately kept
        // so its cell-array allocation can be reset in place on reuse.
        // SAFETY(pool-owner): sole ownership per the contract above —
        // the node is on its way into this thread's free list.
        if !self.retain_payload {
            unsafe { *(*ptr).item.get() = None };
        }
        let slot = &self.slots[tid];
        // SAFETY(tid-exclusive): `tid` exclusivity (caller contract).
        let head = unsafe { &mut *slot.head.get() };
        // ORDERING(pl.counter-mirror): RELAXED — owner-only length, as in
        // acquire.
        let mut len = slot.len.load(ord::RELAXED);
        if len as usize >= self.capacity {
            if !self.deposit(*head) {
                bump(&slot.overflows);
                // SAFETY(pool-owner): sole ownership; allocated by
                // `Box::into_raw` — overflow bypasses the list back to the
                // allocator.
                unsafe { drop(Box::from_raw(ptr)) };
                return;
            }
            *head = ptr::null_mut();
            len = 0;
        }
        // SAFETY(pool-owner): sole ownership per the contract above; the
        // scan proved the node unreachable, so its `next` is ours to reuse
        // as the free-list link.
        unsafe { *(*ptr).next.get_mut() = *head };
        *head = ptr;
        // ORDERING(pl.counter-mirror): RELAXED — owner-only gauge mirror,
        // as in acquire.
        slot.len.store(len + 1, ord::RELAXED);
        bump(&slot.recycled);
    }

    /// Hand a full list (`capacity` nodes) to the depot if it is empty.
    /// One load and at most one CAS; `false` leaves the list with the
    /// caller. Never touches the depot when recycling is off.
    fn deposit(&self, chain: *mut Node<T>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        // ORDERING(pl.depot-deposit): RELAXED — the peek only skips a CAS
        // that would fail; the CAS below decides.
        if !self.depot.load(ord::RELAXED).is_null() {
            return false;
        }
        // ORDERING(pl.depot-deposit): RELEASE / RELAXED — publishes the
        // chain's plain `next` links (and, in retain mode, its ring
        // payloads) to the thread whose take CAS reads this value. A
        // failed deposit hands nothing over. pairs=pl.depot-take
        self.depot
            .compare_exchange(ptr::null_mut(), chain, ord::RELEASE, ord::RELAXED)
            .is_ok()
    }

    /// Empty the depot into the caller's hands if it holds a chain. One
    /// load and at most one CAS; the chain's links are read only after the
    /// CAS has won. Never touches the depot when recycling is off.
    fn take_depot(&self) -> Option<*mut Node<T>> {
        if self.capacity == 0 {
            return None;
        }
        // ORDERING(pl.depot-take): RELAXED — the peek is a CAS candidate
        // only; nothing behind it is read unless the CAS wins.
        let chain = self.depot.load(ord::RELAXED);
        if chain.is_null() {
            return None;
        }
        // ORDERING(pl.depot-take): ACQUIRE / RELAXED — pairs with the
        // deposit CAS's release, so the depositor's link writes happen
        // before our plain reads of them. A lost race reads nothing.
        // pairs=pl.depot-deposit
        self.depot
            .compare_exchange(chain, ptr::null_mut(), ord::ACQUIRE, ord::RELAXED)
            .ok()
    }

    /// Aggregate counters over all per-thread slots and the depot. Safe to
    /// call from any thread; the snapshot is racy but each counter is
    /// individually exact.
    pub(crate) fn stats(&self) -> PoolStats {
        let mut s = PoolStats::default();
        for slot in self.slots.iter() {
            // ORDERING(pl.counter-mirror): RELAXED — racy cross-thread
            // snapshot of owner-only counters; each value is individually
            // coherent, which is all the documented contract promises.
            s.hits += slot.hits.load(ord::RELAXED);
            s.misses += slot.misses.load(ord::RELAXED);
            s.recycled += slot.recycled.load(ord::RELAXED);
            s.overflows += slot.overflows.load(ord::RELAXED);
            s.pooled_now += slot.len.load(ord::RELAXED);
        }
        // ORDERING(pl.counter-mirror): RELAXED — racy gauge read, like the
        // lengths above; a non-null depot holds exactly `capacity` nodes.
        if !self.depot.load(ord::RELAXED).is_null() {
            s.pooled_now += self.capacity as u64;
        }
        s
    }
}

impl<T> Drop for NodePool<T> {
    fn drop(&mut self) {
        // Exclusive access: free every pooled node. `release` already
        // cleared item payloads (or, in retain mode, the node still owns
        // its ring payload and `Box::from_raw` drops it here).
        for slot in self.slots.iter_mut() {
            // SAFETY(drop-exclusive): `&mut self` in Drop — every list and
            // the depot chain are ours alone.
            unsafe { free_chain(*slot.head.get_mut()) };
        }
        // SAFETY(drop-exclusive): as above.
        unsafe { free_chain(*self.depot.get_mut()) };
    }
}

/// The queue's [`ReclaimSink`]: routes nodes the hazard-pointer scan has
/// proven unreachable into the retiring thread's free list.
pub(crate) struct PoolSink<T> {
    pool: Arc<NodePool<T>>,
}

impl<T> PoolSink<T> {
    pub(crate) fn new(pool: Arc<NodePool<T>>) -> Self {
        PoolSink { pool }
    }
}

impl<T> ReclaimSink<Node<T>> for PoolSink<T> {
    // SAFETY: contract inherited from `ReclaimSink::reclaim` — `ptr` is unreachable and exclusively owned.
    unsafe fn reclaim(&self, tid: usize, ptr: *mut Node<T>) {
        // SAFETY(sink-contract): the sink contract is exactly the release contract — sole
        // ownership of an unreachable `Box::into_raw` pointer, called with
        // the scanning thread's index (or exclusively during drop).
        unsafe { self.pool.release(tid, ptr) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn acquire_on_empty_pool_misses() {
        let pool: NodePool<u64> = NodePool::new(2, 4);
        // SAFETY: single-threaded test; tid 0 is unshared.
        assert_eq!(unsafe { pool.acquire(0) }, None);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        assert_eq!(s.pooled_now, 0);
    }

    #[test]
    fn release_then_acquire_round_trips_the_same_node() {
        let pool: NodePool<u64> = NodePool::new(1, 4);
        let p = Node::alloc(Some(7u64), 0);
        // SAFETY: test-owned fresh nodes; this thread is the only user of the tid.
        unsafe { pool.release(0, p) };
        assert_eq!(pool.stats().pooled_now, 1);
        assert_eq!(unsafe { pool.acquire(0) }, Some(p));
        assert_eq!(pool.stats().pooled_now, 0);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.recycled, s.overflows), (1, 0, 1, 0));
        unsafe { drop(Box::from_raw(p)) };
    }

    #[test]
    fn release_beyond_capacity_overflows_to_allocator() {
        let pool: NodePool<u64> = NodePool::new(1, 2);
        // SAFETY: test-owned fresh nodes; this thread is the only user of the tid.
        for _ in 0..5 {
            unsafe { pool.release(0, Node::alloc(None, 0)) };
        }
        // Releases 1–2 fill the list; release 3 hands the full list to the
        // empty depot and starts a fresh one; release 4 refills it; release
        // 5 finds the list full and the depot occupied, so it overflows.
        let s = pool.stats();
        assert_eq!((s.recycled, s.overflows, s.pooled_now), (4, 1, 4));
        // The list and the depot chain are freed by NodePool::drop.
    }

    #[test]
    fn deposit_then_take_moves_exactly_capacity_nodes() {
        const CAP: usize = 3;
        let pool: NodePool<u64> = NodePool::new(2, CAP);
        let nodes: Vec<*mut Node<u64>> = (0..=CAP).map(|_| Node::alloc(None, 0)).collect();
        for &p in &nodes {
            // SAFETY: test-owned fresh nodes; tid 0 is used only here.
            unsafe { pool.release(0, p) };
        }
        // tid 0 kept the last node; its first CAP went to the depot.
        let mut taken = Vec::new();
        // SAFETY: single-threaded test; tid 1 is unshared.
        while let Some(p) = unsafe { pool.acquire(1) } {
            taken.push(p);
        }
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (CAP as u64, 1), "tid 1 drained one chain");
        assert_eq!(s.pooled_now, 1, "only tid 0's fresh list remains");
        let mut expected = nodes[..CAP].to_vec();
        expected.sort_unstable();
        taken.sort_unstable();
        assert_eq!(taken, expected, "the depot carried exactly the full list");
        for p in taken {
            // SAFETY: sole ownership — acquired above, freed exactly once.
            unsafe { drop(Box::from_raw(p)) };
        }
    }

    #[test]
    fn second_deposit_while_depot_is_occupied_overflows() {
        const CAP: usize = 2;
        let pool: NodePool<u64> = NodePool::new(2, CAP);
        for tid in 0..2 {
            for _ in 0..=CAP {
                // SAFETY: test-owned fresh nodes; each tid is used by this
                // thread only.
                unsafe { pool.release(tid, Node::alloc(None, 0)) };
            }
        }
        // tid 0's full list took the empty depot; tid 1's could not, so
        // its last node went to the allocator.
        let s = pool.stats();
        assert_eq!(s.overflows, 1);
        assert_eq!(s.recycled, 2 * CAP as u64 + 1);
        assert_eq!(s.pooled_now, 2 * CAP as u64 + 1, "tid 0's list, tid 1's list, depot");
    }

    #[test]
    fn pooled_now_counts_the_depot() {
        const CAP: usize = 4;
        let pool: NodePool<u64> = NodePool::new(2, CAP);
        for _ in 0..=CAP {
            // SAFETY: test-owned fresh nodes; tid 0 is used only here.
            unsafe { pool.release(0, Node::alloc(None, 0)) };
        }
        assert_eq!(pool.stats().pooled_now, CAP as u64 + 1, "one on the list, CAP in the depot");
        // SAFETY: single-threaded test; tid 1 is unshared.
        let p = unsafe { pool.acquire(1) }.expect("tid 1 adopts the depot chain");
        assert_eq!(pool.stats().pooled_now, CAP as u64, "the chain now sits on tid 1's list");
        // SAFETY: sole ownership — acquired above, freed exactly once.
        unsafe { drop(Box::from_raw(p)) };
    }

    #[test]
    fn drop_frees_the_depot_chain_dropping_each_retained_payload_once() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc as StdArc;

        struct D(StdArc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        const CAP: usize = 2;
        const RELEASED: usize = 2 * CAP + 1;
        let drops = StdArc::new(AtomicUsize::new(0));
        let mut pool: NodePool<D> = NodePool::new(1, CAP);
        pool.set_retain_payload(true);
        for _ in 0..RELEASED {
            let p = Node::alloc(Some(D(StdArc::clone(&drops))), 0);
            // SAFETY: test-owned fresh node; this thread is the only user of the tid.
            unsafe { pool.release(0, p) };
        }
        let s = pool.stats();
        assert_eq!((s.overflows, s.pooled_now), (1, 2 * CAP as u64), "list + depot full");
        assert_eq!(drops.load(Ordering::SeqCst), 1, "only the overflowed payload dropped");
        drop(pool);
        assert_eq!(drops.load(Ordering::SeqCst), RELEASED, "every payload dropped exactly once");
    }

    #[test]
    fn capacity_zero_never_caches() {
        let pool: NodePool<u64> = NodePool::new(1, 0);
        // SAFETY: test-owned fresh nodes; this thread is the only user of the tid.
        unsafe { pool.release(0, Node::alloc(None, 0)) };
        let s = pool.stats();
        assert_eq!((s.recycled, s.overflows, s.pooled_now), (0, 1, 0));
        assert_eq!(unsafe { pool.acquire(0) }, None);
    }

    #[test]
    fn release_drops_stale_payload_immediately() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc as StdArc;

        struct D(StdArc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let drops = StdArc::new(AtomicUsize::new(0));
        let pool: NodePool<D> = NodePool::new(1, 4);
        let p = Node::alloc(Some(D(StdArc::clone(&drops))), 0);
        // SAFETY: test-owned fresh nodes; this thread is the only user of the tid.
        unsafe { pool.release(0, p) };
        assert_eq!(drops.load(Ordering::SeqCst), 1, "payload dropped on release");
        drop(pool);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "node freed without double drop");
    }

    #[test]
    fn retain_mode_keeps_payload_alive_until_reuse_or_drop() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc as StdArc;

        struct D(StdArc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let drops = StdArc::new(AtomicUsize::new(0));
        let mut pool: NodePool<D> = NodePool::new(1, 4);
        pool.set_retain_payload(true);
        let p = Node::alloc(Some(D(StdArc::clone(&drops))), 0);
        // SAFETY: test-owned fresh node; this thread is the only user of the tid.
        unsafe { pool.release(0, p) };
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "retain mode must keep the payload for in-place reuse"
        );
        assert_eq!(unsafe { pool.acquire(0) }, Some(p));
        // SAFETY: reacquired with sole ownership; the retained payload is
        // still there for the caller to reuse.
        assert!(unsafe { (*(*p).item.get()).is_some() });
        // SAFETY: sole ownership — freed exactly once; drops the payload.
        unsafe { drop(Box::from_raw(p)) };
        assert_eq!(drops.load(Ordering::SeqCst), 1, "payload dropped with the node");
    }

    #[test]
    fn slots_are_independent_per_thread() {
        let pool: NodePool<u64> = NodePool::new(2, 4);
        let p = Node::alloc(None, 0);
        unsafe { pool.release(0, p) };
        // Thread 1's list is unaffected by thread 0's release.
        assert_eq!(unsafe { pool.acquire(1) }, None);
        assert_eq!(unsafe { pool.acquire(0) }, Some(p));
        // SAFETY: sole ownership — allocated by this test, freed exactly once.
        unsafe { drop(Box::from_raw(p)) };
    }
}
