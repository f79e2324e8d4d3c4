//! Conditional Hazard Pointers (paper §3.2).
//!
//! In the Kogan–Petrank queue a node's item is read *after* the node has
//! left the list: the dequeuing thread returns `state[tid].node.next.item`,
//! and by the time it reads the item another thread may already have
//! advanced `head` past that node and retired it. No hazard pointer
//! protects the node at that moment, yet it is still reachable from the
//! `state` array.
//!
//! The paper's fix is a variant of HP where an object, once retired, is
//! freed only after a per-object *condition* is observed — for KP, "the
//! item slot has been nulled by the thread that consumed it". This module
//! implements that variant generically: the stored type declares its
//! condition through [`ConditionalReclaim`].

use turnq_sync::cell::UnsafeCell;
use turnq_sync::atomic::{fence, AtomicUsize};
use turnq_sync::ord;

use crossbeam_utils::CachePadded;

use turnq_telemetry::{CounterId, TelemetryHandle};

use crate::matrix::HpMatrix;
use crate::sink::{BoxDropSink, ReclaimSink};

/// Condition an object must satisfy (in addition to being unprotected)
/// before a [`ConditionalHazardPointers`] domain may free it.
pub trait ConditionalReclaim {
    /// Whether the object may now be freed. Called on retired objects that
    /// are still allocated, possibly many times; it must be safe to call
    /// concurrently with the (single) thread that makes it become true, so
    /// implementations read atomics.
    fn can_reclaim(&self) -> bool;
}

struct RetiredList<T> {
    list: UnsafeCell<Vec<*mut T>>,
    len: AtomicUsize,
}

impl<T> Default for RetiredList<T> {
    fn default() -> Self {
        RetiredList {
            list: UnsafeCell::new(Vec::new()),
            len: AtomicUsize::new(0),
        }
    }
}

/// A hazard-pointer domain whose retire scan additionally requires
/// [`ConditionalReclaim::can_reclaim`] before freeing.
///
/// Unlike plain HP, the backlog bound gains a term for objects whose
/// condition is still pending: at most one per in-flight operation, i.e.
/// `max_threads`, because in KP a node's condition is made true by the
/// single thread that consumes its item and every thread has at most one
/// outstanding operation.
pub struct ConditionalHazardPointers<T: ConditionalReclaim, S: ReclaimSink<T> = BoxDropSink> {
    matrix: HpMatrix<T>,
    retired: Box<[CachePadded<RetiredList<T>>]>,
    sink: S,
    /// Observer-only probes (`chp_*` counters); disconnected unless an
    /// owner attaches its sheet.
    telemetry: TelemetryHandle,
}

// SAFETY(send-sync): identical reasoning to `HazardPointers` — raw
// pointers are managed under the HP protocol, retired rows are
// owner-exclusive, `S` is `Send + Sync` by the supertraits.
unsafe impl<T: ConditionalReclaim + Send, S: ReclaimSink<T>> Send
    for ConditionalHazardPointers<T, S>
{
}
unsafe impl<T: ConditionalReclaim + Send, S: ReclaimSink<T>> Sync
    for ConditionalHazardPointers<T, S>
{
}

impl<T: ConditionalReclaim> ConditionalHazardPointers<T> {
    /// A domain for `max_threads` threads with `k` hazard slots each,
    /// freeing to the allocator.
    pub fn new(max_threads: usize, k: usize) -> Self {
        Self::with_sink(max_threads, k, BoxDropSink)
    }
}

impl<T: ConditionalReclaim, S: ReclaimSink<T>> ConditionalHazardPointers<T, S> {
    /// A domain delivering reclaimed pointers to `sink` instead of freeing
    /// them; the scan (and backlog bound) is unchanged.
    pub fn with_sink(max_threads: usize, k: usize, sink: S) -> Self {
        let retired = (0..max_threads)
            .map(|_| CachePadded::new(RetiredList::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ConditionalHazardPointers {
            matrix: HpMatrix::new(max_threads, k),
            retired,
            sink,
            telemetry: TelemetryHandle::disconnected(),
        }
    }

    /// Record this domain's traffic into `handle`'s sheet (counters:
    /// `hp_protect`, `chp_scan`, `chp_retire`, `chp_reclaim`). Observation
    /// only — attaching changes no reclamation behavior.
    pub fn attach_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = handle;
    }

    /// Total retired-but-unfreed objects across all thread rows (the
    /// conditional-retire queue depth gauge).
    pub fn retired_backlog(&self) -> usize {
        (0..self.max_threads()).map(|t| self.retired_count(t)).sum()
    }

    /// The installed reclaim sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Number of thread rows in the domain.
    pub fn max_threads(&self) -> usize {
        self.matrix.max_threads()
    }

    /// Hazard slots per thread.
    pub fn k(&self) -> usize {
        self.matrix.k()
    }

    /// Publish `ptr` in hazard slot `index` of thread `tid` and return it.
    #[inline]
    pub fn protect_ptr(&self, tid: usize, index: usize, ptr: *mut T) -> *mut T {
        self.telemetry.bump(tid, CounterId::HpProtect);
        self.matrix.protect(tid, index, ptr)
    }

    /// One load-publish-validate round over `src`; see
    /// [`HazardPointers::try_protect`](crate::HazardPointers::try_protect).
    #[inline]
    pub fn try_protect(
        &self,
        tid: usize,
        index: usize,
        src: &turnq_sync::atomic::AtomicPtr<T>,
    ) -> Result<*mut T, *mut T> {
        self.telemetry.bump(tid, CounterId::HpProtect);
        // ORDERING(chp.try-candidate): ACQUIRE — candidate load;
        // staleness is caught by the validation below (see
        // HazardPointers::try_protect). pairs=extern(the release that
        // published the candidate is the caller's source site)
        let ptr = src.load(ord::ACQUIRE);
        self.matrix.protect(tid, index, ptr);
        // ORDERING(chp.try-validate): SEQ_CST — validating re-load,
        // ordered after the SC protect store (StoreLoad vs the retire
        // scan's SC fence).
        let now = src.load(ord::SEQ_CST);
        if now == ptr {
            Ok(ptr)
        } else {
            Err(now)
        }
    }

    /// Clear hazard slot `index` of thread `tid`.
    #[inline]
    pub fn clear_one(&self, tid: usize, index: usize) {
        self.matrix.clear_one(tid, index);
    }

    /// Clear all hazard slots of thread `tid`.
    #[inline]
    pub fn clear(&self, tid: usize) {
        self.matrix.clear(tid);
    }

    /// Whether any thread currently protects `ptr`.
    pub fn is_protected(&self, ptr: *mut T) -> bool {
        self.matrix.is_protected(ptr)
    }

    /// Number of objects thread `tid` has retired but not yet freed.
    pub fn retired_count(&self, tid: usize) -> usize {
        // ORDERING(chp.backlog-gauge): RELAXED — monitoring gauge; the
        // list is owner-private.
        self.retired[tid].len.load(ord::RELAXED)
    }

    /// Retire `ptr`; free every retired entry of this thread that is both
    /// unprotected *and* reclaimable per its condition.
    ///
    /// # Safety
    ///
    /// Same contract as
    /// [`HazardPointers::retire`](crate::HazardPointers::retire), with one
    /// relaxation: the object
    /// may still be reachable through shared variables *for reading fields
    /// covered by the condition* (in KP: the atomic item slot). The
    /// condition must only become true once no thread will dereference the
    /// object again.
    pub unsafe fn retire(&self, tid: usize, ptr: *mut T) {
        let row = &self.retired[tid];
        // SAFETY(tid-exclusive): `tid` exclusivity (caller contract).
        let list = unsafe { &mut *row.list.get() };
        self.telemetry.bump(tid, CounterId::ChpRetire);
        list.push(ptr);
        self.scan(tid, list);
        // ORDERING(chp.backlog-gauge): RELAXED — backlog gauge mirror (see
        // retired_count).
        row.len.store(list.len(), ord::RELAXED);
    }

    /// Re-run the scan without retiring anything new. Useful when a
    /// condition may have become true since the last retire on this thread.
    ///
    /// # Safety
    ///
    /// `tid` is the caller's registered index (exclusive use).
    pub unsafe fn flush(&self, tid: usize) {
        let row = &self.retired[tid];
        // SAFETY(tid-exclusive): `tid` exclusivity (caller contract).
        let list = unsafe { &mut *row.list.get() };
        self.scan(tid, list);
        // ORDERING(chp.backlog-gauge): RELAXED — backlog gauge mirror (see
        // retired_count).
        row.len.store(list.len(), ord::RELAXED);
    }

    fn scan(&self, tid: usize, list: &mut Vec<*mut T>) {
        self.telemetry.bump(tid, CounterId::ChpScan);
        // ORDERING(chp.scan-fence): SEQ_CST fence — scan-side half of the protect/scan
        // Dekker (see HazardPointers::retire); licenses the acquire slot
        // loads in `HpMatrix::is_protected` and additionally orders the
        // `can_reclaim` condition reads below against the consuming
        // thread's item-null store.
        fence(ord::SEQ_CST);
        let mut reclaimed = 0u64;
        let mut i = 0;
        while i < list.len() {
            let candidate = list[i];
            // SAFETY(retired-alive): retired objects stay allocated until
            // this scan reclaims them, so reading the condition is
            // in-bounds; the condition only reads atomics (trait
            // contract).
            let reclaimable = unsafe { (*candidate).can_reclaim() };
            if reclaimable && !self.matrix.is_protected(candidate) {
                list.swap_remove(i);
                reclaimed += 1;
                // SAFETY(sink-contract): unprotected, condition satisfied
                // — per the trait contract nothing will dereference it
                // again. The sink becomes sole owner.
                unsafe { self.sink.reclaim(tid, candidate) };
            } else {
                i += 1;
            }
        }
        self.telemetry.add(tid, CounterId::ChpReclaim, reclaimed);
    }
}

impl<T: ConditionalReclaim, S: ReclaimSink<T>> Drop for ConditionalHazardPointers<T, S> {
    fn drop(&mut self) {
        // Exclusive access at drop: conditions are moot, deliver everything
        // to the sink.
        for (tid, row) in self.retired.iter().enumerate() {
            // SAFETY(drop-exclusive): `&mut self` in Drop — exclusive
            // access to every row; the sink call inherits it.
            let list = unsafe { &mut *row.list.get() };
            for &ptr in list.iter() {
                unsafe { self.sink.reclaim(tid, ptr) };
            }
            list.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Gated {
        open: AtomicBool,
        drops: Arc<AtomicUsize>,
    }

    impl ConditionalReclaim for Gated {
        fn can_reclaim(&self) -> bool {
            self.open.load(Ordering::SeqCst)
        }
    }

    impl Drop for Gated {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn gated(open: bool, drops: &Arc<AtomicUsize>) -> *mut Gated {
        Box::into_raw(Box::new(Gated {
            open: AtomicBool::new(open),
            drops: Arc::clone(drops),
        }))
    }

    #[test]
    fn open_condition_frees_like_plain_hp() {
        let drops = Arc::new(AtomicUsize::new(0));
        let chp: ConditionalHazardPointers<Gated> = ConditionalHazardPointers::new(2, 1);
        let p = gated(true, &drops);
        // SAFETY: fresh `Box::into_raw` pointer owned by this test, unlinked, retired exactly once.
        unsafe { chp.retire(0, p) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn closed_condition_defers_even_when_unprotected() {
        let drops = Arc::new(AtomicUsize::new(0));
        let chp: ConditionalHazardPointers<Gated> = ConditionalHazardPointers::new(2, 1);
        let p = gated(false, &drops);
        unsafe { chp.retire(0, p) };
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(chp.retired_count(0), 1);

        // Open the condition "from the consuming thread" and flush.
        // SAFETY: `p` is retired but not freed (condition closed), so still allocated.
        unsafe { (*p).open.store(true, Ordering::SeqCst) };
        unsafe { chp.flush(0) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(chp.retired_count(0), 0);
    }

    #[test]
    fn protection_defers_even_when_condition_open() {
        let drops = Arc::new(AtomicUsize::new(0));
        let chp: ConditionalHazardPointers<Gated> = ConditionalHazardPointers::new(2, 1);
        let p = gated(true, &drops);
        chp.protect_ptr(1, 0, p);
        unsafe { chp.retire(0, p) };
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        chp.clear(1);
        // SAFETY: the tid is this (single-threaded) test's own row.
        unsafe { chp.flush(0) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drop_frees_regardless_of_condition() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let chp: ConditionalHazardPointers<Gated> = ConditionalHazardPointers::new(1, 1);
            let p = gated(false, &drops);
            unsafe { chp.retire(0, p) };
            assert_eq!(drops.load(Ordering::SeqCst), 0);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn mixed_batch_frees_only_eligible() {
        let drops = Arc::new(AtomicUsize::new(0));
        let chp: ConditionalHazardPointers<Gated> = ConditionalHazardPointers::new(2, 1);
        let open_unprotected = gated(true, &drops);
        let closed = gated(false, &drops);
        let open_protected = gated(true, &drops);
        chp.protect_ptr(1, 0, open_protected);
        // SAFETY: fresh `Box::into_raw` pointers owned by this test, each
        // unlinked and retired exactly once.
        unsafe {
            chp.retire(0, closed);
            chp.retire(0, open_protected);
            chp.retire(0, open_unprotected);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1); // only open_unprotected
        assert_eq!(chp.retired_count(0), 2);
        // Cleanup via Drop.
    }
}
