//! Plain hazard pointers that scan once the retired list reaches the
//! paper's backlog bound.

use turnq_sync::cell::UnsafeCell;
use turnq_sync::atomic::{fence, AtomicUsize};
use turnq_sync::ord;

use crossbeam_utils::CachePadded;

use turnq_telemetry::{CounterId, TelemetryHandle};

use crate::matrix::HpMatrix;
use crate::sink::{BoxDropSink, ReclaimSink};

/// A per-thread list of retired-but-not-yet-freed pointers.
///
/// Only the owning thread (`tid`) touches `list`; the atomic `len` mirror
/// exists so other threads (tests, reports) can observe the backlog safely.
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

/// Hazard-pointer domain for objects of type `T`.
///
/// All pointers passed to [`retire`](Self::retire) must originate from
/// [`Box::into_raw`]. What happens to a pointer once the scan proves it
/// unreachable is decided by the domain's [`ReclaimSink`] `S`: the default
/// [`BoxDropSink`] frees it (`drop(Box::from_raw(p))`, the classic HP
/// behavior); queues can install a sink that recycles nodes instead.
///
/// The *protect* operation is a plain publication
/// ([`protect_ptr`](Self::protect_ptr)); the wait-free usage pattern
/// (publish, then re-validate the source, charging failures to the caller's
/// bounded loop — paper Algorithm 5) is the caller's responsibility, or use
/// the [`try_protect`](Self::try_protect) convenience which performs one
/// load-publish-validate round.
pub struct HazardPointers<T, S: ReclaimSink<T> = BoxDropSink> {
    matrix: HpMatrix<T>,
    retired: Box<[CachePadded<RetiredList<T>>]>,
    sink: S,
    /// Observer-only probes (protect/scan/retire/reclaim counters);
    /// disconnected unless an owner attaches its sheet.
    telemetry: TelemetryHandle,
}

// SAFETY(send-sync): the raw pointers inside are managed under the HP protocol; the
// per-thread retired lists are only mutated by their owning thread (enforced
// by the `tid` contract on the unsafe methods). `S` is `Send + Sync` by the
// `ReclaimSink` supertraits.
unsafe impl<T: Send, S: ReclaimSink<T>> Send for HazardPointers<T, S> {}
unsafe impl<T: Send, S: ReclaimSink<T>> Sync for HazardPointers<T, S> {}

impl<T> HazardPointers<T> {
    /// A domain for `max_threads` threads with `k` hazard slots each,
    /// freeing to the allocator.
    pub fn new(max_threads: usize, k: usize) -> Self {
        Self::with_sink(max_threads, k, BoxDropSink)
    }
}

impl<T, S: ReclaimSink<T>> HazardPointers<T, S> {
    /// A domain delivering reclaimed pointers to `sink` instead of freeing
    /// them. The scan logic — and therefore the
    /// [`retired_bound`](crate::retired_bound) backlog guarantee — is
    /// identical to the default domain; only the disposal step changes.
    pub fn with_sink(max_threads: usize, k: usize, sink: S) -> Self {
        let retired = (0..max_threads)
            .map(|_| CachePadded::new(RetiredList::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        HazardPointers {
            matrix: HpMatrix::new(max_threads, k),
            retired,
            sink,
            telemetry: TelemetryHandle::disconnected(),
        }
    }

    /// Record this domain's HP traffic into `handle`'s sheet (counters:
    /// `hp_protect`, `hp_scan`, `hp_retire`, `hp_reclaim`). Telemetry is
    /// observation only — attaching changes no reclamation behavior.
    pub fn attach_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = handle;
    }

    /// Total retired-but-unfreed objects across all thread rows (the
    /// backlog gauge owners fold into telemetry snapshots).
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

    /// Publish `ptr` in hazard slot `index` of thread `tid` and return it
    /// (the paper's `hp.protectPtr(index, ptr)`).
    ///
    /// Publishing alone does **not** make a dereference safe — the caller
    /// must re-validate the shared source after publishing, exactly as in
    /// the paper's listings.
    #[inline]
    pub fn protect_ptr(&self, tid: usize, index: usize, ptr: *mut T) -> *mut T {
        self.telemetry.bump(tid, CounterId::HpProtect);
        self.matrix.protect(tid, index, ptr)
    }

    /// The pointer currently published in hazard slot `index` of thread
    /// `tid` — the thread's own last [`protect_ptr`](Self::protect_ptr)
    /// or [`clear`](Self::clear) store.
    ///
    /// Exists for the *HP-caching* pattern (DESIGN.md §6d): a caller that
    /// has kept a slot continuously published since a successful
    /// protect + validate round may compare a fresh load of the shared
    /// source against this value. If they match, the covered object was
    /// never reclaimed in between (every retire scan observed the
    /// hazard), so no ABA is possible, the old validation verdict still
    /// stands, and the protect/validate round — two ordered accesses —
    /// can be skipped. Only the owning thread's reads carry that
    /// meaning; any other `tid` yields a momentary snapshot.
    #[inline]
    pub fn protected(&self, tid: usize, index: usize) -> *mut T {
        self.matrix.load_own(tid, index)
    }

    /// One load-publish-validate round over `src` (paper Algorithm 5,
    /// `waitFreeBoundedMethod` body): returns `Ok(ptr)` if `src` still held
    /// `ptr` after publication (safe to dereference while the slot stays
    /// published), `Err(new_value)` if `src` changed — which proves some
    /// other thread completed a step, so the caller advances its own
    /// bounded loop.
    #[inline]
    pub fn try_protect(
        &self,
        tid: usize,
        index: usize,
        src: &turnq_sync::atomic::AtomicPtr<T>,
    ) -> Result<*mut T, *mut T> {
        self.telemetry.bump(tid, CounterId::HpProtect);
        // ORDERING(hp.try-candidate): ACQUIRE — candidate load; any stale
        // value is caught by the validation below, so this read needs no SC
        // slot of its own. pairs=extern(the release that published the
        // candidate is the caller's source site, e.g. a queue's link CAS)
        let ptr = src.load(ord::ACQUIRE);
        self.matrix.protect(tid, index, ptr);
        // ORDERING(hp.try-validate): SEQ_CST — the validating re-load:
        // must be ordered after the SC protect store (StoreLoad) so that a
        // retire scan missing our hazard implies this load sees the
        // post-unlink value and fails.
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

    /// Clear all hazard slots of thread `tid` (the paper's `hp.clear()`).
    #[inline]
    pub fn clear(&self, tid: usize) {
        self.matrix.clear(tid);
    }

    /// Whether any thread currently protects `ptr` (used by tests and by
    /// the epoch-comparison demo).
    pub fn is_protected(&self, ptr: *mut T) -> bool {
        self.matrix.is_protected(ptr)
    }

    /// Number of objects thread `tid` has retired but not yet freed.
    ///
    /// Bounded by [`retired_bound`](crate::retired_bound): a retire scans
    /// once the list reaches that length, and each entry that survives a
    /// scan is pinned by one of the `max_threads × k` hazard slots.
    pub fn retired_count(&self, tid: usize) -> usize {
        // ORDERING(hp.backlog-gauge): RELAXED — monitoring gauge; readers
        // want a recent value, not an ordered one, and the list itself is
        // owner-private.
        self.retired[tid].len.load(ord::RELAXED)
    }

    /// Retire `ptr`. Once the calling thread's retired list holds
    /// [`retired_bound`](crate::retired_bound)`(max_threads, k)` entries,
    /// scan it: every entry no hazard slot protects is handed to the sink.
    ///
    /// A scan leaves at most `max_threads × k` survivors, each pinned by a
    /// distinct slot, so the list never exceeds the bound — the same peak
    /// the paper's `R = 0` (scan on every retire) reaches mid-scan — while
    /// scans drop to about one per `max_threads × k + 1 − pinned` retires.
    /// An unprotected entry is freed no later than the retire that brings
    /// the list to the bound.
    ///
    /// A scanning retire does `O(bound × max_threads × k)` work, so reclaim
    /// is wait-free bounded (paper Table 2, first row) — provided the
    /// sink's `reclaim` is itself bounded, which holds for the allocator
    /// sink and the node-pool sink alike.
    ///
    /// # Safety
    ///
    /// * `ptr` came from `Box::into_raw` for this `T`;
    /// * `ptr` has been unlinked from every shared variable, so no thread
    ///   can newly reach it (threads holding stale copies must follow the
    ///   publish-validate discipline and will not dereference);
    /// * `ptr` is retired at most once across all threads;
    /// * `tid` is the caller's registered index and no other thread uses it
    ///   concurrently.
    pub unsafe fn retire(&self, tid: usize, ptr: *mut T) {
        self.telemetry.bump(tid, CounterId::HpRetire);
        let row = &self.retired[tid];
        // SAFETY(tid-exclusive): `tid` exclusivity (caller contract)
        // makes this the only mutable access to the list.
        let list = unsafe { &mut *row.list.get() };
        list.push(ptr);
        if list.len() >= crate::retired_bound(self.max_threads(), self.k()) {
            self.telemetry.bump(tid, CounterId::HpScan);
            // ORDERING(hp.scan-fence): SEQ_CST fence — scan-side half of the protect/scan
            // Dekker. A reader's SC protect store ordered before this fence is
            // guaranteed visible to the acquire slot loads below (C11 SC-fence
            // rule); one ordered after it has its SC validating re-load ordered
            // after the unlink that happened-before this retire, so the reader
            // observes the change and never dereferences. This single fence is
            // what lets `HpMatrix::is_protected` scan with acquire loads.
            fence(ord::SEQ_CST);
            let mut reclaimed = 0u64;
            let mut i = 0;
            while i < list.len() {
                let candidate = list[i];
                if self.matrix.is_protected(candidate) {
                    i += 1;
                } else {
                    list.swap_remove(i);
                    reclaimed += 1;
                    // SAFETY(retire-unique): unreachable from shared memory (caller contract)
                    // and not protected by any published-and-validated hazard:
                    // a reader that published after unlinking fails validation
                    // and never dereferences. The sink becomes sole owner.
                    unsafe { self.sink.reclaim(tid, candidate) };
                }
            }
            self.telemetry.add(tid, CounterId::HpReclaim, reclaimed);
        }
        // ORDERING(hp.backlog-gauge): RELAXED — backlog gauge mirror (see
        // retired_count).
        row.len.store(list.len(), ord::RELAXED);
    }
}

impl<T, S: ReclaimSink<T>> Drop for HazardPointers<T, S> {
    fn drop(&mut self) {
        // Exclusive access: deliver everything still pending to the sink.
        // Any pointer left here is owned by the domain per the retire
        // contract, and protection no longer matters — no thread can be
        // inside a protected dereference while the domain is being dropped.
        for (tid, row) in self.retired.iter().enumerate() {
            // SAFETY(drop-exclusive): `&mut self` in Drop — exclusive
            // access to every row; the sink call inherits that exclusive
            // ownership.
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
    use turnq_sync::atomic::AtomicPtr;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counted(drops: &Arc<AtomicUsize>) -> *mut DropCounter {
        Box::into_raw(Box::new(DropCounter(Arc::clone(drops))))
    }

    /// `max_threads × k` for a domain: the most entries a scan can leave.
    fn slots<T>(hp: &HazardPointers<T>) -> usize {
        hp.max_threads() * hp.k()
    }

    #[test]
    fn unprotected_retires_wait_for_the_bound_then_all_free() {
        let drops = Arc::new(AtomicUsize::new(0));
        let hp: HazardPointers<DropCounter> = HazardPointers::new(2, 2);
        let h = slots(&hp);
        for round in 1..=3 {
            for pending in 1..=h {
                // SAFETY: fresh `Box::into_raw` pointer owned by this test, unlinked, retired exactly once.
                unsafe { hp.retire(0, counted(&drops)) };
                assert_eq!(hp.retired_count(0), pending, "no scan below the bound");
            }
            assert_eq!(drops.load(Ordering::SeqCst), (round - 1) * (h + 1));
            // Retire H+1 brings the list to `retired_bound` and scans.
            unsafe { hp.retire(0, counted(&drops)) };
            assert_eq!(drops.load(Ordering::SeqCst), round * (h + 1));
            assert_eq!(hp.retired_count(0), 0);
        }
    }

    #[test]
    fn protected_retire_is_deferred_until_clear() {
        let drops = Arc::new(AtomicUsize::new(0));
        let hp: HazardPointers<DropCounter> = HazardPointers::new(2, 2);
        let h = slots(&hp);
        let p = counted(&drops);
        // Another thread protects `p`.
        hp.protect_ptr(1, 0, p);
        // SAFETY: fresh `Box::into_raw` pointers owned by this test, unlinked, each retired exactly once.
        unsafe { hp.retire(0, p) };
        for _ in 0..h {
            unsafe { hp.retire(0, counted(&drops)) };
        }
        // The scan at the bound freed every unprotected entry and kept `p`.
        assert_eq!(drops.load(Ordering::SeqCst), h);
        assert_eq!(hp.retired_count(0), 1);

        hp.clear(1);
        // The next scan, H retires later, frees `p` with the rest.
        for _ in 0..h {
            unsafe { hp.retire(0, counted(&drops)) };
        }
        assert_eq!(drops.load(Ordering::SeqCst), 2 * h + 1);
        assert_eq!(hp.retired_count(0), 0);
    }

    #[test]
    fn own_protection_also_defers() {
        // The scan does not special-case the retiring thread's own slots;
        // the paper's queues always clear before retiring.
        let drops = Arc::new(AtomicUsize::new(0));
        let hp: HazardPointers<DropCounter> = HazardPointers::new(1, 1);
        let p = counted(&drops);
        hp.protect_ptr(0, 0, p);
        // SAFETY: fresh `Box::into_raw` pointer owned by this test, unlinked, retired exactly once.
        unsafe { hp.retire(0, p) };
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        hp.clear(0);
        let q = counted(&drops);
        // SAFETY: fresh `Box::into_raw` pointer owned by this test, unlinked, retired exactly once.
        unsafe { hp.retire(0, q) };
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn drop_frees_pending_retirees() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let hp: HazardPointers<DropCounter> = HazardPointers::new(2, 1);
            let p = counted(&drops);
            hp.protect_ptr(1, 0, p);
            unsafe { hp.retire(0, p) };
            assert_eq!(drops.load(Ordering::SeqCst), 0);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn try_protect_detects_moved_source() {
        let hp: HazardPointers<u64> = HazardPointers::new(1, 1);
        let a = Box::into_raw(Box::new(1u64));
        let b = Box::into_raw(Box::new(2u64));
        let src = AtomicPtr::new(a);
        assert_eq!(hp.try_protect(0, 0, &src), Ok(a));
        src.store(b, Ordering::SeqCst);
        // try_protect re-loads the source first, so after a quiescent store
        // it succeeds on the new value (the Err path needs a mutation racing
        // the publish, which the stress test below exercises).
        assert_eq!(hp.try_protect(0, 0, &src), Ok(b));
        // SAFETY: sole ownership — allocated by this test, freed exactly once.
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn retired_backlog_stays_bounded() {
        let max_threads = 4;
        let k = 2;
        let hp: HazardPointers<u64> = HazardPointers::new(max_threads, k);
        // Thread 1..4 each protect two objects; thread 0 retires a stream
        // of objects, some of which are the protected ones.
        let mut protected = Vec::new();
        for tid in 1..max_threads {
            for slot in 0..k {
                let p = Box::into_raw(Box::new(0u64));
                hp.protect_ptr(tid, slot, p);
                protected.push(p);
            }
        }
        for &p in &protected {
            // SAFETY: fresh `Box::into_raw` pointer owned by this test, unlinked, retired exactly once.
            unsafe { hp.retire(0, p) };
        }
        let mut scans = 0;
        for _ in 0..1000 {
            let before = hp.retired_count(0);
            let p = Box::into_raw(Box::new(0u64));
            unsafe { hp.retire(0, p) };
            assert!(
                hp.retired_count(0) <= crate::retired_bound(max_threads, k),
                "backlog exceeded the wait-free bound"
            );
            if hp.retired_count(0) <= before {
                // A scan ran: only the protected ones are still pending.
                assert_eq!(hp.retired_count(0), protected.len());
                scans += 1;
            }
        }
        assert!(scans > 0, "the backlog never reached the bound");
        // Cleanup happens in HazardPointers::drop.
    }

    #[test]
    fn custom_sink_receives_reclaimed_pointers() {
        use crate::sink::ReclaimSink;
        use std::sync::Mutex;

        /// Collects reclaimed pointers (as addresses, keeping the sink
        /// trivially `Send + Sync`) instead of freeing them.
        struct Collect {
            got: Arc<Mutex<Vec<(usize, usize)>>>,
        }
        impl ReclaimSink<u64> for Collect {
            // SAFETY: contract inherited from `ReclaimSink::reclaim` — `ptr` is unreachable and exclusively owned.
            unsafe fn reclaim(&self, tid: usize, ptr: *mut u64) {
                self.got.lock().unwrap().push((tid, ptr as usize));
            }
        }

        let got = Arc::new(Mutex::new(Vec::new()));
        // Two slots in total, so the third retire scans.
        let hp: HazardPointers<u64, Collect> =
            HazardPointers::with_sink(2, 1, Collect { got: Arc::clone(&got) });
        let free_now = Box::into_raw(Box::new(7u64));
        let pinned = Box::into_raw(Box::new(8u64));
        let third = Box::into_raw(Box::new(9u64));
        hp.protect_ptr(1, 0, pinned);
        // SAFETY: fresh `Box::into_raw` pointers owned by this test, unlinked, each retired exactly once.
        unsafe {
            hp.retire(0, free_now);
            hp.retire(0, pinned);
        }
        assert!(got.lock().unwrap().is_empty(), "scanned below the bound");
        unsafe { hp.retire(0, third) };
        // The unprotected pointers reached the sink from tid 0; the
        // protected one is still in the backlog.
        assert_eq!(
            got.lock().unwrap().as_slice(),
            &[(0, free_now as usize), (0, third as usize)]
        );
        assert_eq!(hp.retired_count(0), 1);

        // Dropping the domain flushes the backlog into the sink too.
        drop(hp);
        let collected = std::mem::take(&mut *got.lock().unwrap());
        assert_eq!(
            collected,
            vec![
                (0, free_now as usize),
                (0, third as usize),
                (0, pinned as usize)
            ]
        );
        for (_, addr) in collected {
            // SAFETY: round-trips the exact Box::into_raw addresses above;
            // the sink captured instead of freeing, so this is the one free.
            unsafe { drop(Box::from_raw(addr as *mut u64)) };
        }
    }

    #[test]
    fn concurrent_protect_retire_stress() {
        const THREADS: usize = 4;
        const OPS: usize = 2_000;
        let drops = Arc::new(AtomicUsize::new(0));
        let hp: Arc<HazardPointers<DropCounter>> = Arc::new(HazardPointers::new(THREADS, 1));
        let shared: Arc<AtomicPtr<DropCounter>> = Arc::new(AtomicPtr::new(counted(&drops)));
        let allocated = Arc::new(AtomicUsize::new(1));

        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let hp = Arc::clone(&hp);
                let shared = Arc::clone(&shared);
                let drops = Arc::clone(&drops);
                let allocated = Arc::clone(&allocated);
                s.spawn(move || {
                    for _ in 0..OPS {
                        // Install a fresh object; retire the one we displaced.
                        let fresh = counted(&drops);
                        allocated.fetch_add(1, Ordering::SeqCst);
                        // Publish-validate loop to read the current object.
                        loop {
                            match hp.try_protect(tid, 0, &shared) {
                                Ok(cur) => {
                                    // Safe read while protected.
                                    // SAFETY: `cur` is validated-protected by this thread's hazard slot.
                                    let _ = unsafe { &(*cur).0 };
                                    if shared
                                        .compare_exchange(
                                            cur,
                                            fresh,
                                            Ordering::SeqCst,
                                            Ordering::SeqCst,
                                        )
                                        .is_ok()
                                    {
                                        hp.clear(tid);
                                        unsafe { hp.retire(tid, cur) };
                                        break;
                                    }
                                }
                                Err(_) => continue,
                            }
                        }
                    }
                });
            }
        });

        // Retire the final survivor.
        let last = shared.load(Ordering::SeqCst);
        // SAFETY: fresh `Box::into_raw` pointer owned by this test, unlinked, retired exactly once.
        unsafe { hp.retire(0, last) };
        drop(Arc::try_unwrap(hp).ok().expect("sole owner"));
        assert_eq!(
            drops.load(Ordering::SeqCst),
            allocated.load(Ordering::SeqCst),
            "every allocated object must be dropped exactly once"
        );
    }
}
