//! The shared hazard-pointer slot matrix used by both plain and conditional
//! hazard pointers.

use turnq_sync::atomic::AtomicPtr;
use turnq_sync::ord;

use crossbeam_utils::CachePadded;

/// Slots in one row: as many pointers as fill one `CachePadded` line
/// (128 bytes on x86_64/aarch64). A matrix may use at most this many
/// hazard indices per thread.
pub(crate) const ROW_SLOTS: usize = 16;

/// One thread's hazard slots, alone on their cache line.
type Row<T> = CachePadded<[AtomicPtr<T>; ROW_SLOTS]>;

/// A `max_threads × k` matrix of hazard slots.
///
/// Row `tid` belongs exclusively to the thread registered under index `tid`;
/// columns are the per-thread hazard indices (`kHpTail`, `kHpHead`, … in the
/// paper's listings).
pub(crate) struct HpMatrix<T> {
    max_threads: usize,
    k: usize,
    /// One padded row per thread; slots `k..ROW_SLOTS` stay null. Only the
    /// owning thread writes a row, so its `k` slots share one line without
    /// false sharing; padding keeps one thread's protects off the lines of
    /// every other row. A retire scan pulls one line per thread.
    rows: Box<[Row<T>]>,
}

impl<T> HpMatrix<T> {
    pub(crate) fn new(max_threads: usize, k: usize) -> Self {
        assert!(max_threads > 0, "max_threads must be non-zero");
        assert!(k > 0, "need at least one hazard slot per thread");
        assert!(
            k <= ROW_SLOTS,
            "at most ROW_SLOTS = {ROW_SLOTS} hazard slots per thread, got {k}"
        );
        let rows = (0..max_threads)
            .map(|_| CachePadded::new(std::array::from_fn(|_| AtomicPtr::default())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        HpMatrix {
            max_threads,
            k,
            rows,
        }
    }

    pub(crate) fn max_threads(&self) -> usize {
        self.max_threads
    }

    pub(crate) fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn slot(&self, tid: usize, index: usize) -> &AtomicPtr<T> {
        debug_assert!(tid < self.max_threads, "tid {tid} out of range");
        debug_assert!(index < self.k, "hazard index {index} out of range");
        &self.rows[tid][index]
    }

    /// Publish `ptr` in slot (`tid`, `index`).
    ///
    /// The store is `SeqCst`: the load-store-load validation pattern of
    /// paper Algorithm 5 needs the store to be globally ordered before the
    /// validating re-load (a StoreLoad that no weaker ordering provides),
    /// and the retire-side scan — which runs behind a `SeqCst` fence — must
    /// either observe this store or be observed by the validation.
    #[inline]
    pub(crate) fn protect(&self, tid: usize, index: usize, ptr: *mut T) -> *mut T {
        // ORDERING(mtx.protect-publish): SEQ_CST — hazard publication,
        // reader half of the protect/scan Dekker: the SC store and the SC
        // validating re-load in `try_protect` bracket the slot write into
        // the single total order the retire scan's SC fence also
        // participates in (Alg. 5). pairs=mtx.scan-read
        self.slot(tid, index).store(ptr, ord::SEQ_CST);
        ptr
    }

    /// The pointer currently published in slot (`tid`, `index`).
    ///
    /// Intended for the slot's *owner*: only thread `tid` ever stores to
    /// its row, so for the owner this reads back its own last store and
    /// needs no ordering (there is no foreign write to synchronize with).
    #[inline]
    pub(crate) fn load_own(&self, tid: usize, index: usize) -> *mut T {
        // ORDERING(mtx.slot-own): RELAXED — own-slot readback; see doc
        // comment.
        self.slot(tid, index).load(ord::RELAXED)
    }

    /// Clear one slot.
    #[inline]
    pub(crate) fn clear_one(&self, tid: usize, index: usize) {
        // ORDERING(mtx.slot-clear): RELEASE — un-publication: orders the
        // protected dereferences (program-order before this) before the
        // clear, so a scan that observes the null cannot reclaim under a
        // still-running dereference. Nothing is read after the store, so no
        // acquire side. pairs=mtx.scan-read
        self.slot(tid, index).store(std::ptr::null_mut(), ord::RELEASE);
    }

    /// Clear all slots of `tid` (paper's `hp.clear()`).
    ///
    /// Stores only into slots that hold a pointer: a null store into a null
    /// slot still takes the row's line exclusive and invalidates the copy a
    /// concurrent retire scan just read.
    #[inline]
    pub(crate) fn clear(&self, tid: usize) {
        for index in 0..self.k {
            if !self.load_own(tid, index).is_null() {
                self.clear_one(tid, index);
            }
        }
    }

    /// Whether any thread currently protects `ptr`.
    ///
    /// The slot loads are `Acquire`, **not** `SeqCst`: every retire-scan
    /// caller issues one `SeqCst` fence before its scan loop (see
    /// `HazardPointers::retire` / `ConditionalHazardPointers::scan`). By the
    /// C11 SC-fence rule, any `SeqCst` protect store ordered before that
    /// fence is visible to these loads; a protect store ordered after the
    /// fence has its validating re-load ordered after the unlink the caller
    /// performed before retiring, so validation fails and the reader never
    /// dereferences. One fence per scan replaces one full barrier per slot.
    pub(crate) fn is_protected(&self, ptr: *mut T) -> bool {
        self.rows
            .iter()
            .flat_map(|row| &row[..self.k])
            // ORDERING(mtx.scan-read): ACQUIRE — retire-scan slot read;
            // missing-hazard freedom comes from the caller's SC fence (doc
            // above), acquire additionally orders the reclaim after the
            // observed clear. pairs=mtx.protect-publish,mtx.slot-clear
            .any(|slot| slot.load(ord::ACQUIRE) == ptr)
    }

    /// Current value of slot (`tid`, `index`) — used by tests.
    #[cfg(test)]
    pub(crate) fn peek(&self, tid: usize, index: usize) -> *mut T {
        self.slot(tid, index).load(ord::SEQ_CST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protect_publishes_and_clear_removes() {
        let m: HpMatrix<u32> = HpMatrix::new(2, 3);
        let p = Box::into_raw(Box::new(7u32));
        assert!(!m.is_protected(p));
        assert_eq!(m.protect(0, 1, p), p);
        assert!(m.is_protected(p));
        assert_eq!(m.peek(0, 1), p);
        m.clear_one(0, 1);
        assert!(!m.is_protected(p));
        // SAFETY: sole ownership — allocated by this test, freed exactly once.
        unsafe { drop(Box::from_raw(p)) };
    }

    #[test]
    fn clear_wipes_all_columns() {
        let m: HpMatrix<u32> = HpMatrix::new(1, 4);
        let ptrs: Vec<*mut u32> = (0..4).map(|v| Box::into_raw(Box::new(v))).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            m.protect(0, i, p);
        }
        m.clear(0);
        for &p in &ptrs {
            assert!(!m.is_protected(p));
            unsafe { drop(Box::from_raw(p)) };
        }
    }

    #[test]
    fn rows_are_independent() {
        let m: HpMatrix<u32> = HpMatrix::new(2, 1);
        let p = Box::into_raw(Box::new(1u32));
        m.protect(0, 0, p);
        m.clear(1); // clearing the other row must not unprotect
        assert!(m.is_protected(p));
        m.clear(0);
        assert!(!m.is_protected(p));
        // SAFETY: sole ownership — allocated by this test, freed exactly once.
        unsafe { drop(Box::from_raw(p)) };
    }

    /// A row's slots share one 128-byte line and no two rows share one: a
    /// retire scan pulls one line per thread, and a protect or clear
    /// dirties only its own thread's line.
    #[test]
    fn each_row_fills_one_line_of_its_own() {
        const LINE: usize = 128;
        let threads = 3;
        let m: HpMatrix<u64> = HpMatrix::new(threads, ROW_SLOTS);
        let line = |tid, index| m.slot(tid, index) as *const AtomicPtr<u64> as usize / LINE;
        for tid in 0..threads {
            for index in 1..ROW_SLOTS {
                assert_eq!(
                    line(tid, index),
                    line(tid, 0),
                    "row {tid}: slot {index} is off the row's line"
                );
            }
            for other in 0..tid {
                assert_ne!(
                    line(tid, 0),
                    line(other, 0),
                    "rows {other} and {tid} share a line"
                );
            }
        }
    }

    #[test]
    fn clear_after_protecting_one_slot_leaves_all_null() {
        let m: HpMatrix<u32> = HpMatrix::new(2, 3);
        let p = Box::into_raw(Box::new(5u32));
        m.protect(0, 0, p);
        m.clear(0);
        for index in 0..3 {
            assert!(m.peek(0, index).is_null(), "slot {index} not null");
        }
        assert!(!m.is_protected(p));
        // SAFETY: sole ownership — allocated by this test, freed exactly once.
        unsafe { drop(Box::from_raw(p)) };
    }

    #[test]
    #[should_panic(expected = "at most ROW_SLOTS")]
    fn more_slots_than_a_row_rejected() {
        let _: HpMatrix<u32> = HpMatrix::new(1, ROW_SLOTS + 1);
    }

    #[test]
    #[should_panic(expected = "max_threads must be non-zero")]
    fn zero_threads_rejected() {
        let _: HpMatrix<u32> = HpMatrix::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one hazard slot")]
    fn zero_k_rejected() {
        let _: HpMatrix<u32> = HpMatrix::new(1, 0);
    }
}
