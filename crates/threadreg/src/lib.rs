//! Dense per-thread slot registry — the paper's `getIndex()`.
//!
//! Every algorithm in the paper (Turn queue, Kogan–Petrank queue, hazard
//! pointers) indexes per-thread arrays (`enqueuers`, `deqself`, `deqhelp`,
//! `state`, the HP matrix, …) by a small dense integer: the thread id `tid`
//! in `0..MAX_THREADS`. The C++ artifact obtains it from a process-global
//! registry; here each [`ThreadRegistry`] instance hands out its own ids so
//! that independent queues can size their arrays independently.
//!
//! Properties:
//!
//! * **Acquisition is wait-free bounded.** A thread claims the first free
//!   slot with a `CAS(false → true)` scan. Each failed CAS means another
//!   thread permanently claimed that slot during the scan, and the scan
//!   never revisits a slot, so at most `capacity` CAS attempts happen.
//! * **Lookup is a TLS cache hit.** The id is memoized in a thread-local
//!   table keyed by registry id; steady-state cost is one TLS access plus a
//!   short vector scan.
//! * **Slots are recycled.** When a thread exits, its TLS destructor
//!   releases every slot it holds, so short-lived threads do not exhaust the
//!   registry. Slot reuse is safe for the queues in this workspace because
//!   all per-slot state is quiescent between operations (hazard pointers are
//!   cleared at the end of each call; `deqself`/`deqhelp` always hold a
//!   closed request between calls).

use std::cell::RefCell;
use std::fmt;
use turnq_sync::atomic::{AtomicBool, AtomicU64};
use turnq_sync::ord;
use std::sync::{Arc, Weak};

use crossbeam_utils::CachePadded;

/// Process-wide source of unique registry ids (used as TLS cache keys).
/// Claim/release totals use observer atomics (always std, never the model
/// checker's instrumented wrappers): they are measurement-only state the
/// registry logic never branches on, exactly like the node pool's stats
/// mirrors — see `turnq_sync::observer`.
use turnq_sync::observer;

static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

/// One registry slot: the ownership flag plus observer-only claim and
/// release tallies. The tallies use the owner-only plain load+store idiom
/// (no RMW): between a successful claim CAS and the release store the slot
/// belongs to exactly one thread, so its increments cannot be lost.
struct Slot {
    /// True while some live thread owns this index.
    in_use: AtomicBool,
    /// Times this slot was claimed (monotone).
    claims: observer::AtomicU64,
    /// Times this slot was released (monotone). Bumped *before* the
    /// `in_use` store so it still happens under slot ownership; a reader
    /// that sees `claims == releases` therefore knows every claimer has
    /// finished its release write.
    releases: observer::AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            in_use: AtomicBool::new(false),
            claims: observer::AtomicU64::new(0),
            releases: observer::AtomicU64::new(0),
        }
    }
}

/// Shared state of one registry.
struct Slots {
    /// Unique id of this registry instance, used as the TLS cache key.
    id: u64,
    /// Slot array; `in_use[i]` semantics live in [`Slot`].
    in_use: Box<[CachePadded<Slot>]>,
}

impl Slots {
    fn release(&self, index: usize) {
        let slot = &self.in_use[index];
        // ORDERING(tr.slot-peek): RELAXED — owner-only sanity check on
        // our own claim.
        debug_assert!(slot.in_use.load(ord::RELAXED));
        // Owner-only bump while the slot is still exclusively ours; the
        // Release store below publishes it together with the flag flip.
        let n = slot.releases.load(observer::Ordering::Relaxed);
        slot.releases.store(n + 1, observer::Ordering::Relaxed);
        // ORDERING(tr.slot-release): RELEASE — slot hand-back: orders
        // every per-slot access of the exiting thread (queue arrays indexed
        // by this tid, tallies) before the flip; the next claimer's acquire
        // CAS picks it up. pairs=tr.slot-claim,tr.count-read
        slot.in_use.store(false, ord::RELEASE);
    }
}

/// Error returned when more than `capacity` threads try to register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryFull {
    /// The capacity that was exhausted.
    pub capacity: usize,
}

impl fmt::Display for RegistryFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "thread registry full: more than {} concurrent threads",
            self.capacity
        )
    }
}

impl std::error::Error for RegistryFull {}

/// A registry handing out dense thread indices in `0..capacity`.
///
/// Cloning is cheap and shares the underlying slots, so a queue can clone
/// its registry into helper structures.
///
/// ```
/// use turnq_threadreg::ThreadRegistry;
///
/// let reg = ThreadRegistry::new(4);
/// let idx = reg.current_index();
/// assert!(idx < 4);
/// // Repeated calls from the same thread return the same index.
/// assert_eq!(reg.current_index(), idx);
/// ```
pub struct ThreadRegistry {
    slots: Arc<Slots>,
}

impl Clone for ThreadRegistry {
    fn clone(&self) -> Self {
        ThreadRegistry {
            slots: Arc::clone(&self.slots),
        }
    }
}

impl fmt::Debug for ThreadRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadRegistry")
            .field("id", &self.slots.id)
            .field("capacity", &self.capacity())
            .field("registered", &self.registered_count())
            .finish()
    }
}

struct TlsEntry {
    registry_id: u64,
    index: usize,
    /// Weak so a dead registry does not linger because of thread caches.
    slots: Weak<Slots>,
}

/// Thread-local cache of (registry → index) claims; the `Drop` impl gives
/// the slots back when the thread exits.
#[derive(Default)]
struct TlsCache {
    entries: Vec<TlsEntry>,
}

impl Drop for TlsCache {
    fn drop(&mut self) {
        for entry in &self.entries {
            if let Some(slots) = entry.slots.upgrade() {
                slots.release(entry.index);
            }
        }
    }
}

thread_local! {
    static CACHE: RefCell<TlsCache> = RefCell::new(TlsCache::default());
}

impl ThreadRegistry {
    /// Create a registry with `capacity` slots. `capacity` must be non-zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "registry capacity must be non-zero");
        let in_use = (0..capacity)
            .map(|_| CachePadded::new(Slot::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ThreadRegistry {
            slots: Arc::new(Slots {
                // ORDERING(tr.id-ticket): RELAXED — unique-id ticket;
                // only atomicity of the increment matters, nothing is
                // published through it.
                id: NEXT_REGISTRY_ID.fetch_add(1, ord::RELAXED),
                in_use,
            }),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.in_use.len()
    }

    /// Number of slots currently claimed by live threads.
    pub fn registered_count(&self) -> usize {
        self.slots
            .in_use
            .iter()
            // ORDERING(tr.count-read): ACQUIRE — pairs with the release
            // in Slots::release so a zero count implies the exiting
            // threads' slot writes are visible to the observer.
            // pairs=tr.slot-release
            .filter(|s| s.in_use.load(ord::ACQUIRE))
            .count()
    }

    /// Total slot claims ever made on this registry (observer counter;
    /// exact once claiming threads quiesce).
    pub fn slot_claims(&self) -> u64 {
        self.slots
            .in_use
            .iter()
            .map(|s| s.claims.load(observer::Ordering::Relaxed))
            .sum()
    }

    /// Total slot releases ever made on this registry. A release is
    /// recorded in the TLS destructor *before* the slot's `in_use` flag
    /// flips, so once `slot_claims() == slot_releases()` every exiting
    /// thread has given its slot back — the event-driven signal tests wait
    /// on instead of wall-clock grace sleeps.
    pub fn slot_releases(&self) -> u64 {
        self.slots
            .in_use
            .iter()
            .map(|s| s.releases.load(observer::Ordering::Relaxed))
            .sum()
    }

    /// The dense index of the calling thread, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if more than `capacity` threads are simultaneously registered,
    /// or if called from a thread-local destructor after the cache has been
    /// torn down. Use [`try_current_index`](Self::try_current_index) for a
    /// fallible variant.
    pub fn current_index(&self) -> usize {
        self.try_current_index()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`current_index`](Self::current_index).
    pub fn try_current_index(&self) -> Result<usize, RegistryFull> {
        let registry_id = self.slots.id;
        CACHE
            .try_with(|cache| {
                let mut cache = cache.borrow_mut();
                if let Some(entry) = cache
                    .entries
                    .iter()
                    .find(|e| e.registry_id == registry_id)
                {
                    return Ok(entry.index);
                }
                // A miss: forget registries that died since, so a thread
                // that outlives many short-lived queues neither keeps
                // their allocations alive nor scans past them.
                cache.entries.retain(|e| e.slots.strong_count() > 0);
                let index = self.claim_slot()?;
                cache.entries.push(TlsEntry {
                    registry_id,
                    index,
                    slots: Arc::downgrade(&self.slots),
                });
                Ok(index)
            })
            .unwrap_or(Err(RegistryFull {
                capacity: self.capacity(),
            }))
    }

    /// The calling thread's index if it is already registered, without
    /// registering it.
    pub fn peek_index(&self) -> Option<usize> {
        let registry_id = self.slots.id;
        CACHE
            .try_with(|cache| {
                cache
                    .borrow()
                    .entries
                    .iter()
                    .find(|e| e.registry_id == registry_id)
                    .map(|e| e.index)
            })
            .ok()
            .flatten()
    }

    /// Explicitly release the calling thread's slot (it is otherwise
    /// released automatically at thread exit). A later call to
    /// [`current_index`](Self::current_index) re-registers, possibly under a
    /// different index.
    pub fn release_current(&self) {
        let registry_id = self.slots.id;
        let released = CACHE
            .try_with(|cache| {
                let mut cache = cache.borrow_mut();
                if let Some(pos) = cache
                    .entries
                    .iter()
                    .position(|e| e.registry_id == registry_id)
                {
                    let entry = cache.entries.swap_remove(pos);
                    Some(entry.index)
                } else {
                    None
                }
            })
            .ok()
            .flatten();
        if let Some(index) = released {
            self.slots.release(index);
        }
    }

    /// Slot claim: a left-to-right CAS scan, retried through a bounded
    /// grace period when the registry looks full.
    ///
    /// The grace period absorbs a real scheduling artifact: a thread
    /// spawned with `std::thread::scope` is considered finished (and the
    /// scope returns) slightly *before* its TLS destructors run, so a
    /// generation of exiting threads can still hold their slots for a
    /// moment after `scope()` returned. Rapid spawn/exit churn would
    /// otherwise see spurious `RegistryFull` errors. The retry is bounded
    /// (it only helps transient fullness), so a genuinely over-subscribed
    /// registry still fails deterministically.
    fn claim_slot(&self) -> Result<usize, RegistryFull> {
        const GRACE_ROUNDS: usize = 256;
        for round in 0..GRACE_ROUNDS {
            for (i, slot) in self.slots.in_use.iter().enumerate() {
                // ORDERING(tr.slot-peek): RELAXED — contention pre-check;
                // the CAS decides.
                if !slot.in_use.load(ord::RELAXED)
                    // ORDERING(tr.slot-claim): ACQ_REL / RELAXED — slot
                    // claim: acquire pairs with the releasing hand-back so
                    // the previous owner's per-slot state is visible before
                    // we reuse the index; release makes the claim visible
                    // to `registered_count`. The failure value (someone
                    // else claimed) is discarded. pairs=tr.slot-release
                    && slot
                        .in_use
                        .compare_exchange(false, true, ord::ACQ_REL, ord::RELAXED)
                        .is_ok()
                {
                    // Owner-only bump: the CAS just gave this thread the
                    // slot, so the tally store cannot race another writer.
                    let n = slot.claims.load(observer::Ordering::Relaxed);
                    slot.claims.store(n + 1, observer::Ordering::Relaxed);
                    return Ok(i);
                }
            }
            if round + 1 < GRACE_ROUNDS {
                turnq_sync::thread::yield_now();
            }
        }
        Err(RegistryFull {
            capacity: self.capacity(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    #[test]
    fn tls_cache_holds_only_live_registries() {
        let cached = || CACHE.with(|c| c.borrow().entries.len());
        std::thread::spawn(move || {
            let kept = ThreadRegistry::new(2);
            let kept_index = kept.current_index();
            for _ in 0..10_000 {
                let short = ThreadRegistry::new(2);
                short.current_index();
                assert_eq!(cached(), 2, "the cache holds a dead registry");
            }
            assert_eq!(kept.peek_index(), Some(kept_index));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn same_thread_same_index() {
        let reg = ThreadRegistry::new(8);
        let a = reg.current_index();
        let b = reg.current_index();
        assert_eq!(a, b);
    }

    #[test]
    fn clone_shares_slots() {
        let reg = ThreadRegistry::new(8);
        let a = reg.current_index();
        let reg2 = reg.clone();
        assert_eq!(reg2.current_index(), a);
        assert_eq!(reg2.registered_count(), 1);
    }

    #[test]
    fn distinct_registries_are_independent() {
        let r1 = ThreadRegistry::new(2);
        let r2 = ThreadRegistry::new(2);
        let i1 = r1.current_index();
        let i2 = r2.current_index();
        // Both start from slot 0 because the registries do not share slots.
        assert_eq!(i1, 0);
        assert_eq!(i2, 0);
        assert_eq!(r1.registered_count(), 1);
        assert_eq!(r2.registered_count(), 1);
    }

    #[test]
    fn concurrent_threads_get_unique_indices() {
        let reg = ThreadRegistry::new(16);
        let barrier = Barrier::new(16);
        let indices: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let reg = reg.clone();
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let idx = reg.current_index();
                        barrier.wait(); // hold the slot until everyone claimed
                        idx
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let set: HashSet<usize> = indices.iter().copied().collect();
        assert_eq!(set.len(), 16, "indices must be unique: {indices:?}");
        assert!(indices.iter().all(|&i| i < 16));
    }

    #[test]
    fn exhaustion_is_reported() {
        let reg = ThreadRegistry::new(1);
        assert_eq!(reg.current_index(), 0);
        std::thread::scope(|s| {
            let reg = reg.clone();
            s.spawn(move || {
                assert_eq!(
                    reg.try_current_index(),
                    Err(RegistryFull { capacity: 1 })
                );
            });
        });
    }

    #[test]
    fn slots_released_on_thread_exit() {
        let reg = ThreadRegistry::new(1);
        for _ in 0..32 {
            let reg = reg.clone();
            std::thread::spawn(move || {
                assert_eq!(reg.current_index(), 0);
            })
            .join()
            .unwrap();
        }
        assert_eq!(reg.registered_count(), 0);
    }

    #[test]
    fn explicit_release_allows_reuse() {
        let reg = ThreadRegistry::new(1);
        assert_eq!(reg.current_index(), 0);
        reg.release_current();
        assert_eq!(reg.registered_count(), 0);
        assert_eq!(reg.peek_index(), None);
        // Re-registering from the same thread works again.
        assert_eq!(reg.current_index(), 0);
    }

    #[test]
    fn peek_does_not_register() {
        let reg = ThreadRegistry::new(4);
        assert_eq!(reg.peek_index(), None);
        assert_eq!(reg.registered_count(), 0);
        let idx = reg.current_index();
        assert_eq!(reg.peek_index(), Some(idx));
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = ThreadRegistry::new(0);
    }

    #[test]
    fn release_without_register_is_noop() {
        let reg = ThreadRegistry::new(2);
        reg.release_current();
        assert_eq!(reg.registered_count(), 0);
    }

    #[test]
    fn many_threads_churn_through_one_slot_pool() {
        // More thread *lifetimes* than slots is fine as long as no more
        // than `capacity` are alive at once.
        let reg = ThreadRegistry::new(4);
        for _round in 0..8 {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let reg = reg.clone();
                    s.spawn(move || {
                        let idx = reg.current_index();
                        assert!(idx < 4);
                    });
                }
            });
        }
        // `scope` can return before the exiting threads' TLS destructors
        // release their slots (the lag documented in DESIGN.md §9 — the
        // claim path absorbs it with a grace period). Wait on the claim and
        // release tallies instead of a wall-clock deadline: each of the 32
        // exiting threads *will* run its destructor, and the release bump
        // happens before the slot flag flips, so this loop is event-driven
        // and terminates without any timing assumption.
        assert_eq!(reg.slot_claims(), 32);
        while reg.slot_releases() < reg.slot_claims() {
            std::thread::yield_now();
        }
        assert_eq!(reg.slot_releases(), 32);
        assert_eq!(reg.registered_count(), 0);
    }

    #[test]
    fn dead_registry_does_not_crash_thread_exit() {
        // Thread registers, registry is dropped first, then the thread
        // exits; the weak upgrade in the TLS destructor must fail cleanly.
        let reg = ThreadRegistry::new(2);
        let reg2 = reg.clone();
        std::thread::spawn(move || {
            let _ = reg2.current_index();
            drop(reg2);
            // reg (other Arc) still alive here, dropped by main thread later
        })
        .join()
        .unwrap();
        drop(reg);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Claims that are all held concurrently (barrier-synchronised)
        /// get unique indices within capacity, and never more than
        /// `capacity` succeed.
        #[test]
        fn concurrent_claims_stay_unique(capacity in 1usize..12, claimers in 1usize..12) {
            let reg = ThreadRegistry::new(capacity);
            let barrier = std::sync::Barrier::new(claimers);
            let results: Vec<Result<usize, RegistryFull>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..claimers)
                    .map(|_| {
                        let reg = reg.clone();
                        let barrier = &barrier;
                        s.spawn(move || {
                            let r = reg.try_current_index();
                            // Hold the slot until every thread has tried,
                            // so successful claims genuinely overlap.
                            barrier.wait();
                            r
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let successes: Vec<usize> =
                results.iter().filter_map(|r| r.ok()).collect();
            let mut sorted = successes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), successes.len(), "duplicate live indices");
            prop_assert!(successes.iter().all(|&i| i < capacity));
            prop_assert!(successes.len() <= capacity);
            // Everyone beyond capacity must have been refused.
            prop_assert_eq!(
                results.iter().filter(|r| r.is_err()).count(),
                claimers.saturating_sub(capacity)
            );
            // And all slots are recycled after the scope (the claim path's
            // bounded grace period absorbs TLS-destructor lag, so a fresh
            // claim from this thread must succeed too).
            prop_assert!(reg.try_current_index().is_ok());
            reg.release_current();
        }

        /// Sequential claim/release cycles never leak slots.
        #[test]
        fn claim_release_cycles_conserve_slots(rounds in 1usize..20) {
            let reg = ThreadRegistry::new(2);
            for _ in 0..rounds {
                let idx = reg.current_index();
                prop_assert!(idx < 2);
                reg.release_current();
            }
            prop_assert_eq!(reg.registered_count(), 0);
        }
    }
}
