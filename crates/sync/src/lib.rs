//! # `turnq-sync` — the workspace atomics facade
//!
//! Every queue crate in this workspace (`turn-queue`, `turnq-hazard`,
//! `turnq-kp`, `turnq-threadreg`) imports its atomics and `UnsafeCell`
//! from here instead of from `std` directly:
//!
//! ```
//! use turnq_sync::atomic::{AtomicUsize, Ordering};
//! let x = AtomicUsize::new(0);
//! x.store(1, Ordering::SeqCst);
//! assert_eq!(x.load(Ordering::SeqCst), 1);
//! ```
//!
//! ## Two personalities
//!
//! * **Normal builds** (default): every item is a *re-export* of the std
//!   type — `turnq_sync::atomic::AtomicUsize` *is*
//!   `std::sync::atomic::AtomicUsize`. Zero cost by construction; release
//!   binaries are bit-identical to the pre-facade code.
//! * **`modelcheck` feature**: the same names resolve to `#[repr(transparent)]`
//!   wrappers that route every load/store/CAS (and every `UnsafeCell`
//!   access) through the `rt` runtime: a cooperative scheduler that
//!   serializes threads at shared-memory access points so an explorer can
//!   enumerate interleavings, a per-thread *step counter* used to
//!   machine-check the paper's `O(MAX_THREADS)` wait-freedom bounds, and a
//!   vector-clock race detector that flags same-location plain/atomic
//!   access pairs that are not ordered by happens-before (the node pool's
//!   owner-only fast paths are exactly such a pattern).
//!
//! The switch is a cargo *feature*, not a `--cfg`, so that
//! `cargo test -p turnq-modelcheck` instruments the whole dependency graph
//! through ordinary feature unification while the root tier-1 graph and the
//! benchmark graph never see it.
//!
//! ## What is instrumented
//!
//! Only the types below. Code outside the facade (e.g. `Box` allocation,
//! `Vec` internals, the harness's `std::sync::Mutex`) executes natively
//! inside the current thread's scheduling slice. Threads that are not
//! running under `rt` (the default) take a single thread-local branch and
//! fall through to the std operation.

#[cfg(not(feature = "modelcheck"))]
mod imp {
    /// Atomic integer/pointer types, memory orderings and fences
    /// (std re-export).
    pub mod atomic {
        pub use std::sync::atomic::{
            fence, AtomicBool, AtomicI32, AtomicI64, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64,
            AtomicUsize, Ordering,
        };
    }
    /// Interior-mutability cell (std re-export).
    pub mod cell {
        pub use std::cell::UnsafeCell;

        /// Declared shared read of a cell's contents — see the
        /// `modelcheck` personality for the contract it asserts. In
        /// normal builds it is exactly `cell.get()` as a read-only
        /// pointer.
        #[inline]
        pub fn shared_read_ptr<T>(cell: &UnsafeCell<T>) -> *const T {
            cell.get()
        }
    }
    /// Spin-loop hint (std re-export).
    pub mod hint {
        pub use std::hint::spin_loop;
    }
    /// Scheduling hints (std re-export).
    pub mod thread {
        pub use std::thread::yield_now;
    }
}

#[cfg(feature = "modelcheck")]
mod imp {
    pub mod atomic {
        pub use crate::instrumented::{
            AtomicBool, AtomicI32, AtomicI64, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64,
            AtomicUsize,
        };
        pub use std::sync::atomic::Ordering;

        /// Memory fence. Executed natively: the model-check scheduler
        /// serializes every access under sequential consistency, so a
        /// fence neither introduces a scheduling point nor charges a step
        /// (it is not a shared-memory access — keeping it free preserves
        /// the step-bound audit's accounting). The vector-clock detector
        /// ignores fences; it tracks the acquire/release edges of the
        /// accesses themselves, which is conservative (a fence can only
        /// add ordering, never remove it).
        #[inline]
        pub fn fence(order: Ordering) {
            std::sync::atomic::fence(order);
        }
    }
    pub mod cell {
        pub use crate::instrumented::UnsafeCell;

        /// Declared shared read: recorded as a plain *read*, which the
        /// race detector orders against every writer (plain or atomic)
        /// but not against atomic loads or other reads. For
        /// publish-then-immutable data read concurrently by many threads
        /// (the segment mode's ring payload); the caller must only read
        /// through the returned pointer.
        #[inline]
        pub fn shared_read_ptr<T>(cell: &UnsafeCell<T>) -> *const T {
            cell.get_shared()
        }
    }
    pub mod hint {
        /// Spin-loop hint. Not a scheduling point: the shared load that any
        /// correct spin loop performs next is one already.
        #[inline]
        pub fn spin_loop() {
            std::hint::spin_loop();
        }
    }
    pub mod thread {
        /// Cooperative yield. Under the model-check scheduler this is a
        /// scheduling point (the explorer may preempt here); outside it,
        /// it is `std::thread::yield_now`.
        #[inline]
        pub fn yield_now() {
            if crate::rt::in_controlled_thread() {
                crate::rt::sync_point();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

pub use imp::{atomic, cell, hint, thread};

/// Atomics for *observers* — telemetry counters, histograms, and other
/// measurement-only state that is **not** part of any algorithm's shared
/// protocol surface.
///
/// These are always the std types, even under the `modelcheck` feature.
/// That exemption is deliberate, twice over:
///
/// * **State-space hygiene.** The model checker treats every facade access
///   as a scheduling point and enumerates interleavings around it. Counter
///   bumps carry no algorithmic information — instrumenting them would
///   multiply the interleaving space (and the per-op step count audited
///   against the paper's `O(MAX_THREADS)` bound) without making any new
///   behaviour reachable.
/// * **Honest step accounting.** The step auditor exists to machine-check
///   the *paper's* bound. Telemetry is bookkeeping about the algorithm, not
///   part of it; counting its stores would conflate the two.
///
/// Code routed through this module must therefore never carry algorithmic
/// state: nothing the queue, hazard-pointer, or registry logic branches on
/// may live behind `observer` atomics. The telemetry crate upholds this by
/// construction — its sheets are write-only on hot paths and read only by
/// snapshot aggregation.
pub mod observer {
    pub use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(feature = "modelcheck")]
mod instrumented;
#[cfg(feature = "modelcheck")]
pub mod rt;

/// `true` when this build of the facade routes accesses through the
/// instrumented runtime. Lets test code assert it is (or is not) running
/// under the model checker.
pub const INSTRUMENTED: bool = cfg!(feature = "modelcheck");

/// Whether the model checker planted the seeded mutant `site` in the
/// current run. A production guard that a modelcheck suite must prove
/// load-bearing reads `if turnq_sync::mutant("q.panic-check") { … }`;
/// each `site` carries its module's ORDERING-site prefix.
///
/// In normal builds this is a constant `false`, so every mutant branch
/// compiles away. Under `modelcheck` it reports the sites planted through
/// `rt::plant` for the calling thread's run. Reading it is not a shared
/// access: it is no scheduling point and charges no step.
#[cfg(not(feature = "modelcheck"))]
#[inline(always)]
pub const fn mutant(_site: &'static str) -> bool {
    false
}

#[cfg(not(feature = "modelcheck"))]
const _: () = assert!(!mutant("q.panic-check"));

/// Whether the model checker planted the seeded mutant `site` in the
/// current run (see the normal build's twin): true only on the thread
/// that planted it through [`rt::plant`] and on the workers of the runs
/// it starts.
#[cfg(feature = "modelcheck")]
#[inline]
pub fn mutant(site: &'static str) -> bool {
    rt::planted(site)
}

/// `true` when the `seqcst` ablation feature is on and every [`ord`]
/// alias collapses to `Ordering::SeqCst` (the paper-literal build).
/// Benchmarks label their output with this so seqcst-vs-relaxed artifacts
/// can be told apart.
pub const SEQCST_BUILD: bool = cfg!(feature = "seqcst");

/// The workspace's single source of truth for memory orderings.
///
/// Every algorithm crate (`turn-queue`, `turnq-hazard`, `turnq-kp`,
/// `turnq-threadreg`, `turnq-baselines`) names its orderings through these
/// aliases instead of `Ordering::*` directly, and annotates each use with
/// an `// ORDERING:` comment stating the happens-before edge it provides
/// (cross-checked against the per-site table in `docs/orderings.md` by
/// `tests/lint_orderings.rs`).
///
/// Two build modes:
///
/// * **default (relaxed)** — the aliases mean what they say: `ACQUIRE` is
///   `Ordering::Acquire`, and so on. This is the measured, per-site
///   relaxation of the paper's sequentially-consistent pseudo-code.
/// * **`seqcst` feature (paper-literal)** — every alias collapses to
///   `Ordering::SeqCst`, reproducing the ordering regime the paper's
///   Algorithms 1–5 are specified under. One flag restores the ablation
///   baseline; building `turnq_bench` with `--features turnq-sync/seqcst`
///   measures the difference.
///
/// `SEQ_CST` exists so that sites whose correctness argument genuinely
/// needs a single total order (the Turn consensus publish/scan pair, the
/// hazard-pointer protect/validate handshake) still route through this
/// module — the lint requires *all* production orderings to come from
/// here, which is what makes the per-site table exhaustive.
pub mod ord {
    use super::atomic::Ordering;

    #[cfg(not(feature = "seqcst"))]
    mod imp {
        use super::Ordering;
        pub const RELAXED: Ordering = Ordering::Relaxed;
        pub const ACQUIRE: Ordering = Ordering::Acquire;
        pub const RELEASE: Ordering = Ordering::Release;
        pub const ACQ_REL: Ordering = Ordering::AcqRel;
        pub const SEQ_CST: Ordering = Ordering::SeqCst;
    }

    #[cfg(feature = "seqcst")]
    mod imp {
        use super::Ordering;
        pub const RELAXED: Ordering = Ordering::SeqCst;
        pub const ACQUIRE: Ordering = Ordering::SeqCst;
        pub const RELEASE: Ordering = Ordering::SeqCst;
        pub const ACQ_REL: Ordering = Ordering::SeqCst;
        pub const SEQ_CST: Ordering = Ordering::SeqCst;
    }

    pub use imp::{ACQUIRE, ACQ_REL, RELAXED, RELEASE, SEQ_CST};

    /// Caveat, enforced here once instead of at every call site: a fence
    /// must never be given `Relaxed` (std panics). `RELAXED` is therefore
    /// only for loads/stores/RMWs; fences take `ACQUIRE`/`RELEASE`/
    /// `SEQ_CST`, all of which stay legal when collapsed to SeqCst.
    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn aliases_collapse_only_under_seqcst() {
            if crate::SEQCST_BUILD {
                assert_eq!(RELAXED, Ordering::SeqCst);
                assert_eq!(ACQUIRE, Ordering::SeqCst);
                assert_eq!(RELEASE, Ordering::SeqCst);
                assert_eq!(ACQ_REL, Ordering::SeqCst);
            } else {
                assert_eq!(RELAXED, Ordering::Relaxed);
                assert_eq!(ACQUIRE, Ordering::Acquire);
                assert_eq!(RELEASE, Ordering::Release);
                assert_eq!(ACQ_REL, Ordering::AcqRel);
            }
            assert_eq!(SEQ_CST, Ordering::SeqCst);
        }
    }
}
