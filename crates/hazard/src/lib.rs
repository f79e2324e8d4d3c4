//! Wait-free-bounded memory reclamation for the Turn-queue reproduction.
//!
//! The paper (§3) argues that a wait-free queue needs a reclamation scheme
//! whose *protect* and *reclaim* operations are themselves at least
//! wait-free bounded, and builds both operations from Michael's Hazard
//! Pointers used in a specific discipline:
//!
//! * **Protect** — instead of the classic retry loop
//!   (`load; store hp; while (validate fails) reload`), the algorithm does a
//!   *single* `load; store hp; load` sequence per iteration of the caller's
//!   already-bounded loop (paper Algorithm 5). A failed validation proves
//!   another thread made progress, so the caller charges the retry to its
//!   own `MAX_THREADS`-bounded loop and stays wait-free bounded.
//! * **Reclaim** — the paper (§3.1) scans on every retire (`R = 0`).
//!   [`HazardPointers::retire`] keeps the paper's bound but not its
//!   schedule: it scans the thread's retired list against the HP matrix
//!   once the list holds [`retired_bound`] entries. A scan leaves at most
//!   `MAX_THREADS × K` survivors, so the list never exceeds the bound, a
//!   scanning retire does `O(bound × MAX_THREADS × K)` work, and reclaim
//!   is wait-free bounded too. [`ConditionalHazardPointers`] keeps
//!   `R = 0`.
//!
//! Two variants are provided:
//!
//! * [`HazardPointers`] — plain HP; an object is freed as soon as no hazard
//!   slot holds it.
//! * [`chp::ConditionalHazardPointers`] — the paper's §3.2 *Conditional
//!   Hazard Pointers*: an object is freed only when, additionally, a
//!   per-object predicate ([`chp::ConditionalReclaim::can_reclaim`])
//!   holds. Needed by the Kogan–Petrank port, where a node's item may be
//!   read *after* the node left the list.
//!
//! [`epoch_demo`] contains a deliberately minimal epoch-based reclaimer used
//! by the Table 2 reproduction to *demonstrate* (not just assert) that epoch
//! reclamation blocks: one stalled reader stops all reclamation, while HP
//! keeps the unreclaimed set bounded.

mod matrix;

pub mod chp;
pub mod epoch_demo;
mod hp;
pub mod sink;

pub use chp::{ConditionalHazardPointers, ConditionalReclaim};
pub use hp::HazardPointers;
pub use sink::{BoxDropSink, ReclaimSink};

/// Maximum number of objects that can stay unreclaimed per thread for a
/// reclaimer with `max_threads` threads and `k` hazard slots each: every
/// entry surviving a full scan is pinned by some hazard slot, and there
/// are only `max_threads * k` slots in total.
///
/// This is the single source of truth for the reclamation schedule and
/// for sizing anything that must absorb a worst-case reclamation burst:
/// [`HazardPointers::retire`] scans when a thread's list reaches this
/// length, and the Turn queue's recycling pool never holds fewer nodes
/// per thread.
pub fn retired_bound(max_threads: usize, k: usize) -> usize {
    max_threads * k + 1
}

/// Backlog bound for a [`ConditionalHazardPointers`] domain: besides the
/// hazard-pinned entries, each of the `max_threads` threads can hold at
/// most one object whose condition is still pending (in KP, the node whose
/// item that thread consumed but has not yet nulled — every thread has at
/// most one operation in flight).
pub fn conditional_retired_bound(max_threads: usize, k: usize) -> usize {
    retired_bound(max_threads, k) + max_threads
}
