//! The closed set of per-thread counters.
//!
//! Counters are identified by a dense enum so a thread's row can be a plain
//! array indexed without hashing. Adding a counter means adding a variant,
//! a row in [`CounterId::ALL`], a name, and a `docs/metrics.md` entry (the
//! `lint_metrics` test in the root crate fails on the last one if
//! forgotten).

/// Identifier of one sharded counter.
///
/// The discriminant is the index into each per-thread row; keep the
/// variants dense and `ALL` in discriminant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Completed enqueue operations.
    EnqOps = 0,
    /// Dequeue operations that returned an item.
    DeqOps,
    /// Dequeue operations that returned `None` (queue observed empty).
    DeqEmpty,
    /// Enqueue-side helping: this thread inserted a node published by
    /// *another* thread's request.
    HelpEnqueue,
    /// Dequeue-side helping: this thread completed another thread's open
    /// dequeue request (`deqhelp` CAS on a peer's slot).
    HelpDequeue,
    /// Failed CAS on the queue tail (another helper advanced it first).
    CasFailTail,
    /// Failed CAS on a node's `next` link during enqueue helping.
    CasFailNext,
    /// Failed CAS on the queue head during dequeue.
    CasFailHead,
    /// Failed CAS on a peer's `deqhelp` slot (someone else helped first).
    CasFailDeqHelp,
    /// Hazard-pointer publications (successful `protect_ptr`/`try_protect`).
    HpProtect,
    /// Hazard-pointer scans over the protection matrix.
    HpScan,
    /// Nodes handed to hazard-pointer retirement.
    HpRetire,
    /// Nodes a hazard-pointer scan found unprotected and reclaimed.
    HpReclaim,
    /// Objects handed to conditional-HP retirement (Kogan–Petrank).
    ChpRetire,
    /// Conditional-HP scans.
    ChpScan,
    /// Objects reclaimed by conditional-HP scans.
    ChpReclaim,
    /// Registry slots claimed (first use of a thread index).
    SlotClaim,
    /// Registry slots released (thread exit or explicit release).
    SlotRelease,
    /// Fast-path enqueues: the uncontended tail-append CAS succeeded with
    /// no request publication (Turn queue fast path, `fast_tries > 0`).
    FastEnqHit,
    /// Fast-path enqueue attempts that lost a race (tail moved or the link
    /// CAS failed) and retried within the `fast_tries` budget.
    FastEnqRetry,
    /// Enqueues that gave up the fast path (budget exhausted or a pending
    /// slow-path request observed) and fell back to CRTurn publication.
    FastEnqFallback,
    /// Fast-path dequeues: the direct head-swing CAS claimed a node (or
    /// observed emptiness) with no request publication.
    FastDeqHit,
    /// Fast-path dequeue attempts that lost a race and retried within the
    /// `fast_tries` budget.
    FastDeqRetry,
    /// Dequeues that gave up the fast path and fell back to the CRTurn
    /// slow path.
    FastDeqFallback,
    /// Segment-mode enqueues that claimed a cell with one FAA — no
    /// consensus, no HP republication beyond the segment protection.
    SegEnqCellHit,
    /// Segment-mode enqueue cell claims that failed (poisoned cell or a
    /// ticket past the segment boundary) and retried within the budget.
    SegEnqRetry,
    /// Segment-mode enqueues that appended a fresh segment through the
    /// consensus path (fast append or CRTurn publication).
    SegEnqAppend,
    /// Segment-mode dequeues that took an item straight from a cell.
    SegDeqCellHit,
    /// Segment-mode head advances past an exhausted segment (consensus
    /// boundary crossing on the dequeue side).
    SegDeqAdvance,
    /// Segment cells burnt by a consumer arriving before its producer
    /// (EMPTY → POISONED).
    SegCellPoison,
    /// Flight-recorder dumps: operations whose latency crossed the stall
    /// watchdog threshold and produced a black-box report.
    StallDump,
    /// Sharded front-end: enqueues routed to the producer's home lane
    /// (every sharded enqueue — affinity means there is no other route).
    ShardEnqHome,
    /// Sharded front-end: dequeues satisfied by the thread's rotating
    /// cursor lane (first lane probed in the sweep).
    ShardDeqHit,
    /// Sharded front-end: dequeues satisfied by a later lane in the sweep
    /// (stolen from another producer's home lane).
    ShardDeqSteal,
    /// Sharded front-end: full sweeps that observed every lane empty and
    /// returned `None` (the relaxed-emptiness verdict, DESIGN.md §6e).
    ShardSweepEmpty,
    /// Bounded ring: enqueues completed entirely on the FAA fast path
    /// (no request slot published).
    BqEnqFast,
    /// Bounded ring: enqueues that exhausted their fast tries and went
    /// through the per-thread request slot (helped slow path).
    BqEnqSlow,
    /// Bounded ring: dequeues completed entirely on the FAA fast path.
    BqDeqFast,
    /// Bounded ring: dequeues that went through the request slot.
    BqDeqSlow,
    /// Bounded ring: `try_enqueue` calls that returned `Full` (free-index
    /// ring empty — the backpressure verdict).
    BqFull,
    /// Bounded ring: dequeues that returned `None` (threshold-counter
    /// emptiness verdict, DESIGN.md §6f).
    BqEmpty,
    /// Bounded ring: helping rounds run on *other* threads' request
    /// slots (the O(MAX_THREADS) helping scan).
    BqHelpRound,
    /// Bounded ring: ring tickets burned without transferring a value
    /// (lost claim races, poisoned cycles, abandoned reservations).
    BqTicketBurn,
    /// Bounded ring: free indices recycled through the owner thread's
    /// one-slot cache — a dequeue handed its slot index straight to the
    /// same thread's next enqueue, skipping both `fq` ring rounds.
    BqIdxCache,
}

impl CounterId {
    /// Every counter, in discriminant order (`ALL[i] as usize == i`).
    pub const ALL: [CounterId; N_COUNTERS] = [
        CounterId::EnqOps,
        CounterId::DeqOps,
        CounterId::DeqEmpty,
        CounterId::HelpEnqueue,
        CounterId::HelpDequeue,
        CounterId::CasFailTail,
        CounterId::CasFailNext,
        CounterId::CasFailHead,
        CounterId::CasFailDeqHelp,
        CounterId::HpProtect,
        CounterId::HpScan,
        CounterId::HpRetire,
        CounterId::HpReclaim,
        CounterId::ChpRetire,
        CounterId::ChpScan,
        CounterId::ChpReclaim,
        CounterId::SlotClaim,
        CounterId::SlotRelease,
        CounterId::FastEnqHit,
        CounterId::FastEnqRetry,
        CounterId::FastEnqFallback,
        CounterId::FastDeqHit,
        CounterId::FastDeqRetry,
        CounterId::FastDeqFallback,
        CounterId::SegEnqCellHit,
        CounterId::SegEnqRetry,
        CounterId::SegEnqAppend,
        CounterId::SegDeqCellHit,
        CounterId::SegDeqAdvance,
        CounterId::SegCellPoison,
        CounterId::StallDump,
        CounterId::ShardEnqHome,
        CounterId::ShardDeqHit,
        CounterId::ShardDeqSteal,
        CounterId::ShardSweepEmpty,
        CounterId::BqEnqFast,
        CounterId::BqEnqSlow,
        CounterId::BqDeqFast,
        CounterId::BqDeqSlow,
        CounterId::BqFull,
        CounterId::BqEmpty,
        CounterId::BqHelpRound,
        CounterId::BqTicketBurn,
        CounterId::BqIdxCache,
    ];

    /// Short name, used as the key in snapshots and to derive the exported
    /// metric name (`turnq_<name>_total`).
    pub const fn name(self) -> &'static str {
        match self {
            CounterId::EnqOps => "enq_ops",
            CounterId::DeqOps => "deq_ops",
            CounterId::DeqEmpty => "deq_empty",
            CounterId::HelpEnqueue => "help_enqueue",
            CounterId::HelpDequeue => "help_dequeue",
            CounterId::CasFailTail => "cas_fail_tail",
            CounterId::CasFailNext => "cas_fail_next",
            CounterId::CasFailHead => "cas_fail_head",
            CounterId::CasFailDeqHelp => "cas_fail_deqhelp",
            CounterId::HpProtect => "hp_protect",
            CounterId::HpScan => "hp_scan",
            CounterId::HpRetire => "hp_retire",
            CounterId::HpReclaim => "hp_reclaim",
            CounterId::ChpRetire => "chp_retire",
            CounterId::ChpScan => "chp_scan",
            CounterId::ChpReclaim => "chp_reclaim",
            CounterId::SlotClaim => "slot_claim",
            CounterId::SlotRelease => "slot_release",
            CounterId::FastEnqHit => "fast_enq_hit",
            CounterId::FastEnqRetry => "fast_enq_retry",
            CounterId::FastEnqFallback => "fast_enq_fallback",
            CounterId::FastDeqHit => "fast_deq_hit",
            CounterId::FastDeqRetry => "fast_deq_retry",
            CounterId::FastDeqFallback => "fast_deq_fallback",
            CounterId::SegEnqCellHit => "seg_enq_cell_hit",
            CounterId::SegEnqRetry => "seg_enq_retry",
            CounterId::SegEnqAppend => "seg_enq_append",
            CounterId::SegDeqCellHit => "seg_deq_cell_hit",
            CounterId::SegDeqAdvance => "seg_deq_advance",
            CounterId::SegCellPoison => "seg_cell_poison",
            CounterId::StallDump => "stall_dump",
            CounterId::ShardEnqHome => "shard_enq_home",
            CounterId::ShardDeqHit => "shard_deq_hit",
            CounterId::ShardDeqSteal => "shard_deq_steal",
            CounterId::ShardSweepEmpty => "shard_sweep_empty",
            CounterId::BqEnqFast => "bq_enq_fast",
            CounterId::BqEnqSlow => "bq_enq_slow",
            CounterId::BqDeqFast => "bq_deq_fast",
            CounterId::BqDeqSlow => "bq_deq_slow",
            CounterId::BqFull => "bq_full",
            CounterId::BqEmpty => "bq_empty",
            CounterId::BqHelpRound => "bq_help_round",
            CounterId::BqTicketBurn => "bq_ticket_burn",
            CounterId::BqIdxCache => "bq_idx_cache",
        }
    }
}

/// Number of counters (row width of a telemetry sheet).
pub const N_COUNTERS: usize = 44;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_dense_and_in_order() {
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL out of order at {}", c.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_COUNTERS);
    }
}
