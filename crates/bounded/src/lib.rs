//! `turnq-bounded` — a wait-free bounded MPMC ring (DESIGN.md §6f).
//!
//! The Turn queue's remaining per-op cost is structural: every K items pay
//! node allocation, pool traffic, and hazard-pointer protect/validate. This
//! crate removes all three by running entirely inside two pre-allocated
//! index rings in the style of SCQ/wCQ ("wCQ: A Fast Wait-Free Queue with
//! Bounded Memory Usage", Nikolaev & Ravindran — see PAPERS.md):
//!
//! * **FAA-claimed entry cycles** — `tail`/`head` are fetch-add ticket
//!   dispensers; ticket `t` on a ring of `n` entries maps to slot
//!   `t mod n` at cycle `t / n`. Each slot is one atomic *state word*
//!   packing `[cycle | safe | index]`, so claiming, publishing, and
//!   consuming are single-word CAS transitions (no DWCAS).
//! * **Threshold counter** — the SCQ emptiness mechanism: every
//!   successful insert resets `threshold` to `3·capacity − 1`; every
//!   failed dequeue round decrements it; a negative threshold *is* the
//!   wait-free emptiness verdict (`None`/`Full` in O(1) once drained).
//! * **Request-slot helping** — the CRTurn pattern reused from
//!   `crates/core`: a thread whose bounded fast tries are exhausted
//!   publishes a request in a per-thread slot indexed by its dense
//!   `threadreg` id. Every operation first scans the request array
//!   (O(MAX_THREADS)) — helpers deliver threshold verdicts into pending
//!   requests and *defer* their own ring mutations for a bounded window,
//!   which is exactly what bounds the requester's retry loop. The step
//!   auditor (`turnq_modelcheck::bounded_step_bound`) carries over.
//!
//! Items live in a `capacity`-slot data array; the two rings carry slot
//! *indices* (free ring `fq`, allocated ring `aq`), so steady state does
//! zero heap allocation: `try_enqueue` = pop a free index, write the item,
//! push the index onto `aq`; `dequeue` is the mirror image. A full queue
//! is a `Full` verdict from `fq`'s threshold, backpressure instead of
//! allocation.

use std::mem::MaybeUninit;
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use turnq_api::{
    ConcurrentQueue, PoolStats, Progress, QueueFamily, QueueIntrospect, QueueProps, SizeReport,
};
use turnq_sync::atomic::{AtomicI64, AtomicU64, AtomicUsize};
use turnq_sync::cell::UnsafeCell;
use turnq_sync::hint::spin_loop;
use turnq_sync::ord;
use turnq_telemetry::{CounterId, OpKey, OpTimer, TelemetrySheet, TelemetrySnapshot};
use turnq_threadreg::ThreadRegistry;

/// Error returned by [`BoundedQueue::try_enqueue`] on a full queue; carries
/// the rejected item back to the caller (zero items are ever lost to
/// backpressure).
#[derive(Debug, PartialEq, Eq)]
pub struct Full<T>(pub T);

/// Default ring capacity (items) used by [`BoundedFamily`].
pub const DEFAULT_CAPACITY: usize = 1024;

/// Default bounded fast-path attempts before an operation publishes a
/// request slot.
pub const DEFAULT_FAST_TRIES: usize = 8;

/// Default bounded spins an operation defers its own ring mutations while
/// another thread's request is pending (the helping window).
pub const DEFAULT_DEFER_SPINS: usize = 32;

// ---------------------------------------------------------------------------
// Ring-entry state word: [ cycle : 51 | safe : 1 | idx : 12 ].
//
// `idx` is a data-slot index or IDX_NULL; `safe` is SCQ's reuse guard: an
// unsafe slot may only accept a new value once `head` proves no lagging
// dequeuer of an earlier cycle can still be in flight.
// ---------------------------------------------------------------------------

const IDX_BITS: u32 = 12;
const IDX_NULL: u64 = (1 << IDX_BITS) - 1;
const SAFE_BIT: u64 = 1 << IDX_BITS;
const CYCLE_SHIFT: u32 = IDX_BITS + 1;

/// Ring capacity ceiling imposed by the 12-bit index field (one pattern is
/// reserved for `IDX_NULL`).
pub const MAX_CAPACITY: usize = 2048;

#[inline]
const fn entry(cycle: u64, safe: bool, idx: u64) -> u64 {
    (cycle << CYCLE_SHIFT) | ((safe as u64) << IDX_BITS) | idx
}

#[inline]
const fn ecycle(e: u64) -> u64 {
    e >> CYCLE_SHIFT
}

#[inline]
const fn eidx(e: u64) -> u64 {
    e & IDX_NULL
}

#[inline]
const fn esafe(e: u64) -> bool {
    e & SAFE_BIT != 0
}

/// Outcome of one FAA-claimed ring round.
enum Round {
    /// Dequeue round transferred this index out of the ring.
    Got(u64),
    /// Enqueue round published its index.
    Done,
    /// The threshold (dequeue) ran out: the ring is empty.
    Drained,
    /// The round burned its ticket without transferring; try again.
    Burned,
}

/// One SCQ index ring: `n = 2 × capacity` single-word entries plus the two
/// FAA ticket dispensers and the threshold counter.
struct Ring {
    entries: Box<[AtomicU64]>,
    /// Enqueue ticket dispenser.
    tail: CachePadded<AtomicU64>,
    /// Dequeue ticket dispenser.
    head: CachePadded<AtomicU64>,
    /// SCQ emptiness counter: reset to [`Ring::threshold_reset`] by every
    /// successful insert, decremented by every failed dequeue round;
    /// negative ⇒ empty verdict.
    threshold: CachePadded<AtomicI64>,
    /// log2 of the entry count.
    order: u32,
}

impl Ring {
    fn n(&self) -> u64 {
        1u64 << self.order
    }

    /// The threshold reset value of a ring of `2^order` entries holding
    /// up to half as many values: `half + n − 1 = 3·half − 1` (SCQ §4).
    fn threshold_reset(order: u32) -> i64 {
        3 * (1i64 << (order - 1)) - 1
    }

    /// An empty ring (used for `aq`). Tickets start one full cycle ahead
    /// of the entry init cycle (`head = tail = n`, the lfring idiom) so
    /// the very first install finds `ecycle < c` without burning a
    /// revolution.
    fn new_empty(order: u32) -> Ring {
        let n = 1usize << order;
        let entries = (0..n)
            // Single-threaded constructor (no ordering site): publication
            // comes from whatever shares the queue (Arc / scoped spawn).
            .map(|_| AtomicU64::new(entry(0, true, IDX_NULL)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            entries,
            tail: CachePadded::new(AtomicU64::new(n as u64)),
            head: CachePadded::new(AtomicU64::new(n as u64)),
            threshold: CachePadded::new(AtomicI64::new(-1)),
            order,
        }
    }

    /// A ring pre-filled with the indices `0..half` (used for `fq`): as if
    /// `half` inserts with tickets `n..n+half` already ran, so the
    /// prefilled entries sit at cycle 1 where `head = n`'s dequeue
    /// tickets find them.
    fn new_full(order: u32) -> Ring {
        let n = 1usize << order;
        let half = n / 2;
        let entries = (0..n)
            .map(|j| {
                if j < half {
                    AtomicU64::new(entry(1, true, j as u64))
                } else {
                    AtomicU64::new(entry(0, true, IDX_NULL))
                }
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            entries,
            tail: CachePadded::new(AtomicU64::new((n + half) as u64)),
            head: CachePadded::new(AtomicU64::new(n as u64)),
            threshold: CachePadded::new(AtomicI64::new(Ring::threshold_reset(order))),
            order,
        }
    }

    /// Reset the threshold after a successful insert (store, not RMW —
    /// SCQ's own optimization: redundant resets are elided).
    fn reset_threshold(&self) {
        // The reset value is what makes a negative threshold a sound
        // emptiness verdict. The modelcheck mutant `bq.threshold-reset`
        // resets to 0, so a single failed round reports empty while a
        // completed insert's item is reachable.
        let reset = if turnq_sync::mutant("bq.threshold-reset") {
            0
        } else {
            Ring::threshold_reset(self.order)
        };
        // ORDERING(bq.threshold): SEQ_CST — the threshold counter is the
        // emptiness verdict (pattern 3): resets, decrements, and the
        // negative-read that answers `None`/`Full` must agree in one
        // total order with the ticket FAAs, or a dequeuer could report
        // empty for an item whose insert already linearized.
        if self.threshold.load(ord::SEQ_CST) != reset {
            self.threshold.store(reset, ord::SEQ_CST);
        }
    }

    /// Wait-free emptiness pre-check: a negative threshold is conclusive.
    fn drained(&self) -> bool {
        // ORDERING(bq.threshold): SEQ_CST — conclusive emptiness read
        // (pattern 3, see reset_threshold).
        self.threshold.load(ord::SEQ_CST) < 0
    }

    /// SCQ catchup: when `head` overtakes `tail` (burned dequeue tickets),
    /// drag `tail` forward so enqueue tickets do not lag a full cycle.
    fn catchup(&self, mut tail: u64, head: u64) {
        // ORDERING(bq.order-probe): SEQ_CST — head/tail probes and the
        // catchup CAS feed the emptiness verdict and the unsafe-slot
        // reuse test; they must sit in the ticket/threshold total order
        // (pattern 3).
        while self
            .tail
            .compare_exchange(tail, head, ord::SEQ_CST, ord::SEQ_CST)
            .is_err()
        {
            tail = self.tail.load(ord::SEQ_CST);
            if tail >= head {
                break;
            }
        }
    }

    /// One enqueue round: claim a ticket, try to publish `idx` at its
    /// slot/cycle. Never reports full — the caller (`BoundedQueue`) keeps
    /// ring occupancy at or below half by construction, so every value
    /// eventually finds a fresh cycle.
    fn enq_round(&self, idx: u64) -> Round {
        // ORDERING(bq.ticket): SEQ_CST — FAA ticket dispensers: a ticket
        // is an input to the emptiness verdict and the safe-bit reuse
        // test, so the dispensers stay in the total order (pattern 3, as
        // `sg.enq-ticket` / `fa.enq-ticket`).
        let t = self.tail.fetch_add(1, ord::SEQ_CST);
        let j = (t & (self.n() - 1)) as usize;
        let c = t >> self.order;
        // ORDERING(bq.entry-scan): SEQ_CST — state-word loads: the
        // consume/install decisions read them, and the SC install CAS's
        // payload visibility (data-slot hand-off) rides the same total
        // order (patterns 1 and 3).
        let mut e = self.entries[j].load(ord::SEQ_CST);
        loop {
            if ecycle(e) < c && eidx(e) == IDX_NULL {
                // ORDERING(bq.order-probe): SEQ_CST — unsafe-slot reuse
                // test: `head ≤ t` proves no lagging earlier-cycle
                // dequeuer can still consume here (pattern 3).
                if esafe(e) || self.head.load(ord::SEQ_CST) <= t {
                    // ORDERING(bq.entry-install): SEQ_CST — the publish
                    // CAS: SC gives the release half that makes the
                    // requester's data-slot write visible to the SC
                    // consume CAS, and keeps the install in the verdict
                    // total order (pattern 3).
                    match self.entries[j].compare_exchange(
                        e,
                        entry(c, true, idx),
                        ord::SEQ_CST,
                        ord::SEQ_CST,
                    ) {
                        Ok(_) => {
                            self.reset_threshold();
                            return Round::Done;
                        }
                        Err(cur) => {
                            e = cur;
                            continue;
                        }
                    }
                }
            }
            return Round::Burned;
        }
    }

    /// One dequeue round: claim a ticket, try to consume its slot/cycle;
    /// on failure transition the slot (hole-advance or unsafe-mark, the
    /// SCQ invariants) and run the threshold accounting.
    fn deq_round(&self) -> Round {
        // ORDERING(bq.ticket): SEQ_CST — dequeue ticket dispenser (see
        // enq_round).
        let h = self.head.fetch_add(1, ord::SEQ_CST);
        let j = (h & (self.n() - 1)) as usize;
        let c = h >> self.order;
        // ORDERING(bq.entry-scan): SEQ_CST — see enq_round.
        let mut e = self.entries[j].load(ord::SEQ_CST);
        loop {
            let ec = ecycle(e);
            if ec == c {
                if eidx(e) != IDX_NULL {
                    // ORDERING(bq.entry-consume): SEQ_CST — the consume
                    // CAS: SC gives the acquire half pairing with the
                    // install's release (data-slot hand-off) and keeps
                    // the transfer in the verdict order (pattern 3).
                    match self.entries[j].compare_exchange(
                        e,
                        entry(c, esafe(e), IDX_NULL),
                        ord::SEQ_CST,
                        ord::SEQ_CST,
                    ) {
                        Ok(_) => return Round::Got(eidx(e)),
                        Err(cur) => {
                            e = cur;
                            continue;
                        }
                    }
                }
                // Hole at our own cycle: the matching enqueue ticket was
                // burned. Fall through to accounting.
                break;
            }
            if ec > c {
                // Later rounds already advanced past our cycle.
                break;
            }
            // ec < c: transition the lagging slot so our ticket can never
            // be satisfied late (SCQ): a hole advances to our cycle, a
            // still-pending value is marked unsafe (its own-cycle
            // consumer is licensed by `head ≤ t`, which our FAA falsified).
            let new = if eidx(e) == IDX_NULL {
                entry(c, esafe(e), IDX_NULL)
            } else if esafe(e) {
                e & !SAFE_BIT
            } else {
                break; // already unsafe: nothing left to record
            };
            // ORDERING(bq.entry-burn): SEQ_CST — hole-advance /
            // unsafe-mark transitions; they gate the install path's
            // reuse test, so they stay in the same total order.
            match self.entries[j].compare_exchange(e, new, ord::SEQ_CST, ord::SEQ_CST) {
                Ok(_) => break,
                Err(cur) => {
                    e = cur;
                    continue;
                }
            }
        }
        // Failed round: emptiness accounting.
        // ORDERING(bq.order-probe): SEQ_CST — see catchup.
        let t = self.tail.load(ord::SEQ_CST);
        if t <= h + 1 {
            self.catchup(t, h + 1);
            // ORDERING(bq.threshold): SEQ_CST — accounting decrement
            // (pattern 3, see reset_threshold).
            self.threshold.fetch_sub(1, ord::SEQ_CST);
            return Round::Drained;
        }
        // ORDERING(bq.threshold): SEQ_CST — accounting decrement; the old
        // value answers the emptiness question (pattern 3).
        if self.threshold.fetch_sub(1, ord::SEQ_CST) <= 0 {
            return Round::Drained;
        }
        Round::Burned
    }
}

// ---------------------------------------------------------------------------
// Request slots (the CRTurn pattern): one word per registered thread.
//
// ctl word: [ seq : 48 | op : 3 | verdict : 1 ]. seq increments once per
// published request, so helper CASes from a stale request can never land.
// ---------------------------------------------------------------------------

const OP_SHIFT: u32 = 1;
const SEQ_SHIFT: u32 = 4;
const VERDICT_BIT: u64 = 1;

/// No request published (also the initial state at seq 0).
const OP_IDLE: u64 = 0;
/// Slow-path pop from `fq` (a pending `try_enqueue` hunting a free index;
/// the drained verdict means `Full`).
const OP_POP_FQ: u64 = 1;
/// Slow-path pop from `aq` (a pending `dequeue`; drained means `None`).
const OP_POP_AQ: u64 = 2;
/// Slow-path insert (either ring; never drains, published so that other
/// threads defer and shrink the interference window).
const OP_INSERT: u64 = 3;

#[inline]
const fn ctl(seq: u64, op: u64, verdict: bool) -> u64 {
    (seq << SEQ_SHIFT) | (op << OP_SHIFT) | (verdict as u64)
}

#[inline]
const fn ctl_op(c: u64) -> u64 {
    (c >> OP_SHIFT) & 0b111
}

#[inline]
const fn ctl_seq(c: u64) -> u64 {
    c >> SEQ_SHIFT
}

struct Record {
    ctl: AtomicU64,
    /// One-slot free-index cache: a dequeue parks the slot index it just
    /// freed here instead of pushing it through `fq`, and the owner
    /// thread's next enqueue takes it directly — the common
    /// produce/consume cycle then costs one ring round per op instead of
    /// two. `IDX_NULL` when empty. Owner-only in steady state; a thread
    /// inheriting a released registry slot inherits the cached index with
    /// it (the registry hand-off orders the accesses).
    ///
    /// This does not change the `Full` contract, only stretches a window
    /// that already exists: an index is always privately held between the
    /// `aq` consume and the `fq` release, during which `try_enqueue` on
    /// other threads can observe `Full`. A parked index is that same
    /// in-flight state held a little longer (at most one index per
    /// registered thread).
    cache: AtomicU64,
}

/// Builder for [`BoundedQueue`].
pub struct BoundedBuilder {
    capacity: usize,
    max_threads: usize,
    fast_tries: usize,
    defer_spins: usize,
}

impl Default for BoundedBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl BoundedBuilder {
    pub fn new() -> Self {
        BoundedBuilder {
            capacity: DEFAULT_CAPACITY,
            max_threads: 8,
            fast_tries: DEFAULT_FAST_TRIES,
            defer_spins: DEFAULT_DEFER_SPINS,
        }
    }

    /// Maximum items the queue holds. Rounded up to a power of two; at
    /// most [`MAX_CAPACITY`] (the 12-bit index field).
    pub fn capacity(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "capacity must be at least 1");
        let cap = cap.next_power_of_two();
        assert!(
            cap <= MAX_CAPACITY,
            "capacity {cap} exceeds MAX_CAPACITY {MAX_CAPACITY}"
        );
        self.capacity = cap;
        self
    }

    /// Upper bound on distinct threads operating on the queue (sizes the
    /// request-slot array and the registry).
    pub fn max_threads(mut self, mt: usize) -> Self {
        assert!(mt >= 1);
        self.max_threads = mt;
        self
    }

    /// Bounded fast-path attempts before publishing a request slot.
    pub fn fast_tries(mut self, tries: usize) -> Self {
        self.fast_tries = tries.max(1);
        self
    }

    /// Bounded spins an operation defers while another thread's request
    /// is pending.
    pub fn defer_spins(mut self, spins: usize) -> Self {
        self.defer_spins = spins;
        self
    }

    /// Build the queue.
    pub fn build<T: Send>(self) -> BoundedQueue<T> {
        let cap = self.capacity;
        let order = (2 * cap).trailing_zeros();
        let max_threads = self.max_threads;
        let registry = ThreadRegistry::new(max_threads);
        let data = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let records = (0..max_threads)
            .map(|_| {
                CachePadded::new(Record {
                    // ORDERING(bq.ctor-init): RELAXED — constructor.
                    ctl: AtomicU64::new(ctl(0, OP_IDLE, false)),
                    cache: AtomicU64::new(IDX_NULL),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        BoundedQueue {
            data,
            aq: Ring::new_empty(order),
            fq: Ring::new_full(order),
            records,
            pending: CachePadded::new(AtomicUsize::new(0)),
            registry,
            telemetry: Arc::new(TelemetrySheet::new(max_threads)),
            fast_tries: self.fast_tries,
            defer_spins: self.defer_spins,
            capacity: cap,
        }
    }
}

/// A wait-free bounded MPMC FIFO queue (see the crate docs for the
/// algorithm).
///
/// `try_enqueue` gives a `Full` verdict instead of allocating; `dequeue`
/// gives `None` through the wait-free threshold verdict. Both paths are
/// allocation-free in steady state.
pub struct BoundedQueue<T> {
    /// The item slots; ownership of `data[i]` travels with index `i`
    /// through the rings (fq → writer → aq → reader → fq), with one
    /// shortcut: a reader may park the index in its [`Record::cache`]
    /// instead of releasing it to `fq`, handing it straight to the same
    /// thread's next write.
    data: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Allocated-index ring: FIFO order of the queue.
    aq: Ring,
    /// Free-index ring: the allocator replacement.
    fq: Ring,
    /// Request slots, indexed by dense registry id.
    records: Box<[CachePadded<Record>]>,
    /// Count of published (pending) requests — the panic flag every fast
    /// path checks before mutating the rings.
    pending: CachePadded<AtomicUsize>,
    registry: ThreadRegistry,
    telemetry: Arc<TelemetrySheet>,
    fast_tries: usize,
    defer_spins: usize,
    capacity: usize,
}

// SAFETY(send-sync): items cross threads through `data`; slot ownership is
// partitioned by ring membership (an index is in exactly one of fq, aq, or
// one thread's hands), and the ring state words carry the hand-off.
unsafe impl<T: Send> Send for BoundedQueue<T> {}
unsafe impl<T: Send> Sync for BoundedQueue<T> {}

impl<T: Send> BoundedQueue<T> {
    /// A queue with the given capacity for `max_threads` threads and
    /// default tuning.
    pub fn with_capacity(capacity: usize, max_threads: usize) -> Self {
        BoundedBuilder::new()
            .capacity(capacity)
            .max_threads(max_threads)
            .build()
    }

    /// Maximum number of items the queue holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Racy occupancy estimate (tickets in flight make it approximate).
    pub fn len_hint(&self) -> usize {
        // ORDERING(bq.len-hint): RELAXED — documented racy hint loads; no
        // decision reads them.
        let t = self.aq.tail.load(ord::RELAXED);
        let h = self.aq.head.load(ord::RELAXED);
        (t.saturating_sub(h) as usize).min(self.capacity)
    }

    /// The queue's own telemetry sheet (`bq_*` counters, fast/helped
    /// latency attribution).
    pub fn telemetry(&self) -> &TelemetrySheet {
        &self.telemetry
    }

    /// The queue's thread registry.
    pub fn registry_handle(&self) -> ThreadRegistry {
        self.registry.clone()
    }

    /// The helping scan: deliver threshold verdicts into pending requests,
    /// then defer this thread's own ring mutations for a bounded window.
    /// O(MAX_THREADS) scan + O(defer_spins) wait — both constants of the
    /// step bound.
    fn maybe_help(&self, tid: usize) {
        // Modelcheck mutant: drop the scan, and with it the defer window
        // that bounds a published request's rounds.
        if turnq_sync::mutant("bq.help-scan") {
            return;
        }
        // ORDERING(bq.req-pending): SEQ_CST — the panic-flag Dekker
        // (pattern 1): a requester publishes its slot then increments the
        // count; an operation that misses the count here must be ordered
        // before the publish, so the requester's scan-free window is
        // bounded (the same structure as `q.enq-panic-scan`).
        if self.pending.load(ord::SEQ_CST) == 0 {
            return;
        }
        for r in 0..self.records.len() {
            if r == tid {
                continue;
            }
            // ORDERING(bq.req-ctl): SEQ_CST — request publish/scan
            // consensus (pattern 1): the requester's PENDING store, the
            // helpers' scans, and the verdict CAS must agree in one
            // total order or a verdict could land on a stale request.
            let c = self.records[r].ctl.load(ord::SEQ_CST);
            let verdict = match ctl_op(c) {
                OP_POP_FQ if c & VERDICT_BIT == 0 => self.fq.drained(),
                OP_POP_AQ if c & VERDICT_BIT == 0 => self.aq.drained(),
                _ => false,
            };
            if verdict {
                // ORDERING(bq.req-ctl): SEQ_CST — verdict delivery CAS;
                // seq in the word makes a stale delivery impossible.
                let _ = self.records[r].ctl.compare_exchange(
                    c,
                    c | VERDICT_BIT,
                    ord::SEQ_CST,
                    ord::SEQ_CST,
                );
            }
            self.telemetry.bump(tid, CounterId::BqHelpRound);
        }
        // Defer: give pending requesters a bounded window of reduced
        // interference (this is what makes their retry loops finite).
        for _ in 0..self.defer_spins {
            // ORDERING(bq.req-pending): SEQ_CST — see above.
            if self.pending.load(ord::SEQ_CST) == 0 {
                break;
            }
            spin_loop();
        }
    }

    /// Publish a request slot, run ring rounds until success or verdict,
    /// unpublish. Returns the popped index, or `None` on the drained
    /// verdict.
    fn pop_slow(&self, ring: &Ring, tid: usize, op: u64) -> Option<u64> {
        let rec = &self.records[tid].ctl;
        // ORDERING(bq.req-ctl): SEQ_CST — request publish (pattern 1);
        // owner-only store, the new seq invalidates stale helper CASes.
        let seq = ctl_seq(rec.load(ord::SEQ_CST)) + 1;
        let pending = ctl(seq, op, false);
        rec.store(pending, ord::SEQ_CST);
        // ORDERING(bq.req-pending): SEQ_CST — flag raise after the
        // publish (pattern 1; see maybe_help).
        self.pending.fetch_add(1, ord::SEQ_CST);
        let result = loop {
            match ring.deq_round() {
                Round::Got(idx) => break Some(idx),
                Round::Drained => break None,
                Round::Burned | Round::Done => {
                    self.telemetry.bump(tid, CounterId::BqTicketBurn);
                }
            }
            // ORDERING(bq.req-ctl): SEQ_CST — verdict poll between rounds.
            if rec.load(ord::SEQ_CST) & VERDICT_BIT != 0 {
                break None;
            }
        };
        // ORDERING(bq.req-pending): SEQ_CST — flag drop (pattern 1).
        self.pending.fetch_sub(1, ord::SEQ_CST);
        // ORDERING(bq.req-ctl): SEQ_CST — owner unpublish; keeps seq.
        rec.store(ctl(seq, OP_IDLE, false), ord::SEQ_CST);
        result
    }

    /// Publish an insert request (so others defer), run rounds until the
    /// index is placed. Inserts never drain: the rings hold at most
    /// `capacity` values in `2·capacity` entries.
    fn push_slow(&self, ring: &Ring, tid: usize, idx: u64) {
        let rec = &self.records[tid].ctl;
        // ORDERING(bq.req-ctl): SEQ_CST — request publish (pattern 1).
        let seq = ctl_seq(rec.load(ord::SEQ_CST)) + 1;
        rec.store(ctl(seq, OP_INSERT, false), ord::SEQ_CST);
        // ORDERING(bq.req-pending): SEQ_CST — flag raise (pattern 1).
        self.pending.fetch_add(1, ord::SEQ_CST);
        loop {
            match ring.enq_round(idx) {
                Round::Done => break,
                _ => self.telemetry.bump(tid, CounterId::BqTicketBurn),
            }
        }
        // ORDERING(bq.req-pending): SEQ_CST — flag drop.
        self.pending.fetch_sub(1, ord::SEQ_CST);
        // ORDERING(bq.req-ctl): SEQ_CST — owner unpublish.
        rec.store(ctl(seq, OP_IDLE, false), ord::SEQ_CST);
    }

    /// Pop an index from `ring`: wait-free drained pre-check, bounded fast
    /// tries, then the request-slot slow path. `true` in the return pair
    /// means the fast path sufficed.
    fn pop_idx(&self, ring: &Ring, tid: usize, op: u64) -> (Option<u64>, bool) {
        if ring.drained() {
            return (None, true);
        }
        for _ in 0..self.fast_tries {
            match ring.deq_round() {
                Round::Got(idx) => return (Some(idx), true),
                Round::Drained => return (None, true),
                Round::Burned | Round::Done => {
                    self.telemetry.bump(tid, CounterId::BqTicketBurn);
                }
            }
        }
        (self.pop_slow(ring, tid, op), false)
    }

    /// Push an index onto `ring`: bounded fast tries, then the slow path.
    fn push_idx(&self, ring: &Ring, tid: usize, idx: u64) -> bool {
        for _ in 0..self.fast_tries {
            match ring.enq_round(idx) {
                Round::Done => return true,
                _ => self.telemetry.bump(tid, CounterId::BqTicketBurn),
            }
        }
        self.push_slow(ring, tid, idx);
        false
    }

    /// Insert `item` at the tail, or give it back when the queue is full.
    ///
    /// Steady-state allocation-free: a free index is popped from `fq`, the
    /// item written into its data slot, and the index published on `aq`.
    pub fn try_enqueue(&self, item: T) -> Result<(), Full<T>> {
        let tid = self.registry.current_index();
        let timer = OpTimer::start();
        self.maybe_help(tid);
        // ORDERING(bq.idx-cache): ACQUIRE — owner-only in steady state
        // (program order suffices); the acquire pairs with the parking
        // RELEASE across a registry-slot hand-off, so an inheriting
        // thread sees the previous owner's last use of the data slot.
        // pairs=bq.idx-cache (self-edge: both halves live on this word)
        let cached = self.records[tid].cache.load(ord::ACQUIRE);
        let (idx, mut fast) = if cached != IDX_NULL {
            // ORDERING(bq.idx-cache): RELEASE — owner take (see above).
            self.records[tid].cache.store(IDX_NULL, ord::RELEASE);
            self.telemetry.bump(tid, CounterId::BqIdxCache);
            (cached, true)
        } else {
            let (popped, fast) = self.pop_idx(&self.fq, tid, OP_POP_FQ);
            match popped {
                Some(idx) => (idx, fast),
                None => {
                    // No `enq_ops` bump and no latency sample on the
                    // backpressure verdict: the generic op meters (and the
                    // soak harness's sample-conservation SLO) count
                    // completed transfers only.
                    self.telemetry.bump(tid, CounterId::BqFull);
                    return Err(Full(item));
                }
            }
        };
        // SAFETY(ring-slot): index `idx` came off the free ring, so this
        // thread owns `data[idx]` exclusively until the `aq` publish
        // below hands it to a consumer.
        unsafe { (*self.data[idx as usize].get()).write(item) };
        fast &= self.push_idx(&self.aq, tid, idx);
        // `enq_ops` is the workspace-wide op meter (docs/metrics.md);
        // `bq_enq_fast`/`bq_enq_slow` attribute the same op to a path.
        self.telemetry.bump(tid, CounterId::EnqOps);
        if fast {
            self.telemetry.bump(tid, CounterId::BqEnqFast);
            self.telemetry.record_latency(tid, OpKey::EnqFast, timer.nanos());
        } else {
            self.telemetry.bump(tid, CounterId::BqEnqSlow);
            self.telemetry.record_latency(tid, OpKey::EnqSlow, timer.nanos());
        }
        Ok(())
    }

    /// Remove and return the head item, or `None` via the wait-free
    /// threshold emptiness verdict.
    pub fn try_dequeue(&self) -> Option<T> {
        let tid = self.registry.current_index();
        let timer = OpTimer::start();
        self.maybe_help(tid);
        let (popped, mut fast) = self.pop_idx(&self.aq, tid, OP_POP_AQ);
        let idx = match popped {
            Some(idx) => idx,
            None => {
                // An empty verdict is a completed dequeue: meter it and
                // record its latency on the path that produced it, so
                // `deq_ops + deq_empty` equals the dequeue latency sample
                // count (the conservation SLO in the soak harness).
                self.telemetry.bump(tid, CounterId::DeqEmpty);
                self.telemetry.bump(tid, CounterId::BqEmpty);
                let key = if fast { OpKey::DeqFast } else { OpKey::DeqSlow };
                self.telemetry.record_latency(tid, key, timer.nanos());
                return None;
            }
        };
        // SAFETY(ring-slot): index `idx` came off the allocated ring, so
        // this thread owns `data[idx]` (the producer's write happened
        // before its `aq` publish); the `fq` push below hands the slot
        // back to a producer.
        let item = unsafe { (*self.data[idx as usize].get()).assume_init_read() };
        // Park the freed index in this thread's one-slot cache when it is
        // empty; only an already-occupied cache pays the `fq` ring round.
        // ORDERING(bq.idx-cache): ACQUIRE/RELEASE — see try_enqueue.
        if self.records[tid].cache.load(ord::ACQUIRE) == IDX_NULL {
            self.records[tid].cache.store(idx, ord::RELEASE);
        } else {
            fast &= self.push_idx(&self.fq, tid, idx);
        }
        self.telemetry.bump(tid, CounterId::DeqOps);
        if fast {
            self.telemetry.bump(tid, CounterId::BqDeqFast);
            self.telemetry.record_latency(tid, OpKey::DeqFast, timer.nanos());
        } else {
            self.telemetry.bump(tid, CounterId::BqDeqSlow);
            self.telemetry.record_latency(tid, OpKey::DeqSlow, timer.nanos());
        }
        Some(item)
    }
}

impl<T> Drop for BoundedQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: drop every item still referenced by `aq`.
        for e in self.aq.entries.iter() {
            // ORDERING(bq.drop-walk): RELAXED — `&mut self` in Drop: no
            // concurrency.
            let e = e.load(ord::RELAXED);
            if eidx(e) != IDX_NULL {
                // SAFETY(drop-exclusive): `&mut self` in Drop — indices
                // still in `aq` reference initialized, unconsumed slots.
                unsafe { (*self.data[eidx(e) as usize].get()).assume_init_drop() };
            }
        }
    }
}

impl<T: Send> ConcurrentQueue<T> for BoundedQueue<T> {
    /// Bounded-queue adaptation of the unbounded trait contract: spins
    /// (with yields) on `Full` until capacity frees up. Use
    /// [`try_enqueue`](BoundedQueue::try_enqueue) for the backpressure
    /// verdict.
    fn enqueue(&self, item: T) {
        let mut item = item;
        loop {
            match self.try_enqueue(item) {
                Ok(()) => return,
                Err(Full(back)) => {
                    item = back;
                    turnq_sync::thread::yield_now();
                }
            }
        }
    }

    fn dequeue(&self) -> Option<T> {
        self.try_dequeue()
    }

    fn max_threads(&self) -> usize {
        self.registry.capacity()
    }
}

impl<T: Send> QueueIntrospect for BoundedQueue<T> {
    fn props() -> QueueProps {
        QueueProps {
            name: "Bounded",
            progress_enqueue: Progress::WaitFreeBounded,
            progress_dequeue: Progress::WaitFreeBounded,
            consensus: "FAA entry cycles + threshold",
            atomic_instructions: "FAA+CAS",
            reclamation: "none (pre-allocated ring)",
            min_memory: "O(capacity)",
        }
    }

    fn size_report() -> SizeReport {
        SizeReport {
            // No list nodes: one state word per ring entry is the whole
            // per-item structure (×2 rings, ×2 entries per value slot).
            node_bytes: 0,
            enqueue_request_bytes: 0,
            dequeue_request_bytes: 0,
            fixed_per_thread_bytes: std::mem::size_of::<CachePadded<Record>>(),
            min_heap_allocs_per_item: 0,
            steady_state_allocs_per_item: 0,
        }
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        None
    }

    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let mut snap = self.telemetry.snapshot();
        if turnq_telemetry::ENABLED {
            snap.set_gauge("bq_capacity", self.capacity as u64);
            snap.set_gauge("bq_len_hint", self.len_hint() as u64);
            snap.add_counter("slot_claim", self.registry.slot_claims());
            snap.add_counter("slot_release", self.registry.slot_releases());
        }
        Some(snap)
    }
}

/// [`QueueFamily`] handle: `Bounded` with [`DEFAULT_CAPACITY`].
pub struct BoundedFamily;

impl QueueFamily for BoundedFamily {
    type Queue<T: Send + 'static> = BoundedQueue<T>;
    const NAME: &'static str = "Bounded";

    fn with_max_threads<T: Send + 'static>(max_threads: usize) -> Self::Queue<T> {
        BoundedQueue::with_capacity(DEFAULT_CAPACITY, max_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering};

    #[test]
    fn entry_packing_roundtrips() {
        let e = entry(77, true, 1234);
        assert_eq!(ecycle(e), 77);
        assert!(esafe(e));
        assert_eq!(eidx(e), 1234);
        let e = entry(0, false, IDX_NULL);
        assert_eq!(ecycle(e), 0);
        assert!(!esafe(e));
        assert_eq!(eidx(e), IDX_NULL);
    }

    #[test]
    fn ctl_packing_roundtrips() {
        let c = ctl(9, OP_POP_AQ, false);
        assert_eq!(ctl_seq(c), 9);
        assert_eq!(ctl_op(c), OP_POP_AQ);
        assert_eq!(c & VERDICT_BIT, 0);
        assert_eq!(ctl_seq(c | VERDICT_BIT), 9);
    }

    #[test]
    fn fifo_and_capacity_verdicts() {
        let q: BoundedQueue<u32> = BoundedQueue::with_capacity(4, 2);
        assert_eq!(q.capacity(), 4);
        assert_eq!(q.try_dequeue(), None);
        for i in 0..4 {
            assert!(q.try_enqueue(i).is_ok());
        }
        assert_eq!(q.try_enqueue(99), Err(Full(99)));
        for i in 0..4 {
            assert_eq!(q.try_dequeue(), Some(i));
        }
        assert_eq!(q.try_dequeue(), None);
        // Capacity frees after drain.
        assert!(q.try_enqueue(7).is_ok());
        assert_eq!(q.try_dequeue(), Some(7));
    }

    #[test]
    fn wraparound_many_cycles() {
        let q: BoundedQueue<u64> = BoundedQueue::with_capacity(2, 1);
        for i in 0..10_000 {
            assert!(q.try_enqueue(i).is_ok());
            assert_eq!(q.try_dequeue(), Some(i));
        }
        assert_eq!(q.try_dequeue(), None);
    }

    #[test]
    fn interleaved_partial_drain() {
        let q: BoundedQueue<u32> = BoundedQueue::with_capacity(8, 1);
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        for _ in 0..500 {
            for _ in 0..3 {
                if q.try_enqueue(next_in).is_ok() {
                    next_in += 1;
                }
            }
            for _ in 0..2 {
                if let Some(v) = q.try_dequeue() {
                    assert_eq!(v, next_out, "FIFO violated");
                    next_out += 1;
                }
            }
        }
        while let Some(v) = q.try_dequeue() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_in, next_out);
    }

    #[test]
    fn drop_releases_residents() {
        struct D(std::sync::Arc<StdAtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = std::sync::Arc::new(StdAtomicUsize::new(0));
        {
            let q: BoundedQueue<D> = BoundedQueue::with_capacity(8, 1);
            for _ in 0..5 {
                assert!(q.try_enqueue(D(std::sync::Arc::clone(&drops))).is_ok());
            }
            drop(q.try_dequeue());
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5, "ring residue freed");
    }

    #[test]
    fn mpmc_stress_exactly_once() {
        const PRODUCERS: usize = 2;
        const CONSUMERS: usize = 2;
        const PER: u64 = 20_000;
        let q: std::sync::Arc<BoundedQueue<u64>> =
            std::sync::Arc::new(BoundedQueue::with_capacity(64, PRODUCERS + CONSUMERS));
        let got: std::sync::Arc<std::sync::Mutex<Vec<u64>>> =
            std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = std::sync::Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER {
                        let mut item = (p as u64) << 40 | i;
                        loop {
                            match q.try_enqueue(item) {
                                Ok(()) => break,
                                Err(Full(back)) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            let taken = std::sync::Arc::new(StdAtomicUsize::new(0));
            for _ in 0..CONSUMERS {
                let q = std::sync::Arc::clone(&q);
                let got = std::sync::Arc::clone(&got);
                let taken = std::sync::Arc::clone(&taken);
                s.spawn(move || {
                    let mut local = Vec::new();
                    while taken.load(Ordering::SeqCst) < PRODUCERS * PER as usize {
                        match q.try_dequeue() {
                            Some(v) => {
                                local.push(v);
                                taken.fetch_add(1, Ordering::SeqCst);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                    got.lock().unwrap().append(&mut local);
                });
            }
        });
        let mut all = got.lock().unwrap().clone();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), PRODUCERS * PER as usize, "exactly-once delivery");
        // Per-producer FIFO.
        for p in 0..PRODUCERS as u64 {
            let seq: Vec<u64> = all
                .iter()
                .filter(|v| *v >> 40 == p)
                .map(|v| v & ((1 << 40) - 1))
                .collect();
            assert_eq!(seq.len(), PER as usize);
        }
    }

    #[test]
    fn slow_path_exercised_with_zero_fast_tries() {
        let q: BoundedQueue<u32> = BoundedBuilder::new()
            .capacity(4)
            .max_threads(2)
            .fast_tries(1)
            .build();
        // fast_tries is clamped to >= 1; one try then the slow path.
        for i in 0..4 {
            assert!(q.try_enqueue(i).is_ok());
        }
        for i in 0..4 {
            assert_eq!(q.try_dequeue(), Some(i));
        }
        assert_eq!(q.try_dequeue(), None);
    }

    #[test]
    fn telemetry_counts_ops() {
        let q: BoundedQueue<u32> = BoundedQueue::with_capacity(4, 1);
        q.try_enqueue(1).unwrap();
        q.try_dequeue().unwrap();
        assert_eq!(q.try_dequeue(), None);
        let snap = q.telemetry_snapshot().unwrap();
        if turnq_telemetry::ENABLED {
            assert_eq!(snap.counter(CounterId::BqEnqFast), 1);
            assert_eq!(snap.counter(CounterId::BqDeqFast), 1);
            assert_eq!(snap.counter(CounterId::BqEmpty), 1);
            assert_eq!(snap.get("bq_capacity"), 4);
        }
    }

    #[test]
    fn props_and_size_report() {
        let p = BoundedQueue::<u64>::props();
        assert_eq!(p.name, "Bounded");
        assert_eq!(p.progress_enqueue, Progress::WaitFreeBounded);
        let s = BoundedQueue::<u64>::size_report();
        assert_eq!(s.min_heap_allocs_per_item, 0);
        assert_eq!(s.steady_state_allocs_per_item, 0);
        assert_eq!(s.node_bytes, 0);
    }
}
