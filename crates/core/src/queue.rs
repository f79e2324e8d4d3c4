//! The Turn queue (paper §2, Algorithms 2–4): a linearizable MPMC queue
//! with wait-free-bounded `enqueue` and `dequeue` and embedded wait-free
//! hazard-pointer reclamation.
//!
//! The implementation mirrors the paper's C++14 listings line by line; the
//! comments cite the paper's line numbers and invariants (Inv. 1–11) so the
//! code can be reviewed against the text.

use std::marker::PhantomData;
use std::ptr;
use turnq_sync::atomic::AtomicPtr;
use turnq_sync::ord;
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use turnq_api::{
    ConcurrentQueue, PoolStats, Progress, QueueFamily, QueueIntrospect, QueueProps, SizeReport,
};
use turnq_hazard::HazardPointers;
use turnq_telemetry::{
    CounterId, OpKey, OpTimer, TelemetryHandle, TelemetrySheet, TelemetrySnapshot,
};
use turnq_threadreg::{RegistryFull, ThreadRegistry};

use crate::node::{decode_turn, encode_fast, is_fast_claim, Node, IDX_NONE};
use crate::pool::{NodePool, PoolSink, POOL_LIST_BYTES};

/// Hazard slot for `tail` during enqueue and `head` during dequeue (the
/// paper's `kHpTail`/`kHpHead` — one operation runs at a time per thread,
/// so the slot is shared, as in the reference implementation).
pub(crate) const HP_HEAD_TAIL: usize = 0;
/// Hazard slot for `head->next` (`kHpNext`).
const HP_NEXT: usize = 1;
/// Hazard slot for `deqhelp[ldeqTid]` in `casDeqAndHead` (`kHpDeq`), held
/// purely to prevent the retired-deleted-reused ABA on the closing CAS
/// (paper §2.4).
const HP_DEQ: usize = 2;
/// Hazard slots per thread.
pub(crate) const HPS_PER_THREAD: usize = 3;

/// Default `MAX_THREADS` when none is given.
pub const DEFAULT_MAX_THREADS: usize = 32;

/// Default fast-path retry budget: the number of direct MS-style CAS
/// attempts an operation makes before publishing a CRTurn request
/// (DESIGN.md §6c). Small on purpose — each
/// attempt scans the consensus array for pending requests, so a large
/// budget only adds bounded-but-wasted work under contention.
pub const DEFAULT_FAST_TRIES: u32 = 4;

/// Default segment size (items per linked node) for
/// [`TurnQueueBuilder::build_seg`], picked by a benchmark sweep over 16,
/// 32, 64 and 128 (EXPERIMENTS.md "Segment geometry"). 64 is the smallest
/// size whose `stream` throughput (one producer, one consumer, where every
/// segment boundary costs an append, a hazard-pointer revalidation and a
/// pool round trip) is within 5 % of the best, and no segment-mode or
/// sharded metric is worse there than at 16. A segment then holds a
/// 512-byte node and 64 × 16 bytes of cells: 24 bytes per word-sized item,
/// against 48 at 16. The paper-literal one-item-per-node queue is
/// `.pool_capacity(0).fast_tries(0).build()`.
pub const DEFAULT_SEG_SIZE: usize = 64;

/// A memory-unbounded multi-producer/multi-consumer wait-free queue.
///
/// * `enqueue()` and `dequeue()` complete in `O(max_threads)` steps
///   (wait-free bounded, paper Invariant 5 and §2.3).
/// * The only atomic read-modify-write used is CAS.
/// * The only per-item heap allocation is the node created by `enqueue()`.
/// * Nodes are reclaimed by embedded wait-free-bounded hazard pointers.
///
/// Up to `max_threads` distinct threads may operate on the queue; threads
/// register automatically on first use (and their slot is recycled when
/// they exit). For hot paths, [`handle()`](TurnQueue::handle) returns a
/// per-thread handle that skips the thread-registry lookup.
///
/// ```
/// use turn_queue::TurnQueue;
///
/// let q: TurnQueue<u64> = TurnQueue::with_max_threads(4);
/// q.enqueue(1);
/// q.enqueue(2);
/// assert_eq!(q.dequeue(), Some(1));
/// assert_eq!(q.dequeue(), Some(2));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct TurnQueue<T> {
    pub(crate) max_threads: usize,
    pub(crate) head: CachePadded<AtomicPtr<Node<T>>>,
    pub(crate) tail: CachePadded<AtomicPtr<Node<T>>>,
    /// The initial sentinel, which `Drop` frees. Once the head has passed
    /// it nothing else can: no request is ever assigned it, so no line-30
    /// `retire(prReq)` reaches it, and it is never fast-claimed. Null in
    /// the variants that retire every head they pass, the sentinel
    /// included (the MPSC consumer walk, segment mode).
    pub(crate) sentinel: *mut Node<T>,
    /// `enqueuers[i]` — thread `i`'s published enqueue request: the node it
    /// wants inserted, or null when it has no open request (paper §2.1).
    pub(crate) enqueuers: Box<[CachePadded<AtomicPtr<Node<T>>>]>,
    /// `deqself[i] == deqhelp[i]` ⇔ thread `i` has an *open* dequeue
    /// request (paper §2.3).
    pub(crate) deqself: Box<[CachePadded<AtomicPtr<Node<T>>>]>,
    /// `deqhelp[i]` — the node assigned to thread `i`'s most recent
    /// dequeue; writing a new node here *closes* the request.
    pub(crate) deqhelp: Box<[CachePadded<AtomicPtr<Node<T>>>]>,
    pub(crate) hp: HazardPointers<Node<T>, PoolSink<T>>,
    /// Per-thread caches of recycled nodes. The hazard-pointer sink above
    /// feeds reclaimed nodes in; [`alloc_node`](Self::alloc_node) pops them
    /// back out on enqueue. Capacity 0 disables recycling (every reclaim
    /// frees, every enqueue allocates — the pre-pool behavior).
    pub(crate) pool: Arc<NodePool<T>>,
    pub(crate) registry: ThreadRegistry,
    /// True when the registry was supplied through
    /// [`TurnQueueBuilder::registry`]: its tallies belong to the external
    /// owner and are excluded from this queue's snapshot (a sharded
    /// front-end would otherwise fold the same registry once per lane).
    registry_shared: bool,
    /// Observer-only telemetry sheet: op/helping/CAS-fail counters, the
    /// helping-depth histogram, and latency histograms. Shared (via a
    /// handle) with the hazard domain. Recording is plain owner-only
    /// stores — see `turnq-telemetry` for why this cannot affect
    /// wait-freedom or the CAS-only claim. An inert shell when the
    /// `telemetry` feature is off.
    pub(crate) telemetry: Arc<TelemetrySheet>,
    /// Fast-path retry budget (DESIGN.md §6c): how many direct MS-style CAS
    /// attempts an operation makes before falling back to the paper's
    /// request-publication slow path. 0 disables the fast path (every
    /// operation is paper-literal CRTurn). Defaults to
    /// [`DEFAULT_FAST_TRIES`].
    fast_tries: u32,
    /// The fast path's starvation guard ("panic flag", §6c): every fast
    /// attempt scans the consensus array and falls back on any pending
    /// slow-path request, so fast threads cannot starve a published
    /// request. Always `true` in production; disabled only through the
    /// hidden [`TurnQueueBuilder::panic_check_for_tests`] knob so the
    /// modelcheck mutant can prove the guard is load-bearing.
    panic_check: bool,
    /// Stall-watchdog threshold in nanoseconds (`u64::MAX` = disabled):
    /// when a completed operation's measured latency reaches it, the
    /// flight recorder dumps a structured report (the stalled op and the
    /// consensus-array request states) into the telemetry sheet.
    /// Checked once per completed op on an already-recorded latency, so
    /// the wait-free bound is unaffected. Armed, it makes every op read
    /// the clock instead of the sampled ~1 in 64 ([`TurnQueue::op_timer`]).
    stall_threshold_ns: u64,
}

// SAFETY(send-sync): all shared mutable state is atomics; raw node pointers are
// managed by the hazard-pointer protocol (the `sentinel` field is read only
// by `Drop`, under `&mut self`); items move between threads, hence
// `T: Send`. Consumers on any thread may receive items, so `Sync` also only
// needs `T: Send` (a queue never shares `&T`).
unsafe impl<T: Send> Send for TurnQueue<T> {}
unsafe impl<T: Send> Sync for TurnQueue<T> {}

/// Builder for [`TurnQueue`]: the single home of every configuration knob.
///
/// The shorthand constructors [`TurnQueue::new`] and
/// [`TurnQueue::with_max_threads`] are thin wrappers over this; every other
/// knob is set here.
///
/// ```
/// use turn_queue::{TurnQueue, TurnQueueBuilder};
///
/// let q: TurnQueue<u64> = TurnQueueBuilder::new()
///     .max_threads(4)
///     .fast_tries(8)
///     .build();
/// q.enqueue(7);
/// assert_eq!(q.dequeue(), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct TurnQueueBuilder {
    pub(crate) max_threads: usize,
    pub(crate) pool_capacity: Option<usize>,
    fast_tries: Option<u32>,
    panic_check: bool,
    stall_threshold_ns: u64,
    pub(crate) seg_size: Option<usize>,
    pub(crate) seg_drained_guard: bool,
    /// Set by [`build_seg`](Self::build_seg)'s path only: the inner queue's
    /// node pool keeps ring payloads across recycling (see `pool.rs`).
    pub(crate) pool_retain_payload: bool,
    registry: Option<ThreadRegistry>,
}

impl Default for TurnQueueBuilder {
    fn default() -> Self {
        TurnQueueBuilder {
            max_threads: DEFAULT_MAX_THREADS,
            pool_capacity: None,
            fast_tries: None,
            panic_check: true,
            stall_threshold_ns: u64::MAX,
            seg_size: None,
            seg_drained_guard: true,
            pool_retain_payload: false,
            registry: None,
        }
    }
}

impl TurnQueueBuilder {
    /// Start from the defaults: [`DEFAULT_MAX_THREADS`], recommended pool
    /// capacity, and the default fast-path budget [`DEFAULT_FAST_TRIES`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound on concurrently-operating threads. The wait-free bound of
    /// every operation is `O(max_threads)`, so size this to the real
    /// concurrency level.
    pub fn max_threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads;
        self
    }

    /// Explicit per-thread node-pool capacity in nodes (0 disables
    /// recycling). Unset, [`build`](Self::build) sizes each free list to
    /// [`POOL_LIST_BYTES`](crate::POOL_LIST_BYTES) of nodes (4,096 for a
    /// word-sized item), or to the hazard backlog bound
    /// [`retired_bound`](turnq_hazard::retired_bound) when that is more;
    /// [`build_seg`](Self::build_seg), whose pooled nodes carry a whole
    /// ring, uses `retired_bound`. Pooled memory is at most
    /// `(max_threads + 1) × capacity` nodes per queue.
    pub fn pool_capacity(mut self, capacity: usize) -> Self {
        self.pool_capacity = Some(capacity);
        self
    }

    /// Fast-path retry budget (DESIGN.md §6c): direct MS-style CAS attempts
    /// per operation before falling back to CRTurn request publication.
    /// 0 disables the fast path. Unset, defaults to
    /// [`DEFAULT_FAST_TRIES`].
    pub fn fast_tries(mut self, tries: u32) -> Self {
        self.fast_tries = Some(tries);
        self
    }

    /// Share an externally owned [`ThreadRegistry`] instead of creating a
    /// private one. Queues built over the same registry see the same dense
    /// thread index for a given thread (one TLS cache entry and one slot
    /// claim per thread for the whole group) — the sharded front-end
    /// (`turnq-sharded`) builds every lane over one registry so producer
    /// lane affinity and each lane's consensus-array index agree.
    ///
    /// The registry's capacity must equal this builder's `max_threads`
    /// (asserted at build: every per-thread array is indexed by the
    /// registry's dense index). A queue sharing a registry does **not**
    /// fold the registry tallies (`registry_registered`, `slot_claim`,
    /// `slot_release`) into its [`telemetry_snapshot`](TurnQueue::telemetry_snapshot) —
    /// the registry's owner reports them exactly once.
    pub fn registry(mut self, registry: ThreadRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Stall-watchdog threshold in nanoseconds: a completed operation
    /// whose measured wall-clock latency reaches `ns` triggers the flight
    /// recorder — a structured JSON report of the stalled op and the
    /// consensus-array request states, retrievable through
    /// [`TelemetrySheet::take_stall_reports`]. `u64::MAX` (the default)
    /// disables the watchdog; any threshold is observer-only and cannot
    /// affect wait-freedom (the check is one compare on a latency the
    /// telemetry recorder already produced). An armed watchdog times every
    /// operation, so the latency histograms then count every operation
    /// rather than a sampled ~1 in
    /// [`LATENCY_SAMPLE_PERIOD`](turnq_telemetry::LATENCY_SAMPLE_PERIOD),
    /// at the price of two clock reads per operation. Inert when the
    /// telemetry `probe` feature is off.
    pub fn stall_threshold_ns(mut self, ns: u64) -> Self {
        self.stall_threshold_ns = ns;
        self
    }

    /// Test-only: disable the fast path's pending-request ("panic flag")
    /// scan. This deliberately breaks the wait-free bound — it exists so
    /// the modelcheck mutant suite can demonstrate the starvation the scan
    /// prevents. Never disable it in production.
    #[doc(hidden)]
    pub fn panic_check_for_tests(mut self, enabled: bool) -> Self {
        self.panic_check = enabled;
        self
    }

    /// Segment size K for [`build_seg`](Self::build_seg) (DESIGN.md §6d):
    /// items per linked node. Producers and consumers claim cells inside a
    /// segment with one FAA each and pay CRTurn consensus only at segment
    /// boundaries, amortizing consensus, HP publication, and pool traffic
    /// ×K. Must be a power of two ≥ 2: one item per node is the
    /// per-item queue that [`build`](Self::build) returns (the
    /// paper-literal baseline is `.pool_capacity(0).fast_tries(0).build()`).
    /// Unset, defaults to [`DEFAULT_SEG_SIZE`].
    ///
    /// Ignored by [`build`](Self::build), which always constructs the
    /// per-item queue.
    pub fn seg_size(mut self, k: usize) -> Self {
        assert!(
            k >= 2,
            "seg_size must be at least 2 (got {k}); per-item nodes come from `build()`"
        );
        assert!(
            k.is_power_of_two(),
            "seg_size must be a power of two (got {k})"
        );
        self.seg_size = Some(k);
        self
    }

    /// Test-only: disable the drained-segment guard — the rule that a
    /// consumer may swing `head` past a segment only after its own FAA
    /// ticket proves all K cells are covered by unique consumers. Without
    /// it the head advances as soon as a successor exists, abandoning
    /// undelivered cells. Exists so the modelcheck mutant suite can
    /// demonstrate the loss the guard prevents. Never disable it in
    /// production.
    #[doc(hidden)]
    pub fn seg_drained_guard_for_tests(mut self, enabled: bool) -> Self {
        self.seg_drained_guard = enabled;
        self
    }

    /// Build the queue.
    pub fn build<T>(self) -> TurnQueue<T> {
        let TurnQueueBuilder {
            max_threads,
            pool_capacity,
            fast_tries,
            panic_check,
            stall_threshold_ns,
            seg_size: _,
            seg_drained_guard: _,
            pool_retain_payload,
            registry,
        } = self;
        assert!(max_threads >= 1, "max_threads must be at least 1");
        assert!(
            max_threads <= u32::MAX as usize,
            "max_threads must fit the node's enq_tid field"
        );
        if let Some(reg) = &registry {
            assert!(
                reg.capacity() == max_threads,
                "shared registry capacity {} must equal max_threads {max_threads} \
                 (per-thread arrays are indexed by the registry's dense index)",
                reg.capacity()
            );
        }
        let registry_shared = registry.is_some();
        // A byte budget of nodes, so a split-role hand-over moves enough
        // to ride out the backlog's swings, and never less than the
        // worst-case burst a single scan may deliver (`pool` module docs).
        let pool_capacity = pool_capacity.unwrap_or_else(|| {
            turnq_hazard::retired_bound(max_threads, HPS_PER_THREAD)
                .max(POOL_LIST_BYTES / std::mem::size_of::<Node<T>>())
        });
        let fast_tries = fast_tries.unwrap_or(DEFAULT_FAST_TRIES);
        let mk_slots = || {
            (0..max_threads)
                .map(|_| CachePadded::new(AtomicPtr::new(ptr::null_mut())))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        };
        // The initial sentinel; its enq_tid of 0 seeds the enqueue turn
        // (§2: "could have been any number between 0 and MAX_THREADS-1").
        let sentinel = Node::<T>::alloc(None, 0);
        let deqself = mk_slots();
        let deqhelp = mk_slots();
        // Each dequeue slot starts with its own unique dummy so that
        // `deqself[i] != deqhelp[i]` (no open request) and the first
        // `retire(prReq)` retires a dummy rather than a live node.
        // ORDERING(q.ctor-init): RELAXED — single-threaded constructor;
        // whatever shares the queue afterwards (Arc, scoped spawn) provides
        // the release/acquire publication edge.
        for i in 0..max_threads {
            deqself[i].store(Node::<T>::alloc(None, 0), ord::RELAXED);
            deqhelp[i].store(Node::<T>::alloc(None, 0), ord::RELAXED);
        }
        let telemetry = Arc::new(TelemetrySheet::new(max_threads));
        let mut pool = NodePool::new(max_threads, pool_capacity);
        pool.set_retain_payload(pool_retain_payload);
        let pool = Arc::new(pool);
        let mut hp = HazardPointers::with_sink(
            max_threads,
            HPS_PER_THREAD,
            PoolSink::new(Arc::clone(&pool)),
        );
        hp.attach_telemetry(TelemetryHandle::connected(&telemetry));
        TurnQueue {
            max_threads,
            head: CachePadded::new(AtomicPtr::new(sentinel)),
            tail: CachePadded::new(AtomicPtr::new(sentinel)),
            sentinel,
            enqueuers: mk_slots(),
            deqself,
            deqhelp,
            hp,
            pool,
            registry: registry.unwrap_or_else(|| ThreadRegistry::new(max_threads)),
            registry_shared,
            telemetry,
            fast_tries,
            panic_check,
            stall_threshold_ns,
        }
    }

    /// Build the segment-node queue (DESIGN.md §6d): linked nodes carry
    /// [`seg_size`](Self::seg_size) item cells claimed by FAA, with CRTurn
    /// consensus paid only at segment boundaries. The per-item queue is
    /// [`build`](Self::build).
    pub fn build_seg<T: Send>(self) -> crate::seg::SegTurnQueue<T> {
        crate::seg::SegTurnQueue::from_builder(self)
    }
}

impl<T> TurnQueue<T> {
    /// The builder carrying every configuration knob (thread bound, pool
    /// capacity, fast-path budget).
    pub fn builder() -> TurnQueueBuilder {
        TurnQueueBuilder::new()
    }

    /// Create a queue for at most [`DEFAULT_MAX_THREADS`] threads.
    ///
    /// Thin wrapper over [`builder`](Self::builder) — prefer the builder in
    /// new code.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Create a queue for at most `max_threads` concurrently-operating
    /// threads. The wait-free bound of every operation is
    /// `O(max_threads)`, so size this to the real concurrency level.
    ///
    /// Thin wrapper over [`builder`](Self::builder) — prefer the builder in
    /// new code.
    pub fn with_max_threads(max_threads: usize) -> Self {
        Self::builder().max_threads(max_threads).build()
    }

    /// Pop a recycled node from the caller's free list, or allocate a fresh
    /// one. Either way the returned node is in the exact state
    /// [`Node::alloc`] produces.
    #[inline]
    pub(crate) fn alloc_node(&self, myidx: usize, item: Option<T>) -> *mut Node<T> {
        // SAFETY(pool-owner): `myidx` is the caller's registered index (the
        // same exclusivity contract as `hp.retire`).
        match unsafe { self.pool.acquire(myidx) } {
            Some(recycled) => {
                // SAFETY(pool-owner): the node came off our own free list, so
                // we own it exclusively and its previous payload was cleared
                // on release.
                unsafe { Node::reset(recycled, item, myidx as u32) };
                recycled
            }
            None => Node::alloc(item, myidx as u32),
        }
    }

    /// Aggregated counters of the node-recycling pool (all threads).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Aggregate this queue's telemetry: sheet counters and the
    /// helping-depth histogram, plus fold-in counters from the node pool
    /// (hits/misses/recycles/overflows) and level gauges (pooled nodes,
    /// HP retired backlog, live registrations). All-zero when the
    /// `telemetry` feature is off; exact once concurrent ops quiesce.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        // The pool and registry tallies are recorded unconditionally (they
        // predate the probes and feed their own tests), but the snapshot
        // keeps the `probe`-off ⇒ all-zero contract, so fold them in only
        // when the probes exist.
        if turnq_telemetry::ENABLED {
            let pool = self.pool.stats();
            snap.add_counter("pool_hit", pool.hits);
            snap.add_counter("pool_miss", pool.misses);
            snap.add_counter("pool_recycled", pool.recycled);
            snap.add_counter("pool_overflow", pool.overflows);
            snap.set_gauge("pool_pooled_now", pool.pooled_now);
            snap.set_gauge("hp_retired_backlog", self.hp.retired_backlog() as u64);
            if !self.registry_shared {
                snap.set_gauge("registry_registered", self.registry.registered_count() as u64);
                snap.add_counter("slot_claim", self.registry.slot_claims());
                snap.add_counter("slot_release", self.registry.slot_releases());
            }
        }
        snap
    }

    /// The raw telemetry sheet (thread-level counters, stall reports).
    /// Prefer [`telemetry_snapshot`](Self::telemetry_snapshot) for
    /// aggregates.
    pub fn telemetry(&self) -> &TelemetrySheet {
        &self.telemetry
    }

    /// Per-thread node-pool capacity (0 = recycling disabled).
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// The `max_threads` bound this queue was built with.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// The fast-path retry budget this queue was built with (0 = fast path
    /// disabled; see [`TurnQueueBuilder::fast_tries`]).
    pub fn fast_tries(&self) -> u32 {
        self.fast_tries
    }

    /// Racy emptiness hint: true if `head == tail` at some instant during
    /// the call. (A linearizable emptiness *check* is what `dequeue()`
    /// returning `None` provides.)
    pub fn is_empty(&self) -> bool {
        // ORDERING(q.empty-hint): RELAXED — documented racy hint; no
        // algorithm decision reads it, so no happens-before edge is required.
        self.head.load(ord::RELAXED) == self.tail.load(ord::RELAXED)
    }

    /// A handle that caches the calling thread's registry index, removing
    /// the TLS lookup from the hot path. The handle cannot be sent to
    /// another thread.
    #[inline]
    pub fn handle(&self) -> Result<TurnHandle<'_, T>, RegistryFull> {
        let tid = self.registry.try_current_index()?;
        Ok(TurnHandle {
            queue: self,
            tid,
            _not_send: PhantomData,
        })
    }

    /// Insert `item` at the tail of the queue. Wait-free bounded:
    /// completes within `max_threads` loop iterations (paper Inv. 5).
    #[inline]
    pub fn enqueue(&self, item: T) {
        let tid = self.registry.current_index();
        self.enqueue_with(tid, item);
    }

    /// Remove and return the head item, or `None` if the queue is empty.
    /// Wait-free bounded.
    #[inline]
    pub fn dequeue(&self) -> Option<T> {
        let tid = self.registry.current_index();
        self.dequeue_with(tid)
    }

    /// Record a finished enqueue: ops counter, helping-depth histogram
    /// bucket, and the path-attributed latency sample.
    /// `depth` is the helping-loop iteration at which this thread
    /// *observed* its request complete — by Inv. 5 always at most
    /// `max_threads - 1`, the paper's overtaking bound.
    #[inline]
    pub(crate) fn record_enqueue(&self, myidx: usize, depth: usize, timer: &OpTimer, key: OpKey) {
        self.telemetry.bump(myidx, CounterId::EnqOps);
        self.telemetry.record_depth(myidx, depth);
        self.finish_op(myidx, timer, key);
    }

    /// The timer every Turn-family operation starts with (per-item,
    /// segment, MPSC/SPMC endpoints, and through them the sharded lanes).
    /// The sampler times about one op in
    /// [`LATENCY_SAMPLE_PERIOD`](turnq_telemetry::LATENCY_SAMPLE_PERIOD);
    /// an armed stall watchdog must judge every op, so it times them all.
    #[inline(always)]
    pub(crate) fn op_timer(&self) -> OpTimer {
        if self.stall_threshold_ns == u64::MAX {
            OpTimer::start()
        } else {
            OpTimer::start_exact()
        }
    }

    /// The start→finish latency tail shared by every op exit (including
    /// empty dequeues, which skip the depth histogram but still have a
    /// latency): record the sample under its path key, then run the stall
    /// watchdog. Observer-only — at most one clock read, owner-only plain
    /// stores, and a single compare; no branch feeds back into the
    /// algorithm. An unsampled op reads `NOT_SAMPLED` (0), which the sheet
    /// drops and which never reaches a threshold: only an unarmed queue
    /// (threshold `u64::MAX`) samples.
    #[inline]
    pub(crate) fn finish_op(&self, myidx: usize, timer: &OpTimer, key: OpKey) {
        let nanos = timer.nanos();
        self.telemetry.record_latency(myidx, key, nanos);
        if turnq_telemetry::ENABLED && nanos >= self.stall_threshold_ns {
            self.flight_record(myidx, key, nanos);
        }
    }

    /// The stall watchdog fired: count it and dump the flight
    /// recorder — a JSON report of who was doing what when the op
    /// overran its threshold. `#[cold]`: never on a healthy hot path.
    #[cold]
    fn flight_record(&self, myidx: usize, key: OpKey, nanos: u64) {
        self.telemetry.bump(myidx, CounterId::StallDump);
        let report = self.stall_report_json(myidx, key, nanos);
        // Best-effort by design: a lost report under report-storm
        // contention only loses observability, never progress.
        let _ = self.telemetry.report_stall(report);
    }

    /// Build the flight-recorder "black box": the stalled op's identity
    /// and the consensus-array request states (which threads have open
    /// enqueue/dequeue requests right now).
    fn stall_report_json(&self, myidx: usize, key: OpKey, nanos: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"schema\":\"turnq-stall-report/2\",\"thread\":{myidx},\
             \"op\":\"{}\",\"path\":\"{}\",\"latency_ns\":{nanos},\
             \"threshold_ns\":{},\"requests\":[",
            key.op(),
            key.path(),
            self.stall_threshold_ns
        );
        for tid in 0..self.max_threads {
            let _ = write!(
                out,
                "{}{{\"tid\":{tid},\"enq_open\":{},\"deq_open\":{}}}",
                if tid == 0 { "" } else { "," },
                self.enqueue_request_open(tid),
                self.dequeue_request_open(tid),
            );
        }
        out.push_str("]}");
        out
    }

    /// Enqueue entry point: fast path first (if enabled), then the paper's
    /// Algorithm 2 slow path. `myidx` is the caller's registered index.
    pub(crate) fn enqueue_with(&self, myidx: usize, item: T) {
        debug_assert!(myidx < self.max_threads);
        let timer = self.op_timer();
        let my_node = self.alloc_node(myidx, Some(item)); // line 3
        if self.fast_tries > 0 && self.try_fast_enqueue(myidx, my_node, &timer) {
            return;
        }
        self.slow_enqueue(myidx, my_node, &timer);
    }

    /// Fast-path enqueue (DESIGN.md §6c): up to `fast_tries` direct
    /// MS-style tail appends, with no request publication and no helping
    /// scan. Returns `true` on success; `false` means the caller must run
    /// the slow path with the same (restored) node.
    ///
    /// Two rules keep the slow path's `O(max_threads)` bound intact:
    ///
    /// * **Panic flag** — after validating the tail, scan the `enqueuers`
    ///   consensus array; any pending request forces an immediate fallback.
    ///   Because the scan is SeqCst-ordered against the slow path's publish,
    ///   at most one in-flight fast append per thread can land after a
    ///   publish becomes visible. The scan also subsumes the paper's
    ///   lines 12-15 (Inv. 7) duty: an open-request tail still occupies its
    ///   owner's slot, so the scan refuses to append after it and no node
    ///   can be inserted twice.
    /// * **Turn inheritance** — the appended node copies the predecessor
    ///   tail's `enq_tid`, so the CRTurn enqueue turn is unchanged by fast
    ///   appends and a published request keeps its place in the rotation.
    pub(crate) fn try_fast_enqueue(
        &self,
        myidx: usize,
        my_node: *mut Node<T>,
        timer: &OpTimer,
    ) -> bool {
        for _attempt in 0..self.fast_tries {
            // ORDERING(q.tail-candidate): ACQUIRE — candidate for protection
            // only; the SeqCst validation below carries the handshake.
            // pairs=q.tail-advance
            let ltail = self
                .hp
                .protect_ptr(myidx, HP_HEAD_TAIL, self.tail.load(ord::ACQUIRE));
            // ORDERING(q.tail-validate): SEQ_CST — protect/validate handshake
            // (Algorithm 5), exactly as in the slow path; it also orders the
            // panic scan below after this point in the total order.
            // pairs=q.tail-advance
            if ltail != self.tail.load(ord::SEQ_CST) {
                self.telemetry.bump(myidx, CounterId::FastEnqRetry);
                continue;
            }
            if self.panic_check && self.enqueue_request_pending() {
                break; // a published request must not be starved — fall back
            }
            // SAFETY(hp-validate): ltail is protected and validated; HP
            // keeps it alive.
            let ltail_ref = unsafe { &*ltail };
            // Inherit the tail's turn position before publishing the node.
            // SAFETY(node-unpublished): my_node is exclusively ours until
            // the linking CAS below succeeds (fresh allocation or own-pool
            // node), so a plain field write is race-free.
            unsafe { (*my_node).enq_tid = ltail_ref.enq_tid };
            // ORDERING(q.link-cas): ACQ_REL / ACQUIRE — the linking CAS,
            // same edge as the slow path's line 18: release publishes the
            // node payload (and the enq_tid write above) to every later
            // acquire read of `next`; the per-location CAS order decides the
            // race. pairs=q.next-read,q.fast-empty-check
            match ltail_ref.next.compare_exchange(
                ptr::null_mut(),
                my_node,
                ord::ACQ_REL,
                ord::ACQUIRE,
            ) {
                Ok(_) => {
                    // ORDERING(q.tail-advance): SEQ_CST — tail advance
                    // (Inv. 2), same as the slow path; losing it just means a
                    // helper advanced.
                    // pairs=q.tail-candidate,q.tail-validate,q.empty-check
                    if self
                        .tail
                        .compare_exchange(ltail, my_node, ord::SEQ_CST, ord::SEQ_CST)
                        .is_err()
                    {
                        self.telemetry.bump(myidx, CounterId::CasFailTail);
                    }
                    self.hp.clear(myidx);
                    self.telemetry.bump(myidx, CounterId::FastEnqHit);
                    self.record_enqueue(myidx, 0, timer, OpKey::EnqFast);
                    return true;
                }
                Err(_) => {
                    self.telemetry.bump(myidx, CounterId::FastEnqRetry);
                    // Lost the link race: help the winner's tail advance so
                    // the next attempt starts from fresh state (MS-style).
                    // ORDERING(q.next-read): ACQUIRE — pairs with the winning
                    // link CAS's release half. pairs=q.link-cas
                    let lnext = ltail_ref.next.load(ord::ACQUIRE);
                    if !lnext.is_null() {
                        // ORDERING(q.tail-advance): SEQ_CST — tail advance
                        // (Inv. 2); failure means someone else already
                        // advanced it.
                        // pairs=q.tail-candidate,q.tail-validate,q.empty-check
                        let _ = self.tail.compare_exchange(
                            ltail,
                            lnext,
                            ord::SEQ_CST,
                            ord::SEQ_CST,
                        );
                    }
                }
            }
        }
        // Fallback: the node goes through the consensus protocol after all,
        // so it must carry our own thread id again (§2.1).
        // SAFETY(node-unpublished): my_node is still exclusively ours —
        // every linking CAS above failed.
        unsafe { (*my_node).enq_tid = myidx as u32 };
        self.telemetry.bump(myidx, CounterId::FastEnqFallback);
        false
    }

    /// Is thread `i`'s slow-path enqueue request currently published?
    /// One probe of the consensus array, shared by the panic-flag scan
    /// and the flight recorder's request-state dump.
    #[inline]
    fn enqueue_request_open(&self, i: usize) -> bool {
        // ORDERING(q.enq-panic-scan): SEQ_CST — the panic flag is only a
        // guarantee if this scan sits in the same total order as the slow
        // path's line-4 publish (StoreLoad): once a publish is ordered
        // before the scan, the scanning thread *must* fall back, bounding
        // the fast appends that can land after the publish to one per
        // thread. pairs=q.enq-publish
        !self.enqueuers[i].load(ord::SEQ_CST).is_null()
    }

    /// Panic-flag scan of the enqueue consensus array: is any slow-path
    /// enqueue request currently published?
    #[inline]
    fn enqueue_request_pending(&self) -> bool {
        (0..self.max_threads).any(|i| self.enqueue_request_open(i))
    }

    /// Paper Algorithm 2 (the slow path): publish the pre-allocated node as
    /// a request, then help until the request is *verifiably* complete.
    pub(crate) fn slow_enqueue(&self, myidx: usize, my_node: *mut Node<T>, timer: &OpTimer) {
        // Our own request slot, hoisted: the publish and every helping-loop
        // iteration re-check it, and the bounds check + CachePadded
        // indirection need not repeat.
        let my_slot = &self.enqueuers[myidx];
        // ORDERING(q.enq-publish): SEQ_CST — consensus publish (line 4).
        // Helpers scan `enqueuers` starting at the tail's enq_tid + 1, and
        // we stop helping after max_threads iterations (line 26 then closes
        // our own slot); the Inv. 5 bound needs every scan that follows this
        // store in the single total order to observe it — a StoreLoad
        // guarantee weaker orderings do not give.
        // pairs=q.enq-panic-scan,q.enq-scan,q.enq-turn-close
        my_slot.store(my_node, ord::SEQ_CST); // line 4: publish request
        let mut iter = 0usize;
        loop {
            // line 5
            // line 6: a helper inserted our node and cleared our slot.
            // ORDERING(q.enq-complete): ACQUIRE — pairs with the helper's
            // clearing CAS; a stale non-null read costs one more (bounded)
            // iteration. pairs=q.enq-turn-close
            if my_slot.load(ord::ACQUIRE).is_null() {
                self.hp.clear(myidx); // line 7
                let depth = iter.min(self.max_threads - 1);
                let key = if depth == 0 {
                    OpKey::EnqHelped
                } else {
                    OpKey::EnqSlow
                };
                self.record_enqueue(myidx, depth, timer, key);
                return;
            }
            // Paper lines 25-26 close the slot *blindly* after max_threads
            // iterations, relying on Inv. 5. The fast path makes that
            // invariant conditional on the panic flag (§6c), so past the
            // budget we close only after *verifying* the node is linked; in
            // a correct build the verification succeeds immediately
            // (Inv. 5 + panic flag keep the budget sufficient), while in
            // the flag-removed mutant this is the loop the modelcheck step
            // auditor trips on as a step-bound violation.
            if iter >= self.max_threads && self.verified_close_enqueue(myidx, my_node) {
                self.record_enqueue(myidx, self.max_threads - 1, timer, OpKey::EnqSlow);
                return;
            }
            // lines 10-11: protect + validate tail (Algorithm 5 pattern —
            // a failed validation means the tail advanced, i.e. some
            // request completed, so we charge it to our bounded loop).
            // ORDERING(q.tail-candidate): ACQUIRE — candidate for protection
            // only; the SeqCst validation below carries the handshake.
            // pairs=q.tail-advance
            let ltail = self
                .hp
                .protect_ptr(myidx, HP_HEAD_TAIL, self.tail.load(ord::ACQUIRE));
            // ORDERING(q.tail-validate): SEQ_CST — validation read of the
            // protect/validate handshake (Algorithm 5): it must follow the
            // hazard store in the total order so a concurrent retire scan
            // either sees our hazard or we see the newer tail (StoreLoad).
            // pairs=q.tail-advance
            if ltail != self.tail.load(ord::SEQ_CST) {
                iter += 1;
                continue;
            }
            // SAFETY(hp-validate): ltail is protected and validated; HP
            // keeps it alive.
            let ltail_ref = unsafe { &*ltail };
            // lines 12-15: before inserting after the tail node, ensure the
            // tail node itself is no longer an open request (Inv. 7 — this
            // is what prevents double insertion).
            let turn_slot = &self.enqueuers[ltail_ref.enq_tid as usize];
            // ORDERING(q.enq-turn-close): SEQ_CST — consensus scan + close
            // (Inv. 7): the check and the clearing CAS participate in the
            // same total order as the line-4 publish, preventing double
            // insertion. pairs=q.enq-publish,q.enq-complete
            if turn_slot.load(ord::SEQ_CST) == ltail {
                let _ = turn_slot.compare_exchange(
                    ltail,
                    ptr::null_mut(),
                    ord::SEQ_CST,
                    ord::SEQ_CST,
                );
            }
            // lines 16-22: help the first open request to the right of the
            // current turn (the CRTurn consensus step, Inv. 1).
            for j in 1..=self.max_threads {
                // ORDERING(q.enq-scan): SEQ_CST — consensus scan
                // (lines 16-22): must observe every line-4 publish that
                // precedes it in the total order, or a request could be
                // skipped for a whole turn and overrun the Inv. 5 helping
                // bound. pairs=q.enq-publish,q.enq-close
                let node_to_help = self.enqueuers
                    [(j + ltail_ref.enq_tid as usize) % self.max_threads]
                    .load(ord::SEQ_CST);
                if node_to_help.is_null() {
                    continue;
                }
                // ORDERING(q.link-cas): ACQ_REL / ACQUIRE — the linking CAS
                // (line 18). Release publishes the node's payload to every
                // later acquire read of `next`; acquire on both outcomes
                // pairs with the winning link so the line-23 read below sees
                // a non-null next. The per-location CAS order alone decides
                // the race, so SeqCst buys nothing here.
                // pairs=q.next-read,q.fast-empty-check
                match ltail_ref.next.compare_exchange(
                    ptr::null_mut(),
                    node_to_help,
                    ord::ACQ_REL,
                    ord::ACQUIRE,
                ) {
                    Ok(_) if node_to_help != my_node => {
                        // Inserted a node published by another thread's
                        // request: the paper's helping mechanism at work.
                        self.telemetry.bump(myidx, CounterId::HelpEnqueue);
                    }
                    Ok(_) => {}
                    Err(_) => {
                        self.telemetry.bump(myidx, CounterId::CasFailNext);
                    }
                }
                break;
            }
            // lines 23-24: advance the tail past whatever got inserted
            // (Inv. 2 — tail only advances after an insertion).
            // ORDERING(q.next-read): ACQUIRE — pairs with the linking CAS's
            // release so the advancing CAS publishes a fully-initialized
            // node. pairs=q.link-cas
            let lnext = ltail_ref.next.load(ord::ACQUIRE);
            // ORDERING(q.tail-advance): SEQ_CST — tail advance (Inv. 2): the
            // new tail's enq_tid defines the next turn, so the advance must
            // sit in the same total order as the `enqueuers` publishes and
            // scans. pairs=q.tail-candidate,q.tail-validate,q.empty-check
            if !lnext.is_null()
                && self
                    .tail
                    .compare_exchange(ltail, lnext, ord::SEQ_CST, ord::SEQ_CST)
                    .is_err()
            {
                self.telemetry.bump(myidx, CounterId::CasFailTail);
            }
            iter += 1;
        }
    }

    /// The verified replacement for the paper's blind line-25/26 close: only
    /// close our own slot once the published node is observably in the list
    /// (it is the validated tail, or the validated tail's successor).
    ///
    /// Soundness of the close: while our slot is open, nothing can be linked
    /// *after* our node — slow helpers must first close the tail's request
    /// (lines 12-15, Inv. 7) and fast appends refuse any pending request
    /// (the panic scan) — so "linked" can only mean "tail or tail's next",
    /// and a node observed there stays in the list forever.
    fn verified_close_enqueue(&self, myidx: usize, my_node: *mut Node<T>) -> bool {
        // ORDERING(q.tail-candidate): ACQUIRE — candidate; SeqCst validation
        // follows. pairs=q.tail-advance
        let ltail = self
            .hp
            .protect_ptr(myidx, HP_HEAD_TAIL, self.tail.load(ord::ACQUIRE));
        // ORDERING(q.tail-validate): SEQ_CST — protect/validate handshake
        // (Algorithm 5). pairs=q.tail-advance
        if ltail != self.tail.load(ord::SEQ_CST) {
            return false;
        }
        // SAFETY(hp-validate): ltail protected and validated just above.
        // ORDERING(q.next-read): ACQUIRE — pairs with the linking CAS's
        // release half. pairs=q.link-cas
        let linked =
            ltail == my_node || unsafe { &*ltail }.next.load(ord::ACQUIRE) == my_node;
        if !linked {
            return false;
        }
        self.hp.clear(myidx); // line 25
        // line 26: the node is verifiably in the list, so closing our own
        // slot cannot lose it.
        // ORDERING(q.enq-close): RELEASE — as in the paper: scans treat null
        // as "no open request", so observing the close late is always safe;
        // it only must not be reordered before the verification reads above.
        // pairs=q.enq-scan
        self.enqueuers[myidx].store(ptr::null_mut(), ord::RELEASE);
        true
    }

    /// Dequeue counterpart of [`record_enqueue`](Self::record_enqueue).
    #[inline]
    pub(crate) fn record_dequeue(&self, myidx: usize, depth: usize, timer: &OpTimer, key: OpKey) {
        self.telemetry.bump(myidx, CounterId::DeqOps);
        self.telemetry.record_depth(myidx, depth);
        self.finish_op(myidx, timer, key);
    }

    /// Dequeue entry point: fast path first (if enabled), then the paper's
    /// Algorithm 3 slow path.
    pub(crate) fn dequeue_with(&self, myidx: usize) -> Option<T> {
        debug_assert!(myidx < self.max_threads);
        let timer = self.op_timer();
        if self.fast_tries > 0 {
            if let Some(result) = self.try_fast_dequeue(myidx, &timer) {
                return result;
            }
        }
        self.slow_dequeue(myidx, &timer)
    }

    /// Fast-path dequeue (DESIGN.md §6c): up to `fast_tries` direct head
    /// swings with no request publication. `Some(result)` means the
    /// operation completed on the fast path (`Some(None)` = linearizable
    /// empty); `None` means the caller must run the slow path.
    ///
    /// A node is claimed by CASing its `deq_tid` from `IDX_NONE` to the
    /// fast encoding (≤ -2, see [`encode_fast`]), which preserves the
    /// predecessor's dequeue turn so the CRTurn rotation is unchanged by
    /// fast consumption. The claim makes us the unique item owner even if a
    /// slow helper wins the head CAS; a fast-claimed node sits in no
    /// thread's `deqself`/`deqhelp` rotation, so the winner of the head
    /// advance past it retires it (see [`advance_head`](Self::advance_head)).
    fn try_fast_dequeue(&self, myidx: usize, timer: &OpTimer) -> Option<Option<T>> {
        for _attempt in 0..self.fast_tries {
            // ORDERING(q.head-candidate): ACQUIRE — candidate for
            // protection only; the SeqCst validation below carries the
            // handshake. pairs=q.head-advance
            let lhead = self
                .hp
                .protect_ptr(myidx, HP_HEAD_TAIL, self.head.load(ord::ACQUIRE));
            // ORDERING(q.head-validate): SEQ_CST — protect/validate
            // handshake (Algorithm 5); also orders the panic scan below
            // after this point. pairs=q.head-advance
            if lhead != self.head.load(ord::SEQ_CST) {
                self.telemetry.bump(myidx, CounterId::FastDeqRetry);
                continue;
            }
            if self.panic_check && self.dequeue_request_pending() {
                break; // a published request must not be starved — fall back
            }
            // SAFETY(hp-validate): lhead is protected and validated; HP
            // keeps it alive.
            let lhead_ref = unsafe { &*lhead };
            // ORDERING(q.fast-empty-check): SEQ_CST — linearization point
            // of the fast empty check: `next == null` on the validated head
            // means the queue is empty, and like the slow path's head ==
            // tail check (Inv. 11) it must be ordered against enqueue's
            // publish and link in the single total order. pairs=q.link-cas
            let next_ptr = lhead_ref.next.load(ord::SEQ_CST);
            if next_ptr.is_null() {
                self.hp.clear(myidx);
                self.telemetry.bump(myidx, CounterId::FastDeqHit);
                self.telemetry.bump(myidx, CounterId::DeqEmpty);
                // Empty dequeues skip the depth histogram but still have a
                // latency, attributed to the path that proved emptiness.
                self.finish_op(myidx, timer, OpKey::DeqFast);
                return Some(None);
            }
            // ORDERING(q.head-validate): SEQ_CST — protect/validate
            // handshake for HP_NEXT (head re-load). pairs=q.head-advance
            let lnext = self.hp.protect_ptr(myidx, HP_NEXT, next_ptr);
            if lhead != self.head.load(ord::SEQ_CST) {
                self.telemetry.bump(myidx, CounterId::FastDeqRetry);
                continue;
            }
            // SAFETY(hp-validate): lnext protected (HP_NEXT) and head
            // re-validated.
            let lnext_ref = unsafe { &*lnext };
            // Claim the node, preserving the head's effective turn
            // (normalized so the encoding never collides with IDX_NONE).
            // ORDERING(q.deqtid-read): ACQUIRE — the head node's claim
            // field is write-once and was fixed before the head CAS that
            // made lhead the head. pairs=n.deqtid-cas
            let turn = decode_turn(lhead_ref.deq_tid.load(ord::ACQUIRE))
                .rem_euclid(self.max_threads as i32);
            if !lnext_ref.cas_deq_tid(IDX_NONE, encode_fast(turn)) {
                // Already assigned (slow helper) or claimed (another fast
                // dequeuer) — that consumer owns it; retry on a fresh head.
                self.telemetry.bump(myidx, CounterId::FastDeqRetry);
                continue;
            }
            // The claim is ours: advance the head (a losing CAS means a
            // helper advanced it for us) and take the item.
            self.advance_head(lhead, lnext, myidx);
            // SAFETY(claim-owner): the winning claim CAS above makes us the
            // unique item owner (Inv. 9 analogue); HP_NEXT keeps lnext
            // alive until the clear below.
            let taken = unsafe { lnext_ref.take_item() };
            debug_assert!(taken.is_some(), "claimed node must still hold its item");
            self.hp.clear(myidx);
            self.telemetry.bump(myidx, CounterId::FastDeqHit);
            self.record_dequeue(myidx, 0, timer, OpKey::DeqFast);
            return Some(taken);
        }
        self.telemetry.bump(myidx, CounterId::FastDeqFallback);
        None
    }

    /// Is thread `i`'s slow-path dequeue request currently open
    /// (`deqself[i] == deqhelp[i]`)? One probe of the consensus arrays,
    /// shared by the panic-flag scan and the flight recorder's dump.
    #[inline]
    fn dequeue_request_open(&self, i: usize) -> bool {
        // ORDERING(q.deq-panic-scan): SEQ_CST — same consensus-scan
        // reasoning as `search_next` line 38 and the enqueue-side panic
        // flag: the open/closed decision must sit in the same total
        // order as the line-5 publish, so a thread that published
        // before this scan is guaranteed to be seen and to force our
        // fallback.
        // pairs=q.deq-publish,q.deq-rollback,q.deq-close-cas,q.deq-close-own
        self.deqself[i].load(ord::SEQ_CST) == self.deqhelp[i].load(ord::SEQ_CST)
    }

    /// Panic-flag scan of the dequeue consensus arrays: is any slow-path
    /// dequeue request currently open?
    #[inline]
    fn dequeue_request_pending(&self) -> bool {
        (0..self.max_threads).any(|i| self.dequeue_request_open(i))
    }

    /// Paper Algorithm 3 (the slow path).
    fn slow_dequeue(&self, myidx: usize, timer: &OpTimer) -> Option<T> {
        // Our own request slots, hoisted out of the helping loop (same
        // reasoning as in `slow_enqueue`).
        let my_deqself = &self.deqself[myidx];
        let my_deqhelp = &self.deqhelp[myidx];
        // ORDERING(q.deqself-readback): RELAXED — deqself[myidx] is written
        // only by this thread; reading back our own last store needs no
        // inter-thread edge.
        let pr_req = my_deqself.load(ord::RELAXED); // line 3
        // ORDERING(q.deq-complete): ACQUIRE — pairs with the release of
        // the closing store/CAS that last wrote deqhelp[myidx] (previous
        // dequeue). pairs=q.deq-close-cas,q.deq-close-own
        let my_req = my_deqhelp.load(ord::ACQUIRE); // line 4
        // line 5: `deqself[i] == deqhelp[i]` opens the request.
        // ORDERING(q.deq-publish): SEQ_CST — consensus publish: helpers
        // scan deqself == deqhelp to find open requests (line 38); like
        // the enqueue-side line 4, the Inv. 5/11 arguments need this store
        // totally ordered with those scans and with the head == tail
        // emptiness check. pairs=q.deq-scan,q.deq-panic-scan
        my_deqself.store(my_req, ord::SEQ_CST);
        // Like the enqueue side, the paper's `for (0..MAX_THREADS)` loop
        // (line 6) became an open loop with a verified exit: past the Inv. 5
        // budget we keep helping until the satisfaction check itself
        // succeeds instead of assuming it. A correct build exits within the
        // budget (Inv. 5 + the fast path's panic flag); the flag-removed
        // mutant spins here until the modelcheck step auditor reports a
        // step-bound violation.
        let mut iter = 0usize;
        // The loop breaks with the helping-loop depth at which we observed
        // our request satisfied (clamped to the paper's worst case,
        // `max_threads - 1`, for the histogram).
        let depth = loop {
            // line 7: request already satisfied by a helper.
            // ORDERING(q.deq-complete): ACQUIRE — pairs with the closing
            // CAS's release; a stale read costs one more (bounded)
            // iteration. pairs=q.deq-close-cas,q.deq-close-own
            if my_deqhelp.load(ord::ACQUIRE) != my_req {
                break iter.min(self.max_threads - 1);
            }
            // lines 8-9: protect + validate head.
            // ORDERING(q.head-candidate): ACQUIRE — candidate for
            // protection; the SeqCst validation below carries the
            // handshake. pairs=q.head-advance
            let lhead = self
                .hp
                .protect_ptr(myidx, HP_HEAD_TAIL, self.head.load(ord::ACQUIRE));
            // ORDERING(q.head-validate): SEQ_CST — protect/validate
            // handshake (StoreLoad against concurrent retire scans), as on
            // the enqueue side. pairs=q.head-advance
            if lhead != self.head.load(ord::SEQ_CST) {
                iter += 1;
                continue;
            }
            // ORDERING(q.empty-check): SEQ_CST — emptiness check (line
            // 10): head == tail must be evaluated against the same total
            // order as enqueue's publish and tail advance, or a dequeuer
            // could return None for an item whose enqueue already
            // linearized (Inv. 11). pairs=q.tail-advance
            if lhead == self.tail.load(ord::SEQ_CST) {
                // lines 10-18: queue looks empty — attempt to give up.
                // ORDERING(q.deq-rollback): SEQ_CST — the rollback closes
                // our request in the same total order the helpers' scans
                // read; give_up's re-checks below rely on it (§2.3.1).
                // pairs=q.deq-scan,q.deq-panic-scan
                my_deqself.store(pr_req, ord::SEQ_CST); // line 11: rollback
                self.give_up(my_req, myidx); // line 12
                // ORDERING(q.rollback-check): SEQ_CST — conclusive only if
                // ordered after the rollback store above (StoreLoad): a
                // helper that missed the rollback may still have closed our
                // request. pairs=q.deq-close-cas
                if my_deqhelp.load(ord::SEQ_CST) != my_req {
                    // lines 13-15: a helper satisfied us after all; restore
                    // the bookkeeping and fall through to return the item.
                    // ORDERING(q.deqself-restore): RELAXED — as in the
                    // paper: only this thread reads deqself[myidx] before
                    // its next line-5 publish.
                    my_deqself.store(my_req, ord::RELAXED);
                    break iter.min(self.max_threads - 1);
                }
                self.hp.clear(myidx); // line 17
                // Empty dequeues do not enter the depth histogram — it
                // counts completed transfers only — but they do carry a
                // latency sample under the slow-path key.
                self.telemetry.bump(myidx, CounterId::DeqEmpty);
                self.finish_op(myidx, timer, OpKey::DeqSlow);
                return None; // line 18 — Inv. 11: no node was assigned to us
            }
            // SAFETY(hp-validate): lhead protected (line 8) and validated
            // (line 9).
            // ORDERING(q.next-read): ACQUIRE — pairs with the linking
            // CAS's release so the node we are about to assign and
            // dereference is fully initialized. (This is the edge the
            // weak-ordering mutant in turnq-modelcheck drops.)
            // pairs=q.link-cas
            let next_ptr = unsafe { &*lhead }.next.load(ord::ACQUIRE);
            // lines 20-21: protect + validate head->next.
            // ORDERING(q.head-validate): SEQ_CST — protect/validate
            // handshake for HP_NEXT. pairs=q.head-advance
            let lnext = self.hp.protect_ptr(myidx, HP_NEXT, next_ptr);
            if lhead != self.head.load(ord::SEQ_CST) {
                iter += 1;
                continue;
            }
            // line 22: find whose turn it is; if the next node is assigned,
            // publish the result and advance the head.
            if self.search_next(lhead, lnext) != IDX_NONE {
                self.cas_deq_and_head(lhead, lnext, myidx);
            }
            iter += 1;
        };
        // lines 24-28: our request is satisfied; make sure the head has
        // moved past the node we were assigned (Inv. 8 guarantees the node
        // stays reachable to us through deqhelp even after that).
        // ORDERING(q.deq-complete): ACQUIRE — pairs with the closing
        // store/CAS's release: makes the assigning thread's writes
        // (deq_tid, the link it read through) visible before we
        // dereference my_node below. pairs=q.deq-close-cas,q.deq-close-own
        let my_node = my_deqhelp.load(ord::ACQUIRE);
        // ORDERING(q.head-candidate): ACQUIRE — candidate; SeqCst
        // validation follows. pairs=q.head-advance
        let lhead = self
            .hp
            .protect_ptr(myidx, HP_HEAD_TAIL, self.head.load(ord::ACQUIRE));
        // ORDERING(q.head-validate): SEQ_CST — the same validate edge as
        // the helping loop; the head advance itself is `advance_head`,
        // which also retires a fast-claimed old head. pairs=q.head-advance
        if lhead == self.head.load(ord::SEQ_CST)
            // SAFETY(hp-validate): lhead protected + validated
            // (short-circuit order).
            // ORDERING(q.next-read): ACQUIRE — pairs with the linking
            // CAS's release, as in the helping loop. pairs=q.link-cas
            && my_node == unsafe { &*lhead }.next.load(ord::ACQUIRE)
        {
            self.advance_head(lhead, my_node, myidx);
        }
        self.hp.clear(myidx); // line 29
        // line 30: retire the node from two dequeues ago — only now is it
        // out of both deqself[myidx] and deqhelp[myidx] (§2.4), and Inv. 10
        // says we are the only thread that may retire it.
        // SAFETY(retire-unique): pr_req is a unique Box-allocated node, now
        // unreachable from every shared variable, retired exactly once
        // (Inv. 10).
        unsafe { self.hp.retire(myidx, pr_req) };
        // line 31: the item belongs to us — unique assignment (Inv. 9).
        // SAFETY(tid-exclusive): my_node is reachable through
        // deqhelp[myidx] (Inv. 8) and only retired by us, two dequeues
        // from now.
        // ORDERING(q.deqtid-read): ACQUIRE — deq_tid is write-once
        // (IDX_NONE → tid, by CAS); acquire pairs with that CAS's release
        // half. pairs=n.deqtid-cas
        let assigned = unsafe { &*my_node }.deq_tid.load(ord::ACQUIRE);
        debug_assert_eq!(assigned, myidx as i32, "node must be assigned to us");
        // SAFETY(tid-exclusive): see above.
        let taken = unsafe { (*my_node).take_item() };
        debug_assert!(taken.is_some(), "assigned node must still hold its item");
        let key = if depth == 0 {
            OpKey::DeqHelped
        } else {
            OpKey::DeqSlow
        };
        self.record_dequeue(myidx, depth, timer, key);
        taken
    }

    /// Paper Algorithm 4, `searchNext` (lines 34-45): determine which open
    /// request the node `lnext` should be assigned to, assign it by CAS,
    /// and return the final assignment.
    fn search_next(&self, lhead: *mut Node<T>, lnext: *mut Node<T>) -> i32 {
        // SAFETY(hp-inherited): both pointers are protected by the
        // caller's hazard slots (HP_HEAD_TAIL and HP_NEXT) and validated
        // against head.
        let lhead_ref = unsafe { &*lhead };
        let lnext_ref = unsafe { &*lnext };
        // The dequeue turn is the deqTid of the current head (the last
        // satisfied request); IDX_NONE (initial sentinel) starts at slot 0,
        // and a fast-claimed head (≤ -2) decodes back to the turn it
        // preserved, so fast consumption leaves the rotation where it was.
        // ORDERING(q.deqtid-read): ACQUIRE — the head node's deq_tid is
        // write-once and was fixed before the head CAS that made lhead the
        // head; the SeqCst head validation in our caller already ordered
        // that CAS before us. pairs=n.deqtid-cas
        let turn = decode_turn(lhead_ref.deq_tid.load(ord::ACQUIRE));
        for d in 1..=self.max_threads as i32 {
            let id_deq = (turn + d).rem_euclid(self.max_threads as i32) as usize;
            // line 38: closed request (deqself != deqhelp) — skip. Pointer
            // comparison only; no dereference, hence no hazard needed. The
            // possible ABA here is harmless (§2.4): a closed request can be
            // misread as open, but then line 39's check fails because the
            // head must have advanced twice for that reuse to happen,
            // meaning lnext is already assigned.
            // ORDERING(q.deq-scan): SEQ_CST — consensus scan (line 38):
            // open/closed is decided against the same total order as the
            // line-5 publish and line-11 rollback stores; a weaker read
            // could skip a request's turn and break the Inv. 5/11 helping
            // bound. pairs=q.deq-publish,q.deq-rollback
            if self.deqself[id_deq].load(ord::SEQ_CST)
                != self.deqhelp[id_deq].load(ord::SEQ_CST)
            {
                continue;
            }
            // ORDERING(q.deqtid-read): ACQUIRE — write-once field; the
            // per-location CAS order of cas_deq_tid decides the assignment
            // race (line 40). pairs=n.deqtid-cas
            if lnext_ref.deq_tid.load(ord::ACQUIRE) == IDX_NONE {
                // line 40
                lnext_ref.cas_deq_tid(IDX_NONE, id_deq as i32);
            }
            break;
        }
        // ORDERING(q.deqtid-read): ACQUIRE — write-once field; see above.
        // pairs=n.deqtid-cas
        lnext_ref.deq_tid.load(ord::ACQUIRE) // line 44
    }

    /// Paper Algorithm 4, `casDeqAndHead` (lines 47-58): publish the
    /// assigned node into the owner's `deqhelp` slot (closing the request),
    /// then advance the head.
    fn cas_deq_and_head(&self, lhead: *mut Node<T>, lnext: *mut Node<T>, myidx: usize) {
        // SAFETY(hp-inherited): lnext protected by the caller (HP_NEXT)
        // and assigned.
        // ORDERING(q.deqtid-read): ACQUIRE — write-once field set by
        // cas_deq_tid. pairs=n.deqtid-cas
        let ldeq_tid = unsafe { &*lnext }.deq_tid.load(ord::ACQUIRE);
        debug_assert_ne!(ldeq_tid, IDX_NONE);
        if is_fast_claim(ldeq_tid) {
            // A fast-path dequeuer claimed lnext and owns its item; no
            // deqhelp slot closes. Our only duty is the line-57 head
            // advance (the winner also retires a fast-claimed old head).
            self.advance_head(lhead, lnext, myidx);
            return;
        }
        let ldeq_tid = usize::try_from(ldeq_tid).expect("assigned tid is non-negative");
        if ldeq_tid == myidx {
            // line 50: closing our own request needs no CAS.
            // ORDERING(q.deq-close-own): RELEASE — as in the paper:
            // publishes the assigned node (and everything it reaches) to
            // the acquire loads of deqhelp[myidx]; only this thread
            // opens/closes its own slot, so no total-order constraint
            // applies. pairs=q.deq-complete,q.deq-panic-scan
            self.deqhelp[ldeq_tid].store(lnext, ord::RELEASE);
        } else {
            // lines 52-54. The hazard on deqhelp[ldeqTid] is *not* for a
            // dereference — it pins the old value so it cannot go through
            // retire→free→realloc→enqueue→dequeue and reappear here, which
            // would let the CAS succeed on a stale request (ABA, §2.4).
            // ORDERING(q.deqhelp-pin): ACQUIRE — candidate for the
            // ABA-pinning hazard; a stale value only makes the CAS below
            // fail harmlessly. pairs=q.deq-close-cas
            let ldeqhelp = self.hp.protect_ptr(
                myidx,
                HP_DEQ,
                self.deqhelp[ldeq_tid].load(ord::ACQUIRE),
            );
            // ORDERING(q.head-validate): SEQ_CST — the head re-check is
            // the §2.4 validation that the pinned request state is still
            // current. pairs=q.head-advance
            if ldeqhelp != lnext && lhead == self.head.load(ord::SEQ_CST) {
                // ORDERING(q.deq-close-cas): SEQ_CST — closing CAS (line
                // 53): must sit in the same total order as the owner's
                // line-5 publish and line-11 rollback, or a rolled-back
                // request could be "satisfied" and the item lost (Inv. 9).
                // pairs=q.deq-complete,q.rollback-check,q.deqhelp-pin,q.deq-panic-scan
                match self.deqhelp[ldeq_tid].compare_exchange(
                    ldeqhelp,
                    lnext,
                    ord::SEQ_CST,
                    ord::SEQ_CST,
                ) {
                    Ok(_) => {
                        // Closed another thread's dequeue request for it.
                        self.telemetry.bump(myidx, CounterId::HelpDequeue);
                    }
                    Err(_) => {
                        self.telemetry.bump(myidx, CounterId::CasFailDeqHelp);
                    }
                }
            }
        }
        // line 57: Inv. 8 — the head only advances after the assignment is
        // visible in deqhelp, so the owner can always reach its node.
        self.advance_head(lhead, lnext, myidx);
    }

    /// Advance `head` from `lhead` to its successor `lnext` (both protected
    /// by the caller). Every head advance in the queue funnels through here
    /// because the unique CAS winner has one extra duty the paper doesn't
    /// have: retiring a *fast-claimed* old head. A node consumed by the
    /// slow path lives on in its owner's `deqself`/`deqhelp` rotation and
    /// is retired by the owner two dequeues later (line 30, Inv. 10); a
    /// node consumed by the fast path is in no rotation, so the moment the
    /// head passes it, the advance winner is the only thread that can still
    /// name it safely.
    pub(crate) fn advance_head(&self, lhead: *mut Node<T>, lnext: *mut Node<T>, myidx: usize) {
        // ORDERING(q.head-advance): SEQ_CST — head advance (Inv. 8):
        // ordered after the closing store/CAS of the consumption in the
        // total order, so a slow owner can always reach its assigned node
        // through deqhelp. pairs=q.head-candidate,q.head-validate
        match self
            .head
            .compare_exchange(lhead, lnext, ord::SEQ_CST, ord::SEQ_CST)
        {
            Ok(_) => {
                // SAFETY(hp-inherited): lhead is protected by the caller's
                // hazard slot.
                // ORDERING(q.deqtid-read): ACQUIRE — write-once claim
                // field. pairs=n.deqtid-cas
                if is_fast_claim(unsafe { &*lhead }.deq_tid.load(ord::ACQUIRE)) {
                    // SAFETY(retire-unique): we won the unique lhead→lnext advance; a
                    // fast-claimed node is unreachable from every shared
                    // variable once the head passes it (never in
                    // enqueuers/deqself/deqhelp), so it is retired exactly
                    // once, by us.
                    unsafe { self.hp.retire(myidx, lhead) };
                }
            }
            Err(_) => {
                self.telemetry.bump(myidx, CounterId::CasFailHead);
            }
        }
    }

    /// Paper Algorithm 4, `giveUp` (lines 60-71): executed when a dequeuer
    /// saw an empty queue and rolled its request back. It must either
    /// confirm no node was assigned to the request (so `None` is correct),
    /// or make sure the first node of the queue gets assigned — possibly to
    /// itself — before returning (§2.3.1).
    fn give_up(&self, my_req: *mut Node<T>, myidx: usize) {
        // ORDERING(q.head-candidate): SEQ_CST — ordered after our line-11
        // rollback store (StoreLoad), mirroring the emptiness-check
        // reasoning (§2.3.1); validated below before any dereference.
        // pairs=q.head-advance
        let lhead = self.head.load(ord::SEQ_CST); // line 61
        // ORDERING(q.rollback-check): SEQ_CST — conclusive only if ordered
        // after the rollback; a stale "unsatisfied" would leak an assigned
        // node. pairs=q.deq-close-cas
        if self.deqhelp[myidx].load(ord::SEQ_CST) != my_req {
            return; // line 62: someone satisfied us — dequeue() will see it
        }
        // ORDERING(q.empty-check): SEQ_CST — emptiness re-check against
        // the same total order as enqueue's publish and tail advance (line
        // 63). pairs=q.tail-advance
        if lhead == self.tail.load(ord::SEQ_CST) {
            return; // line 63: still empty — the rollback stands
        }
        // lines 64-65: protect + validate head. A change means a dequeue
        // completed; the head advance publishes our rollback (§2.3.1).
        self.hp.protect_ptr(myidx, HP_HEAD_TAIL, lhead);
        // ORDERING(q.head-validate): SEQ_CST — protect/validate handshake
        // (lines 64-65). pairs=q.head-advance
        if lhead != self.head.load(ord::SEQ_CST) {
            return;
        }
        // lines 66-67: protect + validate head->next.
        // SAFETY(hp-validate): lhead protected and validated just above.
        // ORDERING(q.next-read): ACQUIRE — next read, pairs with the
        // linking CAS's release. pairs=q.link-cas
        let lnext = self
            .hp
            .protect_ptr(myidx, HP_NEXT, unsafe { &*lhead }.next.load(ord::ACQUIRE));
        // ORDERING(q.head-validate): SEQ_CST — protect/validate handshake
        // for HP_NEXT (lines 66-67). pairs=q.head-advance
        if lhead != self.head.load(ord::SEQ_CST) {
            return;
        }
        // lines 68-70: ensure the first node is assigned to somebody; if no
        // request is open, assign it to ourselves (re-satisfying the
        // request we are rolling back).
        if self.search_next(lhead, lnext) == IDX_NONE {
            // SAFETY(hp-validate): lnext protected (HP_NEXT) and validated.
            unsafe { &*lnext }.cas_deq_tid(IDX_NONE, myidx as i32);
        }
        self.cas_deq_and_head(lhead, lnext, myidx); // line 71
    }
}

impl<T> Default for TurnQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for TurnQueue<T> {
    fn drop(&mut self) {
        // Exclusive access (&mut self): no concurrent operations. Free
        // every node exactly once. Live list nodes still hold their items
        // (dropped by Node's Option). The request-tracking slots hold
        // already-dequeued nodes (items taken) plus the initial dummies;
        // `deqhelp[i]` may alias the current head sentinel, so dedupe.
        // ORDERING(q.drop-walk): RELAXED — `&mut self`: no concurrent
        // access anywhere in this destructor, so plain coherence is enough
        // (all loads below share this justification).
        let mut to_free: Vec<*mut Node<T>> = Vec::new();
        let head = self.head.load(ord::RELAXED);
        // The initial sentinel is the first node ever linked, so the walk
        // below reaches it only while it is still the head.
        if !self.sentinel.is_null() && self.sentinel != head {
            to_free.push(self.sentinel);
        }
        let mut node = head;
        while !node.is_null() {
            to_free.push(node);
            // SAFETY(drop-exclusive): the node is alive: this context owns
            // it exclusively (or frees it last).
            // ORDERING(q.drop-walk): RELAXED — &mut self, see above.
            node = unsafe { &*node }.next.load(ord::RELAXED);
        }
        for slots in [&self.deqself, &self.deqhelp] {
            for slot in slots.iter() {
                // ORDERING(q.drop-walk): RELAXED — &mut self, see above.
                let p = slot.load(ord::RELAXED);
                if !p.is_null() && !to_free.contains(&p) {
                    to_free.push(p);
                }
            }
        }
        for slot in self.enqueuers.iter() {
            // A published-but-never-inserted request is impossible once all
            // threads returned from enqueue() (Inv. 6).
            // ORDERING(q.drop-walk): RELAXED — &mut self, see above.
            debug_assert!(slot.load(ord::RELAXED).is_null());
        }
        // Owned as boxes, the nodes are freed by `Vec`'s drop, which keeps
        // dropping the rest when one item's `Drop` panics: an unwinding
        // payload leaks no later node, and the panic still propagates.
        let nodes: Vec<Box<Node<T>>> = to_free
            .into_iter()
            // SAFETY(drop-exclusive): collected exactly once each;
            // exclusive access.
            .map(|p| unsafe { Box::from_raw(p) })
            .collect();
        drop(nodes);
        // Retired-but-protected nodes are freed by HazardPointers::drop.
    }
}

/// A per-thread handle to a [`TurnQueue`] with the registry index cached.
///
/// Not `Send`: the cached index is only valid on the thread that created
/// the handle.
pub struct TurnHandle<'a, T> {
    queue: &'a TurnQueue<T>,
    tid: usize,
    _not_send: PhantomData<*const ()>,
}

impl<T> TurnHandle<'_, T> {
    /// See [`TurnQueue::enqueue`].
    #[inline]
    pub fn enqueue(&self, item: T) {
        self.queue.enqueue_with(self.tid, item);
    }

    /// See [`TurnQueue::dequeue`].
    #[inline]
    pub fn dequeue(&self) -> Option<T> {
        self.queue.dequeue_with(self.tid)
    }

    /// The registry index this handle caches.
    pub fn tid(&self) -> usize {
        self.tid
    }
}

impl<T: Send> ConcurrentQueue<T> for TurnQueue<T> {
    #[inline]
    fn enqueue(&self, item: T) {
        TurnQueue::enqueue(self, item);
    }

    #[inline]
    fn dequeue(&self) -> Option<T> {
        TurnQueue::dequeue(self)
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }
}

impl<T> QueueIntrospect for TurnQueue<T> {
    fn props() -> QueueProps {
        QueueProps {
            name: "Turn",
            progress_enqueue: Progress::WaitFreeBounded,
            progress_dequeue: Progress::WaitFreeBounded,
            consensus: "Turn (CRTurn) algorithm",
            atomic_instructions: "CAS",
            reclamation: "wait-free bounded HP",
            min_memory: "O(N_threads)",
        }
    }

    fn size_report() -> SizeReport {
        SizeReport {
            node_bytes: std::mem::size_of::<Node<Box<u64>>>(),
            enqueue_request_bytes: 0, // the request *is* the node pointer
            dequeue_request_bytes: 0, // requests reuse queue nodes (§2.3)
            // enqueuers[i] + deqself[i] + deqhelp[i], unpadded as in Table 4
            fixed_per_thread_bytes: 3 * std::mem::size_of::<*mut u8>(),
            min_heap_allocs_per_item: 1, // just the node
            // With the node pool (default config) a steady-state enqueue
            // reuses the node the previous dequeue's scan reclaimed, so no
            // allocator call remains per item.
            steady_state_allocs_per_item: 0,
        }
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.pool.stats())
    }

    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        Some(TurnQueue::telemetry_snapshot(self))
    }
}

/// [`QueueFamily`] selector for the Turn queue.
pub struct TurnFamily;

impl QueueFamily for TurnFamily {
    type Queue<T: Send + 'static> = TurnQueue<T>;
    const NAME: &'static str = "turn";

    fn with_max_threads<T: Send + 'static>(max_threads: usize) -> TurnQueue<T> {
        TurnQueue::with_max_threads(max_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Lock in the false-sharing elimination: `head` and `tail` live on
    /// distinct cache lines, and the per-thread request arrays
    /// (`enqueuers`/`deqself`/`deqhelp`) give every slot its own line —
    /// a helper scanning `enqueuers` must not invalidate the line an
    /// announcer is about to publish on (§4.1's contention argument).
    #[test]
    fn hot_fields_on_distinct_cache_lines() {
        type Slot = CachePadded<AtomicPtr<Node<u64>>>;
        let line = std::mem::align_of::<Slot>();
        assert!(line >= 64, "CachePadded narrower than a cache line");
        // Adjacent array slots cannot share a line...
        assert!(std::mem::size_of::<Slot>() >= line);
        // ...and neither can the queue's own head/tail words.
        let head = std::mem::offset_of!(TurnQueue<u64>, head);
        let tail = std::mem::offset_of!(TurnQueue<u64>, tail);
        assert!(
            head.abs_diff(tail) >= line,
            "head (+{head}) and tail (+{tail}) share a cache line"
        );
    }

    #[test]
    fn fifo_single_thread() {
        let q: TurnQueue<u32> = TurnQueue::with_max_threads(2);
        assert_eq!(q.dequeue(), None);
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn interleaved_enq_deq() {
        let q: TurnQueue<u32> = TurnQueue::with_max_threads(2);
        q.enqueue(1);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), None);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(2));
        q.enqueue(4);
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), Some(4));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn is_empty_hint() {
        let q: TurnQueue<u32> = TurnQueue::with_max_threads(1);
        assert!(q.is_empty());
        q.enqueue(1);
        assert!(!q.is_empty());
        q.dequeue();
        assert!(q.is_empty());
    }

    #[test]
    fn drop_with_items_left_frees_everything() {
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q: TurnQueue<D> = TurnQueue::with_max_threads(4);
            for _ in 0..10 {
                q.enqueue(D(Arc::clone(&drops)));
            }
            for _ in 0..3 {
                q.dequeue();
            }
            assert_eq!(drops.load(Ordering::SeqCst), 3);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10, "remaining 7 items dropped");
    }

    #[test]
    fn handle_round_trip() {
        let q: TurnQueue<u64> = TurnQueue::with_max_threads(2);
        let h = q.handle().unwrap();
        h.enqueue(42);
        assert_eq!(h.dequeue(), Some(42));
        assert_eq!(h.dequeue(), None);
        assert!(h.tid() < 2);
    }

    #[test]
    fn two_thread_producer_consumer() {
        const N: u64 = 10_000;
        let q: Arc<TurnQueue<u64>> = Arc::new(TurnQueue::with_max_threads(2));
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                qp.enqueue(i);
            }
        });
        let mut expected = 0;
        while expected < N {
            if let Some(v) = q.dequeue() {
                assert_eq!(v, expected, "per-producer FIFO must hold");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mpmc_no_loss_no_dup() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: u64 = 3_000;
        let q: Arc<TurnQueue<u64>> =
            Arc::new(TurnQueue::with_max_threads(PRODUCERS + CONSUMERS));
        let received = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.enqueue((p as u64) << 32 | i);
                    }
                });
            }
            let mut sinks = Vec::new();
            for _ in 0..CONSUMERS {
                let q = Arc::clone(&q);
                let received = Arc::clone(&received);
                sinks.push(s.spawn(move || {
                    let mut got = Vec::new();
                    while received.load(Ordering::SeqCst)
                        < PRODUCERS * PER_PRODUCER as usize
                    {
                        if let Some(v) = q.dequeue() {
                            received.fetch_add(1, Ordering::SeqCst);
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                }));
            }
            let mut all: Vec<u64> = sinks
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(
                all.len(),
                PRODUCERS * PER_PRODUCER as usize,
                "every item delivered exactly once"
            );
        });
    }

    #[test]
    fn size_report_matches_table4() {
        let r = TurnQueue::<u64>::size_report();
        assert_eq!(r.node_bytes, 24);
        assert_eq!(r.enqueue_request_bytes, 0);
        assert_eq!(r.dequeue_request_bytes, 0);
        assert_eq!(r.fixed_per_thread_bytes, 24);
        assert_eq!(r.min_heap_allocs_per_item, 1);
        assert_eq!(r.steady_state_allocs_per_item, 0);
    }

    #[test]
    fn drop_survives_a_panicking_payload() {
        let q: TurnQueue<crate::drop_probe::Item> = TurnQueue::with_max_threads(2);
        crate::drop_probe::assert_drop_frees_all(q, TurnQueue::enqueue, 10, 3);
    }

    #[test]
    fn builder_defaults_match_the_constants() {
        assert_eq!(DEFAULT_FAST_TRIES, 4);
        assert_eq!(DEFAULT_SEG_SIZE, 64);
        let q: TurnQueue<u32> = TurnQueueBuilder::new().max_threads(2).build();
        assert_eq!(q.fast_tries(), DEFAULT_FAST_TRIES);
        // A per-item list holds `POOL_LIST_BYTES` of nodes, since that is
        // more than the hazard backlog bound.
        assert_eq!(
            q.pool_capacity(),
            POOL_LIST_BYTES / std::mem::size_of::<Node<u32>>()
        );
        assert!(q.pool_capacity() > turnq_hazard::retired_bound(2, HPS_PER_THREAD));
        // A word-sized item has a 32-byte node: 4,096 nodes per list at any
        // thread count whose backlog bound is smaller.
        assert_eq!(std::mem::size_of::<Node<u64>>(), 32);
        for max_threads in [1, 4, DEFAULT_MAX_THREADS] {
            let q: TurnQueue<u64> = TurnQueueBuilder::new().max_threads(max_threads).build();
            assert_eq!(q.pool_capacity(), 4_096);
        }
        // Segment mode keeps the backlog bound
        // (`seg::tests::pool_keeps_the_backlog_bound_not_the_byte_budget`).
        // The shorthand constructors are thin wrappers over the builder,
        // so they inherit the same defaults.
        let q1: TurnQueue<u32> = TurnQueue::with_max_threads(3);
        assert_eq!(q1.fast_tries(), DEFAULT_FAST_TRIES);
        // Explicit knobs leave the unset ones at their defaults.
        let q2: TurnQueue<u32> = TurnQueueBuilder::new()
            .max_threads(3)
            .pool_capacity(8)
            .build();
        assert_eq!(q2.fast_tries(), DEFAULT_FAST_TRIES);
        assert_eq!(q2.max_threads(), 3);
        assert_eq!(q2.pool_capacity(), 8);
    }

    #[test]
    fn a_large_item_falls_back_to_the_backlog_bound() {
        // 16 KiB items leave room for only a few nodes in the byte budget,
        // fewer than one scan may deliver, so the list keeps the backlog
        // bound.
        type Big = [u8; 16 * 1024];
        assert!(
            POOL_LIST_BYTES / std::mem::size_of::<Node<Big>>()
                < turnq_hazard::retired_bound(4, HPS_PER_THREAD)
        );
        for max_threads in [4, DEFAULT_MAX_THREADS] {
            let q: TurnQueue<Big> = TurnQueueBuilder::new().max_threads(max_threads).build();
            assert_eq!(
                q.pool_capacity(),
                turnq_hazard::retired_bound(max_threads, HPS_PER_THREAD)
            );
        }
        // An explicit capacity still wins over either default.
        let q: TurnQueue<Big> = TurnQueueBuilder::new()
            .max_threads(4)
            .pool_capacity(2)
            .build();
        assert_eq!(q.pool_capacity(), 2);
    }

    #[test]
    fn fast_tries_knob_round_trips_and_preserves_fifo() {
        for tries in [0u32, 1, 8] {
            let q: TurnQueue<u32> = TurnQueueBuilder::new()
                .max_threads(2)
                .fast_tries(tries)
                .build();
            assert_eq!(q.fast_tries(), tries);
            for i in 0..200 {
                q.enqueue(i);
            }
            for i in 0..200 {
                assert_eq!(q.dequeue(), Some(i));
            }
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn single_thread_ops_take_the_fast_path() {
        let q: TurnQueue<u32> = TurnQueueBuilder::new()
            .max_threads(2)
            .fast_tries(DEFAULT_FAST_TRIES)
            .build();
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        if turnq_telemetry::ENABLED {
            let snap = q.telemetry_snapshot();
            // Uncontended, every op must hit the fast path — no retries, no
            // fallbacks, and no helping.
            assert_eq!(snap.counter(CounterId::FastEnqHit), 100);
            assert_eq!(snap.counter(CounterId::FastDeqHit), 101); // incl. empty deq
            assert_eq!(snap.counter(CounterId::FastEnqFallback), 0);
            assert_eq!(snap.counter(CounterId::FastDeqFallback), 0);
            assert_eq!(snap.counter(CounterId::EnqOps), 100);
            assert_eq!(snap.counter(CounterId::DeqOps), 100);
            assert_eq!(snap.counter(CounterId::DeqEmpty), 1);
        }
    }

    #[test]
    fn slow_path_only_records_no_fast_counters() {
        let q: TurnQueue<u32> = TurnQueueBuilder::new().max_threads(2).fast_tries(0).build();
        q.enqueue(1);
        assert_eq!(q.dequeue(), Some(1));
        if turnq_telemetry::ENABLED {
            let snap = q.telemetry_snapshot();
            assert_eq!(snap.counter(CounterId::FastEnqHit), 0);
            assert_eq!(snap.counter(CounterId::FastDeqHit), 0);
            assert_eq!(snap.counter(CounterId::FastEnqFallback), 0);
            assert_eq!(snap.counter(CounterId::FastDeqFallback), 0);
        }
    }

    #[test]
    fn fastpath_mpmc_no_loss_no_dup() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: u64 = 3_000;
        let q: Arc<TurnQueue<u64>> = Arc::new(
            TurnQueueBuilder::new()
                .max_threads(PRODUCERS + CONSUMERS)
                .fast_tries(DEFAULT_FAST_TRIES)
                .build(),
        );
        let received = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.enqueue((p as u64) << 32 | i);
                    }
                });
            }
            let mut sinks = Vec::new();
            for _ in 0..CONSUMERS {
                let q = Arc::clone(&q);
                let received = Arc::clone(&received);
                sinks.push(s.spawn(move || {
                    let mut got = Vec::new();
                    while received.load(Ordering::SeqCst)
                        < PRODUCERS * PER_PRODUCER as usize
                    {
                        if let Some(v) = q.dequeue() {
                            received.fetch_add(1, Ordering::SeqCst);
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                }));
            }
            let mut all: Vec<u64> = sinks
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            // Per-producer FIFO: for every producer lane, the interleaved
            // global order must preserve that lane's local order.
            let mut lanes: Vec<Vec<u64>> = vec![Vec::new(); PRODUCERS];
            for v in &all {
                lanes[(v >> 32) as usize].push(v & 0xffff_ffff);
            }
            // (consumers interleave, so per-lane order across consumers is
            // not checkable here — the variants.rs suite covers it; this
            // test pins exactly-once delivery under fast/slow mixing.)
            drop(lanes);
            all.sort_unstable();
            all.dedup();
            assert_eq!(
                all.len(),
                PRODUCERS * PER_PRODUCER as usize,
                "every item delivered exactly once"
            );
        });
    }

    #[test]
    fn core_uses_cas_only() {
        // Table 1: the Turn queue needs no atomic instruction beyond CAS.
        // Pin the claim by scanning this crate's sources for fetch-and-add
        // style RMWs.
        // The needles are assembled at runtime so this test's own source
        // never contains them verbatim — otherwise the scan below would be
        // one truncation bug away from matching itself (the same trick the
        // workspace SAFETY/ordering lints use).
        let test_marker = ["#[cfg(te", "st)]"].concat();
        let forbidden: Vec<String> = ["add", "sub", "or"]
            .iter()
            .map(|op| format!("fetch_{op}"))
            .chain([[".sw", "ap("].concat()])
            .collect();
        let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src_dir).unwrap() {
            let path = entry.unwrap().path();
            // seg.rs is exempt by design: the segment mode (DESIGN.md §6d)
            // exists precisely to add FAA cell claiming on top of the
            // CAS-only core. The Table 1 claim is preserved by the paper-
            // literal per-item queue (`build()`), which never executes
            // seg.rs's FAA paths — everything this test scans is still
            // CAS-only.
            if path.file_name().is_some_and(|n| n == "seg.rs") {
                continue;
            }
            if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                // Only the non-test portion of each module carries the
                // claim (tests may count with fetch_add-style RMWs freely).
                // Truncate at the first *line* that is exactly the test-mod
                // attribute — a line-anchored match cannot be fooled by the
                // marker appearing inside a string literal or a comment.
                let algorithm_code: String = text
                    .lines()
                    .take_while(|line| line.trim() != test_marker)
                    .collect::<Vec<_>>()
                    .join("\n");
                for needle in &forbidden {
                    assert!(
                        !algorithm_code.contains(needle.as_str()),
                        "{} uses forbidden RMW {needle}",
                        path.display()
                    );
                }
            }
        }
    }
}
