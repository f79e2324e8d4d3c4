//! Coordination-free sharded front-end over N wait-free Turn lanes.
//!
//! Every optimisation in `turn-queue` still funnels all threads through one
//! head/tail pair — the scalability ceiling a single CRTurn instance cannot
//! escape. [`ShardedTurnQueue`] composes N independent
//! [`SegTurnQueue`] lanes (N a power of two) behind an explicit, testable
//! FIFO-relaxation contract instead:
//!
//! * **Enqueue** is coordination-free across producers on different lanes:
//!   a producer's home lane is its dense [`ThreadRegistry`] index masked to
//!   the lane count ([`ShardedTurnQueue::home_lane`]), so a producer only
//!   ever touches its home lane's tail. Each lane keeps the paper's
//!   per-operation `O(max_threads)` wait-free bound.
//! * **Dequeue** starts at a per-thread rotating cursor and sweeps at most
//!   N lanes, taking the first lane head found (the first probe is a *hit*,
//!   later probes are *steals*). The sweep is bounded, so the dequeue-side
//!   progress condition of the lanes is preserved.
//! * **Emptiness** is a full-sweep verdict: `None` is returned only after
//!   one sweep observed every lane empty. That verdict is *relaxed*, not
//!   strictly linearizable (see `docs/algorithm.md`): concurrent enqueues
//!   into already-swept lanes can leave up to `k` items pending at every
//!   orderable point of the dequeue.
//!
//! The price of the composition is bounded FIFO drift: a dequeue returns
//! one of the first `k` pending items, where
//! `k = lanes × lane_occupancy_bound` ([`ShardedTurnQueue::relaxation_k`]).
//! The bound is a queryable contract: `turnq-linearize`'s k-relaxed oracle
//! checks recorded histories against exactly this `k`, and the modelcheck
//! mutant suite proves the oracle is live (a sweep biased past `k` is
//! caught with a replayable schedule). See DESIGN.md §6e for the drift and
//! emptiness arguments.

use std::sync::Arc;

use crossbeam_utils::CachePadded;
use turnq_api::{ConcurrentQueue, PoolStats, Progress, QueueFamily, QueueIntrospect, QueueProps, SizeReport};
use turnq_sync::atomic::AtomicUsize;
use turnq_sync::ord;
use turnq_telemetry::{CounterId, TelemetrySheet, TelemetrySnapshot};
use turnq_threadreg::{RegistryFull, ThreadRegistry};
use turn_queue::{SegTurnQueue, TurnQueueBuilder};

/// Default lane count of [`ShardedBuilder`]: enough independent tails to
/// spread a few dozen producers, small enough that a full dequeue sweep
/// stays cheap.
pub const DEFAULT_LANES: usize = 8;

/// Default per-lane occupancy bound used for the `k` contract when the
/// deployment does not declare one. Deliberately generous: the contract is
/// honest for any workload whose per-lane backlog stays under it.
pub const DEFAULT_LANE_OCCUPANCY_BOUND: usize = 1 << 12;

/// Builder for [`ShardedTurnQueue`]: lane count, the per-lane knobs
/// forwarded to every lane's [`TurnQueueBuilder`], and the declared
/// occupancy bound behind the `k` contract.
///
/// ```
/// use turnq_sharded::ShardedBuilder;
///
/// let q = ShardedBuilder::new().lanes(4).max_threads(8).build::<u64>();
/// q.enqueue(7);
/// assert_eq!(q.dequeue(), Some(7));
/// assert_eq!(q.relaxation_k(), 4 * turnq_sharded::DEFAULT_LANE_OCCUPANCY_BOUND);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedBuilder {
    lanes: usize,
    max_threads: usize,
    fast_tries: Option<u32>,
    seg_size: Option<usize>,
    stall_threshold_ns: u64,
    lane_occupancy_bound: usize,
    sweep_skip: usize,
    sweep_lanes: Option<usize>,
}

impl Default for ShardedBuilder {
    fn default() -> Self {
        ShardedBuilder {
            lanes: DEFAULT_LANES,
            max_threads: turn_queue::DEFAULT_MAX_THREADS,
            fast_tries: None,
            seg_size: None,
            stall_threshold_ns: u64::MAX,
            lane_occupancy_bound: DEFAULT_LANE_OCCUPANCY_BOUND,
            sweep_skip: 0,
            sweep_lanes: None,
        }
    }
}

impl ShardedBuilder {
    /// Start from the defaults: [`DEFAULT_LANES`] lanes,
    /// [`turn_queue::DEFAULT_MAX_THREADS`], the feature-gated per-lane
    /// defaults for `fast_tries`/`seg_size`, and
    /// [`DEFAULT_LANE_OCCUPANCY_BOUND`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of independent Turn lanes. Must be a power of two ≥ 1 so
    /// producer affinity is a mask of the dense registry index; 1 lane
    /// degenerates to a single queue behind the same interface (and
    /// `k = lane_occupancy_bound`).
    pub fn lanes(mut self, lanes: usize) -> Self {
        assert!(lanes >= 1, "lanes must be at least 1 (got 0)");
        assert!(
            lanes.is_power_of_two(),
            "lanes must be a power of two (got {lanes})"
        );
        self.lanes = lanes;
        self
    }

    /// Bound on concurrently-operating threads, shared by every lane
    /// (one [`ThreadRegistry`] spans the whole queue, so a thread claims
    /// one slot for all N lanes).
    pub fn max_threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads;
        self
    }

    /// Per-lane fast-path retry budget
    /// ([`TurnQueueBuilder::fast_tries`]); unset keeps the lane default.
    pub fn fast_tries(mut self, tries: u32) -> Self {
        self.fast_tries = Some(tries);
        self
    }

    /// Per-lane segment size ([`TurnQueueBuilder::seg_size`]); unset keeps
    /// the lane default. Must be a power of two ≥ 2.
    pub fn seg_size(mut self, k: usize) -> Self {
        assert!(k >= 2, "seg_size must be at least 2 (got {k})");
        assert!(
            k.is_power_of_two(),
            "seg_size must be a power of two (got {k})"
        );
        self.seg_size = Some(k);
        self
    }

    /// Per-lane stall-watchdog threshold
    /// ([`TurnQueueBuilder::stall_threshold_ns`]); `u64::MAX` (default)
    /// disables the watchdog.
    pub fn stall_threshold_ns(mut self, ns: u64) -> Self {
        self.stall_threshold_ns = ns;
        self
    }

    /// Declared per-lane occupancy bound `B` behind the relaxation
    /// contract `k = lanes × B` ([`ShardedTurnQueue::relaxation_k`]).
    /// Purely declarative — the queue does not enforce backpressure — but
    /// every drift guarantee is conditional on the workload keeping each
    /// lane's backlog at or under `B` (DESIGN.md §6e).
    pub fn lane_occupancy_bound(mut self, bound: usize) -> Self {
        assert!(bound >= 1, "lane_occupancy_bound must be at least 1");
        self.lane_occupancy_bound = bound;
        self
    }

    /// Test-only: make every dequeue sweep skip the first `n` lanes it
    /// observes non-empty before taking an item. This deliberately biases
    /// the sweep past older lane heads, so FIFO drift is no longer bounded
    /// by `k` — it exists so the k-relaxed oracle and the modelcheck
    /// over-k mutant can prove the bound is load-bearing. Never set it in
    /// production.
    #[doc(hidden)]
    pub fn sweep_skip_for_tests(mut self, n: usize) -> Self {
        self.sweep_skip = n;
        self
    }

    /// Test-only: cap the dequeue sweep at `n` lanes instead of all of
    /// them. An emptiness verdict then no longer observes every lane,
    /// breaking the full-sweep argument of `docs/algorithm.md` — it exists
    /// so the missed-lane modelcheck mutant can prove the full sweep is
    /// load-bearing. Never set it in production.
    #[doc(hidden)]
    pub fn sweep_lanes_for_tests(mut self, n: usize) -> Self {
        assert!(n >= 1, "sweeping 0 lanes would make every dequeue empty");
        self.sweep_lanes = Some(n);
        self
    }

    /// Build the sharded queue.
    pub fn build<T: Send>(self) -> ShardedTurnQueue<T> {
        let ShardedBuilder {
            lanes,
            max_threads,
            fast_tries,
            seg_size,
            stall_threshold_ns,
            lane_occupancy_bound,
            sweep_skip,
            sweep_lanes,
        } = self;
        let registry = ThreadRegistry::new(max_threads);
        let built: Vec<SegTurnQueue<T>> = (0..lanes)
            .map(|_| {
                let mut b = TurnQueueBuilder::new()
                    .max_threads(max_threads)
                    .registry(registry.clone())
                    .stall_threshold_ns(stall_threshold_ns);
                if let Some(tries) = fast_tries {
                    b = b.fast_tries(tries);
                }
                if let Some(k) = seg_size {
                    b = b.seg_size(k);
                }
                b.build_seg()
            })
            .collect();
        let cursors = (0..max_threads)
            // Spread consumers' starting lanes the same way producers are
            // spread, so an all-consumer phase does not convoy on lane 0.
            .map(|tid| CachePadded::new(AtomicUsize::new(tid & (lanes - 1))))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedTurnQueue {
            lanes: built.into_boxed_slice(),
            lane_mask: lanes - 1,
            registry,
            telemetry: Arc::new(TelemetrySheet::new(max_threads)),
            cursors,
            lane_occupancy_bound,
            max_threads,
            sweep_skip,
            sweep_lanes: sweep_lanes.unwrap_or(lanes).min(lanes),
        }
    }
}

/// N independent wait-free Turn lanes behind one queue interface, with
/// bounded FIFO drift `k = lanes × lane_occupancy_bound`. See the crate
/// docs for the protocol and DESIGN.md §6e for the arguments.
pub struct ShardedTurnQueue<T: Send> {
    /// The unbounded segment-mode Turn lanes.
    lanes: Box<[SegTurnQueue<T>]>,
    lane_mask: usize,
    /// One registry spans every lane ([`TurnQueueBuilder::registry`]):
    /// a thread's dense index — and therefore its home lane — is the same
    /// in each lane's consensus arrays.
    registry: ThreadRegistry,
    /// The front-end's own sheet: `shard_*` counters only (each lane keeps
    /// its own sheet; [`telemetry_snapshot`](Self::telemetry_snapshot)
    /// merges them).
    telemetry: Arc<TelemetrySheet>,
    /// Per-thread rotating dequeue cursor: the lane the thread's next
    /// sweep starts at. Owner-only (slot `tid` is touched by thread `tid`
    /// alone), so no cross-thread edge is ever needed.
    cursors: Box<[CachePadded<AtomicUsize>]>,
    lane_occupancy_bound: usize,
    max_threads: usize,
    /// Test knobs, both inert in production (`0` / `lanes`); see the
    /// hidden builder setters.
    sweep_skip: usize,
    sweep_lanes: usize,
}

impl<T: Send> ShardedTurnQueue<T> {
    /// The builder carrying every knob ([`ShardedBuilder`]).
    pub fn builder() -> ShardedBuilder {
        ShardedBuilder::new()
    }

    /// Insert `item` at the tail of the calling thread's home lane.
    /// Coordination-free across producers on different lanes; inside a
    /// lane, the paper's `O(max_threads)` wait-free bound applies.
    pub fn enqueue(&self, item: T) {
        let tid = self.registry.current_index();
        self.lanes[tid & self.lane_mask].enqueue(item);
        self.telemetry.bump(tid, CounterId::ShardEnqHome);
    }

    /// Remove and return one of the first [`relaxation_k`](Self::relaxation_k)
    /// pending items, or `None` after a full sweep observed every lane
    /// empty (the relaxed-emptiness verdict, `docs/algorithm.md`).
    pub fn dequeue(&self) -> Option<T> {
        let tid = self.registry.current_index();
        // ORDERING(sh.cursor-own): RELAXED — `cursors[tid]` is owner-only
        // (read and written by thread `tid` exclusively); the value is a
        // starting hint with no cross-thread reader, so no happens-before
        // edge is required. Same rule as the telemetry counters.
        let start = self.cursors[tid].load(ord::RELAXED);
        let mut skip = self.sweep_skip;
        for probe in 0..self.sweep_lanes {
            let lane = (start + probe) & self.lane_mask;
            if skip > 0 && !self.lanes[lane].is_empty() {
                // Test-only mutant path (`sweep_skip_for_tests`).
                skip -= 1;
                continue;
            }
            // Pre-probe: `is_empty` runs the same SeqCst emptiness verdict
            // as a lane dequeue's empty path (`sg.empty-verdict`) without
            // its op-timer and counter bookkeeping, so sweeping past idle lanes
            // stays nearly free. The observation the relaxed emptiness
            // verdict needs — "this lane was empty at some instant during
            // the sweep" (docs/algorithm.md) — is exactly what the probe
            // provides.
            if self.lanes[lane].is_empty() {
                continue;
            }
            if let Some(item) = self.lanes[lane].dequeue() {
                self.telemetry.bump(
                    tid,
                    if probe == 0 {
                        CounterId::ShardDeqHit
                    } else {
                        CounterId::ShardDeqSteal
                    },
                );
                // ORDERING(sh.cursor-own): RELAXED — owner-only store of
                // the next sweep's starting hint (see the load above). The
                // hint sticks to the lane that just yielded an item:
                // consumers park where work was last found (usually their
                // own home lane) and rotate onward only through the sweep's
                // misses, so a steady producer/consumer pairing never pays
                // for the idle lanes between hits.
                self.cursors[tid].store(lane, ord::RELAXED);
                return Some(item);
            }
            // The pre-probe raced a faster consumer (the lane drained
            // between the probe and the dequeue): keep sweeping.
        }
        self.telemetry.bump(tid, CounterId::ShardSweepEmpty);
        None
    }

    /// The FIFO-relaxation bound `k = lanes × lane_occupancy_bound`: a
    /// dequeue returns one of the first `k` pending enqueues, and `None`
    /// implies fewer than `k` items were pending at every orderable point
    /// — both conditional on the workload keeping each lane's backlog at
    /// or under [`lane_occupancy_bound`](Self::lane_occupancy_bound)
    /// (DESIGN.md §6e). This is the `k` to hand to `turnq-linearize`'s
    /// k-relaxed oracle.
    pub fn relaxation_k(&self) -> usize {
        self.lanes.len().saturating_mul(self.lane_occupancy_bound)
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The declared per-lane occupancy bound `B` behind the `k` contract.
    pub fn lane_occupancy_bound(&self) -> usize {
        self.lane_occupancy_bound
    }

    /// The `max_threads` bound this queue was built with (shared by every
    /// lane through one [`ThreadRegistry`]).
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Per-lane segment size ([`TurnQueueBuilder::seg_size`]).
    pub fn seg_size(&self) -> usize {
        self.lanes[0].seg_size()
    }

    /// Per-lane fast-path retry budget ([`TurnQueueBuilder::fast_tries`]).
    pub fn fast_tries(&self) -> u32 {
        self.lanes[0].fast_tries()
    }

    /// The calling thread's home lane (its dense registry index masked to
    /// the lane count). Registers the thread if needed.
    pub fn home_lane(&self) -> Result<usize, RegistryFull> {
        Ok(self.registry.try_current_index()? & self.lane_mask)
    }

    /// The shared registry spanning every lane.
    pub fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }

    /// Racy emptiness hint: every lane's hint observed empty at some
    /// instant during the call. (The relaxed emptiness *verdict* is what
    /// `dequeue()` returning `None` provides.)
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|lane| lane.is_empty())
    }

    /// One lane's current backlog, from its quiesced-exact telemetry
    /// counters (`enq_ops − deq_ops`). All-zero with probes off.
    pub fn lane_occupancy(&self, lane: usize) -> u64 {
        let snap = self.lanes[lane].telemetry_snapshot();
        snap.counter(CounterId::EnqOps)
            .saturating_sub(snap.counter(CounterId::DeqOps))
    }

    /// Aggregated counters of every lane's node-recycling pool.
    pub fn pool_stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for lane in self.lanes.iter() {
            let s = lane.pool_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.recycled += s.recycled;
            total.overflows += s.overflows;
            total.pooled_now += s.pooled_now;
        }
        total
    }

    /// Merged telemetry: the front-end's own `shard_*` counters, every
    /// lane's snapshot (counters and histograms add, latency series
    /// merge), the per-lane occupancy gauge
    /// (`turnq_shard_lane_occupancy{lane="i"}`), and the shared registry's
    /// tallies folded in exactly once (lanes skip them — see
    /// [`TurnQueueBuilder::registry`]). All-zero when the `telemetry`
    /// feature is off; exact once concurrent ops quiesce.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        for (i, lane) in self.lanes.iter().enumerate() {
            let lane_snap = lane.telemetry_snapshot();
            if turnq_telemetry::ENABLED {
                let occ = lane_snap
                    .counter(CounterId::EnqOps)
                    .saturating_sub(lane_snap.counter(CounterId::DeqOps));
                snap.set_lane_gauge("shard_lane_occupancy", i, occ);
            }
            snap.merge(&lane_snap);
        }
        if turnq_telemetry::ENABLED {
            snap.set_gauge("registry_registered", self.registry.registered_count() as u64);
            snap.add_counter("slot_claim", self.registry.slot_claims());
            snap.add_counter("slot_release", self.registry.slot_releases());
        }
        snap
    }

    /// The front-end's own raw sheet (`shard_*` counters only). Lane
    /// sheets are reached through the merged
    /// [`telemetry_snapshot`](Self::telemetry_snapshot).
    pub fn telemetry(&self) -> &TelemetrySheet {
        &self.telemetry
    }

    /// Drain the pending stall-watchdog reports of every lane
    /// (`turnq-stall-report/2` JSON, see
    /// [`TurnQueueBuilder::stall_threshold_ns`]).
    pub fn take_stall_reports(&self) -> Vec<String> {
        self.lanes
            .iter()
            .flat_map(|lane| lane.telemetry().take_stall_reports())
            .collect()
    }
}

impl<T: Send> ConcurrentQueue<T> for ShardedTurnQueue<T> {
    #[inline]
    fn enqueue(&self, item: T) {
        ShardedTurnQueue::enqueue(self, item);
    }

    #[inline]
    fn dequeue(&self) -> Option<T> {
        ShardedTurnQueue::dequeue(self)
    }

    fn max_threads(&self) -> usize {
        ShardedTurnQueue::max_threads(self)
    }
}

impl<T: Send> QueueIntrospect for ShardedTurnQueue<T> {
    fn props() -> QueueProps {
        QueueProps {
            name: "Turn-sharded",
            // Routing is one mask over the dense tid; the lane enqueue
            // keeps its own wait-free bound.
            progress_enqueue: Progress::WaitFreeBounded,
            // The sweep is bounded (≤ lanes probes) but each lane dequeue
            // inherits the segment mode's interference-bounded retry loop
            // (§6d), so the honest label stays lock-free.
            progress_dequeue: Progress::LockFree,
            consensus: "Turn (CRTurn) per lane; none across lanes",
            atomic_instructions: "CAS+FAA",
            reclamation: "wait-free bounded HP (per lane)",
            min_memory: "O(lanes * N_threads * seg_size)",
        }
    }

    fn size_report() -> SizeReport {
        // A sharded queue transfers every item through exactly one lane,
        // so the per-item figures are the lane's own.
        <SegTurnQueue<u64> as QueueIntrospect>::size_report()
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(ShardedTurnQueue::pool_stats(self))
    }

    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        Some(ShardedTurnQueue::telemetry_snapshot(self))
    }
}

/// [`QueueFamily`] selector for the sharded front-end with the default
/// lane count (clamped to the thread bound's next power of two, so tiny
/// harness configurations do not sweep mostly-idle lanes).
pub struct ShardedTurnFamily;

impl QueueFamily for ShardedTurnFamily {
    type Queue<T: Send + 'static> = ShardedTurnQueue<T>;
    const NAME: &'static str = "turn-sharded";

    fn with_max_threads<T: Send + 'static>(max_threads: usize) -> ShardedTurnQueue<T> {
        let lanes = max_threads.next_power_of_two().min(DEFAULT_LANES);
        ShardedBuilder::new()
            .lanes(lanes)
            .max_threads(max_threads)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_fifo_within_home_lane() {
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new().lanes(4).max_threads(4).build();
        for v in 1..=10 {
            q.enqueue(v);
        }
        // One thread has one home lane, so its items come back in order.
        for v in 1..=10 {
            assert_eq!(q.dequeue(), Some(v));
        }
        assert_eq!(q.dequeue(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn one_lane_degenerates_to_single_queue() {
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new().lanes(1).max_threads(2).build();
        assert_eq!(q.lanes(), 1);
        assert_eq!(q.relaxation_k(), q.lane_occupancy_bound());
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
    }

    #[test]
    fn relaxation_k_is_lanes_times_bound() {
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new()
            .lanes(8)
            .lane_occupancy_bound(3)
            .build();
        assert_eq!(q.relaxation_k(), 24);
        assert_eq!(q.lane_occupancy_bound(), 3);
        assert_eq!(q.lanes(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn builder_rejects_non_power_of_two_lanes() {
        let _ = ShardedBuilder::new().lanes(6);
    }

    #[test]
    fn knobs_forward_to_every_lane() {
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new()
            .lanes(2)
            .max_threads(4)
            .fast_tries(3)
            .seg_size(4)
            .build();
        assert_eq!(q.fast_tries(), 3);
        assert_eq!(q.seg_size(), 4);
        assert_eq!(q.max_threads(), 4);
    }

    #[test]
    fn home_lane_is_registry_index_masked() {
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new().lanes(4).max_threads(8).build();
        let lane = q.home_lane().unwrap();
        assert_eq!(lane, q.registry().current_index() & 3);
        // Stable across calls on the same thread.
        assert_eq!(q.home_lane().unwrap(), lane);
    }

    #[test]
    fn sweep_finds_items_in_any_lane() {
        // A single thread's items land in one lane; force the cursor away
        // from it by draining after enqueueing, then spread items by hand
        // through other threads.
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new().lanes(4).max_threads(8).build();
        std::thread::scope(|s| {
            for v in 0..4u64 {
                let q = &q;
                s.spawn(move || q.enqueue(v)).join().unwrap();
            }
        });
        // Whatever lanes those threads landed in, four sweeps drain all.
        let mut got: Vec<u64> = (0..4).map(|_| q.dequeue().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn sweep_lanes_mutant_misses_items_outside_its_window() {
        // Production config sweeps every lane; the mutant sweeps 1. Items
        // outside the cursor's lane become invisible — the missed-lane
        // verdict the modelcheck mutant turns into an oracle violation.
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new()
            .lanes(2)
            .max_threads(4)
            .sweep_lanes_for_tests(1)
            .build();
        // This thread holds registry index 0 → home lane 0, cursor 0.
        assert_eq!(q.registry().current_index(), 0);
        // Park three items in lane 1 from a thread with index 1.
        std::thread::scope(|s| {
            s.spawn(|| {
                for v in [10u64, 11, 12] {
                    q.enqueue(v);
                }
            })
            .join()
            .unwrap();
        });
        // The crippled sweep only probes lane 0: a false empty verdict.
        assert_eq!(q.dequeue(), None);
        assert_eq!(q.lane_occupancy(1), if turnq_telemetry::ENABLED { 3 } else { 0 });
    }

    #[test]
    fn sweep_skip_mutant_overtakes_older_lane_heads() {
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new()
            .lanes(2)
            .max_threads(4)
            .sweep_skip_for_tests(1)
            .build();
        assert_eq!(q.registry().current_index(), 0);
        // Lane 0 holds the two oldest items; lane 1 holds the newest.
        q.enqueue(1);
        q.enqueue(2);
        std::thread::scope(|s| {
            s.spawn(|| q.enqueue(3)).join().unwrap();
        });
        // The biased sweep skips non-empty lane 0 and steals the newest
        // item — pending position 3 > k = 2 when B = 1, the over-k drift
        // the k-relaxed oracle rejects.
        assert_eq!(q.dequeue(), Some(3));
    }

    #[test]
    fn snapshot_merges_lanes_and_counts_shard_traffic() {
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new().lanes(2).max_threads(4).build();
        for v in 0..6u64 {
            q.enqueue(v);
        }
        for _ in 0..4 {
            assert!(q.dequeue().is_some());
        }
        let snap = q.telemetry_snapshot();
        if turnq_telemetry::ENABLED {
            assert_eq!(snap.counter(CounterId::EnqOps), 6);
            assert_eq!(snap.counter(CounterId::DeqOps), 4);
            assert_eq!(snap.counter(CounterId::ShardEnqHome), 6);
            assert_eq!(
                snap.counter(CounterId::ShardDeqHit) + snap.counter(CounterId::ShardDeqSteal),
                4
            );
            // This thread's 6 − 4 backlog sits in its single home lane.
            let lane = q.home_lane().unwrap();
            assert_eq!(snap.lane_gauge("shard_lane_occupancy", lane), 2);
            assert_eq!(snap.lane_gauge("shard_lane_occupancy", 1 - lane), 0);
            // Registry tallies are folded exactly once (not per lane).
            assert_eq!(snap.get("registry_registered"), 1);
        } else {
            assert_eq!(snap.counter(CounterId::EnqOps), 0);
        }
    }

    #[test]
    fn pool_stats_sum_lanes_and_sweep_empty_counts() {
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new().lanes(2).max_threads(2).build();
        // One thread fills one home lane: past two segments, so at least
        // two appends acquire a node whatever the default segment size.
        let n = 2 * turn_queue::DEFAULT_SEG_SIZE as u64 + 1;
        for v in 0..n {
            q.enqueue(v);
        }
        while q.dequeue().is_some() {}
        assert_eq!(q.dequeue(), None);
        // Node acquisitions happened (summed across lanes); exact counts
        // depend on seg_size, so only the aggregate is asserted.
        let stats = ShardedTurnQueue::pool_stats(&q);
        assert!(stats.hits + stats.misses > 0);
        if turnq_telemetry::ENABLED {
            let snap = q.telemetry_snapshot();
            // The empty-drain dequeue plus the final one each swept every
            // lane without finding an item.
            assert!(snap.counter(CounterId::ShardSweepEmpty) >= 2);
            assert_eq!(snap.counter(CounterId::DeqOps), n);
        }
    }

    #[test]
    fn stall_reports_drain_from_lanes() {
        let q: ShardedTurnQueue<u64> = ShardedBuilder::new()
            .lanes(2)
            .max_threads(2)
            .stall_threshold_ns(1)
            .build();
        q.enqueue(1);
        let _ = q.dequeue();
        let reports = q.take_stall_reports();
        if turnq_telemetry::ENABLED {
            assert!(!reports.is_empty(), "1ns threshold must trip the watchdog");
            assert!(reports[0].contains("turnq-stall-report/2"));
        }
        // Drained: a second take is empty.
        assert!(q.take_stall_reports().is_empty() || !turnq_telemetry::ENABLED);
    }
}
