//! The recording side: per-thread rows of counters, a helping-depth
//! histogram, and an event ring.
//!
//! ## Why plain load+store and not `fetch_add`
//!
//! Every cell is owned by exactly one recording thread (the row index is
//! the dense registry tid), so `c.store(c.load(Relaxed) + 1, Relaxed)` is
//! exact: no other thread ever writes the cell, hence no increment can be
//! lost. Aggregators only read. This keeps hot paths free of RMW — the
//! paper's CAS-only claim and wait-freedom bounds are untouched, because a
//! plain store is a single machine instruction with no retry loop. The
//! same idiom already carries the node pool's stats (`pool.rs::bump`).
//!
//! The atomics come from `turnq_sync::observer` — always std, never the
//! model checker's instrumented wrappers (see that module's docs for why
//! observers are exempt).
//!
//! ## The latency block: allocated by the thread that records
//!
//! A row's counters and depth histogram are small and built with the
//! sheet. Its latency histograms are not: `N_OP_KEYS` series of
//! `LAT_STATS + LAT_BUCKETS` cells come to 64 KiB, most of an empty
//! queue's footprint if every slot carried them. So they live in one
//! fixed-size block behind an `AtomicPtr` per row. The owning thread
//! allocates it on its first sampled operation and publishes it with one
//! `Release` store; a sheet therefore allocates at most one block per
//! row over its lifetime, with no RMW, lock or loop. Only the owner
//! writes a row, so nothing races the publication. A thread's first
//! operation is always timed and its timed operations are at most
//! `2 * LATENCY_SAMPLE_PERIOD` apart, so a thread working one Turn, seg
//! or bounded queue publishes its block within its first 128 operations
//! there. (A sharded queue's lanes are sheets of their own; a lane gets
//! a thread's block on that thread's first timed operation in the lane.)
//! Readers load the pointer with `Acquire` and skip rows with no block;
//! the block is never moved and is freed only when the row drops.
//!
//! The event ring (1 KiB) follows the same rule with a block of its own,
//! published by the row's first event, so a slot no thread ever claims
//! costs only its counters and depth histogram.

#[cfg(feature = "probe")]
use crossbeam_utils::CachePadded;
use std::sync::Arc;
#[cfg(feature = "probe")]
use turnq_sync::observer::{self, AtomicPtr, AtomicU64};
#[cfg(feature = "probe")]
use turnq_sync::ord;

use crate::counters::CounterId;
#[cfg(feature = "probe")]
use crate::counters::N_COUNTERS;
use crate::events::EventKind;
#[cfg(feature = "probe")]
use crate::events::{pack, unpack, RING_CAPACITY};
use crate::events::Event;
#[cfg(feature = "probe")]
use crate::latency::bucket_index;
use crate::latency::{OpKey, N_OP_KEYS, RANGES, SHEET_SUB_BUCKET_BITS};
use crate::snapshot::TelemetrySnapshot;

/// Flat buckets per latency series at the sheet resolution.
const LAT_BUCKETS: usize = RANGES << SHEET_SUB_BUCKET_BITS;

/// `(count, sum, max, min)` cells per latency series.
const LAT_STATS: usize = 4;

/// Offset of the `min` cell within a series; it starts at `u64::MAX` so
/// the first sample always wins.
#[cfg(feature = "probe")]
const LAT_MIN: usize = 3;

/// Cells per latency series: its stat cells, then its buckets.
const LAT_SERIES: usize = LAT_STATS + LAT_BUCKETS;

/// One row's latency histograms: `N_OP_KEYS` series laid out as
/// `key * LAT_SERIES + (stat | LAT_STATS + bucket)`.
#[cfg(feature = "probe")]
type LatBlock = [AtomicU64; N_OP_KEYS * LAT_SERIES];

/// One row's flight-recorder ring (packed events, see `events.rs`).
#[cfg(feature = "probe")]
type RingBlock = [AtomicU64; RING_CAPACITY];

/// Heap bytes of one row's latency block, allocated by the first sampled
/// operation of the thread that owns the row.
pub const LATENCY_BLOCK_BYTES: usize = N_OP_KEYS * LAT_SERIES * std::mem::size_of::<u64>();

/// Helping-depth buckets per cache-padded chunk (one 128-byte line pair).
#[cfg(feature = "probe")]
const DEPTH_CHUNK: usize = 16;

/// Flight-recorder reports kept per sheet; later dumps only bump the
/// `stall_dump` counter (a black box records the first incident, not an
/// unbounded log).
#[cfg(feature = "probe")]
const MAX_STALL_REPORTS: usize = 32;

/// One thread's private recording area. Padded so rows never share a
/// cache line with a neighbour's hot cells.
#[cfg(feature = "probe")]
struct ThreadRow {
    /// Counter cells, indexed by `CounterId as usize`.
    counters: [AtomicU64; N_COUNTERS],
    /// Helping-depth histogram: bucket `d` counts operations that
    /// completed after observing `d` helper iterations. Written on every
    /// operation, so it is held in cache-padded chunks of `DEPTH_CHUNK`
    /// buckets: a plain boxed slice would share a line with the next
    /// row's, which is allocated right after it.
    depth: Box<[CachePadded<[AtomicU64; DEPTH_CHUNK]>]>,
    /// Flight-recorder ring: null until the owner's first event publishes
    /// a `Box<RingBlock>`, owned like `lat` (module docs).
    ring: AtomicPtr<RingBlock>,
    /// Total events ever recorded by this thread; the next write goes to
    /// `ring[ring_pos % RING_CAPACITY]`.
    ring_pos: AtomicU64,
    /// Latency histograms (shared bucket math, `latency.rs`): null until
    /// the owner's first sample publishes a `Box<LatBlock>`, which this
    /// row then owns until it drops (module docs).
    lat: AtomicPtr<LatBlock>,
}

#[cfg(feature = "probe")]
impl ThreadRow {
    fn new(depth_buckets: usize) -> Self {
        ThreadRow {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            depth: (0..depth_buckets.div_ceil(DEPTH_CHUNK))
                .map(|_| CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
            ring: AtomicPtr::new(std::ptr::null_mut()),
            ring_pos: AtomicU64::new(0),
            lat: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Owner-only increment: exact because only the owning thread writes.
    #[inline]
    fn bump(&self, cell: &AtomicU64, n: u64) {
        cell.store(cell.load(observer::Ordering::Relaxed) + n, observer::Ordering::Relaxed);
    }

    /// Owner only: this row's latency block, allocated and published on
    /// the first call. A `Relaxed` load suffices here: the owner either
    /// stored the pointer itself or inherited the row through the
    /// registry's release/claim (or a lock's) happens-before edge.
    #[inline(always)]
    fn own_lat(&self) -> &LatBlock {
        own_block(&self.lat, |i| if i % LAT_SERIES == LAT_MIN { u64::MAX } else { 0 })
    }

    /// Aggregator side: the published latency block, if any.
    fn published_lat(&self) -> Option<&LatBlock> {
        published_block(&self.lat)
    }

    /// Owner only: this row's event ring, published on the first call
    /// (same argument as [`own_lat`](Self::own_lat)).
    #[inline(always)]
    fn own_ring(&self) -> &RingBlock {
        own_block(&self.ring, |_| 0)
    }

    /// Reader side: the published event ring, if any.
    fn published_ring(&self) -> Option<&RingBlock> {
        published_block(&self.ring)
    }
}

/// Owner side of a lazily published row block: the block in `slot`,
/// allocated (cell `i` set to `init(i)`) and published on the first call.
#[cfg(feature = "probe")]
#[inline(always)]
#[allow(unsafe_code)]
fn own_block<const N: usize>(
    slot: &AtomicPtr<[AtomicU64; N]>,
    init: impl Fn(usize) -> u64,
) -> &[AtomicU64; N] {
    // ORDERING(tel.block-own): RELAXED — the owner reads its own slot:
    // it stored the pointer itself or inherited the row through the
    // registry's release/claim edge.
    let mut block = slot.load(ord::RELAXED);
    if block.is_null() {
        block = publish_block(slot, init);
    }
    // SAFETY(tid-exclusive): non-null, so the row's owner (this thread,
    // or the one it inherited the row from) published a live boxed
    // block; it is never moved and is freed only when the row drops,
    // which the borrow of `slot` outlives.
    unsafe { &*block }
}

/// Reader side of a lazily published row block.
#[cfg(feature = "probe")]
#[allow(unsafe_code)]
fn published_block<const N: usize>(slot: &AtomicPtr<[AtomicU64; N]>) -> Option<&[AtomicU64; N]> {
    // ORDERING(tel.block-read): ACQUIRE — a reader sees the block's
    // initialised cells once it sees the pointer. pairs=tel.block-publish
    let block = slot.load(ord::ACQUIRE);
    // SAFETY(publish-once): this `Acquire` load pairs with the `Release`
    // store in `publish_block`, so a non-null pointer's initialised block
    // is visible; it is never moved and is freed only when the row drops,
    // which the borrow of `slot` outlives.
    unsafe { block.as_ref() }
}

#[cfg(feature = "probe")]
impl Drop for ThreadRow {
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        let lat = *self.lat.get_mut();
        if !lat.is_null() {
            // SAFETY(drop-exclusive): `&mut self` — no reference into the
            // block survives, and it came from `Box::into_raw` in
            // `publish_block`, once.
            drop(unsafe { Box::from_raw(lat) });
        }
        let ring = *self.ring.get_mut();
        if !ring.is_null() {
            // SAFETY(drop-exclusive): as above.
            drop(unsafe { Box::from_raw(ring) });
        }
    }
}

/// Allocate a row block (cell `i` set to `init(i)`) and publish it into
/// `slot` with one `Release` store. Called once per block and row, by the
/// row's owner, on its first sample (latency) or event (ring).
#[cfg(feature = "probe")]
#[cold]
#[inline(never)]
fn publish_block<const N: usize>(
    slot: &AtomicPtr<[AtomicU64; N]>,
    init: impl Fn(usize) -> u64,
) -> *mut [AtomicU64; N] {
    let cells: Box<[AtomicU64]> = (0..N).map(|i| AtomicU64::new(init(i))).collect();
    let block: Box<[AtomicU64; N]> = cells
        .try_into()
        .unwrap_or_else(|_| unreachable!("the block is collected at its exact length"));
    let block = Box::into_raw(block);
    // ORDERING(tel.block-publish): RELEASE — orders the block's
    // initialisation before the pointer a reader loads.
    // pairs=tel.block-read
    slot.store(block, ord::RELEASE);
    block
}

/// A telemetry sheet: one row per thread id, sized like the queue's other
/// per-thread arrays (`max_threads` rows).
///
/// With the `probe` feature off this struct stores nothing, every
/// recording method is an empty inline body, and [`snapshot`] returns an
/// all-zero snapshot — call sites need no `cfg`.
///
/// [`snapshot`]: TelemetrySheet::snapshot
pub struct TelemetrySheet {
    max_threads: usize,
    #[cfg(feature = "probe")]
    rows: Box<[CachePadded<ThreadRow>]>,
    /// Flight-recorder reports from the stall watchdog. Recording side
    /// only ever `try_lock`s (never blocks — a report dropped under
    /// contention is acceptable, the `stall_dump` counter still counts
    /// it), so wait-freedom is untouched.
    #[cfg(feature = "probe")]
    stall_reports: std::sync::Mutex<Vec<String>>,
}

impl TelemetrySheet {
    /// Create a sheet with `max_threads` rows and as many helping-depth
    /// buckets per row (depth can reach `max_threads - 1`).
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads > 0, "telemetry sheet needs at least one row");
        TelemetrySheet {
            max_threads,
            #[cfg(feature = "probe")]
            rows: (0..max_threads)
                .map(|_| CachePadded::new(ThreadRow::new(max_threads)))
                .collect(),
            #[cfg(feature = "probe")]
            stall_reports: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Number of rows (thread ids this sheet can record for).
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Increment `id`'s counter on `tid`'s row by one.
    ///
    /// Must only be called from the thread that owns `tid` (the same
    /// discipline as every other per-thread array in the stack).
    #[inline(always)]
    pub fn bump(&self, tid: usize, id: CounterId) {
        self.add(tid, id, 1);
    }

    /// Like [`bump`](Self::bump), adding `n`.
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn add(&self, tid: usize, id: CounterId, n: u64) {
        #[cfg(feature = "probe")]
        {
            let row = &self.rows[tid];
            row.bump(&row.counters[id as usize], n);
        }
    }

    /// Record that an operation by `tid` completed at helping depth
    /// `depth` (clamped into the last bucket if ever out of range).
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn record_depth(&self, tid: usize, depth: usize) {
        #[cfg(feature = "probe")]
        {
            let row = &self.rows[tid];
            let d = depth.min(self.max_threads - 1);
            row.bump(&row.depth[d / DEPTH_CHUNK][d % DEPTH_CHUNK], 1);
        }
    }

    /// Record one operation latency sample (nanoseconds) on `tid`'s row
    /// under the `key` series (operation × path class). A reading of
    /// [`NOT_SAMPLED`](crate::latency::NOT_SAMPLED) — an operation the
    /// [`OpTimer`](crate::OpTimer) sampler skipped — is dropped.
    ///
    /// Same owner-only plain-store discipline as [`bump`](Self::bump):
    /// one histogram-bucket increment plus four stat-cell stores, no RMW,
    /// no loop. The row's first sample also allocates its latency block
    /// and publishes it with one `Release` store (module docs).
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn record_latency(&self, tid: usize, key: OpKey, nanos: u64) {
        #[cfg(feature = "probe")]
        {
            if nanos == crate::latency::NOT_SAMPLED {
                return;
            }
            let row = &self.rows[tid];
            let series = &row.own_lat()[(key as usize) * LAT_SERIES..][..LAT_SERIES];
            let bucket = bucket_index(SHEET_SUB_BUCKET_BITS, nanos);
            row.bump(&series[LAT_STATS + bucket], 1);
            row.bump(&series[0], 1);
            row.bump(&series[1], nanos);
            let max = &series[2];
            if nanos > max.load(observer::Ordering::Relaxed) {
                max.store(nanos, observer::Ordering::Relaxed);
            }
            let min = &series[LAT_MIN];
            if nanos < min.load(observer::Ordering::Relaxed) {
                min.store(nanos, observer::Ordering::Relaxed);
            }
        }
    }

    /// Store a flight-recorder report (non-blocking; drops the report if
    /// another thread holds the sink or the cap is reached). Returns
    /// whether the report was kept.
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn report_stall(&self, report: String) -> bool {
        #[cfg(feature = "probe")]
        {
            if let Ok(mut log) = self.stall_reports.try_lock() {
                if log.len() < MAX_STALL_REPORTS {
                    log.push(report);
                    return true;
                }
            }
            false
        }
        #[cfg(not(feature = "probe"))]
        false
    }

    /// Drain the stored flight-recorder reports (aggregation side; may
    /// block briefly on the sink lock).
    pub fn take_stall_reports(&self) -> Vec<String> {
        #[cfg(feature = "probe")]
        {
            let mut log = self
                .stall_reports
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *log)
        }
        #[cfg(not(feature = "probe"))]
        Vec::new()
    }

    /// Append an event to `tid`'s ring (overwrites oldest-first).
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn event(&self, tid: usize, kind: EventKind, arg: u64) {
        #[cfg(feature = "probe")]
        {
            let row = &self.rows[tid];
            let pos = row.ring_pos.load(observer::Ordering::Relaxed);
            row.own_ring()[(pos as usize) % RING_CAPACITY].store(pack(kind, arg), observer::Ordering::Relaxed);
            row.ring_pos.store(pos + 1, observer::Ordering::Relaxed);
        }
    }

    /// Decode `tid`'s ring, oldest surviving event first.
    ///
    /// Reads are best-effort while the owner is still recording (a slot
    /// being overwritten may decode to a fresh event or be dropped); after
    /// the recording threads quiesce the view is exact.
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn events(&self, tid: usize) -> Vec<Event> {
        #[cfg(feature = "probe")]
        {
            let row = &self.rows[tid];
            let Some(ring) = row.published_ring() else {
                return Vec::new();
            };
            let pos = row.ring_pos.load(observer::Ordering::Relaxed);
            let live = (pos as usize).min(RING_CAPACITY);
            let mut out = Vec::with_capacity(live);
            for i in 0..live {
                let slot = (pos as usize - live + i) % RING_CAPACITY;
                if let Some(ev) = unpack(ring[slot].load(observer::Ordering::Relaxed)) {
                    out.push(ev);
                }
            }
            out
        }
        #[cfg(not(feature = "probe"))]
        Vec::new()
    }

    /// Aggregate every row into a snapshot (Relaxed loads, after one
    /// Acquire load of each row's latency-block pointer; exact once the
    /// recording threads have quiesced, a monotone under-estimate while
    /// they are still running). Rows with no block have no samples.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        #[cfg_attr(not(feature = "probe"), allow(unused_mut))]
        let mut snap = TelemetrySnapshot::empty(self.max_threads);
        #[cfg(feature = "probe")]
        for row in self.rows.iter() {
            for id in CounterId::ALL {
                snap.add_counter(id.name(), row.counters[id as usize].load(observer::Ordering::Relaxed));
            }
            let depth = row.depth.iter().flat_map(|chunk| chunk.iter());
            for (d, cell) in depth.take(self.max_threads).enumerate() {
                snap.add_depth_bucket(d, cell.load(observer::Ordering::Relaxed));
            }
            let Some(block) = row.published_lat() else {
                continue;
            };
            for key in OpKey::ALL {
                let series = &block[(key as usize) * LAT_SERIES..][..LAT_SERIES];
                let count = series[0].load(observer::Ordering::Relaxed);
                if count == 0 {
                    continue;
                }
                snap.add_latency_stats(
                    key,
                    count,
                    series[1].load(observer::Ordering::Relaxed),
                    series[2].load(observer::Ordering::Relaxed),
                    series[LAT_MIN].load(observer::Ordering::Relaxed),
                );
                for (b, cell) in series[LAT_STATS..].iter().enumerate() {
                    let n = cell.load(observer::Ordering::Relaxed);
                    if n > 0 {
                        snap.add_latency_bucket(key, b, n);
                    }
                }
            }
        }
        snap
    }

    /// Number of rows whose latency block has been published: the sheet's
    /// heap beyond its construction is this many [`LATENCY_BLOCK_BYTES`],
    /// plus one `RING_CAPACITY`-word event ring per row that recorded an
    /// event.
    /// Always 0 with `probe` off.
    pub fn latency_blocks(&self) -> usize {
        #[cfg(feature = "probe")]
        {
            self.rows
                .iter()
                .filter(|r| r.published_lat().is_some())
                .count()
        }
        #[cfg(not(feature = "probe"))]
        0
    }

    /// One thread's counter value (test/aggregation aid; Relaxed load).
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn thread_counter(&self, tid: usize, id: CounterId) -> u64 {
        #[cfg(feature = "probe")]
        {
            self.rows[tid].counters[id as usize].load(observer::Ordering::Relaxed)
        }
        #[cfg(not(feature = "probe"))]
        0
    }

    /// Sum of one counter across all rows (Relaxed loads).
    pub fn total(&self, id: CounterId) -> u64 {
        #[cfg(feature = "probe")]
        {
            self.rows
                .iter()
                .map(|r| r.counters[id as usize].load(observer::Ordering::Relaxed))
                .sum()
        }
        #[cfg(not(feature = "probe"))]
        {
            let _ = id;
            0
        }
    }
}

/// A cheap, cloneable connection from an instrumented component (hazard
/// domain, node pool, registry) back to its owner's [`TelemetrySheet`].
///
/// Components hold a handle instead of an `Arc<TelemetrySheet>` directly so
/// that a disconnected default exists: a hazard domain built standalone
/// records nothing, one built by a queue records into the queue's sheet
/// after `attach_telemetry`. With `probe` off the handle is a zero-sized
/// no-op.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    #[cfg(feature = "probe")]
    sheet: Option<Arc<TelemetrySheet>>,
}

impl TelemetryHandle {
    /// A handle that records nothing (the `Default`).
    pub fn disconnected() -> Self {
        TelemetryHandle::default()
    }

    /// A handle recording into `sheet`.
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn connected(sheet: &Arc<TelemetrySheet>) -> Self {
        TelemetryHandle {
            #[cfg(feature = "probe")]
            sheet: Some(Arc::clone(sheet)),
        }
    }

    /// See [`TelemetrySheet::bump`]. Out-of-range `tid`s are ignored (a
    /// drop-path flush may run on an unregistered thread).
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn bump(&self, tid: usize, id: CounterId) {
        self.add(tid, id, 1);
    }

    /// See [`TelemetrySheet::add`].
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn add(&self, tid: usize, id: CounterId, n: u64) {
        #[cfg(feature = "probe")]
        if let Some(sheet) = &self.sheet {
            if tid < sheet.max_threads {
                sheet.add(tid, id, n);
            }
        }
    }

    /// See [`TelemetrySheet::event`].
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn event(&self, tid: usize, kind: EventKind, arg: u64) {
        #[cfg(feature = "probe")]
        if let Some(sheet) = &self.sheet {
            if tid < sheet.max_threads {
                sheet.event(tid, kind, arg);
            }
        }
    }

    /// Whether this handle is connected to a live sheet (always `false`
    /// with `probe` off).
    pub fn is_connected(&self) -> bool {
        #[cfg(feature = "probe")]
        {
            self.sheet.is_some()
        }
        #[cfg(not(feature = "probe"))]
        false
    }
}

#[cfg(test)]
#[cfg(feature = "probe")]
mod tests {
    use super::*;
    use turnq_sync::observer::Ordering;

    #[test]
    fn bump_and_total() {
        let sheet = TelemetrySheet::new(4);
        sheet.bump(0, CounterId::EnqOps);
        sheet.bump(3, CounterId::EnqOps);
        sheet.add(1, CounterId::EnqOps, 5);
        assert_eq!(sheet.total(CounterId::EnqOps), 7);
        assert_eq!(sheet.thread_counter(1, CounterId::EnqOps), 5);
        assert_eq!(sheet.total(CounterId::DeqOps), 0);
    }

    #[test]
    fn depth_is_clamped() {
        let sheet = TelemetrySheet::new(2);
        sheet.record_depth(0, 0);
        sheet.record_depth(0, 1);
        sheet.record_depth(0, 99); // clamps into bucket 1
        let snap = sheet.snapshot();
        assert_eq!(snap.helping_depth(), &[1, 2]);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let sheet = TelemetrySheet::new(1);
        for i in 0..(crate::events::RING_CAPACITY as u64 + 3) {
            sheet.event(0, EventKind::OpFinish, i);
        }
        let events = sheet.events(0);
        assert_eq!(events.len(), crate::events::RING_CAPACITY);
        assert_eq!(events.first().unwrap().arg, 3);
        assert_eq!(events.last().unwrap().arg, crate::events::RING_CAPACITY as u64 + 2);
    }

    #[test]
    fn latency_samples_land_in_their_series() {
        let sheet = TelemetrySheet::new(2);
        sheet.record_latency(0, OpKey::EnqFast, 5);
        sheet.record_latency(0, OpKey::EnqFast, 100);
        sheet.record_latency(1, OpKey::EnqFast, 7);
        sheet.record_latency(1, OpKey::DeqSlow, 1_000_000);
        let snap = sheet.snapshot();
        let fast = snap.latency(OpKey::EnqFast);
        assert_eq!(fast.count(), 3);
        assert_eq!(fast.sum(), 112);
        assert_eq!(fast.max(), 100);
        assert_eq!(fast.min(), 5);
        let slow = snap.latency(OpKey::DeqSlow);
        assert_eq!(slow.count(), 1);
        assert_eq!(snap.latency(OpKey::DeqFast).count(), 0);
        sheet.record_latency(0, OpKey::DeqFast, crate::latency::NOT_SAMPLED);
        assert_eq!(sheet.snapshot().latency(OpKey::DeqFast).count(), 0);
    }

    fn has_block(sheet: &TelemetrySheet, tid: usize) -> bool {
        sheet.rows[tid].published_lat().is_some()
    }

    #[test]
    fn fresh_sheet_has_no_latency_block() {
        let sheet = TelemetrySheet::new(4);
        sheet.bump(0, CounterId::EnqOps);
        sheet.record_depth(1, 0);
        sheet.event(2, EventKind::OpFinish, 0);
        sheet.record_latency(3, OpKey::EnqFast, crate::latency::NOT_SAMPLED);
        assert!((0..4).all(|t| !has_block(&sheet, t)));
        assert_eq!(sheet.latency_blocks(), 0);
    }

    #[test]
    fn one_sample_publishes_only_its_rows_block() {
        let sheet = TelemetrySheet::new(4);
        sheet.record_latency(2, OpKey::DeqSlow, 42);
        assert_eq!(
            (0..4).map(|t| has_block(&sheet, t)).collect::<Vec<_>>(),
            [false, false, true, false]
        );
        let block = sheet.rows[2].lat.load(Ordering::Relaxed);
        sheet.record_latency(2, OpKey::EnqFast, 7);
        assert_eq!(
            sheet.rows[2].lat.load(Ordering::Relaxed),
            block,
            "block moved"
        );
        assert_eq!(sheet.latency_blocks(), 1);
        assert_eq!(sheet.snapshot().latency(OpKey::DeqSlow).min(), 42);
    }

    /// Four recorders publish their blocks while the main thread
    /// snapshots; every snapshot is a monotone under-estimate and the one
    /// after join is exact.
    #[test]
    fn concurrent_samples_and_snapshots_agree_after_join() {
        const THREADS: usize = 4;
        const SAMPLES: u64 = 2_000;
        let sample = |tid: usize, i: u64| {
            (
                OpKey::ALL[(i as usize + tid) % N_OP_KEYS],
                (tid as u64 + 1) * 1_000 + i,
            )
        };
        let sheet = TelemetrySheet::new(THREADS);
        let done = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let (sheet, done) = (&sheet, &done);
                s.spawn(move || {
                    for i in 0..SAMPLES {
                        let (key, nanos) = sample(tid, i);
                        sheet.record_latency(tid, key, nanos);
                    }
                    done.fetch_add(1, std::sync::atomic::Ordering::Release);
                });
            }
            let mut seen = 0;
            while done.load(std::sync::atomic::Ordering::Acquire) < THREADS {
                let snap = sheet.snapshot();
                let count: u64 = OpKey::ALL.iter().map(|&k| snap.latency(k).count()).sum();
                assert!(count >= seen, "snapshot count fell from {seen} to {count}");
                seen = count;
            }
        });
        let snap = sheet.snapshot();
        for key in OpKey::ALL {
            let mut want = (0u64, 0u64, 0u64, u64::MAX);
            for tid in 0..THREADS {
                for i in 0..SAMPLES {
                    let (k, nanos) = sample(tid, i);
                    if k == key {
                        want = (
                            want.0 + 1,
                            want.1 + nanos,
                            want.2.max(nanos),
                            want.3.min(nanos),
                        );
                    }
                }
            }
            let got = snap.latency(key);
            assert_eq!(
                (got.count(), got.sum(), got.max(), got.min()),
                want,
                "{}",
                key.name()
            );
        }
        assert_eq!(sheet.latency_blocks(), THREADS);
    }

    #[test]
    fn stall_reports_are_kept_up_to_the_cap_and_drained() {
        let sheet = TelemetrySheet::new(1);
        for i in 0..(MAX_STALL_REPORTS + 5) {
            let kept = sheet.report_stall(format!("report {i}"));
            assert_eq!(kept, i < MAX_STALL_REPORTS);
        }
        let reports = sheet.take_stall_reports();
        assert_eq!(reports.len(), MAX_STALL_REPORTS);
        assert_eq!(reports[0], "report 0");
        assert!(sheet.take_stall_reports().is_empty());
    }

    #[test]
    fn disconnected_handle_is_inert() {
        let h = TelemetryHandle::disconnected();
        assert!(!h.is_connected());
        h.bump(0, CounterId::HpScan); // must not panic
    }

    #[test]
    fn handle_ignores_out_of_range_tid() {
        let sheet = Arc::new(TelemetrySheet::new(2));
        let h = TelemetryHandle::connected(&sheet);
        h.bump(7, CounterId::HpScan); // silently dropped
        assert_eq!(sheet.total(CounterId::HpScan), 0);
        h.bump(1, CounterId::HpScan);
        assert_eq!(sheet.total(CounterId::HpScan), 1);
    }
}
