//! One (workload, queue, repetition) cell: set-up, warm-up, one measured
//! window, and the check of every delivered item.
//!
//! Two worker threads do all queue work; the main thread only times the
//! phases and sleeps while a window is measured. Items are
//! `producer << 48 | seq`, so each consumer checks per-producer order, and
//! per-producer counts and hash sums prove nothing was lost or duplicated.
//!
//! The latency a cell reports is what its caller waits for: in the closed
//! loops, the duration of every `SAMPLE_EVERY`-th queue call that moved an
//! item; under `paced` arrivals, each item's sojourn from its due time to
//! its dequeue.

use std::hint::spin_loop;
use std::sync::atomic::{
    AtomicU64, AtomicU8, AtomicUsize, Ordering::Acquire, Ordering::Relaxed, Ordering::Release,
};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use turnq_api::TelemetrySnapshot;

use crate::alloc;
use crate::clock::now_ns;
use crate::queues::BenchQueue;
use crate::stats::percentile;
use crate::trace::{NoTrace, Op, Span, Spans, Tracer};

/// Worker threads per cell (the host's core count when the benchmark was
/// defined); the main thread stays idle while a window is measured.
pub const WORKERS: usize = 2;
/// Closed loops time one queue call in this many, which keeps clock reads
/// off most operations.
const SAMPLE_EVERY: u64 = 64;
/// Latency samples kept per worker and cell.
const SAMPLE_CAP: usize = 1 << 20;
/// The `stream`/`paced` producer and consumer publish their counts this
/// often.
const PUBLISH_EVERY: u64 = 64;
/// `stream`/`paced`: the producer waits before a burst once this many
/// items are queued, so a faster producer cannot grow the heap without
/// bound.
pub const BACKLOG_CAP: u64 = 4096;
/// `stream`: the consumer waits while at most this many items are queued.
/// Head and tail then stay hundreds of items apart, so the two threads
/// never settle into contending on the same few cache lines of a
/// near-empty queue: left free, a producer and consumer of similar speed
/// wander between that regime and the backlogged one, and a window's
/// throughput depends on which one it caught. Below the bounded ring's
/// 1024 slots, so `Full` still throttles that producer.
pub const STREAM_LOW_WATER: u64 = 512;
/// `stream`: largest seeded burst.
const STREAM_MAX_BURST: u64 = 64;
/// `paced`: Poisson arrival rate, items per second.
pub const PACED_RATE: f64 = 500_000.0;

const SEQ_MASK: u64 = (1 << 48) - 1;

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two threads, each enqueue then dequeue, at most two items in flight.
    Pairs,
    /// `pairs` over a queue prefilled to its deep depth.
    Deep,
    /// One producer in seeded bursts, one consumer, with the backlog held
    /// between [`STREAM_LOW_WATER`] and [`BACKLOG_CAP`] items.
    Stream,
    /// Open loop: Poisson arrivals at [`PACED_RATE`], one polling consumer.
    Paced,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Pairs,
        Workload::Deep,
        Workload::Stream,
        Workload::Paced,
    ];

    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pairs => "pairs",
            Workload::Deep => "deep",
            Workload::Stream => "stream",
            Workload::Paced => "paced",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How each cell runs.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Untimed warm-up before the window.
    pub warmup: Duration,
    /// The measured window.
    pub window: Duration,
    /// Upper limit on the deep prefill and footprint-probe depth (smoke
    /// runs use a small one).
    pub depth_cap: usize,
}

/// Everything one cell measured.
#[derive(Default)]
pub struct CellOut {
    /// Queue build plus each worker's registration and `deep` prefill, in
    /// nanoseconds.
    pub setup_ns: u64,
    /// Completed enqueues plus dequeues per second in the window, in
    /// millions.
    pub mops: f64,
    /// Median latency of the window's samples: sampled item-moving calls
    /// in the closed loops, due-to-dequeue sojourn when paced.
    pub latency_p50_ns: f64,
    /// Queue calls made, including retries and the final drain.
    pub attempted: u64,
    /// Lost, duplicated, reordered or malformed items, spurious `None`s and
    /// spurious `Full`s.
    pub failed: u64,
    /// Worker queue calls after set-up (warm-up and window).
    pub calls: u64,
    /// Telemetry at the end of set-up and after the workers joined.
    pub counters: Option<(TelemetrySnapshot, TelemetrySnapshot)>,
    /// 99th percentile of how late the `paced` generator ran.
    pub late_p99_ns: u64,
    /// Largest backlog the `stream`/`paced` producer saw (0 in the
    /// closed-loop workloads, whose backlog is fixed by construction).
    pub backlog_max: u64,
    /// Per-worker spans of a traced cell.
    pub spans: Vec<Vec<Span>>,
}

/// splitmix64: the seeded generator and the item hash.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded input generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Per-consumer delivery check.
#[derive(Default, Clone)]
pub struct Checker {
    /// `last[p]` = 1 + the last sequence number seen from producer `p`.
    last: [u64; WORKERS],
    count: [u64; WORKERS],
    hash: [u64; WORKERS],
    /// Order violations, duplicates seen by one consumer, and items naming
    /// no producer.
    bad: u64,
}

impl Checker {
    #[inline]
    fn accept(&mut self, item: u64) {
        let p = (item >> 48) as usize;
        let seq = item & SEQ_MASK;
        if p >= WORKERS {
            self.bad += 1;
            return;
        }
        if seq < self.last[p] {
            self.bad += 1;
        }
        self.last[p] = seq + 1;
        self.count[p] += 1;
        self.hash[p] = self.hash[p].wrapping_add(mix(item));
    }
}

/// State the main thread shares with the workers of one cell.
struct Shared<'a, Q> {
    q: &'a Q,
    workload: Workload,
    phase: AtomicU8,
    ready: Barrier,
    go: Barrier,
    /// `deep`: the worker whose turn it is to prefill.
    prefill_turn: AtomicUsize,
    deep_depth: usize,
    /// `stream`/`paced`: dequeues completed so far, published by the
    /// consumer every `PUBLISH_EVERY` items for the producer's backlog cap.
    consumed: AtomicU64,
    /// `stream`: enqueues completed so far, published by the producer
    /// every `PUBLISH_EVERY` items for the consumer's low-water mark.
    produced: AtomicU64,
    /// `paced`: generator start, `now_ns` time.
    paced_start: AtomicU64,
    schedule: &'a [u64],
    seed: u64,
}

/// What one worker did.
#[derive(Default)]
struct WorkerOut {
    /// Registration and `deep` prefill, in nanoseconds.
    setup_ns: u64,
    produced: u64,
    produced_hash: u64,
    check: Checker,
    window_ops: u64,
    calls: u64,
    spurious: u64,
    backlog_max: u64,
    latency: Vec<u64>,
    late: Vec<u64>,
    spans: Vec<Span>,
}

struct Worker<'s, 'a, Q, T> {
    sh: &'s Shared<'a, Q>,
    id: usize,
    seq: u64,
    /// Queue calls made, for choosing the sampled ones.
    ticks: u64,
    tr: T,
    out: WorkerOut,
}

impl<Q: BenchQueue, T: Tracer> Worker<'_, '_, Q, T> {
    #[inline]
    fn phase(&self) -> u8 {
        self.sh.phase.load(Relaxed)
    }

    /// The phase at the top of a loop iteration; opens span recording
    /// once the window is measured.
    #[inline]
    fn tick(&mut self) -> u8 {
        let ph = self.phase();
        if ph == MEASURE {
            self.tr.measuring();
        }
        ph
    }

    /// Count a queue call; on every `SAMPLE_EVERY`-th call of a sampled
    /// loop, return its start time (0 = not timed).
    #[inline]
    fn sample_start(&mut self, sampled: bool) -> u64 {
        self.ticks += 1;
        if sampled && self.ticks.is_multiple_of(SAMPLE_EVERY) {
            now_ns()
        } else {
            0
        }
    }

    /// Record a latency from `start` (no-op for 0).
    #[inline]
    fn sample_end(&mut self, start: u64) {
        if start != 0 && self.out.latency.len() < SAMPLE_CAP {
            self.out.latency.push(now_ns().saturating_sub(start));
        }
    }

    /// Enqueue this producer's next item, retrying on `Full`, and time it
    /// if `sampled`. Returns false if the cell stopped first. `Full` is a
    /// failure unless the workload builds a backlog; there the producer
    /// waits for the consumer to take more items before it retries, rather
    /// than hammering the full ring.
    #[inline]
    fn put(&mut self, sampled: bool) -> bool {
        let item = (self.id as u64) << 48 | self.seq;
        let backlog = matches!(self.sh.workload, Workload::Stream | Workload::Paced);
        loop {
            let s = self.sample_start(sampled);
            let t = self.tr.begin();
            let r = self.sh.q.enqueue(item);
            self.out.calls += 1;
            match r {
                Ok(()) => {
                    self.tr.end(t, Op::Enq, item);
                    self.sample_end(s);
                    self.out.produced += 1;
                    self.out.produced_hash = self.out.produced_hash.wrapping_add(mix(item));
                    self.seq += 1;
                    if backlog && self.out.produced.is_multiple_of(PUBLISH_EVERY) {
                        // ORDERING: RELEASE pairs with the ACQUIRE in
                        // `wait_for_backlog`: the items counted here are
                        // enqueued before the consumer acts on the count.
                        self.sh.produced.store(self.out.produced, Release);
                    }
                    return true;
                }
                Err(_) => {
                    self.tr.end(t, Op::EnqFull, item);
                    if !backlog {
                        self.out.spurious += 1;
                    }
                    let seen = self.sh.consumed.load(Relaxed);
                    let t = self.tr.begin();
                    while backlog && self.sh.consumed.load(Relaxed) == seen {
                        if self.phase() == STOP {
                            return false;
                        }
                        spin_loop();
                    }
                    self.tr.end(t, Op::Wait, 0);
                    if self.phase() == STOP {
                        return false;
                    }
                }
            }
        }
    }

    /// One dequeue call, timed if `sampled` and it returns an item.
    #[inline]
    fn poll(&mut self, sampled: bool) -> Option<u64> {
        let s = self.sample_start(sampled);
        let t = self.tr.begin();
        let r = self.sh.q.dequeue();
        self.out.calls += 1;
        match r {
            Some(item) => {
                self.tr.end(t, Op::Deq, item);
                self.sample_end(s);
                self.out.check.accept(item);
            }
            None => self.tr.end(t, Op::DeqEmpty, 0),
        }
        r
    }

    /// `pairs` and `deep`: enqueue one item, then dequeue one.
    fn run_pairs(&mut self) {
        // In `pairs` this thread's own item is queued whenever it
        // dequeues, so a linearizable queue is never empty here; `deep`
        // holds its whole prefill.
        let none_allowed = self.sh.workload == Workload::Pairs && self.sh.q.relaxed_empty();
        loop {
            let ph = self.tick();
            if ph == STOP || !self.put(ph == MEASURE) {
                return;
            }
            loop {
                if self.poll(ph == MEASURE).is_some() {
                    if ph == MEASURE {
                        self.out.window_ops += 2;
                    }
                    break;
                }
                if !none_allowed {
                    self.out.spurious += 1;
                }
                if self.phase() == STOP {
                    return;
                }
            }
        }
    }

    /// Wait while the backlog is at the cap; false if the cell stopped.
    fn wait_for_room(&mut self) -> bool {
        let backlog = self.out.produced - self.sh.consumed.load(Relaxed);
        self.out.backlog_max = self.out.backlog_max.max(backlog);
        if backlog < BACKLOG_CAP {
            return true;
        }
        let t = self.tr.begin();
        while self.out.produced - self.sh.consumed.load(Relaxed) >= BACKLOG_CAP {
            if self.phase() == STOP {
                return false;
            }
            spin_loop();
        }
        self.tr.end(t, Op::Wait, 0);
        true
    }

    /// `stream` producer: seeded bursts of 1..=64 items, each started only
    /// below the backlog cap.
    fn run_stream_producer(&mut self) {
        let mut rng = Rng::new(self.sh.seed);
        loop {
            let ph = self.tick();
            if ph == STOP || !self.wait_for_room() {
                return;
            }
            let burst = 1 + rng.next_u64() % STREAM_MAX_BURST;
            for _ in 0..burst {
                if !self.put(ph == MEASURE) {
                    return;
                }
                if ph == MEASURE {
                    self.out.window_ops += 1;
                }
            }
        }
    }

    /// `paced` producer: one item at each seeded due time.
    fn run_paced_producer(&mut self) {
        let start = now_ns();
        self.sh.paced_start.store(start, Relaxed);
        for &offset in self.sh.schedule {
            let due = start + offset;
            let t = self.tr.begin();
            let mut now = now_ns();
            while now < due {
                if self.phase() == STOP {
                    return;
                }
                spin_loop();
                now = now_ns();
            }
            self.tr.end(t, Op::Wait, 0);
            let ph = self.tick();
            if ph == STOP || !self.wait_for_room() || !self.put(false) {
                return;
            }
            if ph == MEASURE {
                self.out.late.push(now - due);
                self.out.window_ops += 1;
            }
        }
        // Schedule exhausted (sized with slack, so only in a stalled run):
        // idle until the cell stops.
        while self.phase() != STOP {
            std::thread::yield_now();
        }
    }

    /// `stream` consumer: wait until more than [`STREAM_LOW_WATER`] items
    /// are published as enqueued; false if the cell stopped first.
    /// `visible` caches the last published count, so the shared counter is
    /// read only near the mark.
    fn wait_for_backlog(&mut self, taken: u64, visible: &mut u64) -> bool {
        if *visible > taken + STREAM_LOW_WATER {
            return true;
        }
        let t = self.tr.begin();
        // ORDERING: ACQUIRE pairs with the producer's RELEASE store after
        // its enqueues, so those items are in the queue before this
        // consumer dequeues, and a `None` from then on is spurious.
        while {
            *visible = self.sh.produced.load(Acquire);
            *visible <= taken + STREAM_LOW_WATER
        } {
            if self.phase() == STOP {
                return false;
            }
            spin_loop();
        }
        self.tr.end(t, Op::Wait, 0);
        true
    }

    /// `stream`/`paced` consumer: poll until the cell stops. In `stream`
    /// every poll follows [`Self::wait_for_backlog`], so it must find an
    /// item.
    fn run_consumer(&mut self) {
        let paced = self.sh.workload == Workload::Paced;
        let none_allowed = paced || self.sh.q.relaxed_empty();
        let (mut taken, mut visible) = (0u64, 0u64);
        loop {
            let ph = self.tick();
            if ph == STOP || (!paced && !self.wait_for_backlog(taken, &mut visible)) {
                return;
            }
            let measuring = ph == MEASURE;
            match self.poll(measuring && !paced) {
                Some(item) => {
                    if measuring {
                        self.out.window_ops += 1;
                        if paced {
                            // The producer stored its start before
                            // enqueueing, and the queue orders that store
                            // before this dequeue. A malformed item has no
                            // due time; the checker counts it.
                            let offset = self.sh.schedule.get((item & SEQ_MASK) as usize);
                            let due = offset.map_or(0, |o| self.sh.paced_start.load(Relaxed) + o);
                            self.sample_end(due);
                        }
                    }
                    taken += 1;
                    if taken.is_multiple_of(PUBLISH_EVERY) {
                        self.sh.consumed.store(taken, Relaxed);
                    }
                }
                None => {
                    if !none_allowed {
                        self.out.spurious += 1;
                    }
                    spin_loop();
                }
            }
        }
    }

    /// Register, and in `deep` fill this worker's half of the prefill, in
    /// turn. Returns the nanoseconds that took; the wait for the turn is
    /// not counted, so the two workers' set-up times add up.
    fn set_up(&mut self) -> u64 {
        let deep = self.sh.workload == Workload::Deep;
        while deep && self.sh.prefill_turn.load(Relaxed) != self.id {
            std::thread::yield_now();
        }
        let begin = now_ns();
        self.sh.q.register();
        if deep {
            let share = if self.id == 0 {
                self.sh.deep_depth / 2
            } else {
                self.sh.deep_depth - self.sh.deep_depth / 2
            };
            for _ in 0..share {
                if !self.put(false) {
                    break;
                }
            }
            // Prefill calls are set-up, not measured work.
            self.out.calls = 0;
            self.sh.prefill_turn.store(self.id + 1, Relaxed);
        }
        now_ns() - begin
    }

    fn run(mut self) -> WorkerOut {
        self.out.setup_ns = self.set_up();
        self.sh.ready.wait();
        self.out.latency.reserve(SAMPLE_CAP);
        if self.sh.workload == Workload::Paced && self.id == 0 {
            self.out.late.reserve(self.sh.schedule.len());
        }
        self.sh.go.wait();
        match (self.sh.workload, self.id) {
            (Workload::Pairs | Workload::Deep, _) => self.run_pairs(),
            (Workload::Stream, 0) => self.run_stream_producer(),
            (Workload::Paced, 0) => self.run_paced_producer(),
            _ => self.run_consumer(),
        }
        self.out.spans = self.tr.finish();
        self.out
    }
}

/// The `paced` due-time offsets (ns from the generator start) for a cell
/// of `protocol`: exponential gaps at [`PACED_RATE`], with 25 % slack.
pub fn paced_schedule(seed: u64, protocol: &Protocol) -> Vec<u64> {
    let span = (protocol.warmup + protocol.window).as_secs_f64();
    let n = (span * PACED_RATE * 1.25) as usize + 64;
    let mut rng = Rng::new(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -rng.unit().ln() / PACED_RATE * 1e9;
            t as u64
        })
        .collect()
}

/// Live heap bytes per item of a fresh queue after a single-threaded
/// prefill of `depth` items (capped by the protocol): construction plus
/// prefill, divided by the depth, and the number of refused enqueues. The
/// thread registers between the two armed spans, so its thread-local slot
/// cache is not counted. The result is deterministic, so a run probes each
/// queue once, outside every cell's set-up.
pub fn probe_bytes_per_item<Q: BenchQueue>(
    make: &dyn Fn() -> Q,
    depth: usize,
    protocol: &Protocol,
) -> (f64, u64) {
    let depth = depth.min(protocol.depth_cap);
    alloc::reset();
    alloc::arm();
    let q = make();
    alloc::disarm();
    q.register();
    alloc::arm();
    let mut failed = 0;
    for i in 0..depth as u64 {
        failed += q.enqueue(i).is_err() as u64;
    }
    alloc::disarm();
    let bytes = alloc::live_bytes() as f64 / depth as f64;
    drop(q);
    (bytes, failed)
}

/// Run one cell: `make` builds a fresh queue; `trace` records spans.
pub fn run_cell<Q: BenchQueue>(
    make: &dyn Fn() -> Q,
    depth: usize,
    workload: Workload,
    protocol: &Protocol,
    seed: u64,
    trace: bool,
    counters: bool,
) -> CellOut {
    let depth = depth.min(protocol.depth_cap);
    let schedule = if workload == Workload::Paced {
        paced_schedule(seed, protocol)
    } else {
        Vec::new()
    };

    let build_start = Instant::now();
    let q = make();
    let build = build_start.elapsed();
    let sh = Shared {
        q: &q,
        workload,
        phase: AtomicU8::new(WARM),
        ready: Barrier::new(WORKERS + 1),
        go: Barrier::new(WORKERS + 1),
        prefill_turn: AtomicUsize::new(0),
        deep_depth: depth,
        consumed: AtomicU64::new(0),
        produced: AtomicU64::new(0),
        paced_start: AtomicU64::new(0),
        schedule: &schedule,
        seed,
    };
    let mut out = CellOut::default();
    let (workers, window) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|id| {
                let sh = &sh;
                s.spawn(move || {
                    if trace {
                        Worker {
                            sh,
                            id,
                            seq: 0,
                            ticks: 0,
                            tr: Spans::new(),
                            out: WorkerOut::default(),
                        }
                        .run()
                    } else {
                        Worker {
                            sh,
                            id,
                            seq: 0,
                            ticks: 0,
                            tr: NoTrace,
                            out: WorkerOut::default(),
                        }
                        .run()
                    }
                })
            })
            .collect();
        sh.ready.wait();
        let before = counters.then(|| q.snapshot());
        sh.go.wait();
        std::thread::sleep(protocol.warmup);
        sh.phase.store(MEASURE, Relaxed);
        let t0 = Instant::now();
        std::thread::sleep(protocol.window);
        sh.phase.store(STOP, Relaxed);
        let window = t0.elapsed();
        let workers: Vec<WorkerOut> = handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect();
        if let Some(before) = before {
            out.counters = Some((before, q.snapshot()));
        }
        (workers, window)
    });

    // Drain what is left on the main thread; it is one more consumer.
    let mut drain = Checker::default();
    let mut attempted = 0u64;
    loop {
        attempted += 1;
        match q.dequeue() {
            Some(item) => drain.accept(item),
            None => break,
        }
    }
    drop(q);

    let mut failed = drain.bad;
    let mut latency = Vec::new();
    let mut late = Vec::new();
    let mut window_ops = 0;
    for w in &workers {
        failed += w.spurious + w.check.bad;
        attempted += w.calls;
        window_ops += w.window_ops;
        latency.extend_from_slice(&w.latency);
        late.extend_from_slice(&w.late);
        out.backlog_max = out.backlog_max.max(w.backlog_max);
    }
    for p in 0..WORKERS {
        let consumers = workers.iter().map(|w| &w.check).chain([&drain]);
        let (count, hash) = consumers.fold((0u64, 0u64), |(c, h), k| {
            (c + k.count[p], h.wrapping_add(k.hash[p]))
        });
        failed += count.abs_diff(workers[p].produced);
        if count == workers[p].produced && hash != workers[p].produced_hash {
            failed += 1;
        }
    }
    // Thread start and barrier wake-ups are the host's cost, not the
    // queue's, so set-up counts only the build and the workers' own work.
    out.setup_ns = build.as_nanos() as u64 + workers.iter().map(|w| w.setup_ns).sum::<u64>();
    out.calls = workers.iter().map(|w| w.calls).sum();
    out.attempted = attempted;
    out.failed = failed;
    out.mops = window_ops as f64 / window.as_secs_f64() / 1e6;
    out.latency_p50_ns = percentile(&mut latency, 0.5) as f64;
    out.late_p99_ns = percentile(&mut late, 0.99);
    out.spans = workers.into_iter().map(|w| w.spans).collect();
    out
}
