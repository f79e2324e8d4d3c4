//! SLO-gated soak run: production-shaped traffic against the Turn queue
//! variants, judged by the in-queue latency attribution instead of an
//! external timing harness. Writes a machine-readable
//! `results/BENCH_soak.json` artifact — schema `turnq-bench-soak/1` in
//! `docs/bench_format.md` — and exits non-zero when any SLO fails, so CI
//! can gate on it directly.
//!
//! Traffic shape (deliberately *not* the symmetric pairs protocol of the
//! throughput benches):
//!
//! * **Bursty arrivals** — producers enqueue in xorshift-sized bursts
//!   (1..=burst_max) separated by yield gaps, the on/off pattern that
//!   makes tails, not means, the interesting statistic.
//! * **Asymmetric ratio** — `--ratio=P:C` producers to consumers
//!   (default 3:2), so one side is persistently pressured.
//! * **Thread churn** — a churn lane spawns short-lived threads that do a
//!   handful of ops and exit, exercising registry slot claim/release and
//!   the helping machinery's view of a changing thread population.
//!
//! SLOs per variant (all evaluated from the post-quiescence snapshot):
//!
//! 1. `helping_depth_bound` — observed max helping depth ≤ threads − 1
//!    (the paper's overtaking bound, now a runtime gate).
//! 2. `pool_miss_rate` — node-pool misses / acquisitions ≤ 0.5, measured
//!    over a short symmetric probe window run after the role-split phase
//!    (trivially passes when the pool is disabled). Measured that way
//!    because recycling lands in the *retiring* thread's free list: under
//!    pure role split the producing side is structurally cold and a
//!    global miss ratio would read ≈ 1.0 no matter how healthy the pool
//!    is. The pool's contract is steady-state mixed traffic; the probe
//!    holds it to exactly that.
//! 3. `enq_p999_ns` / 4. `deq_p999_ns` — worst populated per-path p999
//!    under the latency budget (default 250 ms; soak machines are noisy,
//!    the budget catches stalls, not scheduler jitter).
//! 5. `stall_dumps` — the flight recorder never fired at that same
//!    threshold.
//! 6. `latency_conservation` — the variants with the watchdog armed time
//!    every op, so their per-path latency sample counts must exactly
//!    partition the op counters (the attribution itself is audited); the
//!    `bounded` variant has no watchdog and samples about 1 op in
//!    `LATENCY_SAMPLE_PERIOD`, so each op kind's sample count must lie in
//!    `[ops / (4 × period), ops]`. Each variant's JSON states its
//!    `latency_sample_period`.
//! 7. `observed_drift` (sharded variant only) — every item draws a global
//!    arrival ticket when its enqueue returns and every successful dequeue
//!    draws a stamp; the maximum |ticket − stamp| over the soak (items
//!    dequeued before their enqueue returned do not count, see
//!    `DriftMeter`) must stay within the queue's
//!    declared relaxation bound `k = lanes × lane_occupancy_bound`. A
//!    lane the sweep stopped visiting would grow the gap without bound,
//!    so this is the k-contract as a production gate (DESIGN.md §6e).
//!
//! Flags: `--duration-secs=N` (default 10), `--ratio=P:C` (default 3:2),
//! `--burst-max=N` (default 32), `--latency-budget-ms=N` (default 250),
//! `--variants=turn,turn_nofast,seg,sharded,bounded` (default all),
//! `--out=PATH`
//! (default `results/BENCH_soak.json`; `-` prints to stdout).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use turn_queue::{SegTurnQueue, TurnQueue};
use turnq_bounded::{BoundedBuilder, BoundedQueue, MAX_CAPACITY};
use turnq_harness::Args;
use turnq_sharded::{ShardedBuilder, ShardedTurnQueue};
use turnq_telemetry::{CounterId, OpKey, TelemetrySnapshot, LATENCY_SAMPLE_PERIOD};

/// The soak driver is generic over the queue variant through this minimal
/// facade (monomorphized per variant; no virtual dispatch inside the op
/// loops — the closure-per-thread pattern below keeps the hot path as a
/// direct call).
trait SoakQueue: Sync {
    fn enqueue(&self, v: u64);
    fn dequeue(&self) -> Option<u64>;
    fn snapshot(&self) -> TelemetrySnapshot;
    fn stall_reports(&self) -> Vec<String>;
}

impl SoakQueue for TurnQueue<u64> {
    fn enqueue(&self, v: u64) {
        TurnQueue::enqueue(self, v);
    }
    fn dequeue(&self) -> Option<u64> {
        TurnQueue::dequeue(self)
    }
    fn snapshot(&self) -> TelemetrySnapshot {
        self.telemetry_snapshot()
    }
    fn stall_reports(&self) -> Vec<String> {
        self.telemetry().take_stall_reports()
    }
}

impl SoakQueue for SegTurnQueue<u64> {
    fn enqueue(&self, v: u64) {
        SegTurnQueue::enqueue(self, v);
    }
    fn dequeue(&self) -> Option<u64> {
        SegTurnQueue::dequeue(self)
    }
    fn snapshot(&self) -> TelemetrySnapshot {
        self.telemetry_snapshot()
    }
    fn stall_reports(&self) -> Vec<String> {
        self.telemetry().take_stall_reports()
    }
}

impl SoakQueue for BoundedQueue<u64> {
    fn enqueue(&self, v: u64) {
        // The spinning adapter: backpressure (`Full`) throttles the
        // producers instead of growing a backlog — the bounded variant's
        // production shape.
        <BoundedQueue<u64> as turnq_api::ConcurrentQueue<u64>>::enqueue(self, v);
    }
    fn dequeue(&self) -> Option<u64> {
        self.try_dequeue()
    }
    fn snapshot(&self) -> TelemetrySnapshot {
        self.telemetry().snapshot()
    }
    fn stall_reports(&self) -> Vec<String> {
        Vec::new() // no stall watchdog: the ring has no unbounded waits
    }
}

impl SoakQueue for ShardedTurnQueue<u64> {
    fn enqueue(&self, v: u64) {
        ShardedTurnQueue::enqueue(self, v);
    }
    fn dequeue(&self) -> Option<u64> {
        ShardedTurnQueue::dequeue(self)
    }
    fn snapshot(&self) -> TelemetrySnapshot {
        self.telemetry_snapshot()
    }
    fn stall_reports(&self) -> Vec<String> {
        self.take_stall_reports()
    }
}

/// Arrival-ticket / departure-stamp pair behind the `observed_drift` SLO.
/// An item draws its arrival ticket when its enqueue *returns*, and a
/// successful dequeue draws a departure stamp; the running max of
/// |ticket − stamp| records how far delivery strayed from enqueue
/// completion order. An item that is dequeued before its enqueue returned
/// was concurrent with it and does not count. A producer preempted inside
/// its enqueue therefore reads as a late arrival, not as drift. On the
/// strict-FIFO variants the gap stays within the concurrency slack; on
/// the sharded variant it is gated by the declared relaxation bound `k`.
///
/// The ticket reaches the consumer through a slot table: an item's value
/// is the index of the slot it claimed, which holds `PENDING` until the
/// enqueue returns and the ticket after. While every slot is in use a
/// new item goes unmetered (it still draws a ticket and a stamp, so the
/// two orders stay aligned).
struct DriftMeter {
    claims: AtomicU64,
    tickets: AtomicU64,
    stamps: AtomicU64,
    max_drift: AtomicU64,
    slots: Box<[AtomicU64]>,
}

/// Slots of the meter: items queued at once that it can follow.
const DRIFT_SLOTS: u64 = 1 << 20;
/// The value of an item that found no free slot.
const UNMETERED: u64 = u64::MAX;
/// Slot states; a slot above `TAKEN` holds ticket `v - TICKET_BASE`.
const FREE: u64 = 0;
const PENDING: u64 = 1;
const TAKEN: u64 = 2;
const TICKET_BASE: u64 = 3;

impl DriftMeter {
    fn new() -> DriftMeter {
        DriftMeter {
            claims: AtomicU64::new(0),
            tickets: AtomicU64::new(0),
            stamps: AtomicU64::new(0),
            max_drift: AtomicU64::new(0),
            slots: (0..DRIFT_SLOTS).map(|_| AtomicU64::new(FREE)).collect(),
        }
    }

    /// The value for an item about to be enqueued.
    fn item(&self) -> u64 {
        let i = self.claims.fetch_add(1, Ordering::Relaxed) % DRIFT_SLOTS;
        let claimed = self.slots[i as usize]
            .compare_exchange(FREE, PENDING, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
        if claimed {
            i
        } else {
            UNMETERED
        }
    }

    /// `item`'s enqueue returned: it takes its place in arrival order.
    fn enqueued(&self, item: u64) {
        let t = self.tickets.fetch_add(1, Ordering::Relaxed);
        if item != UNMETERED {
            let slot = &self.slots[item as usize];
            if slot.swap(t + TICKET_BASE, Ordering::Relaxed) == TAKEN {
                // Already dequeued: concurrent with its enqueue, not drift.
                slot.store(FREE, Ordering::Relaxed);
            }
        }
    }

    /// `item` was dequeued.
    fn dequeued(&self, item: u64) {
        let s = self.stamps.fetch_add(1, Ordering::Relaxed);
        if item == UNMETERED {
            return;
        }
        let slot = &self.slots[item as usize];
        let state = slot.swap(TAKEN, Ordering::Relaxed);
        if state != PENDING {
            // Otherwise `enqueued` frees the slot when the enqueue returns.
            self.max_drift.fetch_max((state - TICKET_BASE).abs_diff(s), Ordering::Relaxed);
            slot.store(FREE, Ordering::Relaxed);
        }
    }

    fn max(&self) -> u64 {
        self.max_drift.load(Ordering::Relaxed)
    }
}

/// Soak configuration, fully resolved from the CLI.
struct Config {
    duration: Duration,
    producers: usize,
    consumers: usize,
    /// Concurrent short-lived churn lanes (each serially respawns threads).
    churn_lanes: usize,
    burst_max: u64,
    latency_budget_ns: u64,
    variants: Vec<String>,
    out: String,
}

impl Config {
    fn from_args(args: &Args) -> Config {
        let (p, c) = args.get_ratio("ratio").unwrap_or((3, 2));
        Config {
            duration: Duration::from_secs(
                args.get_usize("duration-secs").unwrap_or(10) as u64
            ),
            producers: p.max(1),
            consumers: c.max(1),
            churn_lanes: 1,
            burst_max: args.get_usize("burst-max").unwrap_or(32).max(1) as u64,
            latency_budget_ns: args.get_usize("latency-budget-ms").unwrap_or(250) as u64
                * 1_000_000,
            variants: args
                .get("variants")
                .unwrap_or("turn,turn_nofast,seg,sharded,bounded")
                .split(',')
                .map(|s| s.trim().to_string())
                .collect(),
            out: args
                .get("out")
                .unwrap_or("results/BENCH_soak.json")
                .to_string(),
        }
    }

    /// Registry slots: workers + churn lanes + main (warm-up and drain),
    /// plus one spare because a churned thread's slot release lands in a
    /// TLS destructor that can lag its join by a beat.
    fn max_threads(&self) -> usize {
        self.producers + self.consumers + self.churn_lanes + 2
    }
}

/// Tiny xorshift64* so burst shapes differ across threads without pulling
/// a rand dependency into the bin.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Drive production-shaped traffic at `queue` for the configured
/// duration; returns total ops (enq + deq attempts) for throughput.
fn soak<Q: SoakQueue>(queue: &Q, cfg: &Config, drift: &DriftMeter) -> u64 {
    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    std::thread::scope(|s| {
        for p in 0..cfg.producers {
            let (stop, ops) = (&stop, &ops);
            s.spawn(move || {
                let mut rng = 0x9e37_79b9_7f4a_7c15_u64 ^ (p as u64 + 1);
                while !stop.load(Ordering::Relaxed) {
                    // Burst on: 1..=burst_max back-to-back enqueues, each
                    // metered for arrival order (SLO 7).
                    let burst = xorshift(&mut rng) % cfg.burst_max + 1;
                    for _ in 0..burst {
                        let item = drift.item();
                        queue.enqueue(item);
                        drift.enqueued(item);
                    }
                    ops.fetch_add(burst, Ordering::Relaxed);
                    // Burst off: a short think-time gap.
                    for _ in 0..(xorshift(&mut rng) % 4) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for _ in 0..cfg.consumers {
            let (stop, ops) = (&stop, &ops);
            s.spawn(move || {
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match queue.dequeue() {
                        Some(v) => drift.dequeued(v),
                        None => std::thread::yield_now(),
                    }
                    local += 1;
                    if local.is_multiple_of(1024) {
                        ops.fetch_add(1024, Ordering::Relaxed);
                    }
                }
            });
        }
        for lane in 0..cfg.churn_lanes {
            let stop = &stop;
            s.spawn(move || {
                // Serially spawn short-lived threads: claim a slot, do a
                // few ops, exit (slot released by the TLS destructor).
                let mut rng = 0xdead_beef_cafe_f00d_u64 ^ (lane as u64);
                while !stop.load(Ordering::Relaxed) {
                    let n = xorshift(&mut rng) % 64 + 1;
                    std::thread::scope(|inner| {
                        inner.spawn(|| {
                            for i in 0..n {
                                if i % 2 == 0 {
                                    let item = drift.item();
                                    queue.enqueue(item);
                                    drift.enqueued(item);
                                } else if let Some(v) = queue.dequeue() {
                                    drift.dequeued(v);
                                }
                            }
                        });
                    });
                    // Give the TLS slot release a beat before reclaiming
                    // the lane with a fresh thread.
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
    });
    // Drain so the final snapshot obeys enq_ops == deq_ops and the queue
    // drops empty. Drained items are late deliveries, not reordering: they
    // still draw stamps so a backlogged-but-honest queue is not penalized.
    let mut drained = 0u64;
    while let Some(v) = queue.dequeue() {
        drift.dequeued(v);
        drained += 1;
    }
    ops.load(Ordering::Relaxed) + drained
}

/// Steady-state pool probe: every worker runs symmetric enqueue/dequeue
/// pairs against the already-hot queue, so each thread's own retires feed
/// the free list its next acquisitions draw from. The pool-miss SLO is
/// evaluated over this window (see the module docs for why the role-split
/// phase cannot measure it).
fn pool_probe<Q: SoakQueue>(queue: &Q, cfg: &Config) {
    const PAIRS: u64 = 20_000;
    std::thread::scope(|s| {
        for _ in 0..(cfg.producers + cfg.consumers) {
            s.spawn(|| {
                for i in 0..PAIRS {
                    queue.enqueue(i);
                    let _ = queue.dequeue();
                }
            });
        }
    });
    while queue.dequeue().is_some() {} // rebalance: pairs can interleave
}

/// Full per-variant drive: role-split soak, pre-probe snapshot, pool
/// probe, final snapshot. Latency/depth/stall SLOs read the final
/// snapshot (whole run); the pool SLO reads the probe-window delta; the
/// drift maximum is captured after the post-soak drain (the pool probe's
/// symmetric pairs do not carry tickets and never touch the meter).
fn drive<Q: SoakQueue>(
    queue: &Q,
    cfg: &Config,
) -> (TelemetrySnapshot, TelemetrySnapshot, u64, Vec<String>, u64) {
    let drift = DriftMeter::new();
    let ops = soak(queue, cfg, &drift);
    let observed_drift = drift.max();
    let pre_probe = queue.snapshot();
    pool_probe(queue, cfg);
    (
        pre_probe,
        queue.snapshot(),
        ops,
        queue.stall_reports(),
        observed_drift,
    )
}

/// One SLO verdict.
struct Slo {
    name: &'static str,
    value: f64,
    threshold: f64,
    /// `value <= threshold` for every SLO below (they are all ceilings).
    pass: bool,
}

fn slo(name: &'static str, value: f64, threshold: f64) -> Slo {
    Slo {
        name,
        value,
        threshold,
        pass: value <= threshold,
    }
}

/// Worst p999 across the populated paths of one op direction.
fn worst_p999(snap: &TelemetrySnapshot, keys: &[OpKey]) -> u64 {
    keys.iter()
        .map(|&k| snap.latency(k))
        .filter(|s| s.count() > 0)
        .filter_map(|s| s.quantile(0.999))
        .max()
        .unwrap_or(0)
}

fn evaluate_slos(
    snap: &TelemetrySnapshot,
    pre_probe: &TelemetrySnapshot,
    cfg: &Config,
    max_threads: usize,
    sample_period: u64,
    drift_gate: Option<(u64, usize)>,
) -> Vec<Slo> {
    const ENQ: [OpKey; 4] = [
        OpKey::EnqFast,
        OpKey::EnqSlow,
        OpKey::EnqHelped,
        OpKey::EnqSegCell,
    ];
    const DEQ: [OpKey; 4] = [
        OpKey::DeqFast,
        OpKey::DeqSlow,
        OpKey::DeqHelped,
        OpKey::DeqSegCell,
    ];
    let depth = snap.helping_depth_max().map_or(0.0, |d| d as f64);
    // Probe-window deltas (see the module docs' rationale for SLO 2).
    let probe_miss = snap.get("pool_miss") - pre_probe.get("pool_miss");
    let probe_acq = snap.get("pool_hit") - pre_probe.get("pool_hit") + probe_miss;
    let miss_rate = if probe_acq == 0 {
        0.0
    } else {
        probe_miss as f64 / probe_acq as f64
    };
    // How far an op kind's sample count lies outside what its sampling
    // allows: exactly `ops` when every op is timed, else [ops/(4p), ops].
    let conservation_drift = |keys: &[OpKey], ops: u64| {
        let samples: u64 = keys.iter().map(|&k| snap.latency(k).count()).sum();
        let floor = if sample_period == 1 {
            ops
        } else {
            ops / (4 * sample_period)
        };
        floor.saturating_sub(samples) + samples.saturating_sub(ops)
    };
    let enq_drift = conservation_drift(&ENQ, snap.counter(CounterId::EnqOps));
    let deq_drift = conservation_drift(
        &DEQ,
        snap.counter(CounterId::DeqOps) + snap.counter(CounterId::DeqEmpty),
    );
    let mut slos = vec![
        slo("helping_depth_bound", depth, (max_threads - 1) as f64),
        slo("pool_miss_rate", miss_rate, 0.5),
        slo(
            "enq_p999_ns",
            worst_p999(snap, &ENQ) as f64,
            cfg.latency_budget_ns as f64,
        ),
        slo(
            "deq_p999_ns",
            worst_p999(snap, &DEQ) as f64,
            cfg.latency_budget_ns as f64,
        ),
        slo(
            "stall_dumps",
            snap.counter(CounterId::StallDump) as f64,
            0.0,
        ),
        slo(
            "latency_conservation_drift",
            (enq_drift + deq_drift) as f64,
            0.0,
        ),
    ];
    // SLO 7, k-relaxed variants only: the observed ticket/stamp gap must
    // stay within the queue's declared relaxation bound.
    if let Some((observed, k)) = drift_gate {
        slos.push(slo("observed_drift", observed as f64, k as f64));
    }
    slos
}

/// Per-variant JSON fragment: op counters, per-path latency quantiles,
/// SLO verdicts.
fn variant_json(
    name: &str,
    ops_per_sec: u64,
    sample_period: u64,
    snap: &TelemetrySnapshot,
    slos: &[Slo],
    stall_reports: &[String],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "    {{\"name\": \"{name}\", \"ops_per_sec\": {ops_per_sec}, \
         \"enq_ops\": {}, \"deq_ops\": {}, \"deq_empty\": {}, \
         \"stall_reports\": {}, \"latency_sample_period\": {sample_period},\n      \
         \"latency_ns\": {{",
        snap.counter(CounterId::EnqOps),
        snap.counter(CounterId::DeqOps),
        snap.counter(CounterId::DeqEmpty),
        stall_reports.len(),
    );
    let mut first = true;
    for (key, series) in snap.latency_series() {
        if series.count() == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{}\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \
             \"p9999\": {}, \"max\": {}}}",
            key.name(),
            series.count(),
            series.quantile(0.5).unwrap_or(0),
            series.quantile(0.99).unwrap_or(0),
            series.quantile(0.999).unwrap_or(0),
            series.quantile(0.9999).unwrap_or(0),
            series.max(),
        );
    }
    out.push_str("},\n      \"slos\": [");
    for (i, s) in slos.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"value\": {}, \"threshold\": {}, \"pass\": {}}}",
            s.name, s.value, s.threshold, s.pass
        );
    }
    let _ = write!(
        out,
        "],\n      \"pass\": {}}}",
        slos.iter().all(|s| s.pass)
    );
    out
}

fn run_variant(name: &str, cfg: &Config) -> Option<String> {
    let max_threads = cfg.max_threads();
    // The stall watchdog runs armed at the same budget the SLO checks, so
    // a breach leaves a flight-recorder dump alongside the failed gate.
    // Armed, it times every op (latency sample period 1).
    let builder = TurnQueue::<u64>::builder()
        .max_threads(max_threads)
        .stall_threshold_ns(cfg.latency_budget_ns);
    eprintln!(
        "soak: {name} ({}s, {}p:{}c, burst<= {}) ...",
        cfg.duration.as_secs(),
        cfg.producers,
        cfg.consumers,
        cfg.burst_max
    );
    let started = Instant::now();
    // `Some(k)` marks a k-relaxed variant: its observed ticket/stamp drift
    // is gated by SLO 7 at its own declared bound. Strict-FIFO variants
    // still meter drift (the metered items are the workload either way)
    // but are not gated on it.
    let mut relaxation_k = None;
    let mut sample_period = 1;
    let (pre_probe, snap, ops, reports, observed_drift) = match name {
        "turn" => drive(&builder.build::<u64>(), cfg),
        "turn_nofast" => drive(&builder.fast_tries(0).build::<u64>(), cfg),
        "seg" => drive(&builder.build_seg::<u64>(), cfg),
        "bounded" => {
            // Max ring capacity: the soak's burst backlog regularly
            // exceeds it, so the variant exercises real backpressure
            // (producers spin on `Full`) — strict FIFO, not drift-gated.
            let q: BoundedQueue<u64> = BoundedBuilder::new()
                .capacity(MAX_CAPACITY)
                .max_threads(max_threads)
                .build();
            sample_period = LATENCY_SAMPLE_PERIOD;
            drive(&q, cfg)
        }
        "sharded" => {
            // Generous per-lane bound: the gate is for catastrophic lane
            // starvation (a lane the sweep stopped visiting), not for the
            // backlog wobble of a healthy run.
            let q: ShardedTurnQueue<u64> = ShardedBuilder::new()
                .lanes(4)
                .max_threads(max_threads)
                .lane_occupancy_bound(1 << 16)
                .stall_threshold_ns(cfg.latency_budget_ns)
                .build();
            relaxation_k = Some(q.relaxation_k());
            drive(&q, cfg)
        }
        other => {
            eprintln!("soak: unknown variant '{other}' (skipped)");
            return None;
        }
    };
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let ops_per_sec = (ops as f64 / elapsed) as u64;
    let slos = if turnq_telemetry::ENABLED {
        evaluate_slos(
            &snap,
            &pre_probe,
            cfg,
            max_threads,
            sample_period,
            relaxation_k.map(|k| (observed_drift, k)),
        )
    } else {
        Vec::new() // nothing measurable to gate on
    };
    for s in &slos {
        eprintln!(
            "  slo {:<26} {:>14.2} <= {:>14.2}  {}",
            s.name,
            s.value,
            s.threshold,
            if s.pass { "pass" } else { "FAIL" }
        );
    }
    for r in &reports {
        eprintln!("  stall report: {r}");
    }
    Some(variant_json(
        name,
        ops_per_sec,
        sample_period,
        &snap,
        &slos,
        &reports,
    ))
}

fn main() {
    let args = Args::from_env();
    let cfg = Config::from_args(&args);
    println!(
        "Soak: SLO-gated burst/churn traffic ({}s, ratio {}:{}, {} variant(s))",
        cfg.duration.as_secs(),
        cfg.producers,
        cfg.consumers,
        cfg.variants.len()
    );
    if !turnq_telemetry::ENABLED {
        println!("(telemetry feature OFF — SLOs cannot be evaluated; run records throughput only)\n");
    }

    let fragments: Vec<String> = cfg
        .variants
        .iter()
        .filter_map(|v| run_variant(v, &cfg))
        .collect();
    assert!(!fragments.is_empty(), "no known variants selected");

    let all_pass = !fragments.iter().any(|f| f.ends_with("\"pass\": false}"));
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"turnq-bench-soak/1\",");
    json.push_str(&turnq_bench::hardware_json_lines());
    let _ = writeln!(
        json,
        "  \"telemetry_enabled\": {},",
        turnq_telemetry::ENABLED
    );
    let _ = writeln!(
        json,
        "  \"config\": {{\"duration_secs\": {}, \"producers\": {}, \"consumers\": {}, \
         \"churn_lanes\": {}, \"max_threads\": {}, \"burst_max\": {}, \
         \"latency_budget_ns\": {}}},",
        cfg.duration.as_secs(),
        cfg.producers,
        cfg.consumers,
        cfg.churn_lanes,
        cfg.max_threads(),
        cfg.burst_max,
        cfg.latency_budget_ns
    );
    json.push_str("  \"variants\": [\n");
    json.push_str(&fragments.join(",\n"));
    json.push_str("\n  ],\n");
    let _ = writeln!(json, "  \"pass\": {all_pass}");
    json.push_str("}\n");

    if cfg.out == "-" {
        print!("{json}");
    } else {
        if let Some(dir) = std::path::Path::new(&cfg.out).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&cfg.out, &json).expect("write soak artifact");
        println!("wrote {}", cfg.out);
    }
    if turnq_telemetry::ENABLED && !all_pass {
        eprintln!("soak: SLO FAILURE — see artifact");
        std::process::exit(1);
    }
    println!("soak: all SLOs passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(queue: &TurnQueue<u64>, drift: &DriftMeter) {
        let item = drift.item();
        queue.enqueue(item);
        drift.enqueued(item);
    }

    /// A producer paused between taking its item and enqueueing it, while
    /// 1,000 later items pass through a strict-FIFO queue, arrives late;
    /// that is not drift.
    #[test]
    fn a_producer_paused_before_its_enqueue_is_not_drift() {
        let (queue, drift) = (TurnQueue::new(), DriftMeter::new());
        let late = drift.item();
        for _ in 0..1000 {
            push(&queue, &drift);
            drift.dequeued(queue.dequeue().unwrap());
        }
        queue.enqueue(late);
        drift.enqueued(late);
        drift.dequeued(queue.dequeue().unwrap());
        assert_eq!(drift.max(), 0);
    }

    /// An item dequeued before its enqueue returned was concurrent with
    /// it: it does not count, and its slot is freed for reuse.
    #[test]
    fn an_item_dequeued_before_its_enqueue_returned_does_not_count() {
        let (queue, drift) = (TurnQueue::new(), DriftMeter::new());
        let early = drift.item();
        queue.enqueue(early);
        for _ in 0..1000 {
            push(&queue, &drift);
        }
        drift.dequeued(queue.dequeue().unwrap());
        drift.enqueued(early);
        assert_eq!(drift.slots[early as usize].load(Ordering::Relaxed), FREE);
        while let Some(v) = queue.dequeue() {
            drift.dequeued(v);
        }
        assert!(drift.max() <= 1, "{}", drift.max());
    }

    /// Delivery out of completion order is drift: the first of 1,000
    /// items delivered last strays 999 places.
    #[test]
    fn reordered_delivery_is_drift() {
        let drift = DriftMeter::new();
        let items: Vec<u64> = (0..1000)
            .map(|_| {
                let item = drift.item();
                drift.enqueued(item);
                item
            })
            .collect();
        for &item in items.iter().rev() {
            drift.dequeued(item);
        }
        assert_eq!(drift.max(), 999);
    }
}
