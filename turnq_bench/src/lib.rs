//! `turnq_bench`: one driver for the Turn-queue workspace's performance
//! claims.
//!
//! Four workloads (`pairs`, `deep`, `stream`, `paced`) run against the
//! four user-facing queues (`turn`, `seg`, `bounded`, `sharded`), each
//! built through its library default `QueueFamily::with_max_threads`. A
//! run measures repetitions rep-major (every queue once, then the next
//! repetition), checks every delivered item, and reports each metric's
//! median over repetitions. The traced run (`--trace 1`) reports the
//! per-layer metrics instead: spans around every queue call, telemetry
//! counters at cell boundaries, and a single-threaded cost ladder. See
//! `BENCHMARK.md` for the catalogue and the reasons behind each choice.

pub mod alloc;
pub mod cell;
pub mod clock;
pub mod compare;
pub mod json;
pub mod ladder;
pub mod queues;
pub mod report;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

use turnq_api::TelemetrySnapshot;

use cell::{mix, probe_bytes_per_item, run_cell, CellOut, WORKERS};
pub use cell::{Protocol, Workload};
pub use queues::{BenchQueue, QueueKind};
pub use report::{Fingerprint, Metric, Report};
use stats::ratio;

/// Repetitions per cell in a measured run.
pub const REPS: usize = 5;
/// `max_threads` of every queue: two workers, the main thread, and one
/// spare slot for a registry release that lags a thread's exit.
pub const MAX_THREADS: usize = 4;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds of measured windows in the whole run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the measured one.
    pub trace: bool,
    /// Repetitions per cell.
    pub reps: usize,
    /// Per-cell protocol.
    pub protocol: Protocol,
    /// Time given to the cost ladder in a traced run.
    pub ladder: Duration,
    /// Where a traced run writes its spans, if anywhere.
    pub spans_dir: Option<PathBuf>,
}

impl Config {
    /// The standard run: `seconds` of windows split evenly over
    /// [`REPS`] repetitions of every queue (a traced run splits them over
    /// one untraced and one traced cell per queue, then the ladder).
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        let cells = QueueKind::ALL.len();
        let reps = if trace { 1 } else { REPS };
        let ladder = Duration::from_secs_f64(if trace { seconds * 0.05 } else { 0.0 });
        let windows = if trace { 2 * cells } else { reps * cells };
        let window = Duration::from_secs_f64((seconds - ladder.as_secs_f64()) / windows as f64);
        Config {
            workload,
            seed,
            seconds,
            trace,
            reps,
            protocol: Protocol {
                warmup: Duration::from_millis(50),
                window,
                depth_cap: usize::MAX,
            },
            ladder,
            spans_dir: None,
        }
    }

    /// A quick run: 50 ms windows, one repetition, shallow prefills.
    pub fn smoke(workload: Workload, seed: u64, trace: bool) -> Config {
        let mut c = Config::new(workload, seed, 0.05, trace);
        c.reps = 1;
        c.protocol.warmup = Duration::from_millis(10);
        c.protocol.window = Duration::from_millis(50);
        c.protocol.depth_cap = 4096;
        c.ladder = Duration::from_millis(60);
        c
    }

    /// The conditions this run measures under.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            git_rev: report::git_rev(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: report::cpu_model(),
            telemetry: turnq_telemetry::ENABLED,
            seg_size: turn_queue::DEFAULT_SEG_SIZE,
            fast_tries: turn_queue::DEFAULT_FAST_TRIES,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            workers: WORKERS,
            max_threads: MAX_THREADS,
            seconds: self.seconds,
            reps: self.reps,
        }
    }
}

/// Run one cell of queue `kind`.
fn cell(kind: QueueKind, cfg: &Config, seed: u64, trace: bool, counters: bool) -> CellOut {
    let (w, p, d) = (cfg.workload, &cfg.protocol, kind.deep_depth());
    match kind {
        QueueKind::Turn => run_cell(&queues::turn, d, w, p, seed, trace, counters),
        QueueKind::Seg => run_cell(&queues::seg, d, w, p, seed, trace, counters),
        QueueKind::Bounded => run_cell(&queues::bounded, d, w, p, seed, trace, counters),
        QueueKind::Sharded => run_cell(&queues::sharded, d, w, p, seed, trace, counters),
    }
}

/// Live heap bytes per item of queue `kind` filled to its deep depth,
/// and the enqueues it refused.
fn footprint(kind: QueueKind, cfg: &Config) -> (f64, u64) {
    let (d, p) = (kind.deep_depth(), &cfg.protocol);
    match kind {
        QueueKind::Turn => probe_bytes_per_item(&queues::turn, d, p),
        QueueKind::Seg => probe_bytes_per_item(&queues::seg, d, p),
        QueueKind::Bounded => probe_bytes_per_item(&queues::bounded, d, p),
        QueueKind::Sharded => probe_bytes_per_item(&queues::sharded, d, p),
    }
}

/// The seed of one cell, derived from the run's seed.
fn cell_seed(cfg: &Config, kind: QueueKind, rep: usize) -> u64 {
    mix(mix(mix(cfg.seed) ^ cfg.workload as u64) ^ kind as u64) ^ rep as u64
}

/// Collects metrics in output order.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: String, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.values.push(value),
            None => self.0.push(Metric {
                name,
                unit,
                values: vec![value],
            }),
        }
    }
}

/// Run the configured invocation.
pub fn run(cfg: &Config) -> Report {
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    if cfg.trace {
        traced(cfg, &mut m, &mut attempted, &mut failed);
    } else {
        let bytes_per_item = QueueKind::ALL.map(|kind| {
            let (bytes, refused) = footprint(kind, cfg);
            attempted += kind.deep_depth().min(cfg.protocol.depth_cap) as u64;
            failed += refused;
            bytes
        });
        for rep in 0..cfg.reps {
            let mut setup_ns = 0;
            for (kind, bytes) in QueueKind::ALL.into_iter().zip(bytes_per_item) {
                let out = cell(kind, cfg, cell_seed(cfg, kind, rep), false, false);
                let q = kind.name();
                m.push(format!("{q}.mops"), "Mops/s", out.mops);
                m.push(format!("{q}.latency_p50_ns"), "ns", out.latency_p50_ns);
                m.push(format!("{q}.bytes_per_item"), "B/item", bytes);
                setup_ns += out.setup_ns;
                attempted += out.attempted;
                failed += out.failed;
            }
            m.push("setup_s".to_string(), "s", setup_ns as f64 / 1e9);
        }
    }
    Report {
        workload: cfg.workload.name(),
        seed: cfg.seed,
        trace: cfg.trace,
        fingerprint: cfg.fingerprint(),
        attempted,
        failed,
        metrics: m.0,
    }
}

/// Counter growth between two snapshots.
fn delta(counters: &Option<(TelemetrySnapshot, TelemetrySnapshot)>, name: &str) -> u64 {
    counters
        .as_ref()
        .map_or(0, |(a, b)| b.get(name).saturating_sub(a.get(name)))
}

/// The traced run: per queue an untraced cell (telemetry counters, and the
/// reference for the tracing overhead) and a traced cell (spans), then the
/// cost ladder.
fn traced(cfg: &Config, m: &mut Metrics, attempted: &mut u64, failed: &mut u64) {
    let (mut self_share, mut late_p99, mut backlog_max) = (0.0, 0u64, 0u64);
    let paced = cfg.workload == Workload::Paced;
    for kind in QueueKind::ALL {
        let seed = cell_seed(cfg, kind, 0);
        let plain = cell(kind, cfg, seed, false, true);
        let traced = cell(kind, cfg, seed, true, false);
        *attempted += plain.attempted + traced.attempted;
        *failed += plain.failed + traced.failed;
        late_p99 = late_p99.max(plain.late_p99_ns);
        backlog_max = backlog_max.max(plain.backlog_max);
        if let Some(dir) = &cfg.spans_dir {
            let path = dir.join(format!("{}-{}.csv", cfg.workload.name(), kind.name()));
            if let Err(e) = trace::write_spans(&path, &traced.spans) {
                eprintln!("could not write spans to {}: {e}", path.display());
            }
        }
        let s = trace::span_stats(&traced.spans);
        self_share += s.self_share / QueueKind::ALL.len() as f64;

        let q = kind.name();
        // Overhead on the workload's own end-to-end metric: throughput in
        // the closed loops, the median sojourn under the paced load.
        let overhead = if paced {
            ratio(traced.latency_p50_ns as u64, plain.latency_p50_ns as u64) - 1.0
        } else {
            plain.mops / traced.mops.max(1e-12) - 1.0
        };
        m.push(format!("{q}.trace_overhead"), "ratio", overhead);
        m.push(format!("{q}.enq_ns_p50"), "ns", s.enq_p50 as f64);
        m.push(format!("{q}.enq_ns_p99"), "ns", s.enq_p99 as f64);
        m.push(format!("{q}.deq_ns_p50"), "ns", s.deq_p50 as f64);
        m.push(format!("{q}.deq_ns_p99"), "ns", s.deq_p99 as f64);
        m.push(format!("{q}.deq_useful_ratio"), "ratio", s.deq_useful_ratio);
        m.push(format!("{q}.sojourn_p99_ns"), "ns", s.sojourn_p99 as f64);
        m.push(format!("{q}.sojourn_p999_ns"), "ns", s.sojourn_p999 as f64);
        m.push(
            format!("{q}.sojourn_samples"),
            "count",
            s.sojourn_samples as f64,
        );

        let c = &plain.counters;
        let d = |name: &str| delta(c, name);
        let per_op = |name: &str| ratio(d(name), plain.calls);
        if kind != QueueKind::Bounded {
            m.push(
                format!("{q}.hp_protect_per_op"),
                "1/op",
                per_op("hp_protect"),
            );
            m.push(format!("{q}.hp_scan_per_op"), "1/op", per_op("hp_scan"));
            m.push(
                format!("{q}.hp_reclaim_per_op"),
                "1/op",
                per_op("hp_reclaim"),
            );
            m.push(
                format!("{q}.pool_hit_ratio"),
                "ratio",
                ratio(d("pool_hit"), d("pool_hit") + d("pool_miss")),
            );
            m.push(format!("{q}.pool_miss_per_op"), "1/op", per_op("pool_miss"));
        }
        match kind {
            QueueKind::Turn => {
                let fast = d("fast_enq_hit") + d("fast_deq_hit");
                m.push(
                    "turn.fast_hit_ratio".into(),
                    "ratio",
                    ratio(fast, plain.calls),
                );
                m.push(
                    "turn.help_per_op".into(),
                    "1/op",
                    ratio(d("help_enqueue") + d("help_dequeue"), plain.calls),
                );
                let depth = c
                    .as_ref()
                    .and_then(|(_, b)| b.helping_depth_max())
                    .unwrap_or(0);
                m.push("turn.helping_depth_max".into(), "depth", depth as f64);
            }
            QueueKind::Seg => {
                let cells = d("seg_enq_cell_hit") + d("seg_deq_cell_hit");
                m.push(
                    "seg.cell_hit_ratio".into(),
                    "ratio",
                    ratio(cells, d("enq_ops") + d("deq_ops")),
                );
                m.push("seg.append_per_op".into(), "1/op", per_op("seg_enq_append"));
                m.push(
                    "seg.enq_retry_per_op".into(),
                    "1/op",
                    per_op("seg_enq_retry"),
                );
                m.push(
                    "seg.poison_per_op".into(),
                    "1/op",
                    per_op("seg_cell_poison"),
                );
            }
            QueueKind::Bounded => {
                let fast = d("bq_enq_fast") + d("bq_deq_fast");
                let slow = d("bq_enq_slow") + d("bq_deq_slow");
                m.push(
                    "bounded.slow_share".into(),
                    "ratio",
                    ratio(slow, fast + slow),
                );
                m.push(
                    "bounded.full_per_enq".into(),
                    "ratio",
                    ratio(d("bq_full"), d("enq_ops") + d("bq_full")),
                );
                m.push(
                    "bounded.empty_per_deq".into(),
                    "ratio",
                    ratio(d("bq_empty"), d("deq_ops") + d("bq_empty")),
                );
                m.push(
                    "bounded.idx_cache_ratio".into(),
                    "ratio",
                    ratio(d("bq_idx_cache"), d("enq_ops")),
                );
                m.push(
                    "bounded.ticket_burn_per_op".into(),
                    "1/op",
                    per_op("bq_ticket_burn"),
                );
                m.push(
                    "bounded.help_rounds_per_op".into(),
                    "1/op",
                    per_op("bq_help_round"),
                );
            }
            QueueKind::Sharded => {
                let (hit, steal, empty) = (
                    d("shard_deq_hit"),
                    d("shard_deq_steal"),
                    d("shard_sweep_empty"),
                );
                let enq = d("shard_enq_home") + d("shard_enq_spill");
                m.push(
                    "sharded.home_enq_share".into(),
                    "ratio",
                    ratio(d("shard_enq_home"), enq),
                );
                m.push(
                    "sharded.steal_share".into(),
                    "ratio",
                    ratio(steal, hit + steal),
                );
                m.push(
                    "sharded.sweep_empty_per_deq".into(),
                    "ratio",
                    ratio(empty, hit + steal + empty),
                );
            }
        }
    }
    m.push("driver.self_share".into(), "ratio", self_share);
    m.push("driver.gen_late_p99_ns".into(), "ns", late_p99 as f64);
    m.push("driver.backlog_max".into(), "items", backlog_max as f64);

    let l = ladder::run(cfg.ladder);
    for (name, v) in [
        ("threadreg.lookup_ns", l.lookup_ns),
        ("threadreg.claim_release_ns", l.claim_release_ns),
        ("telemetry.probe_ns", l.probe_ns),
        ("hazard.protect_clear_ns", l.protect_clear_ns),
        ("hazard.retire_ns", l.retire_ns),
        ("ladder.faa_floor_ns", l.faa_floor_ns),
        ("ladder.bounded_ns", l.bounded_ns),
        ("ladder.seg_cell_ns", l.seg_cell_ns),
        ("ladder.turn_fast_ns", l.turn_fast_ns),
        ("ladder.turn_tls_ns", l.turn_tls_ns),
        ("ladder.turn_slow_ns", l.turn_slow_ns),
        ("ladder.sharded_ns", l.sharded_ns),
    ] {
        m.push(name.into(), "ns", v);
    }
    m.push("ladder.explained_share".into(), "ratio", l.explained_share);
}
