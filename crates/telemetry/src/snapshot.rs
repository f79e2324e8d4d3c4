//! Point-in-time aggregation and export.
//!
//! A [`TelemetrySnapshot`] is plain owned data — no atomics — produced by
//! [`TelemetrySheet::snapshot`](crate::TelemetrySheet::snapshot) and then
//! enriched by the owning queue with derived counters (node-pool stats)
//! and gauges (retired backlog, live registrations). It exports to
//! Prometheus text exposition format and to JSON; both are hand-rolled
//! because the workspace builds offline with no serialization crates.

use std::fmt::Write as _;

use crate::counters::CounterId;
use crate::latency::{
    bucket_count, bucket_high, bucket_index, bucket_low, OpKey, SHEET_SUB_BUCKET_BITS,
};

/// Counter names that exist only at snapshot level (folded in from the
/// node pool's own exact per-slot stats rather than double-counted on the
/// hot path).
pub const EXTRA_COUNTER_NAMES: &[&str] = &["pool_hit", "pool_miss", "pool_recycled", "pool_overflow"];

/// Gauge names a queue may fold into its snapshot. Gauges are
/// point-in-time levels, not monotone totals.
pub const GAUGE_NAMES: &[&str] = &[
    "pool_pooled_now",
    "hp_retired_backlog",
    "chp_retired_backlog",
    "registry_registered",
    "queue_size",
    "bq_capacity",
    "bq_len_hint",
];

/// Lane-indexed gauge families (one value per queue lane, exported with a
/// `lane="i"` label). Only the sharded front-end records these; every
/// other queue leaves them absent.
pub const LANE_GAUGE_NAMES: &[&str] = &["shard_lane_occupancy"];

/// Histogram metric names (exported in cumulative Prometheus form:
/// `_bucket{le=...}`/`_sum`/`_count`; `op_latency_ns` additionally
/// carries `op`/`path` labels per series).
pub const HISTOGRAM_NAMES: &[&str] = &["helping_depth", "op_latency_ns"];

/// Every exported metric name, fully prefixed, for the `docs/metrics.md`
/// lint: counters as `turnq_<name>_total`, gauges as `turnq_<name>`,
/// histograms as `turnq_<name>`.
pub fn all_metric_names() -> Vec<String> {
    let mut out: Vec<String> = CounterId::ALL
        .iter()
        .map(|c| format!("turnq_{}_total", c.name()))
        .collect();
    out.extend(EXTRA_COUNTER_NAMES.iter().map(|n| format!("turnq_{n}_total")));
    out.extend(GAUGE_NAMES.iter().map(|n| format!("turnq_{n}")));
    out.extend(LANE_GAUGE_NAMES.iter().map(|n| format!("turnq_{n}")));
    out.extend(HISTOGRAM_NAMES.iter().map(|n| format!("turnq_{n}")));
    out
}

/// One latency distribution: log-linear buckets (the shared
/// [`bucket_index`] math) at a resolution fixed at construction, plus the
/// exact count, sum, minimum and maximum.
///
/// A snapshot holds one per operation × path class at the sheet
/// resolution ([`SHEET_SUB_BUCKET_BITS`]); the harness's §4.1 burst
/// procedure records into finer ones. Recording is one bucket increment
/// plus the four stats. The buckets are a dense array allocated by the
/// first sample, so an empty series owns no heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySeries {
    sub_bucket_bits: u32,
    count: u64,
    sum: u64,
    max: u64,
    /// `u64::MAX` while empty (first sample always wins).
    min: u64,
    /// Per-bucket counts indexed by [`bucket_index`]; empty until the
    /// first sample.
    buckets: Vec<u64>,
}

impl LatencySeries {
    /// An empty series with `2^sub_bucket_bits` linear sub-buckets per
    /// power-of-two range: a quantile under-reports by at most
    /// `2^-sub_bucket_bits` of its value.
    ///
    /// # Panics
    ///
    /// Panics unless `sub_bucket_bits` is in `1..=16`.
    pub fn new(sub_bucket_bits: u32) -> Self {
        let _ = bucket_count(sub_bucket_bits); // panics outside 1..=16
        LatencySeries {
            sub_bucket_bits,
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
            buckets: Vec::new(),
        }
    }

    /// Record one sample (nanoseconds).
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.add_bucket(bucket_index(self.sub_bucket_bits, nanos), 1);
        self.add_stats(1, nanos, nanos, nanos);
    }

    /// Fold `other` into `self`: the result equals one series that
    /// recorded both sample sets.
    ///
    /// # Panics
    ///
    /// Panics if the two series differ in resolution.
    pub fn merge(&mut self, other: &LatencySeries) {
        assert_eq!(
            self.sub_bucket_bits, other.sub_bucket_bits,
            "cannot merge latency series of different resolution"
        );
        self.add_stats(other.count, other.sum, other.max, other.min);
        if self.buckets.is_empty() {
            self.buckets.clone_from(&other.buckets);
        } else {
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (nanoseconds, saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank quantile, the same rank rule as an exact sort of the
    /// samples, reported as the lower bound of the bucket containing that
    /// rank clamped to the exact `[min, max]`: it never over-reports, and
    /// `q = 0` and `q = 1` are the exact extremes. `None` when the series
    /// is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            // p = 100 is the exact tracked maximum, not a bucket low.
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (idx, n) in self.nonzero_buckets() {
            seen += n;
            if seen >= rank {
                return Some(bucket_low(self.sub_bucket_bits, idx).clamp(self.min(), self.max));
            }
        }
        Some(self.max)
    }

    /// `(flat index, count)` of every nonzero bucket, ascending.
    fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|&(_, &n)| n > 0).map(|(i, &n)| (i, n))
    }

    fn add_bucket(&mut self, idx: usize, n: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; bucket_count(self.sub_bucket_bits)];
        }
        self.buckets[idx] += n;
    }

    fn add_stats(&mut self, count: u64, sum: u64, max: u64, min: u64) {
        self.count += count;
        self.sum = self.sum.saturating_add(sum);
        self.max = self.max.max(max);
        self.min = self.min.min(min);
    }
}

/// An aggregated, owned view of one sheet (plus whatever derived metrics
/// the owner folded in). Always available — with the `probe` feature off
/// every value is zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Monotone counters: `(name, total)`, one row per known counter.
    counters: Vec<(&'static str, u64)>,
    /// Point-in-time gauges folded in by the owner.
    gauges: Vec<(&'static str, u64)>,
    /// Lane-indexed gauges: `(family, lane, value)` rows, ascending by
    /// `(family, lane)`. Empty for every non-sharded queue.
    lane_gauges: Vec<(&'static str, usize, u64)>,
    /// Helping-depth histogram; bucket `d` counts operations completed at
    /// observed depth `d`.
    helping_depth: Vec<u64>,
    /// Per-path latency series, indexed by `OpKey as usize`.
    latency: Vec<LatencySeries>,
}

impl TelemetrySnapshot {
    /// All-zero snapshot with `depth_buckets` histogram buckets.
    pub fn empty(depth_buckets: usize) -> Self {
        TelemetrySnapshot {
            counters: CounterId::ALL.iter().map(|c| (c.name(), 0)).collect(),
            gauges: Vec::new(),
            lane_gauges: Vec::new(),
            helping_depth: vec![0; depth_buckets],
            latency: OpKey::ALL
                .iter()
                .map(|_| LatencySeries::new(SHEET_SUB_BUCKET_BITS))
                .collect(),
        }
    }

    /// Add `n` to the counter `name`, appending the row if new.
    ///
    /// `name` must be a [`CounterId`] name or one of
    /// [`EXTRA_COUNTER_NAMES`] (debug-asserted, so the metrics catalogue
    /// stays the single source of truth).
    pub fn add_counter(&mut self, name: &'static str, n: u64) {
        debug_assert!(
            CounterId::ALL.iter().any(|c| c.name() == name)
                || EXTRA_COUNTER_NAMES.contains(&name),
            "unknown counter {name:?} — add it to counters.rs or EXTRA_COUNTER_NAMES"
        );
        if let Some(row) = self.counters.iter_mut().find(|(k, _)| *k == name) {
            row.1 += n;
        } else {
            self.counters.push((name, n));
        }
    }

    /// Set gauge `name` to `v` (must be listed in [`GAUGE_NAMES`]).
    pub fn set_gauge(&mut self, name: &'static str, v: u64) {
        debug_assert!(
            GAUGE_NAMES.contains(&name),
            "unknown gauge {name:?} — add it to GAUGE_NAMES"
        );
        if let Some(row) = self.gauges.iter_mut().find(|(k, _)| *k == name) {
            row.1 = v;
        } else {
            self.gauges.push((name, v));
        }
    }

    /// Set lane `lane` of the lane-indexed gauge family `name` to `v`
    /// (must be listed in [`LANE_GAUGE_NAMES`]).
    pub fn set_lane_gauge(&mut self, name: &'static str, lane: usize, v: u64) {
        debug_assert!(
            LANE_GAUGE_NAMES.contains(&name),
            "unknown lane gauge {name:?} — add it to LANE_GAUGE_NAMES"
        );
        match self
            .lane_gauges
            .binary_search_by_key(&(name, lane), |&(n, l, _)| (n, l))
        {
            Ok(pos) => self.lane_gauges[pos].2 = v,
            Err(pos) => self.lane_gauges.insert(pos, (name, lane, v)),
        }
    }

    /// One lane's value in a lane-indexed gauge family (0 if absent).
    pub fn lane_gauge(&self, name: &str, lane: usize) -> u64 {
        self.lane_gauges
            .iter()
            .find(|&&(n, l, _)| n == name && l == lane)
            .map_or(0, |&(_, _, v)| v)
    }

    /// All lane-gauge rows (`(family, lane, value)`), ascending by
    /// `(family, lane)`.
    pub fn lane_gauges(&self) -> &[(&'static str, usize, u64)] {
        &self.lane_gauges
    }

    /// Add `n` to histogram bucket `d` (the snapshot grows to fit).
    pub fn add_depth_bucket(&mut self, d: usize, n: u64) {
        if d >= self.helping_depth.len() {
            self.helping_depth.resize(d + 1, 0);
        }
        self.helping_depth[d] += n;
    }

    /// Add `n` samples to latency bucket `idx` of the `key` series (sheet
    /// resolution, [`SHEET_SUB_BUCKET_BITS`]).
    pub fn add_latency_bucket(&mut self, key: OpKey, idx: usize, n: u64) {
        self.latency[key as usize].add_bucket(idx, n);
    }

    /// Fold per-thread `(count, sum, max, min)` stats into the `key`
    /// series.
    pub fn add_latency_stats(&mut self, key: OpKey, count: u64, sum: u64, max: u64, min: u64) {
        self.latency[key as usize].add_stats(count, sum, max, min);
    }

    /// The latency series for one operation × path class.
    pub fn latency(&self, key: OpKey) -> &LatencySeries {
        &self.latency[key as usize]
    }

    /// Every latency series with its key, in [`OpKey::ALL`] order.
    pub fn latency_series(&self) -> impl Iterator<Item = (OpKey, &LatencySeries)> + '_ {
        OpKey::ALL.into_iter().zip(&self.latency)
    }

    /// Total latency samples across every series (equals completed
    /// operations, including empty dequeues, once quiesced).
    pub fn latency_count(&self) -> u64 {
        self.latency.iter().map(|s| s.count).sum()
    }

    /// A counter's total by id.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.get(id.name())
    }

    /// A counter or gauge by short name (0 if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .chain(self.gauges.iter())
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The helping-depth histogram buckets.
    pub fn helping_depth(&self) -> &[u64] {
        &self.helping_depth
    }

    /// Highest depth bucket with a nonzero count, or `None` if no
    /// operation recorded a depth.
    pub fn helping_depth_max(&self) -> Option<usize> {
        self.helping_depth.iter().rposition(|&n| n > 0)
    }

    /// Total operations recorded in the depth histogram.
    pub fn helping_depth_count(&self) -> u64 {
        self.helping_depth.iter().sum()
    }

    /// All counter rows, for table rendering.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// All gauge rows, for table rendering.
    pub fn gauges(&self) -> &[(&'static str, u64)] {
        &self.gauges
    }

    /// Fold `other` into `self`: counters and histogram buckets add,
    /// gauges add (summing levels across queues).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for &(name, v) in &other.counters {
            if let Some(row) = self.counters.iter_mut().find(|(k, _)| *k == name) {
                row.1 += v;
            } else {
                self.counters.push((name, v));
            }
        }
        for &(name, v) in &other.gauges {
            if let Some(row) = self.gauges.iter_mut().find(|(k, _)| *k == name) {
                row.1 += v;
            } else {
                self.gauges.push((name, v));
            }
        }
        for &(name, lane, v) in &other.lane_gauges {
            let cur = self.lane_gauge(name, lane);
            self.set_lane_gauge(name, lane, cur + v);
        }
        for (d, &n) in other.helping_depth.iter().enumerate() {
            if n > 0 {
                self.add_depth_bucket(d, n);
            }
        }
        for (mine, theirs) in self.latency.iter_mut().zip(&other.latency) {
            mine.merge(theirs);
        }
    }

    /// Prometheus text exposition format. Counter names are exported as
    /// `turnq_<name>_total`, gauges as `turnq_<name>`, and the histograms
    /// in proper cumulative form — `_bucket{le="..."}` samples ending in
    /// `le="+Inf"`, plus `_sum` and `_count` — so real scrapers can
    /// compute quantiles. `turnq_helping_depth` buckets are the depth
    /// values themselves; `turnq_op_latency_ns` emits one series per
    /// recorded operation × path class (`op`/`path` labels),
    /// log-linear-bucketed in nanoseconds.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for &(name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE turnq_{name}_total counter");
            let _ = writeln!(out, "turnq_{name}_total {v}");
        }
        for &(name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE turnq_{name} gauge");
            let _ = writeln!(out, "turnq_{name} {v}");
        }
        let mut last_family = "";
        for &(name, lane, v) in &self.lane_gauges {
            if name != last_family {
                let _ = writeln!(out, "# TYPE turnq_{name} gauge");
                last_family = name;
            }
            let _ = writeln!(out, "turnq_{name}{{lane=\"{lane}\"}} {v}");
        }
        let _ = writeln!(out, "# TYPE turnq_helping_depth histogram");
        let mut cum = 0u64;
        for (d, &n) in self.helping_depth.iter().enumerate() {
            cum += n;
            let _ = writeln!(out, "turnq_helping_depth_bucket{{le=\"{d}\"}} {cum}");
        }
        let _ = writeln!(out, "turnq_helping_depth_bucket{{le=\"+Inf\"}} {cum}");
        let sum: u64 = self
            .helping_depth
            .iter()
            .enumerate()
            .map(|(d, &n)| d as u64 * n)
            .sum();
        let _ = writeln!(out, "turnq_helping_depth_sum {sum}");
        let _ = writeln!(out, "turnq_helping_depth_count {cum}");
        let _ = writeln!(out, "# TYPE turnq_op_latency_ns histogram");
        for (key, series) in self.latency_series() {
            if series.count == 0 {
                continue;
            }
            let labels = format!("op=\"{}\",path=\"{}\"", key.op(), key.path());
            let mut cum = 0u64;
            for (idx, n) in series.nonzero_buckets() {
                cum += n;
                let le = bucket_high(series.sub_bucket_bits, idx);
                let _ = writeln!(out, "turnq_op_latency_ns_bucket{{{labels},le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "turnq_op_latency_ns_bucket{{{labels},le=\"+Inf\"}} {cum}");
            let _ = writeln!(out, "turnq_op_latency_ns_sum{{{labels}}} {}", series.sum);
            let _ = writeln!(out, "turnq_op_latency_ns_count{{{labels}}} {}", series.count);
        }
        out
    }

    /// JSON object: `{"counters": {...}, "gauges": {...},
    /// "helping_depth": [...], "latency": {...}}`. Keys are the short
    /// metric names; each latency series reports count/sum/min/max and
    /// the p50/p99/p999/p9999 quantiles (nanoseconds, 0 when empty).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, &(name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, &(name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"lane_gauges\":{");
        let mut first_lane_row = true;
        let mut open_family = "";
        for &(name, lane, v) in &self.lane_gauges {
            if name != open_family {
                if !open_family.is_empty() {
                    out.push('}');
                }
                if !first_lane_row {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{{");
                open_family = name;
                first_lane_row = false;
            } else {
                out.push(',');
            }
            let _ = write!(out, "\"{lane}\":{v}");
        }
        if !open_family.is_empty() {
            out.push('}');
        }
        out.push_str("},\"helping_depth\":[");
        for (d, &n) in self.helping_depth.iter().enumerate() {
            if d > 0 {
                out.push(',');
            }
            let _ = write!(out, "{n}");
        }
        out.push_str("],\"latency\":{");
        for (i, (key, series)) in self.latency_series().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let q = |p: f64| series.quantile(p).unwrap_or(0);
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"p50\":{},\"p99\":{},\"p999\":{},\"p9999\":{}}}",
                key.name(),
                series.count,
                series.sum,
                series.min(),
                series.max,
                q(0.50),
                q(0.99),
                q(0.999),
                q(0.9999),
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_all_counters_at_zero() {
        let snap = TelemetrySnapshot::empty(4);
        for c in CounterId::ALL {
            assert_eq!(snap.counter(c), 0);
        }
        assert_eq!(snap.helping_depth_max(), None);
    }

    #[test]
    fn add_get_merge() {
        let mut a = TelemetrySnapshot::empty(2);
        a.add_counter("enq_ops", 10);
        a.add_counter("pool_hit", 7);
        a.set_gauge("queue_size", 3);
        a.add_depth_bucket(1, 2);

        let mut b = TelemetrySnapshot::empty(2);
        b.add_counter("enq_ops", 5);
        b.set_gauge("queue_size", 4);
        b.add_depth_bucket(3, 1);

        a.merge(&b);
        assert_eq!(a.counter(CounterId::EnqOps), 15);
        assert_eq!(a.get("pool_hit"), 7);
        assert_eq!(a.get("queue_size"), 7);
        assert_eq!(a.helping_depth(), &[0, 2, 0, 1]);
        assert_eq!(a.helping_depth_max(), Some(3));
        assert_eq!(a.helping_depth_count(), 3);
    }

    #[test]
    fn prometheus_text_contains_known_names() {
        let mut snap = TelemetrySnapshot::empty(2);
        snap.add_counter("enq_ops", 42);
        snap.set_gauge("queue_size", 1);
        snap.add_depth_bucket(0, 42);
        let text = snap.to_prometheus();
        assert!(text.contains("turnq_enq_ops_total 42"));
        assert!(text.contains("turnq_queue_size 1"));
        assert!(text.contains("turnq_helping_depth_bucket{le=\"0\"} 42"));
        assert!(text.contains("turnq_helping_depth_count 42"));
    }

    #[test]
    fn prometheus_histograms_are_cumulative_with_inf_sum_count() {
        let mut snap = TelemetrySnapshot::empty(3);
        // Depth histogram: 5 ops at depth 0, 2 at depth 2.
        snap.add_depth_bucket(0, 5);
        snap.add_depth_bucket(2, 2);
        // One latency series: two samples, 3 ns and 100 ns.
        snap.add_latency_bucket(OpKey::EnqFast, 3, 1);
        snap.add_latency_bucket(
            OpKey::EnqFast,
            crate::latency::bucket_index(SHEET_SUB_BUCKET_BITS, 100),
            1,
        );
        snap.add_latency_stats(OpKey::EnqFast, 2, 103, 100, 3);
        let text = snap.to_prometheus();
        // Buckets are cumulative and end at +Inf == _count.
        assert!(text.contains("turnq_helping_depth_bucket{le=\"0\"} 5"), "{text}");
        assert!(text.contains("turnq_helping_depth_bucket{le=\"1\"} 5"), "{text}");
        assert!(text.contains("turnq_helping_depth_bucket{le=\"2\"} 7"), "{text}");
        assert!(text.contains("turnq_helping_depth_bucket{le=\"+Inf\"} 7"), "{text}");
        assert!(text.contains("turnq_helping_depth_sum 4"), "{text}"); // 0*5 + 2*2
        assert!(text.contains("turnq_helping_depth_count 7"), "{text}");
        // The old per-bucket gauge form is gone.
        assert!(!text.contains("depth=\""), "{text}");
        // Latency series carries op/path labels and the same invariants.
        assert!(
            text.contains("turnq_op_latency_ns_bucket{op=\"enq\",path=\"fast\",le=\"4\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("turnq_op_latency_ns_bucket{op=\"enq\",path=\"fast\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("turnq_op_latency_ns_sum{op=\"enq\",path=\"fast\"} 103"),
            "{text}"
        );
        assert!(
            text.contains("turnq_op_latency_ns_count{op=\"enq\",path=\"fast\"} 2"),
            "{text}"
        );
        // Empty series are not exported (but the TYPE header is).
        assert!(text.contains("# TYPE turnq_op_latency_ns histogram"));
        assert!(!text.contains("path=\"seg_cell\""));
    }

    #[test]
    fn latency_quantiles_interpolate_and_clamp() {
        let mut snap = TelemetrySnapshot::empty(2);
        // 10 samples of exactly 7 ns (range-0 bucket: exact).
        snap.add_latency_bucket(OpKey::DeqSlow, 7, 10);
        snap.add_latency_stats(OpKey::DeqSlow, 10, 70, 7, 7);
        let s = snap.latency(OpKey::DeqSlow);
        assert_eq!(s.quantile(0.0), Some(7));
        assert_eq!(s.quantile(0.5), Some(7));
        assert_eq!(s.quantile(1.0), Some(7));
        assert_eq!(s.mean(), 7);
        // Empty series answer None, not a panic.
        assert_eq!(snap.latency(OpKey::EnqHelped).quantile(0.999), None);
    }

    #[test]
    fn json_is_wellformed_enough() {
        let mut snap = TelemetrySnapshot::empty(2);
        snap.add_counter("deq_ops", 9);
        snap.set_gauge("queue_size", 0);
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"deq_ops\":9"));
        assert!(json.contains("\"helping_depth\":[0,0]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn lane_gauges_merge_export_and_read_back() {
        let mut a = TelemetrySnapshot::empty(2);
        a.set_lane_gauge("shard_lane_occupancy", 1, 5);
        a.set_lane_gauge("shard_lane_occupancy", 0, 2);
        assert_eq!(a.lane_gauge("shard_lane_occupancy", 0), 2);
        assert_eq!(a.lane_gauge("shard_lane_occupancy", 1), 5);
        assert_eq!(a.lane_gauge("shard_lane_occupancy", 7), 0);
        // Rows come back sorted by lane regardless of insertion order.
        assert_eq!(
            a.lane_gauges(),
            &[("shard_lane_occupancy", 0, 2), ("shard_lane_occupancy", 1, 5)]
        );

        let mut b = TelemetrySnapshot::empty(2);
        b.set_lane_gauge("shard_lane_occupancy", 1, 3);
        a.merge(&b);
        assert_eq!(a.lane_gauge("shard_lane_occupancy", 1), 8);

        let text = a.to_prometheus();
        assert!(text.contains("turnq_shard_lane_occupancy{lane=\"0\"} 2"), "{text}");
        assert!(text.contains("turnq_shard_lane_occupancy{lane=\"1\"} 8"), "{text}");

        let json = a.to_json();
        assert!(json.contains("\"lane_gauges\":{\"shard_lane_occupancy\":{\"0\":2,\"1\":8}}"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn all_metric_names_is_complete_and_unique() {
        let names = all_metric_names();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        assert!(names.iter().any(|n| n == "turnq_enq_ops_total"));
        assert!(names.iter().any(|n| n == "turnq_helping_depth"));
        assert!(names.iter().any(|n| n == "turnq_pool_hit_total"));
        assert!(names.iter().any(|n| n == "turnq_op_latency_ns"));
        assert!(names.iter().any(|n| n == "turnq_stall_dump_total"));
    }
}
