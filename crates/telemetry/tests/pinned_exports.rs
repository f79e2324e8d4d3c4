//! Fixed sheet contents must aggregate and export exactly as pinned in
//! `fixtures/pinned_snapshot.txt`: every series' count, sum, extremes and
//! quantiles, then the Prometheus and JSON dumps, byte for byte. The
//! fixture was produced when the snapshot still kept its own sparse
//! histogram type, so it holds the exporters to that output.
#![cfg(feature = "probe")]

use std::fmt::Write as _;
use turnq_telemetry::{CounterId, OpKey, TelemetrySheet};

#[test]
fn snapshot_quantiles_and_exports_match_the_pinned_output() {
    let sheet = TelemetrySheet::new(4);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..300usize {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let tid = i % 3;
        // Seven of the eight series, so one stays empty.
        sheet.record_latency(tid, OpKey::ALL[i % 7], x >> (40 + x % 24));
        sheet.bump(tid, CounterId::ALL[i % CounterId::ALL.len()]);
        sheet.record_depth(tid, i % 5);
    }
    let snap = sheet.snapshot();
    let mut out = String::new();
    for key in OpKey::ALL {
        let s = snap.latency(key);
        let qs: Vec<Option<u64>> = [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1.0]
            .iter()
            .map(|&q| s.quantile(q))
            .collect();
        let _ = writeln!(
            out,
            "{} count={} sum={} min={} max={} q={:?}",
            key.name(),
            s.count(),
            s.sum(),
            s.min(),
            s.max(),
            qs
        );
    }
    out.push_str(&snap.to_prometheus());
    out.push_str(&snap.to_json());
    out.push('\n');
    assert_eq!(out, include_str!("fixtures/pinned_snapshot.txt"));
}
