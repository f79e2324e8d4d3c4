//! `LatencySeries` at the resolution of the harness's `--histogram` mode
//! (`HIST_SUB_BUCKET_BITS`), checked against the exact nearest-rank
//! reference `stats::quantile_sorted`.

use proptest::prelude::*;
use turnq_harness::latency::HIST_SUB_BUCKET_BITS;
use turnq_harness::stats::{quantile_sorted, PAPER_QUANTILES};
use turnq_telemetry::LatencySeries;

fn series(bits: u32, samples: &[u64]) -> LatencySeries {
    let mut s = LatencySeries::new(bits);
    for &v in samples {
        s.record(v);
    }
    s
}

fn paper_quantiles(s: &LatencySeries) -> [u64; 6] {
    PAPER_QUANTILES.map(|q| s.quantile(q).unwrap())
}

/// The six paper quantiles, extremes and count of a fixed sample set
/// spread over the whole `u64` domain, pinned to what the harness's
/// former histogram type returned for the same samples at the same
/// resolution.
#[test]
fn pinned_paper_quantiles_at_harness_resolution() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let samples: Vec<u64> = (0..10_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> (x % 64)
        })
        .collect();
    let s = series(HIST_SUB_BUCKET_BITS, &samples);
    assert_eq!(
        paper_quantiles(&s),
        [
            2063597568,
            105834591243206656,
            8286623314361712640,
            17582052945254416384,
            18302628885633695744,
            18386404516567804544,
        ]
    );
    assert_eq!(s.min(), 0);
    assert_eq!(s.max(), 18386404516567804544);
    assert_eq!(s.count(), 10_000);
}

#[test]
fn small_values_are_exact() {
    let s = series(6, &(0..64).collect::<Vec<_>>());
    // Range 0 buckets are width-1: quantiles are exact.
    assert_eq!(s.quantile(0.5), Some(31));
    assert_eq!(s.quantile(1.0), Some(63));
    assert_eq!((s.min(), s.max(), s.count()), (0, 63, 64));
}

#[test]
fn larger_values_bounded_error() {
    let value = 1_000_000u64;
    let q = series(6, &[value; 100]).quantile(0.5).unwrap();
    // Relative error bounded by one sub-bucket of the containing range.
    let rel = (value as f64 - q as f64).abs() / value as f64;
    assert!(rel <= 1.0 / 32.0, "relative error {rel} too large (got {q})");
}

#[test]
fn merge_equals_union() {
    let (left, right) = ([5u64, 100, 10_000, 123_456], [9u64, 300, 7_777_777]);
    let mut a = series(6, &left);
    a.merge(&series(6, &right));
    let u = series(6, &[&left[..], &right[..]].concat());
    assert_eq!(a, u);
    // Merging into an empty series, or merging an empty one, is exact too.
    let mut e = LatencySeries::new(6);
    e.merge(&u);
    e.merge(&LatencySeries::new(6));
    assert_eq!(e, u);
}

#[test]
#[should_panic(expected = "different resolution")]
fn merge_rejects_mismatched_resolution() {
    LatencySeries::new(6).merge(&LatencySeries::new(7));
}

#[test]
fn empty_series_has_no_quantile() {
    assert_eq!(LatencySeries::new(6).quantile(0.5), None);
}

#[test]
fn overflow_bucket_saturates_instead_of_wrapping() {
    let s = series(6, &[u64::MAX, u64::MAX - 1, 1u64 << 63, u64::MAX / 2]);
    assert_eq!(s.count(), 4);
    assert_eq!(s.max(), u64::MAX);
    assert_eq!(s.sum(), u64::MAX, "the sum saturates");
    // Quantiles stay within the recorded extremes — the top of the
    // domain cannot over-report past max or wrap to a small value.
    for q in [0.0, 0.5, 0.999, 1.0] {
        let got = s.quantile(q).unwrap();
        assert!(got >= s.min() && got <= s.max(), "q={q}: {got}");
        assert!(got >= u64::MAX / 4, "q={q}: wrapped to {got}");
    }
}

#[test]
fn quantile_endpoints_are_exact_extremes() {
    let s = series(4, &[3, 900, 77_000, 5_000_000]);
    // p=0 clamps to the exact min, p=100 to the exact max, even though
    // interior quantiles only resolve to bucket lows.
    assert_eq!(s.quantile(0.0), Some(3));
    assert_eq!(s.quantile(1.0), Some(5_000_000));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The quantile must track the exact quantile within the documented
    /// relative error, never over-reporting.
    #[test]
    fn tracks_exact_quantiles(
        mut samples in proptest::collection::vec(0u64..10_000_000, 1..400),
        q in 0.0f64..=1.0,
    ) {
        let approx = series(HIST_SUB_BUCKET_BITS, &samples).quantile(q).unwrap();
        samples.sort_unstable();
        let exact = quantile_sorted(&samples, q);
        prop_assert!(approx <= exact, "over-reported: {approx} > {exact}");
        // Bounded relative error (one sub-bucket), plus slack for the
        // clamp at the minimum.
        let floor = (exact as f64) * (1.0 - 1.0/32.0) - 1.0;
        prop_assert!(
            (approx as f64) >= floor.max(0.0),
            "under-reported too far: {approx} < {exact}"
        );
    }

    #[test]
    fn totals_and_extremes(samples in proptest::collection::vec(0u64..u32::MAX as u64, 1..200)) {
        let s = series(HIST_SUB_BUCKET_BITS, &samples);
        prop_assert_eq!(s.count(), samples.len() as u64);
        prop_assert_eq!(s.sum(), samples.iter().sum::<u64>());
        prop_assert_eq!(s.max(), *samples.iter().max().unwrap());
        prop_assert_eq!(s.min(), *samples.iter().min().unwrap());
    }

    /// Quantiles are monotone in q.
    #[test]
    fn monotone_quantiles(samples in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let qs = paper_quantiles(&series(HIST_SUB_BUCKET_BITS, &samples));
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }
}
