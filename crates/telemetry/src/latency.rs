//! In-queue latency attribution: shared log-linear bucket math, the
//! operation × path-class key space, and the probe-gated [`OpTimer`].
//!
//! ## Bucket math
//!
//! The sheet-resident histograms and [`LatencySeries`] (the one latency
//! distribution type, which snapshots and the harness's §4.1 procedure
//! both aggregate into) index and invert through the pure functions
//! here. Buckets are linear within a power-of-two range and geometric
//! across ranges: range 0 covers `[0, 2^b)` with width-1 buckets
//! (exact), range `r ≥ 1` covers `[2^(b+r-1), 2^(b+r))` with `2^b`
//! buckets of width `2^(r-1)` — bounded relative error `2^-b` per value,
//! and a saturating top bucket.
//!
//! [`LatencySeries`]: crate::LatencySeries
//!
//! ## Path classes
//!
//! Every completed operation is attributed to the path it actually took
//! (see [`OpKey`]): a direct fast-path hit, a segment cell claim, a
//! consensus slow path the thread worked through itself, or a request
//! that was already complete when the thread first looked (helped).
//! Single-path queues (KP, MS, FAA, mutex, and the exclusive MPSC/SPMC
//! endpoints) record under the `slow` class — their only path.
//!
//! ## Recording rules
//!
//! Same contract as the rest of the crate: per-thread rows, owner-only
//! plain stores, no RMW, and with `probe` off [`OpTimer`] is a zero-sized
//! type whose reading is [`NOT_SAMPLED`] and recording compiles to a
//! no-op.
//!
//! ## Sampling
//!
//! A clock read costs more than a fast-path operation, so
//! [`OpTimer::start`] reads it on about one operation in
//! [`LATENCY_SAMPLE_PERIOD`] per thread; the rest read
//! [`NOT_SAMPLED`], which [`TelemetrySheet::record_latency`] drops.
//! Counters, the helping-depth histogram and the event rings stay exact;
//! only the latency histograms are sampled. A per-thread countdown picks
//! the sampled operations, reloaded from a per-thread xorshift draw
//! uniform in `[1, 2 * LATENCY_SAMPLE_PERIOD]`: a fixed stride could
//! alias a workload's own period (an enqueue/dequeue alternation, a
//! segment boundary every 16 items) and time only one kind of operation.
//! Sampling ignores an operation's outcome, so each path's quantiles are
//! unbiased estimates. [`OpTimer::start_exact`] times every operation;
//! queues with an armed stall watchdog use it.
//!
//! [`TelemetrySheet::record_latency`]: crate::TelemetrySheet::record_latency

/// Number of power-of-two ranges (the full `u64` domain).
pub const RANGES: usize = 64;

/// Resolution of the sheet-resident histograms: `2^4 = 16` linear
/// sub-buckets per range, ≤ 6.25 % relative error, in one block per
/// recording thread ([`LATENCY_BLOCK_BYTES`](crate::LATENCY_BLOCK_BYTES)).
/// The harness's §4.1 procedure records at 6 bits, with the same
/// [`bucket_index`]/[`bucket_low`] math.
pub const SHEET_SUB_BUCKET_BITS: u32 = 4;

/// Number of flat buckets for a given resolution.
pub fn bucket_count(sub_bucket_bits: u32) -> usize {
    assert!(
        (1..=16).contains(&sub_bucket_bits),
        "sub_bucket_bits must be in 1..=16"
    );
    RANGES << sub_bucket_bits
}

/// Flat bucket index for `value` at the given resolution (saturating into
/// the last bucket).
#[inline]
pub fn bucket_index(sub_bucket_bits: u32, value: u64) -> usize {
    let b = sub_bucket_bits;
    if value < (1u64 << b) {
        return value as usize;
    }
    let msb = 63 - u64::leading_zeros(value); // >= b here
    let range = (msb - b + 1) as usize;
    let sub = ((value >> (range - 1)) - (1u64 << b)) as usize;
    let idx = (range << b) + sub;
    idx.min((RANGES << b) - 1)
}

/// Lowest value representable by bucket `idx` (inverse of
/// [`bucket_index`]). Saturates to `u64::MAX` for defensive indices past
/// the last representable bucket (the flat array over-allocates a few
/// trailing buckets no value can reach).
#[inline]
pub fn bucket_low(sub_bucket_bits: u32, idx: usize) -> u64 {
    let b = sub_bucket_bits;
    let range = idx >> b;
    let sub = (idx & ((1usize << b) - 1)) as u64;
    if range == 0 {
        sub
    } else {
        let v = ((1u128 << b) + sub as u128) << (range - 1);
        u64::try_from(v).unwrap_or(u64::MAX)
    }
}

/// Exclusive upper bound of bucket `idx` (the next bucket's low, or
/// `u64::MAX` for the top of the domain). Prometheus `le` labels use
/// this.
#[inline]
pub fn bucket_high(sub_bucket_bits: u32, idx: usize) -> u64 {
    if idx + 1 >= bucket_count(sub_bucket_bits) {
        u64::MAX
    } else {
        bucket_low(sub_bucket_bits, idx + 1)
    }
}

/// One latency series: operation × path class.
///
/// The discriminant indexes the per-thread latency arrays; keep the
/// variants dense and [`OpKey::ALL`] in discriminant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum OpKey {
    /// Enqueue completed by a direct fast-path tail append (§6c).
    EnqFast = 0,
    /// Enqueue that published a CRTurn request and worked the helping
    /// loop itself (observed completion at depth ≥ 1).
    EnqSlow,
    /// Enqueue whose published request was already complete at the
    /// thread's first look (backoff-spin exit or depth 0) — another
    /// thread did the work.
    EnqHelped,
    /// Enqueue completed by an FAA cell claim inside a segment (§6d).
    EnqSegCell,
    /// Dequeue completed on the fast path (item claimed or linearizable
    /// empty observed).
    DeqFast,
    /// Dequeue that worked the consensus slow path itself.
    DeqSlow,
    /// Dequeue whose published request another thread closed first.
    DeqHelped,
    /// Dequeue that took its item straight out of a segment cell.
    DeqSegCell,
}

/// Number of latency series (row width of the per-thread latency area).
pub const N_OP_KEYS: usize = 8;

impl OpKey {
    /// Every key, in discriminant order (`ALL[i] as usize == i`).
    pub const ALL: [OpKey; N_OP_KEYS] = [
        OpKey::EnqFast,
        OpKey::EnqSlow,
        OpKey::EnqHelped,
        OpKey::EnqSegCell,
        OpKey::DeqFast,
        OpKey::DeqSlow,
        OpKey::DeqHelped,
        OpKey::DeqSegCell,
    ];

    /// Short name, used as the JSON key (`<op>_<path>`).
    pub const fn name(self) -> &'static str {
        match self {
            OpKey::EnqFast => "enq_fast",
            OpKey::EnqSlow => "enq_slow",
            OpKey::EnqHelped => "enq_helped",
            OpKey::EnqSegCell => "enq_seg_cell",
            OpKey::DeqFast => "deq_fast",
            OpKey::DeqSlow => "deq_slow",
            OpKey::DeqHelped => "deq_helped",
            OpKey::DeqSegCell => "deq_seg_cell",
        }
    }

    /// Operation label (`enq`/`deq`) for Prometheus.
    pub const fn op(self) -> &'static str {
        match self {
            OpKey::EnqFast | OpKey::EnqSlow | OpKey::EnqHelped | OpKey::EnqSegCell => "enq",
            _ => "deq",
        }
    }

    /// Path-class label (`fast`/`slow`/`helped`/`seg_cell`) for
    /// Prometheus.
    pub const fn path(self) -> &'static str {
        match self {
            OpKey::EnqFast | OpKey::DeqFast => "fast",
            OpKey::EnqSlow | OpKey::DeqSlow => "slow",
            OpKey::EnqHelped | OpKey::DeqHelped => "helped",
            OpKey::EnqSegCell | OpKey::DeqSegCell => "seg_cell",
        }
    }
}

/// Mean number of operations per thread between two timed ones: the
/// sampling intervals are uniform in `[1, 2 * LATENCY_SAMPLE_PERIOD]`
/// (mean 64.5).
pub const LATENCY_SAMPLE_PERIOD: u64 = 64;

/// The reading of an operation the sampler skipped (and of every
/// operation with `probe` off). A timed reading is never 0: it is clamped
/// to at least 1 ns.
pub const NOT_SAMPLED: u64 = 0;

#[cfg(feature = "probe")]
thread_local! {
    /// Operations this thread still skips before its next timed one. 0 at
    /// thread start, so a thread's first operation is always timed.
    static SKIP: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    /// This thread's xorshift state; 0 until its first timed operation
    /// seeds it.
    static RNG: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Advance a nonzero xorshift64* `state` and return the next sampling
/// interval, uniform in `[1, 2 * LATENCY_SAMPLE_PERIOD]`.
#[cfg(feature = "probe")]
fn next_interval(state: &mut u64) -> u32 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    ((x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) % (2 * LATENCY_SAMPLE_PERIOD)) as u32 + 1
}

/// A nonzero seed that differs between thread lifetimes: the first
/// timed instant mixed with the address of this thread's TLS block.
/// The address alone repeats, because a thread spawned after another
/// exits may reuse its cached stack and TLS.
#[cfg(feature = "probe")]
fn seed(now: std::time::Instant) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    now.hash(&mut h);
    RNG.with(|cell| cell as *const _ as usize).hash(&mut h);
    h.finish() | 1
}

/// The sampled branch of [`OpTimer::start`]: read the clock and draw how
/// many operations to skip before the next reading.
#[cfg(feature = "probe")]
#[cold]
#[inline(never)]
fn timed_start() -> std::time::Instant {
    let now = std::time::Instant::now();
    let mut state = RNG.with(std::cell::Cell::get);
    if state == 0 {
        state = seed(now);
    }
    let interval = next_interval(&mut state);
    RNG.with(|cell| cell.set(state));
    SKIP.with(|skip| skip.set(interval - 1));
    now
}

/// A start-of-operation timestamp, or none when the sampler skipped the
/// operation (see the module docs). With `probe` off this is a zero-sized
/// type: [`OpTimer::start`] does nothing and [`OpTimer::nanos`] returns
/// [`NOT_SAMPLED`], so the call sites need no `cfg` and the disabled
/// build pays nothing.
#[derive(Debug, Clone, Copy)]
pub struct OpTimer {
    #[cfg(feature = "probe")]
    start: Option<std::time::Instant>,
}

impl OpTimer {
    /// Start timing an operation if the calling thread's sampler picks it
    /// (about one in [`LATENCY_SAMPLE_PERIOD`]); otherwise one
    /// thread-local decrement. No-op with `probe` off.
    #[inline(always)]
    pub fn start() -> Self {
        OpTimer {
            #[cfg(feature = "probe")]
            start: SKIP.with(|skip| match skip.get() {
                0 => Some(timed_start()),
                n => {
                    skip.set(n - 1);
                    None
                }
            }),
        }
    }

    /// Start timing an operation regardless of the sampler (no-op with
    /// `probe` off). For callers that must judge every operation's
    /// latency, such as an armed stall watchdog.
    #[inline(always)]
    pub fn start_exact() -> Self {
        OpTimer {
            #[cfg(feature = "probe")]
            start: Some(std::time::Instant::now()),
        }
    }

    /// Nanoseconds elapsed since the start, clamped to `[1, u64::MAX]`;
    /// [`NOT_SAMPLED`] when the operation is not timed.
    #[inline(always)]
    pub fn nanos(&self) -> u64 {
        #[cfg(feature = "probe")]
        if let Some(start) = self.start {
            return u64::try_from(start.elapsed().as_nanos())
                .unwrap_or(u64::MAX)
                .max(1);
        }
        NOT_SAMPLED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_dense_and_named_uniquely() {
        let mut names = Vec::new();
        for (i, k) in OpKey::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "ALL out of order at {}", k.name());
            assert_eq!(k.name(), format!("{}_{}", k.op(), k.path()));
            names.push(k.name());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_OP_KEYS);
    }

    #[test]
    fn index_is_exact_below_two_to_the_b() {
        for b in [1, 4, 6] {
            for v in 0..(1u64 << b) {
                assert_eq!(bucket_index(b, v), v as usize);
                assert_eq!(bucket_low(b, v as usize), v);
            }
        }
    }

    #[test]
    fn bucket_low_is_a_left_inverse_within_error() {
        for b in [2u32, 4, 6] {
            for v in [0u64, 1, 17, 255, 1_000, 123_456, 1 << 33, u64::MAX / 3] {
                let idx = bucket_index(b, v);
                let low = bucket_low(b, idx);
                assert!(low <= v, "b={b} v={v}: low {low} over-reports");
                // Relative error bounded by one sub-bucket of the range.
                let width = bucket_high(b, idx).saturating_sub(low);
                assert!(
                    v - low <= width,
                    "b={b} v={v}: off by {} > width {width}",
                    v - low
                );
            }
        }
    }

    #[test]
    fn top_bucket_saturates() {
        for b in [1u32, 4, 16] {
            let top = bucket_index(b, u64::MAX);
            assert!(top < bucket_count(b));
            // The top bucket's span reaches the end of the u64 domain …
            assert_eq!(bucket_high(b, top), u64::MAX);
            // … and indexing is monotone into it (no wrap-around).
            assert!(bucket_index(b, u64::MAX - 1) <= top);
            assert!(bucket_index(b, 1u64 << 63) <= top);
        }
    }

    #[test]
    fn timer_is_monotone_or_inert() {
        let t = OpTimer::start_exact();
        let a = t.nanos();
        let b = t.nanos();
        if crate::ENABLED {
            assert!(a != NOT_SAMPLED && b >= a);
        } else {
            assert_eq!((a, b), (NOT_SAMPLED, NOT_SAMPLED));
            assert_eq!(std::mem::size_of::<OpTimer>(), 0);
        }
    }

    /// Calls to `start` on a fresh thread up to and including its second
    /// timed one: `(first start timed?, interval to the second)`.
    #[cfg(feature = "probe")]
    fn first_interval_on_new_thread() -> (bool, u32) {
        std::thread::spawn(|| {
            let first = OpTimer::start().nanos() != NOT_SAMPLED;
            let mut n = 1;
            while OpTimer::start().nanos() == NOT_SAMPLED {
                n += 1;
            }
            (first, n)
        })
        .join()
        .expect("sampler thread panicked")
    }

    #[cfg(feature = "probe")]
    #[test]
    fn intervals_are_uniform_with_mean_near_the_period() {
        const RELOADS: u64 = 1_000_000;
        let hi = 2 * LATENCY_SAMPLE_PERIOD as u32;
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let mut sum = 0u64;
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..RELOADS {
            let i = next_interval(&mut state);
            assert!((1..=hi).contains(&i), "interval {i} outside [1, {hi}]");
            lo_seen |= i == 1;
            hi_seen |= i == hi;
            sum += u64::from(i);
        }
        assert!(
            lo_seen && hi_seen,
            "both ends of [1, {hi}] must be reachable"
        );
        let mean = sum as f64 / RELOADS as f64;
        let period = LATENCY_SAMPLE_PERIOD as f64;
        assert!(
            (mean - period).abs() <= 0.02 * period,
            "mean interval {mean} not within 2% of {period}"
        );
    }

    #[cfg(feature = "probe")]
    #[test]
    fn first_start_on_a_new_thread_is_timed() {
        for _ in 0..4 {
            let (first, interval) = first_interval_on_new_thread();
            assert!(first, "a thread's first operation must be timed");
            assert!((1..=2 * LATENCY_SAMPLE_PERIOD as u32).contains(&interval));
        }
    }

    #[cfg(feature = "probe")]
    #[test]
    fn threads_spawned_in_turn_draw_different_intervals() {
        // Each thread exits before the next starts, so they typically
        // reuse one cached stack and TLS address: only the seed's clock
        // half tells them apart.
        let intervals: Vec<u32> = (0..8).map(|_| first_interval_on_new_thread().1).collect();
        assert!(
            intervals.iter().any(|&i| i != intervals[0]),
            "every thread drew the same intervals: {intervals:?}"
        );
    }
}
