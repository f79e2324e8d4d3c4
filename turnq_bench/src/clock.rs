//! One shared time origin, so spans and stamps from every thread compare.

use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's first call (never 0 afterwards in
/// practice: 0 marks "no timestamp" in the stamp tables).
#[inline]
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}
