//! Baseline queues for the Turn-queue reproduction.
//!
//! * [`MSQueue`] — Michael–Scott lock-free queue with hazard pointers: the
//!   paper's main comparison baseline (Table 3, Figures 1–3).
//! * [`MutexQueue`] — the lock-based strawman of §1.2.
//! * [`FaaArrayQueue`] — a fetch-and-add array queue standing in for the
//!   YMC fast path in the FAA-vs-CAS consensus discussion (§4).
//!
//! The FK (SimQueue) and original YMC queues are deliberately absent: the
//! paper itself excludes both from every measurement (memory leak and
//! use-after-free respectively, §4), and reproducing a known-broken
//! comparator would only reproduce the breakage.

mod faa_array;
mod ms;
mod mutex_queue;

pub use faa_array::{FaaArrayQueue, FaaFamily, BUFFER_SIZE};
pub use ms::{MSQueue, MsFamily};
pub use mutex_queue::{MutexFamily, MutexQueue};
