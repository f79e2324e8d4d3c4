//! Measurement harness for the Turn-queue reproduction.
//!
//! Reimplements the paper's three experimental protocols generically over
//! every queue in the workspace:
//!
//! * [`latency`] — the §4.1 per-operation latency procedure behind Table 3
//!   and Figure 1 (burst cycles, pre-allocated sample arrays, quantiles of
//!   the aggregated distribution, min–max / median across runs);
//! * [`throughput`] — the §4.4 pairs (Figure 2) and bursts (Figure 3)
//!   microbenchmarks;
//! * [`memusage`] — a counting global allocator measuring the "heap
//!   allocations per item" row of Table 4 and the alloc/free balance after
//!   queue teardown (leak detection, as used against FK in §4).
//!
//! Plus shared infrastructure: [`config::Scale`] (paper-scale vs
//! container-scale parameters), [`kinds::QueueKind`] (run-time queue
//! selection over static [`turnq_api::QueueFamily`]s), [`stats`] (quantile
//! math), and [`tables`] (report rendering).

pub mod config;
pub mod kinds;
pub mod latency;
pub mod memusage;
pub mod plot;
pub mod stats;
pub mod tables;
pub mod throughput;

pub use config::{Args, Scale};
pub use kinds::QueueKind;
pub use memusage::CountingAllocator;
pub use tables::Table;
