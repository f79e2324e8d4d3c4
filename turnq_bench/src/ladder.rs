//! The single-threaded cost ladder: each layer's public functions timed
//! on their own, then each queue as one rung, from the FAA-array floor up.

use std::hint::black_box;
use std::time::{Duration, Instant};

use turn_queue::{TurnQueue, TurnQueueBuilder};
use turnq_baselines::FaaArrayQueue;
use turnq_hazard::HazardPointers;
use turnq_telemetry::{CounterId, OpKey, OpTimer, TelemetrySheet};
use turnq_threadreg::ThreadRegistry;

use crate::queues;
use crate::stats::median;
use crate::MAX_THREADS;

/// Calls per timed batch.
const BATCH: u64 = 4096;

/// Nanoseconds per call of each layer function and queue rung.
#[derive(Debug, Default, Clone)]
pub struct Ladder {
    /// `ThreadRegistry::current_index` on a registered thread.
    pub lookup_ns: f64,
    /// `current_index` + `release_current` (one claim and one release).
    pub claim_release_ns: f64,
    /// `OpTimer` start/read + `record_latency` + one counter `bump`.
    pub probe_ns: f64,
    /// `try_protect` (load, publish, validate) + `clear_one`.
    pub protect_clear_ns: f64,
    /// `retire` of a fresh box with the `R = 0` scan, which frees it.
    pub retire_ns: f64,
    /// FAA-array queue, per operation (the floor).
    pub faa_floor_ns: f64,
    /// Bounded ring, per operation.
    pub bounded_ns: f64,
    /// Segment-node Turn queue, per operation.
    pub seg_cell_ns: f64,
    /// Turn queue through a handle (no registry lookup), per operation.
    pub turn_fast_ns: f64,
    /// Turn queue through the plain API (registry lookup each call).
    pub turn_tls_ns: f64,
    /// Turn queue through a handle with the fast path off (`fast_tries(0)`).
    pub turn_slow_ns: f64,
    /// Sharded front-end, per operation.
    pub sharded_ns: f64,
    /// Σ(layer cost × calls per op) over the plain-API Turn rung's cost:
    /// how much of that rung the priced layers account for.
    pub explained_share: f64,
}

/// Median nanoseconds per call of `f` over batches filling `budget`.
fn per_call(budget: Duration, mut f: impl FnMut(u64)) -> f64 {
    for i in 0..BATCH {
        f(i); // warm caches and lazy set-up
    }
    let mut batches = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while batches.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..BATCH {
            f(black_box(i));
            i += 1;
        }
        batches.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    median(&batches)
}

/// One enqueue + dequeue per call; the result is per operation.
fn per_op(budget: Duration, mut pair: impl FnMut(u64) -> Option<u64>) -> f64 {
    per_call(budget, |i| {
        black_box(pair(i));
    }) / 2.0
}

/// Run the ladder, spending about `budget` in total.
pub fn run(budget: Duration) -> Ladder {
    let rung = budget / 12;
    let mut l = Ladder::default();

    let reg = ThreadRegistry::new(MAX_THREADS);
    reg.current_index();
    l.lookup_ns = per_call(rung, |_| {
        black_box(reg.current_index());
    });
    let churn = ThreadRegistry::new(MAX_THREADS);
    l.claim_release_ns = per_call(rung, |_| {
        black_box(churn.current_index());
        churn.release_current();
    });

    let sheet = TelemetrySheet::new(MAX_THREADS);
    l.probe_ns = per_call(rung, |_| {
        let t = OpTimer::start();
        sheet.record_latency(0, OpKey::EnqFast, t.nanos());
        sheet.bump(0, CounterId::EnqOps);
    });

    let hp: HazardPointers<u64> = HazardPointers::new(MAX_THREADS, 3);
    let mut target = 7u64;
    let src = turnq_sync::atomic::AtomicPtr::new(&mut target as *mut u64);
    l.protect_clear_ns = per_call(rung, |_| {
        black_box(hp.try_protect(0, 0, &src).is_ok());
        hp.clear_one(0, 0);
    });
    l.retire_ns = per_call(rung, |i| {
        let p = Box::into_raw(Box::new(i));
        // SAFETY: `p` comes from `Box::into_raw`, was never shared, is
        // retired exactly once, and tid 0 is used by this thread alone.
        unsafe { hp.retire(0, p) };
    });

    let faa: FaaArrayQueue<u64> = FaaArrayQueue::with_max_threads(MAX_THREADS);
    l.faa_floor_ns = per_op(rung, |i| {
        faa.enqueue(i);
        faa.dequeue()
    });
    let bq = queues::bounded();
    l.bounded_ns = per_op(rung, |i| {
        bq.try_enqueue(i).expect("one item never fills the ring");
        bq.try_dequeue()
    });
    let sq = queues::seg();
    l.seg_cell_ns = per_op(rung, |i| {
        sq.enqueue(i);
        sq.dequeue()
    });
    let tq = queues::turn();
    {
        let h = tq.handle().expect("registry has room");
        l.turn_fast_ns = per_op(rung, |i| {
            h.enqueue(i);
            h.dequeue()
        });
    }
    let tls = queues::turn();
    l.turn_tls_ns = per_op(rung, |i| {
        tls.enqueue(i);
        tls.dequeue()
    });
    let slow: TurnQueue<u64> = TurnQueueBuilder::new()
        .max_threads(MAX_THREADS)
        .fast_tries(0)
        .build();
    {
        let h = slow.handle().expect("registry has room");
        l.turn_slow_ns = per_op(rung, |i| {
            h.enqueue(i);
            h.dequeue()
        });
    }
    let shq = queues::sharded();
    l.sharded_ns = per_op(rung, |i| {
        shq.enqueue(i);
        shq.dequeue()
    });

    // Layer calls per operation on the Turn rung, from its own telemetry.
    let snap = tls.telemetry_snapshot();
    let ops = (snap.counter(CounterId::EnqOps) + snap.counter(CounterId::DeqOps)).max(1) as f64;
    let explained = l.lookup_ns
        + l.probe_ns
        + l.protect_clear_ns * snap.counter(CounterId::HpProtect) as f64 / ops
        + l.retire_ns * snap.counter(CounterId::HpRetire) as f64 / ops;
    l.explained_share = explained / l.turn_tls_ns.max(1e-9);
    l
}
