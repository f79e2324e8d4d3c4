//! The delivery checker catches each kind of broken queue: wrappers that
//! drop, duplicate or reorder one item, or return one spurious `None`
//! (during `deep`, and during `stream` above its low-water mark), must
//! each raise the failure count and make the run exit non-zero.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;

use turn_queue::TurnQueue;
use turnq_api::TelemetrySnapshot;
use turnq_bench::cell::run_cell;
use turnq_bench::{queues, BenchQueue, Config, Report, Workload};

#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    Drop,
    Duplicate,
    Swap,
    SpuriousEmpty,
}

/// A Turn queue with one injected fault.
struct Faulty {
    q: TurnQueue<u64>,
    fault: Fault,
    enqueues: AtomicU64,
    dequeues: AtomicU64,
    /// `Swap`: the item held back; `Duplicate`: the item to hand out again.
    held: Mutex<Option<u64>>,
}

const VICTIM: u64 = 100;
const SWAP_DISTANCE: u64 = 900;

impl BenchQueue for Faulty {
    fn register(&self) {
        self.q.register();
    }

    fn enqueue(&self, item: u64) -> Result<(), u64> {
        let n = self.enqueues.fetch_add(1, SeqCst);
        match self.fault {
            Fault::Drop if n == VICTIM => return Ok(()),
            Fault::Swap if n == VICTIM => {
                *self.held.lock().unwrap() = Some(item);
                return Ok(());
            }
            Fault::Swap if n == VICTIM + SWAP_DISTANCE => {
                BenchQueue::enqueue(&self.q, item).unwrap();
                let held = self.held.lock().unwrap().take().unwrap();
                return BenchQueue::enqueue(&self.q, held);
            }
            _ => {}
        }
        BenchQueue::enqueue(&self.q, item)
    }

    fn dequeue(&self) -> Option<u64> {
        if let Some(again) = self
            .held
            .lock()
            .unwrap()
            .take_if(|_| self.fault == Fault::Duplicate)
        {
            return Some(again);
        }
        let n = self.dequeues.fetch_add(1, SeqCst);
        match self.fault {
            Fault::SpuriousEmpty if n == VICTIM => None,
            Fault::Duplicate if n == VICTIM => {
                let item = self.q.dequeue();
                *self.held.lock().unwrap() = item;
                item
            }
            _ => self.q.dequeue(),
        }
    }

    fn snapshot(&self) -> TelemetrySnapshot {
        self.q.snapshot()
    }
}

/// Failures found in one smoke cell of `workload` over a queue with `fault`.
fn failures(fault: Fault, workload: Workload) -> Report {
    let cfg = Config::smoke(workload, 7, false);
    let make = || Faulty {
        q: queues::turn(),
        fault,
        enqueues: AtomicU64::new(0),
        dequeues: AtomicU64::new(0),
        held: Mutex::new(None),
    };
    let out = run_cell(&make, 4096, workload, &cfg.protocol, 7, false, false);
    Report {
        workload: workload.name(),
        seed: 7,
        trace: false,
        fingerprint: cfg.fingerprint(),
        attempted: out.attempted,
        failed: out.failed,
        metrics: Vec::new(),
    }
}

#[test]
fn a_sound_queue_passes() {
    for w in [Workload::Deep, Workload::Stream] {
        let r = failures(Fault::None, w);
        assert_eq!(r.failed, 0, "{}", w.name());
        assert_eq!(r.exit_code(), 0);
        assert!(r.result_line().starts_with("{\"correct\": true"));
    }
}

#[test]
fn every_injected_fault_is_caught() {
    for (fault, workload, name) in [
        (Fault::Drop, Workload::Deep, "drop"),
        (Fault::Duplicate, Workload::Deep, "duplicate"),
        (Fault::Swap, Workload::Deep, "swap"),
        (
            Fault::SpuriousEmpty,
            Workload::Deep,
            "spurious None in deep",
        ),
        (
            Fault::SpuriousEmpty,
            Workload::Stream,
            "spurious None in stream",
        ),
    ] {
        let r = failures(fault, workload);
        assert!(r.failed > 0, "{name}: not caught");
        assert!(r.fail_ratio() > 0.0, "{name}: fail_ratio stayed 0");
        assert_ne!(r.exit_code(), 0, "{name}: exit code 0");
        assert!(r.result_line().starts_with("{\"correct\": false"), "{name}");
    }
}
