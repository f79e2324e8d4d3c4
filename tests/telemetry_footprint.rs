//! The telemetry sheet's heap footprint, under the counting global
//! allocator: an empty queue's sheet costs no more than the rest of the
//! queue, and a thread's latency histograms (one block per recording
//! thread) are allocated once, by its first operations, and never again.
//!
//! This lives in its own test binary with a single test because the
//! allocator counters are process-wide: no sibling test may allocate
//! while a window is measured.

use turn_queue::POOL_LIST_BYTES;
use turnq_repro::harness::memusage::alloc_snapshot;
use turnq_repro::hazard::retired_bound;
use turnq_repro::telemetry::{TelemetrySheet, ENABLED, LATENCY_BLOCK_BYTES};
use turnq_repro::{TurnQueue, DEFAULT_MAX_THREADS};

/// Hazard slots per thread of the Turn queue (the paper's
/// `kHpTail`/`kHpHead`, `kHpNext` and `kHpDeq`).
const TURN_HAZARDS: usize = 3;

#[global_allocator]
static ALLOC: turnq_repro::harness::CountingAllocator = turnq_repro::harness::CountingAllocator;

/// Bytes requested from the allocator while `f` runs, and its result.
fn bytes_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = alloc_snapshot().bytes;
    let out = f();
    (alloc_snapshot().bytes - before, out)
}

fn pairs(q: &TurnQueue<u64>, n: u64) {
    for i in 0..n {
        q.enqueue(i);
        assert_eq!(q.dequeue(), Some(i));
    }
}

#[test]
fn sheet_costs_at_most_the_queue_and_one_block_per_recording_thread() {
    // The test runner's own thread finishes its bookkeeping for this test
    // (about 900 B) while the test starts; let it, so that no window below
    // counts it.
    std::thread::sleep(std::time::Duration::from_millis(20));
    // Probes on ≤ 2× probes off for an empty default queue: the sheet is
    // no bigger than everything else the queue allocates.
    let sheet_bytes = {
        let (bytes, _sheet) = bytes_during(|| TelemetrySheet::new(DEFAULT_MAX_THREADS));
        bytes
    };
    let (queue_bytes, q) = bytes_during(TurnQueue::<u64>::new);
    let rest = queue_bytes - sheet_bytes;
    println!("empty TurnQueue::new(): {queue_bytes} B, of which the sheet {sheet_bytes} B");
    assert!(
        sheet_bytes <= rest,
        "sheet {sheet_bytes} B outweighs the rest of the queue ({rest} B)"
    );
    assert_eq!(
        q.telemetry().latency_blocks(),
        0,
        "a block before any sample"
    );

    // A thread's first operation is always timed: it publishes this
    // thread's block, and nothing else in the sheet allocates.
    let (first, ()) = bytes_during(|| pairs(&q, 1_000));
    let blocks = q.telemetry().latency_blocks();
    assert_eq!(
        blocks,
        usize::from(ENABLED),
        "one block per recording thread"
    );
    let block_bytes = (blocks * LATENCY_BLOCK_BYTES) as u64;
    // The queue's own warm-up: until the thread's retired list reaches
    // `retired_bound` and its scan refills the pool, every node comes from
    // the allocator, and the list grows by doubling to that length.
    let bound = retired_bound(DEFAULT_MAX_THREADS, TURN_HAZARDS);
    // A default per-item pool list holds `POOL_LIST_BYTES` of nodes.
    let node_bytes = POOL_LIST_BYTES / q.pool_capacity();
    let warm_up =
        (bound * node_bytes + 2 * bound.next_power_of_two() * std::mem::size_of::<usize>()) as u64;
    println!(
        "first 1000 pairs: {first} B, of which latency blocks {block_bytes} B \
         and at most {warm_up} B the queue's warm-up"
    );
    // Beyond the warm-up the queue allocates little, so a slack under
    // 1 KiB leaves no room for a second per-thread block beside the
    // latency block.
    assert!(
        first >= block_bytes && first - block_bytes < warm_up + 1024,
        "first 1000 pairs allocated {first} B: one {LATENCY_BLOCK_BYTES} B block, the \
         {warm_up} B warm-up and at least 1 KiB more, so something besides the latency \
         block allocates per thread"
    );

    // From then on the sheet never allocates (and a warm queue neither).
    let (next, ()) = bytes_during(|| pairs(&q, 1_000));
    assert_eq!(next, 0, "the next 1000 pairs allocated {next} B");
    assert_eq!(q.telemetry().latency_blocks(), blocks);
}
