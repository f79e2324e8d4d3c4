//! Table 4 reproduction: memory usage per queue — node and request sizes,
//! fixed per-thread footprint, and heap allocations per item.
//!
//! The sizes come from `core::mem::size_of` on the real Rust types
//! (unpadded logical layout, exactly how the paper's table is framed);
//! the allocations-per-item row is *measured* with a counting global
//! allocator over a live enqueue+dequeue workload, and the alloc/free
//! balance over the queue's whole life doubles as a leak check (the test
//! the FK queue fails per §4): the binary exits non-zero when any row's
//! leak count is not 0.

use turnq_api::{QueueIntrospect, SizeReport};
use turnq_bounded::BoundedFamily;
use turnq_harness::memusage::{
    alloc_snapshot, measure_family, measure_life, measure_memory, LifeWindows, MemMeasurement,
};
use turnq_harness::{Args, QueueKind, Table};
use turn_queue::TurnQueue;

#[global_allocator]
static ALLOC: turnq_harness::CountingAllocator = turnq_harness::CountingAllocator;

/// The two-window protocol with split roles on the Turn queue: one
/// producer thread that pauses while more than 1,024 items are queued and
/// one consumer thread, both spinning while they wait (two threads that
/// keep yielding to each other can stay on one core, where each time
/// slice moves far more nodes than the depot carries). The windows are
/// `items` dequeues each, timed on the consumer; the first also covers
/// spawning the threads and the producer's first backlog. Nodes reach the
/// producer only through the pool's depot (a consumer's full free list
/// handed over whole), so this row prices that hand-over; with
/// `pool_capacity(0)` every item would allocate.
fn measure_turn_split_roles(items: u64) -> MemMeasurement {
    use std::sync::atomic::{AtomicU64, Ordering};
    const BACKLOG: u64 = 1_024;

    measure_life(items, || {
        let q: TurnQueue<u64> = TurnQueue::<u64>::builder().max_threads(4).build();
        let consumed = AtomicU64::new(0);
        let before = alloc_snapshot();
        // Both threads are joined by handle, which waits for their
        // thread-local destructors; the scope's own wait does not.
        let (mid, steady) = std::thread::scope(|s| {
            let producer = s.spawn(|| {
                for i in 0..2 * items {
                    while i - consumed.load(Ordering::Acquire) > BACKLOG {
                        std::hint::spin_loop();
                    }
                    q.enqueue(i);
                }
            });
            let windows = s
                .spawn(|| {
                    let dequeue_n = |n: u64| {
                        for _ in 0..n {
                            let got = loop {
                                match q.dequeue() {
                                    Some(v) => break v,
                                    None => std::hint::spin_loop(),
                                }
                            };
                            debug_assert_eq!(got, consumed.load(Ordering::Relaxed));
                            consumed.store(got + 1, Ordering::Release);
                        }
                        alloc_snapshot()
                    };
                    (dequeue_n(items), dequeue_n(items))
                })
                .join()
                .expect("consumer thread");
            producer.join().expect("producer thread");
            windows
        });
        LifeWindows {
            before,
            mid,
            steady,
            pool: Some(q.pool_stats()),
        }
    })
}

/// Adds the row; a nonzero leak count also goes on `leaks`.
fn add_measured_row(
    table: &mut Table,
    leaks: &mut Vec<String>,
    name: &str,
    r: SizeReport,
    m: MemMeasurement,
) {
    if m.leaked_allocs != 0 {
        leaks.push(format!("{name} ({})", m.leaked_allocs));
    }
    table.add_row(vec![
        name.to_string(),
        r.node_bytes.to_string(),
        r.enqueue_request_bytes.to_string(),
        r.dequeue_request_bytes.to_string(),
        r.fixed_per_thread_bytes.to_string(),
        format!(
            "{:.2} (min {})",
            m.allocs_per_item, r.min_heap_allocs_per_item
        ),
        format!(
            "{:.4} (claim {})",
            m.steady_allocs_per_item, r.steady_state_allocs_per_item
        ),
        match m.pool {
            Some(p) => format!(
                "{:.1}% ({} recycled)",
                p.hit_rate() * 100.0,
                p.recycled
            ),
            None => "-".to_string(),
        },
        m.leaked_allocs.to_string(),
    ]);
}

fn main() {
    let args = Args::from_env();
    let kinds = QueueKind::parse_list(args.get("queues").or(Some("all")));
    let items: u64 = args.get_usize("items").unwrap_or(50_000) as u64;
    println!("=== Table 4: memory usage (bytes; 64-bit, without padding) ===\n");

    let mut table = Table::new(vec![
        "queue",
        "sizeof(Node)",
        "sizeof(EnqReq)",
        "sizeof(DeqReq)",
        "fixed/thread",
        "allocs/item (measured)",
        "steady allocs/item",
        "pool hit rate",
        "leak after drop",
    ]);
    let mut leaks = Vec::new();
    for &kind in &kinds {
        eprintln!("measuring allocations for {} ({items} items) ...", kind.name());
        add_measured_row(
            &mut table,
            &mut leaks,
            kind.name(),
            kind.size_report(),
            measure_memory(kind, items),
        );
    }
    use turnq_api::QueueFamily;
    if kinds.contains(&QueueKind::Turn) {
        eprintln!("measuring allocations for Turn (1P:1C) ({items} items) ...");
        add_measured_row(
            &mut table,
            &mut leaks,
            "Turn (1P:1C)",
            QueueKind::Turn.size_report(),
            measure_turn_split_roles(items),
        );
    }
    // The memory-bounded contrast row (outside the `--queues=` MPMC
    // dispatch: the ring is pre-allocated and can refuse an enqueue — see
    // table1). The measured columns make the contrast the point: 0.0000
    // steady allocs/item against the node queues' per-item heap traffic.
    eprintln!("measuring allocations for Bounded ({items} items) ...");
    add_measured_row(
        &mut table,
        &mut leaks,
        "Bounded",
        <BoundedFamily as QueueFamily>::Queue::<u64>::size_report(),
        measure_family::<BoundedFamily>(items),
    );
    println!("{table}");
    println!("paper reference (Table 4):");
    println!("  KP:   node 24, req 80/80, fixed 8/thread, 5+ allocs/item (Java OpDesc = 80 B;");
    println!("        our native OpDesc is 24 B, and we box the value: +1 alloc)");
    println!("  Turn: node 24, req 0/0, fixed 24/thread, 1 alloc/item");
    println!("  (Turn's 1 alloc/item is what `pool_capacity(0)` measures; the default pool");
    println!("   recycles nodes, and `Turn (1P:1C)` prices the hand-over to a dedicated producer.)");
    println!("  (FK 16/32+/32N/80N/1 and YMC 40/16/16/72/3 are not implemented here — excluded by the paper.)");
    println!();

    let snap = alloc_snapshot();
    println!(
        "allocator totals: {} allocs, {} frees, {} bytes requested",
        snap.allocs, snap.frees, snap.bytes
    );
    if !leaks.is_empty() {
        eprintln!("leak check failed: {}", leaks.join(", "));
        std::process::exit(1);
    }
}
