//! Table 1 reproduction: qualitative comparison of the MPMC queues.
//!
//! Unlike the paper's hand-written table, the rows here are generated from
//! each implementation's `QueueIntrospect::props()`, so the table cannot
//! drift from the code. Rows for FK and YMC (which this repository does
//! not implement — the paper excludes both from all measurements) are
//! printed from the paper's own text for completeness.
//!
//! Beyond the `--queues=` MPMC set, the table always carries the
//! memory-bounded contrast row (`turnq-bounded`), the design whose
//! memory bound the paper's wait-free reclamation is read against.

use turnq_api::{QueueIntrospect, QueueProps};
use turnq_bounded::BoundedQueue;
use turnq_harness::{Args, QueueKind, Table};

fn add_props_row(table: &mut Table, p: QueueProps) {
    table.add_row(vec![
        p.name.to_string(),
        p.progress_enqueue.to_string(),
        p.progress_dequeue.to_string(),
        p.consensus.to_string(),
        p.atomic_instructions.to_string(),
        p.reclamation.to_string(),
        p.min_memory.to_string(),
    ]);
}

fn main() {
    let args = Args::from_env();
    let kinds = QueueKind::parse_list(args.get("queues").or(Some("all")));
    println!("=== Table 1: characteristics of the implemented queues ===\n");

    let mut table = Table::new(vec![
        "queue",
        "enqueue()",
        "dequeue()",
        "consensus",
        "atomics",
        "reclamation",
        "min memory",
    ]);
    for kind in kinds {
        add_props_row(&mut table, kind.props());
    }
    // The memory-bounded ring (not part of the unbounded-MPMC `QueueKind`
    // dispatch: it can refuse an enqueue).
    add_props_row(&mut table, BoundedQueue::<u64>::props());
    println!("{table}");

    println!("not implemented here (excluded from all of the paper's own benchmarks, §4):");
    println!("  FK  — wf bounded / wf bounded, FK algorithm, FAA+CAS, TSO only, no reclamation, O(N^2)");
    println!("  YMC — wf unbounded / wf unbounded, FAA+Dijkstra, FAA+CAS, TSO only, epoch (flawed), O(N)");
    println!();
    println!("claims pinned by tests:");
    println!("  - Turn uses CAS only: core crate source scan (`core_uses_cas_only`)");
    println!("  - wait-free bounds: bounded-iteration loops in turn-queue (no unbounded retry)");
    println!("  - reclamation bounds: `retired_backlog_stays_bounded` (hazard), `reclamation.rs` (integration)");
}
