//! Table 2 reproduction: progress conditions of memory-reclamation
//! schemes, with the paper's "epoch-based reclamation is blocking"
//! argument run as a live experiment rather than asserted.
//!
//! The experiment: one reader thread pins (epoch) / protects one node (HP)
//! and stalls. A writer then retires a stream of objects. Under epochs the
//! unreclaimed backlog grows linearly without bound; under HP it stays at
//! the wait-free bound `max_threads × k + 1`.

use turnq_harness::{Args, Table};

use turnq_hazard::epoch_demo::EpochDomain;
use turnq_hazard::{retired_bound, HazardPointers};

fn main() {
    let args = Args::from_env();
    let retire_count: usize = args.get_usize("retires").unwrap_or(10_000);

    println!("=== Table 2: progress of memory reclamation schemes ===\n");
    let mut table = Table::new(vec!["scheme", "protect op", "reclaim op"]);
    table.add_row(vec!["Hazard Pointers (this repo)", "lock-free/wf bounded", "wf bounded"]);
    table.add_row(vec![
        "Conditional Hazard Pointers (this repo)",
        "lock-free/wf bounded",
        "wf bounded",
    ]);
    table.add_row(vec!["RCU-Epoch", "wfpo", "blocking"]);
    table.add_row(vec!["Epoch-based (demo in this repo)", "wfpo", "blocking*"]);
    table.add_row(vec!["StackTrack", "lock-free", "lock-free"]);
    table.add_row(vec!["Drop the anchor", "lock-free", "lock-free"]);
    table.add_row(vec!["Pass the buck", "lock-free", "lock-free"]);
    println!("{table}");
    println!("* the paper argues 'wait-free unbounded' is a misnomer: a stalled reader");
    println!("  postpones reclamation forever. Demonstration with {retire_count} retires:\n");

    // --- Epoch: stalled reader, unbounded backlog. -----------------------
    let epoch: EpochDomain<u64> = EpochDomain::new(2);
    epoch.pin(1); // reader stalls inside its critical section
    for _ in 0..retire_count {
        let p = Box::into_raw(Box::new(0u64));
        // SAFETY: unique allocation, never shared.
        unsafe { epoch.retire(0, p) };
    }
    let epoch_backlog = epoch.retired_count(0);

    // --- HP: reader protects one object; backlog stays bounded. ----------
    const K: usize = 1;
    let hp: HazardPointers<u64> = HazardPointers::new(2, K);
    let pinned = Box::into_raw(Box::new(0u64));
    hp.protect_ptr(1, 0, pinned); // reader holds one hazard and stalls
    // SAFETY: unique allocation, unlinked.
    unsafe { hp.retire(0, pinned) };
    let mut hp_max_backlog = 0;
    for _ in 0..retire_count {
        let p = Box::into_raw(Box::new(0u64));
        // SAFETY: unique allocation, never shared.
        unsafe { hp.retire(0, p) };
        hp_max_backlog = hp_max_backlog.max(hp.retired_count(0));
    }

    let mut demo = Table::new(vec!["scheme", "retired", "unreclaimed backlog", "bound"]);
    demo.add_row(vec![
        "Epoch (1 stalled reader)".to_string(),
        retire_count.to_string(),
        epoch_backlog.to_string(),
        "none (grows forever)".to_string(),
    ]);
    demo.add_row(vec![
        "HP R=H+1 (1 stalled reader)".to_string(),
        (retire_count + 1).to_string(),
        hp_max_backlog.to_string(),
        format!("{} (= max_threads*k + 1)", retired_bound(2, K)),
    ]);
    println!("{demo}");

    assert_eq!(
        epoch_backlog, retire_count,
        "epoch demo must show a full backlog"
    );
    assert!(
        hp_max_backlog <= retired_bound(2, K),
        "HP backlog exceeded its wait-free bound"
    );
    println!("OK: epoch backlog grew to {epoch_backlog}; HP backlog never exceeded {hp_max_backlog}.");
}
