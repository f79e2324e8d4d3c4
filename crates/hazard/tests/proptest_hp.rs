//! Property tests for the hazard-pointer domain: random single-threaded
//! protect/clear/retire programs against a bookkeeping model.
//!
//! The model keeps its own copy of the retired list and scans it exactly
//! when the domain must: on the retire that brings the list to
//! `retired_bound`. Invariants checked after every step:
//! * the domain's backlog equals the model's, so an unprotected object is
//!   freed no later than the retire that brings the list to the bound,
//!   and after that scan only protected objects remain;
//! * the drop count equals allocations minus the objects still live, so
//!   every object is freed exactly once and a protected one never;
//! * the retired backlog never exceeds `retired_bound`;
//! * clearing all slots and retiring throwaways up to the bound empties
//!   the backlog.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use turnq_hazard::{retired_bound, HazardPointers};

const SLOTS: usize = 2;
const THREADS: usize = 2;

struct Tracked {
    drops: Arc<AtomicUsize>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate an object and protect it in slot `s` (displacing whatever
    /// was protected there; the displaced object, if retired, becomes
    /// fair game for the next scan).
    ProtectNew(usize),
    /// Retire the object currently protected by slot `s` (if any, and not
    /// already retired). It must survive while the slot stays put.
    RetireProtected(usize),
    /// Clear slot `s`.
    Clear(usize),
    /// Allocate and immediately retire an unprotected object — freed by the
    /// next scan at the bound at the latest.
    RetireFresh,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SLOTS).prop_map(Op::ProtectNew),
        (0..SLOTS).prop_map(Op::RetireProtected),
        (0..SLOTS).prop_map(Op::Clear),
        Just(Op::RetireFresh),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn protect_retire_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let drops = Arc::new(AtomicUsize::new(0));
        let hp: HazardPointers<Tracked> = HazardPointers::new(THREADS, SLOTS);
        let tid = 0;

        // Model state: what each slot protects, and whether that object
        // has been retired already.
        let mut slot_ptr: [Option<*mut Tracked>; SLOTS] = [None; SLOTS];
        let mut slot_retired: [bool; SLOTS] = [false; SLOTS];
        let mut allocated: u64 = 0;
        // The model's retired list: retired objects not yet freed.
        let mut pending: Vec<*mut Tracked> = Vec::new();
        let bound = retired_bound(THREADS, SLOTS);
        // Model of one retire: push, and scan when the list reaches the
        // bound, keeping only what a slot still protects.
        let retire = |pending: &mut Vec<*mut Tracked>, slot_ptr: &[Option<*mut Tracked>], p| {
            pending.push(p);
            if pending.len() == bound {
                pending.retain(|q| slot_ptr.contains(&Some(*q)));
            }
        };

        let alloc = |drops: &Arc<AtomicUsize>| -> *mut Tracked {
            Box::into_raw(Box::new(Tracked { drops: Arc::clone(drops) }))
        };

        for op in ops {
            match op {
                Op::ProtectNew(s) => {
                    // A displaced *retired* object stays owned by the
                    // domain (freed by a later scan); a displaced
                    // *unretired* object was only ever owned by this test,
                    // so reclaim it here.
                    if let (Some(old), false) = (slot_ptr[s], slot_retired[s]) {
                        // SAFETY: never retired -> the domain will not free
                        // it; no other slot holds it (allocations are
                        // fresh per protect).
                        unsafe { drop(Box::from_raw(old)) };
                    }
                    let p = alloc(&drops);
                    allocated += 1;
                    hp.protect_ptr(tid, s, p);
                    slot_ptr[s] = Some(p);
                    slot_retired[s] = false;
                }
                Op::RetireProtected(s) => {
                    if let Some(p) = slot_ptr[s] {
                        if !slot_retired[s]
                            // The same pointer may be protected in the other
                            // slot too; retire only once.
                            && !(0..SLOTS).any(|o| o != s && slot_ptr[o] == Some(p) && slot_retired[o])
                        {
                            // SAFETY: unique retire of a Box-allocated ptr;
                            // single-threaded test, tid exclusivity holds.
                            unsafe { hp.retire(tid, p) };
                            slot_retired[s] = true;
                            retire(&mut pending, &slot_ptr, p);
                        }
                    }
                }
                Op::Clear(s) => {
                    hp.clear_one(tid, s);
                    if let (Some(old), false) = (slot_ptr[s], slot_retired[s]) {
                        // SAFETY: as in ProtectNew — test-owned object.
                        unsafe { drop(Box::from_raw(old)) };
                    }
                    slot_ptr[s] = None;
                    slot_retired[s] = false;
                }
                Op::RetireFresh => {
                    let p = alloc(&drops);
                    allocated += 1;
                    // SAFETY: unique, unlinked, unprotected.
                    unsafe { hp.retire(tid, p) };
                    retire(&mut pending, &slot_ptr, p);
                }
            }
            prop_assert_eq!(
                hp.retired_count(tid),
                pending.len(),
                "backlog differs from the model's scan at the bound"
            );
            prop_assert!(
                hp.retired_count(tid) <= bound,
                "backlog exceeded the wait-free bound"
            );
            let unretired = (0..SLOTS)
                .filter(|&s| slot_ptr[s].is_some() && !slot_retired[s])
                .count();
            prop_assert_eq!(
                drops.load(Ordering::SeqCst) as u64,
                allocated - (unretired + pending.len()) as u64,
                "an object was freed early, late or twice"
            );
        }

        // Teardown: everything must be freed exactly once overall —
        // clear slots, retire throwaways up to the bound so a scan runs,
        // then drop the domain (which frees the remainder) and drop
        // still-live protected objects that were never retired.
        hp.clear(tid);
        let clear_slots = [None; SLOTS];
        while !pending.is_empty() {
            let throwaway = alloc(&drops);
            allocated += 1;
            // SAFETY: unprotected fresh object.
            unsafe { hp.retire(tid, throwaway) };
            retire(&mut pending, &clear_slots, throwaway);
        }
        prop_assert_eq!(hp.retired_count(tid), 0, "flush left a backlog");

        // Objects still protected-and-not-retired are owned by the test.
        let mut freed_by_us = std::collections::HashSet::new();
        for s in 0..SLOTS {
            if let (Some(p), false) = (slot_ptr[s], slot_retired[s]) {
                if freed_by_us.insert(p) {
                    // SAFETY: never retired, so never freed by the domain.
                    unsafe { drop(Box::from_raw(p)) };
                }
            }
        }
        drop(hp);
        prop_assert_eq!(
            drops.load(Ordering::SeqCst) as u64,
            allocated,
            "alloc/free imbalance at teardown"
        );
    }
}
