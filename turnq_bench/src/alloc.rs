//! Counting global allocator that counts only while armed.
//!
//! Disarmed, each call pays one relaxed flag load and nothing else, so the
//! measured windows carry no shared-counter traffic. The driver arms it
//! around the single-threaded footprint probe (queue construction plus
//! prefill) to price live heap bytes per queued item.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};

/// The allocator type installed by this crate.
pub struct ArmedCounter;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

#[global_allocator]
static GLOBAL: ArmedCounter = ArmedCounter;

fn count(delta: i64) {
    if ARMED.load(Relaxed) {
        LIVE_BYTES.fetch_add(delta, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's layout
// unchanged; the counting only reads and updates two statistics atomics.
unsafe impl GlobalAlloc for ArmedCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Start counting (allocations add, frees subtract).
pub fn arm() {
    ARMED.store(true, Relaxed);
}

/// Stop counting; the live total keeps its value.
pub fn disarm() {
    ARMED.store(false, Relaxed);
}

/// Zero the live total (call while disarmed).
pub fn reset() {
    LIVE_BYTES.store(0, Relaxed);
}

/// Net bytes allocated while armed since the last [`reset`].
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Relaxed)
}
