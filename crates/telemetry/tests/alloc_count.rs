//! Proof of the "zero-cost-when-disabled" recorder contract: recording
//! through a disabled [`Recorder`] performs **zero** heap allocations —
//! the hot path is a single branch on `Option<Arc<Inner>>`.
//!
//! Uses a counting `#[global_allocator]` that counts per thread, so the
//! tests of this binary may run concurrently: each measures only the
//! allocations of the thread it runs on (same harness as
//! `sw-athread/tests/alloc_count.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sw_telemetry::{Event, Lane, Recorder};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per-thread, so tests the harness
    /// runs concurrently cannot pollute each other's counts. A `const`
    /// initializer on a `Copy` cell needs no lazy set-up or destructor, so
    /// the allocator can touch it safely.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Count one allocation on the current thread.
fn bump() {
    // `try_with` only fails during thread teardown; nothing is measured then.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure pass-through to `System` plus a thread-local counter bump —
// the layout/ownership contracts of `GlobalAlloc` are delegated unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from the matching `alloc` above, which
        // returned a `System` allocation.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of `f` on this thread.
fn allocs_of<F: FnMut()>(mut f: F) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn disabled_recorder_is_zero_alloc() {
    let rec = Recorder::off();
    // Record a representative mix of events through the disabled handle:
    // exactly zero allocations, not "few".
    let n = allocs_of(|| {
        for i in 0..10_000u64 {
            rec.record(
                0,
                i,
                Lane::Cpe((i % 8) as u32),
                Event::OffloadStart {
                    patch: i as usize,
                    token: i,
                },
            );
            rec.record(
                0,
                i,
                Lane::Mpe,
                Event::MsgPosted {
                    msg: i,
                    peer: 1,
                    tag: i,
                    bytes: 4096,
                    eager: false,
                },
            );
            rec.record(0, i, Lane::Mpe, Event::Mark { tag: "noop" });
        }
    });
    assert_eq!(
        n, 0,
        "disabled recorder allocated {n} times over 30k record calls; \
         the off path must be branch-only"
    );
    // Cloning a disabled handle is also free (Option<Arc> = None).
    let c = allocs_of(|| {
        for _ in 0..1_000 {
            let r2 = rec.clone();
            std::hint::black_box(&r2);
        }
    });
    assert_eq!(c, 0, "cloning a disabled recorder allocated {c} times");
}

#[test]
fn enabled_recorder_does_allocate_as_a_sanity_check() {
    // The counting allocator sees the enabled path allocate (buffer growth),
    // confirming the harness measures what we think it measures.
    let rec = Recorder::new(1);
    let n = allocs_of(|| {
        for i in 0..1_000u64 {
            rec.record(0, i, Lane::Mpe, Event::Mark { tag: "x" });
        }
    });
    assert!(
        n > 0,
        "enabled recorder recorded 1000 events with 0 allocs?"
    );
}
