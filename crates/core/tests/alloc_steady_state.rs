//! Proof of the arena-allocation contract behind the PDES engine's hot
//! loop: once warm, the per-step data structures perform **zero** heap
//! allocations in steady state.
//!
//! Two components carry the step loop's former allocation traffic:
//!
//! 1. The [`DataWarehouse`] arena — every timestep allocates and clears the
//!    same `(label, patch)` variable set, and the arena recycles the data
//!    buffers through a pool instead of freeing them (`var/dw.rs`).
//! 2. The [`EventQueue`] — the machine model schedules/pops millions of
//!    events, and the backing `BinaryHeap` retains its capacity across pops
//!    so bounded-occupancy traffic never reallocates.
//!
//! Uses a counting `#[global_allocator]` that counts per thread, so the
//! tests of this binary may run concurrently: each measures only the
//! allocations of the thread it runs on (same harness as
//! `sw-telemetry/tests/alloc_count.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sw_sim::{EventQueue, SimTime};
use uintah_core::{iv, DataWarehouse, Region};

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

/// One simulated timestep's warehouse traffic: allocate a stage variable
/// per patch, then clear (recycling every buffer into the pool).
fn warehouse_step(dw: &mut DataWarehouse, patches: usize, region: Region) {
    for p in 0..patches {
        let v = dw.allocate(0, p, region);
        v.set(iv(1, 1, 1), p as f64);
    }
    dw.clear();
}

#[test]
fn warehouse_steady_state_is_zero_alloc() {
    let mut dw = DataWarehouse::new();
    let region = Region::of_extent(iv(8, 8, 8)).grow(1);
    // Warm-up: intern the (label, patch) keys and fill the buffer pool.
    warehouse_step(&mut dw, 16, region);
    assert_eq!(dw.pooled(), 16, "warm-up parked every buffer in the pool");
    // Steady state: 1000 allocate/clear cycles over the same key set must
    // be exactly allocation-free — not "few", zero.
    let n = allocs_of(|| {
        for _ in 0..1_000 {
            warehouse_step(&mut dw, 16, region);
        }
    });
    assert_eq!(
        n, 0,
        "steady-state warehouse cycling allocated {n} times over 1000 \
         steps; the arena must recycle every buffer"
    );
}

#[test]
fn warehouse_put_take_cycle_is_zero_alloc_once_warm() {
    // The end-of-step path: `take` the output, copy, `put` it back, `clear`.
    let mut dw = DataWarehouse::new();
    let region = Region::of_extent(iv(4, 4, 4));
    for p in 0..8 {
        dw.allocate(0, p, region);
    }
    dw.clear();
    let n = allocs_of(|| {
        for _ in 0..1_000 {
            for p in 0..8 {
                dw.allocate(0, p, region);
            }
            for p in 0..8 {
                let v = dw.take(0, p).expect("allocated above");
                dw.put(0, p, v);
            }
            dw.clear();
        }
    });
    assert_eq!(
        n, 0,
        "take/put/clear cycling allocated {n} times; ownership moves must \
         not clone or reallocate"
    );
}

#[test]
fn event_queue_steady_state_is_zero_alloc() {
    let mut q: EventQueue<u64> = EventQueue::new();
    // Warm-up: push the queue to its peak occupancy once so the BinaryHeap
    // grows to final capacity.
    for i in 0..64u64 {
        q.schedule_at(SimTime(i), i);
    }
    while q.pop().is_some() {}
    // Steady state: bounded-occupancy schedule/pop churn reuses the
    // retained capacity.
    let mut t = 64u64;
    let n = allocs_of(|| {
        for _ in 0..10_000 {
            for k in 0..32 {
                q.schedule_at(SimTime(t + k), t + k);
            }
            for _ in 0..32 {
                q.pop();
            }
            t += 32;
        }
    });
    assert_eq!(
        n, 0,
        "steady-state event scheduling allocated {n} times over 320k \
         schedule/pop pairs; the heap must retain its capacity"
    );
}

#[test]
fn cold_warehouse_does_allocate_as_a_sanity_check() {
    // The counting allocator sees the cold path allocate (fresh buffers,
    // index growth), confirming the harness measures what we think.
    let n = allocs_of(|| {
        let mut dw = DataWarehouse::new();
        let region = Region::of_extent(iv(8, 8, 8));
        for p in 0..16 {
            dw.allocate(0, p, region);
        }
        std::hint::black_box(&dw);
    });
    assert!(n > 0, "16 cold allocations performed 0 heap allocs?");
}
