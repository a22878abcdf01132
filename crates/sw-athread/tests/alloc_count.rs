//! Proof that the steady-state tile loop performs no per-tile heap
//! allocation: executing the same patch through 16 tiles or 64 tiles costs
//! the same number of allocations, because each worker's `TilePool` stages
//! every tile through buffers sized once to the largest ghosted tile.
//!
//! Uses a counting `#[global_allocator]` that counts per thread, so other
//! tests running concurrently cannot pollute a measurement. It sees the
//! calling thread only: the parallel policy's workers run the same per-tile
//! loop the serial measurement covers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sw_athread::{
    assign_tiles, run_patch_functional_with, tiles_of, CpeTileKernel, Dims3, ExecPolicy, Field3,
    Field3Mut, TileCtx,
};

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

/// Allocation count of `f` on this thread's steady state.
fn allocs_of<F: FnMut()>(mut f: F) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Trivial ghost-1 kernel; the test measures the executor, not the math.
struct Smooth;

impl CpeTileKernel for Smooth {
    fn ghost(&self) -> usize {
        1
    }
    fn compute(&self, ctx: &mut TileCtx<'_>) {
        let d = ctx.tile.dims;
        for z in 0..d.2 {
            for y in 0..d.1 {
                for x in 0..d.0 {
                    let v = ctx.in_at(x, y, z, 0, 0, 0) + 0.5 * ctx.in_at(x, y, z, 1, 0, 0);
                    ctx.out_at(x, y, z, v);
                }
            }
        }
    }
}

/// Execute a pre-built tile plan: this (not plan construction, which is
/// cached per kernel in the scheduler) is the steady-state path measured.
fn run_once(
    patch: Dims3,
    assignment: &[Vec<sw_athread::TileDesc>],
    policy: ExecPolicy,
    input: &[f64],
    out: &mut Vec<f64>,
) {
    let gdims = (patch.0 + 2, patch.1 + 2, patch.2 + 2);
    run_patch_functional_with(
        policy,
        &Smooth,
        Field3 {
            data: input,
            dims: gdims,
        },
        &mut Field3Mut {
            data: out,
            dims: patch,
        },
        (0, 0, 0),
        assignment,
        64 * 1024,
        &[],
    )
    .expect("working set fits the LDM");
}

#[test]
fn tile_loop_is_zero_alloc_in_steady_state() {
    let patch: Dims3 = (32, 32, 32);
    let gdims = (patch.0 + 2, patch.1 + 2, patch.2 + 2);
    let input: Vec<f64> = (0..gdims.0 * gdims.1 * gdims.2)
        .map(|i| i as f64 * 1e-4)
        .collect();
    let mut out = vec![0.0; patch.0 * patch.1 * patch.2];
    // Pre-built plans, as the scheduler's per-kernel cache holds them.
    let coarse_plan = assign_tiles(&tiles_of(patch, (16, 16, 8)), 64); // 16 tiles
    let fine_plan = assign_tiles(&tiles_of(patch, (8, 8, 8)), 64); // 64 tiles

    // Warm up both shapes so lazy one-time allocations don't skew the count.
    run_once(patch, &coarse_plan, ExecPolicy::Serial, &input, &mut out);
    run_once(patch, &fine_plan, ExecPolicy::Serial, &input, &mut out);

    // Serial: 16 tiles vs 64 tiles over the same patch must allocate exactly
    // the same number of times. One `TilePool` (allocator + two staging
    // buffers) per call; nothing inside the per-tile loop touches the heap.
    let coarse = allocs_of(|| run_once(patch, &coarse_plan, ExecPolicy::Serial, &input, &mut out));
    let fine = allocs_of(|| run_once(patch, &fine_plan, ExecPolicy::Serial, &input, &mut out));
    assert_eq!(
        coarse, fine,
        "16-tile run allocated {coarse} times but 64-tile run allocated {fine}: \
         the tile loop is allocating per tile"
    );

    // Parallel: the calling thread's allocations (worker hand-off, result
    // gathering) scale with workers, never with tile count. 48 extra tiles
    // must not cost anywhere near even one extra allocation each.
    let policy = ExecPolicy::Parallel { threads: 2 };
    run_once(patch, &coarse_plan, policy, &input, &mut out);
    run_once(patch, &fine_plan, policy, &input, &mut out);
    let coarse_p = allocs_of(|| run_once(patch, &coarse_plan, policy, &input, &mut out));
    let fine_p = allocs_of(|| run_once(patch, &fine_plan, policy, &input, &mut out));
    let delta = fine_p.abs_diff(coarse_p);
    assert!(
        delta < 16,
        "64-tile parallel run allocated {fine_p} vs {coarse_p} for 16 tiles \
         (delta {delta}): allocations must not scale with tile count"
    );
}
