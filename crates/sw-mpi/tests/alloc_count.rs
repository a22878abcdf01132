//! Proof that the MPE's per-call library work is allocation-free once
//! warm: a `progress` call on a rank with nothing to act on, and draining
//! the receive-completion queue into a reused buffer, perform **zero**
//! heap allocations. These are the two calls the rank scheduler makes on
//! every pass of its drive loop.
//!
//! Uses a counting `#[global_allocator]` that counts per thread, so the
//! tests of this binary may run concurrently: each measures only the
//! allocations of the thread it runs on (same harness as
//! `sw-telemetry/tests/alloc_count.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sw_mpi::{MpiWorld, RecvHandle};
use sw_sim::{Machine, MachineConfig, MachineEvent, SimTime};

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

/// Deliver every pending wire event to the world.
fn drain(m: &mut Machine, w: &mut MpiWorld) {
    while let Some((_, ev)) = m.pop() {
        if let MachineEvent::NetDeliver { token, .. } = ev {
            w.on_wire(token);
        }
    }
}

/// Two ranks after some completed traffic, so every lazily grown buffer
/// has been touched once.
fn warm_world() -> (Machine, MpiWorld) {
    let mut m = Machine::new(MachineConfig::sw26010(), 2);
    let mut w = MpiWorld::new(2);
    for tag in 0..8 {
        w.isend(&mut m.ctx(0), 0, 1, tag, 64, None, SimTime::ZERO);
        w.irecv(1, 0, tag);
    }
    drain(&mut m, &mut w);
    let now = m.now();
    assert_eq!(w.progress(1, &mut m.ctx(1), now), 8);
    (m, w)
}

#[test]
fn progress_with_an_empty_ready_index_is_zero_alloc() {
    let (mut m, mut w) = warm_world();
    // A message on the wire and its posted receive: live traffic on both
    // ranks, but nothing either can act on until the packet lands.
    let now = m.now();
    w.isend(&mut m.ctx(0), 0, 1, 99, 64, None, now);
    w.irecv(1, 0, 99);
    assert_eq!((w.outstanding(0), w.outstanding(1)), (1, 1));
    // More calls than the compaction cadence, so the cadenced compaction
    // runs inside the measured window too.
    let n = allocs_of(|| {
        for _ in 0..1_000 {
            assert_eq!(w.progress(1, &mut m.ctx(1), now), 0);
            assert_eq!(w.progress(0, &mut m.ctx(0), now), 0);
        }
    });
    assert_eq!(
        n, 0,
        "2000 idle progress calls allocated {n} times; the walk over an \
         empty ready index must reuse its buffer"
    );
}

#[test]
fn take_completed_into_a_warm_buffer_is_zero_alloc() {
    let (_m, mut w) = warm_world();
    let mut out: Vec<RecvHandle> = Vec::with_capacity(16);
    let n = allocs_of(|| w.take_completed(1, &mut out));
    assert_eq!(out.len(), 8, "all eight completions drained");
    assert_eq!(n, 0, "draining 8 completions allocated {n} times");
    let n = allocs_of(|| {
        for _ in 0..1_000 {
            w.take_completed(1, &mut out);
        }
    });
    assert!(out.is_empty());
    assert_eq!(n, 0, "draining an empty queue allocated {n} times");
}
