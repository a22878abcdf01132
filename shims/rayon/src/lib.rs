//! Fork-join parallelism on a persistent thread pool (offline stand-in for
//! `rayon`; see `shims/README.md`).
//!
//! The workspace needs exactly one parallel primitive: run `n` independent
//! tasks, possibly in parallel, and collect their results in index order.
//! [`fork_join`] is that primitive; [`current_num_threads`] sizes the
//! fan-outs.
//!
//! # The pool
//!
//! - **Lifecycle.** `current_num_threads() - 1` helper threads are started
//!   by the first [`fork_join`] with more than one task and live for the
//!   rest of the process. An idle helper blocks on a condition variable; it
//!   never spins, so a process that stops forking (or never forks) pays
//!   nothing for the pool.
//! - **Caller participation.** The calling thread publishes the job, runs
//!   index 0 itself, then claims every index no helper has taken yet. It
//!   only ever *waits* for indices another thread is already running.
//! - **Nesting and concurrency.** A task may itself call [`fork_join`], and
//!   any number of OS threads may call it at once. Every caller can finish
//!   its own job alone, so nested and concurrent calls cannot deadlock;
//!   helpers merely speed them up.
//! - **Panics.** A panicking task is caught on the thread that ran it. Once
//!   every claimed index has finished, the first payload is re-raised on
//!   the caller. The helpers survive, and the pool stays usable.
//!
//! Waking a parked helper costs on the order of ten microseconds, against
//! 40–50 µs to spawn two OS threads per call. That hand-off still counts
//! for fine-grained fan-outs (a PDES window barrier), so callers should
//! give each task real work.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::UnsafeCell;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of hardware threads available to this process.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `f(0)`, ..., `f(n - 1)`, potentially in parallel, and return the
/// results in index order.
///
/// The caller runs index 0 and any index no pool helper has claimed, so the
/// call completes even when every helper is busy (nested or concurrent
/// calls). If a task panics, the panic is re-raised here once all claimed
/// indices have finished.
pub fn fork_join<R, F>(n: usize, f: F) -> Vec<R>
where
    F: Fn(usize) -> R + Sync,
    R: Send,
{
    let helpers = if n > 1 { helpers() } else { 0 };
    if helpers == 0 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Slot<R>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
    let panicked = Mutex::new(None);
    let frame = Frame {
        f: &f,
        slots: &slots,
        panicked: &panicked,
    };
    let job = Arc::new(Job {
        call: run_index::<F, R>,
        frame: (&frame as *const Frame<'_, F, R>).cast(),
        n,
        next: AtomicUsize::new(1),
        done: AtomicUsize::new(0),
        finished: Mutex::new(()),
        all_done: Condvar::new(),
    });
    lock(&QUEUE).push(Arc::clone(&job));
    for _ in 0..(n - 1).min(helpers) {
        WAKE.notify_one();
    }
    // SAFETY: index 0 was reserved for the caller by `next` starting at 1.
    unsafe { job.finish(0) };
    job.work();
    lock(&QUEUE).retain(|j| !Arc::ptr_eq(j, &job));
    job.wait();
    // Every index has finished, so no other thread touches `frame` again.
    if let Some(payload) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| {
            s.0.into_inner()
                .expect("fork_join: a task produced no result")
        })
        .collect()
}

/// A panic payload caught from a task.
type Payload = Box<dyn Any + Send>;

/// One task's result cell. Index `i`'s cell is written only by the thread
/// that claimed `i`, and read only after the job is done.
struct Slot<R>(UnsafeCell<Option<R>>);

// SAFETY: each slot is written by exactly one thread (the claimer of its
// index) and read by the caller only after that write happened-before the
// job's completion count reached `n` (see `Job::finish` / `Job::wait`).
unsafe impl<R: Send> Sync for Slot<R> {}

/// The caller's stack frame, reached by the threads that run its tasks.
struct Frame<'a, F, R> {
    f: &'a F,
    slots: &'a [Slot<R>],
    panicked: &'a Mutex<Option<Payload>>,
}

/// Run index `i` of the job whose frame is `frame`, catching a panic.
///
/// # Safety
/// `frame` must point to a live `Frame<F, R>`, and `i` must be an index
/// claimed by the calling thread.
unsafe fn run_index<F, R>(frame: *const (), i: usize)
where
    F: Fn(usize) -> R + Sync,
    R: Send,
{
    // SAFETY: the caller of `fork_join` keeps the frame alive until every
    // claimed index has finished, and this index is claimed.
    let frame = unsafe { &*frame.cast::<Frame<'_, F, R>>() };
    match panic::catch_unwind(AssertUnwindSafe(|| (frame.f)(i))) {
        // SAFETY: only the claimer of `i` writes slot `i`.
        Ok(r) => unsafe { *frame.slots[i].0.get() = Some(r) },
        Err(payload) => {
            lock(frame.panicked).get_or_insert(payload);
        }
    }
}

/// A published fork-join call, shared with the helpers.
struct Job {
    /// Type-erased [`run_index`] for the caller's closure and result types.
    call: unsafe fn(*const (), usize),
    /// The caller's [`Frame`].
    frame: *const (),
    n: usize,
    /// Next unclaimed index. `Relaxed` suffices: a claim publishes no data
    /// (the frame was published through the `QUEUE` mutex).
    next: AtomicUsize,
    /// Indices finished so far. Each finisher's `Release` increment pairs
    /// with the caller's `Acquire` load in [`Job::wait`], so every slot and
    /// panic payload written by a task is visible once the count reads `n`.
    done: AtomicUsize,
    finished: Mutex<()>,
    all_done: Condvar,
}

// SAFETY: `frame` is dereferenced only through `finish`, for indices
// claimed from `next`, and the caller keeps the frame alive until all `n`
// of them are done. Everything else in the job is thread-safe.
unsafe impl Send for Job {}
// SAFETY: as for `Send`.
unsafe impl Sync for Job {}

impl Job {
    /// Whether some index is still unclaimed.
    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n
    }

    /// Claim and run indices until none is left.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            // SAFETY: `i` was just claimed by this thread.
            unsafe { self.finish(i) };
        }
    }

    /// Run index `i` and count it done, waking the caller after the last.
    ///
    /// # Safety
    /// `i` must be claimed by the calling thread.
    unsafe fn finish(&self, i: usize) {
        // SAFETY: the frame outlives every claimed index (see `Job`).
        unsafe { (self.call)(self.frame, i) };
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            let _guard = lock(&self.finished);
            self.all_done.notify_all();
        }
    }

    /// Block until every index has finished.
    fn wait(&self) {
        let mut guard = lock(&self.finished);
        while self.done.load(Ordering::Acquire) < self.n {
            guard = self
                .all_done
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Jobs with (possibly) unclaimed indices, oldest first.
static QUEUE: Mutex<Vec<Arc<Job>>> = Mutex::new(Vec::new());

/// Signalled when a job is published.
static WAKE: Condvar = Condvar::new();

/// Lock ignoring poison: no code holding these locks can panic mid-update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of pool helpers, starting them on first use. Helpers are never
/// joined: they live as long as the process, and no task panic reaches
/// them (each is caught in [`run_index`]).
fn helpers() -> usize {
    static HELPERS: OnceLock<usize> = OnceLock::new();
    *HELPERS.get_or_init(|| {
        let n = current_num_threads() - 1;
        for i in 0..n {
            std::thread::Builder::new()
                .name(format!("fork-join-{i}"))
                .spawn(helper_loop)
                .expect("rayon-shim: cannot start a pool helper");
        }
        n
    })
}

/// A helper's life: take the oldest job with work, drain it, repeat; park
/// while the queue is empty.
fn helper_loop() {
    let mut queue = lock(&QUEUE);
    loop {
        queue.retain(|j| j.has_work());
        match queue.first().cloned() {
            Some(job) => {
                drop(queue);
                job.work();
                queue = lock(&QUEUE);
            }
            None => queue = WAKE.wait(queue).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_index_order() {
        let out = fork_join(8, |i| i * i);
        assert_eq!(out, (0..8).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_task_calls() {
        assert!(fork_join(0, |i| i).is_empty());
        assert_eq!(fork_join(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn more_tasks_than_threads_all_run_once() {
        let n = 4 * current_num_threads() + 3;
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = fork_join(n, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn tasks_may_borrow_the_environment() {
        let data = [1u64, 2, 3, 4];
        let sums = fork_join(2, |i| data[2 * i..2 * i + 2].iter().sum::<u64>());
        assert_eq!(sums, vec![3, 7]);
    }

    #[test]
    fn nested_calls_complete() {
        let out = fork_join(3, |i| fork_join(4, |j| 10 * i + j).iter().sum::<usize>());
        assert_eq!(out, vec![6, 46, 86]);
    }

    #[test]
    fn concurrent_callers_all_finish() {
        let totals: Vec<usize> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..4)
                .map(|t| {
                    s.spawn(move || {
                        (0..50)
                            .map(|k| fork_join(3, |i| t + k + i).iter().sum::<usize>())
                            .sum::<usize>()
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, total) in totals.into_iter().enumerate() {
            assert_eq!(total, (0..50).map(|k| 3 * (t + k) + 3).sum::<usize>());
        }
    }

    #[test]
    fn a_panic_reaches_the_caller_and_the_pool_survives() {
        let finished = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            fork_join(4, |i| {
                if i == 2 {
                    panic!("task 2 failed");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = caught.expect_err("the task panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 2 failed"));
        // Every other claimed index ran to completion before the re-raise.
        assert_eq!(finished.load(Ordering::Relaxed), 3);
        assert_eq!(fork_join(4, |i| i), vec![0, 1, 2, 3]);
    }
}
