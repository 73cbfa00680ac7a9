//! Sweep pool for independent benchmark cells.
//!
//! The figure regenerators run many independent `AppCase` × `OptLevel` ×
//! PE-count cells; cell runtimes vary by an order of magnitude (CC/LJ vs
//! MLP/16k), so static partitioning would leave workers idle. The pool is
//! `pidcomm`'s one executor (`par_pes_with`) with cells as its items:
//! workers pull the next cell from one shared queue, so a worker that drew
//! short cells takes the remaining work from one stuck on a long cell.
//!
//! Results land in a per-cell slot, so the output order is the submission
//! order no matter which worker finished which cell when — and every cell
//! is a self-contained simulation, so the results themselves are
//! byte-identical to a serial run at any worker count (enforced by
//! `tests/app_sweep_determinism.rs`).
//!
//! # Per-worker system arena
//!
//! Building a `PimSystem` (up to 1024 paged-MRAM PEs) and multi-megabyte
//! scatter staging buffers per cell and dropping them at the end costs a
//! measurable slice of a sweep's wall in the allocator. So each
//! [`run_cells_with`] worker constructs one private state value (`init()`)
//! when it starts and threads it through every cell it executes. The app sweep
//! instantiates that state as a [`pim_sim::SystemArena`] — apps check
//! systems and buffers out of the worker's arena and return them when the
//! cell completes, so *consecutive cells on one worker reuse the same
//! allocations*, zeroed in place.
//!
//! Arena lifecycle per cell: `arena.system(geom)` hands out an all-zero
//! reset system (pool hit) or builds a fresh one (miss);
//! `arena.raw_bytes(n)` does the same for DLRM's batch image, the one
//! staging image an app overwrites in full (the prepared tier takes the
//! same pool); the app recycles both before returning. A system
//! checkout is indistinguishable from a fresh allocation —
//! every read observes zeros, the meter is empty — so two consecutive
//! cells on one worker can never observe each other's state, and results
//! stay byte-identical to the fresh-allocation path at every worker count
//! (pinned by `tests/app_sweep_determinism.rs`).
//!
//! # One thread level
//!
//! The pool owns every thread of a sweep: its cells run serial inside it
//! (the app sweep passes `threads = 1` to every run), so `workers` is the
//! whole fan-out and no second level multiplies it.

/// Runs `f(0..cells)` on up to `workers` scoped threads pulling from a
/// shared queue, and returns the results in cell order.
///
/// `workers` follows the executor convention: `0` = auto
/// (`pidcomm::auto_threads`), and `1` runs the cells on the caller's
/// thread in order — the serial reference path.
///
/// # Panics
///
/// Panicking cells are contained and reported with context once all
/// workers have drained — see [`run_cells_with`].
pub fn run_cells<T, F>(cells: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_cells_with(cells, workers, || (), |(), i| f(i))
}

/// As [`run_cells`], but each worker thread owns a private state value
/// built by `init()` when the worker starts and passed to every cell that
/// worker executes — the hook the app sweep uses to give each worker a
/// reusable [`pim_sim::SystemArena`] (see the module docs).
///
/// The state must not let one cell's *results* depend on which cells ran
/// before it on the same worker; an arena qualifies because a checkout is
/// observationally a fresh allocation. With `workers == 1` a single state
/// value serves every cell on the caller's thread, in order — the serial
/// reference path, which therefore exercises maximal state reuse.
///
/// # Panics
///
/// A panicking cell is *contained*: the worker catches it, rebuilds its
/// state, and keeps pulling from the queue, so one bad cell does not
/// abort the rest of the sweep mid-flight. Only once every worker has
/// drained does the call re-panic, reporting how many cells were poisoned
/// and the lowest-numbered one with its panic message.
pub fn run_cells_with<T, S, I, F>(cells: usize, workers: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    // The cells are the executor's items; their state is its per-worker
    // scratch.
    let mut cells = vec![(); cells];
    pidcomm::par_pes_with(&mut cells, workers, init, |state, i, ()| f(state, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_submission_order() {
        for workers in [1, 2, 5, 16] {
            let out = run_cells(33, workers, |i| i * i);
            assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>(), "{workers}");
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..57).map(|_| AtomicU32::new(0)).collect();
        run_cells(57, 7, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn per_worker_state_is_built_once_per_worker_and_reused() {
        // Each worker counts the cells it executed in its private state;
        // the counts must cover all cells exactly once, and with one
        // worker a single state value must see every cell.
        let serial = run_cells_with(
            9,
            1,
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(serial, (1..=9).collect::<Vec<_>>(), "one state, in order");
        for workers in [2usize, 4, 16] {
            let cells = 33usize;
            let total = AtomicUsize::new(0);
            let states = AtomicUsize::new(0);
            let runs = run_cells_with(
                cells,
                workers,
                || {
                    states.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |seen, _| {
                    *seen += 1;
                    total.fetch_add(1, Ordering::Relaxed);
                    *seen
                },
            );
            assert_eq!(runs.len(), cells);
            // Every cell ran exactly once...
            assert_eq!(total.load(Ordering::Relaxed), cells, "{workers}");
            // ...state was built once per worker, not once per cell...
            assert!(states.load(Ordering::Relaxed) <= workers, "{workers}");
            // ...so by pigeonhole some worker's state served several
            // consecutive cells (the arena-reuse path).
            let max_seen = runs.iter().copied().max().unwrap();
            assert!(max_seen >= cells.div_ceil(workers), "{workers}");
        }
    }

    #[test]
    fn poisoned_cells_are_contained_and_reported() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for workers in [1usize, 4] {
            let done: Vec<AtomicUsize> = (0..12).map(|_| AtomicUsize::new(0)).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_cells(12, workers, |i| {
                    if i == 3 {
                        panic!("cell {i} exploded");
                    }
                    done[i].fetch_add(1, Ordering::Relaxed);
                })
            }))
            .expect_err("poisoned sweep must re-panic");
            let msg = pidcomm::panic_message(caught.as_ref());
            assert!(msg.contains("1 item(s) panicked"), "{workers}: {msg}");
            assert!(msg.contains("item 3"), "{workers}: {msg}");
            assert!(msg.contains("cell 3 exploded"), "{workers}: {msg}");
            // Every healthy cell — including those queued after the
            // poisoned one — still completed.
            for (i, c) in done.iter().enumerate() {
                let expect = usize::from(i != 3);
                assert_eq!(c.load(Ordering::Relaxed), expect, "{workers}: cell {i}");
            }
        }
    }

    #[test]
    fn state_is_rebuilt_after_a_contained_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_cells_with(
                6,
                1,
                || 0u32,
                |state, i| {
                    assert_eq!(*state & 0xff00, 0, "state not rebuilt");
                    if i == 2 {
                        *state = 0xee00;
                        panic!("die mid-update");
                    }
                    *state += 1;
                },
            )
        }))
        .expect_err("must re-panic");
        assert!(pidcomm::panic_message(caught.as_ref()).contains("die mid-update"));
    }
}
