//! The one scoped-thread executor: deterministic fan-out over work items
//! that each own what they mutate.
//!
//! The benchmark applications interleave collectives with *host-side
//! kernels*: loops that, for every PE, read that PE's buffers, compute the
//! functional result the device kernel would produce (MLP partial vectors,
//! BFS/CC frontier expansion, GNN aggregation, DLRM index routing) and
//! write it back. Those loops are embarrassingly parallel — each iteration
//! touches exactly one PE plus shared *immutable* inputs — and so are the
//! engine's cluster tasks (disjoint [`pim_sim::system::EgView`]s), the
//! baseline path's groups, the multi-host phases (one system per host) and
//! the benchmark sweep's cells. All of them fan out through
//! [`par_pes_with`], the only function here or in `pidcomm-bench` that
//! spawns threads:
//!
//! * **Budget**: callers pass the `threads` knob of
//!   [`crate::Communicator::with_threads`] (`0` = auto via
//!   [`super::parallel::auto_threads`], `1` = the serial reference path),
//!   so sweep-level, engine-level and host-kernel parallelism split one
//!   machine budget instead of oversubscribing it.
//! * **Determinism**: workers pull items from one shared queue (items may
//!   differ tenfold in length — sweep cells do), every item gets exclusive
//!   `&mut` access to itself, and every per-item result lands in a
//!   pre-sized slot returned in item order. Nothing about the outcome —
//!   bytes written, results returned, or any fold over them — can depend
//!   on which worker ran what when, which is what keeps app outputs and
//!   modeled times byte-identical to serial at any thread count (pinned by
//!   `app_sweep_determinism` and `parallel_determinism`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use super::parallel::effective_threads;

/// Renders a caught panic payload as a human-readable message (the `&str`
/// / `String` payloads `panic!` produces; anything else is opaque).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f(i, &mut items[i])` for every item — one item per PE in the
/// apps' use — on up to `threads` scoped worker threads, and returns the
/// per-item results in item order.
///
/// `threads` follows the engine convention: `0` = auto
/// ([`crate::auto_threads`]), `1` = serial on the caller's thread, and the
/// count is clamped to the number of items. The closure must only mutate
/// its own item (plus closure-local state); shared captures are `&`-borrowed
/// and therefore immutable, so parallel runs are byte-identical to serial.
///
/// Typical app shape, with `sys` a [`pim_sim::PimSystem`]:
///
/// ```
/// use pim_sim::{DimmGeometry, PimSystem};
///
/// let mut sys = PimSystem::new(DimmGeometry::single_rank());
/// let kernel_ns = pidcomm::par_pes(sys.pes_mut(), 0, |pid, pe| {
///     pe.write(0, &(pid as u64).to_le_bytes());
///     16.0 * pid as f64 // modeled per-PE kernel time
/// });
/// let max = kernel_ns.iter().fold(0.0f64, |a, &b| a.max(b));
/// assert_eq!(max, 16.0 * 63.0);
/// ```
pub fn par_pes<T: Send, R: Send>(
    items: &mut [T],
    threads: usize,
    f: impl Fn(usize, &mut T) -> R + Sync,
) -> Vec<R> {
    par_pes_with(items, threads, || (), |(), i, x| f(i, x))
}

/// As [`par_pes`], but each worker thread owns a private scratch value
/// built by `init()` when the worker starts and passed to every item that
/// worker executes — so small per-item buffers (a BFS visited-bitmap
/// clone, a CC label staging array, a DLRM routing chunk) are allocated
/// once per *worker* instead of once per *PE*, which is what keeps clone
/// traffic flat as PE counts grow.
///
/// The determinism contract extends the [`par_pes`] one: the scratch must
/// not let one item's *result* depend on which items ran before it on the
/// same worker. A buffer that every item fully overwrites (`fill`,
/// `copy_from_slice`, `clear` + `resize`) qualifies; an accumulator does
/// not. The serial path (`threads == 1`) threads a single scratch value
/// through every item in order, so it exercises maximal reuse — any
/// contract violation diverges from it at the first parallel run (pinned
/// by `app_sweep_determinism`).
///
/// # Panics
///
/// A panicking item is *contained*: the worker catches it, rebuilds its
/// scratch, and keeps pulling from the queue, so siblings complete and
/// every healthy item's effect lands. Only once all workers drain does
/// the call re-panic — with the poisoned item count and the first failing
/// item index and message — instead of an anonymous unwind from whichever
/// worker died first.
pub fn par_pes_with<T: Send, R: Send, S>(
    items: &mut [T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let t = effective_threads(threads, n);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let poisoned: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let mut queue = items.iter_mut().zip(slots.iter_mut()).enumerate();
    if t <= 1 {
        drain(|| queue.next(), &init, &f, &poisoned);
    } else {
        // Workers pull the next item from one shared queue, so a worker
        // that drew short items takes over what is left of a long one's
        // share; every result still lands in its own slot.
        let queue = Mutex::new(queue);
        let pull = || queue.lock().expect(NEVER_POISONED).next();
        std::thread::scope(|s| {
            for _ in 0..t {
                s.spawn(|| drain(pull, &init, &f, &poisoned));
            }
        });
    }
    let mut poisoned = poisoned.into_inner().expect(NEVER_POISONED);
    if !poisoned.is_empty() {
        // First in item order, not completion order.
        poisoned.sort_by_key(|(i, _)| *i);
        let (i, msg) = &poisoned[0];
        panic!(
            "{count} item(s) panicked; first at item {i}: {msg}",
            count = poisoned.len()
        );
    }
    slots.into_iter().map(|r| r.expect("item ran")).collect()
}

/// Item panics are caught outside the executor's locks, so neither can be
/// poisoned.
const NEVER_POISONED: &str = "no code that can panic runs under this lock";

/// One worker of [`par_pes_with`]: builds its scratch, then runs the items
/// `next` hands out until the queue is dry, containing item panics.
fn drain<'a, T: 'a, R: 'a, S>(
    mut next: impl FnMut() -> Option<(usize, (&'a mut T, &'a mut Option<R>))>,
    init: &impl Fn() -> S,
    f: &impl Fn(&mut S, usize, &mut T) -> R,
    poisoned: &Mutex<Vec<(usize, String)>>,
) {
    let mut scratch = init();
    while let Some((i, (x, slot))) = next() {
        match catch_unwind(AssertUnwindSafe(|| f(&mut scratch, i, x))) {
            Ok(r) => *slot = Some(r),
            Err(payload) => {
                poisoned
                    .lock()
                    .expect(NEVER_POISONED)
                    .push((i, panic_message(payload.as_ref())));
                // The unwind may have left the scratch mid-update;
                // rebuild it so later items see clean state.
                scratch = init();
            }
        }
    }
}

/// Runs `f(c, chunk_c)` over the `chunk_len`-sized chunks of `data` (the
/// last chunk may be shorter), on up to `threads` scoped worker threads,
/// returning per-chunk results in chunk order. The host-buffer-building
/// twin of [`par_pes`]: apps use it to fill per-PE slots of one big
/// scatter staging buffer concurrently.
///
/// # Panics
///
/// Panics if `chunk_len == 0` and `data` is non-empty — a zero chunk
/// length would silently decouple chunk indices from the caller's per-PE
/// layout.
pub fn par_chunks<T: Send, R: Send>(
    data: &mut [T],
    chunk_len: usize,
    threads: usize,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    assert!(
        chunk_len > 0 || data.is_empty(),
        "par_chunks needs a non-zero chunk length"
    );
    let mut chunks: Vec<&mut [T]> = data.chunks_mut(chunk_len.max(1)).collect();
    par_pes(&mut chunks, threads, |i, c| f(i, c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_pes_visits_in_index_order_results() {
        for threads in [1, 2, 3, 7, 64] {
            let mut items: Vec<u32> = (0..33).collect();
            let out = par_pes(&mut items, threads, |i, x| {
                *x += 1;
                i as u32 * 10
            });
            assert!(items.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
            assert_eq!(
                out,
                (0..33).map(|i| i * 10).collect::<Vec<_>>(),
                "{threads}"
            );
        }
    }

    #[test]
    fn par_pes_visits_every_item_once() {
        for threads in [1, 2, 7, 64] {
            let mut items: Vec<usize> = vec![0; 33];
            par_pes(&mut items, threads, |_, x| *x += 1);
            assert!(items.iter().all(|&x| x == 1), "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_covers_ragged_tail() {
        for threads in [1, 2, 5] {
            let mut data = vec![0u8; 23];
            let lens = par_chunks(&mut data, 5, threads, |c, chunk| {
                chunk.fill(c as u8 + 1);
                chunk.len()
            });
            assert_eq!(lens, vec![5, 5, 5, 5, 3]);
            assert!(data
                .iter()
                .enumerate()
                .all(|(i, &b)| b == (i / 5) as u8 + 1));
        }
    }

    #[test]
    fn par_pes_with_builds_scratch_once_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1usize, 2, 4, 16] {
            let inits = AtomicUsize::new(0);
            let mut items = vec![0u32; 37];
            // Scratch is a buffer every item fully overwrites — the
            // sanctioned pattern — and results must match the serial
            // fresh-buffer shape exactly.
            let out = par_pes_with(
                &mut items,
                threads,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    vec![0u8; 8]
                },
                |scratch, i, x| {
                    scratch.fill(i as u8);
                    *x = u32::from(scratch[7]) + 1;
                    scratch[0] as usize
                },
            );
            assert_eq!(out, (0..37).collect::<Vec<_>>(), "{threads}");
            assert!(items.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
            assert!(
                inits.load(Ordering::Relaxed) <= threads.max(1),
                "scratch built at most once per worker ({threads})"
            );
        }
    }

    #[test]
    fn uneven_items_keep_item_order_and_one_scratch_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Every seventh item does 100x the work of its neighbours, so the
        // workers' shares of the queue differ; neither the result order
        // nor the scratch count may depend on who drew what.
        let work = |rounds: usize| {
            (0..rounds).fold(1u64, |h, k| (h ^ k as u64).wrapping_mul(0x100_0000_01b3))
        };
        for threads in [1usize, 2, 3, 8] {
            let inits = AtomicUsize::new(0);
            let mut items: Vec<usize> = (0..50).collect();
            let out = par_pes_with(
                &mut items,
                threads,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i, x| {
                    let rounds = if i % 7 == 0 { 200_000 } else { 2_000 };
                    *x += 1;
                    (i, work(rounds))
                },
            );
            let want: Vec<(usize, u64)> = (0..50)
                .map(|i| (i, work(if i % 7 == 0 { 200_000 } else { 2_000 })))
                .collect();
            assert_eq!(out, want, "{threads}");
            assert!(items.iter().enumerate().all(|(i, &x)| x == i + 1));
            assert!(inits.load(Ordering::Relaxed) <= threads, "{threads}");
        }
    }

    #[test]
    fn poisoned_items_are_contained_and_reported_with_context() {
        for threads in [1usize, 4] {
            let mut items: Vec<u32> = (0..16).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_pes(&mut items, threads, |i, x| {
                    if i == 5 || i == 11 {
                        panic!("injected failure at item {i}");
                    }
                    *x += 100;
                })
            }))
            .expect_err("poisoned run must re-panic");
            let msg = panic_message(caught.as_ref());
            assert!(msg.contains("2 item(s) panicked"), "{threads}: {msg}");
            assert!(msg.contains("item 5"), "{threads}: {msg}");
            assert!(
                msg.contains("injected failure at item 5"),
                "{threads}: {msg}"
            );
            // Healthy items — including ones *after* the poisoned ones on
            // the same worker — still ran to completion.
            for (i, &x) in items.iter().enumerate() {
                let expect = if i == 5 || i == 11 {
                    i as u32
                } else {
                    i as u32 + 100
                };
                assert_eq!(x, expect, "item {i} at {threads} threads");
            }
        }
    }

    #[test]
    fn scratch_is_rebuilt_after_a_contained_panic() {
        let mut items = vec![0u8; 6];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_pes_with(
                &mut items,
                1,
                || vec![0u8; 4],
                |scratch, i, x| {
                    assert!(scratch.iter().all(|&b| b == 0), "scratch not rebuilt");
                    if i == 2 {
                        scratch.fill(0xee);
                        panic!("die mid-update");
                    }
                    *x = 1;
                },
            )
        }))
        .expect_err("must re-panic");
        assert!(panic_message(caught.as_ref()).contains("die mid-update"));
        assert_eq!(items, vec![1, 1, 0, 1, 1, 1]);
    }

    #[test]
    fn folds_over_results_match_serial() {
        let mut items = vec![0u64; 129];
        let serial = par_pes(&mut items, 1, |i, _| (i as f64).sqrt());
        for threads in [2, 8, 64] {
            let par = par_pes(&mut items, threads, |i, _| (i as f64).sqrt());
            let a = serial.iter().fold(0.0f64, |m, &v| m.max(v));
            let b = par.iter().fold(0.0f64, |m, &v| m.max(v));
            assert_eq!(a.to_bits(), b.to_bits(), "{threads}");
        }
    }
}
