//! The work-stealing sweep pool, the apps' engine threading, the
//! host-kernel executor (`pidcomm::par_pes`) and the per-worker system
//! arena are pure execution knobs: every budget, host-kernel thread count
//! and arena-reuse pattern must produce `AppProfile`s, modeled CPU times
//! and validation results byte-identical to the serial fresh-allocation
//! reference schedule — the one `tests/pins.rs` pins bit for bit
//! (`BENCH_apps_small.json`), so every schedule here is pinned with it.

use pidcomm::{OptLevel, PlanCache};
use pidcomm_bench::apps;
use pidcomm_bench::sweep::SweepBudget;
use pim_sim::SystemArena;

#[test]
fn app_sweep_matches_serial_at_every_thread_count() {
    let cases = apps::small_cases();
    let cells = apps::base_vs_full_cells(cases.len(), 64);
    let reference = apps::run_app_sweep(&cases, &cells, SweepBudget::serial());
    assert!(
        reference.iter().all(|r| r.validated),
        "every app must validate against its CPU reference"
    );
    for total in [0usize, 2, 4] {
        let budget = SweepBudget::split(total, cells.len());
        let runs = apps::run_app_sweep(&cases, &cells, budget);
        assert_eq!(runs.len(), reference.len());
        for ((cell, serial), parallel) in cells.iter().zip(&reference).zip(&runs) {
            assert!(
                serial == parallel,
                "{} {} {:?} diverges from serial at threads={total}",
                cases[cell.case].app,
                cases[cell.case].dataset,
                cell.opt
            );
        }
    }
}

#[test]
fn app_engine_and_host_kernel_threads_are_pure_execution_knobs() {
    // Inside one app run the `threads` knob bounds both the engine's
    // cluster fan-out and the host-kernel executor (`par_pes`); neither
    // may leak into any result. {1, 2, auto} covers the serial reference,
    // a fixed parallel schedule and the machine-dependent auto budget.
    let cases = apps::small_cases();
    for case in &cases {
        let serial = case.run_threaded(64, OptLevel::Full, 1);
        for threads in [2usize, 4, 0] {
            let run = case.run_threaded(64, OptLevel::Full, threads);
            assert!(
                serial == run,
                "{} {} diverges at engine/host-kernel threads={threads}",
                case.app,
                case.dataset
            );
        }
    }
}

#[test]
fn plan_cache_plans_once_per_distinct_collective_per_worker() {
    // The apps hoist every collective onto the worker arena's plan cache:
    // planning must run at most once per distinct
    // (primitive, opt, mask, spec, geometry) per worker. A cold pass over
    // all five apps misses once per distinct collective; iteration loops
    // (BFS/CC per level, MLP per layer) hold their plan and re-execute it
    // without even a cache lookup, so within-run cache *hits* come only
    // from GNN's alternating masks re-requesting the layer-0 plans at
    // layer 2. A warm pass over the same cells must replan nothing.
    let cases = apps::small_cases();
    let mut arena = SystemArena::new();
    let cold: Vec<_> = cases
        .iter()
        .map(|case| case.run_in(64, OptLevel::Full, 1, &mut arena))
        .collect();
    let cache = arena.take_extension::<PlanCache>();
    let (cold_hits, cold_misses) = (cache.hits(), cache.misses());
    assert!(cold_misses > 0, "cold cells must plan");
    assert!(
        cold_hits > 0,
        "GNN's repeated masks must hit the layer-0 plans"
    );
    arena.put_extension(cache);

    let warm: Vec<_> = cases
        .iter()
        .map(|case| case.run_in(64, OptLevel::Full, 1, &mut arena))
        .collect();
    let cache = arena.take_extension::<PlanCache>();
    assert_eq!(
        cache.misses(),
        cold_misses,
        "warm cells replanned an already-pooled collective"
    );
    assert!(cache.hits() > cold_hits, "warm cells must hit the pool");
    // ...and warm plans change nothing observable.
    assert!(cold == warm, "warm-plan pass diverges from cold pass");
}

#[test]
fn arena_reuse_across_consecutive_cells_is_invisible() {
    // One worker's arena serves many consecutive cells: every checkout
    // must be observationally a fresh allocation, so no cell may see a
    // previous cell's systems or staging buffers — across different apps,
    // optimization levels and repeat runs of the same cell.
    let cases = apps::small_cases();
    let mut arena = SystemArena::new();
    for case in &cases {
        for opt in [OptLevel::Full, OptLevel::Baseline] {
            let fresh = case.run_threaded(64, opt, 1);
            let reused = case.run_in(64, opt, 1, &mut arena);
            assert!(
                fresh == reused,
                "{} {} {opt:?} diverges on a reused arena",
                case.app,
                case.dataset
            );
        }
    }
    assert!(
        arena.pooled_systems() >= 1,
        "runs must return their systems to the worker arena"
    );
    // Second full pass over the now well-populated pool (every checkout
    // is a pool hit): still byte-identical, including with parallel host
    // kernels on the reused systems.
    for case in &cases {
        let fresh = case.run_threaded(64, OptLevel::Full, 1);
        for threads in [1usize, 2, 0] {
            let reused = case.run_in(64, OptLevel::Full, threads, &mut arena);
            assert!(
                fresh == reused,
                "{} {} diverges on warm arena at threads={threads}",
                case.app,
                case.dataset
            );
        }
    }
}
