//! The seven named workloads. Each owns a frozen copy of its configuration
//! (no dependency on `pidcomm-bench`), runs single-client closed-loop at
//! `threads = 1`, and exposes one operation: run every cell once, in fixed
//! order, timing each cell's library call and checking its output.

use std::hint::black_box;
use std::rc::Rc;

use pidcomm::PlanCacheStats;

use crate::clock::Elapsed;
use crate::trace::Tracer;

pub mod apps;
pub mod chaos;
pub mod prims;

/// Engine and host-kernel thread bound of every workload cell.
pub const THREADS: usize = 1;

/// Every workload, in `--all` order. Why each exists is in `README.md` and
/// `BENCHMARK.json`.
pub const WORKLOADS: [&str; 7] = [
    "prims_full",
    "prims_baseline",
    "prims_small",
    "apps_mlp",
    "apps_fused",
    "apps_graph",
    "chaos_small",
];

/// Empties the last-level cache before a timed cell.
///
/// The fig14 cells' whole working set (~130 MB) fits the 260 MiB L3 of the
/// hosts this runs on, so how fast a warm cell runs depends on how much of
/// that cache the machine's other tenants leave it: the same binary read
/// 23 ms per pass on a quiet socket and 58 ms on a busy one, the median of
/// 300 passes moving with it. Sweeping a buffer larger than the cache
/// first makes every timed cell start from memory, which is where the app
/// workloads' collectives (hundreds of MB of MRAM images) start anyway.
pub struct Evictor {
    sweep: Vec<u64>,
}

impl Evictor {
    /// Bytes swept, and held resident from before set-up until exit —
    /// `peak_rss_mb` subtracts exactly this.
    pub const BYTES: usize = 384 << 20;

    pub fn new() -> Self {
        // A non-zero fill writes every page, so the buffer is resident now.
        Self {
            sweep: vec![1; Self::BYTES / 8],
        }
    }

    pub fn evict(&self) {
        black_box(self.sweep.iter().fold(0u64, |acc, v| acc.wrapping_add(*v)));
    }
}

/// Whether `name`'s timed cells start with the last-level cache evicted:
/// the two workloads whose cells are bandwidth-bound *and* cache-sized.
pub fn evicts(name: &str) -> bool {
    matches!(name, "prims_full" | "prims_baseline")
}

/// Stable lower-case label of the two optimization levels the workloads use.
pub fn opt_slug(opt: pidcomm::OptLevel) -> &'static str {
    match opt {
        pidcomm::OptLevel::Baseline => "baseline",
        pidcomm::OptLevel::Full => "full",
        _ => "other",
    }
}

/// `--seed` mixed into a frozen generator seed. Seed 1 is the identity, so
/// the default run reproduces the configurations the repo has always
/// tracked (and their pinned modeled bits); any other seed moves every
/// generator to an unrelated stream.
pub fn mix(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_sub(1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Recovery record of one resilient cell (`chaos_small` only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRecord {
    pub outcome: &'static str,
    pub retries: u32,
    pub backoff_epochs: u64,
    pub restores: u64,
    pub quarantined: usize,
    pub mismatched: u64,
    pub validated: bool,
}

/// What one execution of one cell produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Wall time of the cell's library call(s), harness checks excluded.
    pub wall_ns: u64,
    /// On-CPU time of the same interval (see `clock.rs`): what the
    /// end-to-end metrics are made of.
    pub cpu_ns: u64,
    /// Modeled (simulated) time of the cell.
    pub modeled_ns: f64,
    /// `None` when the cell's output check passed; otherwise why it failed
    /// (error, panic, oracle/reference mismatch, broken recovery invariant).
    pub failure: Option<String>,
    /// Whether the run finished with a validated result — `false` for a
    /// resilient run that ended degraded or aborted *by design*. Feeds
    /// `failed_share`; only `failure` feeds the exit code.
    pub completed: bool,
    /// Modeled communication time inside `modeled_ns` (app cells only).
    pub comm_ns: Option<f64>,
    /// Logical bytes the collective moved in and out (primitive cells).
    pub bytes: u64,
    pub chaos: Option<ChaosRecord>,
}

impl CellRun {
    pub fn failed(took: Elapsed, why: String) -> Self {
        Self {
            wall_ns: took.wall_ns,
            cpu_ns: took.cpu_ns,
            modeled_ns: 0.0,
            failure: Some(why),
            completed: false,
            comm_ns: None,
            bytes: 0,
            chaos: None,
        }
    }
}

pub trait Workload {
    /// Stable cell identifiers, in execution order.
    fn cells(&self) -> &[String];

    /// Runs every cell once. With `check`, outputs are compared against
    /// the oracle / CPU reference / recovery invariants (always on for the
    /// cold pass; app cells validate on every pass regardless, because the
    /// library does it inside the run).
    fn pass(&mut self, tr: &mut Tracer, check: bool) -> Vec<CellRun>;

    /// Snapshot of the workload arena's plan cache, if it keeps one.
    fn plan_cache(&mut self) -> Option<PlanCacheStats> {
        None
    }
}

/// Builds a workload: dataset generation, system construction and buffer
/// fill, cold plan build. The first `pass` after this is the cold pass.
/// `evictor` is used by the workloads [`evicts`] names, ignored by the rest.
pub fn build(
    name: &str,
    seed: u64,
    evictor: Option<Rc<Evictor>>,
    tr: &mut Tracer,
) -> Option<Box<dyn Workload>> {
    use pidcomm::OptLevel;
    let fig14 = |opt, tr: &mut Tracer| prims::Prims::fig14(opt, THREADS, seed, tr);
    Some(match name {
        "prims_full" => Box::new(fig14(OptLevel::Full, tr).evicting(evictor)),
        "prims_baseline" => Box::new(fig14(OptLevel::Baseline, tr).evicting(evictor)),
        "prims_small" => Box::new(prims::Prims::small(seed, tr)),
        "apps_mlp" => Box::new(apps::Apps::mlp(seed, tr)),
        "apps_fused" => Box::new(apps::Apps::fused(seed, tr)),
        "apps_graph" => Box::new(apps::Apps::graph(seed, tr)),
        "chaos_small" => Box::new(chaos::Chaos::new(seed, tr)),
        _ => return None,
    })
}

/// Runs `f`, converting a panic into its message.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|p| format!("panicked: {}", pidcomm::panic_message(&*p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_one_is_the_identity_and_others_move() {
        assert_eq!(mix(0x117e, 1), 0x117e);
        assert_ne!(mix(0x117e, 2), 0x117e);
        assert_ne!(mix(0x117e, 2), mix(0x117e, 3));
    }

    #[test]
    fn every_named_workload_builds_and_no_other() {
        let mut tr = Tracer::new(false);
        // Building prims_small is cheap; the others are covered by the runs.
        assert!(build("prims_small", 1, None, &mut tr).is_some());
        assert!(build("no_such_workload", 1, None, &mut tr).is_none());
        let mut names = WORKLOADS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
    }
}
