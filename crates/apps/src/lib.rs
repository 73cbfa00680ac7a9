//! # pidcomm-apps — benchmark applications on the PID-Comm framework
//!
//! The paper's five benchmark applications (§VII), each implemented on the
//! simulated PIM system with real data flowing through the collective
//! library, validated bit-exactly against plain CPU reference
//! implementations, and profiled with the paper's per-primitive + kernel
//! decomposition:
//!
//! * [`mlp`] — 5-layer perceptron, column-partitioned, ReduceScatter
//!   between layers.
//! * [`bfs`] — frontier BFS with AllReduce(Or) on visited bitmaps.
//! * [`cc`] — connected components via min-label AllReduce.
//! * [`gnn`] — 2-D partitioned GNN in both RS&AR and AR&AG variants.
//! * [`dlrm`] — 3-D partitioned recommendation model (AlltoAll /
//!   ReduceScatter / AlltoAll).
//!
//! Every app ships four entry points over **one** body and **one**
//! driver: `run_x_resilient` / `run_x_resilient_in` run the body under
//! run-level supervision and return a [`ResilientRun`] (`_in` sources
//! allocations from a caller's `SystemArena`); `run_x` / `run_x_in` are
//! that run with no fault plan and the default policy, asserted to match
//! the CPU reference and returned as a plain [`AppRun`].

// The modeled engine takes no unsafe shortcuts; any future unsafe
// fast path belongs in pim_sim, under simlint's unsafe-audit lint.
#![forbid(unsafe_code)]

mod adjacency;
pub mod bfs;
pub mod cc;
pub mod cost;
pub mod dlrm;
mod driver;
pub mod gnn;
pub mod mlp;
pub mod profile;

pub use profile::AppProfile;

/// Result of one application run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRun {
    /// Modeled PIM execution profile.
    pub profile: AppProfile,
    /// Modeled CPU-only reference time (roofline, §VIII-G comparisons).
    pub cpu_ns: f64,
    /// Whether the PIM result matched the CPU reference bit-exactly.
    pub validated: bool,
}

/// Result of one resilient application run (the `run_*_resilient`
/// entry points): the ordinary [`AppRun`] plus the run-level recovery
/// record.
///
/// Every run is driven under a `pidcomm` supervisor and never panics on
/// output divergence — degraded execution is the point — but reports it
/// as [`ResilientRun::mismatched`]. With no fault plan nothing can fail:
/// the record reads `Completed` with every count zero, and
/// [`ResilientRun::run`] is what `run_x` / `run_x_in` return after
/// asserting it validated.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    /// Profile, CPU reference time and validation flag. The profile
    /// records *committed* attempts; [`ResilientRun::modeled_ns`] is the
    /// full modeled time including failed attempts and recovery charges.
    pub run: AppRun,
    /// Typed outcome of the run.
    pub outcome: pidcomm::RunOutcome,
    /// Total retries consumed (plan-level and iteration-level).
    pub retries: u32,
    /// PEs quarantined by the health ledger, ascending.
    pub quarantined: Vec<u32>,
    /// Output elements that differ from the CPU reference (the
    /// degraded-output delta). On an aborted run, the full output length.
    pub mismatched: u64,
    /// Full modeled time from the system meter: every attempt, retry
    /// setup, rollback and degraded recompute charge.
    pub modeled_ns: f64,
    /// Fault epochs skipped by exponential backoff.
    pub backoff_epochs: u64,
    /// Iteration rollbacks performed.
    pub checkpoint_restores: u64,
}
