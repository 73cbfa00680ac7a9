//! Run-level resilience: health ledger, iteration checkpoints and
//! deadline budgets over the per-plan recovery tier.
//!
//! [`crate::engine::recovery`] makes a *single plan execution* survive
//! faults; the paper's applications run tens-to-hundreds of iterations,
//! and a mid-run fault previously either burned per-plan retries with no
//! memory of which PEs keep failing, or propagated and killed the run.
//! This module is the MPI-ULFM / checkpoint-restart shape of fault
//! tolerance lifted onto the deterministic chaos substrate:
//!
//! * A [`HealthLedger`] accumulates per-PE fault history across epochs —
//!   corruptions, retries, stuck detections, persistent failures — and
//!   **quarantines** PEs whose weighted score crosses the policy
//!   threshold. Later plans with quarantined members degrade around them
//!   up front instead of rediscovering the bad PE through failed retries.
//! * **Iteration checkpoints**: apps snapshot only their live MRAM
//!   regions ([`PimSystem::checkpoint_regions`], pooled through
//!   [`SystemArena`]) at iteration boundaries, so recovery rolls back one
//!   iteration — not one plan attempt, and not the whole run.
//! * A [`RunPolicy`] carries a modeled-time deadline, a total retry
//!   budget and an exponential epoch backoff; runs finish with a typed
//!   [`RunOutcome`]. Every recovery action is charged to the dedicated
//!   [`CostSheet`] recovery counters, so resilience is visible in modeled
//!   time and the fault-free path stays bit-identical.
//!
//! Determinism: every decision here is a pure function of the fault
//! plan's seeded draws and the policy — no wall clock, no randomness —
//! so a resilient run's outcome, retry count, quarantine set and modeled
//! time are reproducible bit-for-bit under a fixed seed.

use std::collections::{BTreeMap, BTreeSet};

use pim_sim::{Checkpoint, CorruptionEvent, PimSystem, SystemArena};

use crate::engine::plan::CollectivePlan;
use crate::engine::prepared::{FusedPlan, PreparedScatter};
use crate::engine::recovery::{
    self, FusedVerifiedExecution, RecoveryPolicy, Unit, VerifiedExecution,
};
use crate::engine::sheet::CostSheet;
use crate::engine::HostRows;
use crate::error::{Error, Result};

/// Per-PE fault tallies accumulated by the [`HealthLedger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeHealth {
    /// Detected write corruptions attributed to this PE.
    pub corruptions: u32,
    /// Retries burned recovering from this PE's faults.
    pub retries: u32,
    /// Transient stuck detections (pre-dispatch scan hits).
    pub stuck: u32,
    /// Persistent failure detections.
    pub failures: u32,
}

impl PeHealth {
    /// Weighted badness score compared against
    /// [`RunPolicy::quarantine_after`]. A persistent failure is
    /// conclusive, so it carries the full default threshold by itself;
    /// transient evidence accumulates one point per event.
    pub fn score(&self) -> u32 {
        self.corruptions + self.retries + self.stuck + self.failures * FAILURE_WEIGHT
    }
}

/// Score contribution of one persistent-failure detection: quarantines a
/// PE immediately at the default [`RunPolicy::quarantine_after`].
pub const FAILURE_WEIGHT: u32 = 4;

/// Accumulated per-PE fault history for one run, with quarantine.
///
/// The ledger is fed by the recovery tier (every typed fault error is
/// attributed to its PE) and consulted before each collective: once a
/// PE's [`PeHealth::score`] reaches the threshold it is quarantined —
/// subsequent plans degrade around it up front, and its residual write
/// corruptions are expected rather than fatal.
#[derive(Debug, Clone)]
pub struct HealthLedger {
    /// Tallies of the PEs that have a fault history; a clean run keeps
    /// none and allocates nothing.
    pes: BTreeMap<u32, PeHealth>,
    num_pes: usize,
    quarantined: BTreeSet<u32>,
    /// Score at which a PE is quarantined; `0` disables quarantine.
    threshold: u32,
}

impl HealthLedger {
    /// An empty ledger over `num_pes` PEs quarantining at `threshold`
    /// (`0` disables quarantine).
    pub(crate) fn new(num_pes: usize, threshold: u32) -> Self {
        Self {
            pes: BTreeMap::new(),
            num_pes,
            quarantined: BTreeSet::new(),
            threshold,
        }
    }

    fn bump(&mut self, pe: u32, f: impl FnOnce(&mut PeHealth)) {
        if pe as usize >= self.num_pes {
            return;
        }
        let h = self.pes.entry(pe).or_default();
        f(h);
        if self.threshold > 0 && h.score() >= self.threshold {
            self.quarantined.insert(pe);
        }
    }

    /// Attributes a typed fault error to its PE: a detected write
    /// corruption, a persistent failure, or a transient stuck epoch.
    pub(crate) fn record_fault(&mut self, sys: &PimSystem, err: &Error) {
        match err {
            Error::DataCorruption { pe, .. } => self.bump(*pe, |h| h.corruptions += 1),
            Error::PeFailed { pe, .. } if recovery::is_persistent(sys, err) => {
                self.bump(*pe, |h| h.failures += 1);
            }
            Error::PeFailed { pe, .. } => self.bump(*pe, |h| h.stuck += 1),
            _ => {}
        }
    }

    /// Records a retry attributed to `pe`'s fault.
    pub(crate) fn record_retry(&mut self, pe: u32) {
        self.bump(pe, |h| h.retries += 1);
    }

    /// The accumulated tallies for `pe`.
    pub fn health(&self, pe: u32) -> PeHealth {
        self.pes.get(&pe).copied().unwrap_or_default()
    }

    /// Whether `pe` is quarantined.
    pub fn is_quarantined(&self, pe: u32) -> bool {
        self.quarantined.contains(&pe)
    }

    /// Whether any PE is quarantined.
    pub fn any_quarantined(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// The quarantined PEs, ascending.
    pub fn quarantined(&self) -> Vec<u32> {
        self.quarantined.iter().copied().collect()
    }
}

/// Policy of one resilient run: deadline, budgets, backoff, quarantine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunPolicy {
    /// Modeled-time deadline in nanoseconds; an iteration boundary past
    /// it aborts the run with [`RunOutcome::DeadlineExceeded`].
    /// `f64::INFINITY` (the default) disables the deadline.
    pub deadline_ns: f64,
    /// Total retry budget for the whole run, shared by plan-level retries
    /// and iteration-level re-runs. Exhausting it aborts with
    /// [`RunOutcome::BudgetExhausted`].
    pub retry_budget: u32,
    /// Fault epochs skipped before the first iteration re-run; doubles on
    /// each consecutive failure (exponential backoff, re-rolling the
    /// seeded dice), capped at [`RunPolicy::backoff_cap`].
    pub backoff_base: u32,
    /// Upper bound on the per-retry backoff.
    pub backoff_cap: u32,
    /// [`PeHealth::score`] at which a PE is quarantined; `0` disables
    /// quarantine.
    pub quarantine_after: u32,
    /// Per-collective recovery policy (plan-level retries and
    /// degradation) applied inside each iteration.
    pub plan_attempt: RecoveryPolicy,
}

impl Default for RunPolicy {
    fn default() -> Self {
        Self {
            deadline_ns: f64::INFINITY,
            retry_budget: 8,
            backoff_base: 1,
            backoff_cap: 8,
            quarantine_after: FAILURE_WEIGHT,
            plan_attempt: RecoveryPolicy::default(),
        }
    }
}

impl RunPolicy {
    /// Disables quarantine (PEs are never excluded up front; every fault
    /// is rediscovered through the recovery tier).
    pub fn without_quarantine(mut self) -> Self {
        self.quarantine_after = 0;
        self
    }

    /// Sets the modeled-time deadline.
    pub fn with_deadline_ns(mut self, ns: f64) -> Self {
        self.deadline_ns = ns;
        self
    }

    /// Sets the total retry budget.
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }
}

/// Typed outcome of a resilient run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every iteration committed cleanly; results are bit-identical to
    /// the fault-free run.
    Completed,
    /// The run finished, but some results were produced by degraded
    /// host-side recompute and/or PEs were quarantined along the way.
    Degraded {
        /// PEs quarantined by the ledger, ascending.
        quarantined: Vec<u32>,
    },
    /// An iteration boundary fell past the modeled-time deadline.
    DeadlineExceeded,
    /// The total retry budget ran out before an iteration committed.
    BudgetExhausted,
}

impl RunOutcome {
    /// Short stable label for reports (the `chaos_small` recovery pins of
    /// `benchmark/expected.json`).
    pub fn label(&self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Degraded { .. } => "degraded",
            RunOutcome::DeadlineExceeded => "deadline_exceeded",
            RunOutcome::BudgetExhausted => "budget_exhausted",
        }
    }
}

/// Result of one supervised iteration: either the body's value, or the
/// typed abort the caller must surface as the run's outcome.
#[derive(Debug)]
pub enum Iteration<T> {
    /// The iteration committed; checkpoint released.
    Done(T),
    /// The run aborted under policy (deadline or budget); the caller
    /// stops iterating and reports this outcome.
    Abort(RunOutcome),
}

/// Run-level supervisor: owns the ledger, budgets and backoff state of
/// one resilient application run.
///
/// Apps wrap each iteration (and their setup / teardown phases) in
/// [`Supervisor::iteration`], and issue collectives inside the body
/// through the passed [`Attempt`] — which routes them through the
/// quarantine-aware verified execution path. See the `run_*_resilient`
/// functions in `pidcomm-apps` for the canonical wiring.
#[derive(Debug)]
pub struct Supervisor {
    policy: RunPolicy,
    ledger: HealthLedger,
    retries_used: u32,
    /// Consecutive failed iteration attempts, driving the backoff.
    consecutive: u32,
    /// Whether any collective was produced by degraded recompute.
    degraded: bool,
    aborted: Option<RunOutcome>,
    backoff_epochs: u64,
    checkpoint_restores: u64,
    /// Scratch for draining per-PE corruption records.
    events: Vec<CorruptionEvent>,
}

impl Supervisor {
    /// A fresh supervisor for a system of `num_pes` PEs under `policy`.
    pub fn new(num_pes: usize, policy: RunPolicy) -> Self {
        Self {
            ledger: HealthLedger::new(num_pes, policy.quarantine_after),
            policy,
            retries_used: 0,
            consecutive: 0,
            degraded: false,
            aborted: None,
            backoff_epochs: 0,
            checkpoint_restores: 0,
            events: Vec::new(),
        }
    }

    /// The accumulated per-PE fault history.
    pub fn ledger(&self) -> &HealthLedger {
        &self.ledger
    }

    /// Total retries consumed so far (plan-level and iteration-level).
    pub fn retries(&self) -> u32 {
        self.retries_used
    }

    /// Total fault epochs skipped by backoff so far.
    pub fn backoff_epochs(&self) -> u64 {
        self.backoff_epochs
    }

    /// Number of iteration rollbacks performed so far.
    pub fn checkpoint_restores(&self) -> u64 {
        self.checkpoint_restores
    }

    /// The run's typed outcome given everything observed so far. Call
    /// after the iteration loop finishes (or an [`Iteration::Abort`]
    /// stopped it).
    pub fn outcome(&self) -> RunOutcome {
        if let Some(o) = &self.aborted {
            return o.clone();
        }
        if self.degraded || self.ledger.any_quarantined() {
            return RunOutcome::Degraded {
                quarantined: self.ledger.quarantined(),
            };
        }
        RunOutcome::Completed
    }

    /// Runs one iteration resiliently: snapshots `regions` (the app's
    /// live MRAM state) into an arena-pooled checkpoint — when a fault
    /// plan is attached; without one there is nothing to roll back from
    /// and no checkpoint is taken — runs `body`, and on a typed fault
    /// error rolls the regions back, applies exponential epoch backoff and
    /// re-runs the body under the run's retry budget.
    ///
    /// The body must derive everything it writes from committed host
    /// state plus the checkpointed regions (commit host-side mirrors only
    /// after the body returns `Ok`), so a re-run observes exactly the
    /// iteration-boundary state.
    ///
    /// # Errors
    ///
    /// Non-fault errors from the body propagate unchanged; typed fault
    /// errors are consumed by the retry loop and can only surface as an
    /// [`Iteration::Abort`].
    pub fn iteration<T>(
        &mut self,
        sys: &mut PimSystem,
        arena: &mut SystemArena,
        regions: &[(usize, usize)],
        mut body: impl FnMut(&mut PimSystem, &mut Attempt<'_>) -> Result<T>,
    ) -> Result<Iteration<T>> {
        if sys.meter().total() > self.policy.deadline_ns {
            self.aborted = Some(RunOutcome::DeadlineExceeded);
            return Ok(Iteration::Abort(RunOutcome::DeadlineExceeded));
        }
        // Without a plan no typed fault can arise, so nothing can ask for
        // an image back: the clean path pays for neither the copy nor the
        // checkouts. The second checkout is the image each collective's
        // recovery tier captures into, pooled like this one.
        let faulty = sys.fault_plan().is_some();
        let ckpt = faulty.then(|| {
            let mut ckpt = arena.checkpoint();
            sys.checkpoint_regions(regions, &mut ckpt);
            ckpt
        });
        let mut rollback = if faulty {
            arena.checkpoint()
        } else {
            Checkpoint::new()
        };
        let result = loop {
            let mut attempt = Attempt {
                policy: &self.policy,
                ledger: &mut self.ledger,
                retries_used: &mut self.retries_used,
                degraded: &mut self.degraded,
                events: &mut self.events,
                rollback: &mut rollback,
            };
            let run = body(sys, &mut attempt).and_then(|t| {
                // Surface residual corruption from the body's own staging
                // writes (kernels, host encodes) that no collective
                // boundary checked — quarantined PEs' records are
                // expected and ignored, anything else is a real fault.
                match residual_fault(sys, &self.ledger, &mut self.events) {
                    Some(err) => Err(err),
                    None => Ok(t),
                }
            });
            match run {
                Ok(t) => {
                    self.consecutive = 0;
                    break Ok(Iteration::Done(t));
                }
                Err(err @ (Error::DataCorruption { .. } | Error::PeFailed { .. })) => {
                    self.ledger.record_fault(sys, &err);
                    if self.retries_used >= self.policy.retry_budget {
                        self.aborted = Some(RunOutcome::BudgetExhausted);
                        break Ok(Iteration::Abort(RunOutcome::BudgetExhausted));
                    }
                    self.retries_used += 1;
                    if let Some(ckpt) = &ckpt {
                        sys.restore_regions(ckpt);
                    }
                    self.checkpoint_restores += 1;
                    // Discard fault records the failed attempt left
                    // behind; the re-run starts from a clean slate.
                    self.events.clear();
                    sys.take_corruptions(&mut self.events);
                    self.events.clear();
                    // Exponential backoff: skip epochs so the re-run
                    // rolls fresh dice further from the fault burst.
                    let backoff = self
                        .policy
                        .backoff_base
                        .saturating_mul(1 << self.consecutive.min(16))
                        .min(self.policy.backoff_cap);
                    self.consecutive += 1;
                    if let Some(fp) = sys.fault_plan() {
                        for _ in 0..backoff {
                            fp.begin_epoch();
                        }
                    }
                    self.backoff_epochs += u64::from(backoff);
                    let mut sheet = CostSheet::new(sys.geometry().channels());
                    // simlint: allow(cost-sheet, reason = "run-level recovery surcharge outside the plan's cost model by design; cost-only execution models the fault-free run")
                    sheet.recovery_retries = 1;
                    // simlint: allow(cost-sheet, reason = "run-level backoff surcharge outside the plan's cost model by design; zero on the fault-free path")
                    sheet.recovery_backoff = u64::from(backoff);
                    // simlint: allow(cost-sheet, reason = "iteration-rollback byte tally outside the plan's cost model by design; zero on the fault-free path")
                    sheet.recovery_checkpoint_bytes = ckpt.as_ref().map_or(0, Checkpoint::bytes);
                    sheet.apply(sys);
                    if sys.meter().total() > self.policy.deadline_ns {
                        self.aborted = Some(RunOutcome::DeadlineExceeded);
                        break Ok(Iteration::Abort(RunOutcome::DeadlineExceeded));
                    }
                }
                Err(err) => break Err(err),
            }
        };
        // Returned in reverse checkout order, so each keeps its role (and
        // its capacity) in the next iteration.
        if faulty {
            arena.recycle_checkpoint(rollback);
        }
        if let Some(ckpt) = ckpt {
            arena.recycle_checkpoint(ckpt);
        }
        result
    }
}

/// Per-attempt handle passed to [`Supervisor::iteration`] bodies: issues
/// collectives through the quarantine-aware verified execution path and
/// exposes the ledger for read access.
#[derive(Debug)]
pub struct Attempt<'a> {
    policy: &'a RunPolicy,
    ledger: &'a mut HealthLedger,
    retries_used: &'a mut u32,
    degraded: &'a mut bool,
    events: &'a mut Vec<CorruptionEvent>,
    rollback: &'a mut Checkpoint,
}

impl Attempt<'_> {
    /// Executes `plan` with verification, ledger attribution and
    /// quarantine: plans whose groups include a quarantined PE degrade up
    /// front instead of burning retries rediscovering it; otherwise the
    /// plan runs under the per-collective recovery policy, clamped to the
    /// run's remaining retry budget. `host_in` is a rooted send's row
    /// source (`Some` exactly for Scatter and Broadcast): the send, a
    /// retry and a degraded landing each read it one row at a time.
    ///
    /// # Errors
    ///
    /// Surfaces the recovery tier's typed fault errors (for the
    /// supervisor's iteration retry loop to consume) and any validation
    /// error from the plan itself.
    pub fn collective(
        &mut self,
        sys: &mut PimSystem,
        plan: &CollectivePlan,
        host_in: Option<&dyn HostRows>,
    ) -> Result<VerifiedExecution> {
        self.run(sys, &Unit::Plan { plan, host_in }, |_, _| Ok(()))
            .map(FusedVerifiedExecution::into_single)
    }

    /// Executes a fused chain with verification, ledger attribution and
    /// quarantine — the chain-level analogue of [`Attempt::collective`]:
    /// a chain whose steps touch a quarantined PE degrades step-by-step
    /// up front, exactly as its unfused collectives would; otherwise the
    /// whole chain runs under the per-collective recovery policy (the
    /// retry unit is the chain), clamped to the run's remaining retry
    /// budget.
    ///
    /// # Errors
    ///
    /// As [`Attempt::collective`], plus the fused-plan validation errors
    /// (staged input mismatch).
    pub fn fused(
        &mut self,
        sys: &mut PimSystem,
        fused: &FusedPlan,
        staged: Option<&PreparedScatter>,
        hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
    ) -> Result<FusedVerifiedExecution> {
        self.run(sys, &Unit::chain(fused, staged)?, hook)
    }

    /// The one quarantine-check + budget-clamp routine behind both entry
    /// points (a single plan is a one-step unit).
    fn run(
        &mut self,
        sys: &mut PimSystem,
        unit: &Unit<'_>,
        hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
    ) -> Result<FusedVerifiedExecution> {
        // Staging writes since the last boundary may have left corruption
        // records; surface healthy PEs' now (attributed, so the iteration
        // retry can roll back) rather than letting the unit blame them on
        // itself mid-flight.
        if let Some(err) = residual_fault(sys, self.ledger, self.events) {
            return Err(err);
        }
        // Quarantine: a unit touching a known-bad PE degrades up front —
        // and every collective touches every PE of the system.
        if self.ledger.any_quarantined() {
            *self.degraded = true;
            return recovery::run_degraded(sys, unit, self.ledger, hook);
        }
        let attempt = RecoveryPolicy {
            max_retries: self
                .policy
                .plan_attempt
                .max_retries
                .min(self.policy.retry_budget.saturating_sub(*self.retries_used)),
            degrade: self.policy.plan_attempt.degrade,
        };
        let exec =
            recovery::run_verified(sys, unit, &attempt, self.rollback, Some(self.ledger), hook)?;
        *self.retries_used += exec.retries;
        *self.degraded |= exec.degraded;
        Ok(exec)
    }

    /// Read access to the run's health ledger.
    pub fn ledger(&self) -> &HealthLedger {
        self.ledger
    }
}

/// Drains every PE's corruption record; returns an error for the first
/// event on a PE the ledger has *not* quarantined (quarantined PEs'
/// residual corruption is expected — their transport is known-bad).
fn residual_fault(
    sys: &mut PimSystem,
    ledger: &HealthLedger,
    events: &mut Vec<CorruptionEvent>,
) -> Option<Error> {
    events.clear();
    sys.take_corruptions(events);
    let err = events
        .iter()
        .find(|ev| !ledger.is_quarantined(ev.pe))
        .map(Error::from);
    events.clear();
    err
}
