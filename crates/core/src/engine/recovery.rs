//! Verified execution: detect-and-recover around a collective plan.
//!
//! The MPI/ULFM-style layer over the plan/execute split: a
//! [`crate::engine::plan::CollectivePlan`] is the natural unit to verify,
//! retry and replan around, because the source region is never written
//! during execution ([`crate::engine::validate_spec`] rejects overlapping
//! buffers) — a failed attempt can always be re-run from intact inputs.
//!
//! Three tiers, in escalation order:
//!
//! 1. **Verify**: every execution runs with read-after-write verification
//!    on; detected corruption ([`crate::Error::DataCorruption`]) and stuck
//!    PEs ([`crate::Error::PeFailed`]) surface at the execute boundary.
//! 2. **Retry**: transient faults are epoch-keyed and each execution is one
//!    epoch, so a bounded number of re-runs clears them. The failed
//!    attempt is first rolled back from a pre-execution image of the
//!    unit's touched MRAM windows — phase-A reordering destructively
//!    pre-rotates the sources in place, so a blind re-run would
//!    double-permute them into silent garbage. The image is scoped to the
//!    validated source/destination extents (nothing else changes during
//!    execution), not the whole MRAM. Each retry pays the failed
//!    attempt's full modeled cost (already on the meter) plus a fixed
//!    resynchronization setup (the [`CostSheet`] recovery counter).
//! 3. **Degrade**: a *persistently* failed PE cannot be retried around.
//!    The collective still completes: the host runs the Baseline engine's
//!    host-memory flow ([`crate::engine::baseline`]) over the members'
//!    still-readable MRAM, lands results on the surviving PEs, and charges
//!    the recomputation at word-granular host-modulation cost — degraded
//!    execution is visible in modeled time, never hidden. The dead PE's
//!    outputs are dropped, and its *inputs* are taken from its bank as-is
//!    (on UPMEM the host reaches a bank regardless of DPU health).
//!
//! One loop (`run_verified`) drives all three tiers over a `Unit`:
//! a single plan is a one-step unit, a fused chain ([`FusedPlan`]) an
//! N-step one that recovers as a whole — its rollback image covers the
//! chain's *merged* region list (every step's touched windows plus
//! hook-written intermediates), so a fault detected mid-chain, after
//! earlier steps already committed their landings, restores the
//! chain-entry state in one [`PimSystem::restore_regions`] and re-runs
//! from step 0.
//!
//! Run-level supervision ([`crate::engine::supervisor`]) builds on these
//! same pieces: its [`HealthLedger`] receives per-PE attribution of every
//! detected fault, and PEs it has quarantined degrade up front via
//! [`run_degraded`] instead of burning retries rediscovering them.

use pim_sim::{Breakdown, Checkpoint, PeId, PimSystem};

use crate::config::Primitive;
use crate::engine::baseline;
use crate::engine::plan::CollectivePlan;
use crate::engine::prepared::{FusedExecution, FusedPlan, PreparedScatter};
use crate::engine::sheet::CostSheet;
use crate::engine::streaming::rank_row;
use crate::engine::supervisor::HealthLedger;
use crate::engine::{Execution, HostRows};
use crate::error::{Error, Result};
use crate::report::CommReport;

/// How [`crate::Communicator::execute_verified`] responds to detected
/// faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Maximum number of re-runs after a transient fault (detected
    /// corruption or a transiently stuck PE) before giving up.
    pub max_retries: u32,
    /// Whether a persistently failed PE degrades to host-side recompute
    /// (`true`) or surfaces [`Error::PeFailed`] (`false`).
    pub degrade: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            degrade: true,
        }
    }
}

/// Outcome of a verified execution: the report spans *all* attempts (a
/// retried collective is visibly slower than a clean one), plus how much
/// recovery it took.
#[derive(Debug, Clone)]
pub struct VerifiedExecution {
    /// Aggregate report over every attempt, including recovery charges.
    pub report: CommReport,
    /// Host output buffers (Gather/Reduce only), one per group.
    pub host_out: Option<Vec<Vec<u8>>>,
    /// Number of re-runs that were needed (0 on a clean first attempt).
    pub retries: u32,
    /// Whether the result was produced by degraded host-side recompute.
    pub degraded: bool,
}

/// Outcome of a verified fused-chain execution: per-step reports from the
/// committing pass plus an aggregate breakdown spanning every attempt.
#[derive(Debug, Clone)]
pub struct FusedVerifiedExecution {
    /// One report per step from the pass that committed (bit-identical to
    /// standalone executions on a clean first attempt).
    pub reports: Vec<CommReport>,
    /// Aggregate modeled time across every attempt, including recovery
    /// charges — equals the sum of the step breakdowns on a clean run.
    pub breakdown: Breakdown,
    /// Host output buffers of a trailing Gather/Reduce step.
    pub host_out: Option<Vec<Vec<u8>>>,
    /// Number of whole-chain re-runs that were needed.
    pub retries: u32,
    /// Whether the result was produced by degraded host-side recompute.
    pub degraded: bool,
}

impl FusedVerifiedExecution {
    /// The single-plan view of a one-step unit's outcome. The report
    /// spans all attempts: a clean first attempt reproduces the
    /// unverified breakdown bit-for-bit (nothing else is charged between
    /// entry and the run), while a recovered one carries every failed
    /// attempt plus the retry setups.
    pub(crate) fn into_single(mut self) -> VerifiedExecution {
        let mut report = self.reports.pop().expect("a unit has at least one step");
        report.breakdown = self.breakdown;
        VerifiedExecution {
            report,
            host_out: self.host_out,
            retries: self.retries,
            degraded: self.degraded,
        }
    }
}

/// What the recovery loop drives: something that can run, name its
/// rollback regions and degrade step by step.
pub(crate) enum Unit<'a> {
    /// One collective — a one-step unit.
    Plan {
        plan: &'a CollectivePlan,
        host_in: Option<&'a dyn HostRows>,
    },
    /// A fused chain; retried and rolled back as a whole.
    Chain {
        fused: &'a FusedPlan,
        staged: Option<&'a PreparedScatter>,
    },
}

impl<'a> Unit<'a> {
    /// A chain unit, validating `staged` against the chain's first step.
    pub(crate) fn chain(fused: &'a FusedPlan, staged: Option<&'a PreparedScatter>) -> Result<Self> {
        fused.check_staged(staged)?;
        Ok(Unit::Chain { fused, staged })
    }

    /// Number of collectives in the unit.
    pub(crate) fn steps(&self) -> usize {
        match self {
            Unit::Plan { .. } => 1,
            Unit::Chain { fused, .. } => fused.steps().len(),
        }
    }

    /// The `k`-th collective.
    pub(crate) fn step(&self, k: usize) -> &CollectivePlan {
        match self {
            Unit::Plan { plan, .. } => plan,
            Unit::Chain { fused, .. } => &fused.steps()[k],
        }
    }

    /// Captures the pre-execution rollback image: a plan's touched MRAM
    /// windows only (source extent — phase-A reordering is destructive in
    /// place — plus destination extent); for a chain the merged region
    /// list, so a fault in step *k* rolls back steps `0..k`'s landings
    /// and the hooks' intermediate writes in one restore. `ckpt`'s buffers
    /// are reused, so a caller that keeps it allocates nothing per unit.
    fn capture(&self, sys: &PimSystem, ckpt: &mut Checkpoint) {
        match self {
            Unit::Plan { plan, .. } => sys.checkpoint_regions(&plan.touched_regions(), ckpt),
            Unit::Chain { fused, .. } => sys.checkpoint_regions(fused.regions(), ckpt),
        }
    }

    /// One ordinary (non-degraded) pass over every step.
    fn run(
        &self,
        sys: &mut PimSystem,
        hook: &mut impl FnMut(usize, &mut PimSystem) -> Result<()>,
    ) -> Result<FusedExecution> {
        match *self {
            Unit::Plan { plan, host_in } => {
                plan.run_rows(sys, host_in).map(|exec| FusedExecution {
                    reports: vec![exec.report],
                    host_out: exec.host_out,
                })
            }
            Unit::Chain { fused, staged } => fused.execute_with(sys, staged, hook),
        }
    }

    /// Graceful degradation: each step recomputes host-side
    /// ([`degrade_step`]) after the validation [`CollectivePlan::run`]
    /// would have applied, with the inter-step hooks between them. Step 0
    /// of a rooted-send chain rebuilds its original host buffers from the
    /// staged image ([`PreparedScatter::unstage`]).
    fn degrade(
        &self,
        sys: &mut PimSystem,
        quarantine: Option<&HealthLedger>,
        hook: &mut impl FnMut(usize, &mut PimSystem) -> Result<()>,
    ) -> Result<FusedExecution> {
        let unstaged;
        let first_in = match *self {
            Unit::Plan { host_in, .. } => host_in,
            Unit::Chain { staged, .. } => {
                unstaged = staged.map(PreparedScatter::unstage);
                unstaged.as_ref().map(|h| h as &dyn HostRows)
            }
        };
        let mut reports = Vec::with_capacity(self.steps());
        let mut host_out = None;
        for k in 0..self.steps() {
            let host_in = if k == 0 { first_in } else { None };
            self.step(k).check_run(sys, host_in)?;
            let exec = degrade_step(sys, self.step(k), host_in, quarantine)?;
            reports.push(exec.report);
            host_out = exec.host_out;
            if k + 1 < self.steps() {
                hook(k, sys)?;
            }
        }
        Ok(FusedExecution { reports, host_out })
    }
}

/// The shared envelope of verified and degraded execution: meter mark,
/// verification on for the duration, previous setting restored on every
/// exit.
fn verifying<T>(
    sys: &mut PimSystem,
    f: impl FnOnce(&mut PimSystem, &Breakdown) -> Result<T>,
) -> Result<T> {
    let before = sys.meter();
    let prev = sys.verify_writes();
    sys.set_verify_writes(true);
    let result = f(sys, &before);
    sys.set_verify_writes(prev);
    result
}

fn finish(
    sys: &PimSystem,
    before: &Breakdown,
    exec: FusedExecution,
    retries: u32,
    degraded: bool,
) -> FusedVerifiedExecution {
    FusedVerifiedExecution {
        reports: exec.reports,
        breakdown: sys.meter().since(before),
        host_out: exec.host_out,
        retries,
        degraded,
    }
}

/// Runs `unit` with verification enabled, retrying transient faults and
/// degrading around persistent PE failures per `policy`; every detected
/// fault (corruption, stuck detection, retry, persistent failure) is
/// attributed to its PE in `ledger` when one is given, so run-level
/// supervision can quarantine repeat offenders.
///
/// The retry unit is the **whole unit**: a fault in step *k* of a chain
/// restores the rollback image, charges one resynchronization setup, and
/// re-runs from step 0 — inter-step hooks re-run too, which is safe by
/// the fusion contract (hooks derive everything they write from host
/// state plus covered regions). With no fault plan attached this is
/// byte- and modeled-bit-identical to the unverified execution, and the
/// rollback image is not even captured — the clean path never pays for
/// the copy. The image is captured into `rollback`, whose buffers the
/// caller may keep for the next unit.
pub(crate) fn run_verified(
    sys: &mut PimSystem,
    unit: &Unit<'_>,
    policy: &RecoveryPolicy,
    rollback: &mut Checkpoint,
    mut ledger: Option<&mut HealthLedger>,
    mut hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
) -> Result<FusedVerifiedExecution> {
    verifying(sys, |sys, before| {
        let snapshot = sys.fault_plan().is_some().then(|| {
            unit.capture(sys, rollback);
            &*rollback
        });
        let mut retries = 0u32;
        loop {
            let err = match unit.run(sys, &mut hook) {
                Ok(exec) => return Ok(finish(sys, before, exec, retries, false)),
                Err(err) => err,
            };
            let pe = match &err {
                Error::DataCorruption { pe, .. } | Error::PeFailed { pe, .. } => *pe,
                _ => return Err(err),
            };
            if let Some(ledger) = ledger.as_deref_mut() {
                ledger.record_fault(sys, &err);
            }
            let persistent = is_persistent(sys, &err);
            if (!persistent && retries >= policy.max_retries) || (persistent && !policy.degrade) {
                return Err(err);
            }
            // Roll the failed attempt back — phase A destroyed the
            // sources, and a mid-chain fault leaves earlier steps
            // committed — so the re-run (or the degraded flow) sees the
            // entry state. Under a fixed fault plan a persistent failure
            // surfaces at step 0's pre-dispatch scan, before the attempt
            // wrote anything, and the restore rewrites identical bytes; a
            // PE that dies mid-chain leaves landings behind
            // (`tests/prepared.rs`). The restore is unconditional so that
            // degradation never depends on *where* a failure was noticed.
            if let Some(img) = snapshot {
                sys.restore_regions(img);
            }
            if persistent {
                let exec = unit.degrade(sys, ledger.as_deref(), &mut hook)?;
                return Ok(finish(sys, before, exec, retries, true));
            }
            retries += 1;
            if let Some(ledger) = ledger.as_deref_mut() {
                ledger.record_retry(pe);
            }
            // The failed attempt's work is already on the meter; the
            // retry additionally pays one resynchronization setup,
            // tallied on the dedicated recovery counter.
            let mut sheet = CostSheet::new(sys.geometry().channels());
            sheet.recovery_retries = 1; // simlint: allow(cost-sheet, reason = "fault-recovery surcharge outside the plan's cost model by design; cost-only execution models the fault-free run")
            sheet.apply(sys);
        }
    })
}

/// Degrades `unit` up front, without attempting a normal execution —
/// the run-level supervisor's path for units whose members include
/// already-quarantined PEs. Writes additionally skip every quarantined PE
/// (its transport is known-bad; landing bytes there would only re-detect
/// what the ledger already knows).
pub(crate) fn run_degraded(
    sys: &mut PimSystem,
    unit: &Unit<'_>,
    ledger: &HealthLedger,
    mut hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
) -> Result<FusedVerifiedExecution> {
    verifying(sys, |sys, before| {
        let exec = unit.degrade(sys, Some(ledger), &mut hook)?;
        Ok(finish(sys, before, exec, 0, true))
    })
}

/// Whether `err` reports a PE the attached fault plan lists as
/// persistently failed (as opposed to a transient stuck epoch).
pub(crate) fn is_persistent(sys: &PimSystem, err: &Error) -> bool {
    match (err, sys.fault_plan()) {
        (Error::PeFailed { pe, .. }, Some(fp)) => fp.pe_failed_persistent(*pe),
        _ => false,
    }
}

/// Degraded execution of one collective: the Baseline host flow
/// ([`baseline::group_result`], then [`baseline::push`]; AlltoAll's
/// [`baseline::alltoall`]) over every
/// member's source — a dead DPU's bank is still host-readable — landing
/// on the PEs neither stuck nor quarantined by `quarantine`; a rooted send
/// lands each of them its host row instead. Membership is the plan's own
/// group table, fixed at build, so a plan degrades to the same bytes
/// whichever communicator of its geometry executes it. The moved bytes are
/// charged to the [`CostSheet`] recovery counter at word-granular
/// host-modulation cost.
fn degrade_step(
    sys: &mut PimSystem,
    plan: &CollectivePlan,
    host_in: Option<&dyn HostRows>,
    quarantine: Option<&HealthLedger>,
) -> Result<Execution> {
    let before = sys.meter();
    let (b, dst) = (plan.spec.bytes_per_node, plan.spec.dst_offset);
    let fault = sys.fault_plan().cloned();
    // A stuck PE's writes would be dropped anyway, and a quarantined PE's
    // transport is known-bad: skipping both keeps verification records clean.
    let skip = |pe: PeId| {
        let flat = pe.index() as u32;
        fault.as_deref().is_some_and(|fp| fp.pe_stuck(flat))
            || quarantine.is_some_and(|ledger| ledger.is_quarantined(flat))
    };

    let mut moved: u64 = 0;
    let mut host_out =
        matches!(plan.primitive, Primitive::Gather | Primitive::Reduce).then(Vec::new);
    let mut batch = Vec::new();
    for (g, group) in plan.groups.iter().enumerate() {
        if matches!(plan.primitive, Primitive::Scatter | Primitive::Broadcast) {
            // Each surviving member's row, read from the source the way
            // the send reads it ([`rank_row`]) — one row at a time, never
            // the whole group buffer.
            let rows = host_in.expect("check_run passed the rooted send its rows");
            let mut row = vec![0u8; b];
            for (rank, &pe) in group.members.iter().enumerate() {
                if !skip(pe) {
                    rows.fill(g, rank_row(plan, rank), &mut row);
                    sys.pe_mut(pe).write(dst, &row);
                    moved += b as u64;
                }
            }
            continue;
        }
        moved += (group.members.len() * b) as u64;
        if plan.primitive == Primitive::AlltoAll {
            moved += baseline::alltoall(sys, plan, &group.members, skip, &mut batch);
            continue;
        }
        let row = baseline::group_result(sys, plan, &group.members);
        match host_out.as_mut() {
            Some(out) => out.push(row),
            None => moved += baseline::push(sys, plan, &group.members, &row, skip),
        }
    }

    // Degraded landings still run verified: a fault plan that also
    // corrupts healthy PEs' writes is detected, not absorbed.
    if let Some(ev) = sys.take_corruption() {
        return Err(Error::from(&ev));
    }

    let mut sheet = CostSheet::new(sys.geometry().channels());
    sheet.recovery_bytes = moved; // simlint: allow(cost-sheet, reason = "verified-execution readback tally outside the plan's cost model by design; cost-only execution models the unverified run")
    sheet.apply(sys);
    Ok(Execution {
        report: plan.report(sys.meter().since(&before)),
        host_out,
    })
}
