//! The one run driver behind every application runner.
//!
//! Each app has a single body written against [`Run::step`] and the
//! [`Step`] handle it passes to the step's closure, and every run is
//! supervised: a step is one [`Supervisor::iteration`] (checkpoint of the
//! named live regions, rollback + backoff + re-run on a typed fault) and a
//! collective goes through [`Attempt`]'s quarantine-aware verified path.
//! `run_x` / `run_x_in` are `run_x_resilient_in` with no fault plan and
//! the default policy, plus the assertion that the output matches the CPU
//! reference. With no plan attached nothing can fail, so that run is the
//! plain run: every landing takes the direct lane (verification belongs
//! to the fault plan and has nothing to compare), no checkpoint is
//! copied, each step's closure runs exactly once, and profile, outputs
//! and modeled bits are those of the bare [`CollectivePlan::run`] calls.
//!
//! [`drive`] owns everything around the body: system and plan-cache
//! checkout from the arena, fault-plan attach/detach, the
//! [`Communicator`], the mismatch verdict and the [`ResilientRun`] record
//! — and returns both checkouts to the arena on **every** exit, so an
//! `Err` or an aborted storm run cannot cost a sweep worker its warmed
//! plan cache or leave a fault plan attached to a pooled system.
//!
//! It alone keeps the run's [`AppProfile`]. Each attempt of a step logs,
//! in execution order, the reports of its collectives and fused chains
//! and the kernels it launched ([`Step::launch`], or a chain's hooks);
//! a retry starts a fresh log, and the committed attempt's log is replayed
//! onto the profile in order (f64 sums are order-sensitive). The profile
//! thus counts committed steps only.

use std::sync::Arc;

use pidcomm::engine::supervisor::{Attempt, Iteration, Supervisor};
use pidcomm::{
    CollectivePlan, CommReport, Communicator, FusedPlan, HostRows, HypercubeManager,
    HypercubeShape, OptLevel, PlanCache, RunPolicy,
};
use pim_sim::{DimmGeometry, FaultPlan, PeId, PimSystem, SystemArena};

use crate::profile::AppProfile;
use crate::{AppRun, ResilientRun};

/// What a run needs before its body can start.
pub(crate) struct Setup {
    pub geom: DimmGeometry,
    /// Hypercube dimensions (product = PE count).
    pub dims: Vec<usize>,
    pub opt: OptLevel,
    pub threads: usize,
    pub profile: AppProfile,
}

/// The paper-order geometry of `pes` PEs, or the typed error `app` returns
/// for a PE count that has none (before anything leaves the arena).
pub(crate) fn geometry(app: &str, pes: usize) -> pidcomm::Result<DimmGeometry> {
    DimmGeometry::try_with_pes(pes).ok_or_else(|| {
        let want = "a positive multiple of 8 that factors into banks x ranks x channels";
        pidcomm::Error::InvalidBuffer(format!("{app} needs a PE count that is {want}; got {pes}"))
    })
}

/// Why a body stopped early.
pub(crate) enum Stop {
    /// The supervisor aborted the run under policy (deadline or budget);
    /// the typed outcome is on the run record.
    Aborted,
    /// A non-fault error, propagated to the caller.
    Error(pidcomm::Error),
}

impl From<pidcomm::Error> for Stop {
    fn from(err: pidcomm::Error) -> Self {
        Stop::Error(err)
    }
}

/// How far the run's output is from the CPU reference.
pub(crate) struct Verdict {
    /// Output elements that differ from the reference.
    pub mismatched: u64,
    /// Modeled CPU-only reference time.
    pub cpu_ns: f64,
}

/// Elements of `got` that differ from `expected`; the full reference
/// length when the run produced no output at all.
pub(crate) fn mismatches<T: PartialEq>(got: Option<&[T]>, expected: &[T]) -> u64 {
    match got {
        Some(got) => {
            let differing = got.iter().zip(expected).filter(|(a, b)| a != b).count();
            (differing + got.len().abs_diff(expected.len())) as u64
        }
        None => expected.len() as u64,
    }
}

/// The state an app body works with between and inside steps.
pub(crate) struct Run<'a> {
    pub sys: PimSystem,
    pub arena: &'a mut SystemArena,
    pub plans: PlanCache,
    pub comm: Communicator,
    profile: AppProfile,
    sup: Supervisor,
}

impl Run<'_> {
    /// Runs one step of the app — a setup phase, one iteration, the final
    /// readback. `regions` names the live MRAM state the step overwrites
    /// and a re-run needs back; the body must derive everything else it
    /// writes from committed host state (commit host-side mirrors only
    /// after `step` returns `Ok`).
    pub(crate) fn step<T>(
        &mut self,
        regions: &[(usize, usize)],
        mut body: impl FnMut(&mut PimSystem, &mut Step<'_, '_>) -> pidcomm::Result<T>,
    ) -> Result<T, Stop> {
        let mut log = Vec::new();
        let outcome = self
            .sup
            .iteration(&mut self.sys, self.arena, regions, |sys, attempt| {
                log.clear();
                let log = &mut log;
                body(sys, &mut Step { attempt, log })
            })?;
        let Iteration::Done(value) = outcome else {
            return Err(Stop::Aborted);
        };
        for ran in &log {
            match ran {
                Ran::Collective(report) => self.profile.record(report),
                Ran::Kernel(ns) => self.profile.record_kernel(*ns),
            }
        }
        Ok(value)
    }

    /// Sets the profile's dataset label (CC's counts its passes).
    pub(crate) fn relabel(&mut self, dataset: String) {
        self.profile.dataset = dataset;
    }
}

/// One entry of a step attempt's log.
enum Ran {
    Collective(CommReport),
    /// Kernel execution plus launch overhead.
    Kernel(f64),
}

/// Charges one kernel launch whose modeled time is the slowest PE's, and
/// returns what the profile books for it: that time plus the launch
/// overhead.
fn charge(sys: &mut PimSystem, per_pe_ns: impl IntoIterator<Item = f64>) -> f64 {
    let slowest = per_pe_ns.into_iter().fold(0.0f64, f64::max);
    sys.run_kernel(slowest);
    slowest + sys.model().kernel_launch_ns
}

/// Per-attempt handle of a step body: issues the step's collectives
/// through the run's [`Attempt`] and launches its kernels, logging both.
pub(crate) struct Step<'s, 'a> {
    attempt: &'s mut Attempt<'a>,
    log: &'s mut Vec<Ran>,
}

impl Step<'_, '_> {
    /// Executes one collective (`host_in`, a row source, for
    /// Scatter/Broadcast); returns the host output of a Gather/Reduce.
    pub(crate) fn collective(
        &mut self,
        sys: &mut PimSystem,
        plan: &CollectivePlan,
        host_in: Option<&dyn HostRows>,
    ) -> pidcomm::Result<Option<Vec<Vec<u8>>>> {
        let exec = self.attempt.collective(sys, plan, host_in)?;
        self.log.push(Ran::Collective(exec.report));
        Ok(exec.host_out)
    }

    /// Executes a fused chain with `hook(k, sys)` between steps `k` and
    /// `k + 1`; a hook returns the per-PE times of the kernel it ran, if
    /// any, for the chain to launch. The chain is the retry unit: hooks
    /// re-run on a rollback, so they must write only MRAM the chain's
    /// regions cover, and a hook's kernel is logged once, after its step,
    /// however often the chain replayed it.
    pub(crate) fn fused(
        &mut self,
        sys: &mut PimSystem,
        fused: &FusedPlan,
        mut hook: impl FnMut(usize, &mut PimSystem) -> pidcomm::Result<Option<Vec<f64>>>,
    ) -> pidcomm::Result<()> {
        let mut hooked = vec![None; fused.steps().len()];
        let exec = self.attempt.fused(sys, fused, None, |k, sys| {
            hooked[k] = hook(k, sys)?.map(|per_pe_ns| charge(sys, per_pe_ns));
            Ok(())
        })?;
        for (report, kernel) in exec.reports.into_iter().zip(hooked) {
            self.log.push(Ran::Collective(report));
            self.log.extend(kernel.map(Ran::Kernel));
        }
        Ok(())
    }

    /// Launches one kernel whose modeled time is the slowest PE's.
    pub(crate) fn launch(&mut self, sys: &mut PimSystem, per_pe_ns: impl IntoIterator<Item = f64>) {
        self.log.push(Ran::Kernel(charge(sys, per_pe_ns)));
    }

    /// The PE to read a replicated result back from: the first one the
    /// ledger has not quarantined — a degraded execution lands no output
    /// on quarantined PEs, so their copy is stale.
    pub(crate) fn readback_pe(&self, geom: &DimmGeometry) -> PeId {
        let ledger = self.attempt.ledger();
        geom.pes()
            .find(|pe| !ledger.is_quarantined(pe.index() as u32))
            .or_else(|| geom.pes().next())
            .expect("system has at least one PE")
    }
}

/// Drives one application run under `policy` (and `fault`, if any):
/// `body` produces the app's output through [`Run::step`]s (or stops
/// early), `judge` compares it with the CPU reference (`None` = the run
/// aborted before producing output).
///
/// # Errors
///
/// Shape/geometry errors and whatever non-fault error the body
/// propagates; typed fault errors never escape the supervisor.
pub(crate) fn drive<T>(
    arena: &mut SystemArena,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
    setup: Setup,
    body: impl FnOnce(&mut Run<'_>) -> Result<T, Stop>,
    judge: impl FnOnce(Option<T>) -> Verdict,
) -> pidcomm::Result<ResilientRun> {
    // Built before anything is checked out of the arena, so a bad shape
    // has nothing to give back.
    let manager = HypercubeManager::new(HypercubeShape::new(setup.dims)?, setup.geom)?;
    let comm = Communicator::new(manager)
        .with_opt(setup.opt)
        .with_threads(setup.threads);

    let mut sys = arena.system(setup.geom);
    if let Some(fp) = fault {
        sys.attach_fault_plan(fp);
        sys.set_verify_writes(true);
    }
    let plans = arena.take_extension::<PlanCache>();
    let mut run = Run {
        sys,
        arena,
        plans,
        comm,
        profile: setup.profile,
        sup: Supervisor::new(setup.geom.num_pes(), policy),
    };
    let output = body(&mut run);

    // No early return between the checkouts above and this point: the
    // system and the warm plan cache go back to the arena whether the
    // body succeeded, failed or aborted.
    let Run {
        sys,
        arena,
        plans,
        profile,
        sup,
        ..
    } = run;
    let modeled_ns = sys.meter().total();
    arena.recycle(sys);
    arena.put_extension(plans);

    let output = match output {
        Ok(output) => Some(output),
        Err(Stop::Aborted) => None,
        Err(Stop::Error(err)) => return Err(err),
    };
    let Verdict { mismatched, cpu_ns } = judge(output);
    Ok(ResilientRun {
        run: AppRun {
            profile,
            cpu_ns,
            validated: mismatched == 0,
        },
        outcome: sup.outcome(),
        retries: sup.retries(),
        quarantined: sup.ledger().quarantined(),
        mismatched,
        modeled_ns,
        backoff_epochs: sup.backoff_epochs(),
        checkpoint_restores: sup.checkpoint_restores(),
    })
}

/// The plain runners' contract on top of [`drive`]: no recovery record,
/// and output divergence is a panic (typed config/validation errors are
/// a later round's work).
pub(crate) fn validated(run: ResilientRun, what: &str) -> AppRun {
    assert!(run.run.validated, "{what} diverges from CPU reference");
    run.run
}
