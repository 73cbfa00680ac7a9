//! Run-level supervisor policy suite, on a bare plan.
//!
//! The five applications reach [`Supervisor::iteration`] only through
//! seeded storms, where a policy-arithmetic slip shows up as one moved
//! retry count in a 35-cell table. These tests drive the same loop on a
//! single AllReduce with explicitly scheduled faults, so every decision —
//! rollback, replay, backoff schedule, budget, deadline — is pinned by a
//! case that names it.

use std::sync::Arc;

use pidcomm::engine::supervisor::{Iteration, Supervisor};
use pidcomm::{
    BufferSpec, CollectivePlan, Communicator, DimMask, Error, HostRows, HypercubeManager,
    HypercubeShape, Primitive, ReduceKind, RunOutcome, RunPolicy,
};
use pim_sim::{DimmGeometry, FaultKind, FaultPlan, PimSystem, SystemArena};

const B: usize = 512;
const DST: usize = 8192;
/// A window outside the plan's extents: the "live app state" a step
/// overwrites and the iteration checkpoint must bring back.
const LIVE: (usize, usize) = (16384, 64);
const SENTINEL: [u8; 64] = [0xA5; 64];
/// The PE every scheduled fault lands on.
const FAULTY: u32 = 2;

fn comm() -> Communicator {
    let geom = DimmGeometry::single_rank(); // 64 PEs
    let manager = HypercubeManager::new(HypercubeShape::new(vec![8, 8]).unwrap(), geom).unwrap();
    Communicator::new(manager).with_threads(1)
}

fn all_reduce(c: &Communicator) -> CollectivePlan {
    let mask: DimMask = "10".parse().unwrap();
    c.plan(
        Primitive::AllReduce,
        &mask,
        &BufferSpec::new(0, DST, B),
        ReduceKind::Sum,
    )
    .unwrap()
}

/// A system with deterministic sources, the live window set to the
/// sentinel, and (optionally) bit flips on [`FAULTY`]'s writes during the
/// given fault epochs — attached the way the app driver attaches a plan.
fn system(fault_epochs: &[u64]) -> (PimSystem, Option<Arc<FaultPlan>>) {
    let geom = DimmGeometry::single_rank();
    let mut sys = PimSystem::new(geom);
    for pe in geom.pes() {
        let fill: Vec<u8> = (0..B)
            .map(|i| ((pe.0 as usize * 31 + i * 7) % 251) as u8)
            .collect();
        sys.pe_mut(pe).write(0, &fill);
        sys.pe_mut(pe).write(LIVE.0, &SENTINEL);
    }
    if fault_epochs.is_empty() {
        return (sys, None);
    }
    let plan = fault_epochs.iter().fold(FaultPlan::new(1), |fp, &epoch| {
        fp.with_event(FaultKind::BitFlip, FAULTY, epoch)
    });
    let plan = Arc::new(plan);
    sys.attach_fault_plan(plan.clone());
    sys.set_verify_writes(true);
    (sys, Some(plan))
}

/// A policy whose per-collective tier never retries, so every scheduled
/// fault reaches the iteration loop under test; quarantine is off so a
/// repeat offender keeps failing the same way instead of being degraded
/// around.
fn policy() -> RunPolicy {
    let mut policy = RunPolicy::default().without_quarantine();
    policy.plan_attempt.max_retries = 0;
    policy
}

fn dst_image(sys: &PimSystem) -> Vec<Vec<u8>> {
    sys.geometry()
        .pes()
        .map(|pe| sys.pe(pe).peek(DST, B))
        .collect()
}

#[test]
fn typed_fault_restores_the_checkpoint_and_replays_the_body() {
    let c = comm();
    let plan = all_reduce(&c);
    let (mut clean, _) = system(&[]);
    let clean_report = plan.execute(&mut clean).unwrap();

    let (mut sys, _) = system(&[1]);
    let mut arena = SystemArena::new();
    let mut sup = Supervisor::new(64, policy());
    let mut calls = 0u8;
    // The checkpoint names everything the step destroys and does not
    // restage itself: the live window, and the collective's sources —
    // phase A pre-rotates them in place, and a failed attempt that is not
    // retried at the plan level leaves them rotated.
    let outcome = sup
        .iteration(&mut sys, &mut arena, &[LIVE, (0, B)], |sys, at| {
            // Every attempt must find the iteration-boundary state …
            for pe in sys.geometry().pes() {
                assert_eq!(sys.pe(pe).peek(LIVE.0, LIVE.1), SENTINEL, "attempt {calls}");
            }
            // … and overwrites it, as an app step overwrites its live
            // region, before the collective that may fail.
            calls += 1;
            for pe in sys.geometry().pes() {
                sys.pe_mut(pe).write(LIVE.0, &[calls; 64]);
            }
            at.collective(sys, &plan, None)
        })
        .unwrap();
    let Iteration::Done(exec) = outcome else {
        panic!("one transient fault must not abort the run: {outcome:?}");
    };
    assert_eq!(calls, 2, "the body runs again after the rollback");
    assert_eq!(
        exec.retries, 0,
        "the per-collective tier was told not to retry"
    );
    assert_eq!(sup.retries(), 1);
    assert_eq!(sup.checkpoint_restores(), 1);
    assert_eq!(sup.backoff_epochs(), 1);
    assert!(sup.ledger().health(FAULTY).corruptions >= 1);
    assert_eq!(sup.outcome(), RunOutcome::Completed);
    assert!(
        dst_image(&sys) == dst_image(&clean),
        "replayed result diverges"
    );
    assert!(
        sys.meter().total() > clean_report.time_ns(),
        "the failed attempt and the rollback must be visible in modeled time"
    );
}

#[test]
fn backoff_doubles_from_the_base_up_to_the_cap() {
    // Attempt k runs in the epoch after the previous backoff: 1, then
    // 1+1+1 = 3, 3+2+1 = 6, 6+4+1 = 11, 11+8+1 = 20, and — the cap
    // holding the fifth backoff at 8 — 20+8+1 = 29, which is clean.
    let c = comm();
    let plan = all_reduce(&c);
    let (mut sys, fault) = system(&[1, 3, 6, 11, 20]);
    let mut arena = SystemArena::new();
    let mut sup = Supervisor::new(64, policy());
    let outcome = sup
        .iteration(&mut sys, &mut arena, &[], |sys, at| {
            at.collective(sys, &plan, None)
        })
        .unwrap();
    assert!(matches!(outcome, Iteration::Done(_)), "{outcome:?}");
    assert_eq!(sup.retries(), 5);
    assert_eq!(sup.checkpoint_restores(), 5);
    assert_eq!(sup.backoff_epochs(), 1 + 2 + 4 + 8 + 8);
    assert_eq!(fault.unwrap().epoch(), 29);
}

#[test]
fn exhausted_retry_budget_aborts_with_a_typed_outcome() {
    let c = comm();
    let plan = all_reduce(&c);
    let (mut sys, _) = system(&[1, 3, 6]);
    let mut arena = SystemArena::new();
    let mut sup = Supervisor::new(64, policy().with_retry_budget(2));
    let outcome = sup
        .iteration(&mut sys, &mut arena, &[], |sys, at| {
            at.collective(sys, &plan, None)
        })
        .unwrap();
    assert!(
        matches!(outcome, Iteration::Abort(RunOutcome::BudgetExhausted)),
        "{outcome:?}"
    );
    assert_eq!(sup.retries(), 2, "the budget is spent, not overdrawn");
    assert_eq!(sup.outcome(), RunOutcome::BudgetExhausted);
}

#[test]
fn deadline_aborts_after_a_costly_rollback_and_at_the_next_boundary() {
    let c = comm();
    let plan = all_reduce(&c);
    let (mut clean, _) = system(&[]);
    let one_run_ns = plan.execute(&mut clean).unwrap().time_ns();

    // Room for one clean iteration and a half; the second iteration's
    // failed attempt pushes the meter past it.
    let (mut sys, _) = system(&[2]);
    let mut arena = SystemArena::new();
    let mut sup = Supervisor::new(64, policy().with_deadline_ns(1.5 * one_run_ns));
    let mut calls = 0;
    let mut step = |sup: &mut Supervisor, sys: &mut PimSystem| {
        sup.iteration(sys, &mut arena, &[], |sys, at| {
            calls += 1;
            at.collective(sys, &plan, None)
        })
        .unwrap()
    };
    assert!(matches!(step(&mut sup, &mut sys), Iteration::Done(_)));
    let second = step(&mut sup, &mut sys);
    assert!(
        matches!(second, Iteration::Abort(RunOutcome::DeadlineExceeded)),
        "{second:?}"
    );
    assert_eq!(
        sup.checkpoint_restores(),
        1,
        "the abort follows the rollback"
    );
    // Past the deadline, the next boundary aborts before running anything.
    let third = step(&mut sup, &mut sys);
    assert!(matches!(
        third,
        Iteration::Abort(RunOutcome::DeadlineExceeded)
    ));
    assert_eq!(calls, 2);
    assert_eq!(sup.outcome(), RunOutcome::DeadlineExceeded);
}

#[test]
fn non_fault_error_propagates_and_recycles_the_checkpoint() {
    let not_a_fault = |sys: &mut PimSystem, arena: &mut SystemArena| {
        let mut sup = Supervisor::new(64, policy());
        let result = sup.iteration(sys, arena, &[LIVE], |_, _| {
            Err::<(), _>(Error::InvalidHostData("not a fault".into()))
        });
        assert!(matches!(result, Err(Error::InvalidHostData(_))));
        assert_eq!(sup.retries(), 0, "only typed faults are retried");
    };
    // Under a plan (one that never fires) the live window is captured, and
    // the pooled checkpoint keeps its per-PE buffers.
    let (mut sys, _) = system(&[u64::MAX]);
    let mut arena = SystemArena::new();
    not_a_fault(&mut sys, &mut arena);
    assert_eq!(arena.checkpoint().bytes(), 64 * LIVE.1 as u64);
    // No plan, no capture: nothing could ask for the image back.
    let (mut sys, _) = system(&[]);
    let mut arena = SystemArena::new();
    not_a_fault(&mut sys, &mut arena);
    assert_eq!(arena.checkpoint().bytes(), 0);
}

#[test]
fn up_front_degrade_rejects_what_run_rejects() {
    let c = comm();
    let mask: DimMask = "10".parse().unwrap();
    let scatter = c
        .plan(
            Primitive::Scatter,
            &mask,
            &BufferSpec::new(0, DST, B),
            ReduceKind::Sum,
        )
        .unwrap();
    let (mut sys, _) = system(&[]);
    sys.attach_fault_plan(Arc::new(FaultPlan::new(1).with_failed_pe(3)));
    let mut arena = SystemArena::new();
    let mut sup = Supervisor::new(64, RunPolicy::default());
    // One AllReduce meets the dead PE; the ledger quarantines it, so every
    // later collective takes the up-front degraded path.
    let plan = all_reduce(&c);
    sup.iteration(&mut sys, &mut arena, &[], |sys, at| {
        at.collective(sys, &plan, None)
    })
    .unwrap();
    assert!(sup.ledger().is_quarantined(3));

    let good = vec![vec![7u8; 8 * B]; 8];
    let short = vec![vec![7u8; 8 * B - 8]; 8];
    let mut small = PimSystem::new(DimmGeometry::single_group());
    let mut scatter_on = |mut other: Option<&mut PimSystem>, host_in: Option<&dyn HostRows>| {
        sup.iteration(&mut sys, &mut arena, &[], |sys, at| {
            let sys = other.as_deref_mut().unwrap_or(sys);
            at.collective(sys, &scatter, host_in)
        })
    };
    let missing = scatter_on(None, None);
    assert!(matches!(missing, Err(Error::InvalidHostData(_))));
    let wrong_size = scatter_on(None, Some(&short));
    assert!(matches!(wrong_size, Err(Error::InvalidHostData(_))));
    let wrong_system = scatter_on(Some(&mut small), Some(&good));
    assert!(matches!(
        wrong_system,
        Err(Error::ShapeSystemMismatch { nodes: 64, pes: 8 })
    ));
    let Ok(Iteration::Done(exec)) = scatter_on(None, Some(&good)) else {
        panic!("a valid scatter degrades around the quarantined PE");
    };
    assert!(exec.degraded);
}

#[test]
fn no_fault_plan_means_no_recovery_and_identical_modeled_bits() {
    let c = comm();
    let plan = all_reduce(&c);
    let (mut clean, _) = system(&[]);
    let clean_report = plan.execute(&mut clean).unwrap();

    let (mut sys, _) = system(&[]);
    let mut arena = SystemArena::new();
    let mut sup = Supervisor::new(64, RunPolicy::default());
    let outcome = sup
        .iteration(&mut sys, &mut arena, &[LIVE], |sys, at| {
            at.collective(sys, &plan, None)
        })
        .unwrap();
    let Iteration::Done(exec) = outcome else {
        panic!("clean run aborted: {outcome:?}");
    };
    assert!(exec.report == clean_report, "supervised report diverges");
    assert!(!exec.degraded);
    assert_eq!(
        (
            sup.retries(),
            sup.backoff_epochs(),
            sup.checkpoint_restores()
        ),
        (0, 0, 0)
    );
    assert_eq!(sup.outcome(), RunOutcome::Completed);
    assert_eq!(
        sys.meter().total().to_bits(),
        clean.meter().total().to_bits()
    );
    assert!(dst_image(&sys) == dst_image(&clean));
}
