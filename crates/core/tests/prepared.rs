//! Prepared & fused execution identity suite.
//!
//! The prepared tier ([`pidcomm::PreparedScatter`], [`pidcomm::FusedPlan`])
//! removes host-side copies and per-call validation — never the charged
//! schedule. Every test here pins that claim bit-for-bit: prepared
//! executes against per-call `execute_with_host`, fused chains against the
//! same plans issued separately, and the verified/chaos tier against the
//! clean result — across all 8 primitives, 3 optimization levels and
//! fresh/recycled arenas. A rooted send's row source (`HostRows`) is held
//! to the same standard: a generating source lands what its materialized
//! twin lands, asking for each rank row once.

use pidcomm::engine::supervisor::{Iteration, Supervisor};
use pidcomm::{
    BufferSpec, CollectivePlan, Communicator, DimMask, Error, HostRows, HypercubeManager,
    HypercubeShape, OptLevel, Primitive, RecoveryPolicy, ReduceKind, RunPolicy, VerifiedExecution,
};
use pim_sim::{DimmGeometry, FaultKind, FaultPlan, PimSystem, SystemArena};
use std::ops::Range;
use std::sync::{Arc, Mutex};

const B: usize = 512;
const N: usize = 8;
const GROUPS: usize = 8;
// Chain buffer layout: step k writes exactly where step k + 1 reads, so a
// fused chain moves data end-to-end with no host staging in between.
const O1: usize = 8192; // first-step destination
const O2: usize = 16384; // second-step destination
const O3: usize = 24576; // third-step destination (AllGather: N * B wide)
const O4: usize = 32768; // last-step destination
const SNAP: usize = O4 + N * B; // snapshot window covers every extent

fn comm(opt: OptLevel, threads: usize) -> Communicator {
    let geom = DimmGeometry::single_rank(); // 64 PEs
    let manager = HypercubeManager::new(HypercubeShape::new(vec![8, 8]).unwrap(), geom).unwrap();
    Communicator::new(manager)
        .with_opt(opt)
        .with_threads(threads)
}

fn fresh_filled(arena: &mut SystemArena) -> PimSystem {
    let geom = DimmGeometry::single_rank();
    let mut sys = arena.system(geom);
    for pe in geom.pes() {
        let fill: Vec<u8> = (0..N * B)
            .map(|i| ((pe.0 as usize * 31 + i * 7) % 251) as u8)
            .collect();
        sys.pe_mut(pe).write(0, &fill);
    }
    sys
}

/// Full MRAM image of every window the chains touch, on every PE.
fn snapshot(sys: &PimSystem) -> Vec<Vec<u8>> {
    sys.geometry()
        .pes()
        .map(|pe| sys.pe(pe).peek(0, SNAP))
        .collect()
}

fn host_in(prim: Primitive) -> Vec<Vec<u8>> {
    match prim {
        Primitive::Scatter => (0..GROUPS)
            .map(|g| (0..N * B).map(|i| ((g * 13 + i) % 241) as u8).collect())
            .collect(),
        Primitive::Broadcast => (0..GROUPS)
            .map(|g| (0..B).map(|i| ((g * 17 + i) % 239) as u8).collect())
            .collect(),
        _ => unreachable!("only rooted sends take host input"),
    }
}

/// The two chains that cover all 8 primitives between them, wired so each
/// step consumes the previous step's destination window. Returns the plan
/// sequence; step 0 is always a rooted send, the last step a rooted
/// receive.
fn chain(c: &Communicator, mask: &DimMask, first: Primitive) -> Vec<Arc<CollectivePlan>> {
    let plan = |prim: Primitive, src: usize, dst: usize, bytes: usize| {
        Arc::new(
            c.plan(
                prim,
                mask,
                &BufferSpec::new(src, dst, bytes),
                ReduceKind::Sum,
            )
            .unwrap(),
        )
    };
    match first {
        // Scatter -> AlltoAll -> ReduceScatter -> Gather.
        Primitive::Scatter => vec![
            plan(Primitive::Scatter, 0, O1, B),
            plan(Primitive::AlltoAll, O1, O2, B),
            plan(Primitive::ReduceScatter, O2, O3, B),
            plan(Primitive::Gather, O3, O4, B / N),
        ],
        // Broadcast -> AllReduce -> AllGather -> Reduce.
        Primitive::Broadcast => vec![
            plan(Primitive::Broadcast, 0, O1, B),
            plan(Primitive::AllReduce, O1, O2, B),
            plan(Primitive::AllGather, O2, O3, B),
            plan(Primitive::Reduce, O3, O4, N * B),
        ],
        other => unreachable!("chains start with a rooted send, not {other}"),
    }
}

/// Executes one plan through the ordinary per-call path.
fn run_step(
    plan: &CollectivePlan,
    sys: &mut PimSystem,
    hin: Option<&[Vec<u8>]>,
) -> (pidcomm::CommReport, Option<Vec<Vec<u8>>>) {
    match plan.primitive() {
        Primitive::Scatter | Primitive::Broadcast => {
            (plan.execute_with_host(sys, hin.unwrap()).unwrap(), None)
        }
        Primitive::Gather | Primitive::Reduce => {
            let (r, out) = plan.execute_to_host(sys).unwrap();
            (r, Some(out))
        }
        _ => (plan.execute(sys).unwrap(), None),
    }
}

/// A prepared scatter/broadcast executes bit-identically to per-call
/// `execute_with_host` — across opt levels, repeat executes, recycled
/// arenas and restaged payloads.
#[test]
fn prepared_execution_matches_per_call_path() {
    let mask: DimMask = "10".parse().unwrap();
    for opt in [OptLevel::Baseline, OptLevel::InRegister, OptLevel::Full] {
        for prim in [Primitive::Scatter, Primitive::Broadcast] {
            let c = comm(opt, 1);
            let hin = host_in(prim);
            let plan = Arc::new(
                c.plan(prim, &mask, &BufferSpec::new(0, O1, B), ReduceKind::Sum)
                    .unwrap(),
            );

            // Cold per-call reference.
            let mut arena = SystemArena::new();
            let mut sys = fresh_filled(&mut arena);
            let ref_report = plan.execute_with_host(&mut sys, &hin).unwrap();
            let ref_mram = snapshot(&sys);
            arena.recycle(sys);

            // Prepared: stage once, execute thrice, across fresh and
            // arena-pooled images.
            let prepared = c.prepare(Arc::clone(&plan), &hin).unwrap();
            let pooled = c.prepare_in(Arc::clone(&plan), &hin, &mut arena).unwrap();
            for p in [&prepared, &pooled] {
                for round in 0..3 {
                    let mut sys = fresh_filled(&mut arena);
                    let report = p.execute(&mut sys).unwrap();
                    assert!(
                        report == ref_report,
                        "{prim} {opt:?}: prepared report diverges (round {round})"
                    );
                    assert!(
                        snapshot(&sys) == ref_mram,
                        "{prim} {opt:?}: prepared MRAM diverges (round {round})"
                    );
                    arena.recycle(sys);
                }
            }
            pooled.retire(&mut arena);

            // Restage with a different payload: matches the per-call path
            // for that payload.
            let hin2: Vec<Vec<u8>> = hin
                .iter()
                .map(|b| b.iter().map(|&x| x.wrapping_add(101)).collect())
                .collect();
            let mut sys = fresh_filled(&mut arena);
            let ref2 = plan.execute_with_host(&mut sys, &hin2).unwrap();
            let ref2_mram = snapshot(&sys);
            arena.recycle(sys);
            let mut prepared = prepared;
            prepared.restage(&hin2).unwrap();
            let mut sys = fresh_filled(&mut arena);
            let report = prepared.execute(&mut sys).unwrap();
            assert!(report == ref2, "{prim} {opt:?}: restaged report diverges");
            assert!(
                snapshot(&sys) == ref2_mram,
                "{prim} {opt:?}: restaged MRAM diverges"
            );
        }
    }
}

/// A fused chain's per-step reports, host output and PE bytes are
/// bit-identical to issuing the same plans separately — for both chains
/// (all 8 primitives), all 3 opt levels, fresh and recycled arenas.
#[test]
fn fused_chain_matches_unfused_plan_sequence() {
    let mask: DimMask = "10".parse().unwrap();
    for opt in [OptLevel::Baseline, OptLevel::InRegister, OptLevel::Full] {
        for first in [Primitive::Scatter, Primitive::Broadcast] {
            let c = comm(opt, 1);
            let steps = chain(&c, &mask, first);
            let hin = host_in(first);

            // Unfused reference: the same plans, issued one at a time.
            let mut arena = SystemArena::new();
            let mut sys = fresh_filled(&mut arena);
            let mut ref_reports = Vec::new();
            let mut ref_host_out = None;
            for step in &steps {
                let (r, out) = run_step(step, &mut sys, Some(&hin));
                ref_reports.push(r);
                ref_host_out = out;
            }
            let ref_mram = snapshot(&sys);
            arena.recycle(sys);

            // Fused: one chain, the prepared payload feeding step 0. Three
            // rounds over arena-recycled systems prove repeatability.
            let prepared = c
                .prepare_in(Arc::clone(&steps[0]), &hin, &mut arena)
                .unwrap();
            let fused = c.fuse(steps.clone(), &[]).unwrap();
            for round in 0..3 {
                let mut sys = fresh_filled(&mut arena);
                let exec = fused
                    .execute_with(&mut sys, Some(&prepared), |_, _| Ok(()))
                    .unwrap();
                assert!(
                    exec.reports == ref_reports,
                    "{first} chain {opt:?}: fused step reports diverge (round {round})"
                );
                assert!(
                    exec.host_out == ref_host_out,
                    "{first} chain {opt:?}: fused host output diverges (round {round})"
                );
                assert!(
                    snapshot(&sys) == ref_mram,
                    "{first} chain {opt:?}: fused MRAM diverges (round {round})"
                );
                arena.recycle(sys);
            }
            prepared.retire(&mut arena);
        }
    }
}

/// The fusion contract rejects malformed chains and mismatched prepared
/// payloads with typed errors.
#[test]
fn fusion_contract_is_enforced() {
    let mask: DimMask = "10".parse().unwrap();
    let c = comm(OptLevel::Full, 1);
    let steps = chain(&c, &mask, Primitive::Scatter);

    // Fewer than two steps.
    assert!(matches!(
        c.fuse(vec![Arc::clone(&steps[1])], &[]),
        Err(Error::InvalidHostData(_))
    ));
    // A rooted send anywhere but first.
    assert!(matches!(
        c.fuse(vec![Arc::clone(&steps[1]), Arc::clone(&steps[0])], &[]),
        Err(Error::InvalidHostData(_))
    ));
    // A rooted receive anywhere but last.
    assert!(matches!(
        c.fuse(vec![Arc::clone(&steps[3]), Arc::clone(&steps[1])], &[]),
        Err(Error::InvalidHostData(_))
    ));

    let fused = c.fuse(steps.clone(), &[]).unwrap();
    let mut arena = SystemArena::new();
    let mut sys = fresh_filled(&mut arena);
    // A rooted-send chain demands its prepared payload.
    assert!(fused.execute_with(&mut sys, None, |_, _| Ok(())).is_err());
    // A payload staged for a *different* plan instance (same shape, same
    // bytes) is rejected: identity, not structural equality, is the
    // contract.
    let twin = chain(&c, &mask, Primitive::Scatter);
    let wrong = c
        .prepare(Arc::clone(&twin[0]), &host_in(Primitive::Scatter))
        .unwrap();
    assert!(fused
        .execute_with(&mut sys, Some(&wrong), |_, _| Ok(()))
        .is_err());
    // A non-rooted chain takes no prepared input.
    let tail = c
        .fuse(vec![Arc::clone(&steps[1]), Arc::clone(&steps[2])], &[])
        .unwrap();
    assert!(tail
        .execute_with(&mut sys, Some(&wrong), |_, _| Ok(()))
        .is_err());

    // Merged rollback regions cover every step's extents plus hook extras.
    let hook_region = (SNAP, 128);
    let with_extra = c.fuse(steps, &[hook_region]).unwrap();
    let covers = |off: usize, len: usize| {
        with_extra
            .regions()
            .iter()
            .any(|&(o, l)| o <= off && off + len <= o + l)
    };
    assert!(covers(O1, B), "step-0 destination uncovered");
    assert!(covers(O3, B / N), "mid-chain destination uncovered");
    assert!(covers(SNAP, 128), "hook extra region uncovered");
}

/// With no fault plan attached, the verified fused path is bit-identical
/// to the plain fused execute — the chain-level zero-cost guarantee.
#[test]
fn zero_fault_verified_fused_is_bit_identical() {
    let mask: DimMask = "10".parse().unwrap();
    for first in [Primitive::Scatter, Primitive::Broadcast] {
        let c = comm(OptLevel::Full, 1);
        let steps = chain(&c, &mask, first);
        let hin = host_in(first);
        let prepared = c.prepare(Arc::clone(&steps[0]), &hin).unwrap();
        let fused = c.fuse(steps, &[]).unwrap();

        let mut arena = SystemArena::new();
        let mut sys = fresh_filled(&mut arena);
        let plain = fused
            .execute_with(&mut sys, Some(&prepared), |_, _| Ok(()))
            .unwrap();
        let plain_mram = snapshot(&sys);
        arena.recycle(sys);

        let mut sys = fresh_filled(&mut arena);
        let ver = c
            .execute_verified_fused(
                &mut sys,
                &fused,
                Some(&prepared),
                &RecoveryPolicy::default(),
                |_, _| Ok(()),
            )
            .unwrap();
        assert_eq!(ver.retries, 0, "{first} chain");
        assert!(!ver.degraded, "{first} chain");
        assert!(
            ver.reports == plain.reports,
            "{first} chain: verified step reports diverge"
        );
        assert!(
            ver.host_out == plain.host_out,
            "{first} chain: verified host output diverges"
        );
        assert!(
            snapshot(&sys) == plain_mram,
            "{first} chain: verified MRAM diverges"
        );
    }
}

/// The acceptance chaos scenario: a seeded transient fault landing in the
/// *middle* of a fused chain — after step 0 committed, with a hook having
/// written its own region — rolls the whole chain back (merged step +
/// hook regions) and replays to the exact clean result, hook included.
#[test]
fn mid_fused_step_fault_rolls_back_whole_chain_cleanly() {
    let mask: DimMask = "10".parse().unwrap();
    let c = comm(OptLevel::Full, 1);
    let steps = chain(&c, &mask, Primitive::Scatter);
    let hin = host_in(Primitive::Scatter);
    let prepared = c.prepare(Arc::clone(&steps[0]), &hin).unwrap();

    // The hook after step 0 derives bytes from step 0's output and lands
    // them past every plan extent; `extra` tells the chain to cover them.
    let hook_off = SNAP;
    let hook = |k: usize, sys: &mut PimSystem| {
        if k == 0 {
            for pe in sys.geometry().pes() {
                let row: Vec<u8> = sys.pe(pe).peek(O1, 64).iter().map(|&b| b ^ 0xFF).collect();
                sys.pe_mut(pe).write(hook_off, &row);
            }
        }
        Ok(())
    };
    let fused = c.fuse(steps, &[(hook_off, 64)]).unwrap();

    // Clean reference (hook included).
    let mut arena = SystemArena::new();
    let mut sys = fresh_filled(&mut arena);
    let clean = fused.execute_with(&mut sys, Some(&prepared), hook).unwrap();
    let clean_mram: Vec<Vec<u8>> = sys
        .geometry()
        .pes()
        .map(|pe| sys.pe(pe).peek(0, SNAP + 64))
        .collect();
    arena.recycle(sys);

    // A bit flip on PE 2's writes during fault epoch 3 — the chain's
    // *third* step, two steps and one hook after the prepared payload
    // landed. The verified tier must detect it, restore the merged
    // regions (hook bytes included) and re-run the chain from step 0.
    let mut sys = fresh_filled(&mut arena);
    sys.attach_fault_plan(Arc::new(FaultPlan::new(7).with_event(
        FaultKind::BitFlip,
        2,
        3,
    )));
    let ver = c
        .execute_verified_fused(
            &mut sys,
            &fused,
            Some(&prepared),
            &RecoveryPolicy::default(),
            hook,
        )
        .unwrap();
    assert!(ver.retries >= 1, "the mid-chain fault must force a retry");
    assert!(!ver.degraded);
    // The committed pass's step reports are meter deltas; after a failed
    // attempt the meter base shifts, so the breakdowns agree only to f64
    // rounding. The *logical* schedule must match exactly, and the retry
    // surcharge must be visible in the spanning breakdown.
    assert_eq!(ver.reports.len(), clean.reports.len());
    for (v, c) in ver.reports.iter().zip(&clean.reports) {
        assert_eq!(v.primitive, c.primitive);
        assert_eq!((v.bytes_in, v.bytes_out), (c.bytes_in, c.bytes_out));
        assert_eq!((v.group_size, v.num_groups), (c.group_size, c.num_groups));
    }
    let clean_total: f64 = clean.reports.iter().map(|r| r.time_ns()).sum();
    assert!(
        ver.breakdown.total() > clean_total,
        "recovery must be visible in modeled time ({} vs clean {clean_total})",
        ver.breakdown.total()
    );
    assert!(ver.host_out == clean.host_out, "host output diverges");
    sys.detach_fault_plan();
    let got: Vec<Vec<u8>> = sys
        .geometry()
        .pes()
        .map(|pe| sys.pe(pe).peek(0, SNAP + 64))
        .collect();
    assert!(
        got == clean_mram,
        "retried chain must land the exact clean bytes, hook region included"
    );
}

/// The merged recovery loop restores the unit's rollback image before
/// every degrade, for single plans and chains alike — and this is the
/// case that needs it. A single plan can only meet a persistently failed
/// PE at its pre-dispatch scan, before anything was written, where the
/// restore rewrites identical bytes. A chain can meet one *mid-chain*:
/// here PE 9 dies between step 0 and step 1 (the inter-step hook swaps in
/// a fault plan that lists it), after step 0 pre-rotated its sources in
/// place and landed its output, and with no retry having happened. The
/// host recompute must start from the chain-entry state regardless — the
/// result equals degrading the same chain with PE 9 dead from the start.
#[test]
fn degrade_starts_from_the_entry_state_for_plans_and_chains() {
    const DEAD: u32 = 9;
    let mask: DimMask = "10".parse().unwrap();
    let c = comm(OptLevel::Full, 1);
    let plan = |prim: Primitive, src: usize, dst: usize| {
        let spec = BufferSpec::new(src, dst, B);
        Arc::new(c.plan(prim, &mask, &spec, ReduceKind::Sum).unwrap())
    };
    let dead = || Arc::new(FaultPlan::new(7).with_failed_pe(DEAD));
    let policy = RecoveryPolicy::default();
    let mut arena = SystemArena::new();
    let entry = snapshot(&fresh_filled(&mut arena));

    // Single plan, PE dead from the start: degraded on the first attempt,
    // sources untouched.
    let single = plan(Primitive::AllReduce, 0, O1);
    let mut sys = fresh_filled(&mut arena);
    sys.attach_fault_plan(dead());
    let ver = c
        .execute_verified(&mut sys, &single, None, &policy)
        .unwrap();
    assert!(ver.degraded);
    assert_eq!(ver.retries, 0);
    for (got, want) in snapshot(&sys).iter().zip(&entry) {
        assert!(got[..B] == want[..B], "degrade must leave sources intact");
    }

    // Reference for the chain: PE dead from the start, so the degrade
    // runs on the entry state by construction.
    let fused = c
        .fuse(
            vec![
                plan(Primitive::AllReduce, 0, O1),
                plan(Primitive::AlltoAll, O1, O2),
            ],
            &[],
        )
        .unwrap();
    let mut sys = fresh_filled(&mut arena);
    sys.attach_fault_plan(dead());
    let reference = c
        .execute_verified_fused(&mut sys, &fused, None, &policy, |_, _| Ok(()))
        .unwrap();
    assert!(reference.degraded);
    let reference_mram = snapshot(&sys);

    // The same chain with the PE dying after step 0 committed. A
    // fault-free plan is attached up front so the rollback image exists.
    let mut sys = fresh_filled(&mut arena);
    sys.attach_fault_plan(Arc::new(FaultPlan::new(7)));
    let ver = c
        .execute_verified_fused(&mut sys, &fused, None, &policy, |_, sys| {
            sys.attach_fault_plan(dead());
            Ok(())
        })
        .unwrap();
    assert!(ver.degraded);
    assert_eq!(ver.retries, 0, "a persistent failure is not retried");
    assert!(
        snapshot(&sys) == reference_mram,
        "mid-chain degrade must recompute from the chain-entry state"
    );
}

// ---- Row sources: a rooted send's host input is read a row at a time. ----

/// Byte `i` of group `g`'s generated buffer.
fn generated_byte(g: usize, i: usize) -> u8 {
    ((g * 131 + i * 7 + i / 251) % 253) as u8
}

/// A row source that generates every byte it is asked for and holds none.
struct Generated {
    groups: usize,
    len: usize,
}

impl Generated {
    /// The same bytes, held: the source's copying twin.
    fn materialize(&self) -> Vec<Vec<u8>> {
        (0..self.groups)
            .map(|g| (0..self.len).map(|i| generated_byte(g, i)).collect())
            .collect()
    }
}

impl HostRows for Generated {
    fn groups(&self) -> usize {
        self.groups
    }

    fn group_len(&self, _: usize) -> usize {
        self.len
    }

    fn fill(&self, group: usize, range: Range<usize>, dst: &mut [u8]) {
        for (d, i) in dst.iter_mut().zip(range) {
            *d = generated_byte(group, i);
        }
    }
}

/// A generated source that records every request it serves.
struct Counting {
    inner: Generated,
    requests: Mutex<Vec<(usize, Range<usize>)>>,
}

impl HostRows for Counting {
    fn groups(&self) -> usize {
        self.inner.groups()
    }

    fn group_len(&self, group: usize) -> usize {
        self.inner.group_len(group)
    }

    fn fill(&self, group: usize, range: Range<usize>, dst: &mut [u8]) {
        self.requests.lock().unwrap().push((group, range.clone()));
        self.inner.fill(group, range, dst);
    }
}

/// A 64-PE 4x4x4 hypercube: `"100"` is 16 groups of 4, `"011"` 4 groups of
/// 16.
fn cube(opt: OptLevel, threads: usize) -> Communicator {
    let geom = DimmGeometry::single_rank();
    let manager = HypercubeManager::new(HypercubeShape::new(vec![4, 4, 4]).unwrap(), geom).unwrap();
    Communicator::new(manager)
        .with_opt(opt)
        .with_threads(threads)
}

/// The generated payload of a rooted send planned by `plan`.
fn generated_for(plan: &CollectivePlan) -> Generated {
    let b = plan.spec().bytes_per_node;
    Generated {
        groups: plan.num_groups(),
        len: match plan.primitive() {
            Primitive::Scatter => plan.group_size() * b,
            _ => b,
        },
    }
}

/// Runs `plan` over the row source `rows` through a supervised attempt —
/// the entry the apps use — on `sys`.
fn run_rows(
    sys: &mut PimSystem,
    plan: &CollectivePlan,
    rows: &dyn HostRows,
) -> pidcomm::Result<VerifiedExecution> {
    let mut arena = SystemArena::new();
    let mut sup = Supervisor::new(sys.geometry().num_pes(), RunPolicy::default());
    match sup.iteration(sys, &mut arena, &[], |sys, at| {
        at.collective(sys, plan, Some(rows))
    })? {
        Iteration::Done(exec) => Ok(exec),
        Iteration::Abort(outcome) => panic!("a one-collective run aborted: {outcome:?}"),
    }
}

/// A generating row source and its materialized twin land the same MRAM
/// bytes with the same report bits — clean, and degraded around a dead PE
/// through the verified tier.
#[test]
fn a_row_source_is_the_payload() {
    for opt in [OptLevel::Baseline, OptLevel::Full] {
        for prim in [Primitive::Scatter, Primitive::Broadcast] {
            for mask in ["100", "011"] {
                for threads in [1, 2] {
                    let c = cube(opt, threads);
                    let mask: DimMask = mask.parse().unwrap();
                    let plan = c
                        .plan(prim, &mask, &BufferSpec::new(0, O1, B), ReduceKind::Sum)
                        .unwrap();
                    let source = generated_for(&plan);
                    let twin = source.materialize();
                    let at = format!("{prim} {opt:?} mask {mask} threads {threads}");

                    let mut arena = SystemArena::new();
                    let mut sys = fresh_filled(&mut arena);
                    let want = plan.execute_with_host(&mut sys, &twin).unwrap();
                    let want_mram = snapshot(&sys);
                    let mut sys = fresh_filled(&mut arena);
                    let got = run_rows(&mut sys, &plan, &source).unwrap();
                    assert!(!got.degraded, "{at}");
                    assert!(got.report == want, "{at}: report diverges");
                    assert!(snapshot(&sys) == want_mram, "{at}: MRAM diverges");

                    // PE 5 dead: both sides degrade and land every other
                    // member's row.
                    let dead = || Arc::new(FaultPlan::new(3).with_failed_pe(5));
                    let mut sys = fresh_filled(&mut arena);
                    sys.attach_fault_plan(dead());
                    let policy = RecoveryPolicy::default();
                    let want = c
                        .execute_verified(&mut sys, &plan, Some(&twin), &policy)
                        .unwrap();
                    assert!(want.degraded, "{at}");
                    let want_mram = snapshot(&sys);
                    let mut sys = fresh_filled(&mut arena);
                    sys.attach_fault_plan(dead());
                    let got = run_rows(&mut sys, &plan, &source).unwrap();
                    assert!(got.degraded, "{at}");
                    assert!(got.report == want.report, "{at}: degraded report diverges");
                    assert!(snapshot(&sys) == want_mram, "{at}: degraded MRAM diverges");
                }
            }
        }
    }
}

/// What the send asks a row source for — the property a generating
/// source's memory rests on: a clean Scatter requests every `(group, rank
/// row)` exactly once and never a range across two rows; a Broadcast
/// requests only `0..b`.
#[test]
fn a_send_requests_each_rank_row_once() {
    for opt in [OptLevel::Baseline, OptLevel::Full] {
        for mask in ["100", "011"] {
            for threads in [1, 2] {
                let c = cube(opt, threads);
                let mask: DimMask = mask.parse().unwrap();
                let at = format!("{opt:?} mask {mask} threads {threads}");
                for prim in [Primitive::Scatter, Primitive::Broadcast] {
                    let plan = c
                        .plan(prim, &mask, &BufferSpec::new(0, O1, B), ReduceKind::Sum)
                        .unwrap();
                    let source = Counting {
                        inner: generated_for(&plan),
                        requests: Mutex::new(Vec::new()),
                    };
                    let mut sys = PimSystem::new(DimmGeometry::single_rank());
                    run_rows(&mut sys, &plan, &source).unwrap();
                    let mut requests = source.requests.into_inner().unwrap();
                    assert!(!requests.is_empty(), "{prim} {at}");
                    if prim == Primitive::Broadcast {
                        assert!(
                            requests.iter().all(|(_, r)| *r == (0..B)),
                            "{prim} {at}: {requests:?}"
                        );
                        continue;
                    }
                    for (g, r) in &requests {
                        assert!(
                            r.len() == B && r.start % B == 0,
                            "{prim} {at}: group {g} asked {r:?}, not one rank row"
                        );
                    }
                    requests.sort_by_key(|(g, r)| (*g, r.start));
                    let every_row: Vec<(usize, Range<usize>)> = (0..plan.num_groups())
                        .flat_map(|g| (0..plan.group_size()).map(move |r| (g, r * B..(r + 1) * B)))
                        .collect();
                    assert_eq!(requests, every_row, "{prim} {at}");
                }
            }
        }
    }
}

/// A row source of the wrong shape is a typed error before any PE is
/// written, through the supervised attempt and through `run`'s slices.
#[test]
fn a_bad_row_source_is_a_typed_error() {
    let c = cube(OptLevel::Full, 1);
    let mask: DimMask = "100".parse().unwrap();
    for prim in [Primitive::Scatter, Primitive::Broadcast] {
        let plan = c
            .plan(prim, &mask, &BufferSpec::new(0, O1, B), ReduceKind::Sum)
            .unwrap();
        let good = generated_for(&plan);
        let too_few = Generated {
            groups: good.groups - 1,
            len: good.len,
        };
        let too_short = Generated {
            groups: good.groups,
            len: good.len - 8,
        };
        let mut one_short = good.materialize();
        one_short[3].truncate(good.len - 8);
        let sources: [(&str, &dyn HostRows); 3] = [
            ("wrong group count", &too_few),
            ("wrong lengths", &too_short),
            ("one group short", &one_short),
        ];
        for (what, source) in sources {
            let mut sys = PimSystem::new(DimmGeometry::single_rank());
            let err = run_rows(&mut sys, &plan, source).unwrap_err();
            assert!(
                matches!(err, Error::InvalidHostData(_)),
                "{prim} {what}: {err}"
            );
            assert_eq!(sys.total_mram_used(), 0, "{prim} {what}");
        }
        for bad in [too_few.materialize(), one_short.clone()] {
            let mut sys = PimSystem::new(DimmGeometry::single_rank());
            let err = plan.run(&mut sys, Some(&bad)).unwrap_err();
            assert!(matches!(err, Error::InvalidHostData(_)), "{prim}: {err}");
            assert_eq!(sys.total_mram_used(), 0, "{prim}");
        }
    }
}
