//! Chaos suite for the fault-injection / verified-execution layer.
//!
//! Three guarantees, in order of importance:
//!
//! 1. **Zero-cost when disabled**: with no fault plan attached,
//!    `execute_verified` is byte- and modeled-bit-identical to the plain
//!    execute path, for every primitive at every optimization level.
//! 2. **Transient faults recover**: an injected single fault is retried
//!    under a fresh epoch and produces the exact clean result, with the
//!    recovery visible in modeled time.
//! 3. **No silent corruption**: under seeded random fault storms
//!    (`PIDCOMM_CHAOS_SEED` overrides the base seed), every run either
//!    returns the bit-exact clean result or a typed error — never a wrong
//!    answer, never a panic.
//!
//! Every per-collective guarantee also covers the ring and tree AllReduce
//! schedules (`cases`): they are plans like any other collective, so a
//! fault on them is caught by the same dispatch.
//!
//! The `multi_host` module holds the four hierarchical collectives to the
//! same guarantees with a fault plan on one host, and shows that phase 2
//! reads what phase 1 landed: a fault on a phase-1 landing reaches the
//! answer, or is caught.
//!
//! The `app_storms` module lifts the same guarantees to whole application
//! runs through the run-level supervisor (`run_*_resilient`): zero-fault
//! bit-identity with the plain runners, deterministic typed outcomes
//! under seeded storms, and Degraded completion (within a modeled-time
//! deadline) where a persistent PE failure used to be a fatal error.

mod common;

use common::{assert_sharing_survives, edit, land_replicas};
use pidcomm::{
    BufferSpec, CollectivePlan, Communicator, DimMask, Error, HypercubeManager, HypercubeShape,
    OptLevel, Primitive, RecoveryPolicy, ReduceKind, Topology,
};
use pim_sim::fault::fnv1a;
use pim_sim::pe::PAGE_BYTES;
use pim_sim::testgen::fill_byte;
use pim_sim::{DType, DimmGeometry, FaultKind, FaultPlan, PeId, PimSystem};
use std::ops::Range;
use std::sync::Arc;

const B: usize = 256;
const DST: usize = 8192;
const N: usize = 8;
const GROUPS: usize = 8;

fn comm(opt: OptLevel) -> Communicator {
    let geom = DimmGeometry::single_rank(); // 64 PEs
    let manager = HypercubeManager::new(HypercubeShape::new(vec![8, 8]).unwrap(), geom).unwrap();
    Communicator::new(manager).with_opt(opt).with_threads(1)
}

fn fresh_filled() -> PimSystem {
    let geom = DimmGeometry::single_rank();
    let mut sys = PimSystem::new(geom);
    for pe in geom.pes() {
        let fill: Vec<u8> = (0..N * B)
            .map(|i| ((pe.0 as usize * 31 + i * 7) % 251) as u8)
            .collect();
        sys.pe_mut(pe).write(0, &fill);
    }
    sys
}

/// Full MRAM image of the src+dst windows on every PE.
fn snapshot(sys: &PimSystem) -> Vec<Vec<u8>> {
    sys.geometry()
        .pes()
        .map(|pe| sys.pe(pe).peek(0, DST + N * B))
        .collect()
}

fn spec() -> BufferSpec {
    BufferSpec::new(0, DST, B)
}

fn host_in(prim: Primitive) -> Option<Vec<Vec<u8>>> {
    match prim {
        Primitive::Scatter => Some(
            (0..GROUPS)
                .map(|g| (0..N * B).map(|i| ((g * 13 + i) % 241) as u8).collect())
                .collect(),
        ),
        Primitive::Broadcast => Some(
            (0..GROUPS)
                .map(|g| (0..B).map(|i| ((g * 17 + i) % 239) as u8).collect())
                .collect(),
        ),
        _ => None,
    }
}

/// The plans every per-collective guarantee covers, named: the eight
/// primitives at `c`'s level, then — at `Full`, the level they always run
/// at — the ring and tree AllReduce schedules.
fn cases(c: &Communicator) -> Vec<(String, CollectivePlan)> {
    cases_of(c, ReduceKind::Sum, &spec())
}

/// [`cases`] reducing with `op` over `spec`.
fn cases_of(c: &Communicator, op: ReduceKind, spec: &BufferSpec) -> Vec<(String, CollectivePlan)> {
    let mask: DimMask = "10".parse().unwrap();
    let mut cases: Vec<_> = Primitive::ALL
        .into_iter()
        .map(|p| {
            let plan = c.plan(p, &mask, spec, op).unwrap();
            (p.to_string(), plan)
        })
        .collect();
    if c.opt() == OptLevel::Full {
        for topo in [Topology::Ring, Topology::Tree] {
            let plan = topo.plan(c.manager(), &mask, spec, op);
            cases.push((topo.to_string(), plan.unwrap()));
        }
    }
    cases
}

/// Clean reference execution of `plan`: no fault plan, no verification.
fn run_clean(
    sys: &mut PimSystem,
    plan: &CollectivePlan,
) -> (pidcomm::CommReport, Option<Vec<Vec<u8>>>) {
    let exec = plan.run(sys, host_in(plan.primitive()).as_deref()).unwrap();
    (exec.report, exec.host_out)
}

#[test]
fn zero_fault_verified_execution_is_bit_identical() {
    for opt in [OptLevel::Baseline, OptLevel::InRegister, OptLevel::Full] {
        let c = comm(opt);
        for (name, plan) in cases(&c) {
            let mut clean_sys = fresh_filled();
            let (clean_report, clean_host) = run_clean(&mut clean_sys, &plan);

            let mut ver_sys = fresh_filled();
            let hin = host_in(plan.primitive());
            let ver = c
                .execute_verified(
                    &mut ver_sys,
                    &plan,
                    hin.as_deref(),
                    &RecoveryPolicy::default(),
                )
                .unwrap();

            assert_eq!(ver.retries, 0, "{name} {opt:?}");
            assert!(!ver.degraded, "{name} {opt:?}");
            assert_eq!(ver.report, clean_report, "{name} {opt:?}: modeled bits");
            assert_eq!(ver.host_out, clean_host, "{name} {opt:?}: host output");
            assert_eq!(
                snapshot(&ver_sys),
                snapshot(&clean_sys),
                "{name} {opt:?}: PE bytes"
            );
        }
    }
}

#[test]
fn transient_fault_is_retried_to_the_exact_clean_result() {
    let c = comm(OptLevel::Full);
    for (name, plan) in cases(&c) {
        let mut clean_sys = fresh_filled();
        let (clean_report, clean_host) = run_clean(&mut clean_sys, &plan);

        // A bit flip on PE 2's transport writes during epoch 1 (the first
        // attempt); epoch 2 (the retry) is fault-free.
        let mut ver_sys = fresh_filled();
        ver_sys.attach_fault_plan(Arc::new(FaultPlan::new(7).with_event(
            FaultKind::BitFlip,
            2,
            1,
        )));
        let hin = host_in(plan.primitive());
        let ver = c
            .execute_verified(
                &mut ver_sys,
                &plan,
                hin.as_deref(),
                &RecoveryPolicy::default(),
            )
            .unwrap();

        // Host-rooted receives (Gather, Reduce) move data PE→host only:
        // the collective never writes PE MRAM, so a transport write fault
        // is *provably harmless* — no retry, clean result. Every other
        // collective lands bytes on PE 2 and must detect-and-retry.
        let writes_pes = !matches!(plan.primitive(), Primitive::Gather | Primitive::Reduce);
        let want_retries = u32::from(writes_pes);
        assert_eq!(
            ver.retries, want_retries,
            "{name}: detected-or-harmless retry count"
        );
        assert!(!ver.degraded, "{name}");
        assert_eq!(ver.host_out, clean_host, "{name}: host output");
        ver_sys.detach_fault_plan();
        assert_eq!(snapshot(&ver_sys), snapshot(&clean_sys), "{name}: PE bytes");
        if writes_pes {
            // The failed attempt plus the retry resync are on the meter.
            assert!(
                ver.report.time_ns() > clean_report.time_ns(),
                "{name}: recovery must be visible in modeled time \
                 ({} vs clean {})",
                ver.report.time_ns(),
                clean_report.time_ns()
            );
        } else {
            assert_eq!(
                ver.report, clean_report,
                "{name}: harmless fault leaves modeled time untouched"
            );
        }
    }
}

/// A stepped plan is one fault epoch like every collective, and a fault
/// on it is caught: under a dense bit-flip storm with verification on,
/// each ring / tree run consumes exactly one epoch and either returns the
/// clean run's bytes or a typed detection error, leaving no corruption
/// record behind for the next collective to report as its own.
#[test]
fn stepped_plans_never_pass_a_fault_silently() {
    let c = comm(OptLevel::Full);
    let mask: DimMask = "10".parse().unwrap();
    for topo in [Topology::Ring, Topology::Tree] {
        let plan = topo
            .plan(c.manager(), &mask, &spec(), ReduceKind::Sum)
            .unwrap();
        let mut clean_sys = fresh_filled();
        run_clean(&mut clean_sys, &plan);
        let want = snapshot(&clean_sys);
        let (mut caught, mut clean) = (0u32, 0u32);
        for seed in 1..=20u64 {
            let fp = Arc::new(FaultPlan::new(seed).with_bit_flip_period(8));
            let mut sys = fresh_filled();
            sys.attach_fault_plan(fp.clone());
            sys.set_verify_writes(true);
            let epoch = fp.epoch();
            let result = plan.run(&mut sys, None);
            assert_eq!(fp.epoch(), epoch + 1, "{topo} seed {seed}: fault epoch");
            assert!(
                sys.take_corruption().is_none(),
                "{topo} seed {seed}: corruption record left pending"
            );
            match result {
                Ok(_) => {
                    sys.detach_fault_plan();
                    assert_eq!(snapshot(&sys), want, "{topo} seed {seed}: PE bytes");
                    clean += 1;
                }
                Err(Error::DataCorruption { .. } | Error::PeFailed { .. }) => caught += 1,
                Err(other) => panic!("{topo} seed {seed}: unexpected error {other:?}"),
            }
        }
        eprintln!("{topo}: {caught} caught, {clean} clean");
        assert!(caught > 0, "{topo}: the storm never hit a landing");
    }
}

#[test]
fn transient_fault_with_no_retry_budget_surfaces_typed_error() {
    let mask: DimMask = "10".parse().unwrap();
    let c = comm(OptLevel::Full);
    let mut sys = fresh_filled();
    sys.attach_fault_plan(Arc::new(FaultPlan::new(7).with_event(
        FaultKind::BitFlip,
        2,
        1,
    )));
    let plan = c
        .plan(Primitive::AlltoAll, &mask, &spec(), ReduceKind::Sum)
        .unwrap();
    let policy = RecoveryPolicy {
        max_retries: 0,
        degrade: true,
    };
    match c.execute_verified(&mut sys, &plan, None, &policy) {
        Err(Error::DataCorruption { pe, epoch, .. }) => {
            assert_eq!(pe, 2);
            assert_eq!(epoch, 1);
        }
        other => panic!("expected DataCorruption, got {other:?}"),
    }
}

/// The modeled total of each degraded case below, as `f64` bits: the
/// degraded charge is the bytes the host moves (every member's source read,
/// plus every result landed on a survivor), the same at every level.
const DEGRADED_TOTAL_BITS: &[(&str, u64)] = &[
    ("AllGather i16 max", 0x40c95b6db6db6db7),
    ("AllGather u64 sum", 0x40c95b6db6db6db7),
    ("AllReduce i16 max", 0x40a6adb6db6db6dc),
    ("AllReduce u64 sum", 0x40a6adb6db6db6dc),
    ("AlltoAll i16 max", 0x40a6adb6db6db6dc),
    ("AlltoAll u64 sum", 0x40a6adb6db6db6dc),
    ("Broadcast i16 max", 0x4096800000000000),
    ("Broadcast u64 sum", 0x4096800000000000),
    ("Gather i16 max", 0x4096db6db6db6db7),
    ("Gather u64 sum", 0x4096db6db6db6db7),
    ("Reduce i16 max", 0x4096db6db6db6db7),
    ("Reduce u64 sum", 0x4096db6db6db6db7),
    ("ReduceScatter i16 max", 0x4099ab6db6db6db7),
    ("ReduceScatter u64 sum", 0x4099ab6db6db6db7),
    ("Scatter i16 max", 0x4096800000000000),
    ("Scatter u64 sum", 0x4096800000000000),
    ("ring i16 max", 0x40a6adb6db6db6dc),
    ("ring u64 sum", 0x40a6adb6db6db6dc),
    ("tree i16 max", 0x40a6adb6db6db6dc),
    ("tree u64 sum", 0x40a6adb6db6db6dc),
];

#[test]
fn persistent_pe_failure_degrades_to_correct_surviving_results() {
    let dead: u32 = 12;
    let specs = [
        ("u64 sum", ReduceKind::Sum, spec()),
        ("i16 max", ReduceKind::Max, spec().with_dtype(DType::I16)),
    ];
    let mut totals = std::collections::BTreeMap::new();
    for opt in [OptLevel::Baseline, OptLevel::Full] {
        let c = comm(opt);
        for (label, op, spec) in &specs {
            for (name, plan) in cases_of(&c, *op, spec) {
                let name = format!("{name} {label}");
                let mut clean_sys = fresh_filled();
                let (_, clean_host) = run_clean(&mut clean_sys, &plan);

                let mut ver_sys = fresh_filled();
                ver_sys.attach_fault_plan(Arc::new(FaultPlan::new(11).with_failed_pe(dead)));
                let hin = host_in(plan.primitive());
                let ver = c
                    .execute_verified(
                        &mut ver_sys,
                        &plan,
                        hin.as_deref(),
                        &RecoveryPolicy::default(),
                    )
                    .unwrap();

                assert!(
                    ver.degraded,
                    "{name} {opt:?}: must degrade around the dead PE"
                );
                assert_eq!(
                    ver.retries, 0,
                    "{name} {opt:?}: persistent failure never retries"
                );
                // Host-rooted receive outputs are computed from still-readable
                // banks, so they match the clean run exactly.
                assert_eq!(ver.host_out, clean_host, "{name} {opt:?}: host output");
                // Every surviving PE's *destination* region holds the exact
                // clean result (the source region legitimately differs: the
                // clean run's phase A pre-rotated it in place, the degraded
                // run never dispatched). The dead PE's destination stays
                // untouched.
                ver_sys.detach_fault_plan();
                for pe in ver_sys.geometry().pes() {
                    let dst = ver_sys.pe(pe).peek(DST, N * B);
                    if pe.0 == dead {
                        assert_eq!(dst, vec![0; N * B], "{name} {opt:?}: dead PE landed");
                    } else {
                        assert_eq!(
                            dst,
                            clean_sys.pe(pe).peek(DST, N * B),
                            "{name} {opt:?}: surviving PE {pe:?} destination"
                        );
                    }
                }
                // Degraded recompute is visible in modeled time via the
                // recovery byte counter (host-modulation charge), and the
                // charge depends on the bytes moved, not on the level.
                assert!(
                    ver.report.breakdown.host_modulation > 0.0,
                    "{name} {opt:?}: degraded recompute must be charged"
                );
                let bits = ver.report.breakdown.total().to_bits();
                if let Some(&other) = totals.get(&name) {
                    assert_eq!(bits, other, "{name}: Baseline and Full degrade alike");
                }
                totals.insert(name, bits);
            }
        }
    }
    let pinned: std::collections::BTreeMap<_, _> = DEGRADED_TOTAL_BITS
        .iter()
        .map(|&(name, bits)| (name.to_string(), bits))
        .collect();
    assert_eq!(totals, pinned, "degraded modeled totals");
}

/// A plan degrades over the groups it was built with, whichever
/// communicator executes it: an `[8, 8]` plan run verified through a
/// `[4, 16]` communicator of the same 64 PEs — where mask `"10"` fixes
/// other groups — lands the clean run's bytes on every surviving PE, and a
/// rooted receive returns the clean run's host output.
#[test]
fn a_plan_degrades_over_its_own_groups_through_any_communicator() {
    let dead: u32 = 12;
    let mask: DimMask = "10".parse().unwrap();
    let shape = HypercubeShape::new(vec![4, 16]).unwrap();
    let other =
        Communicator::new(HypercubeManager::new(shape, DimmGeometry::single_rank()).unwrap())
            .with_threads(1);
    for opt in [OptLevel::Baseline, OptLevel::Full] {
        let other = other.clone().with_opt(opt);
        for prim in [Primitive::AllReduce, Primitive::AlltoAll, Primitive::Gather] {
            let plan = comm(opt)
                .plan(prim, &mask, &spec(), ReduceKind::Sum)
                .unwrap();
            let mut clean_sys = fresh_filled();
            let (_, clean_host) = run_clean(&mut clean_sys, &plan);

            let mut ver_sys = fresh_filled();
            ver_sys.attach_fault_plan(Arc::new(FaultPlan::new(11).with_failed_pe(dead)));
            let ver = other
                .execute_verified(&mut ver_sys, &plan, None, &RecoveryPolicy::default())
                .unwrap();
            assert!(
                ver.degraded,
                "{prim} {opt:?}: must degrade around the dead PE"
            );
            assert_eq!(ver.host_out, clean_host, "{prim} {opt:?}: host output");
            ver_sys.detach_fault_plan();
            for pe in ver_sys.geometry().pes().filter(|pe| pe.0 != dead) {
                assert!(
                    ver_sys.pe(pe).peek(DST, N * B) == clean_sys.pe(pe).peek(DST, N * B),
                    "{prim} {opt:?}: surviving PE {pe:?} destination"
                );
            }
        }
    }
}

#[test]
fn persistent_failure_with_degradation_disabled_surfaces_pe_failed() {
    let mask: DimMask = "10".parse().unwrap();
    let c = comm(OptLevel::Full);
    let mut sys = fresh_filled();
    sys.attach_fault_plan(Arc::new(FaultPlan::new(3).with_failed_pe(5)));
    let plan = c
        .plan(Primitive::AllReduce, &mask, &spec(), ReduceKind::Sum)
        .unwrap();
    let policy = RecoveryPolicy {
        max_retries: 2,
        degrade: false,
    };
    match c.execute_verified(&mut sys, &plan, None, &policy) {
        Err(Error::PeFailed { pe, .. }) => assert_eq!(pe, 5),
        other => panic!("expected PeFailed, got {other:?}"),
    }
}

/// Seeded fault storms: across seeds and fault densities, a verified
/// execution must end in exactly one of two states — the bit-exact clean
/// result, or a typed detection error. A wrong answer (silent corruption)
/// or a panic fails the suite.
#[test]
fn seeded_chaos_never_corrupts_silently() {
    let base: u64 = std::env::var("PIDCOMM_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE);
    let policy = RecoveryPolicy {
        max_retries: 3,
        degrade: true,
    };
    let c = comm(OptLevel::Full);
    let cases = cases(&c);

    let mut recovered = 0u32;
    let mut detected = 0u32;
    let mut clean = 0u32;

    for round in 0..3u64 {
        let seed = base.wrapping_add(round.wrapping_mul(0x9E3779B97F4A7C15));
        // Sparse-to-dense storms: small periods fault nearly every epoch,
        // large ones only occasionally.
        for (flip_p, row_p) in [(1 << 14, 0), (0, 1 << 15), (1 << 10, 1 << 11)] {
            for (name, plan) in &cases {
                let mut clean_sys = fresh_filled();
                let (_, clean_host) = run_clean(&mut clean_sys, plan);
                let want = snapshot(&clean_sys);

                let mut fp = FaultPlan::new(seed ^ (flip_p << 1) ^ row_p);
                if flip_p > 0 {
                    fp = fp.with_bit_flip_period(flip_p);
                }
                if row_p > 0 {
                    fp = fp.with_row_corrupt_period(row_p);
                }
                let mut sys = fresh_filled();
                sys.attach_fault_plan(Arc::new(fp));
                let hin = host_in(plan.primitive());
                match c.execute_verified(&mut sys, plan, hin.as_deref(), &policy) {
                    Ok(ver) => {
                        assert!(!ver.degraded, "{name} seed {seed}: no PE ever dies here");
                        assert_eq!(ver.host_out, clean_host, "{name} seed {seed}");
                        sys.detach_fault_plan();
                        assert_eq!(snapshot(&sys), want, "{name} seed {seed}: PE bytes");
                        if ver.retries > 0 {
                            recovered += 1;
                        } else {
                            clean += 1;
                        }
                    }
                    Err(Error::DataCorruption { .. }) | Err(Error::PeFailed { .. }) => {
                        detected += 1;
                    }
                    Err(other) => panic!("{name} seed {seed}: unexpected error {other:?}"),
                }
            }
        }
    }

    eprintln!("chaos: {recovered} recovered, {detected} detected, {clean} clean");
    // Under the default seeds the storm must actually exercise the fault
    // paths; a custom seed only has to satisfy the per-run property.
    if std::env::var("PIDCOMM_CHAOS_SEED").is_err() {
        assert!(
            recovered + detected > 0,
            "fault storm triggered nothing: periods too sparse"
        );
    }
}

/// The source of the shared-source storm: off the page grid and five
/// pages long, so that a landing shares four whole pages.
const SHARED_SRC: usize = 8;
const SHARED_B: usize = 5 * PAGE_BYTES;
/// Its AllReduce's destination, off the grid past the source.
const SHARED_DST: usize = (1 << 16) + 8;

/// Indices of the whole pages of `[at, at + len)`.
fn whole_pages(at: usize, len: usize) -> Range<usize> {
    at.div_ceil(PAGE_BYTES)..(at + len) / PAGE_BYTES
}

/// A replicated source plus per-PE edits, landed as CC lands its label
/// prototype under a storm that strikes about one PE's landing in eight,
/// then reduced by an idempotent (`Min`) and a non-idempotent (`Sum`)
/// AllReduce under seeded storms at both engines. Every run ends
/// bit-exact — the faulted system's bytes are those of a clean run over
/// the same sources — or in a typed detection error. And faulted runs
/// hold shared pages: after the landing, every PE whose landing no fault
/// struck lends the image on each whole page its edit leaves alone, and
/// a struck PE owns its source; after a run that no fault reached,
/// lane-mates still lend the same bytes on every page far from an edit or
/// a struck source, and each group's members lend one image of the
/// result on every whole page of the destination.
#[test]
fn a_shared_source_under_storms_ends_exact_or_detected_and_stays_shared() {
    let base: u64 = std::env::var("PIDCOMM_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE);
    let policy = RecoveryPolicy {
        max_retries: 3,
        degrade: true,
    };
    let mask: DimMask = "10".parse().unwrap();
    let region = |sys: &PimSystem| -> Vec<Vec<u8>> {
        let pes = sys.geometry().pes();
        pes.map(|pe| [SHARED_SRC, SHARED_DST].map(|at| sys.pe(pe).peek(at, SHARED_B)))
            .map(|[src, dst]| [src, dst].concat())
            .collect()
    };
    let (mut struck, mut exact, mut recovered, mut detected, mut shared) = (0, 0, 0, 0, 0);
    for round in 0..2u64 {
        let seed = base.wrapping_add(round.wrapping_mul(0x9E3779B97F4A7C15));
        let image: Arc<[u8]> = (0..SHARED_B).map(|i| fill_byte(seed, 0, i)).collect();
        for opt in [OptLevel::Baseline, OptLevel::Full] {
            let c = comm(opt);
            for op in [ReduceKind::Min, ReduceKind::Sum] {
                let spec = BufferSpec::new(SHARED_SRC, SHARED_DST, SHARED_B).with_dtype(DType::U32);
                let plan = c.plan(Primitive::AllReduce, &mask, &spec, op).unwrap();
                let storms = [
                    (1 << 14, 0),
                    (0, 1 << 15),
                    (1 << 10, 1 << 11),
                    (1 << 5, 1 << 6),
                ];
                for (flip_p, row_p) in storms {
                    let what = format!("{opt:?} {op} seed {seed} storm {flip_p}/{row_p}");
                    let mut sys = PimSystem::new(DimmGeometry::single_rank());
                    let landing = Arc::new(FaultPlan::new(seed ^ row_p).with_bit_flip_period(8));
                    sys.attach_fault_plan(Arc::clone(&landing));
                    land_replicas(&mut sys, SHARED_SRC, &image, true);
                    let edits = edit(&mut sys, SHARED_SRC, SHARED_B, seed);
                    let mut cuts: Vec<(Option<PeId>, Range<usize>)> = vec![
                        (None, SHARED_SRC..SHARED_SRC + 1),
                        (None, SHARED_SRC + SHARED_B - 1..SHARED_SRC + SHARED_B),
                    ];
                    for pe in sys.geometry().pes() {
                        let hit = landing.write_fault(pe.0, SHARED_SRC, SHARED_B).is_some();
                        let edited = edits.iter().filter(|(who, _)| *who == pe);
                        let edited: Vec<usize> = edited
                            .flat_map(|(_, r)| r.start / PAGE_BYTES..=(r.end - 1) / PAGE_BYTES)
                            .collect();
                        for p in whole_pages(SHARED_SRC, SHARED_B) {
                            let lent = sys.pe(pe).try_slice(p * PAGE_BYTES, PAGE_BYTES);
                            let at = image[p * PAGE_BYTES - SHARED_SRC..].as_ptr();
                            let from_image = lent.map(<[u8]>::as_ptr) == Some(at);
                            let owned = hit || edited.contains(&p);
                            assert_eq!(from_image, !owned, "{what}: {pe} landed page {p}");
                        }
                        if hit {
                            cuts.push((Some(pe), SHARED_SRC..SHARED_SRC + SHARED_B));
                            struck += 1;
                        }
                    }
                    cuts.extend(edits.into_iter().map(|(pe, r)| (Some(pe), r)));

                    let mut clean = sys.clone();
                    clean.detach_fault_plan();
                    plan.run(&mut clean, None).unwrap();
                    let mut fp = FaultPlan::new(seed ^ (flip_p << 1) ^ row_p);
                    if flip_p > 0 {
                        fp = fp.with_bit_flip_period(flip_p);
                    }
                    if row_p > 0 {
                        fp = fp.with_row_corrupt_period(row_p);
                    }
                    sys.attach_fault_plan(Arc::new(fp));
                    match c.execute_verified(&mut sys, &plan, None, &policy) {
                        Ok(ver) => {
                            assert!(!ver.degraded, "{what}: no PE ever dies here");
                            sys.detach_fault_plan();
                            assert!(region(&sys) == region(&clean), "{what}: PE bytes");
                            exact += 1;
                            if ver.retries > 0 {
                                recovered += 1;
                                continue;
                            }
                            let src = (SHARED_SRC, SHARED_B);
                            let (s, _) =
                                assert_sharing_survives(&sys, &c, &mask, opt, src, &cuts, &what);
                            shared += s;
                            for g in c.manager().groups(&mask).unwrap() {
                                for p in whole_pages(SHARED_DST, SHARED_B) {
                                    let lent = |pe: &PeId| {
                                        let bytes =
                                            sys.pe(*pe).try_slice(p * PAGE_BYTES, PAGE_BYTES);
                                        bytes.map(<[u8]>::as_ptr)
                                    };
                                    let first = lent(&g.members[0]);
                                    assert!(
                                        first.is_some()
                                            && g.members.iter().all(|pe| lent(pe) == first),
                                        "{what}: group {} result page {p}",
                                        g.id
                                    );
                                }
                            }
                        }
                        Err(Error::DataCorruption { .. }) | Err(Error::PeFailed { .. }) => {
                            detected += 1;
                        }
                        Err(other) => panic!("{what}: unexpected error {other:?}"),
                    }
                }
            }
        }
    }
    eprintln!(
        "shared-source storm: {struck} struck landings, {exact} exact ({recovered} after a \
         retry), {detected} detected, {shared} source pages shared with a lane-mate"
    );
    assert!(struck > 0, "the landing storm struck nothing");
    assert!(recovered + detected > 0, "the run storms struck nothing");
    assert!(shared > 0, "no faulted run kept a source page shared");
}

/// The recovery rollback image is scoped to the plan's written regions:
/// a retried execution still lands the exact clean result, and bytes the
/// application keeps *outside* the plan's buffer extents — which the
/// rollback no longer snapshots — survive the failed attempt untouched.
#[test]
fn recovery_rollback_is_scoped_to_plan_regions() {
    // A sentinel window beyond every primitive's destination extent
    // (AllGather writes the largest: N * B bytes at DST).
    let sentinel_off = DST + N * B;
    let sentinel = |pe: u32| -> Vec<u8> { (0..64u32).map(|i| (pe + i * 3) as u8).collect() };
    let c = comm(OptLevel::Full);
    for (name, plan) in cases(&c) {
        let mut clean_sys = fresh_filled();
        let (_, clean_host) = run_clean(&mut clean_sys, &plan);

        let mut sys = fresh_filled();
        for pe in sys.geometry().pes() {
            sys.pe_mut(pe).write(sentinel_off, &sentinel(pe.0));
        }
        sys.attach_fault_plan(Arc::new(FaultPlan::new(7).with_event(
            FaultKind::BitFlip,
            2,
            1,
        )));
        let hin = host_in(plan.primitive());
        let ver = c
            .execute_verified(&mut sys, &plan, hin.as_deref(), &RecoveryPolicy::default())
            .unwrap();
        assert!(!ver.degraded, "{name}");
        assert_eq!(ver.host_out, clean_host, "{name}: retried result drifts");
        sys.detach_fault_plan();
        for pe in sys.geometry().pes() {
            assert_eq!(
                sys.pe(pe).peek(sentinel_off, 64),
                sentinel(pe.0),
                "{name}: bytes outside the plan's regions disturbed by rollback"
            );
            assert_eq!(
                sys.pe(pe).peek(DST, N * B),
                clean_sys.pe(pe).peek(DST, N * B),
                "{name}: destination bytes diverge from the clean run"
            );
        }
    }
}

/// A stuck-period fault plan can stall a PE for one epoch; the pre-dispatch
/// scan must catch it (typed error or clean retry), never hang or corrupt.
#[test]
fn transiently_stuck_pe_is_caught_before_dispatch() {
    let mask: DimMask = "10".parse().unwrap();
    let c = comm(OptLevel::Full);
    let plan = c
        .plan(Primitive::AlltoAll, &mask, &spec(), ReduceKind::Sum)
        .unwrap();
    let mut clean_sys = fresh_filled();
    run_clean(&mut clean_sys, &plan);
    let want = snapshot(&clean_sys);

    // An explicit one-epoch stall on PE 9: attempt 1 fails pre-dispatch,
    // the retry's fresh epoch clears it.
    let mut sys = fresh_filled();
    sys.attach_fault_plan(Arc::new(FaultPlan::new(5).with_event(
        FaultKind::Stuck,
        9,
        1,
    )));
    let ver = c
        .execute_verified(&mut sys, &plan, None, &RecoveryPolicy::default())
        .unwrap();
    assert_eq!(ver.retries, 1);
    assert!(!ver.degraded);
    sys.detach_fault_plan();
    assert_eq!(snapshot(&sys), want);
}

/// Runs a Full AllGather over `mask` under `faults` with verification on
/// and returns where it was first caught: the lowest struck PE and the
/// offset of the first of its landings that a fault struck. Also checks
/// that the struck landing is one whole `B`-byte piece: the error's
/// digests are of the bytes meant for, and found at, that offset.
fn allgather_first_strike(mask_str: &str, faults: FaultPlan) -> (u32, usize) {
    let mask: DimMask = mask_str.parse().unwrap();
    let plan = comm(OptLevel::Full)
        .plan(Primitive::AllGather, &mask, &spec(), ReduceKind::Sum)
        .unwrap();
    let mut clean = fresh_filled();
    run_clean(&mut clean, &plan);
    let mut sys = fresh_filled();
    sys.attach_fault_plan(Arc::new(faults));
    sys.set_verify_writes(true);
    match plan.run(&mut sys, None) {
        Err(Error::DataCorruption {
            pe,
            offset,
            expected,
            found,
            epoch,
        }) => {
            assert_eq!(epoch, 1, "{mask_str}");
            let digest = |s: &PimSystem| fnv1a(&s.pe(PeId(pe)).peek(offset, B));
            assert_eq!(
                (expected, found),
                (digest(&clean), digest(&sys)),
                "{mask_str}: PE {pe} at {offset}"
            );
            (pe, offset)
        }
        other => panic!("{mask_str}: expected DataCorruption, got {other:?}"),
    }
}

/// Where a Full AllGather is first caught on a PE every landing of which a
/// fault strikes: `(mask, pe, offset)`. A PE takes its `B`-byte pieces in
/// the order of the register loop its landing stands for — source part by
/// source part, and inside a part rotation by rotation, each piece at its
/// final slot — so the first struck piece is the first that loop lands on
/// the PE, which is rarely the piece at the region's start. One group per
/// EG (`10`) and one group over the whole rank (`11`, eight parts).
const ALLGATHER_FIRST_STRIKES: &[(&str, u32, usize)] = &[
    ("10", 0, 8192),
    ("10", 3, 8960),
    ("10", 13, 9472),
    ("10", 62, 9728),
    ("11", 1, 8448),
    ("11", 5, 9472),
    ("11", 18, 8704),
    ("11", 43, 8960),
    ("11", 63, 9984),
];

/// As [`ALLGATHER_FIRST_STRIKES`], under seeded bit-flip storms over the
/// whole rank (`11`, 64 pieces per PE) that strike about one landing in
/// eight: `(seed, pe, offset)`. The first struck piece is then the first
/// of the struck ones in landing order, so these pin that order beyond its
/// first piece.
const ALLGATHER_STORM_STRIKES: &[(u64, u32, usize)] = &[
    (1, 0, 8960),
    (2, 0, 8960),
    (3, 0, 10496),
    (4, 0, 9984),
    (5, 0, 9728),
    (6, 0, 11008),
];

#[test]
fn full_allgather_is_first_caught_where_its_register_order_lands_first() {
    for &(mask_str, pe, offset) in ALLGATHER_FIRST_STRIKES {
        let strike = FaultPlan::new(7).with_event(FaultKind::BitFlip, pe, 1);
        let got = allgather_first_strike(mask_str, strike);
        assert_eq!(
            got,
            (pe, offset),
            "{mask_str}: every landing on PE {pe} struck"
        );
    }
    for &(seed, pe, offset) in ALLGATHER_STORM_STRIKES {
        let storm = FaultPlan::new(seed).with_bit_flip_period(8);
        let got = allgather_first_strike("11", storm);
        assert_eq!(got, (pe, offset), "storm seed {seed}");
    }
}

/// Runs a Baseline AlltoAll over `mask` under `faults` with verification
/// on and returns where it was first caught: the lowest struck PE, the
/// offset of its struck landing and the digest of the bytes that landing
/// was meant to carry. Each member takes its whole row as one landing, so
/// the error's digests are of the `B` bytes meant for, and found at, the
/// destination — the clean run's and the faulted run's.
fn baseline_alltoall_first_strike(mask_str: &str, faults: FaultPlan) -> (u32, usize, u64) {
    let mask: DimMask = mask_str.parse().unwrap();
    let plan = comm(OptLevel::Baseline)
        .plan(Primitive::AlltoAll, &mask, &spec(), ReduceKind::Sum)
        .unwrap();
    let mut clean = fresh_filled();
    run_clean(&mut clean, &plan);
    let mut sys = fresh_filled();
    sys.attach_fault_plan(Arc::new(faults));
    sys.set_verify_writes(true);
    match plan.run(&mut sys, None) {
        Err(Error::DataCorruption {
            pe,
            offset,
            expected,
            found,
            epoch,
        }) => {
            assert_eq!((offset, epoch), (DST, 1), "{mask_str}: PE {pe}");
            let digest = |s: &PimSystem| fnv1a(&s.pe(PeId(pe)).peek(DST, B));
            assert_eq!(
                (expected, found),
                (digest(&clean), digest(&sys)),
                "{mask_str}: PE {pe}"
            );
            (pe, offset, expected)
        }
        other => panic!("{mask_str}: expected DataCorruption, got {other:?}"),
    }
}

/// Where a Baseline AlltoAll is first caught on a PE whose landing a
/// fault strikes: `(mask, pe, offset, digest of the row meant for it)`.
/// The row a member takes is chunk `rank` of every member of its group, in
/// member order; the digest pins which row landed where. Every member
/// takes exactly one landing per call and every draw is pure in
/// `(pe, epoch, offset, len)`, so the order the members are visited in
/// cannot move an event: what a landing-order slip can move is which row a
/// member's one landing carries. Groups along either dimension (`10`,
/// `01`).
const BASELINE_ALLTOALL_FIRST_STRIKES: &[(&str, u32, usize, u64)] = &[
    ("10", 0, DST, 0xe0b9_e636_b7c5_2751),
    ("10", 13, DST, 0xde10_3817_c5eb_6b81),
    ("10", 40, DST, 0x6598_c09f_6fda_2dcf),
    ("01", 5, DST, 0x72bc_0ec4_8ed6_b54c),
    ("01", 27, DST, 0xa144_0f4d_149d_9417),
    ("01", 62, DST, 0x9180_e55a_4215_e62c),
];

/// As [`BASELINE_ALLTOALL_FIRST_STRIKES`], under seeded bit-flip storms over
/// groups along the second dimension (`01`) that strike about one landing
/// in eight: `(seed, pe, offset, digest)`. The first caught PE is the
/// lowest struck one, and its digest pins the row it was meant to take.
const BASELINE_ALLTOALL_STORM_STRIKES: &[(u64, u32, usize, u64)] = &[
    (1, 2, DST, 0x4539_ecab_0f1c_9aaa),
    (2, 4, DST, 0x2ee9_96c4_d70e_2150),
    (3, 7, DST, 0x8ccc_6ed0_9f94_0749),
    (4, 20, DST, 0xdad2_98b7_a961_bd29),
    (5, 6, DST, 0x4fe6_d5af_e786_88bd),
    (6, 5, DST, 0x72bc_0ec4_8ed6_b54c),
];

#[test]
fn baseline_alltoall_is_first_caught_on_the_row_each_member_takes() {
    for &(mask_str, pe, offset, digest) in BASELINE_ALLTOALL_FIRST_STRIKES {
        let strike = FaultPlan::new(7).with_event(FaultKind::BitFlip, pe, 1);
        let got = baseline_alltoall_first_strike(mask_str, strike);
        assert_eq!(
            got,
            (pe, offset, digest),
            "{mask_str}: PE {pe}'s landing struck"
        );
    }
    for &(seed, pe, offset, digest) in BASELINE_ALLTOALL_STORM_STRIKES {
        let storm = FaultPlan::new(seed).with_bit_flip_period(8);
        let got = baseline_alltoall_first_strike("01", storm);
        assert_eq!(got, (pe, offset, digest), "storm seed {seed}");
    }
}

// ---- multi-host: two hosts of 64 PEs, a fault plan on one ------------

mod multi_host {
    use super::{comm, spec, B, DST, N};
    use pidcomm::{Error, LinkModel, MultiHost, MultiHostPlan, MultiHostReport};
    use pidcomm::{OptLevel, Primitive, ReduceKind};
    use pim_sim::{Category, DimmGeometry, FaultKind, FaultPlan, PimSystem};
    use std::sync::Arc;

    const HOSTS: usize = 2;

    /// One plan per hierarchy over two hosts, `B` bytes per node (a
    /// multiple of 8 × hosts × group size).
    fn plans() -> Vec<(Primitive, MultiHostPlan)> {
        let comms = (0..HOSTS).map(|_| comm(OptLevel::Full)).collect();
        let mh = MultiHost::new(comms, LinkModel::ethernet_10g()).unwrap();
        let mask = "10".parse().unwrap();
        [
            Primitive::AllReduce,
            Primitive::AlltoAll,
            Primitive::ReduceScatter,
            Primitive::AllGather,
        ]
        .into_iter()
        .map(|p| (p, mh.plan(p, &mask, &spec(), ReduceKind::Sum).unwrap()))
        .collect()
    }

    /// Two hosts whose sources differ per host and per PE.
    fn hosts() -> Vec<PimSystem> {
        let geom = DimmGeometry::single_rank();
        (0..HOSTS)
            .map(|h| {
                let mut sys = PimSystem::new(geom);
                for pe in geom.pes() {
                    let fill: Vec<u8> = (0..B)
                        .map(|i| ((h * 97 + pe.0 as usize * 31 + i * 7) % 251) as u8)
                        .collect();
                    sys.pe_mut(pe).write(0, &fill);
                }
                sys
            })
            .collect()
    }

    /// Every host's destination window, as wide as AllGather's result.
    fn image(systems: &[PimSystem]) -> Vec<Vec<u8>> {
        let len = HOSTS * N * B;
        systems
            .iter()
            .flat_map(|sys| {
                sys.geometry()
                    .pes()
                    .map(move |pe| sys.pe(pe).peek(DST, len))
            })
            .collect()
    }

    fn bits(r: &MultiHostReport) -> ([u64; Category::ALL.len()], u64) {
        let local = Category::ALL.map(|c| r.local.get(c).to_bits());
        (local, r.mpi_ns.to_bits())
    }

    /// Report and destination image of a run with no fault plan.
    fn clean(plan: &MultiHostPlan) -> (MultiHostReport, Vec<Vec<u8>>) {
        let mut systems = hosts();
        let report = plan.execute(&mut systems).unwrap();
        (report, image(&systems))
    }

    /// A fault plan that never fires, with verification on every host,
    /// changes neither the report bits nor a destination byte; each host
    /// spends one epoch per phase.
    #[test]
    fn zero_fault_verified_multi_host_is_bit_identical() {
        for (prim, plan) in plans() {
            let want = clean(&plan);
            let mut systems = hosts();
            let fps: Vec<Arc<FaultPlan>> = (0..HOSTS)
                .map(|h| Arc::new(FaultPlan::new(h as u64 + 1)))
                .collect();
            for (sys, fp) in systems.iter_mut().zip(&fps) {
                sys.attach_fault_plan(fp.clone());
                sys.set_verify_writes(true);
            }
            let report = plan.execute(&mut systems).unwrap();
            assert_eq!(bits(&report), bits(&want.0), "{prim}: report bits");
            for sys in &mut systems {
                sys.detach_fault_plan();
            }
            assert!(image(&systems) == want.1, "{prim}: destination bytes");
            for (h, fp) in fps.iter().enumerate() {
                assert_eq!(fp.epoch(), 2, "{prim}: host {h} epochs");
            }
        }
    }

    /// Seeded storms on host 0, verification on: every run ends in the
    /// clean bytes or a typed detection error, and each phase that ran
    /// took exactly one of host 0's epochs.
    #[test]
    fn seeded_storms_on_one_host_never_pass_silently() {
        let base: u64 = std::env::var("PIDCOMM_CHAOS_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0xC0FFEE);
        let (mut caught, mut passed) = (0u32, 0u32);
        for (prim, plan) in plans() {
            let want = clean(&plan).1;
            for round in 0..3u64 {
                let seed = base.wrapping_add(round.wrapping_mul(0x9E3779B97F4A7C15));
                for (flip_p, row_p) in [(256, 0), (0, 1 << 10), (1 << 12, 1 << 12)] {
                    let fp = Arc::new(
                        FaultPlan::new(seed ^ (flip_p << 1) ^ row_p)
                            .with_bit_flip_period(flip_p)
                            .with_row_corrupt_period(row_p),
                    );
                    let mut systems = hosts();
                    systems[0].attach_fault_plan(fp.clone());
                    systems[0].set_verify_writes(true);
                    let what = format!("{prim} seed {seed} periods {flip_p}/{row_p}");
                    match plan.execute(&mut systems) {
                        Ok(_) => {
                            assert_eq!(fp.epoch(), 2, "{what}: epochs");
                            systems[0].detach_fault_plan();
                            assert!(image(&systems) == want, "{what}: silent wrong answer");
                            passed += 1;
                        }
                        Err(
                            Error::DataCorruption { epoch, .. } | Error::PeFailed { epoch, .. },
                        ) => {
                            assert_eq!(fp.epoch(), epoch, "{what}: epochs");
                            caught += 1;
                        }
                        Err(other) => panic!("{what}: unexpected error {other:?}"),
                    }
                }
            }
        }
        eprintln!("multi-host: {caught} caught, {passed} clean");
        if std::env::var("PIDCOMM_CHAOS_SEED").is_err() {
            assert!(caught > 0, "the storms never hit a landing");
            assert!(passed > 0, "every storm hit a landing: periods too dense");
        }
    }

    /// A bit flip on host 0's first PE in epoch 1 hits a phase-1 landing:
    /// the local AlltoAll's destination, or the gathered window AllGather
    /// reads. Phase 2 reads those bytes, so with verification off the
    /// result differs from the clean one, and with it on the run is
    /// refused.
    #[test]
    fn a_phase_one_landing_fault_reaches_the_result_or_is_caught() {
        for (prim, plan) in plans() {
            if !matches!(prim, Primitive::AlltoAll | Primitive::AllGather) {
                continue;
            }
            let want = clean(&plan).1;
            for verify in [false, true] {
                let mut systems = hosts();
                let fp = FaultPlan::new(7).with_event(FaultKind::BitFlip, 0, 1);
                systems[0].attach_fault_plan(Arc::new(fp));
                systems[0].set_verify_writes(verify);
                let result = plan.execute(&mut systems);
                if verify {
                    assert!(
                        matches!(
                            result,
                            Err(Error::DataCorruption {
                                pe: 0,
                                epoch: 1,
                                ..
                            })
                        ),
                        "{prim}: expected DataCorruption on PE 0 in epoch 1, got {result:?}"
                    );
                    continue;
                }
                result.unwrap();
                systems[0].detach_fault_plan();
                assert!(
                    image(&systems) != want,
                    "{prim}: a flipped phase-1 landing left the result untouched"
                );
            }
        }
    }
}

// ---- run-level resilience: full application storms -------------------
//
// The supervisor tier lifts the per-collective guarantees above to whole
// application runs. Tiny 16-PE configurations keep the debug-mode storm
// affordable; the release-mode soak (`benchmark`'s `chaos_small`
// workload, 35 pinned cells at 64 PEs) covers the benchmark-scale grid.

mod app_storms {
    use pidcomm::OptLevel;
    use pidcomm::{RunOutcome, RunPolicy};
    use pidcomm_apps::bfs::{default_source, run_bfs, run_bfs_resilient, BfsConfig};
    use pidcomm_apps::cc::{run_cc, run_cc_resilient, CcConfig};
    use pidcomm_apps::dlrm::{run_dlrm, run_dlrm_resilient, DlrmRunConfig};
    use pidcomm_apps::gnn::{run_gnn, run_gnn_resilient, GnnConfig, GnnVariant};
    use pidcomm_apps::mlp::{run_mlp, run_mlp_resilient, MlpConfig};
    use pidcomm_apps::{AppRun, ResilientRun};
    use pidcomm_data::dlrm::DlrmConfig;
    use pidcomm_data::{rmat, CsrGraph, RmatParams};
    use pim_sim::{DType, FaultPlan};
    use std::sync::{Arc, LazyLock};

    const PES: usize = 16;

    static GRAPH: LazyLock<CsrGraph> =
        LazyLock::new(|| rmat(9, 4, RmatParams::skewed(0xAB)).to_undirected());
    static GNN_GRAPH: LazyLock<CsrGraph> = LazyLock::new(|| rmat(8, 4, RmatParams::uniform(0x3D)));

    fn mlp_cfg() -> MlpConfig {
        MlpConfig {
            features: 128,
            layers: 2,
            pes: PES,
            opt: OptLevel::Full,
            threads: 1,
        }
    }

    fn bfs_cfg() -> BfsConfig {
        BfsConfig {
            pes: PES,
            opt: OptLevel::Full,
            threads: 1,
        }
    }

    fn cc_cfg() -> CcConfig {
        CcConfig {
            pes: PES,
            opt: OptLevel::Full,
            threads: 1,
        }
    }

    fn gnn_cfg() -> GnnConfig {
        GnnConfig {
            pes: PES,
            feature_dim: 16,
            layers: 2,
            variant: GnnVariant::RsAr,
            opt: OptLevel::Full,
            dtype: DType::I32,
            threads: 1,
        }
    }

    fn dlrm_cfg() -> DlrmRunConfig {
        DlrmRunConfig {
            workload: DlrmConfig {
                num_tables: 4,
                rows_per_table: 256,
                embedding_dim: 8,
                batch_size: 128,
                seed: 7,
            },
            pes: PES,
            opt: OptLevel::Full,
            threads: 1,
        }
    }

    /// Runs every app's resilient variant under a fresh fault plan from
    /// `fault` (fresh per run: the plan's epoch counter is stateful) and
    /// `policy`, in a fixed order.
    fn run_all(
        fault: &dyn Fn() -> Option<Arc<FaultPlan>>,
        policy: RunPolicy,
    ) -> Vec<(&'static str, ResilientRun)> {
        vec![
            (
                "MLP",
                run_mlp_resilient(&mlp_cfg(), fault(), policy).unwrap(),
            ),
            (
                "BFS",
                run_bfs_resilient(&bfs_cfg(), &GRAPH, default_source(&GRAPH), fault(), policy)
                    .unwrap(),
            ),
            (
                "CC",
                run_cc_resilient(&cc_cfg(), &GRAPH, fault(), policy).unwrap(),
            ),
            (
                "GNN",
                run_gnn_resilient(&gnn_cfg(), &GNN_GRAPH, fault(), policy).unwrap(),
            ),
            (
                "DLRM",
                run_dlrm_resilient(&dlrm_cfg(), fault(), policy).unwrap(),
            ),
        ]
    }

    fn plain_all() -> Vec<(&'static str, AppRun)> {
        vec![
            ("MLP", run_mlp(&mlp_cfg()).unwrap()),
            (
                "BFS",
                run_bfs(&bfs_cfg(), &GRAPH, default_source(&GRAPH)).unwrap(),
            ),
            ("CC", run_cc(&cc_cfg(), &GRAPH).unwrap()),
            ("GNN", run_gnn(&gnn_cfg(), &GNN_GRAPH).unwrap()),
            ("DLRM", run_dlrm(&dlrm_cfg()).unwrap()),
        ]
    }

    fn assert_same(app: &str, ctx: &str, a: &ResilientRun, b: &ResilientRun) {
        assert_eq!(a.outcome, b.outcome, "{app} {ctx}: outcome");
        assert_eq!(a.retries, b.retries, "{app} {ctx}: retries");
        assert_eq!(a.quarantined, b.quarantined, "{app} {ctx}: quarantined");
        assert_eq!(a.mismatched, b.mismatched, "{app} {ctx}: mismatched");
        assert_eq!(
            a.backoff_epochs, b.backoff_epochs,
            "{app} {ctx}: backoff epochs"
        );
        assert_eq!(
            a.checkpoint_restores, b.checkpoint_restores,
            "{app} {ctx}: checkpoint restores"
        );
        assert_eq!(
            a.modeled_ns.to_bits(),
            b.modeled_ns.to_bits(),
            "{app} {ctx}: modeled bits"
        );
        assert!(a.run == b.run, "{app} {ctx}: committed profile diverges");
    }

    /// With no fault plan, every resilient runner is bit-identical to its
    /// plain twin: same profile, same validation, zero recovery state.
    #[test]
    fn zero_fault_resilient_runs_match_plain_runners() {
        let clean = run_all(&|| None, RunPolicy::default());
        for ((app, res), (_, plain)) in clean.iter().zip(&plain_all()) {
            assert_eq!(res.outcome, RunOutcome::Completed, "{app}");
            assert_eq!(res.retries, 0, "{app}");
            assert!(res.quarantined.is_empty(), "{app}");
            assert_eq!(res.mismatched, 0, "{app}");
            assert_eq!(res.backoff_epochs, 0, "{app}");
            assert_eq!(res.checkpoint_restores, 0, "{app}");
            assert!(
                res.run == *plain,
                "{app}: zero-fault resilient run diverges from the plain runner"
            );
        }
    }

    /// Seeded storms over every app, three seeds, quarantine on and off:
    /// whatever each cell's typed outcome is, rerunning the cell must
    /// reproduce it exactly — outcome, recovery counters and modeled bits.
    #[test]
    fn storm_outcomes_are_deterministic() {
        for seed in [0xD00Du64, 0xBEE5, 0x5EED] {
            for quarantine in [true, false] {
                let fault = move || {
                    Some(Arc::new(
                        FaultPlan::new(seed)
                            .with_bit_flip_period(1 << 10)
                            .with_row_corrupt_period(1 << 11),
                    ))
                };
                let policy = if quarantine {
                    RunPolicy::default()
                } else {
                    RunPolicy::default().without_quarantine()
                };
                let ctx = format!("seed {seed:#x} quarantine {quarantine}");
                let first = run_all(&fault, policy);
                let second = run_all(&fault, policy);
                for ((app, a), (_, b)) in first.iter().zip(&second) {
                    assert_same(app, &ctx, a, b);
                }
            }
        }
    }

    /// The acceptance scenario: a persistent PE failure, fatal before
    /// this tier existed, now completes `Degraded` within a finite
    /// modeled-time deadline — the quarantined PE is reported, and the
    /// degraded-output delta is bounded by the run's own accounting.
    #[test]
    fn persistent_pe_failure_completes_degraded_within_deadline() {
        let dead: u32 = 5;
        let plain = plain_all();
        let fault = move || Some(Arc::new(FaultPlan::new(17).with_failed_pe(dead)));
        // A generous but finite budget: 4x the clean modeled time.
        let runs: Vec<(&str, ResilientRun, f64)> = run_all(&fault, RunPolicy::default())
            .into_iter()
            .zip(&plain)
            .map(|((app, r), (_, p))| {
                let deadline = 4.0 * p.profile.total_ns();
                (app, r, deadline)
            })
            .collect();
        for (app, run, deadline) in &runs {
            match &run.outcome {
                RunOutcome::Degraded { quarantined } => {
                    assert_eq!(quarantined, &vec![dead], "{app}: quarantine report");
                }
                other => panic!("{app}: expected Degraded, got {other:?}"),
            }
            assert!(
                run.modeled_ns <= *deadline,
                "{app}: degraded run blew the deadline ({} > {deadline} ns)",
                run.modeled_ns
            );
            // Degraded, not wrong-silently: the delta is reported.
            assert!(
                !run.run.validated || run.mismatched == 0,
                "{app}: validation flag contradicts the mismatch count"
            );
        }
        // Re-run under an *enforced* deadline: the outcome stays Degraded
        // because the run fits the budget.
        let policy = RunPolicy::default().with_deadline_ns(runs[0].2);
        let r = run_mlp_resilient(&mlp_cfg(), fault(), policy).unwrap();
        assert!(
            matches!(r.outcome, RunOutcome::Degraded { .. }),
            "MLP under enforced deadline: {:?}",
            r.outcome
        );
    }
}
