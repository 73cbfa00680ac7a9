//! Persistent collective plans are pure derivations: executing one warm
//! plan many times — across thread budgets, arena-recycled systems and
//! interleaved other traffic — must be byte-identical to cold per-call
//! planning, for every primitive and optimization level. The recorded
//! sweep speedups and the apps' hoisted plans rest on this property.

use pidcomm::{
    BufferSpec, Communicator, DimMask, HypercubeManager, HypercubeShape, OptLevel, PlanCache,
    Primitive, ReduceKind,
};
use pim_sim::{DType, DimmGeometry, PimSystem, SystemArena};

const B: usize = 512;
const DST: usize = 8192;

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
        let fill: Vec<u8> = (0..B)
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
        .map(|pe| sys.pe(pe).peek(0, DST + 16 * B))
        .collect()
}

fn spec() -> BufferSpec {
    BufferSpec::new(0, DST, B)
}

fn host_in(prim: Primitive, n: usize, groups: usize) -> Option<Vec<Vec<u8>>> {
    match prim {
        Primitive::Scatter => Some(
            (0..groups)
                .map(|g| (0..n * B).map(|i| ((g * 13 + i) % 241) as u8).collect())
                .collect(),
        ),
        Primitive::Broadcast => Some(
            (0..groups)
                .map(|g| (0..B).map(|i| ((g * 17 + i) % 239) as u8).collect())
                .collect(),
        ),
        _ => None,
    }
}

#[test]
fn warm_plan_reexecution_matches_cold_per_call_planning() {
    let mask: DimMask = "10".parse().unwrap();
    for opt in [OptLevel::Full, OptLevel::InRegister, OptLevel::Baseline] {
        for prim in Primitive::ALL {
            // Cold reference: the one-shot path on a fresh system.
            let c = comm(opt, 1);
            let n = 8;
            let groups = 8;
            let hin = host_in(prim, n, groups);
            let mut arena = SystemArena::new();
            let mut sys = fresh_filled(&mut arena);
            let (ref_report, ref_host_out) = match prim {
                Primitive::AlltoAll => (c.all_to_all(&mut sys, &mask, &spec()).unwrap(), None),
                Primitive::ReduceScatter => (
                    c.reduce_scatter(&mut sys, &mask, &spec(), ReduceKind::Sum)
                        .unwrap(),
                    None,
                ),
                Primitive::AllReduce => (
                    c.all_reduce(&mut sys, &mask, &spec(), ReduceKind::Sum)
                        .unwrap(),
                    None,
                ),
                Primitive::AllGather => (c.all_gather(&mut sys, &mask, &spec()).unwrap(), None),
                Primitive::Scatter => (
                    c.scatter(&mut sys, &mask, &spec(), hin.as_ref().unwrap())
                        .unwrap(),
                    None,
                ),
                Primitive::Gather => {
                    let (r, out) = c.gather(&mut sys, &mask, &spec()).unwrap();
                    (r, Some(out))
                }
                Primitive::Reduce => {
                    let (r, out) = c.reduce(&mut sys, &mask, &spec(), ReduceKind::Sum).unwrap();
                    (r, Some(out))
                }
                Primitive::Broadcast => (
                    c.broadcast(&mut sys, &mask, &spec(), hin.as_ref().unwrap())
                        .unwrap(),
                    None,
                ),
            };
            let ref_mram = snapshot(&sys);
            arena.recycle(sys);

            // Warm plan: one plan, many executions, across thread budgets
            // and arena-recycled systems.
            for threads in [1usize, 2, 0] {
                let c = comm(opt, threads);
                let plan = c.plan(prim, &mask, &spec(), ReduceKind::Sum).unwrap();
                for round in 0..3 {
                    let mut sys = fresh_filled(&mut arena);
                    let (report, out) = match prim {
                        Primitive::Scatter | Primitive::Broadcast => (
                            plan.execute_with_host(&mut sys, hin.as_ref().unwrap())
                                .unwrap(),
                            None,
                        ),
                        Primitive::Gather | Primitive::Reduce => {
                            let (r, o) = plan.execute_to_host(&mut sys).unwrap();
                            (r, Some(o))
                        }
                        _ => (plan.execute(&mut sys).unwrap(), None),
                    };
                    assert!(
                        report == ref_report,
                        "{prim} {opt:?} report diverges (threads={threads}, round={round})"
                    );
                    assert!(
                        out == ref_host_out,
                        "{prim} {opt:?} host output diverges (threads={threads}, round={round})"
                    );
                    assert!(
                        snapshot(&sys) == ref_mram,
                        "{prim} {opt:?} MRAM diverges (threads={threads}, round={round})"
                    );
                    arena.recycle(sys);
                }
            }
        }
    }
}

#[test]
fn execute_variants_enforce_host_buffer_shape() {
    let c = comm(OptLevel::Full, 1);
    let mask: DimMask = "10".parse().unwrap();
    let aa = c
        .plan(Primitive::AlltoAll, &mask, &spec(), ReduceKind::Sum)
        .unwrap();
    let sc = c
        .plan(Primitive::Scatter, &mask, &spec(), ReduceKind::Sum)
        .unwrap();
    let ga = c
        .plan(Primitive::Gather, &mask, &spec(), ReduceKind::Sum)
        .unwrap();
    let mut arena = SystemArena::new();
    let mut sys = fresh_filled(&mut arena);

    // Wrong execute variant for the planned primitive.
    assert!(sc.execute(&mut sys).is_err(), "Scatter needs host input");
    assert!(ga.execute(&mut sys).is_err(), "Gather produces host output");
    assert!(aa.execute_with_host(&mut sys, &[]).is_err());
    assert!(aa.execute_to_host(&mut sys).is_err());
    // Wrong host buffer count still caught at execute time.
    assert!(sc.execute_with_host(&mut sys, &[vec![0u8; 8 * B]]).is_err());
    // Geometry mismatch caught at execute time.
    let mut small = PimSystem::new(DimmGeometry::single_group());
    assert!(aa.execute(&mut small).is_err());
}

#[test]
fn plan_cache_plans_once_per_distinct_key() {
    let c = comm(OptLevel::Full, 1);
    let mask: DimMask = "10".parse().unwrap();
    let mut cache = PlanCache::new();

    let p1 = c
        .plan_cached(
            &mut cache,
            Primitive::AllReduce,
            &mask,
            &spec(),
            ReduceKind::Sum,
        )
        .unwrap();
    assert_eq!((cache.hits(), cache.misses()), (0, 1));
    // Same key: served from the pool, and it is the same plan.
    let p2 = c
        .plan_cached(
            &mut cache,
            Primitive::AllReduce,
            &mask,
            &spec(),
            ReduceKind::Sum,
        )
        .unwrap();
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
    assert!(std::sync::Arc::ptr_eq(&p1, &p2));

    // Any key ingredient change is a distinct plan: primitive, op, mask,
    // spec, opt level, thread budget.
    c.plan_cached(
        &mut cache,
        Primitive::ReduceScatter,
        &mask,
        &spec(),
        ReduceKind::Sum,
    )
    .unwrap();
    c.plan_cached(
        &mut cache,
        Primitive::AllReduce,
        &mask,
        &spec(),
        ReduceKind::Min,
    )
    .unwrap();
    c.plan_cached(
        &mut cache,
        Primitive::AllReduce,
        &"01".parse().unwrap(),
        &spec(),
        ReduceKind::Sum,
    )
    .unwrap();
    c.plan_cached(
        &mut cache,
        Primitive::AllReduce,
        &mask,
        &BufferSpec::new(0, DST, 2 * B),
        ReduceKind::Sum,
    )
    .unwrap();
    let c2 = comm(OptLevel::Baseline, 1);
    c2.plan_cached(
        &mut cache,
        Primitive::AllReduce,
        &mask,
        &spec(),
        ReduceKind::Sum,
    )
    .unwrap();
    let c3 = comm(OptLevel::Full, 2);
    c3.plan_cached(
        &mut cache,
        Primitive::AllReduce,
        &mask,
        &spec(),
        ReduceKind::Sum,
    )
    .unwrap();
    assert_eq!((cache.hits(), cache.misses()), (1, 7));
    assert_eq!(cache.len(), 7);

    // Warm lookups of every key replan nothing.
    let misses = cache.misses();
    c.plan_cached(
        &mut cache,
        Primitive::ReduceScatter,
        &mask,
        &spec(),
        ReduceKind::Sum,
    )
    .unwrap();
    c3.plan_cached(
        &mut cache,
        Primitive::AllReduce,
        &mask,
        &spec(),
        ReduceKind::Sum,
    )
    .unwrap();
    assert_eq!(cache.misses(), misses, "warm keys must not replan");
    assert_eq!(cache.hits(), 3);

    // A failed build (misaligned spec) is an error and never cached.
    assert!(c
        .plan_cached(
            &mut cache,
            Primitive::AlltoAll,
            &mask,
            &BufferSpec::new(0, DST, 12),
            ReduceKind::Sum
        )
        .is_err());
    assert_eq!(cache.len(), 7);
}

#[test]
fn plan_cache_snapshot_deltas_scope_a_workload() {
    use pidcomm::PlanCacheStats;

    let c = comm(OptLevel::Full, 1);
    let mask: DimMask = "10".parse().unwrap();
    let mut cache = PlanCache::new();

    c.plan_cached(
        &mut cache,
        Primitive::AllReduce,
        &mask,
        &spec(),
        ReduceKind::Sum,
    )
    .unwrap();
    let before = cache.snapshot();
    assert_eq!(
        before,
        PlanCacheStats {
            hits: 0,
            misses: 1,
            len: 1
        }
    );

    // A scoped workload: one warm hit, one new plan.
    c.plan_cached(
        &mut cache,
        Primitive::AllReduce,
        &mask,
        &spec(),
        ReduceKind::Sum,
    )
    .unwrap();
    c.plan_cached(
        &mut cache,
        Primitive::AllGather,
        &mask,
        &spec(),
        ReduceKind::Sum,
    )
    .unwrap();

    let delta = cache.snapshot().delta(&before);
    assert_eq!((delta.hits, delta.misses), (1, 1));
    assert_eq!(delta.len, 2, "delta.len reports current occupancy");
}

/// A multi-host plan carries nothing between executions: every round of
/// one reused plan equals a fresh plan's first execution, report and MRAM.
#[test]
fn reused_multihost_plan_rounds_match_a_fresh_plans_first_execution() {
    use pidcomm::{LinkModel, MultiHost};

    let geom = DimmGeometry::single_rank();
    let hosts = 3;
    let mk_systems = |bytes: usize| -> Vec<PimSystem> {
        (0..hosts)
            .map(|h| {
                let mut sys = PimSystem::new(geom);
                for pe in geom.pes() {
                    let data: Vec<u8> = (0..bytes)
                        .map(|i| ((h * 19 + pe.0 as usize * 7 + i) % 113) as u8)
                        .collect();
                    sys.pe_mut(pe).write(0, &data);
                }
                sys
            })
            .collect()
    };
    let comms: Vec<Communicator> = (0..hosts)
        .map(|_| {
            let m = HypercubeManager::new(HypercubeShape::new(vec![8, 8]).unwrap(), geom).unwrap();
            Communicator::new(m).with_threads(1)
        })
        .collect();
    let mh = MultiHost::new(comms, LinkModel::ethernet_10g()).unwrap();
    let mask: DimMask = "10".parse().unwrap();
    let b = 64;
    let spec = BufferSpec::new(0, 1024, b).with_dtype(DType::U64);

    let plan = || {
        mh.plan(Primitive::AllReduce, &mask, &spec, ReduceKind::Sum)
            .unwrap()
    };
    let mut systems = mk_systems(b);
    let reference = plan().execute(&mut systems).unwrap();
    let ref_mram: Vec<Vec<Vec<u8>>> = systems
        .iter()
        .map(|s| {
            s.geometry()
                .pes()
                .map(|pe| s.pe(pe).peek(0, 2048))
                .collect()
        })
        .collect();

    let plan = plan();
    for round in 0..3 {
        let mut systems = mk_systems(b);
        let report = plan.execute(&mut systems).unwrap();
        assert!(
            report == reference,
            "multi-host report diverges (round {round})"
        );
        let mram: Vec<Vec<Vec<u8>>> = systems
            .iter()
            .map(|s| {
                s.geometry()
                    .pes()
                    .map(|pe| s.pe(pe).peek(0, 2048))
                    .collect()
            })
            .collect();
        assert!(mram == ref_mram, "multi-host MRAM diverges (round {round})");
    }
}
