//! Cost-only execution is the functional engine's analytic twin: for every
//! primitive, optimization level and geometry, the modeled breakdown it
//! produces must be **bit-identical** (`f64::to_bits`) to what a real
//! functional run reports — on fresh systems, on arena-recycled systems,
//! and across the multi-host hierarchy. The figure harness and the
//! extended design-space sweeps rest on this equivalence: the primitive
//! figures print cost-only reports, and `BENCH_design.json` is pinned from
//! them alone (`crates/bench/tests/pins.rs`).

use pidcomm::{
    BufferSpec, Communicator, DimMask, HypercubeManager, HypercubeShape, LinkModel, MultiHost,
    OptLevel, Primitive, ReduceKind, Topology,
};
use pim_sim::{Breakdown, DType, DimmGeometry, PimSystem, SystemArena, TimeModel};

const DST: usize = 8192;

/// One seeded single-host configuration of the equivalence sweep.
struct Config {
    dims: Vec<usize>,
    mask: &'static str,
    bytes: usize,
    dtype: DType,
}

fn configs() -> Vec<Config> {
    vec![
        Config {
            dims: vec![8, 8],
            mask: "10",
            bytes: 512,
            dtype: DType::U64,
        },
        Config {
            dims: vec![4, 4, 4],
            mask: "110",
            bytes: 512,
            dtype: DType::U32,
        },
        Config {
            dims: vec![2, 32],
            mask: "01",
            bytes: 2048,
            dtype: DType::U8,
        },
        Config {
            dims: vec![64],
            mask: "1",
            bytes: 1024,
            dtype: DType::I16,
        },
    ]
}

fn assert_bits_eq(got: &Breakdown, want: &Breakdown, ctx: &str) {
    for (name, g, w) in [
        ("domain_transfer", got.domain_transfer, want.domain_transfer),
        ("host_modulation", got.host_modulation, want.host_modulation),
        ("host_mem_access", got.host_mem_access, want.host_mem_access),
        ("pe_mem_access", got.pe_mem_access, want.pe_mem_access),
        ("pe_modulation", got.pe_modulation, want.pe_modulation),
        ("kernel", got.kernel, want.kernel),
        ("other", got.other, want.other),
    ] {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: {name} drifts ({g} vs {w})"
        );
    }
}

fn fill_src(sys: &mut PimSystem, bytes: usize) {
    for pe in sys.geometry().pes() {
        let fill: Vec<u8> = (0..bytes)
            .map(|i| ((pe.0 as usize * 31 + i * 7) % 251) as u8)
            .collect();
        sys.pe_mut(pe).write(0, &fill);
    }
}

fn host_in(prim: Primitive, n: usize, groups: usize, b: usize) -> Option<Vec<Vec<u8>>> {
    match prim {
        Primitive::Scatter => Some(
            (0..groups)
                .map(|g| (0..n * b).map(|i| ((g * 13 + i) % 241) as u8).collect())
                .collect(),
        ),
        Primitive::Broadcast => Some(
            (0..groups)
                .map(|g| (0..b).map(|i| ((g * 17 + i) % 239) as u8).collect())
                .collect(),
        ),
        _ => None,
    }
}

/// Every primitive x every optimization level x every seeded geometry:
/// the cost-only report equals the functional report bit-for-bit, on a
/// fresh system and again on an arena-recycled one.
#[test]
fn cost_only_matches_functional_bits() {
    let mut arena = SystemArena::new();
    for cfg in configs() {
        let geom = DimmGeometry::single_rank();
        let manager =
            HypercubeManager::new(HypercubeShape::new(cfg.dims.clone()).unwrap(), geom).unwrap();
        let mask = DimMask::parse(cfg.mask).unwrap();
        let spec = BufferSpec::new(0, DST, cfg.bytes).with_dtype(cfg.dtype);
        for opt in [
            OptLevel::Full,
            OptLevel::InRegister,
            OptLevel::PeReorder,
            OptLevel::Baseline,
        ] {
            let comm = Communicator::new(manager.clone())
                .with_opt(opt)
                .with_threads(1);
            for prim in Primitive::ALL {
                let ctx = format!("{prim} {opt:?} dims={:?} mask={}", cfg.dims, cfg.mask);
                let plan = comm.plan(prim, &mask, &spec, ReduceKind::Sum).unwrap();
                let hin = host_in(prim, plan.group_size(), plan.num_groups(), cfg.bytes);

                // The analytic side never needs a system at all.
                let model = TimeModel::upmem();
                let cost = plan.cost_only_report(&model);

                for round in 0..2 {
                    // Round 0: fresh arena system; round 1: recycled.
                    let mut sys = arena.system(geom);
                    fill_src(&mut sys, cfg.bytes);
                    let functional = match prim {
                        Primitive::Scatter | Primitive::Broadcast => plan
                            .execute_with_host(&mut sys, hin.as_ref().unwrap())
                            .unwrap(),
                        Primitive::Gather | Primitive::Reduce => {
                            plan.execute_to_host(&mut sys).unwrap().0
                        }
                        _ => plan.execute(&mut sys).unwrap(),
                    };
                    assert_bits_eq(
                        &cost.breakdown,
                        &functional.breakdown,
                        &format!("{ctx} round={round}"),
                    );
                    assert_eq!(cost.primitive, functional.primitive, "{ctx}");
                    assert_eq!(cost.opt, functional.opt, "{ctx}");
                    assert_eq!(cost.bytes_in, functional.bytes_in, "{ctx}");
                    assert_eq!(cost.bytes_out, functional.bytes_out, "{ctx}");
                    assert_eq!(cost.group_size, functional.group_size, "{ctx}");
                    assert_eq!(cost.num_groups, functional.num_groups, "{ctx}");
                    arena.recycle(sys);
                }
            }
        }
    }
}

/// Ring and tree plans score like every plan: on two masks of an 8x8 cube
/// and on multi-EG groups of a 16x4 one, at a byte and a word element
/// type, the cost-only report equals the functional report bit for bit.
/// A warm stepped plan carries no state: a second run on the same system
/// lands the same bytes and reports the same bits.
#[test]
fn stepped_cost_only_matches_functional_bits() {
    let geom = DimmGeometry::single_rank();
    let model = TimeModel::upmem();
    let b = 512;
    for (dims, mask) in [(vec![8, 8], "10"), (vec![8, 8], "01"), (vec![16, 4], "10")] {
        let manager =
            HypercubeManager::new(HypercubeShape::new(dims.clone()).unwrap(), geom).unwrap();
        let mask = DimMask::parse(mask).unwrap();
        for dtype in [DType::U8, DType::U64] {
            let spec = BufferSpec::new(0, DST, b).with_dtype(dtype);
            for topo in [Topology::Ring, Topology::Tree] {
                let ctx = format!("{topo} {dtype} dims={dims:?} mask={mask}");
                let plan = topo.plan(&manager, &mask, &spec, ReduceKind::Sum).unwrap();
                let cost = plan.cost_only_report(&model);

                let mut sys = PimSystem::new(geom);
                fill_src(&mut sys, b);
                let image = |sys: &PimSystem| -> Vec<Vec<u8>> {
                    geom.pes().map(|pe| sys.pe(pe).peek(0, DST + b)).collect()
                };
                let first = plan.run(&mut sys, None).unwrap().report;
                assert_bits_eq(&cost.breakdown, &first.breakdown, &ctx);
                assert_eq!(cost, first, "{ctx}");
                let landed = image(&sys);

                sys.take_meter();
                let warm = plan.run(&mut sys, None).unwrap().report;
                assert_bits_eq(&warm.breakdown, &first.breakdown, &format!("{ctx} warm"));
                assert_eq!(warm, first, "{ctx} warm");
                assert_eq!(image(&sys), landed, "{ctx}: warm run moves other bytes");
            }
        }
    }
}

/// The multi-host hierarchy: cost-only local breakdown and link time equal
/// the functional multi-host report bit-for-bit for every hierarchical
/// primitive.
#[test]
fn multihost_cost_only_matches_functional_bits() {
    let geom = DimmGeometry::single_rank();
    let hosts = 2;
    let b = 512;
    let spec = BufferSpec::new(0, DST, b).with_dtype(DType::U64);
    let mask = DimMask::parse("10").unwrap();

    let comms: Vec<Communicator> = (0..hosts)
        .map(|_| {
            let m = HypercubeManager::new(HypercubeShape::new(vec![8, 8]).unwrap(), geom).unwrap();
            Communicator::new(m).with_threads(1)
        })
        .collect();
    let mh = MultiHost::new(comms, LinkModel::ethernet_10g()).unwrap();

    for prim in [
        Primitive::AllReduce,
        Primitive::AlltoAll,
        Primitive::ReduceScatter,
        Primitive::AllGather,
    ] {
        let plan = mh.plan(prim, &mask, &spec, ReduceKind::Sum).unwrap();
        let cost = plan.execute_cost_only(&TimeModel::upmem());

        let mut systems: Vec<PimSystem> = (0..hosts)
            .map(|h| {
                let mut sys = PimSystem::new(geom);
                for pe in geom.pes() {
                    let data: Vec<u8> = (0..b)
                        .map(|i| ((h * 19 + pe.0 as usize * 7 + i) % 113) as u8)
                        .collect();
                    sys.pe_mut(pe).write(0, &data);
                }
                sys
            })
            .collect();
        let functional = plan.execute(&mut systems).unwrap();

        assert_bits_eq(&cost.local, &functional.local, &format!("multihost {prim}"));
        assert_eq!(
            cost.mpi_ns.to_bits(),
            functional.mpi_ns.to_bits(),
            "multihost {prim}: mpi_ns drifts"
        );
        assert_eq!(cost.hosts, functional.hosts, "multihost {prim}");
    }
}

/// Cost-only execution is fault-inert: scoring a plan consumes no fault
/// epochs, triggers no injection, and leaves PE MRAM untouched even while
/// a hostile fault plan is attached to the system it is scored against —
/// only functional execution advances the epoch clock. A harness may
/// therefore score any number of plans next to a live (fault-attached)
/// system without perturbing its fault schedule.
#[test]
fn cost_only_is_fault_inert() {
    use pim_sim::{FaultKind, FaultPlan};
    use std::sync::Arc;

    let geom = DimmGeometry::single_rank();
    let manager = HypercubeManager::new(HypercubeShape::new(vec![8, 8]).unwrap(), geom).unwrap();
    let spec = BufferSpec::new(0, DST, 512).with_dtype(DType::U64);
    let comm = Communicator::new(manager).with_threads(1);
    let plan = comm
        .plan(
            Primitive::AllReduce,
            &DimMask::parse("10").unwrap(),
            &spec,
            ReduceKind::Sum,
        )
        .unwrap();
    let model = TimeModel::upmem();

    // A hostile plan: every transport write bit-flipped, PE 0 stuck in
    // the first epoch. If cost-only execution touched the fault layer at
    // all, this plan would make it visible.
    let fp = Arc::new(
        FaultPlan::new(9)
            .with_bit_flip_period(1)
            .with_event(FaultKind::Stuck, 0, 1),
    );
    let mut sys = PimSystem::new(geom);
    fill_src(&mut sys, 512);
    sys.attach_fault_plan(fp.clone());
    sys.set_verify_writes(true);
    let image = |sys: &PimSystem| -> Vec<Vec<u8>> {
        geom.pes().map(|pe| sys.pe(pe).peek(0, DST + 512)).collect()
    };
    let before = image(&sys);

    let clean_bits = plan.cost_only_report(&model).time_ns().to_bits();
    for round in 0..8 {
        let sheet = plan.execute_cost_only();
        assert_eq!(sheet.recovery_retries, 0, "round {round}");
        assert_eq!(
            plan.cost_only_report(&model).time_ns().to_bits(),
            clean_bits,
            "round {round}: cost-only bits drift under an attached fault plan"
        );
    }
    assert_eq!(fp.epoch(), 0, "cost-only execution consumed a fault epoch");
    assert_eq!(image(&sys), before, "cost-only execution disturbed PE MRAM");

    // The epoch clock is live, not merely never started: one functional
    // execution (whatever its verdict under this hostile plan) advances it.
    let _ = plan.execute(&mut sys);
    assert!(
        fp.epoch() > 0,
        "functional execution must consume fault epochs"
    );
}
