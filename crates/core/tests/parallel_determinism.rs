//! The cluster-parallel engine must be a pure execution knob: for random
//! shapes, masks, dtypes and payloads, every thread count must produce
//! buffers and reports byte-identical to the serial reference schedule,
//! and repeated runs must be bit-for-bit reproducible.
//!
//! Inputs come from a seeded, dependency-free generator (the container has
//! no proptest), so failures reproduce exactly.

use pidcomm::hypercube::HypercubeManager;
use pidcomm::{BufferSpec, CommReport, Communicator, DimMask, HypercubeShape, Primitive};
use pim_sim::{Category, DType, DimmGeometry, PimSystem, ReduceKind};

use pim_sim::testgen::{fill_byte, SplitMix64};

fn configs() -> Vec<(Vec<usize>, DimmGeometry)> {
    vec![
        (vec![8], DimmGeometry::single_group()),
        (vec![4, 2], DimmGeometry::single_group()),
        (vec![8, 8], DimmGeometry::single_rank()),
        (vec![16, 4], DimmGeometry::single_rank()),
        (vec![4, 2, 4], DimmGeometry::new(2, 1, 2)),
        (vec![2, 8, 2], DimmGeometry::new(1, 1, 4)),
    ]
}

fn fill(sys: &mut PimSystem, bytes: usize, seed: u64) {
    for pe in sys.geometry().pes() {
        let data: Vec<u8> = (0..bytes)
            .map(|i| fill_byte(seed, pe.0 as u64, i))
            .collect();
        sys.pe_mut(pe).write(0, &data);
    }
}

/// Snapshot of every byte the run could have touched, plus the report.
#[allow(clippy::too_many_arguments)]
fn run_once(
    dims: &[usize],
    geom: DimmGeometry,
    mask_bits: &[bool],
    seed: u64,
    dtype: DType,
    op: ReduceKind,
    prim: usize,
    threads: usize,
) -> (Vec<Vec<u8>>, CommReport) {
    let shape = HypercubeShape::new(dims.to_vec()).unwrap();
    let mask = DimMask::new(mask_bits.to_vec()).unwrap();
    let n = mask.group_size(&shape).unwrap();
    let manager = HypercubeManager::new(shape, geom).unwrap();
    let comm = Communicator::new(manager).with_threads(threads);
    let mut sys = PimSystem::new(geom);
    let b = 8 * n;
    fill(&mut sys, b, seed);
    let dst = 2 * b + 128;
    let spec = BufferSpec::new(0, dst, b).with_dtype(dtype);

    let report = match prim {
        0 => comm.all_to_all(&mut sys, &mask, &spec).unwrap(),
        1 => comm.reduce_scatter(&mut sys, &mask, &spec, op).unwrap(),
        2 => comm.all_reduce(&mut sys, &mask, &spec, op).unwrap(),
        _ => comm
            .all_gather(&mut sys, &mask, &BufferSpec::new(0, dst, 16))
            .unwrap(),
    };

    // Full MRAM image: src scratch, dst window, everything.
    let extent = dst + (n + 1) * b;
    let image = geom.pes().map(|pe| sys.pe(pe).peek(0, extent)).collect();
    (image, report)
}

#[test]
fn parallel_engine_is_deterministic_and_matches_serial() {
    let mut g = SplitMix64::new(0xde7e_2111);
    for case in 0..24 {
        let (dims, geom) = g.pick(&configs());
        let mask_bits: Vec<bool> = loop {
            let bits: Vec<bool> = (0..dims.len()).map(|_| g.next_u64() % 2 == 1).collect();
            if bits.iter().any(|&b| b) {
                break bits;
            }
        };
        let seed = g.next_u64();
        let dtype = g.pick(&[DType::U8, DType::U16, DType::U32, DType::U64, DType::I32]);
        let op = g.pick(&[
            ReduceKind::Sum,
            ReduceKind::Min,
            ReduceKind::Max,
            ReduceKind::Xor,
        ]);
        let prim = (g.next_u64() % 4) as usize;

        let run = |threads| run_once(&dims, geom, &mask_bits, seed, dtype, op, prim, threads);
        let (serial_img, serial_report) = run(1);
        for threads in [0, 2, 7] {
            let (img, report) = run(threads);
            assert_eq!(
                report, serial_report,
                "case {case}: report differs at threads={threads} ({dims:?} {mask_bits:?} prim {prim})"
            );
            assert_eq!(
                img, serial_img,
                "case {case}: MRAM image differs at threads={threads} ({dims:?} {mask_bits:?} prim {prim})"
            );
        }
        // Repeated parallel runs are bit-for-bit reproducible.
        let (img_a, rep_a) = run(0);
        let (img_b, rep_b) = run(0);
        assert_eq!(rep_a, rep_b, "case {case}: report not reproducible");
        assert_eq!(img_a, img_b, "case {case}: image not reproducible");
    }
}

/// Three hosts at explicit bounds {2, 3} and at auto — the schedules where
/// hosts run concurrently and plan serial inner collectives — land the
/// bytes and report the bits of the serial reference, run after run.
#[test]
fn multihost_parallel_hosts_are_deterministic() {
    let geom = DimmGeometry::single_rank();
    let run = |threads: usize| {
        let mk = || {
            let shape = HypercubeShape::new(vec![8, 8]).unwrap();
            Communicator::new(HypercubeManager::new(shape, geom).unwrap()).with_threads(threads)
        };
        let mh =
            pidcomm::MultiHost::new(vec![mk(), mk(), mk()], pidcomm::LinkModel::ethernet_10g())
                .unwrap();
        let mut systems: Vec<PimSystem> = (0..3).map(|_| PimSystem::new(geom)).collect();
        for (h, sys) in systems.iter_mut().enumerate() {
            fill(sys, 64, h as u64 + 1);
        }
        let spec = BufferSpec::new(0, 1024, 64);
        let plan = mh.plan(
            Primitive::AllReduce,
            &"10".parse().unwrap(),
            &spec,
            ReduceKind::Sum,
        );
        let report = plan.unwrap().execute(&mut systems).unwrap();
        let local = Category::ALL.map(|c| report.local.get(c).to_bits());
        let bits = (local, report.mpi_ns.to_bits());
        let images: Vec<Vec<u8>> = systems
            .iter()
            .flat_map(|s| geom.pes().map(|pe| s.pe(pe).peek(1024, 64)))
            .collect();
        (bits, images)
    };
    let (serial_bits, serial_images) = run(1);
    for threads in [2, 3, 0, 0] {
        let (bits, images) = run(threads);
        assert_eq!(bits, serial_bits, "threads={threads}: report bits");
        assert!(
            images == serial_images,
            "threads={threads}: destination images"
        );
    }
}
