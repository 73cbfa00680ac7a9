//! Property-style tests: the streaming engine must match the functional
//! oracle for randomly drawn shapes, masks, payload sizes and data.
//!
//! Inputs are drawn from a seeded, dependency-free generator (the container
//! has no proptest), so every run exercises the same fixed sample of the
//! input space and failures reproduce exactly.

use pidcomm::hypercube::HypercubeManager;
use pidcomm::{oracle, BufferSpec, Communicator, DimMask, HypercubeShape, OptLevel};
use pim_sim::{DType, DimmGeometry, PimSystem, ReduceKind};

use pim_sim::testgen::{fill_byte, SplitMix64};

/// Shape/geometry pairs covering sub-lane, strided, multi-EG and
/// straddling group structures (kept small so the sweep stays fast).
fn configs() -> Vec<(Vec<usize>, DimmGeometry)> {
    vec![
        (vec![8], DimmGeometry::single_group()),
        (vec![4, 2], DimmGeometry::single_group()),
        (vec![2, 2, 2], DimmGeometry::single_group()),
        (vec![8, 8], DimmGeometry::single_rank()),
        (vec![16, 4], DimmGeometry::single_rank()),
        (vec![4, 2, 4], DimmGeometry::new(2, 1, 2)),
        (vec![2, 8, 2], DimmGeometry::new(1, 1, 4)),
    ]
}

/// A random non-empty mask over `rank` dimensions.
fn random_mask(g: &mut SplitMix64, rank: usize) -> Vec<bool> {
    loop {
        let bits: Vec<bool> = (0..rank).map(|_| g.next_u64() % 2 == 1).collect();
        if bits.iter().any(|&b| b) {
            return bits;
        }
    }
}

fn fill(sys: &mut PimSystem, bytes: usize, seed: u64) {
    for pe in sys.geometry().pes() {
        let data: Vec<u8> = (0..bytes)
            .map(|i| fill_byte(seed, pe.0 as u64, i))
            .collect();
        sys.pe_mut(pe).write(0, &data);
    }
}

fn setup(
    dims: &[usize],
    geom: DimmGeometry,
    mask_bits: &[bool],
) -> (PimSystem, Communicator, DimMask, usize) {
    let shape = HypercubeShape::new(dims.to_vec()).unwrap();
    let mask = DimMask::new(mask_bits.to_vec()).unwrap();
    let n = mask.group_size(&shape).unwrap();
    let manager = HypercubeManager::new(shape, geom).unwrap();
    (PimSystem::new(geom), Communicator::new(manager), mask, n)
}

const CASES: usize = 48;

#[test]
fn alltoall_matches_oracle() {
    let mut g = SplitMix64::new(0xaa_2a11);
    for _ in 0..CASES {
        let (dims, geom) = g.pick(&configs());
        let mask_bits = random_mask(&mut g, dims.len());
        let mult = 1 + (g.next_u64() % 2) as usize;
        let seed = g.next_u64();
        let opt = g.pick(&[OptLevel::Baseline, OptLevel::PeReorder, OptLevel::Full]);
        let (mut sys, comm, mask, n) = setup(&dims, geom, &mask_bits);
        let b = 8 * n * mult;
        fill(&mut sys, b, seed);

        let groups = comm.manager().groups(&mask).unwrap();
        let mut expected = Vec::new();
        for grp in &groups {
            let inputs: Vec<Vec<u8>> = grp
                .members
                .iter()
                .map(|&pe| sys.pe_mut(pe).read(0, b).to_vec())
                .collect();
            expected.push(oracle::alltoall(&inputs));
        }

        let dst = 2 * b + 128;
        comm.with_opt(opt)
            .all_to_all(&mut sys, &mask, &BufferSpec::new(0, dst, b))
            .unwrap();

        for (grp, want) in groups.iter().zip(&expected) {
            for (&pe, w) in grp.members.iter().zip(want) {
                let got = sys.pe_mut(pe).read(dst, b).to_vec();
                assert_eq!(&got, w, "{dims:?} {mask_bits:?} {opt} {pe}");
            }
        }
    }
}

/// Every element type under every operator, one drawn shape each: a
/// signed or narrow kernel that folds wrong fails here whatever the draw.
#[test]
fn allreduce_matches_oracle() {
    let mut g = SplitMix64::new(0xa11_4ed);
    let grid = ReduceKind::ALL
        .into_iter()
        .flat_map(|op| DType::ALL.map(|dtype| (dtype, op)));
    for (dtype, op) in grid {
        let (dims, geom) = g.pick(&configs());
        let mask_bits = random_mask(&mut g, dims.len());
        let seed = g.next_u64();
        let (mut sys, comm, mask, n) = setup(&dims, geom, &mask_bits);
        let b = 8 * n;
        fill(&mut sys, b, seed);

        let groups = comm.manager().groups(&mask).unwrap();
        let mut expected = Vec::new();
        for grp in &groups {
            let inputs: Vec<Vec<u8>> = grp
                .members
                .iter()
                .map(|&pe| sys.pe_mut(pe).read(0, b).to_vec())
                .collect();
            expected.push(oracle::all_reduce(&inputs, op, dtype));
        }

        let dst = 2 * b + 128;
        comm.all_reduce(
            &mut sys,
            &mask,
            &BufferSpec::new(0, dst, b).with_dtype(dtype),
            op,
        )
        .unwrap();

        for (grp, want) in groups.iter().zip(&expected) {
            for (&pe, w) in grp.members.iter().zip(want) {
                let got = sys.pe_mut(pe).read(dst, b).to_vec();
                assert_eq!(&got, w, "{dims:?} {mask_bits:?} {dtype} {op} {pe}");
            }
        }
    }
}

#[test]
fn allgather_matches_oracle() {
    let mut g = SplitMix64::new(0xa6_6a74);
    for _ in 0..CASES {
        let (dims, geom) = g.pick(&configs());
        let mask_bits = random_mask(&mut g, dims.len());
        let mult = 1 + (g.next_u64() % 3) as usize;
        let seed = g.next_u64();
        let (mut sys, comm, mask, _n) = setup(&dims, geom, &mask_bits);
        let b = 8 * mult;
        fill(&mut sys, b, seed);

        let groups = comm.manager().groups(&mask).unwrap();
        let mut expected = Vec::new();
        for grp in &groups {
            let inputs: Vec<Vec<u8>> = grp
                .members
                .iter()
                .map(|&pe| sys.pe_mut(pe).read(0, b).to_vec())
                .collect();
            expected.push(oracle::all_gather(&inputs));
        }

        let dst = 4096;
        comm.all_gather(&mut sys, &mask, &BufferSpec::new(0, dst, b))
            .unwrap();

        for (grp, want) in groups.iter().zip(&expected) {
            for (&pe, w) in grp.members.iter().zip(want) {
                let got = sys.pe_mut(pe).read(dst, w.len()).to_vec();
                assert_eq!(&got, w, "{dims:?} {mask_bits:?} {pe}");
            }
        }
    }
}

#[test]
fn every_report_has_positive_time_and_bus_traffic() {
    let mut g = SplitMix64::new(0x4e904);
    for _ in 0..CASES {
        let (dims, geom) = g.pick(&configs());
        let seed = g.next_u64();
        let mask_bits = vec![true; dims.len()];
        let (mut sys, comm, mask, n) = setup(&dims, geom, &mask_bits);
        let b = 8 * n;
        fill(&mut sys, b, seed);
        let report = comm
            .all_to_all(&mut sys, &mask, &BufferSpec::new(0, 2 * b + 128, b))
            .unwrap();
        assert!(report.time_ns() > 0.0);
        assert!(report.breakdown.pe_mem_access > 0.0);
        assert!(report.throughput_gbps() > 0.0);
        assert_eq!(report.group_size, n);
    }
}
