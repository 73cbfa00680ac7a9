//! Differential suite for the streaming engine's resolve-once window
//! transport: every primitive at every optimization level over the
//! benchmark's 1024-PE shapes (one whole-machine group, multi-EG groups,
//! packed sibling groups with fewer than eight lanes) and chunk sizes from
//! one lane word to a KiB must equal `pidcomm::oracle`; the edge cases the
//! windows make newly interesting must hold; and under fault injection the
//! engine must behave exactly as the per-call `EgView` row methods — the
//! transport it replaced, kept here as the reference loops.

#![allow(clippy::needless_range_loop)] // loop indices drive offset math

mod common;

use std::sync::Arc;

use common::{
    communicator, extents, fill, is_chunked, pages, per_call_reference, run_and_check, Call,
    CI_SEEDS,
};
use pidcomm::hypercube::build_clusters;
use pidcomm::{BufferSpec, Communicator, DimMask, Error, OptLevel, Primitive};
use pim_sim::testgen::fill_byte;
use pim_sim::{DType, DimmGeometry, FaultPlan, PimSystem, ReduceKind};

/// The shape/mask pairs of the benchmark's `prims_small` workload.
const SHAPES: [(&[usize], &str); 5] = [
    (&[1024], "1"),
    (&[32, 32], "10"),
    (&[32, 32], "01"),
    (&[8, 8, 16], "101"),
    (&[8, 8, 16], "010"),
];
const CHUNKS: [usize; 4] = [8, 16, 24, 1024];
const PAIRS: [(DType, ReduceKind); 4] = [
    (DType::U64, ReduceKind::Sum),
    (DType::I32, ReduceKind::Min),
    (DType::U8, ReduceKind::Or),
    (DType::I16, ReduceKind::Max),
];
/// Largest source or destination buffer per PE a 1024-PE matrix cell may
/// use (the suite runs unoptimized): a 1 KiB chunk fits the groups of 8;
/// larger groups meet it in the 64-PE per-call comparisons below.
const PE_BUDGET: usize = 24 * 1024;
fn host_payload(prim: Primitive, b: usize, n: usize, groups: usize, salt: u64) -> Vec<Vec<u8>> {
    let len = match prim {
        Primitive::Scatter => n * b,
        Primitive::Broadcast => b,
        _ => return Vec::new(),
    };
    (0..groups as u64)
        .map(|g| {
            (0..len)
                .map(|i| fill_byte(salt, (1 << 20) + g, i))
                .collect()
        })
        .collect()
}

/// One shape of the matrix: 8 primitives x every `OptLevel` x the chunk
/// sizes, the dtype/op pairs dealt round-robin over the cells. The levels
/// above `Baseline` move bytes through the same loops and differ in what
/// they charge, so only `Full` runs every chunk size; the others run the
/// smallest.
fn shape_matches_oracle(shape: usize, levels: &[OptLevel]) {
    let (dims, mask_str) = SHAPES[shape];
    let geom = DimmGeometry::upmem_1024();
    let mask: DimMask = mask_str.parse().unwrap();
    let mut sys = PimSystem::new(geom);
    let mut cell = shape;
    for &opt in levels {
        let comm = communicator(dims, geom, opt);
        let n = mask.group_size(comm.manager().shape()).unwrap();
        for prim in Primitive::ALL {
            let fits = |chunk: &usize| {
                let b = if is_chunked(prim) { chunk * n } else { *chunk };
                let (src_len, dst_len) = extents(prim, b, n);
                src_len.max(dst_len) <= PE_BUDGET
            };
            let mut chunks: Vec<usize> = CHUNKS.into_iter().filter(fits).collect();
            if opt != OptLevel::Full {
                chunks.truncate(1);
            }
            for chunk in chunks {
                let b = if is_chunked(prim) { chunk * n } else { chunk };
                let (src_len, _) = extents(prim, b, n);
                cell += 1;
                let (dtype, op) = PAIRS[cell % PAIRS.len()];
                let (src, dst) = (64, 64 + src_len + 64);
                let spec = BufferSpec::new(src, dst, b).with_dtype(dtype);
                fill(&mut sys, src, src_len, cell as u64);
                let host_in = host_payload(prim, b, n, geom.num_pes() / n, cell as u64);
                let what = format!("{dims:?}/{mask_str} {opt:?} {prim} chunk {chunk} {dtype} {op}");
                let call = Call {
                    prim,
                    mask: &mask,
                    spec,
                    op,
                    host_in: &host_in,
                };
                run_and_check(&comm, &mut sys, &call, &what);
            }
        }
    }
}

// The whole-machine group is the expensive shape (a million chunks per
// cell), so its levels run as two tests, side by side.
#[test]
fn one_whole_machine_group_matches_oracle() {
    shape_matches_oracle(0, &[OptLevel::Baseline, OptLevel::Full]);
}

#[test]
fn one_whole_machine_group_matches_oracle_at_the_ablation_levels() {
    shape_matches_oracle(0, &[OptLevel::PeReorder, OptLevel::InRegister]);
}

#[test]
fn multi_eg_groups_match_oracle() {
    shape_matches_oracle(1, &OptLevel::ALL);
}

#[test]
fn strided_multi_eg_groups_match_oracle() {
    shape_matches_oracle(2, &OptLevel::ALL);
}

#[test]
fn straddling_3d_groups_match_oracle() {
    shape_matches_oracle(3, &OptLevel::ALL);
}

#[test]
fn packed_sibling_groups_match_oracle() {
    shape_matches_oracle(4, &OptLevel::ALL);
}

// ---- edge cases ----------------------------------------------------------

const STREAMED: [Primitive; 5] = [
    Primitive::AlltoAll,
    Primitive::ReduceScatter,
    Primitive::AllReduce,
    Primitive::AllGather,
    Primitive::Reduce,
];

/// A 64-PE rank as 8x8, groups of 8 along either dimension.
fn small() -> (Communicator, DimmGeometry) {
    let geom = DimmGeometry::single_rank();
    (communicator(&[8, 8], geom, OptLevel::Full), geom)
}

#[test]
fn all_gather_from_fresh_mram_reads_zeros_and_leaves_the_source_unmaterialized() {
    let (comm, geom) = small();
    let mask: DimMask = "01".parse().unwrap();
    let mut sys = PimSystem::new(geom);
    let (src, b) = (1 << 20, 24);
    let spec = BufferSpec::new(src, 4104, b);
    comm.all_gather(&mut sys, &mask, &spec).unwrap();
    for pe in geom.pes() {
        assert_eq!(sys.pe(pe).peek(4104, 8 * b), vec![0u8; 8 * b], "{pe}");
        assert_eq!(
            sys.pe(pe).mram_resident(),
            pages(4104, 8 * b),
            "{pe}: only the destination"
        );
        assert!(sys.pe(pe).try_slice(src, b).is_none(), "{pe}");
    }
}

#[test]
fn distant_regions_page_straddling_and_abutting_layouts_match_oracle() {
    let (comm, geom) = small();
    let b = 8 * 24;
    // (src, dst) for the chunked primitives; AllGather's source is b / 8.
    let far = 48 * 1024 * 1024;
    for (src, dst, what) in [
        (0, far, "distant"),
        (far, 64, "distant, destination first"),
        (4104, 4104 + 16 * 1024, "page-straddling"),
        (4104, 4104 + b, "abutting"),
        (4104 + 8 * b, 4104, "abutting, destination first"),
    ] {
        for mask_str in ["10", "01"] {
            let mask: DimMask = mask_str.parse().unwrap();
            for (i, prim) in STREAMED.into_iter().enumerate() {
                let mut sys = PimSystem::new(geom);
                let bytes = if prim == Primitive::AllGather {
                    b / 8
                } else {
                    b
                };
                let (src_len, dst_len) = extents(prim, bytes, 8);
                fill(&mut sys, src, src_len, i as u64);
                let (dtype, op) = PAIRS[i % PAIRS.len()];
                let spec = BufferSpec::new(src, dst, bytes).with_dtype(dtype);
                let label = format!("{what} {mask_str} {prim}");
                let call = Call {
                    prim,
                    mask: &mask,
                    spec,
                    op,
                    host_in: &[],
                };
                run_and_check(&comm, &mut sys, &call, &label);
                // Nothing between (or beyond) the two regions materializes.
                let want = pages(src, src_len) + if dst_len > 0 { pages(dst, dst_len) } else { 0 };
                let merged = pages(src.min(dst), src.abs_diff(dst) + src_len.max(dst_len));
                for pe in geom.pes() {
                    let resident = sys.pe(pe).mram_resident();
                    assert!(
                        resident == want || (what != "distant" && resident <= merged),
                        "{label}: {pe} holds {resident} bytes, regions need {want}"
                    );
                    if what.starts_with("distant") {
                        assert_eq!(resident, want, "{label}: {pe}");
                    }
                }
            }
        }
    }
}

const LANDING: [Primitive; 4] = [
    Primitive::AlltoAll,
    Primitive::ReduceScatter,
    Primitive::AllReduce,
    Primitive::AllGather,
];

/// Shapes for the per-call comparisons on one 64-PE rank: whole EGs,
/// strided multi-EG groups, the whole machine, packed sibling groups.
const SMALL_SHAPES: [(&[usize], &str); 4] = [
    (&[8, 8], "10"),
    (&[8, 8], "01"),
    (&[8, 8], "11"),
    (&[4, 2, 8], "101"),
];

#[test]
fn mram_used_and_bytes_equal_the_per_call_path() {
    let geom = DimmGeometry::single_rank();
    for (dims, mask_str) in SMALL_SHAPES {
        let comm = communicator(dims, geom, OptLevel::Full);
        let mask: DimMask = mask_str.parse().unwrap();
        let clusters = build_clusters(comm.manager(), &mask).unwrap();
        let n = clusters[0].group_size();
        for (i, prim) in LANDING.into_iter().enumerate() {
            for chunk in [8usize, 24, 1024] {
                let b = if is_chunked(prim) { chunk * n } else { chunk };
                let (src_len, _) = extents(prim, b, n);
                // Destination below the source: the source end is what
                // `mram_used` has to remember.
                let (src, dst, op) = (80 * 1024 + 8, 4104, ReduceKind::Sum);
                let spec = BufferSpec::new(src, dst, b);
                let mut windowed = PimSystem::new(geom);
                fill(&mut windowed, src, src_len, i as u64);
                let mut per_call = windowed.clone();
                comm.plan(prim, &mask, &spec, op)
                    .unwrap()
                    .execute(&mut windowed)
                    .unwrap();
                per_call_reference(&mut per_call, &clusters, prim, &spec, op);
                for pe in geom.pes() {
                    let (a, b) = (windowed.pe(pe), per_call.pe(pe));
                    let what = format!("{dims:?}/{mask_str} {prim} chunk {chunk} {pe}");
                    assert_eq!(a.mram_used(), b.mram_used(), "{what}: mram_used");
                    assert_eq!(a.mram_resident(), b.mram_resident(), "{what}: resident");
                    let end = a.mram_used();
                    assert!(a.peek(0, end) == b.peek(0, end), "{what}: bytes");
                }
            }
        }
    }
}

#[test]
fn faults_and_verification_equal_the_per_call_path_for_ci_seeds() {
    let geom = DimmGeometry::single_rank();
    let (mut detected, mut clean) = (0, 0);
    for seed in CI_SEEDS {
        for (dims, mask_str) in SMALL_SHAPES {
            let comm = communicator(dims, geom, OptLevel::Full);
            let mask: DimMask = mask_str.parse().unwrap();
            let clusters = build_clusters(comm.manager(), &mask).unwrap();
            let n = clusters[0].group_size();
            for (i, prim) in LANDING.into_iter().enumerate() {
                let chunk = [8usize, 16, 24, 1024][(i + n) % 4];
                let b = if is_chunked(prim) { chunk * n } else { chunk };
                let (src_len, dst_len) = extents(prim, b, n);
                let (src, dst) = (4104, 4104 + src_len + 8);
                let (dtype, op) = PAIRS[i];
                let spec = BufferSpec::new(src, dst, b).with_dtype(dtype);
                // Sparse enough that some executions stay clean, dense
                // enough that most do not.
                let storm = || {
                    Arc::new(
                        FaultPlan::new(seed)
                            .with_bit_flip_period(1 << 9)
                            .with_row_corrupt_period(1 << 10),
                    )
                };
                let mut windowed = PimSystem::new(geom);
                fill(&mut windowed, src, src_len, seed ^ i as u64);
                let mut per_call = windowed.clone();
                for sys in [&mut windowed, &mut per_call] {
                    sys.attach_fault_plan(storm());
                    sys.set_verify_writes(true);
                }
                let what = format!("seed {seed} {dims:?}/{mask_str} {prim} chunk {chunk}");

                let got = comm
                    .plan(prim, &mask, &spec, op)
                    .unwrap()
                    .execute(&mut windowed);
                per_call.fault_plan().unwrap().begin_epoch();
                per_call_reference(&mut per_call, &clusters, prim, &spec, op);
                let want = per_call.take_corruption();

                match (got, want) {
                    (Ok(_), None) => clean += 1,
                    (
                        Err(Error::DataCorruption {
                            pe,
                            offset,
                            expected,
                            found,
                            epoch,
                        }),
                        Some(ev),
                    ) => {
                        assert_eq!(
                            (pe, offset, expected, found, epoch),
                            (ev.pe, ev.offset, ev.expected, ev.found, ev.epoch),
                            "{what}"
                        );
                        assert_eq!((ev.len, ev.epoch), (chunk, 1), "{what}");
                        detected += 1;
                    }
                    (got, want) => panic!("{what}: engine {got:?}, per-call {want:?}"),
                }
                // Every landing took the same fault: the images agree down
                // to the flipped bits.
                let end = dst + dst_len;
                for pe in geom.pes() {
                    assert!(
                        windowed.pe(pe).peek(0, end) == per_call.pe(pe).peek(0, end),
                        "{what}: {pe} landed different bytes"
                    );
                }
            }
        }
    }
    assert!(
        detected >= 12 && clean >= 3,
        "storm density off: {detected} detected, {clean} clean"
    );
}
