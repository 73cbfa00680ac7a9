//! The PE-major data path of the reducing collectives (ReduceScatter,
//! AllReduce, Reduce): each source PE's region is rotated and folded once,
//! tile by tile, and AllReduce lands every group's vector as one run. The
//! suite holds it to `pidcomm::oracle` over every operator and element
//! width, at the region sizes where the tiling changes shape — below one
//! tile, exactly one, several with a ragged last one, parts larger than a
//! tile — which the 24 KiB/PE suites never reach; to the per-call reference
//! (`common::per_call_reference`) for what it leaves in the source region
//! and for materializing every page the reference does; and, under seeded
//! storms, for the corrupted images and the first `CorruptionEvent`. The
//! Baseline engine's borrowed pull is held to the same oracle and, over
//! never-written sources, to "materializes nothing".

mod common;

use std::sync::Arc;

use common::{communicator, extents, fill, per_call_reference, run_and_check, Call, CI_SEEDS};
use pidcomm::hypercube::build_clusters;
use pidcomm::{BufferSpec, DimMask, Error, OptLevel, Primitive};
use pim_sim::pe::{Pe, PAGE_BYTES};
use pim_sim::{DType, DimmGeometry, FaultPlan, PimSystem, ReduceKind};

const REDUCING: [Primitive; 3] = [
    Primitive::ReduceScatter,
    Primitive::AllReduce,
    Primitive::Reduce,
];
const WIDTHS: [DType; 4] = [DType::U8, DType::I16, DType::U32, DType::I64];
const LEVELS: [OptLevel; 3] = [OptLevel::Baseline, OptLevel::InRegister, OptLevel::Full];

/// Three entangled groups, 24 PEs: enough for a ragged last tile (a tile
/// of two parts over a region of three).
fn geometry() -> DimmGeometry {
    DimmGeometry::new(1, 1, 3)
}

/// `(dims, mask, lanes per group)` on [`geometry`]: one group over all
/// three EGs; one EG per group; packed sibling pairs and quadruples on a
/// 3-D mask; eight single-lane groups packed on a 2-D mask.
const SHAPES: [(&[usize], &str, usize); 5] = [
    (&[8, 3], "11", 8),
    (&[8, 3], "10", 8),
    (&[4, 2, 3], "101", 4),
    (&[2, 4, 3], "101", 2),
    (&[8, 3], "01", 1),
];

/// Bytes of one destination-EG part (`l` chunks) against the engine's
/// 64 KiB tile, on the three-part regions of the multi-EG shapes: a
/// fraction of a tile; three parts filling one tile exactly; two parts per
/// tile and a ragged third; and, on the first shape only (the suite runs
/// unoptimized), one part per tile and a part larger than a tile.
const PARTS: [usize; 5] = [1024, 20 * 1024, 24 * 1024, 40 * 1024, 72 * 1024];
const PARTS_EVERY_SHAPE: usize = 3;

/// A call of one of the reducing primitives (no host input).
fn call(prim: Primitive, mask: &DimMask, spec: BufferSpec, op: ReduceKind) -> Call<'_> {
    Call {
        prim,
        mask,
        spec,
        op,
        host_in: &[],
    }
}

fn lanes_of(dims: &[usize], mask: &DimMask) -> (usize, usize) {
    let comm = communicator(dims, geometry(), OptLevel::Full);
    let clusters = build_clusters(comm.manager(), mask).unwrap();
    (clusters[0].lane_count, clusters[0].group_size())
}

#[test]
fn every_operator_and_width_matches_oracle_at_one_word_chunks() {
    for (dims, mask_str, l) in SHAPES {
        let mask: DimMask = mask_str.parse().unwrap();
        let (lanes, n) = lanes_of(dims, &mask);
        assert_eq!(lanes, l, "{dims:?}/{mask_str}");
        let b = 8 * n;
        let geom = geometry();
        let mut sys = PimSystem::new(geom);
        let mut salt = 0;
        for opt in LEVELS {
            for prim in REDUCING {
                for op in ReduceKind::ALL {
                    for dtype in WIDTHS {
                        salt += 1;
                        // Source off the page grid, above the destination.
                        let (src, dst) = (4104, 8);
                        fill(&mut sys, src, b, salt);
                        let spec = BufferSpec::new(src, dst, b).with_dtype(dtype);
                        let cell = call(prim, &mask, spec, op);
                        let what = format!("{dims:?}/{mask_str} {opt:?} {prim} {op} {dtype}");
                        run_and_check(&communicator(dims, geom, opt), &mut sys, &cell, &what);
                    }
                }
            }
        }
    }
}

/// Runs `prim` at part size `part` on every shape under `opt`; the streamed
/// levels must additionally leave every PE — source region rotated, extent,
/// materialized pages — exactly as the per-call reference does.
fn tile_shapes_match(opt: OptLevel, parts: &[usize]) {
    let geom = geometry();
    let mut cell_no = 0;
    for (shape, (dims, mask_str, l)) in SHAPES.into_iter().enumerate() {
        let mask: DimMask = mask_str.parse().unwrap();
        let (_, n) = lanes_of(dims, &mask);
        let parts = if shape == 0 {
            parts
        } else {
            &parts[..parts.len().min(PARTS_EVERY_SHAPE)]
        };
        for &part in parts {
            // One lane word is the smallest chunk; skip what does not
            // divide (all of PARTS do, down to l = 8).
            assert_eq!(part % (8 * l), 0);
            let b = part / l * n;
            for prim in REDUCING {
                cell_no += 1;
                let op = ReduceKind::ALL[cell_no % ReduceKind::ALL.len()];
                let dtype = WIDTHS[cell_no % WIDTHS.len()];
                // Destination below the source, off the page grid.
                let (src, dst) = (b.next_multiple_of(PAGE_BYTES) + 2 * PAGE_BYTES + 8, 4104);
                let spec = BufferSpec::new(src, dst, b).with_dtype(dtype);
                let what = format!("{dims:?}/{mask_str} {opt:?} {prim} part {part} {op} {dtype}");
                let mut sys = PimSystem::new(geom);
                fill(&mut sys, src, b, cell_no as u64);
                let mut reference = sys.clone();
                let cell = call(prim, &mask, spec, op);
                run_and_check(&communicator(dims, geom, opt), &mut sys, &cell, &what);

                if opt == OptLevel::Baseline {
                    // The conventional flow leaves its sources alone.
                    for pe in geom.pes() {
                        assert!(sys.pe(pe).peek(src, b) == reference.pe(pe).peek(src, b));
                    }
                    continue;
                }
                let comm = communicator(dims, geom, opt);
                let clusters = build_clusters(comm.manager(), &mask).unwrap();
                per_call_reference(&mut reference, &clusters, prim, &spec, op);
                // The engine resolves windows, which materialize their whole
                // destination; the reference lands rows one by one, which
                // materialize only the pages their non-zero bytes reach. So
                // every page the reference holds, the engine holds too —
                // pages in a zero tail's run of zeros included.
                let held = |pe: &Pe, page| pe.mram_resident_in(page, PAGE_BYTES) > 0;
                for pe in geom.pes() {
                    let (a, r) = (sys.pe(pe), reference.pe(pe));
                    assert_eq!(a.mram_used(), r.mram_used(), "{what}: {pe} mram_used");
                    let end = a.mram_used();
                    assert!(a.peek(0, end) == r.peek(0, end), "{what}: {pe} bytes");
                    for page in (0..end).step_by(PAGE_BYTES) {
                        assert!(!held(r, page) || held(a, page), "{what}: {pe} page {page}");
                    }
                }
            }
        }
    }
}

#[test]
fn full_matches_oracle_and_the_per_call_reference_at_every_tile_shape() {
    tile_shapes_match(OptLevel::Full, &PARTS);
}

#[test]
fn in_register_matches_oracle_and_the_per_call_reference_across_tiles() {
    // Same loops as Full, different charges: the ragged shape is enough.
    tile_shapes_match(OptLevel::InRegister, &PARTS[2..3]);
}

#[test]
fn baseline_matches_oracle_at_every_tile_shape_and_leaves_sources_alone() {
    tile_shapes_match(OptLevel::Baseline, &PARTS[..4]);
}

#[test]
fn storms_over_several_tiles_equal_the_chunk_by_chunk_reference() {
    let geom = geometry();
    let (mut detected, mut clean) = (0, 0);
    for seed in CI_SEEDS {
        // Dense: the lowest PE takes several faults, so *which* landing
        // came first on it is observable. Sparse: most executions clean.
        for (flip, row) in [(1u64 << 2, 1u64 << 3), (1 << 13, 1 << 14)] {
            for (dims, mask_str, l) in [SHAPES[0], SHAPES[2]] {
                let mask: DimMask = mask_str.parse().unwrap();
                let (_, n) = lanes_of(dims, &mask);
                let comm = communicator(dims, geom, OptLevel::Full);
                let clusters = build_clusters(comm.manager(), &mask).unwrap();
                for (i, prim) in REDUCING[..2].iter().copied().enumerate() {
                    // Two parts per tile, three parts: two tiles.
                    let chunk = 24 * 1024 / l;
                    let b = chunk * n;
                    let (_, dst_len) = extents(prim, b, n);
                    let (src, dst) = (4104, 4104 + b + 8);
                    let (dtype, op) = (WIDTHS[i + 1], ReduceKind::ALL[i + seed as usize % 4]);
                    let spec = BufferSpec::new(src, dst, b).with_dtype(dtype);
                    let storm = || {
                        let plan = FaultPlan::new(seed);
                        Arc::new(plan.with_bit_flip_period(flip).with_row_corrupt_period(row))
                    };
                    let mut engine = PimSystem::new(geom);
                    fill(&mut engine, src, b, seed ^ i as u64);
                    let mut reference = engine.clone();
                    for sys in [&mut engine, &mut reference] {
                        sys.attach_fault_plan(storm());
                        sys.set_verify_writes(true);
                    }
                    let what = format!("seed {seed} 1/{flip} {dims:?}/{mask_str} {prim}");

                    let got = comm
                        .plan(prim, &mask, &spec, op)
                        .unwrap()
                        .execute(&mut engine);
                    reference.fault_plan().unwrap().begin_epoch();
                    per_call_reference(&mut reference, &clusters, prim, &spec, op);
                    match (got, reference.take_corruption()) {
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
                        (got, want) => panic!("{what}: engine {got:?}, reference {want:?}"),
                    }
                    // Every register took the same fault: the images agree
                    // down to the flipped bits.
                    let end = dst + dst_len;
                    for pe in geom.pes() {
                        assert!(
                            engine.pe(pe).peek(0, end) == reference.pe(pe).peek(0, end),
                            "{what}: {pe} landed different bytes"
                        );
                    }
                }
            }
        }
    }
    assert!(
        detected >= 12 && clean >= 4,
        "storm density off: {detected} detected, {clean} clean"
    );
}

#[test]
fn baseline_pull_of_never_written_sources_reads_zeros_and_materializes_nothing() {
    let geom = geometry();
    let (dims, mask_str, _) = SHAPES[0];
    let mask: DimMask = mask_str.parse().unwrap();
    let n = geom.num_pes();
    let (src, dst, b) = (1 << 20, 4104, 8 * n);
    for prim in [
        Primitive::AlltoAll,
        Primitive::ReduceScatter,
        Primitive::AllReduce,
        Primitive::AllGather,
        Primitive::Reduce,
    ] {
        let mut sys = PimSystem::new(geom);
        let bytes = if prim == Primitive::AllGather { 8 } else { b };
        let (_, dst_len) = extents(prim, bytes, n);
        let comm = communicator(dims, geom, OptLevel::Baseline);
        let spec = BufferSpec::new(src, dst, bytes).with_dtype(DType::U32);
        // Min over nothing but zeros is zero, like every other operator's.
        let plan = comm.plan(prim, &mask, &spec, ReduceKind::Min).unwrap();
        let host = plan.run(&mut sys, None).unwrap();
        if prim == Primitive::Reduce {
            assert_eq!(host.host_out, Some(vec![vec![0u8; b]]));
        }
        for pe in geom.pes() {
            let pe = sys.pe(pe);
            assert_eq!(pe.peek(dst, dst_len), vec![0u8; dst_len], "{prim}");
            // An all-zero result lands no non-zero byte, so no page at all.
            assert_eq!(pe.mram_resident(), 0, "{prim}: nothing materialized");
            assert_eq!(pe.mram_used(), if dst_len > 0 { dst + dst_len } else { 0 });
            assert!(pe.try_slice(src, 8).is_none(), "{prim}");
        }
    }
}

#[test]
fn overlapping_regions_are_refused_at_every_level_and_abutting_ones_see_a_snapshot() {
    let geom = geometry();
    let (dims, mask_str, _) = SHAPES[0];
    let mask: DimMask = mask_str.parse().unwrap();
    let n = geom.num_pes();
    let b = 64 * n;
    for opt in LEVELS {
        let comm = communicator(dims, geom, opt);
        for prim in REDUCING[..2].iter().copied() {
            let (_, dst_len) = extents(prim, b, n);
            // One word into the source from either side.
            for dst in [4104 + b - 8, 4104 + 8 - dst_len] {
                let spec = BufferSpec::new(4104, dst, b);
                let err = comm.plan(prim, &mask, &spec, ReduceKind::Sum).err();
                assert!(
                    matches!(err, Some(Error::InvalidBuffer(_))),
                    "{opt:?} {prim} dst {dst}: {err:?}"
                );
            }
            // Abutting on either side, all in one segment: every push
            // lands after every read.
            for dst in [4104 + b, 4104 - dst_len] {
                let mut sys = PimSystem::new(geom);
                fill(&mut sys, 0, 4104 + 2 * b + 64, dst as u64);
                let cell = call(prim, &mask, BufferSpec::new(4104, dst, b), ReduceKind::Sum);
                let what = format!("{opt:?} {prim} abutting at {dst}");
                run_and_check(&communicator(dims, geom, opt), &mut sys, &cell, &what);
            }
        }
    }
}
