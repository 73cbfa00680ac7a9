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
//! never-written sources, to "materializes nothing"; its AlltoAll, which
//! transposes a batch of ranks at a time, to the oracle over several
//! batches.
//!
//! Sources that PEs share are held to the same sources copied: every
//! reducing primitive at both engines, over every operator and width,
//! runs once over sources landed as one replicated image plus a few
//! per-PE edits (how CC lands its label prototype) and once over the same
//! bytes written plainly, and the two systems must agree in every byte,
//! host output, extent and held page — at an element-unaligned offset, with
//! a tile boundary inside a page, over an earlier AllReduce's shared result
//! and over runs of zeros after a reset. What is shared must stay shared
//! where nothing touched it: lane-mates (the same rotation) lend the same
//! image bytes for every page far from an edit, a cut page or a tile
//! boundary. `PIDCOMM_CHAOS_SEED` salts the bytes.
//!
//! The Full AllGather shares its result the same way: every member's
//! destination pages are pieces of its group's one image, and a write to
//! one member leaves its lane-mates' bytes alone.

mod common;

use std::ops::Range;
use std::sync::Arc;

use common::{
    assert_sharing_survives, communicator, edit, extents, fill, land_replicas, per_call_reference,
    run_and_check, Call, CI_SEEDS,
};
use pidcomm::hypercube::build_clusters;
use pidcomm::{BufferSpec, DimMask, Error, OptLevel, Primitive};
use pim_sim::pe::{Pe, Piece, PAGE_BYTES};
use pim_sim::{DType, DimmGeometry, FaultPlan, PeId, PimSystem, ReduceKind};

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
        for prim in [Primitive::AlltoAll, REDUCING[0], REDUCING[1]] {
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
            // Abutting on either side, all in one segment: no landing
            // reaches a byte a read takes.
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

/// The Baseline AlltoAll transposes a batch of destination ranks at a
/// time and lands it before reading the next. Over a group whose `n * b`
/// spans three batches (the last one ragged), with the destination abutting
/// the source on either side in one segment, every member's row is still
/// the oracle's.
#[test]
fn a_baseline_alltoall_over_several_batches_at_abutting_regions_equals_the_oracle() {
    let geom = geometry();
    for (dims, mask_str, _) in &SHAPES[..2] {
        let mask: DimMask = mask_str.parse().unwrap();
        let (_, n) = lanes_of(dims, &mask);
        let b = ((5 << 19) / n).next_multiple_of(8 * n);
        assert!(n * b > 2 << 20, "{dims:?}/{mask_str}: {n} x {b} B");
        let src = 4104 + b;
        for dst in [src + b, src - b] {
            let mut sys = PimSystem::new(geom);
            fill(&mut sys, 0, src + 2 * b + 64, dst as u64);
            let cell = Call {
                prim: Primitive::AlltoAll,
                mask: &mask,
                spec: BufferSpec::new(src, dst, b),
                op: ReduceKind::Sum,
                host_in: &[],
            };
            let what = format!("{dims:?}/{mask_str} {b} B abutting at {dst}");
            let comm = communicator(dims, geom, OptLevel::Baseline);
            run_and_check(&comm, &mut sys, &cell, &what);
        }
    }
}

/// How a case of the shared-equals-copied suite lands its sources.
#[derive(Clone, Copy)]
enum Sources {
    /// One replicated image over the region, then per-PE edits.
    Replicated,
    /// An earlier AllReduce's result, then per-PE edits.
    AllReduced,
    /// A replicated image over the middle of the region after a reset,
    /// the rest in runs of zeros, then per-PE edits.
    OverZeros,
}

/// `(what, source offset, bytes per PE of an n-PE group, sources)`.
type Case = (&'static str, usize, fn(usize) -> usize, Sources);

const SHARED_CASES: [Case; 4] = [
    // 20482 cuts an element of every width above two bytes at each page
    // boundary inside the region.
    (
        "an unaligned offset",
        20482,
        |n| 1536 * n,
        Sources::Replicated,
    ),
    // About 80 KiB per PE: the engine's 64 KiB tile ends inside a page.
    (
        "a tile boundary inside a page",
        4104,
        |n| (80 * 1024 / n).next_multiple_of(8) * n,
        Sources::Replicated,
    ),
    (
        "an earlier AllReduce's result",
        20482,
        |n| 1536 * n,
        Sources::AllReduced,
    ),
    (
        "runs of zeros after a reset",
        8200,
        |n| 1536 * n,
        Sources::OverZeros,
    ),
];

fn chaos_seed() -> u64 {
    std::env::var("PIDCOMM_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(CI_SEEDS[0])
}

/// Lands a case's sources on `sys` — shared or written plainly, the same
/// bytes either way — and returns the MRAM ranges each PE owns by its own
/// write, where the sharing ends.
fn land_sources(
    sys: &mut PimSystem,
    comm: &pidcomm::Communicator,
    mask: &DimMask,
    (src, b, sources): (usize, usize, Sources),
    salt: u64,
    shared: bool,
) -> Vec<(Option<PeId>, Range<usize>)> {
    let image = |len| -> Arc<[u8]> {
        (0..len)
            .map(|i| pim_sim::testgen::fill_byte(salt, 0, i))
            .collect()
    };
    // Where every PE's landing cuts the page grid.
    let mut cuts = vec![(None, src..src + 1), (None, src + b - 1..src + b)];
    match sources {
        Sources::Replicated => land_replicas(sys, src, &image(b), shared),
        Sources::AllReduced => {
            let from = 1 << 20;
            fill(sys, from, b, salt);
            let spec = BufferSpec::new(from, src, b).with_dtype(DType::U32);
            let plan = comm
                .plan(Primitive::AllReduce, mask, &spec, ReduceKind::Max)
                .unwrap();
            plan.run(sys, None).unwrap();
            if !shared {
                for pe in sys.geometry().pes() {
                    let bytes = sys.pe(pe).peek(src, b);
                    sys.pe_mut(pe).write(src, &bytes);
                }
            }
        }
        Sources::OverZeros => {
            fill(sys, 0, src + 2 * b, salt ^ 1);
            sys.reset();
            let at = src + b / 4 + 3;
            land_replicas(sys, at, &image(b / 2), shared);
            cuts.extend([(None, at..at + 1), (None, at + b / 2 - 1..at + b / 2)]);
        }
    }
    let edits = edit(sys, src, b, salt);
    cuts.extend(edits.into_iter().map(|(pe, r)| (Some(pe), r)));
    cuts
}

/// Runs case `case` of [`SHARED_CASES`]: every reducing primitive on both
/// engines over every shape, on sources landed shared and written plainly,
/// which must end alike; prints the shared fraction.
fn shared_sources_equal_copied_ones_and_stay_shared(case: usize) {
    let geom = geometry();
    let seed = chaos_seed();
    let grid: Vec<(ReduceKind, DType)> = ReduceKind::ALL
        .into_iter()
        .flat_map(|op| WIDTHS.map(|dtype| (op, dtype)))
        .collect();
    let (what, src, bytes, sources) = SHARED_CASES[case];
    let (mut shared_pages, mut pages, mut cell_no) = (0, 0, 0);
    for (dims, mask_str, _) in SHAPES {
        let mask: DimMask = mask_str.parse().unwrap();
        let (_, n) = lanes_of(dims, &mask);
        let b = bytes(n);
        let dst = src + b + 12;
        for opt in [OptLevel::Baseline, OptLevel::Full] {
            let comm = communicator(dims, geom, opt);
            for (p, prim) in REDUCING.into_iter().enumerate() {
                let salt = seed ^ (case * 8 + p) as u64;
                let [shared, copied] = [true, false].map(|share| {
                    let mut sys = PimSystem::new(geom);
                    let cuts = land_sources(&mut sys, &comm, &mask, (src, b, sources), salt, share);
                    (sys, cuts)
                });
                // The unaligned offset and the AllReduce's result —
                // the source whose pages every member shares, where
                // skipping matters most — run every operator and
                // width; the others one pair per cell, in turn, to
                // stay quick in an unoptimized build.
                cell_no += 1;
                let pairs = match (case, sources) {
                    (0, _) | (_, Sources::AllReduced) => &grid[..],
                    _ => std::slice::from_ref(&grid[cell_no * 5 % grid.len()]),
                };
                for &(op, dtype) in pairs {
                    let cell = format!("{what}: {dims:?}/{mask_str} {opt:?} {prim} {op} {dtype}");
                    let spec = BufferSpec::new(src, dst, b).with_dtype(dtype);
                    let plan = comm.plan(prim, &mask, &spec, op).unwrap();
                    let [mut a, mut c] = [&shared.0, &copied.0].map(PimSystem::clone);
                    let out = plan.run(&mut a, None).unwrap().host_out;
                    assert!(
                        out == plan.run(&mut c, None).unwrap().host_out,
                        "{cell}: host output"
                    );
                    let (_, dst_len) = extents(prim, b, n);
                    for pe in geom.pes() {
                        let (a, c) = (a.pe(pe), c.pe(pe));
                        assert!(a.peek(src, b) == c.peek(src, b), "{cell}: {pe} source");
                        let dst_bytes = |pe: &Pe| pe.peek(dst, dst_len);
                        assert!(dst_bytes(a) == dst_bytes(c), "{cell}: {pe} destination");
                        let held = |pe: &Pe| (pe.mram_used(), pe.mram_resident());
                        assert_eq!(held(a), held(c), "{cell}: {pe} extent, residency");
                    }
                    let (s, all) =
                        assert_sharing_survives(&a, &comm, &mask, opt, (src, b), &shared.1, &cell);
                    shared_pages += s;
                    pages += all;
                }
            }
        }
    }
    println!(
        "{what}: {shared_pages} of {pages} whole source pages shared with a lane-mate ({:.0} %)",
        100.0 * shared_pages as f64 / pages as f64
    );
    assert!(shared_pages > 0, "{what}: nothing stayed shared");
}

#[test]
fn shared_sources_at_an_unaligned_offset() {
    shared_sources_equal_copied_ones_and_stay_shared(0);
}

#[test]
fn shared_sources_cut_by_a_tile_boundary_inside_a_page() {
    shared_sources_equal_copied_ones_and_stay_shared(1);
}

#[test]
fn shared_sources_from_an_earlier_allreduce() {
    shared_sources_equal_copied_ones_and_stay_shared(2);
}

#[test]
fn shared_sources_over_zeros_after_a_reset() {
    shared_sources_equal_copied_ones_and_stay_shared(3);
}

/// A clean Full AllGather lands its group's result once: every member's
/// destination pages are pieces of the group's one image (`Arc::ptr_eq`),
/// each at its own offset in the image, and no two groups share one —
/// apart from the two pages the destination cuts, which members own. A
/// write to one member's destination then leaves its lane-mates' bytes as
/// they were. Sources at 4104 bytes per member, so pieces straddle pages,
/// and a destination off the page grid. `PIDCOMM_CHAOS_SEED` salts the
/// bytes.
#[test]
fn shared_sources_gathered_by_a_full_allgather_land_one_image_per_group() {
    let geom = geometry();
    let seed = chaos_seed();
    let (src, dst, b) = (8, 3 * PAGE_BYTES + 8, 4104);
    for (shape, (dims, mask_str, _)) in SHAPES.into_iter().enumerate() {
        let mask: DimMask = mask_str.parse().unwrap();
        let comm = communicator(dims, geom, OptLevel::Full);
        let groups = comm.manager().groups(&mask).unwrap();
        let len = b * groups[0].members.len();
        let whole = dst.next_multiple_of(PAGE_BYTES)..(dst + len) / PAGE_BYTES * PAGE_BYTES;
        let what = format!("{dims:?}/{mask_str}");
        let mut sys = PimSystem::new(geom);
        fill(&mut sys, src, b, seed ^ shape as u64);
        let spec = BufferSpec::new(src, dst, b);
        let cell = call(Primitive::AllGather, &mask, spec, ReduceKind::Sum);
        run_and_check(&comm, &mut sys, &cell, &what);

        let mut images: Vec<Arc<[u8]>> = Vec::new();
        for g in &groups {
            let mut image: Option<Arc<[u8]>> = None;
            for &pe in &g.members {
                let (mut at, mut shared) = (dst, 0);
                sys.pe(pe).pieces(dst, len, |piece| {
                    match piece {
                        Piece::Image {
                            image: i,
                            at: from,
                            len,
                        } => {
                            assert_eq!(from, at - dst, "{what}: {pe} image offset");
                            let first = image.get_or_insert_with(|| Arc::clone(i));
                            assert!(Arc::ptr_eq(first, i), "{what}: {pe} another image");
                            shared += len;
                        }
                        other => {
                            let end = at + other.len();
                            let cut = end <= whole.start || at >= whole.end;
                            assert!(cut, "{what}: {pe} owns {at}..{end}");
                        }
                    }
                    at += piece.len();
                });
                assert_eq!(shared, whole.len(), "{what}: {pe} shared bytes");
            }
            let image = image.expect("a group shares its image");
            assert!(
                images.iter().all(|other| !Arc::ptr_eq(other, &image)),
                "{what}: group {} shares another group's image",
                g.id
            );
            images.push(image);

            // One member writes into the middle of its destination.
            let before: Vec<Vec<u8>> = g
                .members
                .iter()
                .map(|&pe| sys.pe(pe).peek(dst, len))
                .collect();
            let at = whole.start + 100;
            let edit = [0xa5u8; 16];
            sys.pe_mut(g.members[0]).write(at, &edit);
            for (k, (&pe, was)) in g.members.iter().zip(&before).enumerate() {
                let mut want = was.clone();
                if k == 0 {
                    want[at - dst..][..edit.len()].copy_from_slice(&edit);
                }
                assert!(
                    sys.pe(pe).peek(dst, len) == want,
                    "{what}: {pe} after the edit"
                );
            }
        }
    }
}
