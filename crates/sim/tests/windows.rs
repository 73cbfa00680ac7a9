//! The resolve-once window transport of `pim_sim::pe`: a window must be
//! indistinguishable from the per-call accessors it replaces — same bytes,
//! same extent, same materialized pages, same faults — and must reject
//! what they reject.

use std::sync::Arc;

use pim_sim::domain::IDENTITY_PERM;
use pim_sim::dtype::{reduce_bytes, reducer};
use pim_sim::geometry::{EgId, LANES};
use pim_sim::kernels;
use pim_sim::pe::{Landing, Pe, Rotations, MRAM_CAPACITY, PAGE_BYTES};
use pim_sim::testgen::SplitMix64;
use pim_sim::{CorruptionEvent, DType, DimmGeometry, FaultPlan, PimSystem, ReduceKind};

/// The seed bases CI's chaos smoke runs under.
const CI_SEEDS: [u64; 3] = [1, 77, 3_405_691_582];

#[test]
fn puts_through_one_window_equal_per_call_writes() {
    let mut g = SplitMix64::new(0x51de);
    // Page-straddling and off-grid bases, dense and sparse.
    for base in [0usize, 4104, 3 * PAGE_BYTES - 8, 10 * PAGE_BYTES + 24] {
        let len = 6 * 1024;
        let mut windowed = Pe::new();
        let mut per_call = Pe::new();
        windowed.write(64, &[9u8; 32]);
        per_call.write(64, &[9u8; 32]);
        let mut w = windowed.write_window(base, len);
        for _ in 0..200 {
            let n = 8 * (1 + g.next_u64() as usize % 16);
            let at = base + 8 * (g.next_u64() as usize % ((len - n) / 8 + 1));
            let chunk = g.bytes(n);
            w.put(at, &chunk);
            per_call.write(at, &chunk);
        }
        // A window materializes its whole region when it is resolved; a
        // one-row landing only the pages its non-zero bytes reach. Resolve
        // the same region on the per-call side to align them.
        let _ = per_call.write_window(base, len);
        assert_eq!(windowed.mram_used(), per_call.mram_used(), "base {base}");
        assert_eq!(
            windowed.mram_resident(),
            per_call.mram_resident(),
            "base {base}"
        );
        let end = windowed.mram_used();
        assert_eq!(windowed.peek(0, end), per_call.peek(0, end), "base {base}");
    }
}

#[test]
fn source_window_never_materializes() {
    // Never written: zeros, and still nothing resident behind the source.
    let mut pe = Pe::new();
    let (src, mut dst) = pe.window_pair(1 << 20..(1 << 20) + 4096, 0..64);
    assert!(src.iter().all(|&b| b == 0));
    dst.put(8, &src[..16]);
    assert_eq!(pe.mram_resident(), PAGE_BYTES, "only the destination page");
    assert_eq!(
        pe.mram_used(),
        (1 << 20) + 4096,
        "both regions count as used"
    );
    assert!(pe.try_slice(1 << 20, 8).is_none());

    // Partly written: a zero-extended snapshot, pages untouched.
    let mut pe = Pe::new();
    pe.write(PAGE_BYTES - 16, &[7u8; 16]);
    pe.write(3 * PAGE_BYTES, &[5u8; 8]);
    let resident = pe.mram_resident();
    let src = pe.read_window(PAGE_BYTES - 16, 2 * PAGE_BYTES + 24);
    assert_eq!(&src[..16], &[7u8; 16]);
    assert!(src[16..2 * PAGE_BYTES + 16].iter().all(|&b| b == 0));
    assert_eq!(&src[2 * PAGE_BYTES + 16..], &[5u8; 8]);
    assert_eq!(pe.mram_resident(), resident);
}

#[test]
fn distant_windows_leave_the_gap_unmaterialized() {
    let mut pe = Pe::new();
    pe.write(0, &[3u8; 256]);
    let far = 40 * 1024 * 1024;
    let (src, mut dst) = pe.window_pair(0..256, far..far + 256);
    dst.put(far + 8, &src[..64]);
    assert_eq!(pe.mram_resident(), 2 * PAGE_BYTES);
    assert_eq!(pe.peek(far + 8, 64), vec![3u8; 64]);
    assert_eq!(pe.peek(far, 8), vec![0u8; 8]);
}

#[test]
fn abutting_windows_split_one_segment_either_way_round() {
    for (src_at, dst_at) in [(4104usize, 4104 + 512), (4104 + 512, 4104)] {
        let mut pe = Pe::new();
        let data: Vec<u8> = (0..512).map(|i| (i * 7 + 1) as u8).collect();
        // One segment holds both regions before they are resolved.
        pe.write(4096, &vec![0xEE; 2048]);
        pe.write(src_at, &data);
        let (src, mut dst) = pe.window_pair(src_at..src_at + 512, dst_at..dst_at + 512);
        assert_eq!(&src[..], &data[..]);
        for (i, word) in src.chunks_exact(8).enumerate().rev() {
            dst.put(dst_at + 8 * i, word);
        }
        assert_eq!(pe.peek(dst_at, 512), data, "{src_at} -> {dst_at}");
        assert_eq!(pe.peek(src_at, 512), data, "source intact");
        assert_eq!(pe.peek(4096, 8), vec![0xEE; 8], "neighbours intact");
        assert_eq!(pe.mram_resident(), PAGE_BYTES);
    }
}

#[test]
#[should_panic(expected = "overlap")]
fn overlapping_windows_rejected() {
    let mut pe = Pe::new();
    let _ = pe.window_pair(0..64, 56..120);
}

#[test]
#[should_panic(expected = "exceeds 64 MiB")]
fn window_past_capacity_rejected() {
    let mut pe = Pe::new();
    let _ = pe.write_window(MRAM_CAPACITY - 8, 16);
}

#[test]
#[should_panic(expected = "exceeds 64 MiB")]
fn source_window_past_capacity_rejected() {
    let mut pe = Pe::new();
    let _ = pe.window_pair(MRAM_CAPACITY - 8..MRAM_CAPACITY + 8, 0..8);
}

#[test]
#[should_panic]
fn put_past_the_window_rejected() {
    let mut pe = Pe::new();
    pe.write(0, &[1u8; 256]);
    pe.write_window(64, 64).put(120, &[0u8; 16]);
}

#[test]
#[should_panic]
fn put_before_the_window_rejected() {
    let mut pe = Pe::new();
    pe.write(0, &[1u8; 256]);
    pe.write_window(64, 64).put(56, &[0u8; 8]);
}

/// One epoch of chunk landings on a PE under `plan` with verification on,
/// either through one window or through per-call writes; returns the
/// recorded event.
fn land_epoch(
    pe: &mut Pe,
    chunks: &[(usize, Vec<u8>)],
    windowed: bool,
    region: (usize, usize),
) -> Option<CorruptionEvent> {
    if windowed {
        let mut w = pe.write_window(region.0, region.1);
        for (at, bytes) in chunks {
            w.put(*at, bytes);
        }
    } else {
        for (at, bytes) in chunks {
            pe.write(*at, bytes);
        }
    }
    pe.take_corruption()
}

#[test]
fn checked_lane_faults_equal_per_call_writes_for_ci_seeds() {
    let mut g = SplitMix64::new(0xfa17);
    for seed in CI_SEEDS {
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_bit_flip_period(5)
                .with_row_corrupt_period(7),
        );
        let mut sys = PimSystem::new(DimmGeometry::single_rank());
        sys.attach_fault_plan(plan.clone());
        sys.set_verify_writes(true);
        let mut twin = sys.clone();
        let (base, len) = (4104usize, 2048usize);
        let mut events = 0;
        for epoch in 1..=40u64 {
            assert_eq!(plan.begin_epoch(), epoch);
            for (pe, other) in sys.pes_mut().iter_mut().zip(twin.pes_mut()).step_by(9) {
                // One chunk per epoch and PE, so every landing's event is
                // observed, not only a PE's first.
                let n = [8usize, 16, 24, 1024][g.next_u64() as usize % 4];
                let at = base + 8 * (g.next_u64() as usize % ((len - n) / 8 + 1));
                let chunks = [(at, g.bytes(n))];
                let a = land_epoch(pe, &chunks, true, (base, len));
                let b = land_epoch(other, &chunks, false, (base, len));
                assert_eq!(a, b, "seed {seed} epoch {epoch}");
                if let Some(ev) = a {
                    assert_eq!((ev.offset, ev.len, ev.epoch), (at, n, epoch));
                    events += 1;
                }
                assert_eq!(pe.peek(base, len), other.peek(base, len));
            }
        }
        assert!(
            events > 20,
            "seed {seed}: periods too sparse ({events} events)"
        );
    }
}

#[test]
fn first_event_per_pe_survives_a_whole_window_of_landings() {
    for seed in CI_SEEDS {
        let plan = Arc::new(FaultPlan::new(seed).with_bit_flip_period(3));
        let mut sys = PimSystem::new(DimmGeometry::single_group());
        sys.attach_fault_plan(plan.clone());
        sys.set_verify_writes(true);
        let mut twin = sys.clone();
        plan.begin_epoch();
        let chunks: Vec<(usize, Vec<u8>)> = (0..64).map(|i| (8 * i, vec![i as u8; 8])).collect();
        for (pe, other) in sys.pes_mut().iter_mut().zip(twin.pes_mut()) {
            let a = land_epoch(pe, &chunks, true, (0, 512));
            let b = land_epoch(other, &chunks, false, (0, 512));
            assert!(a.is_some(), "period 3 over 64 landings must fire");
            assert_eq!(a, b, "seed {seed}");
        }
    }
}

/// The register order of an AllReduce landing on lane rank `rank`: parts in
/// order, every part from slot `rank` downwards, wrapping.
fn descending_from(rank: usize, l: usize, parts: usize) -> impl Iterator<Item = usize> {
    (0..parts).flat_map(move |p| (0..l).map(move |k| p * l + (rank + l - k) % l))
}

/// A faulted `Landing::Run` draws its pieces one by one, in the order it
/// names, as the `put` loop it stands for lands them: the same pieces are
/// struck, and the same piece is a PE's first event.
#[test]
fn a_faulted_run_landing_strikes_piece_by_piece_in_the_order_given() {
    let (l, parts, chunk) = (4usize, 6usize, 16usize);
    let image: Arc<[u8]> = (0..l * parts * chunk).map(|i| (i * 7 + 1) as u8).collect();
    let mut order_mattered = 0;
    for seed in CI_SEEDS {
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_bit_flip_period(3)
                .with_row_corrupt_period(5),
        );
        let mut sys = PimSystem::new(DimmGeometry::single_group());
        sys.attach_fault_plan(plan.clone());
        sys.set_verify_writes(true);
        let mut twin = sys.clone();
        plan.begin_epoch();
        for (lane, (pe, other)) in sys.pes_mut().iter_mut().zip(twin.pes_mut()).enumerate() {
            let base = 4104 + 8 * lane;
            let rank = lane % l;
            let order = |j: usize| j / l * l + (rank + l - j % l) % l;
            let landing = Landing::Run {
                chunk,
                order: &order,
            };
            pe.write_shared(base, &image, landing);
            let mut w = other.write_window(base, image.len());
            for i in descending_from(rank, l, parts) {
                w.put(base + i * chunk, &image[i * chunk..][..chunk]);
            }
            // Same (pe, offset, len) per piece: the same faults strike …
            let span = base + image.len() + PAGE_BYTES;
            assert_eq!(pe.peek(0, span), other.peek(0, span), "seed {seed}");
            assert_ne!(
                pe.peek(base, image.len()),
                *image,
                "period 3 over 24 pieces must fire"
            );
            // … and the same sequence: the same piece is the PE's first.
            let first = pe.take_corruption();
            assert_eq!(first, other.take_corruption(), "seed {seed} lane {lane}");
            let first = first.expect("verification is on");
            assert_eq!(first.len, chunk);
            let ascending = {
                let mut w = other.write_window(base, image.len());
                for i in 0..l * parts {
                    w.put(base + i * chunk, &image[i * chunk..][..chunk]);
                }
                other.take_corruption().expect("the same pieces are struck")
            };
            order_mattered += usize::from(ascending.offset != first.offset);
        }
    }
    assert!(order_mattered > 0, "every first event was the lowest piece");
}

/// Lands `image` at `base` on `shared` through [`Pe::write_shared`] and on
/// `copy` as the copy it stands for — the register run's `put` loop, or
/// the one-row `put`, through a window over the region — and checks the
/// two PEs agree in bytes, extent and first recorded event, and that the
/// shared landing holds no more than the copy.
fn shared_equals_copy(shared: &mut Pe, copy: &mut Pe, base: usize, image: &Arc<[u8]>, run: bool) {
    let (l, chunk, rank) = (4, 512, 1);
    let order = |j: usize| j / l * l + (rank + l - j % l) % l;
    let mut w = copy.write_window(base, image.len());
    if run {
        let landing = Landing::Run {
            chunk,
            order: &order,
        };
        shared.write_shared(base, image, landing);
        for i in descending_from(rank, l, image.len() / (l * chunk)) {
            w.put(base + i * chunk, &image[i * chunk..][..chunk]);
        }
    } else {
        shared.write_shared(base, image, Landing::Row);
        w.put(base, image);
    }
    let what = if run { "run" } else { "row" };
    let span = base + image.len() + PAGE_BYTES;
    assert_eq!(shared.peek(0, span), copy.peek(0, span), "{what}");
    assert_eq!(shared.mram_used(), copy.mram_used(), "{what}");
    assert!(shared.mram_resident() <= copy.mram_resident(), "{what}");
    assert_eq!(shared.take_corruption(), copy.take_corruption(), "{what}");
}

/// A replicated image: three pages of bytes and a zero tail, so a landing
/// off the page grid covers two pages whole and cuts two.
fn replica() -> Arc<[u8]> {
    (0..4 * PAGE_BYTES)
        .map(|i| {
            if i < 3 * PAGE_BYTES {
                (i * 7 + 1) as u8
            } else {
                0
            }
        })
        .collect()
}

/// Under a fault plan a shared landing is still the copy it stands for in
/// bytes, extent and first event, and it holds no more than the copy:
/// every page it covers whole that no struck piece touches lends the
/// image, and every page a struck piece touches is the PE's own.
#[test]
fn a_shared_landing_under_a_fault_plan_is_the_copy_it_stands_for() {
    let image = replica();
    let (mut struck, mut shared) = (0, 0);
    for seed in CI_SEEDS {
        for verify in [false, true] {
            for run in [false, true] {
                let mut sys = PimSystem::new(DimmGeometry::single_group());
                for pe in sys.pes_mut() {
                    pe.write(PAGE_BYTES, &[0xEE; 2 * PAGE_BYTES]);
                    pe.reset();
                }
                let plan = Arc::new(
                    FaultPlan::new(seed)
                        .with_bit_flip_period(3)
                        .with_row_corrupt_period(5),
                );
                sys.attach_fault_plan(plan.clone());
                sys.set_verify_writes(verify);
                let mut twin = sys.clone();
                plan.begin_epoch();
                for (lane, (pe, other)) in sys.pes_mut().iter_mut().zip(twin.pes_mut()).enumerate()
                {
                    let base = PAGE_BYTES + 8 + 8 * lane;
                    shared_equals_copy(pe, other, base, &image, run);
                    let chunk = if run { 512 } else { image.len() };
                    let hit: Vec<_> = (base..base + image.len())
                        .step_by(chunk)
                        .filter(|&at| plan.write_fault(lane as u32, at, chunk).is_some())
                        .map(|at| at / PAGE_BYTES..(at + chunk).div_ceil(PAGE_BYTES))
                        .collect();
                    struck += hit.len();
                    // A row shares what its non-zero prefix covers whole.
                    let end = base + if run { image.len() } else { 3 * PAGE_BYTES };
                    for p in base.div_ceil(PAGE_BYTES)..end / PAGE_BYTES {
                        let lent = pe.try_slice(p * PAGE_BYTES, PAGE_BYTES).map(<[u8]>::as_ptr);
                        let from_image = lent == Some(image[p * PAGE_BYTES - base..].as_ptr());
                        let touched = hit.iter().any(|pages| pages.contains(&p));
                        assert_eq!(from_image, !touched, "seed {seed} lane {lane} page {p}");
                        shared += usize::from(from_image);
                    }
                }
            }
        }
    }
    assert!(struck > 0, "the periods never struck a landing");
    assert!(shared > 0, "no unstruck page shares the image");
}

#[test]
fn verification_alone_shares_and_records_nothing() {
    let image = replica();
    for run in [false, true] {
        for base in [PAGE_BYTES + 8, 2 * PAGE_BYTES] {
            let [mut shared, mut copy] = [(); 2].map(|()| {
                let mut pe = Pe::new();
                pe.write(0, &[0xEE; 6 * PAGE_BYTES]);
                pe.reset();
                pe.set_verify(true);
                pe
            });
            shared_equals_copy(&mut shared, &mut copy, base, &image, run);
            assert_eq!(Arc::strong_count(&image), 2, "one PE shares the image");
            // The pages the landing covers whole are borrowed from it.
            let page = base.next_multiple_of(PAGE_BYTES);
            let lent = shared
                .try_slice(page, PAGE_BYTES)
                .expect("a shared page lends");
            assert_eq!(lent.as_ptr(), image[page - base..].as_ptr());
        }
    }
}

/// With no fault plan attached, verification changes nothing: `put` loops,
/// a `Landing::Run` (its order never asked for) and `Pe::write` of a row
/// with a zero tail land the same bytes, hold the same pages and reach the
/// same extent on a verified PE as on a direct one, and record nothing.
#[test]
fn verification_alone_is_the_direct_lane() {
    let data: Vec<u8> = (0..PAGE_BYTES + 64).map(|i| (i * 7 + 1) as u8).collect();
    let mut row = data.clone();
    row.resize(3 * PAGE_BYTES, 0);
    let image: Arc<[u8]> = data.clone().into();
    let never = |_: usize| -> usize { panic!("no piece is walked") };
    for base in [40, PAGE_BYTES, 3 * PAGE_BYTES - 8] {
        let [mut direct, mut verified] = [(); 2].map(|()| {
            let mut pe = Pe::new();
            pe.write(0, &[0xEE; 2 * PAGE_BYTES]);
            pe
        });
        verified.set_verify(true);
        for pe in [&mut direct, &mut verified] {
            let mut w = pe.write_window(base, data.len());
            for (i, piece) in data.chunks_exact(8).enumerate() {
                w.put(base + 8 * i, piece);
            }
            let landing = Landing::Run {
                chunk: 8,
                order: &never,
            };
            pe.write_shared(base + 8 * PAGE_BYTES, &image, landing);
            pe.write(base + 16 * PAGE_BYTES, &row);
        }
        let end = direct.mram_used();
        assert_eq!(verified.mram_used(), end, "base {base}");
        assert_eq!(
            verified.mram_resident(),
            direct.mram_resident(),
            "base {base}"
        );
        assert_eq!(verified.peek(0, end), direct.peek(0, end), "base {base}");
        assert_eq!(verified.peek(base, data.len()), data);
        assert!(verified.take_corruption().is_none(), "base {base}");
    }
}

#[test]
fn run_without_faults_is_silent_under_verification_and_dropped_on_a_stuck_pe() {
    let image: Arc<[u8]> = [5u8; 64].into();
    let rev = |j: usize| 7 - j;
    let landing = Landing::Run {
        chunk: 8,
        order: &rev,
    };
    let mut verified = Pe::new();
    verified.set_verify(true);
    verified.write_shared(0, &image, landing);
    assert_eq!(verified.peek(0, 64), *image);
    assert!(verified.take_corruption().is_none());

    // A stuck PE drops the run piece by piece, in its order, and shares
    // nothing: the first dropped piece is its event.
    let mut sys = PimSystem::new(DimmGeometry::single_group());
    sys.pe_mut(pim_sim::PeId(2)).write(0, &[7u8; 64]);
    sys.attach_fault_plan(Arc::new(FaultPlan::new(0).with_failed_pe(2)));
    sys.set_verify_writes(true);
    let pe = &mut sys.pes_mut()[2];
    let holders = Arc::strong_count(&image);
    pe.write_shared(0, &image, landing);
    assert_eq!(pe.peek(0, 64), vec![7u8; 64], "stale data survives");
    assert_eq!(
        pe.take_corruption().map(|e| (e.offset, e.len)),
        Some((56, 8))
    );
    assert_eq!(
        Arc::strong_count(&image),
        holders,
        "a stuck PE shares nothing"
    );
}

#[test]
#[should_panic(expected = "pieces tile the image")]
fn a_run_whose_chunk_does_not_divide_the_image_is_rejected_on_the_direct_lane() {
    let identity = |j: usize| j;
    let landing = Landing::Run {
        chunk: 24,
        order: &identity,
    };
    Pe::new().write_shared(0, &Arc::from([1u8; 64]), landing);
}

#[test]
#[should_panic(expected = "pieces tile the image")]
fn a_run_of_zero_byte_pieces_is_rejected() {
    let identity = |j: usize| j;
    let landing = Landing::Run {
        chunk: 0,
        order: &identity,
    };
    Pe::new().write_shared(0, &Arc::from([0u8; 0]), landing);
}

#[test]
#[should_panic]
fn hooked_run_rejects_a_piece_outside_the_run() {
    // Pieces are walked only where a plan can single one out.
    let mut pe = Pe::new();
    pe.set_fault_ctx(Some(pim_sim::fault::FaultCtx::new(
        0,
        Arc::new(FaultPlan::new(0)),
    )));
    let skip = |j: usize| [0, 1, 2, 4][j];
    let landing = Landing::Run {
        chunk: 8,
        order: &skip,
    };
    pe.write_shared(0, &Arc::from([0u8; 32]), landing);
}

#[test]
fn verified_window_without_faults_is_byte_identical_and_silent() {
    let mut plain = Pe::new();
    let mut verified = Pe::new();
    verified.set_verify(true);
    let data: Vec<u8> = (0..=255).collect();
    for pe in [&mut plain, &mut verified] {
        let mut w = pe.write_window(4104, 256);
        for (i, c) in data.chunks_exact(8).enumerate() {
            w.put(4104 + 8 * i, c);
        }
    }
    assert_eq!(plain.peek(4104, 256), verified.peek(4104, 256));
    assert_eq!(plain.mram_used(), verified.mram_used());
    assert!(verified.take_corruption().is_none());
}

#[test]
fn stuck_pe_window_drops_every_landing() {
    let mut sys = PimSystem::new(DimmGeometry::single_group());
    sys.pe_mut(pim_sim::PeId(2)).write(0, &[7u8; 64]);
    sys.attach_fault_plan(Arc::new(FaultPlan::new(0).with_failed_pe(2)));
    let pe = &mut sys.pes_mut()[2];
    let mut w = pe.write_window(0, 64);
    w.put(0, &[9u8; 32]);
    w.put(32, &[9u8; 32]);
    assert_eq!(pe.peek(0, 64), vec![7u8; 64], "stale data survives");
}

#[test]
fn rotate_parts_is_permute_blocks_with_the_rotation_table() {
    // Small parts (stack path), large parts (slice rotation), every
    // rotation, page-straddling base.
    for (block, part, parts) in [(8usize, 8usize, 5usize), (1, 3, 4), (24, 4, 3), (128, 8, 2)] {
        let count = part * parts;
        let data: Vec<u8> = (0..block * count).map(|i| (i * 13 + 5) as u8).collect();
        for rot in 0..part {
            let mut a = Pe::new();
            let mut b = Pe::new();
            a.write(4104, &data);
            b.write(4104, &data);
            a.rotate_parts(4104, block, part, count, rot, &mut Rotations::default());
            let perm: Vec<usize> = (0..count)
                .map(|j| (j % part + rot) % part + (j / part) * part)
                .collect();
            b.permute_blocks(4104, block, count, &perm);
            assert_eq!(
                a.peek(4104, data.len()),
                b.peek(4104, data.len()),
                "block {block} part {part} rot {rot}"
            );
            assert_eq!(a.mram_used(), b.mram_used());
        }
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn rotate_parts_rejects_a_rotation_as_long_as_the_part() {
    Pe::new().rotate_parts(0, 8, 4, 8, 4, &mut Rotations::default());
}

#[test]
#[should_panic(expected = "tile")]
fn rotate_parts_rejects_parts_that_do_not_tile() {
    Pe::new().rotate_parts(0, 8, 3, 8, 1, &mut Rotations::default());
}

/// The sequence `Pe::interleave_blocks` replaced in the GNN: borrow the
/// column blocks, scatter their rows into host scratch, re-land the block
/// in place through the transport, copy it to its destination.
fn interleave_by_relanding(
    pe: &mut Pe,
    src: usize,
    dst: usize,
    (blocks, rows, row_bytes): (usize, usize, usize),
) {
    let block = rows * row_bytes;
    let mut full = vec![0u8; blocks * block];
    {
        let bytes = pe.read(src, blocks * block);
        for b in 0..blocks {
            let cols = &bytes[b * block..(b + 1) * block];
            let pitch = blocks * row_bytes;
            kernels::copy_rows(
                &mut full,
                b * row_bytes,
                pitch,
                cols,
                0,
                row_bytes,
                row_bytes,
                rows,
            );
        }
    }
    pe.write(src, &full);
    pe.copy_within_region(src, dst, full.len());
}

#[test]
fn interleave_blocks_equals_the_relanding_sequence_it_replaced() {
    let mut g = SplitMix64::new(0x17e4);
    // The fig15 shape (32 blocks of 64 lane-word rows), narrow and ragged
    // rows, a single block; bases abutting, page-straddling and far apart,
    // destination below and above the source.
    for shape in [
        (32usize, 64usize, 8usize),
        (8, 16, 2),
        (4, 5, 3),
        (1, 7, 16),
        (3, 1, 1),
    ] {
        let len = shape.0 * shape.1 * shape.2;
        for (src, dst) in [
            (len, 0),
            (4104, 4104 + len),
            (3 * PAGE_BYTES - 8, 40 * PAGE_BYTES + 24),
            (0, 17 * PAGE_BYTES - 4),
        ] {
            let data = g.bytes(len);
            let mut one_pass = Pe::new();
            let mut relanded = Pe::new();
            one_pass.write(src, &data);
            relanded.write(src, &data);
            one_pass.interleave_blocks(src, dst, shape.0, shape.1, shape.2);
            interleave_by_relanding(&mut relanded, src, dst, shape);
            let what = format!("{shape:?} {src} -> {dst}");
            assert_eq!(one_pass.peek(dst, len), relanded.peek(dst, len), "{what}");
            assert_eq!(one_pass.peek(src, len), data, "{what}: source untouched");
            assert_eq!(one_pass.mram_used(), relanded.mram_used(), "{what}");
            assert_eq!(one_pass.mram_resident(), relanded.mram_resident(), "{what}");
        }
    }
}

#[test]
fn interleave_of_a_never_written_source_lands_zeros_without_materializing_it() {
    let (src, dst, shape) = (
        9 * PAGE_BYTES,
        2 * PAGE_BYTES - 100,
        (4usize, 8usize, 8usize),
    );
    let mut one_pass = Pe::new();
    let mut relanded = Pe::new();
    one_pass.write(dst, &[0xAB; 256]);
    relanded.write(dst, &[0xAB; 256]);
    one_pass.interleave_blocks(src, dst, shape.0, shape.1, shape.2);
    interleave_by_relanding(&mut relanded, src, dst, shape);
    assert_eq!(one_pass.peek(dst, 256), vec![0u8; 256]);
    assert_eq!(one_pass.mram_used(), relanded.mram_used());
    // The old sequence materialized the source by reading it.
    assert_eq!(one_pass.mram_resident(), 2 * PAGE_BYTES, "destination only");
    assert_eq!(relanded.mram_resident(), 3 * PAGE_BYTES);
}

#[test]
#[should_panic(expected = "overlap")]
fn interleave_rejects_overlapping_regions() {
    Pe::new().interleave_blocks(0, 64, 4, 4, 8);
}

#[test]
fn interleave_is_pe_local_compute_outside_the_fault_scope() {
    // Periods of one: every *transport* landing would be struck.
    for seed in CI_SEEDS {
        let plan = FaultPlan::new(seed)
            .with_bit_flip_period(1)
            .with_row_corrupt_period(1);
        let mut sys = PimSystem::new(DimmGeometry::single_group());
        let data: Vec<u8> = (0..=255).collect();
        for pe in sys.pes_mut() {
            pe.write(4104, &data);
        }
        let mut clean = sys.clone();
        sys.attach_fault_plan(Arc::new(plan));
        sys.set_verify_writes(true);
        sys.fault_plan().expect("attached").begin_epoch();
        for (pe, twin) in sys.pes_mut().iter_mut().zip(clean.pes_mut()) {
            pe.interleave_blocks(4104, 0, 4, 8, 8);
            twin.interleave_blocks(4104, 0, 4, 8, 8);
            assert_eq!(pe.peek(0, 256), twin.peek(0, 256), "seed {seed}");
            assert!(pe.take_corruption().is_none(), "seed {seed}");
        }
    }
}

#[test]
fn view_windows_index_by_slot_and_lane_and_match_copy_rows() {
    let geom = DimmGeometry::single_rank();
    let mut sys = PimSystem::new(geom);
    for pe in geom.pes() {
        let data: Vec<u8> = (0..64).map(|i| (pe.0 as usize * 3 + i) as u8).collect();
        sys.pe_mut(pe).write(128, &data);
    }
    let mut per_call = sys.clone();
    let parts = vec![vec![EgId(5), EgId(1)]];
    let perm = [1, 2, 3, 0, 4, 6, 5, 7];

    // Row transfer slot 0 -> slot 1 and slot 1 -> slot 1 (lanes 4 and 7
    // send to themselves), chunk by chunk through the windows...
    {
        let mut views = sys.split_eg_views(&parts);
        let (srcs, mut dsts) = views[0].windows(128..192, 512..648);
        assert_eq!((srcs.len(), dsts.len()), (2 * LANES, 2 * LANES));
        for from in 0..2 {
            for d in 0..LANES {
                for (w, word) in srcs[from * LANES + perm[d]].chunks_exact(8).enumerate() {
                    dsts[LANES + d].put(512 + 64 * from + 8 * w, word);
                }
            }
        }
    }
    // ...and row by row through the per-call method.
    {
        let mut views = per_call.split_eg_views(&parts);
        for from in 0..2 {
            views[0].copy_rows(from, 128, 1, &[512 + 64 * from; LANES], 64, &perm);
        }
        // The windows cover every PE of the view and count as used.
        for slot in 0..2 {
            views[0].write_rows(slot, 640, 8, &[0u8; 8 * LANES], &IDENTITY_PERM);
        }
    }
    for pe in geom.pes() {
        assert_eq!(
            sys.pe(pe).mram_used(),
            per_call.pe(pe).mram_used(),
            "{pe} used"
        );
        assert_eq!(
            sys.pe(pe).peek(0, 648),
            per_call.pe(pe).peek(0, 648),
            "{pe}"
        );
    }
}

#[test]
fn hoisted_reducer_is_reduce_bytes() {
    let mut g = SplitMix64::new(0x7ed);
    for op in ReduceKind::ALL {
        for dt in DType::ALL {
            for len in [8usize, 24, 64, 200] {
                let src = g.bytes(len);
                let mut a = g.bytes(len);
                let mut b = a.clone();
                reducer(op, dt)(&mut a, &src);
                reduce_bytes(op, dt, &mut b, &src);
                assert_eq!(a, b, "{op} {dt} x{len}");
            }
        }
    }
}
