//! Property tests of the paged MRAM backing store: the segment layout
//! (which pages materialized, in how many runs) must never be observable
//! through the `Pe` API. Every test compares a *sparse* PE — islands of
//! pages created by scattered writes — against a *dense* twin whose whole
//! window was pre-materialized into one contiguous segment, replaying the
//! same operations on both.
//!
//! `mram_model.rs` checks every operation's bytes against a flat model;
//! this file holds what that model cannot see: which pages are held.
//!
//! Inputs come from the shared seeded generator, so failures reproduce
//! exactly.

use pim_sim::pe::{Pe, MRAM_CAPACITY, PAGE_BYTES};
use pim_sim::testgen::SplitMix64;

/// A window of several pages starting away from zero, so straddles hit
/// both page and segment boundaries.
const WINDOW: usize = 6 * PAGE_BYTES;
const BASE: usize = 3 * PAGE_BYTES;

/// Builds the sparse/dense twin pair: both hold the same `islands` bytes,
/// but the dense twin's window is one pre-merged segment.
fn twins(islands: &[(usize, Vec<u8>)]) -> (Pe, Pe) {
    let mut sparse = Pe::new();
    let mut dense = Pe::new();
    dense.slice_mut(BASE, WINDOW); // one segment covering the window
    for (offset, data) in islands {
        sparse.write(*offset, data);
        dense.write(*offset, data);
    }
    (sparse, dense)
}

fn random_islands(g: &mut SplitMix64, count: usize) -> Vec<(usize, Vec<u8>)> {
    (0..count)
        .map(|_| {
            let len = 1 + (g.next_u64() % 200) as usize;
            let offset = BASE + (g.next_u64() as usize) % (WINDOW - len);
            (offset, g.bytes(len))
        })
        .collect()
}

fn assert_windows_match(sparse: &Pe, dense: &Pe, what: &str) {
    assert_eq!(
        sparse.peek(BASE, WINDOW),
        dense.peek(BASE, WINDOW),
        "window diverges after {what}"
    );
}

#[test]
fn sparse_write_read_roundtrips() {
    let mut g = SplitMix64::new(0x9a6ed);
    for case in 0..32 {
        let islands = random_islands(&mut g, 8);
        let (mut sparse, dense) = twins(&islands);
        assert_windows_match(&sparse, &dense, "writes");
        // Every island region reads back identically through the growing
        // `read` path too (islands may overlap; the dense twin holds the
        // ground truth of last-writer-wins).
        for (offset, data) in &islands {
            let got = sparse.read(*offset, data.len()).to_vec();
            assert_eq!(got, dense.peek(*offset, data.len()), "case {case}");
        }
        // Far-away regions stay zero and unmaterialized.
        assert_eq!(sparse.peek(MRAM_CAPACITY - 64, 64), vec![0u8; 64]);
        assert!(
            sparse.mram_resident() <= dense.mram_resident(),
            "sparse twin must not materialize more than the dense one"
        );
    }
}

#[test]
fn page_straddling_copy_within_region_matches_dense() {
    let mut g = SplitMix64::new(0xc09a11);
    for _ in 0..32 {
        let islands = random_islands(&mut g, 6);
        let (mut sparse, mut dense) = twins(&islands);
        // A copy whose source and destination each straddle a page
        // boundary, placed so the regions cannot overlap.
        let len = PAGE_BYTES / 2 + 1 + (g.next_u64() % 64) as usize;
        let src = BASE + PAGE_BYTES - len / 2 + (g.next_u64() % 32) as usize;
        let dst = BASE + 4 * PAGE_BYTES - len / 2 + (g.next_u64() % 32) as usize;
        sparse.copy_within_region(src, dst, len);
        dense.copy_within_region(src, dst, len);
        assert_windows_match(&sparse, &dense, "copy_within_region");
    }
}

#[test]
fn page_straddling_permute_blocks_matches_dense() {
    let mut g = SplitMix64::new(0x3e97a);
    for _ in 0..24 {
        let islands = random_islands(&mut g, 6);
        let (mut sparse, mut dense) = twins(&islands);
        // Blocks sized so the permuted region crosses two page boundaries.
        let block = 1 << (7 + g.next_u64() % 4); // 128..1024
        let count = (2 * PAGE_BYTES / block) + 1 + (g.next_u64() % 4) as usize;
        let offset = BASE + PAGE_BYTES - block / 2;
        // Random permutation (Fisher-Yates).
        let mut perm: Vec<usize> = (0..count).collect();
        for i in (1..count).rev() {
            let j = (g.next_u64() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        sparse.permute_blocks(offset, block, count, &perm);
        dense.permute_blocks(offset, block, count, &perm);
        assert_windows_match(&sparse, &dense, "permute_blocks");

        // And the rotation fast path across the same layout.
        let rot = (g.next_u64() % count as u64) as usize;
        sparse.rotate_blocks(offset, block, count, rot);
        dense.rotate_blocks(offset, block, count, rot);
        assert_windows_match(&sparse, &dense, "rotate_blocks");
    }
}

#[test]
fn cross_pe_copies_match_dense() {
    let mut g = SplitMix64::new(0x11ad);
    for _ in 0..24 {
        let islands = random_islands(&mut g, 5);
        let (sparse, dense) = twins(&islands);
        let len = 1 + (g.next_u64() % (2 * PAGE_BYTES) as u64) as usize;
        let src = BASE + (g.next_u64() as usize) % (WINDOW - len);
        let dst = (g.next_u64() as usize) % (WINDOW - len);
        let mut to_sparse = Pe::new();
        let mut to_dense = Pe::new();
        to_sparse.copy_from(dst, &sparse, src, len);
        to_dense.copy_from(dst, &dense, src, len);
        assert_eq!(to_sparse.peek(dst, len), to_dense.peek(dst, len));
        assert_eq!(to_sparse.peek(dst, len), dense.peek(src, len));
    }
}

#[test]
fn growth_keeps_extent_and_residency_consistent() {
    // Dense forward streaming (the engine's common pattern) converges on
    // one segment; extent tracks the high-water mark exactly.
    let mut pe = Pe::new();
    let mut g = SplitMix64::new(0x90b1);
    let mut end = 0;
    while end < WINDOW {
        let chunk = 512 + (g.next_u64() % 4096) as usize;
        let data = g.bytes(chunk);
        pe.write(end, &data);
        end += chunk;
        assert_eq!(pe.mram_used(), end);
    }
    assert_eq!(pe.mram_resident(), end.next_multiple_of(PAGE_BYTES));
    assert!(pe.try_slice(0, end).is_some(), "one contiguous segment");
}

#[test]
fn a_far_region_stays_unmaterialized() {
    // Islands near the start of the bank; its last pages read as zeros
    // through every reader that does not grow, and stay unheld.
    let mut g = SplitMix64::new(0xfa7);
    let mut pe = Pe::new();
    for (offset, data) in random_islands(&mut g, 8) {
        pe.write(offset, &data);
    }
    let (far, len) = (MRAM_CAPACITY - 2 * PAGE_BYTES, 2 * PAGE_BYTES);
    assert_eq!(pe.peek(far, len), vec![0; len]);
    assert_eq!(&*pe.read_window(far, len), &vec![0; len][..]);
    let mut other = Pe::new();
    other.copy_from(0, &pe, far, len);
    assert_eq!(pe.mram_resident_in(far, len), 0);
    assert!(pe.mram_resident() <= WINDOW);
}
