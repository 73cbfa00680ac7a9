//! Generated differential test of `Pe` against a flat reference: seeded
//! sequences of every MRAM operation run on two PEs and on two plain
//! `Vec<u8>` models, and after every operation the PEs' bytes and
//! `mram_used` must equal the models'. In the model a reset is a zero
//! fill, so the test holds the paged store's page runs — a reset puts
//! every page in a run of zeros, a mutable access copies in the source of
//! what it reaches, a whole-page landing owns it without a copy — to the
//! flat semantics.
//!
//! Offsets sit on, one byte either side of, and across page boundaries,
//! and on islands far apart that later accesses merge, so every operation
//! meets sparse islands and the segments they merge into alike; after a
//! reset every page reads as zeros, so unaligned accesses cut zero runs. A
//! shared landing (`Pe::write_shared`) leaves pages that read as an image
//! held outside the PE; every reader and mutator above then meets them,
//! and a later landing at the same place replaces the run.
//!
//! A part rotation keeps shared what can stay shared — a page whose every
//! touching part lies in one image run becomes a page of the image
//! rotated — so the rotations draw on one `Rotations` memo kept across the
//! whole sequence (as a phase-A pass keeps one across its PEs), and
//! landings reuse an image at new offsets, so one image meets the memo at
//! several part phases. A rotation by 0 must leave every page lending what
//! it lent. A piece read must lend, piece by piece, the model's bytes, and
//! each piece the very bytes `try_slice` lends for its range: the PE's
//! own, the image's, or none for zeros.
//!
//! A landing under a seeded fault storm — `Pe::write`, or one image
//! landed by `Pe::write_shared` as a row or as a run in a random order —
//! lands on both PEs, and the model is the copy with the plan's own
//! `write_fault` flips applied piece by piece; a failed PE lands nothing.
//! The first piece that lands other than meant must be the recorded
//! event. One image on both PEs means a flip landed in the shared image
//! instead of on a page of the PE's own reaches the other PE's bytes.
//!
//! The flat model cannot see residency; `paged_mram.rs` holds what the
//! paged store must materialize.
//!
//! `PIDCOMM_CHAOS_SEED` overrides the base seed.

use std::sync::Arc;

use pim_sim::fault::{FaultCtx, FaultPlan, WriteFault};
use pim_sim::pe::{Landing, Pe, Piece, Rotations, PAGE_BYTES};
use pim_sim::testgen::SplitMix64;

/// Pages the models span: room for islands several pages apart.
const PAGES: usize = 40;
const SPAN: usize = PAGES * PAGE_BYTES;
const OPS: usize = 400;

fn base_seed() -> u64 {
    std::env::var("PIDCOMM_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5EED)
}

/// One PE and its flat reference.
struct Twin {
    pe: Pe,
    model: Vec<u8>,
    used: usize,
    /// Where the last shared landing went, to land a new image over it
    /// or rotate its pages.
    shared: Option<(usize, usize)>,
}

/// What the operations of one sequence share besides the two PEs.
#[derive(Default)]
struct Kept {
    /// The memo every rotation of the sequence draws on.
    rotations: Rotations,
    /// The last image landed on either PE, to land again elsewhere.
    image: Option<Arc<[u8]>>,
}

impl Twin {
    fn new() -> Self {
        Twin {
            pe: Pe::new(),
            model: vec![0; SPAN],
            used: 0,
            shared: None,
        }
    }

    fn touch(&mut self, r: std::ops::Range<usize>) {
        self.used = self.used.max(r.end);
    }

    fn check(&self, what: &str) {
        assert_eq!(self.pe.mram_used(), self.used, "{what}: mram_used");
        same(what, 0, &self.pe.peek(0, SPAN), &self.model);
    }
}

/// Asserts that the bytes read at MRAM offset `at` are the model's,
/// naming the first that is not.
fn same(what: &str, at: usize, got: &[u8], want: &[u8]) {
    if got == want {
        return;
    }
    let i = (0..got.len())
        .find(|&i| got[i] != want[i])
        .unwrap_or(got.len());
    let byte = at + i;
    panic!(
        "{what}: byte {byte} (page {}, +{}) reads {:?}, model {:?}",
        byte / PAGE_BYTES,
        byte % PAGE_BYTES,
        got.get(i),
        want.get(i)
    );
}

/// A draw of offsets and lengths biased to the page structure.
struct Gen(SplitMix64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    fn len(&mut self) -> usize {
        match self.below(6) {
            0 => 1 + self.below(16),
            1 => PAGE_BYTES - 1 + self.below(3),
            2 => 2 * PAGE_BYTES + self.below(3) * PAGE_BYTES / 2,
            3 => 8 * (1 + self.below(64)),
            _ => 1 + self.below(4 * PAGE_BYTES),
        }
    }

    /// An offset at which `len` bytes fit in the models: on a page
    /// boundary, one byte either side of it, or anywhere; the page is one
    /// of three islands far apart or any page.
    fn offset(&mut self, len: usize) -> usize {
        let page = match self.below(4) {
            0 => 1,
            1 => 14,
            2 => 30,
            _ => self.below(PAGES),
        };
        let at = match self.below(4) {
            0 => page * PAGE_BYTES,
            1 => (page * PAGE_BYTES).saturating_sub(1),
            2 => page * PAGE_BYTES + 1,
            _ => page * PAGE_BYTES + self.below(PAGE_BYTES),
        };
        at.min(SPAN - len)
    }

    /// Two disjoint ranges of `len` bytes.
    fn disjoint(&mut self, len: usize) -> (usize, usize) {
        loop {
            let (a, b) = (self.offset(len), self.offset(len));
            if a + len <= b || b + len <= a {
                return (a, b);
            }
        }
    }

    /// A row of `len` bytes: dense, zero-tailed, or all zeros.
    fn row(&mut self, len: usize) -> Vec<u8> {
        let mut row = self.0.bytes(len);
        let live = match self.below(3) {
            0 => len,
            1 => self.below(len + 1),
            _ => 0,
        };
        row[live..].fill(0);
        row
    }

    /// A block size for the reorder kernels.
    fn pick_block(&mut self) -> usize {
        self.0.pick(&[1, 8, 24, 64, 520, PAGE_BYTES])
    }

    /// A fault plan that strikes often: bit-flip and row periods, and a
    /// failed PE one time in four.
    fn storm(&mut self) -> FaultPlan {
        let plan = FaultPlan::new(self.0.next_u64())
            .with_bit_flip_period(self.0.pick(&[2, 5, 40]))
            .with_row_corrupt_period(self.0.pick(&[3, 7, 60]));
        match self.below(8) {
            pe @ 0..2 => plan.with_failed_pe(pe as u32),
            _ => plan,
        }
    }

    fn perm(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Applies `fault` to `landed` as the checked landing does.
fn strike(landed: &mut [u8], fault: WriteFault) {
    match fault {
        WriteFault::BitFlip { bit } => landed[bit / 8] ^= 1 << (bit % 8),
        WriteFault::RowCorrupt { word, mask } => {
            for (b, m) in landed[word * 8..][..8].iter_mut().zip(mask.to_le_bytes()) {
                *b ^= m;
            }
        }
    }
}

/// The pointer each page of `[at, at + len)` lends through `try_slice`.
fn lent(pe: &Pe, at: usize, len: usize) -> Vec<Option<*const u8>> {
    (at / PAGE_BYTES..(at + len).div_ceil(PAGE_BYTES))
        .map(|p| pe.try_slice(p * PAGE_BYTES, PAGE_BYTES).map(<[u8]>::as_ptr))
        .collect()
}

/// Runs one random operation on `pes[0]` (reading `pes[1]` where it
/// takes a second PE) and the same operation on the models. Returns its
/// name.
fn step(g: &mut Gen, pes: &mut [Twin; 2], kept: &mut Kept) -> &'static str {
    let [t, other] = pes;
    match g.below(23) {
        0 | 1 => {
            let len = g.len();
            let at = g.offset(len);
            let row = g.row(len);
            t.pe.write(at, &row);
            t.model[at..at + len].copy_from_slice(&row);
            t.touch(at..at + len);
            "write"
        }
        2 => {
            // A window over a region, a few partial puts inside it.
            let len = g.len();
            let at = g.offset(len);
            let mut w = t.pe.write_window(at, len);
            for _ in 0..1 + g.below(3) {
                let n = 1 + g.below(len);
                let o = at + g.below(len - n + 1);
                let bytes = g.0.bytes(n);
                w.put(o, &bytes);
                t.model[o..o + n].copy_from_slice(&bytes);
            }
            t.touch(at..at + len);
            "write_window + put"
        }
        3 => {
            let chunk = 8;
            let pieces = 1 + g.below(2 * PAGE_BYTES / chunk);
            let len = pieces * chunk + g.below(2) * PAGE_BYTES;
            let at = g.offset(len);
            let run_at = at + g.below(len - pieces * chunk + 1);
            let bytes = g.0.bytes(pieces * chunk);
            let mut w = t.pe.write_window(at, len);
            for i in g.perm(pieces) {
                w.put(run_at + i * chunk, &bytes[i * chunk..][..chunk]);
            }
            t.model[run_at..run_at + bytes.len()].copy_from_slice(&bytes);
            t.touch(at..at + len);
            "write_window + put run"
        }
        4 => {
            let len = g.len();
            let (src, dst) = g.disjoint(len);
            let (read, mut write) = t.pe.window_pair(src..src + len, dst..dst + len);
            write.put(dst, &read);
            t.model.copy_within(src..src + len, dst);
            t.touch(src..src + len);
            t.touch(dst..dst + len);
            "window_pair"
        }
        5 => {
            let len = g.len();
            let at = g.offset(len);
            let n = 1 + g.below(len);
            let o = g.below(len - n + 1);
            let bytes = g.0.bytes(n);
            t.pe.slice_mut(at, len)[o..o + n].copy_from_slice(&bytes);
            t.model[at + o..at + o + n].copy_from_slice(&bytes);
            t.touch(at..at + len);
            "slice_mut"
        }
        6 => {
            let block = g.pick_block();
            let count = 1 + g.below(3 * PAGE_BYTES / block);
            let at = g.offset(block * count);
            let perm = g.perm(count);
            t.pe.permute_blocks(at, block, count, &perm);
            let old = t.model[at..at + block * count].to_vec();
            for (d, &s) in perm.iter().enumerate() {
                t.model[at + d * block..][..block].copy_from_slice(&old[s * block..][..block]);
            }
            t.touch(at..at + block * count);
            "permute_blocks"
        }
        7 | 18 | 19 => {
            // Two times in three from the first half of the last shared
            // landing, after a small write inside it (as a PE lowers its own
            // labels), in one part shape, so that one image meets the memo
            // at several part phases.
            let over = t.shared.filter(|_| g.below(3) > 0);
            let (block, part) = match over {
                Some(_) => (8, 3),
                None => (g.pick_block(), 1 + g.below(8)),
            };
            let parts = match over {
                Some(_) => 4 * PAGE_BYTES,
                None => 2 * PAGE_BYTES + block * part,
            } / (block * part);
            let count = part * (1 + g.below(parts));
            let rot = g.below(part);
            let len = block * count;
            let at = match over {
                Some((at, n)) => {
                    let n_edit = 1 + g.below(8);
                    let bytes = g.0.bytes(n_edit);
                    let edit = (at + g.below(n)).min(SPAN - bytes.len());
                    t.pe.write(edit, &bytes);
                    t.model[edit..edit + bytes.len()].copy_from_slice(&bytes);
                    t.touch(edit..edit + bytes.len());
                    (at.saturating_sub(g.below(64)) + g.below(n / 2 + 1)).min(SPAN - len)
                }
                None => g.offset(len),
            };
            let fresh = &mut Rotations::default();
            let rotations = if g.below(4) == 0 {
                fresh
            } else {
                &mut kept.rotations
            };
            t.pe.rotate_parts(at, block, part, count, rot, rotations);
            if rot == 0 {
                // Materialized now: a rotation by 0 owns and replaces
                // nothing.
                let before = lent(&t.pe, at, len);
                t.pe.rotate_parts(at, block, part, count, rot, rotations);
                assert_eq!(lent(&t.pe, at, len), before, "a rotation by 0 moved a page");
            }
            for p in t.model[at..at + len].chunks_exact_mut(part * block) {
                p.rotate_left(rot * block);
            }
            t.touch(at..at + len);
            "rotate_parts"
        }
        8 => {
            let (blocks, rows, row_bytes) = (1 + g.below(4), 1 + g.below(8), 1 + g.below(600));
            let len = blocks * rows * row_bytes;
            let (src, dst) = g.disjoint(len);
            t.pe.interleave_blocks(src, dst, blocks, rows, row_bytes);
            let old = t.model[src..src + len].to_vec();
            for r in 0..rows {
                for b in 0..blocks {
                    let from = b * rows * row_bytes + r * row_bytes;
                    let to = dst + r * blocks * row_bytes + b * row_bytes;
                    t.model[to..to + row_bytes].copy_from_slice(&old[from..from + row_bytes]);
                }
            }
            t.touch(src..src + len);
            t.touch(dst..dst + len);
            "interleave_blocks"
        }
        9 => {
            let len = g.len();
            let (src, dst) = g.disjoint(len);
            t.pe.copy_within_region(src, dst, len);
            t.model.copy_within(src..src + len, dst);
            t.touch(src..src + len);
            t.touch(dst..dst + len);
            "copy_within_region"
        }
        10 => {
            let len = g.len();
            let (src, dst) = (g.offset(len), g.offset(len));
            t.pe.copy_from(dst, &other.pe, src, len);
            t.model[dst..dst + len].copy_from_slice(&other.model[src..src + len]);
            t.touch(dst..dst + len);
            "copy_from"
        }
        11 => {
            let len = g.len();
            let at = g.offset(len);
            let want = &t.model[at..at + len];
            same("peek", at, &t.pe.peek(at, len), want);
            if let Some(s) = t.pe.try_slice(at, len) {
                same("try_slice", at, s, want);
            }
            same("read_window", at, &t.pe.read_window(at, len), want);
            "peek / try_slice / read_window"
        }
        12 | 13 => {
            let len = g.len();
            let at = g.offset(len);
            same("read", at, t.pe.read(at, len), &t.model[at..at + len]);
            t.touch(at..at + len);
            "read"
        }
        15 | 16 => {
            // A new image, as a row or as a run of 8-byte pieces; over the
            // last shared landing a third of the time, and a third of the
            // time the last image again, at a new offset.
            let (at, image) = match (g.below(3), &t.shared, &kept.image) {
                (0, Some((at, len)), _) => (*at, g.row(*len).into()),
                (1, _, Some(image)) => (g.offset(image.len()), Arc::clone(image)),
                _ => {
                    // Half of them a few pages longer, so that whole pages
                    // share the image.
                    let len = 8 * (g.len() + g.below(2) * 2 * PAGE_BYTES).div_ceil(8);
                    (g.offset(len), g.row(len).into())
                }
            };
            let len = image.len();
            kept.image = Some(Arc::clone(&image));
            let order = |j: usize| j;
            let landing = if g.below(2) == 0 {
                Landing::Row
            } else {
                Landing::Run {
                    chunk: 8,
                    order: &order,
                }
            };
            t.pe.write_shared(at, &image, landing);
            t.model[at..at + len].copy_from_slice(&image);
            t.touch(at..at + len);
            t.shared = Some((at, len));
            "write_shared"
        }
        17 => {
            // The pieces cover the range in order, each the model's bytes
            // and the very bytes `try_slice` lends for it.
            let len = g.len();
            let at = g.offset(len);
            let mut got = Vec::with_capacity(len);
            t.pe.pieces(at, len, |piece| {
                let o = at + got.len();
                let lends = t.pe.try_slice(o, piece.len()).map(<[u8]>::as_ptr);
                let shared = matches!(piece, Piece::Image { .. });
                let what = format!("{} B piece at {o} (an image's: {shared})", piece.len());
                assert_eq!(piece.bytes().map(<[u8]>::as_ptr), lends, "{what}");
                got.resize(got.len() + piece.len(), 0);
                let n = got.len();
                piece.copy_to(&mut got[n - piece.len()..]);
            });
            same("pieces", at, &got, &t.model[at..at + len]);
            "pieces"
        }
        20 => {
            // A phase-A pass over a replicated image: one image lands on
            // both PEs, and each rotates the parts of a region that starts
            // at a different part phase of it, with the kept memo.
            let len = 8 * (2 * PAGE_BYTES + g.below(3 * PAGE_BYTES)).div_ceil(8);
            let image: Arc<[u8]> = g.0.bytes(len).into();
            let (block, part, rot) = (8, 3, 1 + g.below(2));
            for twin in [&mut *t, &mut *other] {
                let at = g.offset(len);
                twin.pe.write_shared(at, &image, Landing::Row);
                twin.model[at..at + len].copy_from_slice(&image);
                let start = at + g.below(64);
                let count = part * ((at + len - start) / (block * part));
                twin.pe
                    .rotate_parts(start, block, part, count, rot, &mut kept.rotations);
                for p in twin.model[start..start + block * count].chunks_exact_mut(part * block) {
                    p.rotate_left(rot * block);
                }
                twin.touch(at..at + len);
                twin.shared = Some((at, len));
            }
            "replicated landing + rotate_parts"
        }
        21 => {
            // A landing under a seeded storm on both PEs — a row, a
            // replicated row or a replicated run in a random order — of
            // one image, so that a flip landed in the image would reach
            // the other PE.
            let plan = Arc::new(g.storm());
            plan.begin_epoch();
            let (kind, chunk) = (g.below(3), g.0.pick(&[8, 24, 520, PAGE_BYTES]));
            let len = match kind {
                2 => chunk * (1 + g.below(3 * PAGE_BYTES / chunk)),
                _ => g.len(),
            };
            let bytes = g.row(len);
            let image: Arc<[u8]> = bytes.clone().into();
            let order = g.perm(len / chunk);
            let order = |j: usize| order[j];
            for (id, twin) in [&mut *t, &mut *other].into_iter().enumerate() {
                let at = g.offset(len);
                let was = twin.model[at..at + len].to_vec();
                twin.pe
                    .set_fault_ctx(Some(FaultCtx::new(id as u32, Arc::clone(&plan))));
                twin.pe.set_verify(true);
                let pieces = match kind {
                    0 => {
                        twin.pe.write(at, &bytes);
                        vec![(0, len)]
                    }
                    1 => {
                        twin.pe.write_shared(at, &image, Landing::Row);
                        vec![(0, len)]
                    }
                    _ => {
                        let landing = Landing::Run {
                            chunk,
                            order: &order,
                        };
                        twin.pe.write_shared(at, &image, landing);
                        (0..len / chunk)
                            .map(|j| (order(j) * chunk, chunk))
                            .collect()
                    }
                };
                twin.pe.set_fault_ctx(None);
                twin.pe.set_verify(false);
                // The model: the copy with the plan's flips applied piece by
                // piece; a stuck PE lands nothing. The first piece that
                // lands other than meant is the recorded event.
                let stuck = plan.pe_stuck(id as u32);
                let mut first = None;
                for (o, n) in pieces {
                    let landed = &mut twin.model[at + o..at + o + n];
                    if !stuck {
                        landed.copy_from_slice(&bytes[o..o + n]);
                        if let Some(fault) = plan.write_fault(id as u32, at + o, n) {
                            strike(landed, fault);
                        }
                    }
                    if first.is_none() && *landed != bytes[o..o + n] {
                        first = Some((at + o, n));
                    }
                }
                let event = twin.pe.take_corruption().map(|e| (e.offset, e.len));
                assert_eq!(
                    event, first,
                    "{len} B at {at} (stuck: {stuck}), first event"
                );
                if stuck {
                    assert_eq!(
                        twin.model[at..at + len],
                        was[..],
                        "a stuck PE lands nothing"
                    );
                }
                twin.touch(at..at + len);
            }
            "faulted landing"
        }
        14 => {
            t.pe.reset();
            t.model.fill(0);
            t.used = 0;
            "reset"
        }
        _ => {
            // Swap the roles, so both PEs take every operation.
            std::mem::swap(t, other);
            "swap"
        }
    }
}

#[test]
fn pe_matches_a_flat_model_under_generated_operations() {
    let base = base_seed();
    for seed in base..base + 8 {
        let mut g = Gen(SplitMix64::new(seed));
        let mut pes = [Twin::new(), Twin::new()];
        let mut kept = Kept::default();
        for i in 0..OPS {
            let what = step(&mut g, &mut pes, &mut kept);
            for (p, t) in pes.iter().enumerate() {
                t.check(&format!("seed {seed} op {i} ({what}), PE {p}"));
            }
        }
    }
}

#[test]
fn a_stuck_landing_over_stale_pages_reads_zeros() {
    let base = base_seed();
    let mut g = Gen(SplitMix64::new(base));
    for _ in 0..64 {
        let len = g.len();
        let at = g.offset(len);
        // Old bytes over the region and around it, then a reset: every
        // page the landing reaches is in a run of zeros.
        let mut pe = Pe::new();
        pe.write(0, &vec![0xEE; SPAN]);
        pe.reset();
        let plan = Arc::new(FaultPlan::new(base).with_failed_pe(2));
        plan.begin_epoch();
        pe.set_fault_ctx(Some(FaultCtx::new(2, plan)));
        pe.set_verify(true);
        let row: Vec<u8> = g.0.bytes(len).iter().map(|b| b | 1).collect();
        if g.below(2) == 0 {
            pe.write(at, &row);
        } else {
            pe.write_window(at, len).put(at, &row);
        }
        same(
            &format!("{len} B at {at}"),
            0,
            &pe.peek(0, SPAN),
            &[0; SPAN],
        );
        assert_eq!(pe.mram_used(), at + len);
        let event = pe.take_corruption().expect("a dropped landing is detected");
        assert_eq!((event.offset, event.len), (at, len));
    }
}

#[test]
fn a_segment_grown_past_a_bitmap_word_keeps_its_marks() {
    // One page in a run of zeros, then a landing that grows its segment in
    // place to 66 pages, past the 64 pages one 64-bit word of page bits
    // would hold; its last page is cut, so it is freshened, not claimed.
    let mut pe = Pe::new();
    pe.write(0, &[0xEE; PAGE_BYTES]);
    pe.reset();
    let row = vec![0x5A; 64 * PAGE_BYTES + 8];
    pe.write(PAGE_BYTES, &row);
    assert_eq!(pe.mram_resident(), 66 * PAGE_BYTES, "one segment, grown");
    same("page 0", 0, &pe.peek(0, PAGE_BYTES), &[0; PAGE_BYTES]);
    same("the row", PAGE_BYTES, &pe.peek(PAGE_BYTES, row.len()), &row);
    let tail = 65 * PAGE_BYTES + 8;
    same(
        "its cut page",
        tail,
        &pe.peek(tail, PAGE_BYTES - 8),
        &[0; PAGE_BYTES - 8],
    );
    assert!(pe.try_slice(PAGE_BYTES, row.len()).is_some());
}

#[test]
fn a_merge_folds_shared_pages_as_their_image() {
    // A shared run on an island behind another segment, then a read that
    // spans both: from inside the first segment it grows that segment in
    // place, from before it it builds a fresh one; either way the island
    // folds in as the image's bytes.
    let image: Arc<[u8]> = (0..3 * PAGE_BYTES).map(|i| (i % 251) as u8 | 1).collect();
    let at = 8 * PAGE_BYTES + 8;
    for (first, from) in [(0, 0), (2 * PAGE_BYTES, PAGE_BYTES)] {
        let mut pe = Pe::new();
        let mut model = vec![0u8; SPAN];
        pe.write(first, &[0xEE; 8]);
        model[first..first + 8].fill(0xEE);
        pe.write_shared(at, &image, Landing::Row);
        model[at..at + image.len()].copy_from_slice(&image);
        let len = 12 * PAGE_BYTES - from;
        let what = format!("read from {from} over a segment at {first}");
        same(&what, from, pe.read(from, len), &model[from..from + len]);
        same(&what, 0, &pe.peek(0, SPAN), &model);
        assert_eq!(Arc::strong_count(&image), 1, "{what}: folded, not shared");
    }
}

#[test]
fn an_access_inside_a_shared_run_keeps_both_ends_shared() {
    // Four shared pages, then a write into the middle one of them: by a
    // mutable view of a few bytes (the page is copied) or by a row over
    // the whole page (the page is claimed). Either cuts the run in two,
    // and both ends must still read as the image.
    let image: Arc<[u8]> = (0..4 * PAGE_BYTES).map(|i| (i % 253) as u8 | 1).collect();
    let at = 2 * PAGE_BYTES;
    for (what, row) in [("a few bytes", 8), ("a whole page", PAGE_BYTES)] {
        let mut pe = Pe::new();
        let mut model = vec![0u8; SPAN];
        pe.write_shared(at, &image, Landing::Row);
        model[at..at + image.len()].copy_from_slice(&image);
        let mid = at + PAGE_BYTES;
        if row == PAGE_BYTES {
            pe.write(mid, &[0xEE; PAGE_BYTES]);
        } else {
            pe.slice_mut(mid + 100, row).fill(0xEE);
        }
        let mid = if row == PAGE_BYTES { mid } else { mid + 100 };
        model[mid..mid + row].fill(0xEE);
        same(what, 0, &pe.peek(0, SPAN), &model);
        assert!(Arc::strong_count(&image) > 1, "{what}: both ends shared");
    }
}
