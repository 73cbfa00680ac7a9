//! Phase A's part rotation held to `<[u8]>::rotate_left`: one kernel
//! rotates every part size, through the shorter side of each part and the
//! rotation scratch its `Rotations` memo keeps for a whole pass, so a
//! memo reused across rotations of any size must leave exactly the bytes
//! `rotate_left` leaves — on pages the PE owns and on pages that share a
//! rotated image alike.

use std::sync::Arc;

use pim_sim::pe::{Landing, Pe, Rotations, PAGE_BYTES};
use pim_sim::testgen::SplitMix64;

/// Small parts, parts on either side of 512 bytes, and the fig14 config's
/// 8 KiB parts.
const SPANS: [usize; 9] = [1, 3, 8, 64, 512, 513, 520, 1024, 8192];

/// Off the page grid, so the parts straddle page boundaries.
const AT: usize = 4104;

/// Rotates every `span`-byte part of `bytes` left by `cut` bytes.
fn rotate_left(bytes: &mut [u8], span: usize, cut: usize) {
    for part in bytes.chunks_exact_mut(span) {
        part.rotate_left(cut);
    }
}

/// Every cut of every span: below half a part (the left side is the
/// shorter), at half (of every even span) and above (the right side is).
#[test]
fn every_cut_of_every_span_rotates_as_rotate_left() {
    // One memo across every call: its scratch grows and shrinks in use as
    // the shorter side of a part does.
    let rotations = &mut Rotations::default();
    let mut g = SplitMix64::new(0x5107);
    let mut pe = Pe::new();
    for span in SPANS {
        let data = g.bytes(3 * span);
        for cut in 0..span {
            pe.write(AT, &data);
            pe.rotate_parts(AT, 1, span, data.len(), cut, rotations);
            let mut want = data.clone();
            rotate_left(&mut want, span, cut);
            assert_eq!(pe.peek(AT, data.len()), want, "span {span} cut {cut}");
        }
    }
}

/// Rotations whose shorter side is large, then small, then larger than
/// the first: `(span, cut)` with shorter sides 1000, 3 and 3192.
const SEQUENCE: [(usize, usize); 3] = [(2048, 1048), (520, 517), (8192, 5000)];

#[test]
fn one_memo_across_large_small_and_larger_rotations_on_owned_pages() {
    let rotations = &mut Rotations::default();
    let mut g = SplitMix64::new(0x0_47ed);
    let len = 16 * PAGE_BYTES;
    let mut pe = Pe::new();
    let mut want = g.bytes(len);
    pe.write(AT, &want);
    for (span, cut) in SEQUENCE {
        let whole = len / span * span;
        pe.rotate_parts(AT, 1, span, whole, cut, rotations);
        rotate_left(&mut want[..whole], span, cut);
        assert_eq!(pe.peek(AT, len), want, "span {span} cut {cut}");
    }
    assert_eq!(
        pe.peek(0, AT),
        vec![0; AT],
        "nothing leaks below the region"
    );
    assert_eq!(pe.peek(AT + len, 64), vec![0; 64], "nor above it");
}

#[test]
fn one_memo_across_large_small_and_larger_rotations_on_rotated_images() {
    let rotations = &mut Rotations::default();
    let mut g = SplitMix64::new(0x1_3a6e);
    let image: Arc<[u8]> = g.bytes(16 * PAGE_BYTES).into();
    let mut want = image.to_vec();
    let (mut a, mut b) = (Pe::new(), Pe::new());
    a.write_shared(0, &image, Landing::Row);
    b.write_shared(0, &image, Landing::Row);
    for (span, cut) in SEQUENCE {
        let whole = image.len() / span * span;
        a.rotate_parts(0, 1, span, whole, cut, rotations);
        b.rotate_parts(0, 1, span, whole, cut, rotations);
        rotate_left(&mut want[..whole], span, cut);
        for (pe, name) in [(&a, "a"), (&b, "b")] {
            assert_eq!(
                pe.peek(0, image.len()),
                want,
                "{name}: span {span} cut {cut}"
            );
        }
        // The rotation went through the memo's rotated image: both PEs
        // lend its bytes for the pages whose parts all lie in the run.
        let first = span.div_ceil(PAGE_BYTES) * PAGE_BYTES;
        let lent = |pe: &Pe| pe.try_slice(first, PAGE_BYTES).map(<[u8]>::as_ptr);
        assert!(
            lent(&a).is_some(),
            "span {span} cut {cut}: a page stayed shared"
        );
        assert_eq!(
            lent(&a),
            lent(&b),
            "span {span} cut {cut}: one rotated image"
        );
    }
}
