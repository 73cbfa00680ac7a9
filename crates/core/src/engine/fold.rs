//! Folding member regions into an accumulator piece by piece — the
//! reduction step both reducing engines share: the Baseline engine's
//! reducing pull and the streaming engine's PE-major pass.
//!
//! A member's region is read as the pieces its PE lends ([`Pe::pieces`]):
//! its own bytes, zeros, or the bytes of an image it shares with other PEs
//! (an AllReduce's result, a replicated prototype, a phase-A rotation of
//! either). Folding is element-wise, so an element a piece boundary cuts —
//! an unaligned region meets the page grid inside its elements — is put
//! together from its pieces and folded whole.
//!
//! For an idempotent operator ([`ReduceKind::is_idempotent`]: `Min`,
//! `Max`, `And`, `Or`) folding the same bytes into the same accumulator
//! bytes twice equals folding them once, so an image piece whose bytes are
//! already folded there is skipped: a group whose members share a page
//! folds it once. The record is keyed by the image itself (held, compared
//! with `Arc::ptr_eq`, never by address) and by the image offset of
//! accumulator byte 0; it tracks which element-aligned accumulator ranges
//! each key has folded. `Sum` and `Xor` fold every byte.

use std::ops::Range;
use std::sync::Arc;

use pim_sim::dtype::{reducer, DType, ReduceFn, ReduceKind};
use pim_sim::pe::{Pe, Piece};

/// What a zero piece folds, a page at a time.
static ZEROS: [u8; 4096] = [0; 4096];

/// One accumulator's fold: the kernel and, for an idempotent operator,
/// what shared bytes it already holds.
pub(crate) struct Fold {
    kernel: ReduceFn,
    width: usize,
    idempotent: bool,
    /// Images folded into the accumulator since it last started over, one
    /// per key. Empty until an image piece is met, so a fold of owned
    /// bytes allocates nothing.
    seen: Vec<Seen>,
}

/// The accumulator ranges one image has folded.
struct Seen {
    image: Arc<[u8]>,
    /// Image offset of accumulator byte 0 (wrapping).
    base: usize,
    /// Element-aligned accumulator ranges, sorted, disjoint and apart.
    folded: Vec<Range<usize>>,
}

impl Fold {
    pub(crate) fn new(op: ReduceKind, dtype: DType) -> Self {
        Fold {
            kernel: reducer(op, dtype),
            width: dtype.size_bytes(),
            idempotent: op.is_idempotent(),
            seen: Vec::new(),
        }
    }

    /// Copies the `acc.len()` bytes of `pe` at `offset` into `acc`: the
    /// accumulator starts over from one member.
    pub(crate) fn copy(&mut self, acc: &mut [u8], pe: &Pe, offset: usize) {
        self.seen.clear();
        let w = self.width;
        let mut pos = 0;
        pe.pieces(offset, acc.len(), |piece| {
            let n = piece.len();
            piece.copy_to(&mut acc[pos..pos + n]);
            if let Some(seen) = self.seen(&piece, pos) {
                let body = pos.next_multiple_of(w)..(pos + n) / w * w;
                if body.start < body.end {
                    add(&mut seen.folded, body, |_| {});
                }
            }
            pos += n;
        });
    }

    /// Folds the `acc.len()` bytes of `pe` at `offset` into `acc`. A
    /// trailing partial element is left alone, as the kernel leaves it.
    pub(crate) fn fold(&mut self, acc: &mut [u8], pe: &Pe, offset: usize) {
        let (kernel, w) = (self.kernel, self.width);
        let mut pos = 0;
        // The leading bytes of an element the last piece boundary cut.
        let mut cut = [0u8; 8];
        pe.pieces(offset, acc.len(), |piece| {
            let n = piece.len();
            let end = pos + n;
            let head = pos..pos.next_multiple_of(w).min(end);
            let body = head.end..(end / w * w).max(head.end);
            let at = |r: &Range<usize>| r.start - pos..r.end - pos;
            if !head.is_empty() {
                let into = &mut cut[pos % w..pos % w + head.len()];
                match piece.bytes() {
                    Some(bytes) => into.copy_from_slice(&bytes[at(&head)]),
                    None => into.fill(0),
                }
                if head.end % w == 0 {
                    kernel(&mut acc[head.end - w..head.end], &cut[..w]);
                }
            }
            if !body.is_empty() {
                let fold = |r: Range<usize>, acc: &mut [u8]| match piece.bytes() {
                    Some(bytes) => kernel(&mut acc[r.clone()], &bytes[at(&r)]),
                    None => {
                        for c in acc[r].chunks_mut(ZEROS.len()) {
                            kernel(c, &ZEROS[..c.len()]);
                        }
                    }
                };
                match self.seen(&piece, pos) {
                    Some(seen) => add(&mut seen.folded, body.clone(), |gap| fold(gap, acc)),
                    None => fold(body.clone(), acc),
                }
            }
            if body.end < end {
                let tail = body.end..end;
                match piece.bytes() {
                    Some(bytes) => cut[..tail.len()].copy_from_slice(&bytes[at(&tail)]),
                    None => cut[..tail.len()].fill(0),
                }
            }
            pos = end;
        });
    }

    /// The record of `piece`'s image at accumulator position `pos`,
    /// created on first sight; `None` where nothing may be skipped: the
    /// piece is not an image's, or the operator is not idempotent.
    fn seen(&mut self, piece: &Piece<'_>, pos: usize) -> Option<&mut Seen> {
        let Piece::Image { image, at, .. } = *piece else {
            return None;
        };
        if !self.idempotent {
            return None;
        }
        let base = at.wrapping_sub(pos);
        let same = |seen: &Seen| seen.base == base && Arc::ptr_eq(&seen.image, image);
        let i = match self.seen.iter().position(same) {
            Some(i) => i,
            None => {
                self.seen.push(Seen {
                    image: Arc::clone(image),
                    base,
                    folded: Vec::new(),
                });
                self.seen.len() - 1
            }
        };
        Some(&mut self.seen[i])
    }
}

/// Adds range `r` to the sorted, disjoint ranges `folded`, calling `gap`
/// on each stretch of `r` it did not hold yet, in order.
fn add(folded: &mut Vec<Range<usize>>, r: Range<usize>, mut gap: impl FnMut(Range<usize>)) {
    let i = folded.partition_point(|f| f.end < r.start);
    let j = i + folded[i..].partition_point(|f| f.start <= r.end);
    let mut at = r.start;
    for f in &folded[i..j] {
        if at < f.start {
            gap(at..f.start);
        }
        at = at.max(f.end);
    }
    if at < r.end {
        gap(at..r.end);
    }
    let held = &folded[i..j];
    let merged = held.first().map_or(r.start, |f| f.start.min(r.start))
        ..held.last().map_or(r.end, |f| f.end.max(r.end));
    folded.splice(i..j, [merged]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_reports_each_new_stretch_once_and_merges() {
        let mut folded = Vec::new();
        let mut gaps = Vec::new();
        for r in [8..16, 32..40, 0..48, 40..56, 60..64] {
            add(&mut folded, r, |g| gaps.push(g));
        }
        assert_eq!(gaps, [8..16, 32..40, 0..8, 16..32, 40..48, 48..56, 60..64]);
        assert_eq!(folded, [0..56, 60..64]);
    }
}
