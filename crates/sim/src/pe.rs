//! Per-PE state: MRAM, WRAM bookkeeping and local reorder kernels.
//!
//! Each bank of a PIM-enabled DIMM has a processing element (UPMEM: DPU)
//! with direct access to its 64 MB bank (MRAM) through a small scratchpad
//! (WRAM). PEs cannot see each other's banks — all inter-PE traffic goes
//! through the host — but they *can* rearrange their own data, which is what
//! the paper's *PE-assisted reordering* exploits (§V-A1).
//!
//! All inter-PE traffic lands through one of two routes: a [`WriteWindow`]
//! that a streaming loop resolves once and [`WriteWindow::put`]s chunks
//! through, or the one landing body behind [`Pe::write`] (a row) and
//! [`Pe::write_shared`] (a replicated image). Both are the fault layer's
//! ([`crate::fault`]): an installed [`crate::fault::FaultCtx`] lets a
//! seeded plan corrupt or drop landing writes, and under a plan write
//! verification compares each landing with the bytes it was meant to land
//! (a landing that differs is named by its intended and landed FNV
//! digests). A window decides its hooks once, when it is resolved; the
//! landing body lands directly and then draws its pieces, and a struck
//! piece lands again through a window over it alone. With no plan
//! attached, verified or not, both are a plain copy.
//!
//! Resolving — a capacity check, an extent update, a binary search over
//! the segment store, page materialization on first touch — is what a
//! streaming collective cannot afford per 8-byte chunk, so the engine
//! resolves once per PE ([`Pe::window_pair`]: a [`ReadWindow`] over the source
//! region, a [`WriteWindow`] over the disjoint destination region) and
//! streams every chunk between the resolved slices.
//!
//! Residency follows the data, not the extent: a window materializes its
//! whole destination when it is resolved, while a one-row landing
//! ([`Pe::write`]) materializes only the pages its non-zero bytes reach —
//! a scatter of rows padded to a uniform size keeps the padding out of
//! memory. Never-materialized MRAM reads as zeros, so the two are
//! indistinguishable to every reader; only [`Pe::mram_resident`] tells.
//!
//! One rule keeps bytes from being copied that need not be: a
//! materialized page is the segment's own unless a run covers it, and then
//! it reads as the run's source — zeros (a reset, a zero tail) or a page
//! of an image replicated to many PEs ([`Pe::write_shared`]: an
//! AllReduce's reduced vector, an app's prototype, one `Arc` per PE), or of
//! that image rotated: phase A's part rotation ([`Pe::rotate_parts`])
//! turns a page whose every touching part lies in one image run into a
//! page of the image rotated, built once per pass ([`Rotations`]), so PEs
//! that shared an image before the rotation share its rotation after it.
//! A fault plan strikes pages, not landings: a faulted replicated landing
//! shares as a clean one does, and only a struck piece's pages are owned.
//!
//! Readers that fold many PEs' regions take them as [`Pe::pieces`]: the
//! PE's own bytes, zeros, or image bytes together with the image, so a
//! fold can tell bytes that many PEs share from bytes of their own.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use crate::fault::{self, CorruptionEvent, FaultCtx, WriteFault};
use crate::geometry::LANE_BYTES;

/// WRAM scratchpad size of an UPMEM DPU in bytes.
pub const WRAM_BYTES: usize = 64 * 1024;

/// MRAM capacity of an UPMEM DPU in bytes. The simulator allocates lazily,
/// but refuses accesses beyond this bound.
pub const MRAM_CAPACITY: usize = 64 * 1024 * 1024;

/// Allocation granule of the paged MRAM backing store: the rounding unit
/// of zero-on-first-touch materialization and of page runs. Power of
/// two, [`MRAM_CAPACITY`] is a multiple of it, and it is deliberately
/// small — segments are
/// variable-length *runs* of pages, so a dense span still materializes as
/// one contiguous segment no matter the page size, while a small granule
/// keeps sparse islands (DLRM embedding shards, small ReduceScatter
/// outputs) from zero-filling memory they never touch.
pub const PAGE_BYTES: usize = 4 * 1024;

/// One contiguous, page-aligned run of materialized MRAM.
///
/// Segments are whole pages, non-overlapping and sorted by `start`. An
/// access that spans several segments (or the gaps between them) merges
/// everything it touches into one segment, so dense streaming converges on
/// a single extent while sparse access patterns keep small isolated
/// islands.
///
/// A page is owned — its bytes are `data`'s — unless one of `runs` covers
/// it; then it reads as the run's source, and its bytes in `data` mean
/// nothing. Readers see a run's pages without touching them; a mutable
/// access first owns the pages it reaches, copying each run's source in,
/// and a landing that overwrites a whole page owns it without a copy.
#[derive(Debug, Clone)]
struct Segment {
    start: usize,
    data: Vec<u8>,
    /// The pages that are not owned: sorted by page, disjoint, and grown
    /// one at a time — a segment holds one or two, and spare capacity on
    /// every PE is memory.
    runs: Vec<Run>,
}

/// A run of a segment's pages that read as their source, not as `data`.
#[derive(Debug, Clone)]
struct Run {
    /// Indices of the pages in the segment.
    pages: Range<usize>,
    /// The image the pages read as consecutive bytes of, with the image
    /// offset of the run's first byte; `None` reads as zeros.
    image: Option<(Arc<[u8]>, usize)>,
}

impl Run {
    /// The image bytes of segment-relative byte range `r`, which must lie
    /// in the run's image — past the run's pages is allowed: a phase-A
    /// rotation lands a part that reaches an owned page beside a kept run
    /// from the kept run's rotated image, which the part lies in whole.
    /// `None` for a run of zeros.
    fn bytes(&self, r: Range<usize>) -> Option<&[u8]> {
        let (image, at) = self.image.as_ref()?;
        Some(&image[at + r.start - self.pages.start * PAGE_BYTES..][..r.len()])
    }

    /// Copies the source of segment-relative byte range `r` into `dst`.
    fn copy(&self, r: Range<usize>, dst: &mut [u8]) {
        match self.bytes(r) {
            Some(bytes) => dst.copy_from_slice(bytes),
            None => dst.fill(0),
        }
    }
}

impl Segment {
    fn end(&self) -> usize {
        self.start + self.data.len()
    }

    /// The bytes of MRAM range `r`, which the segment must cover.
    fn span(&self, r: Range<usize>) -> &[u8] {
        &self.data[r.start - self.start..r.end - self.start]
    }

    fn span_mut(&mut self, r: Range<usize>) -> &mut [u8] {
        &mut self.data[r.start - self.start..r.end - self.start]
    }

    /// Indices of the pages MRAM range `r` reaches.
    fn pages(&self, r: Range<usize>) -> Range<usize> {
        if r.is_empty() {
            return 0..0;
        }
        (r.start - self.start) / PAGE_BYTES..(r.end - self.start).div_ceil(PAGE_BYTES)
    }

    /// Splits MRAM range `r` into the pages it covers whole and its bytes
    /// on the (at most two) pages it cuts.
    fn split(&self, r: Range<usize>) -> (Range<usize>, [Range<usize>; 2]) {
        let first = (r.start - self.start).div_ceil(PAGE_BYTES);
        let last = ((r.end - self.start) / PAGE_BYTES).max(first);
        let lo = self.start + first * PAGE_BYTES;
        let hi = self.start + last * PAGE_BYTES;
        (
            first..last,
            [r.start..lo.min(r.end), hi.max(r.start)..r.end],
        )
    }

    /// Makes every page read as zeros: one run of zeros over them all.
    /// Kept out of line: inlined, it grows [`Pe::reset`]'s loop enough to
    /// double the cost of resetting a PE that holds no segment.
    #[inline(never)]
    fn reset(&mut self) {
        let pages = 0..self.data.len() / PAGE_BYTES;
        self.runs.clear();
        self.runs.reserve_exact(1);
        self.runs.push(Run { pages, image: None });
    }

    /// Indices of the runs over any of `pages`.
    #[inline]
    fn reached(&self, pages: &Range<usize>) -> Range<usize> {
        let i = self
            .runs
            .partition_point(|run| run.pages.end <= pages.start);
        i..i + self.runs[i..].partition_point(|run| run.pages.start < pages.end)
    }

    /// Makes `pages` owned without touching their bytes: drops the runs
    /// inside them and keeps what lies outside them of a run they cut.
    /// Returns the index a run over `pages` would take.
    fn own(&mut self, pages: Range<usize>) -> usize {
        let reached = self.reached(&pages);
        if reached.is_empty() || pages.is_empty() {
            return reached.start;
        }
        let last = &self.runs[reached.end - 1];
        let tail = (pages.end < last.pages.end).then(|| {
            let skip = (pages.end - last.pages.start) * PAGE_BYTES;
            let image = last.image.clone().map(|(image, at)| (image, at + skip));
            Run {
                pages: pages.end..last.pages.end,
                image,
            }
        });
        let head = &mut self.runs[reached.start];
        let at = reached.start + usize::from(head.pages.start < pages.start);
        if head.pages.start < pages.start {
            head.pages.end = pages.start;
        }
        self.runs.drain(at..reached.end);
        if let Some(tail) = tail {
            self.runs.reserve_exact(1);
            self.runs.insert(at, tail);
        }
        at
    }

    /// Makes the pages MRAM range `r` reaches owned, copying each run's
    /// source in: what a mutable access does before it hands out bytes.
    #[inline]
    fn freshen(&mut self, r: Range<usize>) {
        let pages = self.pages(r);
        let reached = self.reached(&pages);
        if reached.is_empty() {
            return;
        }
        for run in &self.runs[reached] {
            let p = run.pages.start.max(pages.start)..run.pages.end.min(pages.end);
            let b = p.start * PAGE_BYTES..p.end * PAGE_BYTES;
            run.copy(b.clone(), &mut self.data[b]);
        }
        self.own(pages);
    }

    /// Makes the pages MRAM range `r` covers whole owned without touching
    /// them, for a landing that overwrites all of `r`. The pages it cuts
    /// keep their state, for the landing to freshen.
    #[inline]
    fn claim(&mut self, r: Range<usize>) {
        self.own(self.split(r).0);
    }

    /// Makes MRAM range `r` read as `image`, whose first byte lands at
    /// `r.start`, or as zeros for `None`: the pages inside `r` become one
    /// run of it, whatever they were; its bytes on a page it cuts are
    /// written.
    fn land(&mut self, r: Range<usize>, image: Option<&Arc<[u8]>>) {
        let (inner, cuts) = self.split(r.clone());
        for cut in cuts.into_iter().filter(|cut| !cut.is_empty()) {
            self.freshen(cut.clone());
            let from = cut.start - r.start..cut.end - r.start;
            match image {
                Some(image) => self.span_mut(cut).copy_from_slice(&image[from]),
                None => self.span_mut(cut).fill(0),
            }
        }
        if inner.is_empty() {
            return;
        }
        let at = self.start + inner.start * PAGE_BYTES - r.start;
        let image = image.map(|image| (Arc::clone(image), at));
        self.share(Run {
            pages: inner,
            image,
        });
    }

    /// Makes `run`'s pages read as its source, whatever they were.
    fn share(&mut self, run: Run) {
        let i = self.own(run.pages.clone());
        self.runs.reserve_exact(1);
        self.runs.insert(i, run);
    }

    /// Lends MRAM range `r` to `f` in order, as the owned stretches
    /// between the runs it reaches and each run's source over its pages.
    fn pieces<'s>(&'s self, r: Range<usize>, f: &mut impl FnMut(Piece<'s>)) {
        let mut at = r.start;
        for run in &self.runs[self.reached(&self.pages(r.clone()))] {
            let lo = (self.start + run.pages.start * PAGE_BYTES).max(r.start);
            let hi = (self.start + run.pages.end * PAGE_BYTES).min(r.end);
            if at < lo {
                f(Piece::Owned(self.span(at..lo)));
            }
            f(match &run.image {
                Some((image, off)) => Piece::Image {
                    image,
                    at: off + lo - self.start - run.pages.start * PAGE_BYTES,
                    len: hi - lo,
                },
                None => Piece::Zeros(hi - lo),
            });
            at = hi;
        }
        if at < r.end {
            f(Piece::Owned(self.span(at..r.end)));
        }
    }

    /// Copies MRAM range `r` into `dst`, each run's pages as its source.
    fn copy_out(&self, r: Range<usize>, dst: &mut [u8]) {
        let mut at = 0;
        self.pieces(r, &mut |piece| {
            piece.copy_to(&mut dst[at..at + piece.len()]);
            at += piece.len();
        });
    }

    /// Rotates every `span`-byte part of MRAM range `r` (whole parts,
    /// inside the segment) left by `cut` bytes, keeping shared what can
    /// stay shared: a page whose every touching part lies inside one image
    /// run becomes a page of the image rotated, which `rotations` builds
    /// once, and every other page is owned and rotated in place. A part
    /// that lies in an image run and reaches an owned page lands its bytes
    /// there from the rotated image.
    fn rotate(&mut self, r: Range<usize>, span: usize, cut: usize, rotations: &mut Rotations) {
        let pages = self.pages(r.clone());
        let reached = self.reached(&pages);
        let rel = r.start - self.start..r.end - self.start;
        // Right to left, so that a run is read before the pages around it
        // are owned and the indices of the runs still to visit hold.
        let mut right: Option<Run> = None;
        let mut hi = pages.end;
        for j in reached.rev() {
            let Some(kept) = self.kept(j, rel.clone(), span, cut, rotations) else {
                continue;
            };
            self.rotate_owned(
                kept.pages.end..hi,
                rel.clone(),
                span,
                cut,
                [Some(&kept), right.as_ref()],
            );
            hi = kept.pages.start;
            if let Some(run) = right.replace(kept) {
                self.share(run);
            }
        }
        self.rotate_owned(pages.start..hi, rel, span, cut, [None, right.as_ref()]);
        if let Some(run) = right {
            self.share(run);
        }
    }

    /// The pages of run `j` that a rotation of the parts of segment range
    /// `rel` keeps shared — those whose every touching part lies inside
    /// the run — as a run of its image rotated; `None` if there are none
    /// or the run reads as zeros.
    fn kept(
        &self,
        j: usize,
        rel: Range<usize>,
        span: usize,
        cut: usize,
        rotations: &mut Rotations,
    ) -> Option<Run> {
        let run = &self.runs[j];
        let (image, at) = run.image.as_ref()?;
        let (lo, hi) = (run.pages.start * PAGE_BYTES, run.pages.end * PAGE_BYTES);
        // The first part that starts in the run and the end of the last
        // part that ends in it.
        let from = rel.start.max(lo);
        let from = from + (span - (from - rel.start) % span) % span;
        let to = rel.end.min(hi);
        let to = to - (to - rel.start) % span;
        let pages = from.div_ceil(PAGE_BYTES)..to / PAGE_BYTES;
        if pages.is_empty() {
            return None;
        }
        let rotated = rotations.get(image, (at + from - lo) % span, span, cut);
        let at = at + pages.start * PAGE_BYTES - lo;
        Some(Run {
            pages,
            image: Some((rotated, at)),
        })
    }

    /// Owns `pages` and rotates the parts of segment range `rel` on them:
    /// in place where a part lies on them whole, and from the rotated
    /// image of the kept run beside them (`beside`: left, right) where a
    /// part reaches past them.
    fn rotate_owned(
        &mut self,
        pages: Range<usize>,
        rel: Range<usize>,
        span: usize,
        cut: usize,
        beside: [Option<&Run>; 2],
    ) {
        let u = (pages.start * PAGE_BYTES).max(rel.start);
        let v = (pages.end * PAGE_BYTES).min(rel.end);
        if u >= v {
            return;
        }
        self.freshen(self.start + u..self.start + v);
        let first = rel.start + (u - rel.start).div_ceil(span) * span;
        let last = rel.start + (v - rel.start) / span * span;
        let mut from_kept = |side: usize, b: Range<usize>| {
            if b.is_empty() {
                return;
            }
            let kept = beside[side].expect("a part reaching past owned pages lies in a kept run");
            kept.copy(b.clone(), &mut self.data[b]);
        };
        if first > last {
            // One part holds all of them and reaches past them on the left.
            from_kept(0, u..v);
            return;
        }
        from_kept(0, u..first);
        from_kept(1, last..v);
        rotate_parts_in(&mut self.data[first..last], span, cut);
    }

    /// Borrows MRAM range `r`: the segment's own bytes when no run reaches
    /// it, the image's when `r` lies inside one image run, `None`
    /// otherwise.
    #[inline]
    fn borrow(&self, r: Range<usize>) -> Option<&[u8]> {
        let pages = self.pages(r.clone());
        let rel = r.start - self.start..r.end - self.start;
        match &self.runs[self.reached(&pages)] {
            [] => Some(&self.data[rel]),
            [run] if run.pages.start <= pages.start && pages.end <= run.pages.end => run.bytes(rel),
            _ => None,
        }
    }

    /// Borrows MRAM range `src` (which [`Segment::borrow`] must lend) and
    /// the disjoint range `dst` mutably.
    #[inline]
    fn borrow_pair(&mut self, src: Range<usize>, dst: Range<usize>) -> (&[u8], &mut [u8]) {
        let s = src.start - self.start..src.end - self.start;
        let d = dst.start - self.start..dst.end - self.start;
        if let Some(run) = self.runs[self.reached(&self.pages(src))].first() {
            let read = run.bytes(s).expect("a source the segment lends");
            return (read, &mut self.data[d]);
        }
        if s.end <= d.start {
            let (lo, hi) = self.data.split_at_mut(d.start);
            (&lo[s], &mut hi[..d.len()])
        } else {
            let (lo, hi) = self.data.split_at_mut(s.start);
            (&hi[..s.len()], &mut lo[d])
        }
    }
}

/// One processing element and its bank.
///
/// MRAM is backed by a *paged* store: fixed power-of-two pages
/// ([`PAGE_BYTES`]) are materialized zero-filled on first touch, so
/// simulating 1024 PEs costs memory proportional to the pages actually
/// used — and sparse access patterns (DLRM embedding tables) never pay for
/// zeroing the untouched space in between. Reads of never-written regions
/// observe zeros, like freshly initialized DRAM in the functional model —
/// which is also why a one-row landing's zero tail needs no pages (see
/// [`Pe::write`]).
///
/// A materialized page is the segment's own unless a run covers it, and
/// then it reads as the run's source: zeros ([`Pe::reset`] puts every page
/// in one such run, a zero tail the pages it covers whole) or a page of a
/// result image (a [`Pe::write_shared`], or its rotation by
/// [`Pe::rotate_parts`]). Every `&self` reader
/// sees the source without touching the page; [`Pe::pieces`] lends it as
/// it is, and [`Pe::try_slice`],
/// [`Pe::read_window`] and the source of [`Pe::window_pair`] borrow the
/// image itself where the range lies in one image run, and copy
/// otherwise. Every mutable access owns the pages it reaches, copying
/// their source in, and a [`Pe::write`] owns the pages its row covers
/// whole without a copy — so a reset costs what the next run
/// touches, not what the PE has ever held. A merge folds a run in as its
/// bytes. Run pages stay allocated and count towards
/// [`Pe::mram_resident`], so residency is the copy's.
///
/// Accesses that stay inside one materialized segment borrow it directly
/// (the contiguous-extent fast path: dense streaming loops still get
/// single-memcpy rows); accesses that straddle segments or gaps first
/// coalesce the touched pages into one segment.
///
/// Reorder kernels reuse a per-PE scratch buffer (the WRAM stand-in), so
/// steady-state collectives run without per-call heap allocation.
#[derive(Debug, Clone, Default)]
pub struct Pe {
    /// Materialized segments, sorted by `start`, non-overlapping.
    segs: Vec<Segment>,
    /// High-water mark of bytes touched through the growing accessors —
    /// the seed's `mram.len()` semantics, now decoupled from allocation.
    extent: usize,
    /// Reusable staging buffer for the reorder kernels. Capacity grows to
    /// the largest region ever permuted and is then reused; never read
    /// outside a single kernel invocation.
    scratch: Vec<u8>,
    /// Handle on the system's fault plan, if one is attached. `None` (the
    /// default) draws nothing.
    fault: Option<FaultCtx>,
    /// Read-after-write verification of transport writes. Off by default.
    verify: bool,
    /// First verification mismatch observed on this PE, awaiting
    /// collection at an execute boundary. Boxed: the common case is empty.
    corruption: Option<Box<CorruptionEvent>>,
}

/// Returns the end of the access `[offset, offset + len)` after checking
/// it stays inside the bank — an end past `usize::MAX` included, which an
/// unchecked add would wrap back into it.
#[inline]
fn check_capacity(offset: usize, len: usize) -> usize {
    match offset.checked_add(len) {
        Some(end) if end <= MRAM_CAPACITY => end,
        _ => panic!("MRAM access of {len} B at {offset} exceeds 64 MiB bank"),
    }
}

/// Index of the segment containing `[offset, offset + len)` in full, if
/// one exists — the contiguous fast path.
#[inline]
fn seg_covering(segs: &[Segment], offset: usize, len: usize) -> Option<usize> {
    // Segment starts and ends are both strictly increasing, so the first
    // segment ending after `offset` is the only candidate.
    let i = segs.partition_point(|s| s.end() <= offset);
    match segs.get(i) {
        Some(s) if s.start <= offset && s.end() >= offset + len => Some(i),
        _ => None,
    }
}

/// Lends MRAM range `r` to `f` in order: zeros wherever no segment is
/// materialized, and each segment's pieces where one is.
fn pieces_of<'s>(segs: &'s [Segment], r: Range<usize>, mut f: impl FnMut(Piece<'s>)) {
    let mut at = r.start;
    for s in segs[segs.partition_point(|s| s.end() <= r.start)..]
        .iter()
        .take_while(|s| s.start < r.end)
    {
        if at < s.start {
            f(Piece::Zeros(s.start - at));
            at = s.start;
        }
        let hi = s.end().min(r.end);
        s.pieces(at..hi, &mut f);
        at = hi;
    }
    if at < r.end {
        f(Piece::Zeros(r.end - at));
    }
}

/// Copies the bytes at `offset` into `dst`, reading zeros wherever no
/// segment is materialized and each run's source over the run's pages.
fn peek_segs(segs: &[Segment], offset: usize, dst: &mut [u8]) {
    let mut at = 0;
    pieces_of(segs, offset..offset + dst.len(), |piece| {
        piece.copy_to(&mut dst[at..at + piece.len()]);
        at += piece.len();
    });
}

/// One stretch of an MRAM region as [`Pe::pieces`] lends it.
#[derive(Debug, Clone, Copy)]
pub enum Piece<'a> {
    /// Bytes the PE holds itself.
    Owned(&'a [u8]),
    /// This many bytes that read as zeros: never written, reset, or a zero
    /// tail.
    Zeros(usize),
    /// Bytes `image[at..at + len]` of an image the PE shares.
    Image {
        image: &'a Arc<[u8]>,
        at: usize,
        len: usize,
    },
}

impl Piece<'_> {
    /// Number of bytes the piece stands for.
    pub fn len(&self) -> usize {
        match *self {
            Piece::Owned(bytes) => bytes.len(),
            Piece::Zeros(len) | Piece::Image { len, .. } => len,
        }
    }

    /// Whether the piece stands for no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The piece's bytes; `None` for zeros.
    pub fn bytes(&self) -> Option<&[u8]> {
        match *self {
            Piece::Owned(bytes) => Some(bytes),
            Piece::Zeros(_) => None,
            Piece::Image { image, at, len } => Some(&image[at..at + len]),
        }
    }

    /// Copies the piece's bytes into `dst`, which is as long.
    pub fn copy_to(&self, dst: &mut [u8]) {
        match self.bytes() {
            Some(bytes) => dst.copy_from_slice(bytes),
            None => dst.fill(0),
        }
    }
}

/// The rotated images a phase-A pass builds, so that every PE whose region
/// shares an image, rotated alike, shares the one rotated image: one per
/// image, part phase (the image offset of a part's first byte, modulo the
/// part), part length and cut. Each image is held, so a key never outlives
/// what it names.
#[derive(Debug, Default)]
pub struct Rotations {
    built: Vec<Rotated>,
}

#[derive(Debug)]
struct Rotated {
    source: Arc<[u8]>,
    phase: usize,
    span: usize,
    cut: usize,
    image: Arc<[u8]>,
}

impl Rotations {
    /// `source` with every `span`-byte part from image offset `phase` on
    /// rotated left by `cut` bytes (the bytes outside whole parts as they
    /// are), built on first use.
    fn get(&mut self, source: &Arc<[u8]>, phase: usize, span: usize, cut: usize) -> Arc<[u8]> {
        let key = |r: &&Rotated| {
            Arc::ptr_eq(&r.source, source) && (r.phase, r.span, r.cut) == (phase, span, cut)
        };
        if let Some(r) = self.built.iter().find(key) {
            return Arc::clone(&r.image);
        }
        let mut image = source.to_vec();
        let parts = &mut image[phase.min(source.len())..];
        let whole = parts.len() / span * span;
        rotate_parts_in(&mut parts[..whole], span, cut);
        let image: Arc<[u8]> = image.into();
        self.built.push(Rotated {
            source: Arc::clone(source),
            phase,
            span,
            cut,
            image: Arc::clone(&image),
        });
        image
    }
}

/// A resolved read-only view of one MRAM region: borrowed where
/// [`Pe::try_slice`] lends the region, otherwise a zero-extended snapshot
/// (nothing is materialized or owned by reading). Index 0 is the region's
/// first byte.
pub type ReadWindow<'a> = Cow<'a, [u8]>;

/// A resolved mutable window over one MRAM region of one PE — capacity
/// checked, extent recorded and pages materialized once, by
/// [`Pe::window_pair`] / [`Pe::write_window`] — that lands any number of
/// chunks with [`WriteWindow::put`].
///
/// With no fault plan attached a `put` is a bounds-checked slice copy,
/// verified or not: nothing can strike the landing, so a compare could
/// never fail. Under a plan every chunk takes the checked landing: dropped
/// if the PE is stuck in the current epoch, struck by whatever
/// [`crate::fault::FaultPlan::write_fault`] schedules for its
/// `(pe, offset, len)`, and — under verification — read back and compared
/// with the intended bytes, the first mismatch per PE (by FNV digest)
/// being kept for collection at the next execute boundary. (Resolving is
/// not landing: a stuck PE's window still materializes its pages, which
/// then keep what they held.) [`Pe::write`] and [`Pe::write_shared`] land
/// directly and take a window only over a piece a fault strikes, or over
/// a stuck PE's whole landing.
#[derive(Debug)]
pub struct WriteWindow<'a> {
    /// MRAM offset of `data[0]`.
    start: usize,
    data: &'a mut [u8],
    /// The fault layer's hooks; `None` is the direct lane.
    hooks: Option<Hooks<'a>>,
}

#[derive(Debug)]
struct Hooks<'a> {
    fault: &'a FaultCtx,
    verify: bool,
    corruption: &'a mut Option<Box<CorruptionEvent>>,
}

impl WriteWindow<'_> {
    /// Lands `src` at MRAM offset `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `[offset, offset + src.len())` leaves the window.
    #[inline]
    pub fn put(&mut self, offset: usize, src: &[u8]) {
        let landed = &mut self.data[offset.wrapping_sub(self.start)..][..src.len()];
        match &mut self.hooks {
            None => copy_in(landed, src),
            Some(hooks) => hooks.land(landed, offset, src),
        }
    }
}

/// Copies `src` into `landed`, which is as long. One lane word — the
/// transport's unit and the chunk of the overhead-bound collectives —
/// moves as a register, not as a call into memcpy.
#[inline]
fn copy_in(landed: &mut [u8], src: &[u8]) {
    match <&mut [u8; LANE_BYTES]>::try_from(&mut *landed) {
        Ok(word) => *word = src.try_into().expect("same length"),
        Err(_) => landed.copy_from_slice(src),
    }
}

impl<'a> Hooks<'a> {
    /// The hooks a window over a PE in this fault-layer state lands
    /// through: `None`, the direct lane, unless a plan is attached. With no
    /// plan nothing can strike a landing, so verification alone has
    /// nothing to compare.
    fn of(
        fault: &'a Option<FaultCtx>,
        verify: bool,
        corruption: &'a mut Option<Box<CorruptionEvent>>,
    ) -> Option<Self> {
        fault.as_ref().map(|fault| Hooks {
            fault,
            verify,
            corruption,
        })
    }

    /// The checked landing. With no fault scheduled it lands exactly the
    /// bytes the direct lane would.
    fn land(&mut self, landed: &mut [u8], offset: usize, src: &[u8]) {
        let FaultCtx { pe, ref plan } = *self.fault;
        let stuck = plan.pe_stuck(pe);
        let injected = if stuck {
            None
        } else {
            plan.write_fault(pe, offset, src.len())
        };
        if !stuck {
            landed.copy_from_slice(src);
            match injected {
                Some(WriteFault::BitFlip { bit }) => landed[bit / 8] ^= 1 << (bit % 8),
                Some(WriteFault::RowCorrupt { word, mask }) => {
                    for (b, m) in landed[word * 8..][..8].iter_mut().zip(mask.to_le_bytes()) {
                        *b ^= m;
                    }
                }
                None => {}
            }
        }
        // Read-after-write check: compare what landed with what was meant
        // to. The digests only name a landing that differs, and equal
        // bytes have equal digests, so a clean landing never computes them.
        if self.verify && *landed != *src {
            let expected = fault::fnv1a(src);
            let found = fault::fnv1a(landed);
            if found != expected && self.corruption.is_none() {
                *self.corruption = Some(Box::new(CorruptionEvent {
                    pe,
                    offset,
                    len: src.len(),
                    expected,
                    found,
                    epoch: plan.epoch(),
                }));
            }
        }
    }
}

/// The pieces a landing stands for: what the fault layer draws, one by
/// one, as the copy the landing replaces would have landed them.
#[derive(Clone, Copy)]
pub enum Landing<'a> {
    /// One row, as [`Pe::write`] lands it: one piece, and the pages of its
    /// zero tail stay unmaterialized.
    Row,
    /// A run through a window over the whole region, which materializes it
    /// whole: `chunk`-byte pieces, piece `order(j)` the `j`-th.
    Run {
        chunk: usize,
        order: &'a dyn Fn(usize) -> usize,
    },
}

impl Landing<'_> {
    /// Calls `f(at, len)` for each piece of a landing of `len` bytes, in
    /// order.
    #[inline]
    fn pieces(self, len: usize, mut f: impl FnMut(usize, usize)) {
        match self {
            Landing::Row => f(0, len),
            Landing::Run { chunk, order } => {
                (0..len / chunk).for_each(|j| f(order(j) * chunk, chunk))
            }
        }
    }
}

impl Pe {
    /// Creates a PE with empty (all-zero) MRAM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of MRAM bytes touched so far (high-water mark of all growing
    /// accesses, independent of how many pages back it).
    pub fn mram_used(&self) -> usize {
        self.extent
    }

    /// Number of MRAM bytes actually materialized (allocated pages): the
    /// pages of every resolved window and read, and of the non-zero bytes
    /// of every one-row landing. For a sparse access pattern — or rows
    /// padded with zeros — this is far below [`Pe::mram_used`]. Pages
    /// that are not owned count: they stay allocated, and a reset keeps
    /// every page.
    pub fn mram_resident(&self) -> usize {
        self.segs.iter().map(|s| s.data.len()).sum()
    }

    /// The bytes of `[offset, offset + len)` that [`Pe::mram_resident`]
    /// counts: materialized ones, owned or not. Unlike
    /// [`Pe::try_slice`], which declines a page that reads as zeros, a
    /// reset does not change it.
    ///
    /// # Panics
    ///
    /// Panics if the region would exceed [`MRAM_CAPACITY`].
    pub fn mram_resident_in(&self, offset: usize, len: usize) -> usize {
        let end = check_capacity(offset, len);
        self.segs
            .iter()
            .map(|s| s.end().min(end).saturating_sub(s.start.max(offset)))
            .sum()
    }

    /// Returns the PE to the freshly-initialized all-zero state while
    /// keeping its allocations, so a pooled PE can be reused across runs
    /// without allocator traffic (the [`crate::arena::SystemArena`] path).
    /// Nothing is zero-filled: each segment's pages become one run of
    /// zeros until the next run touches them, so a reset costs a run per
    /// segment and the next run pays to zero only the pages it reaches.
    /// The fault plan and verification are dropped and the reorder
    /// scratch keeps its capacity. Functionally indistinguishable from
    /// [`Pe::new`]: every subsequent read observes zeros and
    /// [`Pe::mram_used`] restarts at 0. Only [`Pe::mram_resident`] betrays
    /// the recycling, which no modeled cost depends on.
    pub fn reset(&mut self) {
        for s in &mut self.segs {
            s.reset();
        }
        self.extent = 0;
        self.fault = None;
        self.verify = false;
        self.corruption = None;
    }

    /// Materializes a single segment covering `[offset, offset + len)`
    /// (page-aligned, zero-filled where no data existed) and returns its
    /// index. Merges every existing segment the page span touches *or
    /// abuts*: folding in adjacent segments is what lets sequential
    /// streaming — even when individual writes land exactly on page
    /// boundaries — converge to one contiguous segment instead of one
    /// segment per page. A folded segment's runs fold in as their bytes;
    /// the segment grown in place keeps its runs, and the caller freshens
    /// or claims what it is about to touch.
    fn ensure_span(&mut self, offset: usize, len: usize) -> usize {
        debug_assert!(len > 0);
        let p0 = offset & !(PAGE_BYTES - 1);
        let p1 = check_capacity(offset, len).next_multiple_of(PAGE_BYTES);

        // First segment overlapping or ending exactly at p0 (adjacency).
        let i = self.segs.partition_point(|s| s.end() < p0);
        if let Some(s) = self.segs.get(i) {
            if s.start <= p0 && s.end() >= p1 {
                return i; // fast path: already covered
            }
        }
        // All segments intersecting [p0, p1) or starting exactly at p1.
        let mut k = i;
        while k < self.segs.len() && self.segs[k].start <= p1 {
            k += 1;
        }
        let first_start = self.segs.get(i).map(|s| s.start);
        let new_start = match first_start {
            Some(s) if s < p0 => s,
            _ => p0,
        };
        let new_end = p1.max(if k > i { self.segs[k - 1].end() } else { 0 });

        if first_start == Some(new_start) {
            // The span begins inside (or right after) segment `i`: grow it
            // in place — Vec::resize grows capacity geometrically, so
            // sequential streaming pays amortized O(1) per byte — then
            // fold in the rest.
            let seg = &mut self.segs[i];
            seg.data.resize(new_end - new_start, 0);
            for s in self.segs.drain(i + 1..k).collect::<Vec<_>>() {
                let at = s.start - new_start;
                s.copy_out(
                    s.start..s.end(),
                    &mut self.segs[i].data[at..at + s.data.len()],
                );
            }
        } else {
            // Fresh segment: exact-sized, no reserve-hint capacity — a
            // sparse island must stay as small as its pages (growth, if it
            // ever happens, goes through the amortized in-place path).
            let mut data = vec![0u8; new_end - new_start];
            for s in self.segs.drain(i..k) {
                let at = s.start - new_start;
                s.copy_out(s.start..s.end(), &mut data[at..at + s.data.len()]);
            }
            self.segs.insert(
                i,
                Segment {
                    start: new_start,
                    data,
                    runs: Vec::new(),
                },
            );
        }
        i
    }

    /// Reads `len` bytes at `offset`, materializing and owning their pages
    /// so the bytes can be borrowed.
    pub fn read(&mut self, offset: usize, len: usize) -> &[u8] {
        self.extent = self.extent.max(check_capacity(offset, len));
        if len == 0 {
            return &[];
        }
        let i = self.ensure_span(offset, len);
        let s = &mut self.segs[i];
        s.freshen(offset..offset + len);
        s.span(offset..offset + len)
    }

    /// Copies `len` bytes at `offset` into `dst`.
    pub fn read_into(&mut self, offset: usize, dst: &mut [u8]) {
        let src = self.read(offset, dst.len());
        dst.copy_from_slice(src);
    }

    /// Copies the bytes at `offset` into `dst` without materializing
    /// anything: unmaterialized regions read as zeros, exactly like
    /// [`Pe::read`], but through `&self` — so read-only metering and
    /// parallel readers need no exclusive access.
    ///
    /// # Panics
    ///
    /// Panics if the access would exceed [`MRAM_CAPACITY`].
    pub fn peek_into(&self, offset: usize, dst: &mut [u8]) {
        check_capacity(offset, dst.len());
        peek_segs(&self.segs, offset, dst);
    }

    /// Returns `len` bytes at `offset` as a fresh vector without growing
    /// MRAM (untouched regions read as zeros). `&self` counterpart of
    /// `read(..).to_vec()`.
    pub fn peek(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.peek_into(offset, &mut out);
        out
    }

    /// Borrows `len` bytes at `offset` if the region is already
    /// materialized in one segment and either reaches no run (the
    /// segment's bytes) or lies inside one image run (the image's), `None`
    /// otherwise. Zero-copy fast path for readers that can fall back to
    /// [`Pe::peek_into`].
    ///
    /// # Panics
    ///
    /// Panics if the region would exceed [`MRAM_CAPACITY`].
    pub fn try_slice(&self, offset: usize, len: usize) -> Option<&[u8]> {
        check_capacity(offset, len);
        self.segs[seg_covering(&self.segs, offset, len)?].borrow(offset..offset + len)
    }

    /// Resolves a [`ReadWindow`] over `[offset, offset + len)` without
    /// materializing anything: unmaterialized bytes read as zeros.
    ///
    /// # Panics
    ///
    /// Panics if the region would exceed [`MRAM_CAPACITY`].
    pub fn read_window(&self, offset: usize, len: usize) -> ReadWindow<'_> {
        match self.try_slice(offset, len) {
            Some(s) => Cow::Borrowed(s),
            None => Cow::Owned(self.peek(offset, len)),
        }
    }

    /// Writes `src` at `offset` as one row — the landing point of every
    /// host-mediated transport that is not already streaming through a
    /// longer-lived window (burst lanes, row transfers, host scatters).
    ///
    /// The row overwrites everything it covers, so the pages it covers
    /// whole are owned without a copy. A row no one segment covers yet
    /// lands only its non-zero prefix: its zero tail is left
    /// unmaterialized (reading as zeros) where no pages exist, and where
    /// they do, the pages it covers whole become a run of zeros and only
    /// the bytes on the pages it cuts are zero-filled. Bytes and extent are
    /// those of the whole row; only [`Pe::mram_resident`] is smaller. Under
    /// a fault plan the row is one piece, drawn by its `(pe, offset, len)`:
    /// struck, it lands again through a window over the whole row, which
    /// takes the flip and the verification ([`WriteWindow`]).
    ///
    /// # Panics
    ///
    /// Panics if the region would exceed [`MRAM_CAPACITY`].
    #[inline]
    pub fn write(&mut self, offset: usize, src: &[u8]) {
        self.land(offset, src, None, Landing::Row);
    }

    /// Lands `image` at `offset` as one replica of a result that other PEs
    /// receive too — an AllReduce's reduced vector, an AllGather's
    /// concatenation: the pages the image covers whole share it (one `Arc`
    /// per PE, no copy) and only its bytes on the pages it cuts are
    /// copied. A [`Landing::Run`] materializes its whole region, like the
    /// window it stands for; a [`Landing::Row`] follows [`Pe::write`]'s
    /// zero-tail rule. Under a fault plan each piece `landing` names is
    /// drawn, in its order, as the copy it stands for would draw it, and a
    /// struck piece alone is owned and takes the flip; a stuck PE drops the
    /// copy instead. So every byte, draw and recorded event is the copy's,
    /// and pages no fault reaches stay shared.
    ///
    /// # Panics
    ///
    /// Panics if the region would exceed [`MRAM_CAPACITY`] or, for a run,
    /// its chunk does not divide the image.
    pub fn write_shared(&mut self, offset: usize, image: &Arc<[u8]>, landing: Landing<'_>) {
        self.land(offset, image, Some(image), landing);
    }

    /// The one landing body: lands `src` — `image`'s bytes where it is
    /// shared, the PE's own otherwise — as the direct lane does. Under a
    /// fault plan it then draws each piece `landing` names, in order, by
    /// its `(pe, offset, len)`, and a struck piece lands again through a
    /// window over it alone, which owns only its pages and takes the flip
    /// and the verification. A stuck PE's landing is dropped through the
    /// window the copy would take, which materializes its region.
    #[inline]
    fn land(&mut self, offset: usize, src: &[u8], image: Option<&Arc<[u8]>>, landing: Landing) {
        let end = check_capacity(offset, src.len());
        if let Landing::Run { chunk, .. } = landing {
            assert!(
                chunk > 0 && src.len().is_multiple_of(chunk),
                "pieces tile the image"
            );
        }
        if self.fault.as_ref().is_some_and(|f| f.plan.pe_stuck(f.pe)) {
            let mut w = self.write_window(offset, src.len());
            landing.pieces(src.len(), |at, len| w.put(offset + at, &src[at..at + len]));
            return;
        }
        let covering = match landing {
            // A run materializes its whole region, like its window.
            Landing::Run { .. } => (!src.is_empty()).then(|| self.ensure_span(offset, src.len())),
            Landing::Row => seg_covering(&self.segs, offset, src.len()),
        };
        let (live, seg) = match covering {
            Some(i) => (src.len(), Some(i)),
            None => self.row_prefix(offset, src),
        };
        self.extent = self.extent.max(end);
        if let Some(s) = seg.map(|i| &mut self.segs[i]) {
            let r = offset..offset + live;
            match image {
                Some(image) => s.land(r, Some(image)),
                None => {
                    s.claim(r.clone());
                    s.freshen(r.clone());
                    copy_in(s.span_mut(r), &src[..live]);
                }
            }
        }
        self.zero_tail(offset + live..end);
        let Some(FaultCtx { pe, plan }) = self.fault.clone() else {
            return;
        };
        landing.pieces(src.len(), |at, len| {
            let piece = &src[at..at + len];
            if plan.write_fault(pe, offset + at, len).is_some() {
                self.write_window(offset + at, len).put(offset + at, piece);
            }
        });
    }

    /// The direct-lane residency of a one-row landing of `row` at `offset`
    /// that no one segment covers: materializes the row's non-zero prefix
    /// and returns its length and the segment that holds it (none, and no
    /// segment, for an all-zero row).
    fn row_prefix(&mut self, offset: usize, row: &[u8]) -> (usize, Option<usize>) {
        // Skip the zero tail 64 bytes at a time (an OR fold vectorizes, a
        // byte search does not), then to the byte.
        let zero = |c: &[u8]| c.iter().fold(0, |a, &b| a | b) == 0;
        let zeros = 64 * row.rchunks(64).take_while(|c| zero(c)).count();
        let head = &row[..row.len().saturating_sub(zeros)];
        let live = head.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        (live, (live > 0).then(|| self.ensure_span(offset, live)))
    }

    /// Makes a row's zero tail `r` read as zeros without materializing
    /// anything: the pages it covers whole become a run of zeros, its
    /// bytes on the pages it cuts are zero-filled.
    fn zero_tail(&mut self, r: Range<usize>) {
        if r.is_empty() {
            return;
        }
        let first = self.segs.partition_point(|s| s.end() <= r.start);
        for s in self.segs[first..]
            .iter_mut()
            .take_while(|s| s.start < r.end)
        {
            s.land(r.start.max(s.start)..r.end.min(s.end()), None);
        }
    }

    /// Resolves a [`WriteWindow`] over `[offset, offset + len)`:
    /// materializes and owns its pages (zero-filled on first touch) and
    /// records the extent, like [`Pe::slice_mut`], but hands out the
    /// region behind the fault layer's hooks instead of as raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if the region would exceed [`MRAM_CAPACITY`].
    #[inline]
    pub fn write_window(&mut self, offset: usize, len: usize) -> WriteWindow<'_> {
        self.extent = self.extent.max(check_capacity(offset, len));
        let i = (len > 0).then(|| self.ensure_span(offset, len));
        let data = i.map(|i| {
            let s = &mut self.segs[i];
            s.freshen(offset..offset + len);
            s.span_mut(offset..offset + len)
        });
        WriteWindow {
            start: offset,
            data: data.unwrap_or_default(),
            hooks: Hooks::of(&self.fault, self.verify, &mut self.corruption),
        }
    }

    /// Resolves a [`ReadWindow`] over `src` and a [`WriteWindow`] over
    /// `dst` in one step, so a PE can be source and destination of the
    /// same streaming loop. The destination is materialized and owned, and
    /// both regions count towards [`Pe::mram_used`]; the source is never
    /// materialized (see [`Pe::read_window`]).
    ///
    /// # Panics
    ///
    /// Panics if the regions overlap or exceed [`MRAM_CAPACITY`].
    pub fn window_pair(
        &mut self,
        src: Range<usize>,
        dst: Range<usize>,
    ) -> (ReadWindow<'_>, WriteWindow<'_>) {
        assert!(
            src.is_empty() || dst.is_empty() || src.end <= dst.start || dst.end <= src.start,
            "MRAM windows {src:?} and {dst:?} overlap"
        );
        check_capacity(src.start, src.len());
        check_capacity(dst.start, dst.len());
        self.extent = self.extent.max(src.end).max(dst.end);
        let di = (!dst.is_empty()).then(|| self.ensure_span(dst.start, dst.len()));
        let Pe {
            segs,
            fault,
            verify,
            corruption,
            ..
        } = self;
        if let Some(i) = di {
            segs[i].freshen(dst.clone());
        }
        let si = seg_covering(segs, src.start, src.len())
            .filter(|&j| segs[j].borrow(src.clone()).is_some());
        let (read, data): (ReadWindow, &mut [u8]) = match (si, di) {
            (None, _) => {
                let mut staged = vec![0u8; src.len()];
                peek_segs(segs, src.start, &mut staged);
                let data = di.map(|i| segs[i].span_mut(dst.clone()));
                (Cow::Owned(staged), data.unwrap_or_default())
            }
            (Some(j), None) => (
                Cow::Borrowed(segs[j].borrow(src).unwrap_or_default()),
                &mut [],
            ),
            // One segment holds both regions: split it between them.
            (Some(j), Some(i)) if i == j => {
                let (read, data) = segs[i].borrow_pair(src, dst.clone());
                (Cow::Borrowed(read), data)
            }
            (Some(j), Some(i)) => {
                let (lo, hi) = segs.split_at_mut(i.max(j));
                let (from, to) = if j < i {
                    (&lo[j], &mut hi[0])
                } else {
                    (&hi[0], &mut lo[i])
                };
                let read = from.borrow(src).unwrap_or_default();
                (Cow::Borrowed(read), to.span_mut(dst.clone()))
            }
        };
        let write = WriteWindow {
            start: dst.start,
            data,
            hooks: Hooks::of(fault, *verify, corruption),
        };
        (read, write)
    }

    /// Installs (or clears) this PE's handle on the system fault plan.
    /// Installed for every PE at once by `PimSystem::attach_fault_plan`.
    pub fn set_fault_ctx(&mut self, ctx: Option<FaultCtx>) {
        self.fault = ctx;
    }

    /// Enables or disables read-after-write verification of transport
    /// writes. It acts only under a fault plan (with none, nothing can
    /// strike a landing), never charges modeled time and never grows MRAM,
    /// so enabling it leaves both modeled costs and the data image
    /// bit-identical on a fault-free run.
    pub fn set_verify(&mut self, on: bool) {
        self.verify = on;
    }

    /// Takes the first recorded write-verification mismatch, if any.
    pub fn take_corruption(&mut self) -> Option<CorruptionEvent> {
        self.corruption.take().map(|b| *b)
    }

    /// Copies `len` bytes from another PE's MRAM (`src` at `src_offset`)
    /// to `dst_offset` — the host-mediated PE-to-PE move as a one-row
    /// window transfer, subject to the same injection and verification as
    /// every other landing. Untouched source regions read as zeros.
    pub fn copy_from(&mut self, dst_offset: usize, src: &Pe, src_offset: usize, len: usize) {
        self.write_window(dst_offset, len)
            .put(dst_offset, &src.read_window(src_offset, len));
    }

    /// Copies `len` bytes from `src_offset` to `dst_offset` within this
    /// PE's MRAM — PE-local compute (the DPU moving its own data), outside
    /// the transport fault scope like the reorder kernels. The regions must
    /// not overlap; nothing between them is materialized.
    pub fn copy_within_region(&mut self, src_offset: usize, dst_offset: usize, len: usize) {
        let (src, dst) = self.window_pair(
            src_offset..check_capacity(src_offset, len),
            dst_offset..check_capacity(dst_offset, len),
        );
        dst.data.copy_from_slice(&src);
    }

    /// Interleaves `blocks` consecutive blocks of `rows` rows of
    /// `row_bytes` bytes at `src_offset` into `rows` rows of
    /// `blocks * row_bytes` bytes at `dst_offset`: row `r` of the result is
    /// row `r` of every block, in block order — column-block-major (what an
    /// AllGather of column blocks leaves) to row-major. PE-local compute
    /// like [`Pe::copy_within_region`]: one pass between the resolved
    /// windows, outside the transport fault scope, the source never
    /// materialized. The regions must not overlap.
    pub fn interleave_blocks(
        &mut self,
        src_offset: usize,
        dst_offset: usize,
        blocks: usize,
        rows: usize,
        row_bytes: usize,
    ) {
        // Saturated, an overflowing length is refused as out of the bank.
        let (block, pitch) = (
            rows.saturating_mul(row_bytes),
            blocks.saturating_mul(row_bytes),
        );
        let len = blocks.saturating_mul(block);
        let (src, dst) = self.window_pair(
            src_offset..check_capacity(src_offset, len),
            dst_offset..check_capacity(dst_offset, len),
        );
        for b in 0..blocks {
            crate::kernels::copy_rows(
                dst.data,
                b * row_bytes,
                pitch,
                &src,
                b * block,
                row_bytes,
                row_bytes,
                rows,
            );
        }
    }

    /// Mutable view of `len` bytes at `offset`, its pages owned.
    pub fn slice_mut(&mut self, offset: usize, len: usize) -> &mut [u8] {
        self.extent = self.extent.max(check_capacity(offset, len));
        if len == 0 {
            return &mut [];
        }
        let i = self.ensure_span(offset, len);
        let s = &mut self.segs[i];
        s.freshen(offset..offset + len);
        s.span_mut(offset..offset + len)
    }

    /// Debug-only validity check: `perm` must be a permutation of
    /// `0..count`.
    #[cfg(debug_assertions)]
    fn check_permutation(perm: &[usize], count: usize) {
        let mut seen = vec![false; count];
        for &src in perm {
            assert!(src < count, "permutation index {src} out of range");
            assert!(!seen[src], "duplicate permutation index {src}");
            seen[src] = true;
        }
    }

    /// Local reorder kernel: treats `[offset, offset + count*block) ` as
    /// `count` blocks of `block` bytes and rearranges them so that the block
    /// at destination slot `d` is the block previously at slot `perm[d]`.
    ///
    /// This runs *inside* the PE (through WRAM), so the host never sees the
    /// data; callers charge [`crate::cost::Category::PeModulation`] time.
    /// Allocation-free in steady state: the region is staged through the
    /// PE's reusable scratch buffer. A table that rotates equal parts has a
    /// table-free in-place form, [`Pe::rotate_parts`].
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != count`; in debug builds additionally if
    /// `perm` is not a permutation of `0..count`.
    pub fn permute_blocks(&mut self, offset: usize, block: usize, count: usize, perm: &[usize]) {
        assert_eq!(perm.len(), count, "permutation length mismatch");
        #[cfg(debug_assertions)]
        Self::check_permutation(perm, count);
        let len = block.saturating_mul(count);
        self.extent = self.extent.max(check_capacity(offset, len));
        if len == 0 {
            return;
        }
        let i = self.ensure_span(offset, len);
        let Pe { segs, scratch, .. } = self;
        let s = &mut segs[i];
        s.freshen(offset..offset + len);
        let region = s.span_mut(offset..offset + len);
        scratch.clear();
        scratch.extend_from_slice(region);
        for (dst, &src) in perm.iter().enumerate() {
            region[dst * block..(dst + 1) * block]
                .copy_from_slice(&scratch[src * block..(src + 1) * block]);
        }
    }

    // ---- typed views (the `crate::kernels` entry points) ---------------
    //
    // Decodes borrow the materialized segment directly (`Pe::read`) and
    // encodes write straight into it (`Pe::slice_mut`), so app kernels
    // move typed lanes in and out of MRAM without intermediate `Vec`s.
    // Untouched regions decode as zeros, exactly like `Pe::read`.
    //
    // These views model *PE-local compute* (the DPU operating on its own
    // bank), not host-mediated transport, so they are deliberately outside
    // the fault layer's injection and verification scope — the fault model
    // covers the communication substrate, not app arithmetic.

    /// Decodes `dst.len()` little-endian `i32`s starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the access would exceed [`MRAM_CAPACITY`].
    pub fn read_i32s(&mut self, offset: usize, dst: &mut [i32]) {
        let src = self.read(offset, dst.len() * 4);
        crate::kernels::decode_i32(src, dst);
    }

    /// Encodes `src` as little-endian `i32`s starting at `offset`,
    /// directly into the backing segment.
    ///
    /// # Panics
    ///
    /// Panics if the access would exceed [`MRAM_CAPACITY`].
    pub fn write_i32s(&mut self, offset: usize, src: &[i32]) {
        let dst = self.slice_mut(offset, src.len() * 4);
        crate::kernels::encode_i32(src, dst);
    }

    /// Decodes `dst.len()` little-endian `u32`s starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the access would exceed [`MRAM_CAPACITY`].
    pub fn read_u32s(&mut self, offset: usize, dst: &mut [u32]) {
        let src = self.read(offset, dst.len() * 4);
        crate::kernels::decode_u32(src, dst);
    }

    /// Sign-extending decode of `dst.len()` elements of width
    /// `dtype.size_bytes()` (1/2/4) starting at `offset` — the narrow
    /// typed view of [`crate::kernels::decode_sext`].
    ///
    /// # Panics
    ///
    /// Panics if the access would exceed [`MRAM_CAPACITY`] or `dtype` is
    /// wider than 4 bytes.
    pub fn read_sext(&mut self, offset: usize, dtype: crate::DType, dst: &mut [i32]) {
        let src = self.read(offset, dst.len() * dtype.size_bytes());
        crate::kernels::decode_sext(dtype, src, dst);
    }

    /// Truncating encode of `src` to elements of width
    /// `dtype.size_bytes()` (1/2/4) starting at `offset` — the narrow
    /// typed view of [`crate::kernels::encode_trunc`].
    ///
    /// # Panics
    ///
    /// Panics if the access would exceed [`MRAM_CAPACITY`] or `dtype` is
    /// wider than 4 bytes.
    pub fn write_trunc(&mut self, offset: usize, dtype: crate::DType, src: &[i32]) {
        let dst = self.slice_mut(offset, src.len() * dtype.size_bytes());
        crate::kernels::encode_trunc(dtype, src, dst);
    }

    /// Local rotation kernel: rotates `count` blocks of `block` bytes left
    /// by `rot` slots (the block at slot `(d + rot) % count` moves to slot
    /// `d`) — [`Pe::rotate_parts`] with a single part and a fresh memo.
    pub fn rotate_blocks(&mut self, offset: usize, block: usize, count: usize, rot: usize) {
        if count > 0 {
            let rotations = &mut Rotations::default();
            self.rotate_parts(offset, block, count, count, rot % count, rotations);
        }
    }

    /// Part-wise rotation kernel: treats `[offset, offset + count*block)`
    /// as consecutive parts of `part` blocks and rotates every part left
    /// by `rot` slots, in place — `permute_blocks` with
    /// `perm[j] = (j % part + rot) % part + (j / part) * part`, the form of
    /// the collective engine's phase-A reorder (`part` = lane count, `rot`
    /// = the PE's lane rank), without the table.
    ///
    /// The region is materialized like a mutable view, but what is shared
    /// stays shared: a whole page whose every touching part lies inside
    /// one image run becomes a page of the image rotated — the rotation
    /// `rotations` holds for it, built on first use, so the PEs of a pass
    /// that share an image and rotate it alike share its one rotation.
    /// Every other page is owned and rotated in place. A rotation by 0
    /// owns nothing.
    ///
    /// # Panics
    ///
    /// Panics if `part` does not divide `count`, `rot >= part`, or the
    /// region would exceed [`MRAM_CAPACITY`].
    pub fn rotate_parts(
        &mut self,
        offset: usize,
        block: usize,
        part: usize,
        count: usize,
        rot: usize,
        rotations: &mut Rotations,
    ) {
        assert!(
            part > 0 && count.is_multiple_of(part),
            "parts must tile the region"
        );
        assert!(
            rot < part,
            "rotation {rot} out of range for parts of {part}"
        );
        let len = block.saturating_mul(count);
        self.extent = self.extent.max(check_capacity(offset, len));
        if len == 0 {
            return;
        }
        let i = self.ensure_span(offset, len);
        if rot > 0 {
            self.segs[i].rotate(offset..offset + len, part * block, rot * block, rotations);
        }
    }

    /// Lends `[offset, offset + len)` to `f` as consecutive pieces, in
    /// order and without materializing anything: the PE's own bytes,
    /// zeros, or the bytes of an image it shares, with the image. A region
    /// inside one segment that no run reaches is one piece.
    ///
    /// # Panics
    ///
    /// Panics if the region would exceed [`MRAM_CAPACITY`].
    pub fn pieces<'s>(&'s self, offset: usize, len: usize, f: impl FnMut(Piece<'s>)) {
        let end = check_capacity(offset, len);
        pieces_of(&self.segs, offset..end, f);
    }
}

/// Rotates every `span`-byte part of `region` left by `cut` bytes. The
/// engine's parts are a burst wide (8 chunks of 8 bytes) at the payload
/// sizes where phase A dominates, so small parts go through a stack buffer
/// — two straight copies instead of `rotate_left`'s general cycle walk.
fn rotate_parts_in(region: &mut [u8], span: usize, cut: usize) {
    const STACK: usize = 512;
    if cut == 0 {
        return;
    }
    if span > STACK {
        for part in region.chunks_exact_mut(span) {
            part.rotate_left(cut);
        }
        return;
    }
    let mut tmp = [0u8; STACK];
    for part in region.chunks_exact_mut(span) {
        tmp[..cut].copy_from_slice(&part[..cut]);
        part.copy_within(cut.., 0);
        part[span - cut..].copy_from_slice(&tmp[..cut]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_of_untouched_mram_are_zero() {
        let mut pe = Pe::new();
        assert_eq!(pe.read(100, 4), &[0, 0, 0, 0]);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut pe = Pe::new();
        pe.write(8, &[1, 2, 3]);
        assert_eq!(pe.read(8, 3), &[1, 2, 3]);
        assert_eq!(pe.mram_used(), 11);
    }

    #[test]
    fn peek_does_not_grow_mram() {
        let mut pe = Pe::new();
        pe.write(0, &[9, 8]);
        let used = pe.mram_used();
        assert_eq!(pe.peek(0, 4), vec![9, 8, 0, 0]);
        assert_eq!(pe.peek(100, 3), vec![0, 0, 0]);
        assert_eq!(pe.mram_used(), used, "peek must not grow MRAM");
        // peek matches read for any region.
        let via_read = pe.read(60, 8).to_vec();
        assert_eq!(pe.peek(60, 8), via_read);
    }

    #[test]
    #[should_panic(expected = "exceeds 64 MiB")]
    fn peek_respects_capacity() {
        let pe = Pe::new();
        let mut buf = [0u8; 2];
        pe.peek_into(MRAM_CAPACITY - 1, &mut buf);
    }

    #[test]
    fn sparse_writes_stay_sparse() {
        let mut pe = Pe::new();
        // Two islands tens of MiB apart: only their pages materialize.
        pe.write(0, &[1u8; 100]);
        pe.write(48 * 1024 * 1024, &[2u8; 100]);
        assert_eq!(pe.mram_used(), 48 * 1024 * 1024 + 100);
        assert!(
            pe.mram_resident() <= 2 * PAGE_BYTES,
            "resident {} should be two pages",
            pe.mram_resident()
        );
        // The gap reads as zeros.
        assert_eq!(pe.peek(24 * 1024 * 1024, 4), vec![0; 4]);
        assert_eq!(pe.read(48 * 1024 * 1024, 3), &[2, 2, 2]);
    }

    #[test]
    fn page_straddling_access_merges_segments() {
        let mut pe = Pe::new();
        pe.write(0, &[1u8; 16]);
        pe.write(3 * PAGE_BYTES, &[2u8; 16]);
        // A read spanning both islands and the gap coalesces them.
        let img = pe.read(0, 3 * PAGE_BYTES + 16).to_vec();
        assert_eq!(&img[..16], &[1u8; 16]);
        assert!(img[16..3 * PAGE_BYTES].iter().all(|&b| b == 0));
        assert_eq!(&img[3 * PAGE_BYTES..], &[2u8; 16]);
        assert_eq!(pe.mram_resident(), 4 * PAGE_BYTES);
    }

    #[test]
    fn rotate_blocks_left() {
        let mut pe = Pe::new();
        pe.write(0, &[0u8, 0, 1, 1, 2, 2, 3, 3]);
        pe.rotate_blocks(0, 2, 4, 1);
        // Slot d receives old slot (d+1)%4.
        assert_eq!(pe.read(0, 8), &[1, 1, 2, 2, 3, 3, 0, 0]);
    }

    #[test]
    fn rotate_by_count_is_identity() {
        let mut pe = Pe::new();
        let data: Vec<u8> = (0..24).collect();
        pe.write(0, &data);
        pe.rotate_blocks(0, 4, 6, 6);
        assert_eq!(pe.read(0, 24), &data[..]);
    }

    #[test]
    fn rotate_matches_equivalent_permutation() {
        // rotate_blocks(rot) must equal permute_blocks with
        // perm[d] = (d + rot) % count — the table the seed implementation
        // built explicitly.
        for count in [1usize, 2, 3, 5, 8] {
            for rot in 0..count + 2 {
                let data: Vec<u8> = (0..(count * 4) as u8).collect();
                let mut a = Pe::new();
                a.write(0, &data);
                a.rotate_blocks(0, 4, count, rot);
                let mut b = Pe::new();
                b.write(0, &data);
                let perm: Vec<usize> = (0..count).map(|d| (d + rot) % count).collect();
                b.permute_blocks(0, 4, count, &perm);
                assert_eq!(a.read(0, count * 4), b.read(0, count * 4), "{count}/{rot}");
            }
        }
    }

    #[test]
    fn permute_blocks_applies_rotation_and_arbitrary_tables() {
        // Every permutation — part rotations and arbitrary tables alike —
        // must produce the mapping out[d] = in[perm[d]].
        let perms: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 3, 4, 5], // identity
            vec![2, 3, 4, 5, 0, 1], // single-part rotation
            vec![1, 2, 0, 4, 5, 3], // two parts of 3, rot 1
            vec![5, 4, 3, 2, 1, 0], // reversal
            vec![1, 0, 3, 2, 5, 4], // pairwise swap = parts of 2 rot 1
            vec![3, 1, 4, 0, 5, 2], // arbitrary
        ];
        for perm in perms {
            let data: Vec<u8> = (0..48).collect();
            let mut pe = Pe::new();
            pe.write(0, &data);
            pe.permute_blocks(0, 8, 6, &perm);
            let got = pe.read(0, 48).to_vec();
            for (d, &s) in perm.iter().enumerate() {
                assert_eq!(
                    &got[d * 8..(d + 1) * 8],
                    &data[s * 8..(s + 1) * 8],
                    "perm {perm:?} slot {d}"
                );
            }
        }
    }

    #[test]
    fn permute_blocks_applies_mapping() {
        let mut pe = Pe::new();
        pe.write(0, &[10, 20, 30]);
        pe.permute_blocks(0, 1, 3, &[2, 0, 1]);
        assert_eq!(pe.read(0, 3), &[30, 10, 20]);
    }

    #[test]
    fn permute_blocks_is_reusable_across_sizes() {
        // The scratch buffer must not leak state between invocations of
        // different sizes.
        let mut pe = Pe::new();
        pe.write(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        pe.permute_blocks(0, 2, 4, &[3, 2, 1, 0]);
        assert_eq!(pe.read(0, 8), &[7, 8, 5, 6, 3, 4, 1, 2]);
        pe.permute_blocks(0, 1, 2, &[1, 0]);
        assert_eq!(pe.read(0, 2), &[8, 7]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate permutation index")]
    fn permute_rejects_non_permutation() {
        let mut pe = Pe::new();
        pe.permute_blocks(0, 1, 2, &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds 64 MiB")]
    fn mram_capacity_enforced() {
        let mut pe = Pe::new();
        pe.write(MRAM_CAPACITY, &[1]);
    }

    #[test]
    fn accesses_whose_end_overflows_panic_as_out_of_bank() {
        // An unchecked `offset + len` (or a length's product) wraps to a
        // small value here and passes.
        const AT: usize = usize::MAX - 2;
        type Access = fn(&mut Pe);
        let cases: [(&str, Access); 15] = [
            ("read", |pe| _ = pe.read(AT, 4)),
            ("peek_into", |pe| pe.peek_into(AT, &mut [0; 4])),
            ("try_slice", |pe| _ = pe.try_slice(AT, 4)),
            ("read_window", |pe| _ = pe.read_window(AT, 4)),
            ("write", |pe| pe.write(AT, &[1, 2, 3, 4])),
            ("write_window", |pe| _ = pe.write_window(AT, 4)),
            ("window_pair src", |pe| _ = pe.window_pair(AT..AT, 0..8)),
            ("window_pair dst", |pe| _ = pe.window_pair(0..8, AT..AT)),
            ("slice_mut", |pe| _ = pe.slice_mut(AT, 4)),
            ("permute_blocks", |pe| pe.permute_blocks(AT, 2, 2, &[1, 0])),
            ("rotate_parts", |pe| {
                pe.rotate_parts(AT, 2, 2, 2, 1, &mut Rotations::default())
            }),
            ("copy_within_region", |pe| pe.copy_within_region(AT, 0, 4)),
            // Lengths whose product overflows: wrapped, they read 0 B.
            ("rotate_parts len", |pe| {
                pe.rotate_parts(0, 1 << 33, 2, 1 << 31, 1, &mut Rotations::default())
            }),
            ("permute_blocks len", |pe| {
                pe.permute_blocks(0, 1 << 62, 4, &[1, 0, 3, 2])
            }),
            ("interleave_blocks len", |pe| {
                pe.interleave_blocks(0, 1 << 20, 1 << 32, 1 << 32, 1)
            }),
        ];
        for (name, access) in cases {
            let mut pe = Pe::new();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| access(&mut pe)))
                .expect_err(name);
            let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("exceeds 64 MiB bank"), "{name}: {msg:?}");
            assert_eq!((pe.mram_used(), pe.mram_resident()), (0, 0), "{name}");
        }
    }

    /// A row of `len` bytes whose first `live` bytes are non-zero.
    fn padded_row(live: usize, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| if i < live { i as u8 | 1 } else { 0 })
            .collect()
    }

    #[test]
    fn a_zero_tail_over_fresh_mram_materializes_nothing() {
        // The prefix reaches into the row's second page; the tail spans two
        // more pages that stay unmaterialized yet read as the row says.
        let row = padded_row(PAGE_BYTES + 8, 3 * PAGE_BYTES);
        let mut pe = Pe::new();
        pe.write(64, &row);
        assert_eq!(pe.mram_used(), 64 + 3 * PAGE_BYTES);
        assert_eq!(pe.mram_resident(), 2 * PAGE_BYTES);
        assert_eq!(pe.mram_resident_in(PAGE_BYTES, 2 * PAGE_BYTES), PAGE_BYTES);
        assert_eq!(pe.peek(64, row.len()), row);
        // A reset keeps the pages, which still count, though not owned.
        pe.reset();
        assert!(pe.try_slice(0, PAGE_BYTES).is_none());
        assert_eq!(pe.mram_resident_in(8, 3 * PAGE_BYTES), 2 * PAGE_BYTES - 8);

        // All zeros: nothing at all, however long the row.
        let mut pe = Pe::new();
        pe.write(PAGE_BYTES, &[0; 3 * PAGE_BYTES]);
        assert_eq!((pe.mram_used(), pe.mram_resident()), (4 * PAGE_BYTES, 0));
        assert_eq!(pe.peek(0, 5 * PAGE_BYTES), vec![0; 5 * PAGE_BYTES]);
    }

    #[test]
    fn a_zero_tail_over_stale_pages_zeroes_them() {
        // Old non-zero bytes on page 0 and on an island at page 3, which
        // the row's tail covers in part; no one segment covers the row.
        let mut pe = Pe::new();
        pe.write(0, &[0xEE; PAGE_BYTES]);
        pe.write(3 * PAGE_BYTES, &[0xEE; 64]);
        let row = padded_row(8, 3 * PAGE_BYTES + 8);
        pe.write(16, &row);
        assert_eq!(pe.peek(16, row.len()), row);
        // Around the row the old bytes stay, and no page was added.
        assert_eq!(pe.peek(0, 16), vec![0xEE; 16]);
        assert_eq!(pe.peek(3 * PAGE_BYTES + 24, 40), vec![0xEE; 40]);
        assert_eq!(pe.mram_resident(), 2 * PAGE_BYTES);
    }

    #[test]
    fn a_faulted_landing_materializes_and_draws_the_whole_row() {
        use crate::fault::{FaultKind::*, FaultPlan};
        use std::sync::Arc;

        // Under a fault plan `write` draws the whole row as one piece. A
        // struck (or stuck) row is the whole-row window: the two agree in
        // every byte, page and recorded event, and a fault may strike the
        // zero tail. An unstruck row keeps the direct lane's pages.
        let row = padded_row(16, 2 * PAGE_BYTES);
        for (kind, on) in [(BitFlip, 1), (RowCorrupt, 1), (Stuck, 1), (BitFlip, 2)] {
            let plan = Arc::new(FaultPlan::new(5).with_event(kind, on, 1));
            plan.begin_epoch();
            let [mut write, mut window] = [(); 2].map(|()| {
                let mut pe = Pe::new();
                pe.set_fault_ctx(Some(FaultCtx::new(1, Arc::clone(&plan))));
                pe.set_verify(true);
                pe
            });
            write.write(8, &row);
            window.write_window(8, row.len()).put(8, &row);
            let struck = on == 1;
            let pages = if struck { 3 } else { 1 } * PAGE_BYTES;
            assert_eq!(write.mram_resident(), pages, "{kind:?}");
            assert_eq!(write.mram_used(), window.mram_used(), "{kind:?}");
            assert_eq!(
                write.peek(0, 3 * PAGE_BYTES),
                window.peek(0, 3 * PAGE_BYTES)
            );
            let event = write.take_corruption();
            assert_eq!(event.is_some(), struck, "{kind:?}");
            assert_eq!(event, window.take_corruption(), "{kind:?}");
        }
    }

    #[test]
    fn page_aligned_streaming_converges_to_one_segment() {
        // Sequential writes that land exactly on page boundaries (the
        // burst path's 8-byte stream crosses them this way) must extend
        // the existing segment, not leave one segment per page.
        let mut pe = Pe::new();
        for off in (0..4 * PAGE_BYTES).step_by(64) {
            pe.write(off, &[0xABu8; 64]);
        }
        assert!(
            pe.try_slice(0, 4 * PAGE_BYTES).is_some(),
            "adjacent page runs must coalesce"
        );
        // Backward adjacency coalesces too.
        let mut pe = Pe::new();
        pe.write(PAGE_BYTES, &[1u8; 8]);
        pe.write(0, &[2u8; 8]);
        assert!(pe.try_slice(0, PAGE_BYTES + 8).is_some());
    }

    #[test]
    fn copy_within_region_across_segments() {
        let mut pe = Pe::new();
        pe.write(0, &[7u8; 32]);
        // Destination pages away from the source: staged, not merged.
        pe.copy_within_region(0, 10 * PAGE_BYTES, 32);
        assert_eq!(pe.peek(10 * PAGE_BYTES, 32), vec![7u8; 32]);
        assert!(pe.mram_resident() <= 2 * PAGE_BYTES);
        // Reverse direction, partly unmaterialized source -> zeros.
        pe.copy_within_region(20 * PAGE_BYTES, 64, 16);
        assert_eq!(pe.peek(64, 16), vec![0u8; 16]);
    }

    #[test]
    fn interleave_blocks_is_the_row_major_view_of_column_blocks() {
        // Three blocks of two 2-byte rows -> two rows of three cells.
        let mut pe = Pe::new();
        pe.write(64, &[1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]);
        pe.interleave_blocks(64, 0, 3, 2, 2);
        assert_eq!(pe.read(0, 12), &[1, 1, 3, 3, 5, 5, 2, 2, 4, 4, 6, 6]);
        assert_eq!(pe.mram_used(), 76);
        // One block is a plain copy; a never-written source reads as zeros
        // and stays unmaterialized.
        pe.interleave_blocks(0, 32, 1, 2, 6);
        assert_eq!(pe.peek(32, 12), pe.peek(0, 12));
        pe.interleave_blocks(20 * PAGE_BYTES, 0, 3, 2, 2);
        assert_eq!(pe.peek(0, 12), vec![0u8; 12]);
        assert_eq!(pe.mram_resident(), PAGE_BYTES);
    }

    #[test]
    fn verified_landing_records_exactly_a_digest_mismatch() {
        use crate::fault::{FaultKind, FaultPlan};
        use std::sync::Arc;

        let kinds = [
            None,
            Some(FaultKind::BitFlip),
            Some(FaultKind::RowCorrupt),
            Some(FaultKind::Stuck),
        ];
        for len in [8, 24, PAGE_BYTES + 8] {
            let src: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            for kind in kinds {
                let plan = kind
                    .into_iter()
                    .fold(FaultPlan::new(9), |plan, kind| plan.with_event(kind, 3, 1));
                assert_eq!(plan.begin_epoch(), 1);
                let mut pe = Pe::new();
                // What a stuck PE keeps: the landing is dropped.
                pe.write(40, &vec![0xEE; len]);
                pe.set_fault_ctx(Some(FaultCtx::new(3, Arc::new(plan))));
                pe.set_verify(true);
                pe.write(40, &src);

                // The definition: an event iff the digests of the intended
                // bytes and of the bytes actually landed differ.
                let landed = pe.peek(40, len);
                assert_eq!(landed != src, kind.is_some(), "{kind:?} at {len} B");
                let (expected, found) = (fault::fnv1a(&src), fault::fnv1a(&landed));
                let want = (expected != found).then_some(CorruptionEvent {
                    pe: 3,
                    offset: 40,
                    len,
                    expected,
                    found,
                    epoch: 1,
                });
                assert_eq!(want.is_some(), kind.is_some(), "{kind:?} at {len} B");
                assert_eq!(pe.take_corruption(), want, "{kind:?} at {len} B");
            }
        }
    }

    #[test]
    fn runs_stay_sorted_and_grow_one_at_a_time() {
        let mut pe = Pe::new();
        pe.write(0, &[1; 8 * PAGE_BYTES]);
        pe.reset();
        let runs = |pe: &Pe| -> Vec<(Range<usize>, bool, usize)> {
            let s = &pe.segs[0];
            (s.runs.iter())
                .map(|r| (r.pages.clone(), r.image.is_some(), s.runs.capacity()))
                .collect()
        };
        assert_eq!(runs(&pe), [(0..8, false, 1)]);
        // A few bytes on page 3 own it: the zero run splits in two.
        pe.write(3 * PAGE_BYTES + 8, &[1; 8]);
        assert_eq!(runs(&pe), [(0..3, false, 2), (4..8, false, 2)]);
        // An image over pages 5-6 cuts the second run around itself.
        let image: Arc<[u8]> = vec![7; 2 * PAGE_BYTES].into();
        pe.write_shared(5 * PAGE_BYTES, &image, Landing::Row);
        let want = [(0..3, false), (4..5, false), (5..7, true), (7..8, false)];
        assert_eq!(runs(&pe), want.map(|(p, i)| (p, i, 4)));
        assert_eq!(size_of::<Segment>(), 7 * size_of::<usize>());
    }

    #[test]
    fn try_slice_lends_an_image_run_itself_and_declines_zeros() {
        let mut pe = Pe::new();
        pe.write(0, &[1; 4 * PAGE_BYTES]);
        let image: Arc<[u8]> = (0..2 * PAGE_BYTES).map(|i| i as u8 | 1).collect();
        pe.write_shared(PAGE_BYTES, &image, Landing::Row);
        let lent = pe
            .try_slice(PAGE_BYTES + 8, PAGE_BYTES)
            .expect("inside one run");
        assert!(std::ptr::eq(lent, &image[8..PAGE_BYTES + 8]));
        // Across the run's end: no one source holds the range.
        assert!(pe.try_slice(2 * PAGE_BYTES, 2 * PAGE_BYTES).is_none());
        pe.reset();
        assert!(pe.try_slice(PAGE_BYTES, 8).is_none());
        assert_eq!(&*pe.read_window(PAGE_BYTES, 8), &[0; 8]);
    }

    #[test]
    fn try_slice_requires_one_segment() {
        let mut pe = Pe::new();
        pe.write(0, &[1u8; 8]);
        pe.write(5 * PAGE_BYTES, &[2u8; 8]);
        assert!(pe.try_slice(0, 8).is_some());
        assert!(pe.try_slice(0, 2 * PAGE_BYTES).is_none());
        assert!(pe.try_slice(PAGE_BYTES, 8).is_none());
    }
}
