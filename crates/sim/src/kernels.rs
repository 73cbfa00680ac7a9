//! Typed-lane kernel library for the single-PE hot loops of the benchmark
//! applications: safe, allocation-free loops over contiguous typed lanes
//! (decode / encode, accumulate, pool, bitmap scan, row scatter), so the
//! apps' per-PE work items carry no per-element `Vec` churn.
//!
//! # One body per kernel
//!
//! A kernel is the plain per-element loop — the definition, written once.
//! LLVM vectorizes those loops as they stand, so a 64-byte block loop with
//! a scalar tail next to it is the same code twice. A kernel keeps a
//! transformed body only where a reading says so (the table is in
//! `crates/README.md`, "Kernel bodies"):
//!
//! * the transformed body measured at least 1.5x its own plain loop at
//!   both ~4 Ki and ~64 Ki elements, ten alternating readings:
//!   [`encode_trunc`]'s narrowing blocks and [`for_each_new_bit`]'s 64-bit
//!   word scan;
//! * or the kernel's own benchmark probe (`sim.kernels.*_gelems`) read
//!   worse with the plain loop in at least 9 of 10 alternating
//!   parent/change pairs: [`add_wrap`] and [`bitmap_or`] (~1.3x while
//!   the operands sit in L1, where the blocks unroll twice as wide).
//!
//! [`copy_rows`] moves a row of one lane word as a register inside its
//! single loop. Nothing selects between bodies at build or run time.
//!
//! All arithmetic is wrapping (like the PEs' fixed-width ALUs), so any
//! evaluation order is *bit-identical* to the sequential definition, not
//! merely close.
//!
//! # Scalar oracles
//!
//! [`reference`] holds a per-element twin of every kernel whose body
//! states the definition differently from it (a generic-width codec, a
//! per-step wrap, a bit-at-a-time scan, a byte-at-a-time copy).
//! `crates/sim/tests/kernels.rs` pins each such kernel to its twin
//! byte-for-byte over seeded inputs at many lengths and alignments, and
//! every other kernel to the element-wise definition written in the test.
//!
//! Zero-copy entry points over PE memory live on [`crate::pe::Pe`]
//! (`read_i32s` / `write_i32s` / `read_sext` / `write_trunc`): decodes
//! borrow the materialized segment directly and encodes write straight
//! into MRAM, so staging `Vec`s disappear from the apps' inner loops.

use crate::dtype::DType;
use crate::geometry::LANE_BYTES;

// Everything from here to the `reference` module runs once per PE per
// app iteration; simlint's hot-alloc lint keeps the region allocation-free.
// Scratch belongs in callers' par_pes_with init.
// simlint: hot(begin, typed-lane kernels)
macro_rules! codec {
    ($decode:ident, $encode:ident, $ty:ty, $w:expr) => {
        /// Decodes little-endian elements from `src` into `dst`.
        ///
        /// # Panics
        ///
        /// Panics if `src.len() != dst.len() * size_of::<element>()`.
        pub fn $decode(src: &[u8], dst: &mut [$ty]) {
            assert_eq!(src.len(), dst.len() * $w, "decode length mismatch");
            for (s, d) in src.chunks_exact($w).zip(dst) {
                *d = <$ty>::from_le_bytes(s.try_into().unwrap());
            }
        }

        /// Encodes `src` into little-endian bytes in `dst`.
        ///
        /// # Panics
        ///
        /// Panics if `dst.len() != src.len() * size_of::<element>()`.
        pub fn $encode(src: &[$ty], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len() * $w, "encode length mismatch");
            for (s, d) in src.iter().zip(dst.chunks_exact_mut($w)) {
                d.copy_from_slice(&s.to_le_bytes());
            }
        }
    };
}

codec!(decode_i32, encode_i32, i32, 4);
codec!(decode_u32, encode_u32, u32, 4);
codec!(decode_u64, encode_u64, u64, 8);

/// Sign-extending decode of 1/2/4-byte little-endian elements into `i32`
/// — the typed view the GNN uses for its word-bit sensitivity study
/// (narrow elements behave like fixed-width PE registers).
///
/// # Panics
///
/// Panics if `dtype` is wider than 4 bytes or if
/// `src.len() != dst.len() * dtype.size_bytes()`.
pub fn decode_sext(dtype: DType, src: &[u8], dst: &mut [i32]) {
    match dtype.size_bytes() {
        1 => {
            assert_eq!(src.len(), dst.len(), "decode length mismatch");
            for (s, d) in src.iter().zip(dst) {
                *d = *s as i8 as i32;
            }
        }
        2 => {
            assert_eq!(src.len(), dst.len() * 2, "decode length mismatch");
            for (s, d) in src.chunks_exact(2).zip(dst) {
                *d = i16::from_le_bytes(s.try_into().unwrap()) as i32;
            }
        }
        4 => decode_i32(src, dst),
        w => panic!("decode_sext supports 1/2/4-byte elements, got {w}"),
    }
}

/// Truncating encode of `i32` values to 1/2/4-byte little-endian elements
/// (the low bytes, exactly what storing through a narrow PE register
/// would keep). Inverse of [`decode_sext`] for values that fit the width.
/// The narrowing arms run in 64-byte blocks with a tail: the plain loop
/// measured 2.6x (1 byte) and 1.7x (2 bytes) slower.
///
/// # Panics
///
/// Panics if `dtype` is wider than 4 bytes or if
/// `dst.len() != src.len() * dtype.size_bytes()`.
pub fn encode_trunc(dtype: DType, src: &[i32], dst: &mut [u8]) {
    match dtype.size_bytes() {
        1 => {
            assert_eq!(dst.len(), src.len(), "encode length mismatch");
            let mut sb = src.chunks_exact(64);
            let mut db = dst.chunks_exact_mut(64);
            for (s, d) in sb.by_ref().zip(db.by_ref()) {
                for i in 0..64 {
                    d[i] = s[i] as u8;
                }
            }
            for (s, d) in sb.remainder().iter().zip(db.into_remainder()) {
                *d = *s as u8;
            }
        }
        2 => {
            assert_eq!(dst.len(), src.len() * 2, "encode length mismatch");
            let mut sb = src.chunks_exact(32);
            let mut db = dst.chunks_exact_mut(64);
            for (s, d) in sb.by_ref().zip(db.by_ref()) {
                for i in 0..32 {
                    d[i * 2..(i + 1) * 2].copy_from_slice(&(s[i] as i16).to_le_bytes());
                }
            }
            for (s, d) in sb
                .remainder()
                .iter()
                .zip(db.into_remainder().chunks_exact_mut(2))
            {
                d.copy_from_slice(&(*s as i16).to_le_bytes());
            }
        }
        4 => encode_i32(src, dst),
        w => panic!("encode_trunc supports 1/2/4-byte elements, got {w}"),
    }
}

/// Wrapping partial-vector accumulate `acc[i] += x * xs[i]` — one column
/// step of a blocked gemv (the MLP layer kernel runs one call per owned
/// nonzero activation, over the full `f`-length partial vector).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn axpy_i32(acc: &mut [i32], x: i32, xs: &[i32]) {
    assert_eq!(acc.len(), xs.len(), "axpy length mismatch");
    for (a, s) in acc.iter_mut().zip(xs) {
        *a = a.wrapping_add(x.wrapping_mul(*s));
    }
}

/// As [`axpy_i32`], fused with the little-endian decode of the column:
/// `acc[i] += x * le_i32(src[4i..])`. This is the MLP inner loop run
/// directly over the weight column bytes staged in PE MRAM — no
/// intermediate decode buffer.
///
/// # Panics
///
/// Panics if `src.len() != acc.len() * 4`.
pub fn axpy_i32_bytes(acc: &mut [i32], x: i32, src: &[u8]) {
    assert_eq!(src.len(), acc.len() * 4, "axpy length mismatch");
    for (a, s) in acc.iter_mut().zip(src.chunks_exact(4)) {
        *a = a.wrapping_add(x.wrapping_mul(i32::from_le_bytes(s.try_into().unwrap())));
    }
}

/// Wraps `v` to the low `dtype` bytes, sign-extended — the fixed-width PE
/// register semantics of the GNN's narrow-element arithmetic. `SHIFT` is
/// `32 - 8 * width`, so width 4 is the identity.
#[inline(always)]
fn wrap32<const SHIFT: u32>(v: i32) -> i32 {
    (v << SHIFT) >> SHIFT
}

macro_rules! width_dispatch {
    ($dtype:expr, $call:ident ( $($arg:expr),* )) => {
        match $dtype.size_bytes() {
            1 => $call::<24>($($arg),*),
            2 => $call::<16>($($arg),*),
            4 => $call::<0>($($arg),*),
            w => panic!("typed-lane kernels support 1/2/4-byte elements, got {w}"),
        }
    };
}

fn add_wrap_impl<const SHIFT: u32>(acc: &mut [i32], src: &[i32]) {
    let mut ab = acc.chunks_exact_mut(16);
    let mut sb = src.chunks_exact(16);
    for (a, s) in ab.by_ref().zip(sb.by_ref()) {
        for i in 0..16 {
            a[i] = wrap32::<SHIFT>(a[i].wrapping_add(s[i]));
        }
    }
    for (a, s) in ab.into_remainder().iter_mut().zip(sb.remainder()) {
        *a = wrap32::<SHIFT>(a.wrapping_add(*s));
    }
}

/// Element-wise wrapping accumulate at the declared element width:
/// `acc[i] = wrap(acc[i] + src[i])` — the segment-sum step of the GNN
/// aggregation (`partial.row(u) += F.row(v)`) and of any row-pooling
/// loop. Runs in 16-lane blocks with a tail: as the plain loop,
/// `sim.kernels.add_wrap_gelems` read 0.77x in 10 of 10 pairs.
///
/// # Panics
///
/// Panics if the lengths differ or `dtype` is wider than 4 bytes.
pub fn add_wrap(dtype: DType, acc: &mut [i32], src: &[i32]) {
    assert_eq!(acc.len(), src.len(), "add_wrap length mismatch");
    width_dispatch!(dtype, add_wrap_impl(acc, src))
}

fn axpy_wrap_impl<const SHIFT: u32>(acc: &mut [i32], x: i32, xs: &[i32]) {
    for (a, s) in acc.iter_mut().zip(xs) {
        *a = wrap32::<SHIFT>(a.wrapping_add(x.wrapping_mul(*s)));
    }
}

/// [`axpy_i32`] at the declared element width, wrapping every
/// multiply-accumulate to it: `acc[i] = wrap(acc[i] + x * xs[i])` — one
/// row step of the GNN combination gemm.
///
/// # Panics
///
/// Panics if the lengths differ or `dtype` is wider than 4 bytes.
pub fn axpy_wrap(dtype: DType, acc: &mut [i32], x: i32, xs: &[i32]) {
    assert_eq!(acc.len(), xs.len(), "axpy_wrap length mismatch");
    width_dispatch!(dtype, axpy_wrap_impl(acc, x, xs))
}

/// Wrapping dot product of two equal-length rows.
#[inline]
fn dot_i32(a: &[i32], b: &[i32]) -> i32 {
    let pairs = a.iter().zip(b);
    pairs.fold(0i32, |s, (x, y)| s.wrapping_add(x.wrapping_mul(*y)))
}

fn panel_product_impl<const SHIFT: u32>(out: &mut [i32], a: &[i32], bt: &[i32], k: usize) {
    let cols = bt.len() / k;
    if cols == 0 {
        return;
    }
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(cols)) {
        for (o, b_row) in out_row.iter_mut().zip(bt.chunks_exact(k)) {
            *o = wrap32::<SHIFT>(dot_i32(a_row, b_row));
        }
    }
}

/// Panel product at the declared element width:
/// `out[r][c] = wrap(Σ_j a[r][j] · bt[c][j])` over rows of `k` elements —
/// `a` is `rows × k`, the weight panel `bt` is given *transposed*
/// (`cols × k`), so both operands stream contiguously, and `out` is
/// `rows × cols`, overwritten. This is the GNN combination gemm as dot
/// products; wrapping once at the end equals [`axpy_wrap`]'s wrap after
/// every step, because truncation to the element width is a ring
/// homomorphism.
///
/// # Panics
///
/// Panics if `k == 0`, `a` or `bt` is not whole rows of `k`,
/// `out.len() != rows * cols`, or `dtype` is wider than 4 bytes.
pub fn panel_product_wrap(dtype: DType, out: &mut [i32], a: &[i32], bt: &[i32], k: usize) {
    assert!(k > 0, "panel rows must not be empty");
    assert!(
        a.len().is_multiple_of(k) && bt.len().is_multiple_of(k),
        "panel operands must be whole rows of {k}"
    );
    assert_eq!(
        out.len(),
        (a.len() / k) * (bt.len() / k),
        "panel product length mismatch"
    );
    width_dispatch!(dtype, panel_product_impl(out, a, bt, k))
}

/// Element-wise ReLU in place: `xs[i] = max(xs[i], 0)`.
pub fn relu_i32(xs: &mut [i32]) {
    for x in xs {
        *x = (*x).max(0);
    }
}

/// Element-wise max pooling step: `acc[i] = max(acc[i], src[i])`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn max_i32(acc: &mut [i32], src: &[i32]) {
    assert_eq!(acc.len(), src.len(), "max length mismatch");
    for (a, s) in acc.iter_mut().zip(src) {
        *a = (*a).max(*s);
    }
}

/// Bitwise OR of two bitmaps: `acc[i] |= src[i]` — the frontier-merge
/// step of BFS/CC-style bitmap algorithms. Runs in 64-byte blocks with a
/// tail: as the plain loop, `sim.kernels.bitmap_or_gelems` read 0.83x in
/// 9 of 10 pairs.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn bitmap_or(acc: &mut [u8], src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "bitmap length mismatch");
    let mut ab = acc.chunks_exact_mut(64);
    let mut sb = src.chunks_exact(64);
    for (a, s) in ab.by_ref().zip(sb.by_ref()) {
        for i in 0..64 {
            a[i] |= s[i];
        }
    }
    for (a, s) in ab.into_remainder().iter_mut().zip(sb.remainder()) {
        *a |= *s;
    }
}

/// Visits, in ascending order, every bit position set in `news` but not
/// in `olds` — the frontier-expansion scan of BFS (newly visited
/// vertices). Bit `v` lives at `bitmap[v / 8] & (1 << (v % 8))`, matching
/// the apps' layout. The bulk runs 64 bits at a time on `u64` words with
/// `trailing_zeros`, so a mostly-unchanged bitmap costs one compare per
/// word instead of one per byte (2.6-6.5x the byte loop).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn for_each_new_bit(news: &[u8], olds: &[u8], mut f: impl FnMut(usize)) {
    assert_eq!(news.len(), olds.len(), "bitmap length mismatch");
    let mut nb = news.chunks_exact(8);
    let mut ob = olds.chunks_exact(8);
    let mut base = 0usize;
    for (n, o) in nb.by_ref().zip(ob.by_ref()) {
        let mut diff =
            u64::from_le_bytes(n.try_into().unwrap()) & !u64::from_le_bytes(o.try_into().unwrap());
        while diff != 0 {
            f(base + diff.trailing_zeros() as usize);
            diff &= diff - 1;
        }
        base += 64;
    }
    for (i, (n, o)) in nb.remainder().iter().zip(ob.remainder()).enumerate() {
        let mut diff = n & !o;
        while diff != 0 {
            f(base + i * 8 + diff.trailing_zeros() as usize);
            diff &= diff.wrapping_sub(1);
        }
    }
}

/// Copies `rows` rows of `row_bytes` bytes from a strided layout in `src`
/// (consecutive rows `src_pitch` bytes apart, starting at `src_off`) to a
/// strided layout in `dst` — the typed scatter/gather between staged
/// row-major blocks and column-block-major collective payloads (the GNN
/// AllGather interleave). Each row is one `copy_from_slice`, except a row
/// of exactly one lane word — the interleave's row at the fig15 shape —
/// which moves as a register like [`crate::pe::WriteWindow::put`]'s.
///
/// # Panics
///
/// Panics if a pitch is smaller than the row or either layout overruns
/// its slice.
#[allow(clippy::too_many_arguments)] // two (slice, offset, pitch) views + a row shape
pub fn copy_rows(
    dst: &mut [u8],
    dst_off: usize,
    dst_pitch: usize,
    src: &[u8],
    src_off: usize,
    src_pitch: usize,
    row_bytes: usize,
    rows: usize,
) {
    if rows == 0 || row_bytes == 0 {
        return;
    }
    assert!(
        dst_pitch >= row_bytes && src_pitch >= row_bytes,
        "row pitch smaller than the row"
    );
    assert!(
        src_off + (rows - 1) * src_pitch + row_bytes <= src.len(),
        "source rows overrun the slice"
    );
    assert!(
        dst_off + (rows - 1) * dst_pitch + row_bytes <= dst.len(),
        "destination rows overrun the slice"
    );
    for r in 0..rows {
        let from = &src[src_off + r * src_pitch..][..row_bytes];
        let to = &mut dst[dst_off + r * dst_pitch..][..row_bytes];
        match <&mut [u8; LANE_BYTES]>::try_from(&mut *to) {
            Ok(word) => *word = from.try_into().expect("same length"),
            Err(_) => to.copy_from_slice(from),
        }
    }
}

// simlint: hot(end)

/// Per-element scalar twins of the kernels whose bodies state the
/// definition differently — the loop shapes the applications ran before
/// this module existed. They are the oracles the property suite
/// (`crates/sim/tests/kernels.rs`) pins those kernels against; a kernel
/// that *is* the per-element loop has no twin. Not meant to be called
/// from production paths.
pub mod reference {
    use crate::dtype::DType;

    /// Scalar twin of [`super::decode_sext`] (the GNN's
    /// `mat_from_bytes` per-element sign-extension).
    pub fn decode_sext_scalar_ref(dtype: DType, src: &[u8], dst: &mut [i32]) {
        let w = dtype.size_bytes();
        assert!(w <= 4, "decode_sext supports 1/2/4-byte elements");
        assert_eq!(src.len(), dst.len() * w, "decode length mismatch");
        for (s, d) in src.chunks_exact(w).zip(dst) {
            let mut buf = [0u8; 4];
            buf[..w].copy_from_slice(s);
            let shift = 32 - 8 * w as u32;
            *d = (i32::from_le_bytes(buf) << shift) >> shift;
        }
    }

    /// Scalar twin of [`super::encode_trunc`] (the GNN's `mat_to_bytes`
    /// per-element truncation).
    pub fn encode_trunc_scalar_ref(dtype: DType, src: &[i32], dst: &mut [u8]) {
        let w = dtype.size_bytes();
        assert!(w <= 4, "encode_trunc supports 1/2/4-byte elements");
        assert_eq!(dst.len(), src.len() * w, "encode length mismatch");
        for (s, d) in src.iter().zip(dst.chunks_exact_mut(w)) {
            d.copy_from_slice(&s.to_le_bytes()[..w]);
        }
    }

    fn wrap(v: i32, dtype: DType) -> i32 {
        match dtype.size_bytes() {
            1 => v as i8 as i32,
            2 => v as i16 as i32,
            _ => v,
        }
    }

    /// Scalar twin of [`super::add_wrap`] (the GNN aggregation
    /// element loop).
    pub fn add_wrap_scalar_ref(dtype: DType, acc: &mut [i32], src: &[i32]) {
        assert_eq!(acc.len(), src.len(), "add_wrap length mismatch");
        for (a, s) in acc.iter_mut().zip(src) {
            *a = wrap(a.wrapping_add(*s), dtype);
        }
    }

    /// Scalar twin of [`super::axpy_wrap`] (the GNN combination element
    /// loop).
    pub fn axpy_wrap_scalar_ref(dtype: DType, acc: &mut [i32], x: i32, xs: &[i32]) {
        assert_eq!(acc.len(), xs.len(), "axpy_wrap length mismatch");
        for (a, s) in acc.iter_mut().zip(xs) {
            *a = wrap(a.wrapping_add(x.wrapping_mul(*s)), dtype);
        }
    }

    /// Scalar twin of [`super::panel_product_wrap`]: the triple loop,
    /// wrapping every multiply-accumulate.
    pub fn panel_product_wrap_scalar_ref(
        dtype: DType,
        out: &mut [i32],
        a: &[i32],
        bt: &[i32],
        k: usize,
    ) {
        let (rows, cols) = (a.len() / k, bt.len() / k);
        assert_eq!(out.len(), rows * cols, "panel product length mismatch");
        for r in 0..rows {
            for c in 0..cols {
                let mut sum = 0i32;
                for j in 0..k {
                    sum = wrap(
                        sum.wrapping_add(a[r * k + j].wrapping_mul(bt[c * k + j])),
                        dtype,
                    );
                }
                out[r * cols + c] = sum;
            }
        }
    }

    /// Scalar twin of [`super::bitmap_or`].
    pub fn bitmap_or_scalar_ref(acc: &mut [u8], src: &[u8]) {
        assert_eq!(acc.len(), src.len(), "bitmap length mismatch");
        for (a, s) in acc.iter_mut().zip(src) {
            *a |= *s;
        }
    }

    /// Scalar twin of [`super::for_each_new_bit`] (the apps'
    /// bit-at-a-time frontier scan).
    pub fn for_each_new_bit_scalar_ref(news: &[u8], olds: &[u8], mut f: impl FnMut(usize)) {
        assert_eq!(news.len(), olds.len(), "bitmap length mismatch");
        let get = |bm: &[u8], v: usize| bm[v / 8] & (1 << (v % 8)) != 0;
        for v in 0..news.len() * 8 {
            if get(news, v) && !get(olds, v) {
                f(v);
            }
        }
    }

    /// Scalar twin of [`super::copy_rows`] (byte-at-a-time row
    /// scatter/gather).
    #[allow(clippy::too_many_arguments)] // mirrors the kernel signature
    pub fn copy_rows_scalar_ref(
        dst: &mut [u8],
        dst_off: usize,
        dst_pitch: usize,
        src: &[u8],
        src_off: usize,
        src_pitch: usize,
        row_bytes: usize,
        rows: usize,
    ) {
        for r in 0..rows {
            for b in 0..row_bytes {
                dst[dst_off + r * dst_pitch + b] = src[src_off + r * src_pitch + b];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The exhaustive seeded property suite lives in
    // `crates/sim/tests/kernels.rs`; these are smoke checks of the basic
    // mappings.

    #[test]
    fn codec_roundtrip() {
        let vals: Vec<i32> = (0..37).map(|i| i * -3 + 5).collect();
        let mut bytes = vec![0u8; vals.len() * 4];
        encode_i32(&vals, &mut bytes);
        let mut back = vec![0i32; vals.len()];
        decode_i32(&bytes, &mut back);
        assert_eq!(back, vals);
    }

    #[test]
    fn sext_matches_fixed_width_semantics() {
        let bytes = [0xFFu8, 0x7F, 0x80, 0x01];
        let mut out = vec![0i32; 4];
        decode_sext(DType::I8, &bytes, &mut out);
        assert_eq!(out, vec![-1, 127, -128, 1]);
        let mut out = vec![0i32; 2];
        decode_sext(DType::I16, &bytes, &mut out);
        assert_eq!(out, vec![0x7FFF, 0x0180]);
    }

    #[test]
    fn axpy_accumulates_wrapping() {
        let mut acc = vec![i32::MAX, 1, 2];
        axpy_i32(&mut acc, 2, &[1, 10, 100]);
        assert_eq!(acc, vec![i32::MAX.wrapping_add(2), 21, 202]);
    }

    #[test]
    fn new_bit_scan_matches_layout() {
        let news = [0b1010_0001u8, 0x00, 0x80];
        let olds = [0b0010_0000u8, 0x00, 0x00];
        let mut seen = Vec::new();
        for_each_new_bit(&news, &olds, |v| seen.push(v));
        assert_eq!(seen, vec![0, 7, 23]);
    }

    #[test]
    fn panel_product_is_the_row_axpy_gemm() {
        // 3 x 5 rows against a 2-column panel, at every width; the axpy
        // formulation walks W row by row, the panel kernel W transposed.
        let a: Vec<i32> = (0..15).map(|i| i * 37 - 200).collect();
        let w: Vec<i32> = (0..10).map(|i| 90 - i * 23).collect(); // 5 x 2
        let wt: Vec<i32> = (0..10).map(|i| w[(i % 5) * 2 + i / 5]).collect();
        for dt in [DType::I8, DType::I16, DType::I32] {
            let mut want = vec![0i32; 6];
            for r in 0..3 {
                for j in 0..5 {
                    axpy_wrap(dt, &mut want[r * 2..][..2], a[r * 5 + j], &w[j * 2..][..2]);
                }
            }
            let mut got = vec![-1i32; 6];
            panel_product_wrap(dt, &mut got, &a, &wt, 5);
            assert_eq!(got, want, "{dt}");
            reference::panel_product_wrap_scalar_ref(dt, &mut got, &a, &wt, 5);
            assert_eq!(got, want, "{dt} oracle");
        }
        // No rows, and no panel columns, are empty products.
        panel_product_wrap(DType::I32, &mut [], &[], &wt, 5);
        panel_product_wrap(DType::I32, &mut [], &a, &[], 5);
    }

    #[test]
    fn copy_rows_moves_lane_words_and_ragged_rows_alike() {
        let src: Vec<u8> = (0..64).collect();
        for row_bytes in [1usize, 7, 8, 9] {
            let mut fast = [0xEEu8; 48];
            let mut slow = fast;
            copy_rows(&mut fast, 3, 11, &src, 1, 13, row_bytes, 4);
            reference::copy_rows_scalar_ref(&mut slow, 3, 11, &src, 1, 13, row_bytes, 4);
            assert_eq!(fast, slow, "{row_bytes}-byte rows");
        }
    }

    #[test]
    fn copy_rows_transposes_blocks() {
        // Two 2-byte rows interleaved into a 4-byte-pitch destination.
        let src = [1u8, 2, 3, 4];
        let mut dst = [0u8; 8];
        copy_rows(&mut dst, 2, 4, &src, 0, 2, 2, 2);
        assert_eq!(dst, [0, 0, 1, 2, 0, 0, 3, 4]);
    }
}
