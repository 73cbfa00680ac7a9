//! Typed-lane kernel library for the single-PE hot loops of the benchmark
//! applications.
//!
//! After the host-kernel executor parallelized the apps' per-PE loops
//! *across* PEs, the remaining serial wall is what happens *inside* one
//! work item: per-element `i32::from_le_bytes` decode loops, scalar
//! accumulate / pool / ReLU passes and per-cell `Vec` churn. This module
//! gives those loops the same treatment the PR 2 `reduce_bytes` rewrite
//! gave the collective engine's reductions — safe, allocation-free kernels
//! over contiguous typed lanes, shaped so LLVM autovectorizes them.
//!
//! # The autovectorization contract
//!
//! Every kernel except the fixed-width codecs (`decode` / `encode` of
//! `i32`, `u32`, `u64`: a per-element loop, which measured faster than its
//! blocked form) processes its bulk in **64-byte blocks** (one cache line,
//! and one PIM burst — the natural granule of everything in this
//! simulator) decoded into fixed-width native-typed lane arrays:
//!
//! * the per-lane loops have **compile-time trip counts** (`for i in 0..L`
//!   with `L` a constant), so LLVM fully unrolls them and lowers the lane
//!   array to vector registers — no runtime bound checks survive;
//! * lane arrays live on the stack and never escape, so nothing aliases
//!   and the loads/stores batch into wide moves;
//! * a scalar tail handles the ragged remainder, which keeps every kernel
//!   correct at **any** length and alignment (the property suite pins
//!   this against the scalar oracles below).
//!
//! **Why not `std::simd`?** Portable SIMD is still nightly-only and this
//! repository pins a stable toolchain in an offline container; more
//! importantly, the chunked-lane shape already gets the same codegen —
//! the PR 2 `reduce_bytes` rewrite measured 2–7x from exactly this
//! pattern, with zero `unsafe` and zero feature gates. The contract is
//! *shape*, not intrinsics.
//!
//! # Scalar oracles
//!
//! [`reference`] holds a per-element scalar twin of every kernel — the
//! loop shape the applications used before this module existed. They are
//! the semantic source of truth: `crates/sim/tests/kernels.rs` pins every
//! kernel to its oracle byte-for-byte over seeded inputs at many lengths
//! and alignments, and `benches/primitives.rs` times each pair so the
//! speedup stays visible in the trajectory. All arithmetic is wrapping
//! (like the PEs' fixed-width ALUs), so lane-blocked accumulation orders
//! are *bit-identical* to the sequential oracles, not merely close.
//!
//! Zero-copy entry points over PE memory live on [`crate::pe::Pe`]
//! (`read_i32s` / `write_i32s` / `read_sext` / `write_trunc`): decodes
//! borrow the materialized segment directly and encodes write straight
//! into MRAM, so staging `Vec`s disappear from the apps' inner loops.

use crate::dtype::DType;
use crate::geometry::LANE_BYTES;

/// Lane count for 4-byte elements: one 64-byte block.
const L32: usize = 16;

// Everything from here to the `reference` module runs once per PE per
// app iteration; simlint's hot-alloc lint keeps the region allocation-free
// (the PR 4 contract). Scratch belongs in callers' par_pes_with init.
// simlint: hot(begin, typed-lane kernels)
macro_rules! codec {
    ($decode:ident, $encode:ident, $ty:ty, $w:expr) => {
        /// Decodes little-endian elements from `src` into `dst`. The
        /// per-element loop is the whole kernel: LLVM vectorizes it as it
        /// stands, and the 64-byte blocked form measured 0.63–0.97x of it.
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

        /// Encodes `src` into little-endian bytes in `dst`, element by
        /// element (see the decoder).
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
            let mut sb = src.chunks_exact(64);
            let mut db = dst.chunks_exact_mut(64);
            for (s, d) in sb.by_ref().zip(db.by_ref()) {
                for i in 0..64 {
                    d[i] = s[i] as i8 as i32;
                }
            }
            for (s, d) in sb.remainder().iter().zip(db.into_remainder()) {
                *d = *s as i8 as i32;
            }
        }
        2 => {
            assert_eq!(src.len(), dst.len() * 2, "decode length mismatch");
            let mut sb = src.chunks_exact(64);
            let mut db = dst.chunks_exact_mut(32);
            for (s, d) in sb.by_ref().zip(db.by_ref()) {
                for i in 0..32 {
                    d[i] = i16::from_le_bytes(s[i * 2..(i + 1) * 2].try_into().unwrap()) as i32;
                }
            }
            for (s, d) in sb
                .remainder()
                .chunks_exact(2)
                .zip(db.into_remainder().iter_mut())
            {
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
    let mut ab = acc.chunks_exact_mut(L32);
    let mut sb = xs.chunks_exact(L32);
    for (a, s) in ab.by_ref().zip(sb.by_ref()) {
        for i in 0..L32 {
            a[i] = a[i].wrapping_add(x.wrapping_mul(s[i]));
        }
    }
    for (a, s) in ab.into_remainder().iter_mut().zip(sb.remainder()) {
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
    let mut ab = acc.chunks_exact_mut(L32);
    let mut sb = src.chunks_exact(64);
    for (a, s) in ab.by_ref().zip(sb.by_ref()) {
        let mut sv = [0i32; L32];
        for i in 0..L32 {
            sv[i] = i32::from_le_bytes(s[i * 4..(i + 1) * 4].try_into().unwrap());
        }
        for i in 0..L32 {
            a[i] = a[i].wrapping_add(x.wrapping_mul(sv[i]));
        }
    }
    for (a, s) in ab
        .into_remainder()
        .iter_mut()
        .zip(sb.remainder().chunks_exact(4))
    {
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
    let mut ab = acc.chunks_exact_mut(L32);
    let mut sb = src.chunks_exact(L32);
    for (a, s) in ab.by_ref().zip(sb.by_ref()) {
        for i in 0..L32 {
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
/// loop.
///
/// # Panics
///
/// Panics if the lengths differ or `dtype` is wider than 4 bytes.
pub fn add_wrap(dtype: DType, acc: &mut [i32], src: &[i32]) {
    assert_eq!(acc.len(), src.len(), "add_wrap length mismatch");
    width_dispatch!(dtype, add_wrap_impl(acc, src))
}

fn axpy_wrap_impl<const SHIFT: u32>(acc: &mut [i32], x: i32, xs: &[i32]) {
    let mut ab = acc.chunks_exact_mut(L32);
    let mut sb = xs.chunks_exact(L32);
    for (a, s) in ab.by_ref().zip(sb.by_ref()) {
        for i in 0..L32 {
            a[i] = wrap32::<SHIFT>(a[i].wrapping_add(x.wrapping_mul(s[i])));
        }
    }
    for (a, s) in ab.into_remainder().iter_mut().zip(sb.remainder()) {
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

/// Wrapping dot product of two equal-length rows, sixteen independent
/// lane sums wide (integer addition commutes, so the lane order is
/// bit-identical to the sequential sum).
#[inline]
fn dot_i32(a: &[i32], b: &[i32]) -> i32 {
    let mut lanes = [0i32; L32];
    let mut ab = a.chunks_exact(L32);
    let mut bb = b.chunks_exact(L32);
    for (x, y) in ab.by_ref().zip(bb.by_ref()) {
        for i in 0..L32 {
            lanes[i] = lanes[i].wrapping_add(x[i].wrapping_mul(y[i]));
        }
    }
    let tail = ab.remainder().iter().zip(bb.remainder());
    let tail = tail.fold(0i32, |s, (x, y)| s.wrapping_add(x.wrapping_mul(*y)));
    lanes.iter().fold(tail, |s, v| s.wrapping_add(*v))
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
    let mut xb = xs.chunks_exact_mut(L32);
    for x in xb.by_ref() {
        for v in x.iter_mut() {
            *v = (*v).max(0);
        }
    }
    for x in xb.into_remainder() {
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
    let mut ab = acc.chunks_exact_mut(L32);
    let mut sb = src.chunks_exact(L32);
    for (a, s) in ab.by_ref().zip(sb.by_ref()) {
        for i in 0..L32 {
            a[i] = a[i].max(s[i]);
        }
    }
    for (a, s) in ab.into_remainder().iter_mut().zip(sb.remainder()) {
        *a = (*a).max(*s);
    }
}

/// Bitwise OR of two bitmaps: `acc[i] |= src[i]` — the frontier-merge
/// step of BFS/CC-style bitmap algorithms.
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
/// word instead of one per bit.
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

/// Per-element scalar twins of every kernel — the loop shapes the
/// applications ran before this module existed. They are the oracles the
/// property suite (`crates/sim/tests/kernels.rs`) pins the blocked
/// kernels against and the baselines the microbenches
/// (`benches/primitives.rs`) measure them over; they are not meant to be
/// called from production paths.
pub mod reference {
    use crate::dtype::DType;

    /// Scalar twin of [`super::decode_i32`].
    pub fn decode_i32_scalar_ref(src: &[u8], dst: &mut [i32]) {
        assert_eq!(src.len(), dst.len() * 4, "decode length mismatch");
        for (s, d) in src.chunks_exact(4).zip(dst) {
            *d = i32::from_le_bytes(s.try_into().unwrap());
        }
    }

    /// Scalar twin of [`super::encode_i32`] (the apps'
    /// `flat_map(to_le_bytes).collect` shape, without the allocation).
    pub fn encode_i32_scalar_ref(src: &[i32], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len() * 4, "encode length mismatch");
        for (s, d) in src.iter().zip(dst.chunks_exact_mut(4)) {
            d.copy_from_slice(&s.to_le_bytes());
        }
    }

    /// Scalar twin of [`super::decode_u32`].
    pub fn decode_u32_scalar_ref(src: &[u8], dst: &mut [u32]) {
        assert_eq!(src.len(), dst.len() * 4, "decode length mismatch");
        for (s, d) in src.chunks_exact(4).zip(dst) {
            *d = u32::from_le_bytes(s.try_into().unwrap());
        }
    }

    /// Scalar twin of [`super::encode_u32`].
    pub fn encode_u32_scalar_ref(src: &[u32], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len() * 4, "encode length mismatch");
        for (s, d) in src.iter().zip(dst.chunks_exact_mut(4)) {
            d.copy_from_slice(&s.to_le_bytes());
        }
    }

    /// Scalar twin of [`super::decode_u64`].
    pub fn decode_u64_scalar_ref(src: &[u8], dst: &mut [u64]) {
        assert_eq!(src.len(), dst.len() * 8, "decode length mismatch");
        for (s, d) in src.chunks_exact(8).zip(dst) {
            *d = u64::from_le_bytes(s.try_into().unwrap());
        }
    }

    /// Scalar twin of [`super::encode_u64`].
    pub fn encode_u64_scalar_ref(src: &[u64], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len() * 8, "encode length mismatch");
        for (s, d) in src.iter().zip(dst.chunks_exact_mut(8)) {
            d.copy_from_slice(&s.to_le_bytes());
        }
    }

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

    /// Scalar twin of [`super::axpy_i32`] (the MLP partial-vector inner
    /// loop).
    pub fn axpy_i32_scalar_ref(acc: &mut [i32], x: i32, xs: &[i32]) {
        assert_eq!(acc.len(), xs.len(), "axpy length mismatch");
        for (a, s) in acc.iter_mut().zip(xs) {
            *a = a.wrapping_add(x.wrapping_mul(*s));
        }
    }

    /// Scalar twin of [`super::axpy_i32_bytes`] (decode-per-element, the
    /// seed MLP shape).
    pub fn axpy_i32_bytes_scalar_ref(acc: &mut [i32], x: i32, src: &[u8]) {
        assert_eq!(src.len(), acc.len() * 4, "axpy length mismatch");
        for (a, s) in acc.iter_mut().zip(src.chunks_exact(4)) {
            let v = i32::from_le_bytes(s.try_into().unwrap());
            *a = a.wrapping_add(x.wrapping_mul(v));
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

    /// Scalar twin of [`super::relu_i32`].
    pub fn relu_i32_scalar_ref(xs: &mut [i32]) {
        for x in xs {
            *x = (*x).max(0);
        }
    }

    /// Scalar twin of [`super::max_i32`].
    pub fn max_i32_scalar_ref(acc: &mut [i32], src: &[i32]) {
        assert_eq!(acc.len(), src.len(), "max length mismatch");
        for (a, s) in acc.iter_mut().zip(src) {
            *a = (*a).max(*s);
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
