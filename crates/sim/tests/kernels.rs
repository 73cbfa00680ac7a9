//! Seeded property suite for `pim_sim::kernels` over deterministic
//! splitmix64 inputs, across lengths that cover full 64-byte blocks,
//! ragged tails, sub-block sizes and both combined — plus the `Pe`
//! typed-view entry points over page-straddling MRAM regions.
//!
//! A kernel whose body states its definition in a transformed way is
//! pinned byte-for-byte to its per-element scalar twin
//! (`kernels::reference`); a kernel that *is* the per-element loop is
//! pinned to the element-wise definition written here with iterator
//! adapters, sharing no body with `kernels.rs`. Agreement is what lets
//! the apps keep their inner loops without a bit of modeled or functional
//! drift.

use pim_sim::kernels::{self, reference as oracle};
use pim_sim::pe::{Pe, PAGE_BYTES};
use pim_sim::testgen::SplitMix64;
use pim_sim::DType;

/// Element counts covering: empty, single, sub-block, one block exactly
/// (16 i32 / 8 u64 / 64 i8 lanes), block ± 1 and several blocks + tail.
const LENS: [usize; 10] = [0, 1, 3, 8, 15, 16, 17, 64, 100, 257];

fn i32s(g: &mut SplitMix64, n: usize) -> Vec<i32> {
    (0..n).map(|_| g.next_u64() as i32).collect()
}

fn u32s(g: &mut SplitMix64, n: usize) -> Vec<u32> {
    (0..n).map(|_| g.next_u64() as u32).collect()
}

fn u64s(g: &mut SplitMix64, n: usize) -> Vec<u64> {
    (0..n).map(|_| g.next_u64()).collect()
}

const NARROW: [DType; 3] = [DType::I8, DType::I16, DType::I32];

/// The little-endian serialization of a typed run, element by element.
fn le<const W: usize, T: Copy>(vals: &[T], to_le: fn(T) -> [u8; W]) -> Vec<u8> {
    vals.iter().flat_map(|&v| to_le(v)).collect()
}

/// The typed values of a little-endian byte run, element by element.
fn un_le<const W: usize, T>(bytes: &[u8], from_le: fn([u8; W]) -> T) -> Vec<T> {
    let words = bytes.chunks_exact(W);
    words.map(|w| from_le(w.try_into().unwrap())).collect()
}

#[test]
fn codecs_match_scalar_oracles_at_every_length() {
    let mut g = SplitMix64::new(0x1a7e5);
    for n in LENS {
        let bytes = g.bytes(n * 4);
        let mut got = vec![0i32; n];
        kernels::decode_i32(&bytes, &mut got);
        assert_eq!(got, un_le(&bytes, i32::from_le_bytes), "decode_i32 x{n}");

        let vals = i32s(&mut g, n);
        let mut got = vec![0u8; n * 4];
        kernels::encode_i32(&vals, &mut got);
        assert_eq!(got, le(&vals, i32::to_le_bytes), "encode_i32 x{n}");

        let mut got = vec![0u32; n];
        kernels::decode_u32(&bytes, &mut got);
        assert_eq!(got, un_le(&bytes, u32::from_le_bytes), "decode_u32 x{n}");

        let uvals = u32s(&mut g, n);
        let mut got = vec![0u8; n * 4];
        kernels::encode_u32(&uvals, &mut got);
        assert_eq!(got, le(&uvals, u32::to_le_bytes), "encode_u32 x{n}");

        let wide = g.bytes(n * 8);
        let mut got = vec![0u64; n];
        kernels::decode_u64(&wide, &mut got);
        assert_eq!(got, un_le(&wide, u64::from_le_bytes), "decode_u64 x{n}");

        let wvals = u64s(&mut g, n);
        let mut got = vec![0u8; n * 8];
        kernels::encode_u64(&wvals, &mut got);
        assert_eq!(got, le(&wvals, u64::to_le_bytes), "encode_u64 x{n}");
    }
}

#[test]
fn narrow_codecs_match_scalar_oracles() {
    let mut g = SplitMix64::new(0x5ed7);
    for dt in NARROW {
        let w = dt.size_bytes();
        // `encode_trunc` keeps 64-byte blocks (64 one-byte, 32 two-byte
        // elements) beside a tail: add one block +- 1 at either width.
        for n in LENS.into_iter().chain([31, 32, 33, 63, 65]) {
            let bytes = g.bytes(n * w);
            let mut fast = vec![0i32; n];
            let mut slow = vec![0i32; n];
            kernels::decode_sext(dt, &bytes, &mut fast);
            oracle::decode_sext_scalar_ref(dt, &bytes, &mut slow);
            assert_eq!(fast, slow, "decode_sext {dt} x{n}");

            // Truncating encode accepts arbitrary i32s (only the low
            // bytes survive), so feed it unwrapped values too.
            let vals = i32s(&mut g, n);
            let mut fast = vec![0u8; n * w];
            let mut slow = vec![0u8; n * w];
            kernels::encode_trunc(dt, &vals, &mut fast);
            oracle::encode_trunc_scalar_ref(dt, &vals, &mut slow);
            assert_eq!(fast, slow, "encode_trunc {dt} x{n}");

            // decode(encode(wrapped)) is the identity on wrapped values,
            // and encode(decode(bytes)) is the identity on bytes — the
            // property the GNN transpose's pure-byte `copy_rows` rewrite
            // rests on.
            let mut round = vec![0i32; n];
            kernels::decode_sext(dt, &fast, &mut round);
            let mut back = vec![0u8; n * w];
            kernels::encode_trunc(dt, &round, &mut back);
            assert_eq!(back, fast, "byte roundtrip {dt} x{n}");
        }
    }
}

#[test]
fn accumulate_kernels_match_scalar_oracles() {
    let mut g = SplitMix64::new(0xacc);
    for n in LENS {
        for x in [0i32, 1, -3, 0x7335_1234, i32::MIN] {
            let acc0 = i32s(&mut g, n);
            let xs = i32s(&mut g, n);

            let steps = acc0.iter().zip(&xs);
            let want: Vec<i32> = steps
                .map(|(a, s)| a.wrapping_add(x.wrapping_mul(*s)))
                .collect();
            let mut got = acc0.clone();
            kernels::axpy_i32(&mut got, x, &xs);
            assert_eq!(got, want, "axpy_i32 x{n} a={x}");

            // The fused form must equal decode-then-axpy.
            let mut got = acc0.clone();
            kernels::axpy_i32_bytes(&mut got, x, &le(&xs, i32::to_le_bytes));
            assert_eq!(got, want, "axpy_i32_bytes x{n} a={x}");

            for dt in NARROW {
                let mut fast = acc0.clone();
                let mut slow = acc0.clone();
                kernels::axpy_wrap(dt, &mut fast, x, &xs);
                oracle::axpy_wrap_scalar_ref(dt, &mut slow, x, &xs);
                assert_eq!(fast, slow, "axpy_wrap {dt} x{n} a={x}");

                let mut fast = acc0.clone();
                let mut slow = acc0.clone();
                kernels::add_wrap(dt, &mut fast, &xs);
                oracle::add_wrap_scalar_ref(dt, &mut slow, &xs);
                assert_eq!(fast, slow, "add_wrap {dt} x{n}");
            }
        }
    }
}

#[test]
fn panel_product_matches_its_scalar_oracle_and_the_row_axpy_gemm() {
    let mut g = SplitMix64::new(0x9a4e1);
    for dt in [DType::I8, DType::U8, DType::I16, DType::U16, DType::I32] {
        for k in [1usize, 7, 64, 65] {
            for cols in [1usize, 2, 3, 64] {
                for rows in [0usize, 1, 5] {
                    let what = format!("{dt} {rows}x{k} . {k}x{cols}");
                    // Operands at the element width, as the PEs hold them.
                    let mut a = i32s(&mut g, rows * k);
                    let mut w = i32s(&mut g, k * cols); // row-major k x cols
                    kernels::add_wrap(dt, &mut a, &vec![0; rows * k]);
                    kernels::add_wrap(dt, &mut w, &vec![0; k * cols]);
                    let wt: Vec<i32> = (0..cols * k).map(|i| w[(i % k) * cols + i / k]).collect();

                    let mut fast = i32s(&mut g, rows * cols); // overwritten
                    let mut slow = vec![0i32; rows * cols];
                    kernels::panel_product_wrap(dt, &mut fast, &a, &wt, k);
                    oracle::panel_product_wrap_scalar_ref(dt, &mut slow, &a, &wt, k);
                    assert_eq!(fast, slow, "{what}: oracle");

                    // The formulation the GNN's CPU reference keeps.
                    let mut gemm = vec![0i32; rows * cols];
                    for r in 0..rows {
                        for j in 0..k {
                            let acc = &mut gemm[r * cols..(r + 1) * cols];
                            kernels::axpy_wrap(dt, acc, a[r * k + j], &w[j * cols..(j + 1) * cols]);
                        }
                    }
                    assert_eq!(fast, gemm, "{what}: row axpy");
                }
            }
        }
    }
}

#[test]
fn map_kernels_match_scalar_oracles() {
    let mut g = SplitMix64::new(0xf1a9);
    for n in LENS {
        let vals = i32s(&mut g, n);
        let want: Vec<i32> = vals.iter().map(|&v| if v < 0 { 0 } else { v }).collect();
        let mut got = vals.clone();
        kernels::relu_i32(&mut got);
        assert_eq!(got, want, "relu x{n}");

        let src = i32s(&mut g, n);
        let pairs = vals.iter().zip(&src);
        let want: Vec<i32> = pairs.map(|(&a, &s)| if s > a { s } else { a }).collect();
        let mut got = vals;
        kernels::max_i32(&mut got, &src);
        assert_eq!(got, want, "max x{n}");
    }
}

#[test]
fn bitmap_kernels_match_scalar_oracles() {
    let mut g = SplitMix64::new(0xb17);
    // Byte lengths: ragged tails exercise both the 64-byte OR blocks and
    // the u64 word scan's remainder path.
    for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 200, 1024] {
        let acc0 = g.bytes(n);
        let src = g.bytes(n);
        let mut fast = acc0.clone();
        let mut slow = acc0.clone();
        kernels::bitmap_or(&mut fast, &src);
        oracle::bitmap_or_scalar_ref(&mut slow, &src);
        assert_eq!(fast, slow, "bitmap_or x{n}");

        // New-bit scan: `fast` (the OR) vs the old bitmap must visit the
        // same positions in the same ascending order as the per-bit scan.
        let mut got = Vec::new();
        let mut want = Vec::new();
        kernels::for_each_new_bit(&fast, &acc0, |v| got.push(v));
        oracle::for_each_new_bit_scalar_ref(&fast, &acc0, |v| want.push(v));
        assert_eq!(got, want, "for_each_new_bit x{n}");
        assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending order x{n}");
    }
}

#[test]
fn copy_rows_matches_scalar_oracle() {
    let mut g = SplitMix64::new(0xc0b);
    for (rows, row_bytes, src_pitch, dst_pitch, src_off, dst_off) in [
        (0usize, 8usize, 8usize, 8usize, 0usize, 0usize),
        (4, 0, 3, 5, 1, 2),
        (1, 5, 5, 5, 0, 3),
        (7, 12, 20, 12, 4, 0),   // gather: strided -> packed
        (7, 12, 12, 40, 0, 16),  // scatter: packed -> strided
        (16, 64, 96, 64, 32, 0), // block-sized rows
        (5, 17, 17, 33, 2, 1),   // ragged everything
        // Around the lane word, which moves as a register: packed and
        // strided, aligned and not.
        (9, 1, 1, 3, 0, 2),
        (9, 2, 2, 8, 1, 0),
        (9, 4, 12, 4, 0, 4),
        (9, 8, 8, 256, 0, 24),
        (9, 8, 11, 8, 3, 5),
        (9, 16, 16, 40, 8, 0),
    ] {
        let src = g.bytes(src_off + rows.saturating_sub(1) * src_pitch + row_bytes + 8);
        let dst0 = g.bytes(dst_off + rows.saturating_sub(1) * dst_pitch + row_bytes + 8);
        let mut fast = dst0.clone();
        let mut slow = dst0;
        kernels::copy_rows(
            &mut fast, dst_off, dst_pitch, &src, src_off, src_pitch, row_bytes, rows,
        );
        oracle::copy_rows_scalar_ref(
            &mut slow, dst_off, dst_pitch, &src, src_off, src_pitch, row_bytes, rows,
        );
        assert_eq!(fast, slow, "copy_rows {rows}x{row_bytes}");
    }
}

#[test]
fn pe_typed_views_roundtrip_across_page_boundaries() {
    let mut g = SplitMix64::new(0x9e9e);
    // Offsets placed so the typed runs straddle page boundaries, start
    // unaligned, and span previously-untouched MRAM.
    for offset in [
        0usize,
        4,
        60,
        PAGE_BYTES - 4,
        PAGE_BYTES - 100,
        3 * PAGE_BYTES - 8,
    ] {
        for n in [1usize, 16, 17, (PAGE_BYTES / 4) + 9] {
            let vals = i32s(&mut g, n);
            let mut pe = Pe::new();
            pe.write_i32s(offset, &vals);
            let mut back = vec![0i32; n];
            pe.read_i32s(offset, &mut back);
            assert_eq!(back, vals, "i32 roundtrip at {offset} x{n}");
            // The bytes in MRAM are the little-endian encoding.
            let expect = le(&vals, i32::to_le_bytes);
            assert_eq!(pe.peek(offset, n * 4), expect, "bytes at {offset} x{n}");

            let uvals = u32s(&mut g, n);
            let mut pe = Pe::new();
            kernels::encode_u32(&uvals, pe.slice_mut(offset, n * 4));
            let mut back = vec![0u32; n];
            pe.read_u32s(offset, &mut back);
            assert_eq!(back, uvals, "u32 roundtrip at {offset} x{n}");

            for dt in NARROW {
                let raw = i32s(&mut g, n);
                let mut pe = Pe::new();
                pe.write_trunc(offset, dt, &raw);
                let mut got = vec![0i32; n];
                pe.read_sext(offset, dt, &mut got);
                let mut bytes = vec![0u8; n * dt.size_bytes()];
                oracle::encode_trunc_scalar_ref(dt, &raw, &mut bytes);
                let mut want = vec![0i32; n];
                oracle::decode_sext_scalar_ref(dt, &bytes, &mut want);
                assert_eq!(got, want, "{dt} view at {offset} x{n}");
            }
        }
    }
}

#[test]
fn pe_typed_reads_of_untouched_mram_are_zero() {
    let mut pe = Pe::new();
    // A read that spans one materialized island and the gaps around it.
    pe.write_i32s(PAGE_BYTES, &[7, -7]);
    let mut out = vec![1i32; 16];
    pe.read_i32s(PAGE_BYTES - 16, &mut out);
    let mut want = vec![0i32; 16];
    want[4] = 7;
    want[5] = -7;
    assert_eq!(out, want);
}
