//! Element data types and byte-level reduction arithmetic.
//!
//! The PIM domain stores data as raw bytes spread across the lanes of an
//! entangled group; the host can only interpret multi-byte elements after a
//! domain transfer (see [`crate::domain`]). This module provides the element
//! types supported by the framework and reduction arithmetic that operates
//! directly on byte slices, so both the collective engine and the functional
//! oracles share one implementation.

use core::fmt;

/// Element type of a collective's payload.
///
/// Matches the paper's evaluated granularities (§V-C, §VIII-F): 8/16/32/64-bit
/// signed and unsigned integers. 8-bit elements are special: the host can
/// interpret them without a domain transfer, which lets ReduceScatter and
/// AllReduce skip domain transfer entirely.
///
/// # Examples
///
/// ```
/// use pim_sim::dtype::DType;
///
/// assert_eq!(DType::U32.size_bytes(), 4);
/// assert!(DType::I8.is_byte_sized());
/// assert!(!DType::U64.is_byte_sized());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// Unsigned 8-bit integer.
    U8,
    /// Signed 8-bit integer.
    I8,
    /// Unsigned 16-bit integer.
    U16,
    /// Signed 16-bit integer.
    I16,
    /// Unsigned 32-bit integer.
    U32,
    /// Signed 32-bit integer.
    I32,
    /// Unsigned 64-bit integer.
    U64,
    /// Signed 64-bit integer.
    I64,
}

impl DType {
    /// All supported data types.
    pub const ALL: [DType; 8] = [
        DType::U8,
        DType::I8,
        DType::U16,
        DType::I16,
        DType::U32,
        DType::I32,
        DType::U64,
        DType::I64,
    ];

    /// Size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::U8 | DType::I8 => 1,
            DType::U16 | DType::I16 => 2,
            DType::U32 | DType::I32 => 4,
            DType::U64 | DType::I64 => 8,
        }
    }

    /// Whether elements are single bytes, in which case the host can operate
    /// on PIM-domain data without a domain transfer (§V-C).
    pub fn is_byte_sized(self) -> bool {
        self.size_bytes() == 1
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::U8 => "u8",
            DType::I8 => "i8",
            DType::U16 => "u16",
            DType::I16 => "i16",
            DType::U32 => "u32",
            DType::I32 => "i32",
            DType::U64 => "u64",
            DType::I64 => "i64",
        };
        f.write_str(s)
    }
}

/// Reduction operator applied element-wise by reducing collectives.
///
/// `Sum` wraps on overflow (matching what the AVX-512 integer adds of the
/// reference implementation do). `Or`/`And`/`Xor` are bitwise and therefore
/// independent of element width or signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReduceKind {
    /// Wrapping element-wise addition.
    #[default]
    Sum,
    /// Element-wise minimum (respects signedness).
    Min,
    /// Element-wise maximum (respects signedness).
    Max,
    /// Bitwise OR.
    Or,
    /// Bitwise AND.
    And,
    /// Bitwise XOR.
    Xor,
}

impl ReduceKind {
    /// All supported reduction operators.
    pub const ALL: [ReduceKind; 6] = [
        ReduceKind::Sum,
        ReduceKind::Min,
        ReduceKind::Max,
        ReduceKind::Or,
        ReduceKind::And,
        ReduceKind::Xor,
    ];

    /// Whether folding the same operand twice equals folding it once —
    /// `op(op(a, x), x) == op(a, x)` for every `a` and `x` — so that a
    /// fold may skip bytes it has already folded: `Min`, `Max`, `And` and
    /// `Or`, never `Sum` or `Xor`.
    pub fn is_idempotent(self) -> bool {
        matches!(
            self,
            ReduceKind::Min | ReduceKind::Max | ReduceKind::And | ReduceKind::Or
        )
    }
}

impl fmt::Display for ReduceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReduceKind::Sum => "sum",
            ReduceKind::Min => "min",
            ReduceKind::Max => "max",
            ReduceKind::Or => "or",
            ReduceKind::And => "and",
            ReduceKind::Xor => "xor",
        };
        f.write_str(s)
    }
}

/// Inner reduction loop for one element type and one already-selected
/// operator, structured for LLVM autovectorization: the bulk runs over
/// 64-byte blocks decoded into fixed-width native-typed lanes (everything
/// stays in registers, the per-lane loops have compile-time trip counts),
/// with a scalar tail for the remainder. No `std::simd`, no unsafe.
macro_rules! reduce_lanes {
    ($ty:ty, $acc:expr, $src:expr, $f:expr) => {{
        const W: usize = core::mem::size_of::<$ty>();
        /// Lanes per block: one 64-byte burst / cache line at a time.
        const L: usize = 64 / W;
        let f = $f;
        let mut ab = $acc.chunks_exact_mut(W * L);
        let mut sb = $src.chunks_exact(W * L);
        for (a, s) in ab.by_ref().zip(sb.by_ref()) {
            let mut av = [0 as $ty; L];
            let mut sv = [0 as $ty; L];
            for i in 0..L {
                av[i] = <$ty>::from_le_bytes(a[i * W..(i + 1) * W].try_into().unwrap());
                sv[i] = <$ty>::from_le_bytes(s[i * W..(i + 1) * W].try_into().unwrap());
            }
            for i in 0..L {
                av[i] = f(av[i], sv[i]);
            }
            for i in 0..L {
                a[i * W..(i + 1) * W].copy_from_slice(&av[i].to_le_bytes());
            }
        }
        for (a, s) in ab
            .into_remainder()
            .chunks_exact_mut(W)
            .zip(sb.remainder().chunks_exact(W))
        {
            let av = <$ty>::from_le_bytes(a.try_into().unwrap());
            let sv = <$ty>::from_le_bytes(s.try_into().unwrap());
            a.copy_from_slice(&f(av, sv).to_le_bytes());
        }
    }};
}

/// An element-wise reduction kernel for one already-selected
/// `(operator, element type)` pair: `acc[i] = op(acc[i], src[i])` over
/// little-endian elements. The operands must be equally long and a whole
/// number of elements ([`reduce_bytes`] checks; a hoisting caller must).
pub type ReduceFn = fn(acc: &mut [u8], src: &[u8]);

/// Selects the reduction kernel for `op` over `dtype` — the dispatch of
/// [`reduce_bytes`], hoisted: loops that reduce many small chunks select
/// once and call the kernel directly. Each arm monomorphizes into its own
/// branch-free kernel.
pub fn reducer(op: ReduceKind, dtype: DType) -> ReduceFn {
    macro_rules! typed {
        ($ty:ty) => {
            match op {
                ReduceKind::Sum => {
                    |a, s| reduce_lanes!($ty, a, s, |x: $ty, y: $ty| x.wrapping_add(y))
                }
                ReduceKind::Min => |a, s| reduce_lanes!($ty, a, s, |x: $ty, y: $ty| x.min(y)),
                ReduceKind::Max => |a, s| reduce_lanes!($ty, a, s, |x: $ty, y: $ty| x.max(y)),
                ReduceKind::Or => |a, s| reduce_lanes!($ty, a, s, |x: $ty, y: $ty| x | y),
                ReduceKind::And => |a, s| reduce_lanes!($ty, a, s, |x: $ty, y: $ty| x & y),
                ReduceKind::Xor => |a, s| reduce_lanes!($ty, a, s, |x: $ty, y: $ty| x ^ y),
            }
        };
    }
    match dtype {
        DType::U8 => typed!(u8),
        DType::I8 => typed!(i8),
        DType::U16 => typed!(u16),
        DType::I16 => typed!(i16),
        DType::U32 => typed!(u32),
        DType::I32 => typed!(i32),
        DType::U64 => typed!(u64),
        DType::I64 => typed!(i64),
    }
}

/// Reduces `src` into `acc` element-wise: `acc[i] = op(acc[i], src[i])`.
///
/// Elements are little-endian, matching both the x86 host and the UPMEM PEs.
///
/// # Panics
///
/// Panics if the slice lengths differ or are not a multiple of the element
/// size.
pub fn reduce_bytes(op: ReduceKind, dtype: DType, acc: &mut [u8], src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "reduction operand length mismatch");
    assert_eq!(
        acc.len() % dtype.size_bytes(),
        0,
        "reduction length {} is not a multiple of element size {}",
        acc.len(),
        dtype.size_bytes()
    );
    reducer(op, dtype)(acc, src);
}

/// The identity element of `op` for `dtype`, little-endian in the first
/// `dtype.size_bytes()` bytes of the word.
fn identity_word(op: ReduceKind, dtype: DType) -> [u8; 8] {
    macro_rules! ident {
        ($ty:ty) => {{
            let v: $ty = match op {
                ReduceKind::Sum | ReduceKind::Or | ReduceKind::Xor => 0,
                ReduceKind::Min => <$ty>::MAX,
                ReduceKind::Max => <$ty>::MIN,
                ReduceKind::And => !0,
            };
            let mut word = [0u8; 8];
            word[..core::mem::size_of::<$ty>()].copy_from_slice(&v.to_le_bytes());
            word
        }};
    }
    match dtype {
        DType::U8 => ident!(u8),
        DType::I8 => ident!(i8),
        DType::U16 => ident!(u16),
        DType::I16 => ident!(i16),
        DType::U32 => ident!(u32),
        DType::I32 => ident!(i32),
        DType::U64 => ident!(u64),
        DType::I64 => ident!(i64),
    }
}

/// The identity element of `op` for `dtype`, as `dtype.size_bytes()` bytes.
///
/// Folding any value `v` with the identity yields `v` again, so reducing
/// collectives can seed their accumulators with it.
pub fn identity_bytes(op: ReduceKind, dtype: DType) -> Vec<u8> {
    identity_word(op, dtype)[..dtype.size_bytes()].to_vec()
}

/// Fills `buf` with repeated copies of the identity element, without
/// allocating.
///
/// # Panics
///
/// Panics if `buf.len()` is not a multiple of the element size.
pub fn fill_identity(op: ReduceKind, dtype: DType, buf: &mut [u8]) {
    let word = identity_word(op, dtype);
    let id = &word[..dtype.size_bytes()];
    assert_eq!(
        buf.len() % id.len(),
        0,
        "buffer not a multiple of element size"
    );
    for chunk in buf.chunks_exact_mut(id.len()) {
        chunk.copy_from_slice(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DType::U8.size_bytes(), 1);
        assert_eq!(DType::I16.size_bytes(), 2);
        assert_eq!(DType::I32.size_bytes(), 4);
        assert_eq!(DType::I64.size_bytes(), 8);
    }

    #[test]
    fn sum_wraps() {
        let mut acc = 250u8.to_le_bytes().to_vec();
        let src = 10u8.to_le_bytes().to_vec();
        reduce_bytes(ReduceKind::Sum, DType::U8, &mut acc, &src);
        assert_eq!(acc[0], 4); // 260 mod 256
    }

    #[test]
    fn min_respects_sign() {
        let mut acc = (-5i32).to_le_bytes().to_vec();
        let src = 3i32.to_le_bytes().to_vec();
        reduce_bytes(ReduceKind::Min, DType::I32, &mut acc, &src);
        assert_eq!(i32::from_le_bytes(acc.try_into().unwrap()), -5);

        // Same bit patterns as unsigned: -5 is a huge unsigned value.
        let mut acc = (-5i32 as u32).to_le_bytes().to_vec();
        let src = 3u32.to_le_bytes().to_vec();
        reduce_bytes(ReduceKind::Min, DType::U32, &mut acc, &src);
        assert_eq!(u32::from_le_bytes(acc.try_into().unwrap()), 3);
    }

    #[test]
    fn max_respects_sign() {
        let mut acc = (-5i16).to_le_bytes().to_vec();
        let src = 3i16.to_le_bytes().to_vec();
        reduce_bytes(ReduceKind::Max, DType::I16, &mut acc, &src);
        assert_eq!(i16::from_le_bytes(acc.try_into().unwrap()), 3);
    }

    #[test]
    fn bitwise_ops() {
        let mut acc = 0b1100u64.to_le_bytes().to_vec();
        reduce_bytes(
            ReduceKind::Or,
            DType::U64,
            &mut acc,
            &0b0110u64.to_le_bytes(),
        );
        assert_eq!(u64::from_le_bytes(acc.clone().try_into().unwrap()), 0b1110);
        reduce_bytes(
            ReduceKind::And,
            DType::U64,
            &mut acc,
            &0b0111u64.to_le_bytes(),
        );
        assert_eq!(u64::from_le_bytes(acc.clone().try_into().unwrap()), 0b0110);
        reduce_bytes(
            ReduceKind::Xor,
            DType::U64,
            &mut acc,
            &0b0110u64.to_le_bytes(),
        );
        assert_eq!(u64::from_le_bytes(acc.try_into().unwrap()), 0);
    }

    #[test]
    fn multi_element_slices() {
        let mut acc: Vec<u8> = [1u32, 2, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
        let src: Vec<u8> = [10u32, 20, 30]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        reduce_bytes(ReduceKind::Sum, DType::U32, &mut acc, &src);
        let out: Vec<u32> = acc
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(out, vec![11, 22, 33]);
    }

    #[test]
    fn identity_is_neutral_for_all_ops_and_types() {
        for &op in &ReduceKind::ALL {
            for &dt in &DType::ALL {
                let mut acc = identity_bytes(op, dt);
                let probe: Vec<u8> = (0..dt.size_bytes() as u8).map(|i| 0xA5 ^ i).collect();
                reduce_bytes(op, dt, &mut acc, &probe);
                assert_eq!(acc, probe, "identity not neutral for {op} {dt}");
            }
        }
    }

    #[test]
    fn fill_identity_covers_buffer() {
        let mut buf = vec![7u8; 16];
        fill_identity(ReduceKind::Min, DType::U32, &mut buf);
        assert!(buf.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn chunked_lanes_match_elementwise_reduction() {
        // The 64-byte block path must agree with reducing one element at a
        // time (which only exercises the scalar tail), across lengths that
        // cover full blocks, partial tails and both combined.
        use crate::testgen::SplitMix64;
        let mut g = SplitMix64::new(0xd7);
        for &op in &ReduceKind::ALL {
            for &dt in &DType::ALL {
                let w = dt.size_bytes();
                for elems in [1usize, 3, 8, 15, 16, 17, 64, 65] {
                    let len = elems * w;
                    let mut acc = g.bytes(len);
                    let src = g.bytes(len);
                    let mut expect = acc.clone();
                    for (a, s) in expect.chunks_exact_mut(w).zip(src.chunks_exact(w)) {
                        reduce_bytes(op, dt, a, s);
                    }
                    reduce_bytes(op, dt, &mut acc, &src);
                    assert_eq!(acc, expect, "{op} {dt} x{elems}");
                }
            }
        }
    }

    #[test]
    fn idempotent_exactly_where_folding_twice_is_folding_once() {
        use crate::testgen::SplitMix64;
        let mut g = SplitMix64::new(0x1de);
        for op in ReduceKind::ALL {
            for dt in DType::ALL {
                let twice_is_once = (0..64).all(|_| {
                    let (acc, x) = (g.bytes(64), g.bytes(64));
                    let mut once = acc.clone();
                    reduce_bytes(op, dt, &mut once, &x);
                    let mut twice = once.clone();
                    reduce_bytes(op, dt, &mut twice, &x);
                    twice == once
                });
                assert_eq!(op.is_idempotent(), twice_is_once, "{op} {dt}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut acc = vec![0u8; 4];
        reduce_bytes(ReduceKind::Sum, DType::U32, &mut acc, &[0u8; 8]);
    }
}
