//! Functional reference semantics for the eight collectives: what the test
//! suites and the benchmark check both engines against, and nothing else —
//! no library code calls it (simlint's `library-oracle` lint).
//!
//! These are deliberately naive, obviously-correct implementations on byte
//! slices (anything that derefs to bytes) that share no code with the
//! engines: the element-wise fold is plain per-type arithmetic, not
//! `pim_sim`'s reduction kernels, so a fault in those kernels shows as a
//! mismatch instead of passing on both sides.

use pim_sim::dtype::{DType, ReduceKind};

/// The common length of `inputs`.
fn node_len(inputs: &[impl AsRef<[u8]>]) -> usize {
    let b = inputs[0].as_ref().len();
    assert!(
        inputs.iter().all(|v| v.as_ref().len() == b),
        "ragged inputs"
    );
    b
}

/// AlltoAll: `out[d]` is the concatenation over sources `s` of chunk `d`
/// of `inputs[s]`.
///
/// # Panics
///
/// Panics if inputs have unequal lengths or are not divisible into
/// `inputs.len()` chunks.
pub fn alltoall(inputs: &[impl AsRef<[u8]>]) -> Vec<Vec<u8>> {
    let (n, b) = (inputs.len(), node_len(inputs));
    assert_eq!(b % n, 0, "input not divisible into {n} chunks");
    let c = b / n;
    (0..n)
        .map(|d| {
            let mut out = Vec::with_capacity(b);
            for src in inputs {
                out.extend_from_slice(&src.as_ref()[d * c..(d + 1) * c]);
            }
            out
        })
        .collect()
}

/// ReduceScatter: `out[d]` is the element-wise reduction over sources of
/// chunk `d`.
///
/// # Panics
///
/// Panics on ragged or indivisible inputs.
pub fn reduce_scatter(inputs: &[impl AsRef<[u8]>], op: ReduceKind, dtype: DType) -> Vec<Vec<u8>> {
    let (n, b) = (inputs.len(), node_len(inputs));
    assert_eq!(b % n, 0, "input not divisible into {n} chunks");
    let reduced = reduce(inputs, op, dtype);
    reduced.chunks(b / n).map(<[u8]>::to_vec).collect()
}

/// AllReduce: every output is the element-wise reduction of all inputs.
///
/// # Panics
///
/// Panics on ragged inputs.
pub fn all_reduce(inputs: &[impl AsRef<[u8]>], op: ReduceKind, dtype: DType) -> Vec<Vec<u8>> {
    vec![reduce(inputs, op, dtype); inputs.len()]
}

/// AllGather: every output is the concatenation of all inputs.
///
/// # Panics
///
/// Panics on ragged inputs.
pub fn all_gather(inputs: &[impl AsRef<[u8]>]) -> Vec<Vec<u8>> {
    node_len(inputs);
    vec![gather(inputs); inputs.len()]
}

/// Scatter: splits `host` into `n` equal chunks.
///
/// # Panics
///
/// Panics if `host.len()` is not divisible by `n`.
pub fn scatter(host: &[u8], n: usize) -> Vec<Vec<u8>> {
    assert_eq!(host.len() % n, 0, "host data not divisible into {n} chunks");
    let c = host.len() / n;
    (0..n).map(|d| host[d * c..(d + 1) * c].to_vec()).collect()
}

/// Gather: concatenates all inputs on the host.
pub fn gather(inputs: &[impl AsRef<[u8]>]) -> Vec<u8> {
    let mut host = Vec::with_capacity(inputs.iter().map(|v| v.as_ref().len()).sum());
    for v in inputs {
        host.extend_from_slice(v.as_ref());
    }
    host
}

/// Reduce: the element-wise reduction of all inputs, on the host.
///
/// # Panics
///
/// Panics on ragged inputs or inputs that are not whole elements.
pub fn reduce(inputs: &[impl AsRef<[u8]>], op: ReduceKind, dtype: DType) -> Vec<u8> {
    assert!(
        node_len(inputs).is_multiple_of(dtype.size_bytes()),
        "not whole elements"
    );
    let mut acc = inputs[0].as_ref().to_vec();
    for src in &inputs[1..] {
        fold(op, dtype, &mut acc, src.as_ref());
    }
    acc
}

/// `acc[i] = op(acc[i], src[i])` over little-endian elements of `dtype`;
/// `Sum` wraps.
fn fold(op: ReduceKind, dtype: DType, acc: &mut [u8], src: &[u8]) {
    macro_rules! typed {
        ($ty:ty) => {{
            fn zip(acc: &mut [u8], src: &[u8], f: impl Fn($ty, $ty) -> $ty) {
                let w = std::mem::size_of::<$ty>();
                let word = |b: &[u8]| <$ty>::from_le_bytes(b.try_into().expect("a whole element"));
                for (a, s) in acc.chunks_exact_mut(w).zip(src.chunks_exact(w)) {
                    let v = f(word(a), word(s));
                    a.copy_from_slice(&v.to_le_bytes());
                }
            }
            match op {
                ReduceKind::Sum => zip(acc, src, <$ty>::wrapping_add),
                ReduceKind::Min => zip(acc, src, <$ty>::min),
                ReduceKind::Max => zip(acc, src, <$ty>::max),
                ReduceKind::Or => zip(acc, src, |x, y| x | y),
                ReduceKind::And => zip(acc, src, |x, y| x & y),
                ReduceKind::Xor => zip(acc, src, |x, y| x ^ y),
            }
        }};
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

/// Broadcast: every node receives a copy of `host`.
pub fn broadcast(host: &[u8], n: usize) -> Vec<Vec<u8>> {
    vec![host.to_vec(); n]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u32v(vals: &[u32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn alltoall_matches_figure2() {
        // Fig. 2 AA: node s holds [A_s B_s C_s D_s]; node d ends with
        // [A..D chunk d from every source].
        let inputs: Vec<Vec<u8>> = (0..4)
            .map(|s| u32v(&[s * 10, s * 10 + 1, s * 10 + 2, s * 10 + 3]))
            .collect();
        let out = alltoall(&inputs);
        assert_eq!(out[0], u32v(&[0, 10, 20, 30]));
        assert_eq!(out[3], u32v(&[3, 13, 23, 33]));
    }

    #[test]
    fn alltoall_is_involution() {
        let inputs: Vec<Vec<u8>> = (0..8u8)
            .map(|s| (0..64).map(|i| s.wrapping_mul(31) ^ i).collect())
            .collect();
        assert_eq!(alltoall(&alltoall(&inputs)), inputs);
    }

    #[test]
    fn reduce_scatter_sums_chunks() {
        let inputs: Vec<Vec<u8>> = (0..4).map(|s| u32v(&[s, s, s, s])).collect();
        let out = reduce_scatter(&inputs, ReduceKind::Sum, DType::U32);
        for chunk in &out {
            assert_eq!(chunk, &u32v(&[1 + 2 + 3]));
        }
    }

    #[test]
    fn all_reduce_equals_reduce_everywhere() {
        let inputs: Vec<Vec<u8>> = (1..=4).map(|s| u32v(&[s, 100 * s])).collect();
        let out = all_reduce(&inputs, ReduceKind::Sum, DType::U32);
        assert_eq!(out.len(), 4);
        for o in &out {
            assert_eq!(*o, u32v(&[10, 1000]));
        }
    }

    #[test]
    fn all_gather_concatenates() {
        let inputs = vec![u32v(&[1]), u32v(&[2]), u32v(&[3])];
        let out = all_gather(&inputs);
        for o in &out {
            assert_eq!(*o, u32v(&[1, 2, 3]));
        }
    }

    #[test]
    fn rs_then_ag_equals_allreduce() {
        // The classic identity AllReduce = ReduceScatter ; AllGather.
        let inputs: Vec<Vec<u8>> = (0..4).map(|s| u32v(&[s, s + 1, s + 2, s + 3])).collect();
        let rs = reduce_scatter(&inputs, ReduceKind::Sum, DType::U32);
        let ag = all_gather(&rs);
        let ar = all_reduce(&inputs, ReduceKind::Sum, DType::U32);
        assert_eq!(ag, ar);
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let host = u32v(&[1, 2, 3, 4, 5, 6]);
        let parts = scatter(&host, 3);
        assert_eq!(parts[1], u32v(&[3, 4]));
        assert_eq!(gather(&parts), host);
    }

    #[test]
    fn reduce_min() {
        let inputs = vec![u32v(&[5, 9]), u32v(&[3, 12])];
        assert_eq!(reduce(&inputs, ReduceKind::Min, DType::U32), u32v(&[3, 9]));
    }

    #[test]
    fn reduce_respects_sign_and_wraps() {
        // The i16 elements [-1, i16::MAX] and [1, 1].
        let inputs = [[0xff, 0xff, 0xff, 0x7f], [1, 0, 1, 0]];
        for (op, want) in [
            (ReduceKind::Max, [1, 0, 0xff, 0x7f]),
            (ReduceKind::Min, [0xff, 0xff, 1, 0]),
            (ReduceKind::Sum, [0, 0, 0, 0x80]),
        ] {
            assert_eq!(reduce(&inputs, op, DType::I16), want, "{op}");
        }
    }

    #[test]
    fn broadcast_copies() {
        let out = broadcast(&[1, 2, 3], 4);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|o| o == &[1, 2, 3]));
    }
}
