//! Dense integer feature matrices for GNN and MLP workloads.
//!
//! Integer features keep the simulated PIM arithmetic bit-exact against the
//! CPU references (the paper's INT8/16/32 sensitivity study, §VIII-F, is
//! integer as well).

/// A dense row-major `rows × cols` matrix of `i32` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatI32 {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
}

/// The one definition of [`MatI32::random`]'s entry formula: hands `put`
/// each destination of `out` in turn with the entry at flat row-major
/// index `start + k·stride` for the `k`-th destination.
///
/// The hash's input is `index·C1`, and `(start + k·stride)·C1 ≡ start·C1 +
/// k·(stride·C1) (mod 2^64)`, so the index product is walked with one add
/// per entry and the hash's own multiply is the only one left.
fn random_walk<D>(
    bound: i32,
    seed: u64,
    start: usize,
    stride: usize,
    out: impl IntoIterator<Item = D>,
    mut put: impl FnMut(D, i32),
) {
    const C1: u64 = 0x9e3779b97f4a7c15;
    const C2: u64 = 0xbf58476d1ce4e5b9;
    assert!(bound > 0, "bound must be positive");
    let mut acc = (start as u64)
        .wrapping_mul(C1)
        .wrapping_add(seed.rotate_left(17));
    let step = (stride as u64).wrapping_mul(C1);
    let mut raw = || {
        let x = acc ^ seed;
        acc = acc.wrapping_add(step);
        ((x ^ (x >> 30)).wrapping_mul(C2) >> 33) as u32
    };
    // `2 * bound` overflows `i32` from `bound = 2^30`; in `u32` it cannot.
    let m = 2 * bound as u32;
    // `raw()` is below 2^31, so `rem_euclid(m)` is `% m`, a mask where `m`
    // is a power of two, and either minus `bound` fits `i32`.
    if m.is_power_of_two() {
        for d in out {
            put(d, (raw() & (m - 1)) as i32 - bound);
        }
    } else {
        for d in out {
            put(d, (raw() % m) as i32 - bound);
        }
    }
}

impl MatI32 {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates a deterministic pseudo-random matrix with entries in
    /// `[-bound, bound)`. Each entry is a pure function of its flat
    /// row-major index, so [`MatI32::random_row`] and
    /// [`MatI32::random_col_le`] regenerate any part of it on demand.
    pub fn random(rows: usize, cols: usize, bound: i32, seed: u64) -> Self {
        let mut data = vec![0; rows * cols];
        random_walk(bound, seed, 0, 1, &mut data, |d, v| *d = v);
        Self { rows, cols, data }
    }

    /// Writes row `r` of `random(_, out.len(), bound, seed)` into `out`
    /// without building the matrix.
    pub fn random_row(bound: i32, seed: u64, r: usize, out: &mut [i32]) {
        random_walk(bound, seed, r * out.len(), 1, out, |d, v| *d = v);
    }

    /// Writes column `c` of `random(out.len() / 4, cols, bound, seed)` into
    /// `out` as little-endian bytes without building the matrix. Panics
    /// if `out.len()` is not a multiple of 4.
    pub fn random_col_le(cols: usize, bound: i32, seed: u64, c: usize, out: &mut [u8]) {
        assert_eq!(out.len() % 4, 0, "column bytes hold whole i32 entries");
        let lanes = out.chunks_exact_mut(4);
        random_walk(bound, seed, c, cols, lanes, |d, v| {
            d.copy_from_slice(&v.to_le_bytes())
        });
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[i32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [i32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> i32 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: i32) {
        self.data[r * self.cols + c] = v;
    }

    /// The flat backing slice (row-major).
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// The flat backing slice, mutably (row-major) — the entry point for
    /// chunked typed-lane decodes straight into the matrix.
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        &mut self.data
    }

    /// Dense matrix multiply `self × rhs` with wrapping arithmetic (the
    /// same semantics the PE kernels use).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &MatI32) -> MatI32 {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = MatI32::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let v = out.get(i, j).wrapping_add(a.wrapping_mul(rhs.get(k, j)));
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    /// Serializes the matrix to little-endian bytes.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        self.data.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// Deserializes a `rows × cols` matrix from little-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if the byte length does not match.
    pub fn from_le_bytes(rows: usize, cols: usize, bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), rows * cols * 4, "byte length mismatch");
        let data = bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Self { rows, cols, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = MatI32::random(8, 8, 10, 42);
        let b = MatI32::random(8, 8, 10, 42);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| (-10..10).contains(&v)));
        assert_ne!(a, MatI32::random(8, 8, 10, 43));
    }

    /// Literal entries taken at the commit before the generators existed:
    /// the MLP's PIM image and its CPU reference both derive from this one
    /// formula, so validation alone cannot see it drift.
    #[test]
    fn random_matches_its_golden_entries() {
        let big = MatI32::random(2048, 2048, 4, 0x9a77);
        assert_eq!(big.as_slice()[..8], [-2, -4, 1, 0, -2, 3, -2, 0]);
        assert_eq!(big.as_slice()[2048 * 2048 - 2..], [0, 1]);
        // Non-power-of-two modulus.
        assert_eq!(
            MatI32::random(5, 7, 3, 0xfea7).as_slice(),
            [
                0, 1, 0, 0, -2, -2, 2, -3, 0, 1, -3, -3, 1, -3, -2, 1, 0, -3, 0, -1, 2, 0, 2, -1,
                2, -1, 0, 1, 1, 1, 0, -1, -1, -3, -3
            ]
        );
        assert_eq!(MatI32::random(1, 1, 1, 0).as_slice(), [-1]);
    }

    #[test]
    fn row_and_column_generators_equal_the_matrix() {
        for (rows, cols) in [(1, 1), (3, 5), (64, 64), (96, 40)] {
            for bound in [1, 3, 4, 100] {
                for seed in [0, 0x9a77, u64::MAX - 5] {
                    let m = MatI32::random(rows, cols, bound, seed);
                    let mut row = vec![0i32; cols];
                    for r in 0..rows {
                        MatI32::random_row(bound, seed, r, &mut row);
                        assert_eq!(row, m.row(r), "row {r} of {rows}x{cols}");
                    }
                    // The column lands at a non-zero offset of a larger
                    // buffer and touches nothing around it.
                    let mut buf = vec![0xA5u8; 12 + rows * 4 + 8];
                    for c in 0..cols {
                        MatI32::random_col_le(cols, bound, seed, c, &mut buf[12..12 + rows * 4]);
                        for (r, le) in buf[12..12 + rows * 4].chunks_exact(4).enumerate() {
                            let v = i32::from_le_bytes(le.try_into().unwrap());
                            assert_eq!(v, m.get(r, c), "({r}, {c}) of {rows}x{cols}");
                        }
                    }
                    assert!(buf[..12]
                        .iter()
                        .chain(&buf[12 + rows * 4..])
                        .all(|&b| b == 0xA5));
                }
            }
        }
    }

    /// The entry formula in closed form, from its constants alone: the
    /// walk must equal it at any index, however often `·C1` wraps.
    fn entry(i: u64, bound: i32, seed: u64) -> i32 {
        let x = i
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(seed.rotate_left(17))
            ^ seed;
        let raw = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9) >> 33;
        (raw % (2 * bound as u64)) as i32 - bound
    }

    #[test]
    fn the_walk_equals_the_formula_far_from_the_origin() {
        for bound in [1, 3, 4, 100, (1 << 30) - 1] {
            for seed in [0, 0x9a77, u64::MAX - 5] {
                let m = MatI32::random(7, 9, bound, seed);
                for (i, &v) in m.as_slice().iter().enumerate() {
                    assert_eq!(v, entry(i as u64, bound, seed), "random [{i}]");
                }
                // Row 2^21 of a 4096-wide matrix starts at index 2^33.
                for (width, r) in [(4096, 1 << 21), (4097, (1 << 21) + 1), (3, 1 << 40)] {
                    let mut row = vec![0i32; width];
                    MatI32::random_row(bound, seed, r, &mut row);
                    for (c, &v) in row.iter().enumerate() {
                        let i = (r * width + c) as u64;
                        assert_eq!(v, entry(i, bound, seed), "row {r} of width {width}");
                    }
                }
                // Strides 1, even, odd and above 2^32; the 2^21-wide
                // column reaches past index 2^32 itself.
                let strides = [1, 4096, 12345, 1 << 21, (1 << 32) + 7, (1 << 33) + 2];
                for cols in strides {
                    let rows = if cols == 1 << 21 { 4096 } else { 300 };
                    let mut col = vec![0u8; rows * 4];
                    for c in [0, cols / 2, cols - 1] {
                        MatI32::random_col_le(cols, bound, seed, c, &mut col);
                        for (r, le) in col.chunks_exact(4).enumerate() {
                            let v = i32::from_le_bytes(le.try_into().unwrap());
                            let i = (r * cols + c) as u64;
                            assert_eq!(v, entry(i, bound, seed), "({r}, {c}) of {cols} cols");
                        }
                    }
                }
            }
        }
    }

    /// `2 * bound` does not fit `i32` from `bound = 2^30`: every positive
    /// bound still gives entries in `[-bound, bound)`, in both profiles.
    #[test]
    fn bounds_at_the_top_of_i32_stay_in_range() {
        for bound in [(1 << 30) - 1, 1 << 30, i32::MAX] {
            let m = MatI32::random(64, 64, bound, 7);
            assert!(m.as_slice().iter().all(|&v| (-bound..bound).contains(&v)));
        }
        // Literal entries taken before the modulus was widened.
        assert_eq!(
            MatI32::random(2, 4, (1 << 30) - 1, 7).as_slice(),
            [
                -776944575, 311625984, 569832219, -984427342, -91712828, -757541271, 535640444,
                -939404707
            ]
        );
        let mut row = [0i32; 8];
        MatI32::random_row((1 << 30) - 1, 7, 1 << 30, &mut row);
        assert_eq!(
            row,
            [
                -462574720, 999201553, 886745132, -198653363, -609564289, -590096377, 292239245,
                70618664
            ]
        );
    }

    #[test]
    fn matmul_identity() {
        let mut eye = MatI32::zeros(3, 3);
        for i in 0..3 {
            eye.set(i, i, 1);
        }
        let m = MatI32::random(3, 3, 5, 1);
        assert_eq!(m.matmul(&eye), m);
    }

    #[test]
    fn matmul_small_case() {
        let mut a = MatI32::zeros(2, 2);
        a.set(0, 0, 1);
        a.set(0, 1, 2);
        a.set(1, 0, 3);
        a.set(1, 1, 4);
        let b = a.clone();
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 7);
        assert_eq!(c.get(0, 1), 10);
        assert_eq!(c.get(1, 0), 15);
        assert_eq!(c.get(1, 1), 22);
    }

    #[test]
    fn byte_roundtrip() {
        let m = MatI32::random(4, 6, 100, 9);
        let bytes = m.to_le_bytes();
        assert_eq!(MatI32::from_le_bytes(4, 6, &bytes), m);
    }

    #[test]
    fn row_access() {
        let mut m = MatI32::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[7, 8, 9]);
        assert_eq!(m.row(1), &[7, 8, 9]);
        assert_eq!(m.get(1, 2), 9);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }
}
