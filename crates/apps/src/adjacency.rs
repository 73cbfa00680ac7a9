//! The graph apps' adjacency scatter. BFS and CC range-partition the
//! vertices over the PEs, `n.div_ceil(pes)` per PE, and scatter each PE
//! one row: the CSR rows of the vertices it owns — per vertex its degree,
//! then its neighbours, as little-endian `u32`s — zero-padded to the
//! largest partition. On a skewed graph that padded image is almost all
//! zeros, so neither app builds it: the send asks a row source for one
//! rank row at a time ([`pidcomm::HostRows`]).

use std::ops::Range;

use pidcomm::HostRows;
use pidcomm_data::CsrGraph;

/// The vertices PE `pe` of `pes` owns (empty past the last vertex).
fn owned(graph: &CsrGraph, pes: usize, pe: usize) -> Range<usize> {
    let (n, per_pe) = (graph.num_vertices(), graph.num_vertices().div_ceil(pes));
    (pe * per_pe).min(n)..((pe + 1) * per_pe).min(n)
}

/// Bytes of every PE's row: the largest partition's CSR bytes, rounded
/// up to a word, and at least one word.
pub(crate) fn row_bytes(graph: &CsrGraph, pes: usize) -> usize {
    let partition = |pe| {
        owned(graph, pes, pe)
            .map(|v| 4 + 4 * graph.degree(v as u32))
            .sum::<usize>()
    };
    let max_bytes = (0..pes).map(partition).max().unwrap_or(0);
    max_bytes.next_multiple_of(8).max(8)
}

/// BFS's adjacency rows, encoded on request: one group of `pes` rows of
/// `row_bytes` bytes. A row the requested range covers whole is encoded
/// straight into `dst`; a row it cuts is encoded into a scratch row and
/// only the requested bytes are copied.
pub(crate) struct AdjacencyRows<'g> {
    pub graph: &'g CsrGraph,
    pub pes: usize,
    pub row_bytes: usize,
}

impl AdjacencyRows<'_> {
    /// Writes PE `pe`'s row into `row` (`row_bytes` long).
    fn encode(&self, pe: usize, row: &mut [u8]) {
        let mut off = 0;
        for v in owned(self.graph, self.pes, pe) {
            let nbrs = self.graph.neighbors(v as u32);
            row[off..off + 4].copy_from_slice(&(nbrs.len() as u32).to_le_bytes());
            off += 4;
            for &t in nbrs {
                row[off..off + 4].copy_from_slice(&t.to_le_bytes());
                off += 4;
            }
        }
        row[off..].fill(0);
    }
}

impl HostRows for AdjacencyRows<'_> {
    fn groups(&self) -> usize {
        1
    }

    fn group_len(&self, _: usize) -> usize {
        self.pes * self.row_bytes
    }

    fn fill(&self, _: usize, range: Range<usize>, dst: &mut [u8]) {
        let row = self.row_bytes;
        let mut cut = Vec::new();
        let mut at = range.start;
        while at < range.end {
            let (pe, skip) = (at / row, at % row);
            let n = (row - skip).min(range.end - at);
            let out = &mut dst[at - range.start..][..n];
            if n == row {
                self.encode(pe, out);
            } else {
                cut.resize(row, 0);
                self.encode(pe, &mut cut);
                out.copy_from_slice(&cut[skip..skip + n]);
            }
            at += n;
        }
    }
}

/// CC's adjacency rows: its kernels read the host graph, so the scatter
/// carries only the payload's size — one group of `len` zero bytes.
pub(crate) struct ZeroRows {
    pub len: usize,
}

impl HostRows for ZeroRows {
    fn groups(&self) -> usize {
        1
    }

    fn group_len(&self, _: usize) -> usize {
        self.len
    }

    fn fill(&self, _: usize, _: Range<usize>, dst: &mut [u8]) {
        dst.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidcomm_data::{rmat, RmatParams};

    /// The padded image the scatter used to read: every PE's CSR rows at
    /// the start of its `row_bytes`-byte row, zeros after.
    fn padded_image(graph: &CsrGraph, pes: usize) -> Vec<u8> {
        let (n, per_pe) = (graph.num_vertices(), graph.num_vertices().div_ceil(pes));
        let row = row_bytes(graph, pes);
        let mut image = vec![0u8; pes * row];
        for (pe, chunk) in image.chunks_mut(row).enumerate() {
            let words: Vec<u8> = (pe * per_pe..((pe + 1) * per_pe).min(n))
                .flat_map(|v| {
                    let nbrs = graph.neighbors(v as u32);
                    std::iter::once(nbrs.len() as u32).chain(nbrs.iter().copied())
                })
                .flat_map(u32::to_le_bytes)
                .collect();
            chunk[..words.len()].copy_from_slice(&words);
        }
        image
    }

    /// Both sources against the padded image (CC's against zeros): every
    /// whole rank row, then ranges that cut rows — inside one row, across
    /// a row boundary, across several rows and the whole buffer.
    fn check(graph: &CsrGraph, pes: usize) {
        let image = padded_image(graph, pes);
        let row = row_bytes(graph, pes);
        let adjacency = AdjacencyRows {
            graph,
            pes,
            row_bytes: row,
        };
        let zeros = ZeroRows { len: image.len() };
        assert_eq!(adjacency.group_len(0), image.len());
        let mut ranges: Vec<Range<usize>> = (0..pes).map(|r| r * row..(r + 1) * row).collect();
        let last = image.len();
        ranges.extend([
            3..row - 1,
            row / 2..row + 5,
            row - 4..3 * row + 4,
            1..last - 1,
            0..last,
            last - 1..last,
            7..7,
        ]);
        for r in ranges {
            // Whatever `dst` held before is overwritten.
            let mut dst = vec![0xA5; r.len()];
            adjacency.fill(0, r.clone(), &mut dst);
            assert_eq!(dst, image[r.clone()], "adjacency {r:?} at {pes} PEs");
            let mut dst = vec![0xA5; r.len()];
            zeros.fill(0, r.clone(), &mut dst);
            assert!(dst.iter().all(|&b| b == 0), "zeros {r:?} at {pes} PEs");
        }
    }

    #[test]
    fn row_sources_equal_the_padded_image() {
        let graph = rmat(9, 6, RmatParams::skewed(2)).to_undirected();
        for pes in [8, 64] {
            check(&graph, pes);
        }
    }

    #[test]
    fn an_empty_partition_reads_as_padding() {
        // 100 vertices over 64 PEs: 2 per PE, so PEs 50.. own nothing.
        let edges: Vec<(u32, u32)> = (0..99).map(|v| (v, v + 1)).collect();
        let graph = CsrGraph::from_edges(100, edges).to_undirected();
        check(&graph, 64);
        check(&graph, 8);
    }

    #[test]
    fn the_largest_partition_may_be_the_last() {
        // Only the last vertex has edges, so the last PE's row is the one
        // that sets the row size and reaches the end of the buffer.
        let n = 64u32;
        let graph = CsrGraph::from_edges(n as usize, (0..n).map(|t| (n - 1, t)).collect());
        for pes in [8, 64] {
            let image = padded_image(&graph, pes);
            assert!(
                image[image.len() - 8..].iter().any(|&b| b != 0),
                "{pes} PEs"
            );
            check(&graph, pes);
        }
    }
}
