//! Synthetic graph generation and partitioning.
//!
//! The paper's graph workloads use LiveJournal (LJ) and Gowalla (LG) for
//! BFS/CC, and PubMed (PM) / Reddit (RD) for GNNs. None of those can ship
//! with this reproduction, so we substitute seeded R-MAT graphs with
//! matching degree skew, scaled to simulator-friendly sizes (see
//! DESIGN.md §1). The communication structure of the benchmarks — frontier
//! growth for BFS, label mixing for CC, tile density for GNN SpMM —
//! depends on size and power-law shape, both preserved.

use crate::rng::SmallRng;

/// A directed graph in compressed-sparse-row form, vertices `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list, sorting and deduplicating.
    pub fn from_edges(num_vertices: usize, mut edges: Vec<(u32, u32)>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0usize; num_vertices + 1];
        for &(s, _) in &edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            offsets[i + 1] += offsets[i];
        }
        let targets = edges.into_iter().map(|(_, t)| t).collect();
        Self { offsets, targets }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of vertex `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Out-degree of vertex `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Iterator over all edges `(src, dst)`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices() as u32)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&t| (v, t)))
    }

    /// Returns the graph with every edge mirrored (the paper preprocesses
    /// CC inputs from directed to undirected edges, §VII-D).
    ///
    /// `O(V + E)`: a counting transpose — visiting the sources in order
    /// leaves every in-neighbor list ascending — then, per vertex, a merge
    /// of its two sorted, duplicate-free lists that keeps one copy of what
    /// both hold. Bit for bit the CSR [`CsrGraph::from_edges`] builds from
    /// the `2E` mirrored pairs.
    pub fn to_undirected(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut starts = vec![0usize; n + 1];
        for &t in &self.targets {
            starts[t as usize + 1] += 1;
        }
        for v in 0..n {
            starts[v + 1] += starts[v];
        }
        let mut sources = vec![0u32; self.num_edges()];
        let mut next = starts.clone();
        for (s, t) in self.edges() {
            sources[next[t as usize]] = s;
            next[t as usize] += 1;
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * self.num_edges());
        offsets.push(0);
        for v in 0..n {
            let (mut out, mut inc) = (self.neighbors(v as u32), &sources[starts[v]..starts[v + 1]]);
            while let (Some(&a), Some(&b)) = (out.first(), inc.first()) {
                targets.push(a.min(b));
                out = &out[usize::from(a <= b)..];
                inc = &inc[usize::from(b <= a)..];
            }
            targets.extend_from_slice(out);
            targets.extend_from_slice(inc);
            offsets.push(targets.len());
        }
        CsrGraph { offsets, targets }
    }
}

/// R-MAT generator parameters.
///
/// The classic (a, b, c, d) recursive quadrant probabilities; (0.57, 0.19,
/// 0.19, 0.05) approximates social-network skew, (0.25, 0.25, 0.25, 0.25)
/// degenerates to an Erdős–Rényi-like graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// RNG seed (generation is fully deterministic given the seed).
    pub seed: u64,
}

impl RmatParams {
    /// Social-network-like skew.
    pub fn skewed(seed: u64) -> Self {
        Self {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
        }
    }

    /// Uniform quadrants (no skew).
    pub fn uniform(seed: u64) -> Self {
        Self {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            seed,
        }
    }
}

/// Generates an R-MAT graph with `2^scale` vertices and roughly
/// `edge_factor * 2^scale` distinct directed edges (self-loops removed).
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams) -> CsrGraph {
    let n = 1usize << scale;
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let m = n * edge_factor;
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let (mut x0, mut x1) = (0usize, n);
        let (mut y0, mut y1) = (0usize, n);
        while x1 - x0 > 1 {
            let r: f64 = rng.gen_f64();
            let (dx, dy) = if r < params.a {
                (0, 0)
            } else if r < params.a + params.b {
                (0, 1)
            } else if r < params.a + params.b + params.c {
                (1, 0)
            } else {
                (1, 1)
            };
            let mx = (x0 + x1) / 2;
            let my = (y0 + y1) / 2;
            if dx == 0 {
                x1 = mx
            } else {
                x0 = mx
            }
            if dy == 0 {
                y1 = my
            } else {
                y0 = my
            }
        }
        if x0 != y0 {
            edges.push((x0 as u32, y0 as u32));
        }
    }
    CsrGraph::from_edges(n, edges)
}

/// Named graph presets standing in for the paper's datasets (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphPreset {
    /// LiveJournal-like: large, skewed (scaled from 4.8M/69M).
    LiveJournalLike,
    /// Gowalla-like (LG): smaller location-based social network.
    GowallaLike,
    /// PubMed-like (PM): small citation graph for GNNs.
    PubMedLike,
    /// Reddit-like (RD): dense post-comment graph for GNNs.
    RedditLike,
}

impl GraphPreset {
    /// Short label used in benchmark tables (matching the paper's).
    pub fn label(self) -> &'static str {
        match self {
            GraphPreset::LiveJournalLike => "LJ",
            GraphPreset::GowallaLike => "LG",
            GraphPreset::PubMedLike => "PM",
            GraphPreset::RedditLike => "RD",
        }
    }

    /// Generates the preset graph (deterministic).
    ///
    /// Sizes are scaled down ~64× from the originals so functional
    /// simulation stays tractable; the scale factor is identical across
    /// presets, preserving their relative sizes.
    pub fn generate(self) -> CsrGraph {
        match self {
            // LJ: 4.8M vertices / 69M edges -> 64k / ~1M.
            GraphPreset::LiveJournalLike => rmat(16, 16, RmatParams::skewed(0x117e)),
            // LG (Gowalla): 197k / 1.9M -> 16k / ~160k.
            GraphPreset::GowallaLike => rmat(14, 10, RmatParams::skewed(0x6a11a)),
            // PM (PubMed): 19.7k / 88.6k -> kept near-original 16k / ~72k.
            GraphPreset::PubMedLike => rmat(14, 4, RmatParams::uniform(0x9d)),
            // RD (Reddit): 233k / 11.6M (dense!) -> 16k / ~800k.
            GraphPreset::RedditLike => rmat(14, 50, RmatParams::skewed(0x4edd17)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_construction() {
        let g = CsrGraph::from_edges(4, vec![(0, 1), (0, 2), (2, 3), (0, 1)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3, "duplicates removed");
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.neighbors(2), &[3]);
    }

    #[test]
    fn undirected_mirrors_edges() {
        let g = CsrGraph::from_edges(3, vec![(0, 1), (1, 2)]);
        let u = g.to_undirected();
        assert_eq!(u.num_edges(), 4);
        assert_eq!(u.neighbors(1), &[0, 2]);
    }

    /// The construction `to_undirected` replaced: sort and deduplicate the
    /// `2E` mirrored pairs.
    fn mirrored_by_sorting(g: &CsrGraph) -> CsrGraph {
        let edges = g.edges().flat_map(|(s, t)| [(s, t), (t, s)]).collect();
        CsrGraph::from_edges(g.num_vertices(), edges)
    }

    #[test]
    fn undirected_equals_the_sorted_pair_construction() {
        let mut graphs = vec![
            CsrGraph::from_edges(0, vec![]),
            CsrGraph::from_edges(5, vec![]),
            // Self-loops, duplicate and antiparallel edges, isolated
            // vertices (2 and 6), a vertex with only in-edges (5).
            CsrGraph::from_edges(
                7,
                vec![
                    (0, 0),
                    (0, 1),
                    (0, 1),
                    (1, 0),
                    (3, 3),
                    (4, 5),
                    (3, 5),
                    (1, 4),
                    (4, 1),
                ],
            ),
        ];
        for seed in [1, 7, 0xbeef] {
            graphs.push(rmat(9, 6, RmatParams::skewed(seed)));
            graphs.push(rmat(9, 6, RmatParams::uniform(seed)));
        }
        for g in &graphs {
            let u = g.to_undirected();
            assert_eq!(u, mirrored_by_sorting(g), "{} vertices", g.num_vertices());
            assert_eq!(u.to_undirected(), u, "idempotent");
            assert!(u.edges().all(|(s, t)| u.neighbors(t).contains(&s)));
        }
    }

    #[test]
    fn rmat_is_deterministic() {
        let a = rmat(8, 4, RmatParams::skewed(7));
        let b = rmat(8, 4, RmatParams::skewed(7));
        assert_eq!(a, b);
        let c = rmat(8, 4, RmatParams::skewed(8));
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_has_requested_scale() {
        let g = rmat(10, 8, RmatParams::skewed(1));
        assert_eq!(g.num_vertices(), 1024);
        // Dedup may remove a few, but the bulk should be there.
        assert!(g.num_edges() > 1024 * 6, "got {}", g.num_edges());
        // No self loops.
        assert!(g.edges().all(|(s, t)| s != t));
    }

    #[test]
    fn skewed_rmat_is_skewed() {
        let g = rmat(12, 8, RmatParams::skewed(3));
        let mut degrees: Vec<usize> = (0..g.num_vertices() as u32).map(|v| g.degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: usize = degrees[..degrees.len() / 100].iter().sum();
        let total: usize = degrees.iter().sum();
        assert!(
            top1pct * 5 > total,
            "top 1% of vertices should hold >20% of edges (got {top1pct}/{total})"
        );
    }

    #[test]
    fn presets_generate() {
        let g = GraphPreset::PubMedLike.generate();
        assert_eq!(g.num_vertices(), 1 << 14);
        assert_eq!(GraphPreset::LiveJournalLike.label(), "LJ");
    }
}
