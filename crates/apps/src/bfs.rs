//! Breadth-first search on the PID-Comm framework (§VII-C).
//!
//! Vertices are range-partitioned across the PEs (1-D hypercube). Each
//! level, every PE expands its owned frontier vertices into a local
//! visited bitmap; an `AllReduce(Or)` over the bitmaps merges the frontier
//! globally, exactly as the reference PrIM implementation does. The run
//! starts with a Scatter of the adjacency partitions and ends with a
//! Gather of the per-vertex distances.
//!
//! The per-level `AllReduce(Or)` plan is built once for the whole
//! traversal (pooled in the worker's arena plan cache) and re-executed
//! every level, and the expansion is frontier-sparse: the sorted frontier
//! is sliced per PE by binary search instead of filtered per PE, and PEs
//! with no owned frontier vertices write the shared visited bitmap
//! directly — bit-identical results and modeled times.

use std::sync::Arc;

use pidcomm::{par_pes_with, BufferSpec, DimMask, OptLevel, Primitive, RunPolicy};
use pidcomm_data::CsrGraph;
use pim_sim::{kernels, DType, FaultPlan, ReduceKind, SystemArena};

use crate::adjacency::{self, AdjacencyRows};
use crate::cost::{pe_kernel_ns, CpuModel};
use crate::driver::{drive, geometry, mismatches, validated, Run, Setup, Verdict};
use crate::profile::AppProfile;
use crate::{AppRun, ResilientRun};

/// BFS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsConfig {
    /// Number of PEs (1-D hypercube).
    pub pes: usize,
    /// Communication optimization level.
    pub opt: OptLevel,
    /// Engine thread budget for the app's collectives: `0` = auto,
    /// `1` = the serial reference schedule. Purely an execution knob —
    /// profiles and results are byte-identical at every setting. The
    /// sweep harness passes `1`: its pool owns every thread.
    pub threads: usize,
}

/// CPU reference BFS returning distances (`u32::MAX` = unreachable) and a
/// roofline time estimate.
fn cpu_reference(graph: &CsrGraph, source: u32) -> (Vec<u32>, f64) {
    let cpu = CpuModel::xeon_5215();
    let n = graph.num_vertices();
    let mut dist = vec![u32::MAX; n];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut level = 0u32;
    let mut edges_scanned = 0u64;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &t in graph.neighbors(v) {
                edges_scanned += 1;
                if dist[t as usize] == u32::MAX {
                    dist[t as usize] = level;
                    next.push(t);
                }
            }
        }
        frontier = next;
    }
    // Irregular traversal: ~one random cache line per edge.
    let time = cpu.time_mixed_ns(4 * edges_scanned, (n as u64) * 8, 64 * edges_scanned);
    (dist, time)
}

/// Dataset-scale compensation for kernel charges: the harness graphs are
/// far below LiveJournal scale, and per-level expansion work shrinks
/// faster than the visited-bitmap traffic. The factor dates from the
/// first commit and no fit of it was ever recorded; deriving it from the
/// paper's anchors is ROADMAP item 3.
const KERNEL_SCALE: f64 = 4.0;

/// Picks a well-connected source (the max-out-degree vertex).
pub fn default_source(graph: &CsrGraph) -> u32 {
    (0..graph.num_vertices() as u32)
        .max_by_key(|&v| graph.degree(v))
        .unwrap_or(0)
}

/// Runs BFS over `graph` from `source` and validates distances against the
/// CPU reference.
///
/// # Errors
///
/// [`pidcomm::Error::InvalidBuffer`], before anything leaves the arena, if
/// `cfg.pes` is not a positive multiple of 8 that factors into a DIMM
/// geometry or `source` is not a vertex of `graph` (so: on an empty graph);
/// else propagates collective validation errors.
///
/// # Panics
///
/// Panics if the PIM distances diverge from the CPU reference.
pub fn run_bfs(cfg: &BfsConfig, graph: &CsrGraph, source: u32) -> pidcomm::Result<AppRun> {
    run_bfs_in(cfg, graph, source, &mut SystemArena::new())
}

/// As [`run_bfs`], but sourcing the `PimSystem` and collective plans from
/// `arena` (and returning them to it), so repeated runs — e.g. consecutive
/// sweep cells on one worker — reuse allocations. Results are
/// byte-identical to [`run_bfs`].
///
/// # Errors
///
/// As [`run_bfs`].
///
/// # Panics
///
/// As [`run_bfs`].
pub fn run_bfs_in(
    cfg: &BfsConfig,
    graph: &CsrGraph,
    source: u32,
    arena: &mut SystemArena,
) -> pidcomm::Result<AppRun> {
    Ok(validated(
        run_bfs_resilient_in(cfg, graph, source, None, RunPolicy::default(), arena)?,
        "BFS PIM distances",
    ))
}

/// As [`run_bfs`], but under run-level supervision (see
/// [`pidcomm::engine::supervisor`]): the same body, with collectives run
/// verified under quarantine-aware recovery, each frontier level
/// committed through an iteration boundary, and unrecoverable faults
/// ending the run with a typed outcome instead of a panic. With
/// `fault = None` the profile and outputs are bit-identical to
/// [`run_bfs`].
///
/// # Errors
///
/// As [`run_bfs`] (never typed fault errors — those are consumed by the
/// supervisor). A result that diverges from the reference is reported on
/// the run record, not by panicking.
pub fn run_bfs_resilient(
    cfg: &BfsConfig,
    graph: &CsrGraph,
    source: u32,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
) -> pidcomm::Result<ResilientRun> {
    run_bfs_resilient_in(cfg, graph, source, fault, policy, &mut SystemArena::new())
}

/// As [`run_bfs_resilient`], sourcing allocations from `arena` — the one
/// BFS body behind all four runners (see [`crate::driver`]).
///
/// BFS carries no live MRAM state across levels — every level restages
/// the visited bitmap from the host mirror and the adjacency partitions
/// are written once and never touched again — so every step's checkpoint
/// is empty and a re-run simply replays the step from committed host
/// state.
///
/// # Errors
///
/// As [`run_bfs_resilient`].
pub fn run_bfs_resilient_in(
    cfg: &BfsConfig,
    graph: &CsrGraph,
    source: u32,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
    arena: &mut SystemArena,
) -> pidcomm::Result<ResilientRun> {
    let p = cfg.pes;
    let n = graph.num_vertices();
    let geom = geometry("BFS", p)?;
    if source as usize >= n {
        let what = format!("BFS source {source} is not a vertex of a {n}-vertex graph");
        return Err(pidcomm::Error::InvalidBuffer(what));
    }
    let per_pe = n.div_ceil(p);
    // Visited bitmap, padded to the AllReduce alignment (8 x P bytes).
    let bitmap_bytes = n.div_ceil(8).next_multiple_of(8 * p);
    // Adjacency partitions: PE p gets the CSR rows of its owned vertex
    // range, padded to a uniform size.
    let slice_bytes = adjacency::row_bytes(graph, p);
    let bitmap_src = slice_bytes.next_multiple_of(64);
    let bitmap_dst = bitmap_src + bitmap_bytes.next_multiple_of(64);
    let dist_bytes = (per_pe * 4).next_multiple_of(8);
    let dist_off = bitmap_dst + bitmap_bytes.next_multiple_of(64);

    let setup = Setup {
        geom,
        dims: vec![p],
        opt: cfg.opt,
        threads: cfg.threads,
        profile: AppProfile::new("BFS", format!("{n}v")),
    };
    let body = |run: &mut Run<'_>| {
        let mask = DimMask::all(run.comm.manager().shape());
        let mut plan = |primitive, spec: BufferSpec, op| {
            run.comm
                .plan_cached(&mut run.plans, primitive, &mask, &spec, op)
        };
        let scatter_plan = plan(
            Primitive::Scatter,
            BufferSpec::new(0, 0, slice_bytes).with_dtype(DType::U32),
            ReduceKind::Sum,
        )?;
        // The per-level merge plan, built once for the whole traversal
        // (and pooled across runs): BFS issues the identical
        // AllReduce(Or) every level, so planning per call was pure
        // per-level overhead.
        let merge_plan = plan(
            Primitive::AllReduce,
            BufferSpec::new(bitmap_src, bitmap_dst, bitmap_bytes).with_dtype(DType::U8),
            ReduceKind::Or,
        )?;
        let gather_plan = plan(
            Primitive::Gather,
            BufferSpec::new(dist_off, 0, dist_bytes).with_dtype(DType::U32),
            ReduceKind::Sum,
        )?;

        // Setup: scatter the adjacency partitions. A one-shot send, so it
        // executes directly, encoding each PE's row into the send's block
        // as it lands. Padding to the largest partition makes a skewed
        // graph's rows mostly zeros: no padded image is built, and MRAM
        // materializes none of the rows' zero tails (`Pe::write`).
        let rows = AdjacencyRows {
            graph,
            pes: p,
            row_bytes: slice_bytes,
        };
        let scattered = run.step(&[], |sys, at| {
            at.collective(sys, &scatter_plan, Some(&rows))
        });
        run.profile.record(&scattered?.report);

        // Host-side mirrors of the distributed state (each PE holds the
        // same global bitmap after every AllReduce), committed only at
        // step boundaries.
        let set_bit = |bm: &mut [u8], v: usize| bm[v / 8] |= 1 << (v % 8);
        let mut visited = vec![0u8; bitmap_bytes];
        set_bit(&mut visited, source as usize);
        let mut merged = vec![0u8; bitmap_bytes];
        let mut dist = vec![u32::MAX; n];
        dist[source as usize] = 0;
        let mut frontier: Vec<u32> = vec![source];
        let mut level = 0u32;

        // A clean traversal finishes in at most `n` levels, so the cap
        // never binds on one; it guards termination under heavily
        // degraded execution, where corrupted merges are not guaranteed
        // monotone.
        while !frontier.is_empty() && (level as usize) < n {
            let (kernel, report) = run.step(&[], |sys, at| {
                // PE kernel: each PE expands its owned frontier vertices
                // into a local copy of the bitmap — a per-*worker* scratch
                // buffer each item overwrites wholesale, so high PE counts
                // stop paying one bitmap allocation per PE. The frontier
                // is sorted (it comes out of the word-ordered new-bit
                // scan), so each PE's owned vertices are one contiguous
                // slice found by binary search instead of a full-frontier
                // filter per PE; PEs whose slice is empty contribute the
                // shared visited bitmap verbatim, skipping the scratch
                // copy entirely.
                let kernels = par_pes_with(
                    sys.pes_mut(),
                    cfg.threads,
                    || vec![0u8; bitmap_bytes],
                    |local, pid, pe| {
                        // simlint: hot(begin, bfs expand)
                        let lo = (pid * per_pe) as u32;
                        let hi = (((pid + 1) * per_pe).min(n)) as u32;
                        let begin = frontier.partition_point(|&v| v < lo);
                        let end = frontier.partition_point(|&v| v < hi);
                        if begin == end {
                            pe.write(bitmap_src, &visited);
                            return KERNEL_SCALE * pe_kernel_ns(bitmap_bytes as u64, 0);
                        }
                        local.copy_from_slice(&visited);
                        let mut edges = 0u64;
                        for &v in &frontier[begin..end] {
                            for &t in graph.neighbors(v) {
                                set_bit(local, t as usize);
                                edges += 1;
                            }
                        }
                        pe.write(bitmap_src, local);
                        // Random per-edge accesses pay small-DMA
                        // granularity (~64 B).
                        KERNEL_SCALE * pe_kernel_ns(48 * edges + bitmap_bytes as u64, 10 * edges)
                        // simlint: hot(end)
                    },
                );
                let kernel = Run::launch(sys, kernels);

                // Merge bitmaps globally: AllReduce with bitwise OR (u8
                // elements, which skips domain transfer entirely, §V-C) —
                // the warm per-level plan — and read the merged bitmap
                // back (identical on every healthy PE).
                let report = at.collective(sys, &merge_plan, None)?.report;
                sys.pe_mut(at.readback_pe(&geom))
                    .read_into(bitmap_dst, &mut merged);
                Ok((kernel, report))
            })?;
            run.record_kernel(kernel);
            run.profile.record(&report);

            // Commit: new frontier = newly set bits, scanned 64 at a time
            // (the padding beyond `n` is never set, so whole words are
            // safe).
            level += 1;
            let mut next = Vec::new();
            kernels::for_each_new_bit(&merged, &visited, |v| {
                if v < n {
                    dist[v] = level;
                    next.push(v as u32);
                }
            });
            core::mem::swap(&mut visited, &mut merged);
            frontier = next;
        }

        // Gather distances of owned ranges (u32 lanes encoded straight
        // from the contiguous dist sub-range of the committed host `dist`,
        // staged in per-worker scratch).
        let gathered = run.step(&[], |sys, at| {
            par_pes_with(
                sys.pes_mut(),
                cfg.threads,
                || vec![0u8; dist_bytes],
                |bytes, pid, pe| {
                    // simlint: hot(begin, bfs distance encode)
                    // A trailing PE's range can be empty (lo clamps to n).
                    let lo = (pid * per_pe).min(n);
                    let hi = ((pid + 1) * per_pe).min(n);
                    bytes.fill(0xFF);
                    kernels::encode_u32(&dist[lo..hi], &mut bytes[..(hi - lo) * 4]);
                    pe.write(dist_off, bytes);
                    // simlint: hot(end)
                },
            );
            at.collective(sys, &gather_plan, None)
        })?;
        run.profile.record(&gathered.report);
        let gathered = gathered.host_out.expect("gather produces host output");

        // Reassemble the owned ranges.
        let mut got = vec![u32::MAX; n];
        for pe in 0..p {
            let lo = (pe * per_pe).min(n);
            let hi = ((pe + 1) * per_pe).min(n);
            let chunk = &gathered[0][pe * dist_bytes..(pe + 1) * dist_bytes];
            kernels::decode_u32(&chunk[..(hi - lo) * 4], &mut got[lo..hi]);
        }
        Ok(got)
    };
    drive(arena, fault, policy, setup, body, |got| {
        let (expected, cpu_ns) = cpu_reference(graph, source);
        Verdict {
            mismatched: mismatches(got.as_deref(), &expected),
            cpu_ns,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidcomm_data::{rmat, RmatParams};

    #[test]
    fn bfs_validates_on_small_graph() {
        let graph = rmat(10, 8, RmatParams::skewed(5)).to_undirected();
        let cfg = BfsConfig {
            threads: 0,
            pes: 64,
            opt: OptLevel::Full,
        };
        let run = run_bfs(&cfg, &graph, default_source(&graph)).unwrap();
        assert!(run.validated);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::AllReduce) > 0.0);
    }

    #[test]
    fn bfs_baseline_pays_host_memory_where_pidcomm_does_not() {
        // At toy sizes fixed launch overheads can mask the speedup, so
        // assert the structural claim instead: the baseline stages data in
        // host memory on every AllReduce, PID-Comm's in-register modulation
        // never does.
        let graph = rmat(9, 6, RmatParams::skewed(2)).to_undirected();
        let src = default_source(&graph);
        let full = run_bfs(
            &BfsConfig {
                threads: 0,
                pes: 64,
                opt: OptLevel::Full,
            },
            &graph,
            src,
        )
        .unwrap();
        let base = run_bfs(
            &BfsConfig {
                threads: 0,
                pes: 64,
                opt: OptLevel::Baseline,
            },
            &graph,
            src,
        )
        .unwrap();
        assert!(base.validated && full.validated);
        assert!(base.profile.comm.host_mem_access > 2.0 * full.profile.comm.host_mem_access);
        // ...and its in-host-memory modulation pass dwarfs PID-Comm's
        // register shuffles.
        assert!(base.profile.comm.host_modulation > 10.0 * full.profile.comm.host_modulation);
    }

    #[test]
    fn ragged_partition_leaves_trailing_pes_empty() {
        // 100 vertices over 64 PEs: per_pe = 2, so PEs 50.. own empty
        // ranges (lo clamps past n) — they must stage pure padding, not
        // panic.
        let edges: Vec<(u32, u32)> = (0..99).map(|v| (v, v + 1)).collect();
        let graph = CsrGraph::from_edges(100, edges).to_undirected();
        let cfg = BfsConfig {
            threads: 0,
            pes: 64,
            opt: OptLevel::Full,
        };
        let run = run_bfs(&cfg, &graph, 0).unwrap();
        assert!(run.validated);
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        // A graph with two separate components; BFS from 0 must leave the
        // other component at u32::MAX on both CPU and PIM.
        let graph = CsrGraph::from_edges(32, vec![(0, 1), (1, 0), (2, 3), (3, 2)]);
        let cfg = BfsConfig {
            threads: 0,
            pes: 8,
            opt: OptLevel::Full,
        };
        let run = run_bfs(&cfg, &graph, 0).unwrap();
        assert!(run.validated);
    }
}
