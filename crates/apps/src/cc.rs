//! Connected components on the PID-Comm framework (§VII-D).
//!
//! Min-label propagation: every vertex starts with its own id as label;
//! each iteration, every PE lowers the labels of its owned vertices' from
//! their neighborhoods, and an `AllReduce(Min)` merges the label arrays
//! globally. Iteration stops when the labels reach a fixed point. Directed
//! inputs are preprocessed to undirected, as in the paper.
//!
//! The per-iteration `AllReduce(Min)` plan is built once (pooled in the
//! worker's arena plan cache) and re-executed every level, and the
//! expansion is *frontier-sparse*: a vertex's neighborhood minimum can
//! only change when the vertex or one of its neighbors changed label in
//! the previous merge, so each iteration recomputes only the dirty
//! vertices — provably bit-identical to the full scan (see
//! [`run_cc_in`]), while the modeled kernel charge stays the full-scan
//! edge count the device would pay.

use std::sync::Arc;

use pidcomm::{par_pes, BufferSpec, DimMask, OptLevel, Primitive, RunPolicy};
use pidcomm_data::CsrGraph;
use pim_sim::pe::Landing;
use pim_sim::{kernels, DType, FaultPlan, ReduceKind, SystemArena};

use crate::adjacency::{self, ZeroRows};
use crate::cost::{pe_kernel_ns, CpuModel};
use crate::driver::{drive, geometry, mismatches, validated, Run, Setup, Verdict};
use crate::profile::AppProfile;
use crate::{AppRun, ResilientRun};

/// CC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcConfig {
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

/// CPU reference: min-label propagation to a fixed point. Returns final
/// labels (the minimum vertex id of each component) and a roofline time.
///
/// Runs frontier-sparse like the PIM kernel (see [`run_cc_in`] for the
/// proof that skipping clean vertices is bit-identical), but the roofline
/// charges the full per-pass edge scan the dense reference performed —
/// the label sequence, pass count and modeled time are unchanged.
fn cpu_reference(graph: &CsrGraph) -> (Vec<u32>, f64) {
    let cpu = CpuModel::xeon_5215();
    let n = graph.num_vertices();
    let total_edges: u64 = (0..n as u32).map(|v| graph.degree(v) as u64).sum();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut dirty = vec![true; n];
    let mut edges_scanned = 0u64;
    loop {
        let mut changed = false;
        let prev = labels.clone();
        for v in 0..n {
            if !dirty[v] {
                continue;
            }
            let mut m = prev[v];
            for &t in graph.neighbors(v as u32) {
                m = m.min(prev[t as usize]);
            }
            if m < labels[v] {
                labels[v] = m;
            }
        }
        edges_scanned += total_edges;
        // Next pass: only vertices whose own or neighboring label moved
        // can produce a new minimum.
        let mut next = vec![false; n];
        for v in 0..n {
            if labels[v] != prev[v] {
                changed = true;
                next[v] = true;
                for &t in graph.neighbors(v as u32) {
                    next[t as usize] = true;
                }
            }
        }
        dirty = next;
        if !changed {
            break;
        }
    }
    let time = cpu.time_mixed_ns(2 * edges_scanned, 0, 64 * edges_scanned);
    (labels, time)
}

/// Dataset-scale compensation for kernel charges, analogous to BFS but
/// smaller: CC is the paper's most communication-dominated benchmark. The
/// factor dates from the first commit and no fit of it was ever
/// recorded; deriving it from the paper's anchors is ROADMAP item 3.
const KERNEL_SCALE: f64 = 1.5;

/// Number of distinct components in a label array.
pub fn component_count(labels: &[u32]) -> usize {
    let mut roots: Vec<u32> = labels.to_vec();
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}

/// Runs connected components and validates labels against the CPU
/// reference.
///
/// # Errors
///
/// [`pidcomm::Error::InvalidBuffer`], before anything leaves the arena, if
/// `cfg.pes` is not a positive multiple of 8 that factors into a DIMM
/// geometry or `graph` has no vertices; else propagates collective
/// validation errors.
///
/// # Panics
///
/// Panics if the PIM labels diverge from the CPU reference.
pub fn run_cc(cfg: &CcConfig, graph: &CsrGraph) -> pidcomm::Result<AppRun> {
    run_cc_in(cfg, graph, &mut SystemArena::new())
}

/// As [`run_cc`], but sourcing the `PimSystem` and collective plans from
/// `arena` (and returning them to it), so repeated runs — e.g.
/// consecutive sweep cells on one worker — reuse allocations *and* plans. Results are byte-identical to [`run_cc`].
///
/// # Frontier-sparse expansion
///
/// After a merge, `labels[v] = min(prev[v], min over neighbors prev[t])`.
/// For a vertex whose own label and all of whose neighbors' labels are
/// unchanged since that merge, recomputing the neighborhood minimum
/// provably returns `labels[v]` again: every unchanged neighbor `t` has
/// `labels[t] = prev[t] ≥ labels[v]` (it participated in the minimum that
/// produced `labels[v]`). So each iteration only recomputes the *dirty*
/// vertices — those that changed or have a changed neighbor — writing
/// `labels[v]` (already in the prototype) for the rest, bit-identical to
/// the full scan. The modeled kernel charge stays the full owned-edge
/// count: the device kernel would still stream every owned adjacency
/// list, and that count is constant per PE across iterations.
///
/// # Errors
///
/// As [`run_cc`].
///
/// # Panics
///
/// As [`run_cc`].
pub fn run_cc_in(
    cfg: &CcConfig,
    graph: &CsrGraph,
    arena: &mut SystemArena,
) -> pidcomm::Result<AppRun> {
    Ok(validated(
        run_cc_resilient_in(cfg, graph, None, RunPolicy::default(), arena)?,
        "CC PIM labels",
    ))
}

/// As [`run_cc`], but under run-level supervision (see
/// [`pidcomm::engine::supervisor`]): the same body, with collectives run
/// verified under quarantine-aware recovery, each label-propagation pass
/// committed through an iteration boundary, and unrecoverable faults
/// ending the run with a typed outcome instead of a panic. With
/// `fault = None` the profile and outputs are bit-identical to
/// [`run_cc`].
///
/// # Errors
///
/// As [`run_cc`] (never typed fault errors — those are consumed by the
/// supervisor). A result that diverges from the reference is reported on
/// the run record, not by panicking.
pub fn run_cc_resilient(
    cfg: &CcConfig,
    graph: &CsrGraph,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
) -> pidcomm::Result<ResilientRun> {
    run_cc_resilient_in(cfg, graph, fault, policy, &mut SystemArena::new())
}

/// As [`run_cc_resilient`], sourcing allocations from `arena` — the one
/// CC body behind all four runners (see [`crate::driver`]).
///
/// Like BFS, CC carries no live MRAM state across passes — every pass
/// re-encodes the label array from the committed host mirror — so every
/// step's checkpoint is empty and a re-run replays the step from
/// committed host state.
///
/// # Errors
///
/// As [`run_cc_resilient`].
pub fn run_cc_resilient_in(
    cfg: &CcConfig,
    graph: &CsrGraph,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
    arena: &mut SystemArena,
) -> pidcomm::Result<ResilientRun> {
    let p = cfg.pes;
    let n = graph.num_vertices();
    let geom = geometry("CC", p)?;
    if n == 0 {
        return Err(pidcomm::Error::InvalidBuffer(
            "CC needs a non-empty graph".into(),
        ));
    }
    // Cheap on the fig15 graphs, which already are: O(V + E), no sort.
    let graph = graph.to_undirected();
    let per_pe = n.div_ceil(p);
    // Label array (u32 per vertex) padded to AllReduce alignment; the pad
    // is filled with u32::MAX, the Min identity.
    let label_bytes = (n * 4).next_multiple_of(8 * p);
    // Adjacency slices (same layout as BFS).
    let slice_bytes = adjacency::row_bytes(&graph, p);
    let src_off = slice_bytes.next_multiple_of(64);
    let dst_off = src_off + label_bytes.next_multiple_of(64);

    let setup = Setup {
        geom,
        dims: vec![p],
        opt: cfg.opt,
        threads: cfg.threads,
        profile: AppProfile::new("CC", format!("{n}v/0it")),
    };
    // Passes until the labels reach a fixed point; returns the final
    // labels. The dataset label counts the passes, an aborted one too.
    let body = |run: &mut Run<'_>| {
        let mut iterations = 0usize;
        let mask = DimMask::all(run.comm.manager().shape());
        let mut plan = |primitive, src, dst, bytes, op| {
            let spec = BufferSpec::new(src, dst, bytes).with_dtype(DType::U32);
            run.comm
                .plan_cached(&mut run.plans, primitive, &mask, &spec, op)
        };
        let scatter_plan = plan(Primitive::Scatter, 0, 0, slice_bytes, ReduceKind::Sum)?;
        // The per-iteration merge plan, built once for the whole
        // fixed-point loop (and pooled across runs): CC issues the
        // identical AllReduce every level, so planning per call was pure
        // per-iteration overhead.
        let merge_plan = plan(
            Primitive::AllReduce,
            src_off,
            dst_off,
            label_bytes,
            ReduceKind::Min,
        )?;
        let reduce_plan = plan(Primitive::Reduce, dst_off, 0, label_bytes, ReduceKind::Min)?;

        // Setup: scatter the adjacency slices — a one-shot send, executed
        // directly (CC's per-iteration win is the label staging
        // elimination below, not a prepared image that would run once).
        // The kernels read the host graph, so the send carries only the
        // payload's size: zero rows, which materialize no MRAM.
        let rows = ZeroRows {
            len: p * slice_bytes,
        };
        run.step(&[], |sys, at| {
            at.collective(sys, &scatter_plan, Some(&rows))
        })?;

        let mut labels: Vec<u32> = (0..n as u32).collect();
        let mut merged = vec![0u32; n];
        // The label array every PE's local copy starts from, encoded once
        // per iteration (pad = u32::MAX, the Min identity) instead of
        // re-encoded per PE.
        let mut proto = vec![0u8; label_bytes];
        // The modeled per-PE expansion charge streams every owned
        // adjacency list — a constant across iterations, precomputed once.
        let owned_edges: Vec<u64> = (0..p)
            .map(|pid| {
                let lo = pid * per_pe;
                let hi = ((pid + 1) * per_pe).min(n);
                (lo..hi).map(|v| graph.degree(v as u32) as u64).sum()
            })
            .collect();
        // Dirty set for the frontier-sparse expansion (see `run_cc_in`);
        // iteration 1 recomputes everything.
        let mut dirty = vec![true; n];

        loop {
            iterations += 1;
            run.relabel(format!("{n}v/{iterations}it"));

            proto.fill(0xFF);
            kernels::encode_u32(&labels, &mut proto[..n * 4]);
            let image: Arc<[u8]> = proto.as_slice().into();

            run.step(&[], |sys, at| {
                // PE kernel: every PE lands the one prototype image as a
                // replica it shares (`Pe::write_shared`: its whole pages
                // read the image, and under a fault plan it is the row
                // `Pe::write` lands), then lowers only its owned *dirty*
                // vertices' labels in place, which owns just the pages
                // they touch (clean vertices keep their prototype value,
                // which the full scan would reproduce). One host-kernel
                // work item per PE; labels, the dirty set and the image
                // are shared read-only.
                let kernels = par_pes(sys.pes_mut(), cfg.threads, |pid, pe| {
                    // simlint: hot(begin, cc label lowering)
                    let lo = pid * per_pe;
                    let hi = ((pid + 1) * per_pe).min(n);
                    pe.write_shared(src_off, &image, Landing::Row);
                    for v in lo..hi {
                        if !dirty[v] {
                            continue;
                        }
                        let mut m = labels[v];
                        for &t in graph.neighbors(v as u32) {
                            m = m.min(labels[t as usize]);
                        }
                        pe.write(src_off + v * 4, &m.to_le_bytes());
                    }
                    // Random per-edge accesses pay small-DMA granularity
                    // (~64 B); the device streams all owned adjacency
                    // lists.
                    let edges = owned_edges[pid];
                    KERNEL_SCALE * pe_kernel_ns(48 * edges + label_bytes as u64, 10 * edges)
                    // simlint: hot(end)
                });
                at.launch(sys, kernels);

                // Merge with AllReduce(Min) — the warm per-iteration plan
                // — and read the merged labels back (identical on every
                // healthy PE).
                at.collective(sys, &merge_plan, None)?;
                let pe = sys.pe_mut(at.readback_pe(&geom));
                kernels::decode_u32(pe.read(dst_off, n * 4), &mut merged);
                Ok(())
            })?;

            // Commit: changed vertices and their neighborhoods form the
            // next dirty set; a fixed point leaves it empty and ends the
            // loop.
            let mut changed = false;
            dirty.fill(false);
            for v in 0..n {
                if merged[v] != labels[v] {
                    changed = true;
                    dirty[v] = true;
                    for &t in graph.neighbors(v as u32) {
                        dirty[t as usize] = true;
                    }
                }
            }
            labels.copy_from_slice(&merged);
            // A clean propagation converges in at most `n` passes, so the
            // cap never binds on one; it guards termination under heavily
            // degraded execution, where corrupted merges are not
            // guaranteed monotone.
            if !changed || iterations > n {
                break;
            }
        }

        // Retrieve final labels with a Reduce(Min) — every PE holds the
        // global array left by the last pass, the host takes the reduction
        // (a no-op numerically). Reads cannot be corrupted and the step
        // writes no MRAM, so there is nothing to checkpoint.
        let reduced = run.step(&[], |sys, at| at.collective(sys, &reduce_plan, None))?;
        let reduced = reduced.expect("reduce produces host output");
        let mut final_labels = vec![0u32; n];
        kernels::decode_u32(&reduced[0][..n * 4], &mut final_labels);
        Ok(final_labels)
    };
    drive(arena, fault, policy, setup, body, |labels| {
        let (expected, cpu_ns) = cpu_reference(&graph);
        Verdict {
            mismatched: mismatches(labels.as_deref(), &expected),
            cpu_ns,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidcomm_data::{rmat, RmatParams};

    #[test]
    fn cc_validates_on_small_graph() {
        let graph = rmat(10, 4, RmatParams::skewed(9));
        let run = run_cc(
            &CcConfig {
                threads: 0,
                pes: 64,
                opt: OptLevel::Full,
            },
            &graph,
        )
        .unwrap();
        assert!(run.validated);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::AllReduce) > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::Reduce) > 0.0);
    }

    #[test]
    fn component_count_matches_union_find() {
        let graph = CsrGraph::from_edges(10, vec![(0, 1), (1, 2), (4, 5), (7, 8)]);
        let run = run_cc(
            &CcConfig {
                threads: 0,
                pes: 8,
                opt: OptLevel::Full,
            },
            &graph,
        )
        .unwrap();
        assert!(run.validated);
        // Components: {0,1,2}, {3}, {4,5}, {6}, {7,8}, {9} = 6.
        let (labels, _) = cpu_reference(&graph.to_undirected());
        assert_eq!(component_count(&labels), 6);
    }

    #[test]
    fn long_chain_converges_through_the_sparse_frontier() {
        // A path graph needs many label-propagation iterations with an
        // ever-shrinking dirty set — the shape the frontier-sparse
        // expansion exists for. Validation against the dense CPU fixed
        // point pins bit-identical labels; a second run on the same arena
        // reuses the warm plans.
        let edges: Vec<(u32, u32)> = (0..63).map(|v| (v, v + 1)).collect();
        let graph = CsrGraph::from_edges(64, edges);
        let cfg = CcConfig {
            threads: 0,
            pes: 8,
            opt: OptLevel::Full,
        };
        let mut arena = pim_sim::SystemArena::new();
        let first = run_cc_in(&cfg, &graph, &mut arena).unwrap();
        assert!(first.validated);
        assert!(first.profile.dataset.contains("it"));
        let second = run_cc_in(&cfg, &graph, &mut arena).unwrap();
        assert!(first == second, "warm-plan rerun diverges");
    }

    #[test]
    fn baseline_matches_and_is_slower() {
        let graph = rmat(9, 4, RmatParams::skewed(13));
        let full = run_cc(
            &CcConfig {
                threads: 0,
                pes: 64,
                opt: OptLevel::Full,
            },
            &graph,
        )
        .unwrap();
        let base = run_cc(
            &CcConfig {
                threads: 0,
                pes: 64,
                opt: OptLevel::Baseline,
            },
            &graph,
        )
        .unwrap();
        assert!(base.profile.comm_ns() > full.profile.comm_ns());
        assert!((base.profile.kernel_ns - full.profile.kernel_ns).abs() < 1e-6);
    }
}
