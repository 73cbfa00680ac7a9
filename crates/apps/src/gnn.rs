//! Graph neural network on a 2-D hypercube (§VII-B, Fig. 12, Algorithm 1).
//!
//! A GNN layer is an aggregation (sparse A·F) followed by a combination
//! (dense I·W). The PEs form an `s × s` grid; PE `(x, y)` holds adjacency
//! tiles and one block of the feature matrix. Two communication strategies
//! are implemented, matching the paper's variants:
//!
//! * **RS&AR**: partial aggregates are `ReduceScatter`'d across the active
//!   dimension, each PE combines its row sub-block with the full weight
//!   matrix, and an `AllReduce` assembles the next layer's feature block.
//! * **AR&AG**: aggregates are `AllReduce`'d, each PE combines one column
//!   block of the weights, and an `AllGather` concatenates the column
//!   blocks.
//!
//! The active dimension alternates between layers (`"10" ⇄ "01"`,
//! Algorithm 1), which keeps every PE's feature block aligned with its
//! rank in the next layer's communication group.

use std::sync::Arc;

use pidcomm::{par_pes, par_pes_with, BufferSpec, DimMask, OptLevel, Primitive, RunPolicy};
use pidcomm_data::{CsrGraph, MatI32};
use pim_sim::{kernels, DType, FaultPlan, ReduceKind, SystemArena};

use crate::cost::{pe_kernel_ns, CpuModel};
use crate::driver::{drive, geometry, mismatches, validated, Run, Setup, Verdict};
use crate::profile::AppProfile;
use crate::{AppRun, ResilientRun};

/// GNN communication strategy (Table III lists both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GnnVariant {
    /// ReduceScatter + AllReduce.
    RsAr,
    /// AllReduce + AllGather.
    ArAg,
}

impl GnnVariant {
    /// Label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            GnnVariant::RsAr => "RS&AR",
            GnnVariant::ArAg => "AR&AG",
        }
    }
}

/// GNN configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnnConfig {
    /// Number of PEs; must be a perfect square (the paper notes GNNs
    /// "require symmetric partitioning", §VIII-G).
    pub pes: usize,
    /// Feature dimension `f` (divisible by `sqrt(pes)`).
    pub feature_dim: usize,
    /// Number of layers (the paper uses 3).
    pub layers: usize,
    /// Communication strategy.
    pub variant: GnnVariant,
    /// Communication optimization level.
    pub opt: OptLevel,
    /// Element width of features/weights (I8/I16/I32; the paper's word-bit
    /// sensitivity study, §VIII-F). 8-bit elements let ReduceScatter and
    /// AllReduce skip domain transfer entirely.
    pub dtype: DType,
    /// Engine thread budget for the app's collectives: `0` = auto,
    /// `1` = the serial reference schedule. Purely an execution knob —
    /// profiles and results are byte-identical at every setting. The
    /// sweep harness passes `1`: its pool owns every thread.
    pub threads: usize,
}

/// Element size in bytes.
fn esize(dtype: DType) -> usize {
    dtype.size_bytes()
}

/// Deserializes a matrix at the declared width via the chunked
/// sign-extending typed-lane decoder.
fn mat_from_bytes(rows: usize, cols: usize, bytes: &[u8], dtype: DType) -> MatI32 {
    assert_eq!(bytes.len(), rows * cols * esize(dtype));
    let mut m = MatI32::zeros(rows, cols);
    kernels::decode_sext(dtype, bytes, m.as_mut_slice());
    m
}

/// Dataset-scale compensation for kernel charges: the harness graphs and
/// feature dims are ~10x below PubMed/Reddit scale, and PE compute shrinks
/// superlinearly (f^2 combination) while communication shrinks linearly in
/// f. This factor is meant to restore the paper's kernel-to-communication
/// ratio (Fig. 13); it dates from the first commit and no fit of it was
/// ever recorded. Deriving it from the paper's anchors is ROADMAP item 3.
const KERNEL_SCALE: f64 = 6.0;

/// The side of a square `p`-PE grid, if `p` is a perfect square.
fn isqrt(p: usize) -> Option<usize> {
    let s = (p as f64).sqrt().round() as usize;
    (s * s == p).then_some(s)
}

/// CPU reference: `F <- relu((A · F) · W_l)` per layer with wrapping
/// arithmetic, as row operations — one `add_wrap` per edge, one `axpy_wrap`
/// per non-zero aggregate over W's rows. Deliberately *not* the panel
/// product the PEs run: the two sides stay different computations,
/// compared element by element. Returns the final feature matrix and a
/// roofline time.
fn cpu_reference(graph: &CsrGraph, f0: &MatI32, weights: &[MatI32], dtype: DType) -> (MatI32, f64) {
    let cpu = CpuModel::xeon_5215();
    let n = graph.num_vertices();
    let f = f0.cols();
    let mut feat = f0.clone();
    let mut time = 0.0;
    for w in weights {
        // Aggregation: I[u] = sum over (u, v) of F[v], at element width.
        let mut agg = MatI32::zeros(n, f);
        for (u, v) in graph.edges() {
            kernels::add_wrap(dtype, agg.row_mut(u as usize), feat.row(v as usize));
        }
        // Combination + ReLU at element width.
        let mut comb = MatI32::zeros(n, f);
        for r in 0..n {
            let acc = comb.row_mut(r);
            for (k, &a) in agg.row(r).iter().enumerate() {
                if a != 0 {
                    kernels::axpy_wrap(dtype, acc, a, w.row(k));
                }
            }
        }
        kernels::relu_i32(comb.as_mut_slice());
        feat = comb;
        let edges = graph.num_edges() as u64;
        time += cpu.time_mixed_ns(
            edges * f as u64 + 2 * (n * f * f) as u64,
            (n * f * 4) as u64 * 2 + (n * f * f) as u64 / 16,
            edges * (f as u64 * 4 + 8),
        );
    }
    (feat, time)
}

/// Sparse tile: edges of A with source in row-block `i` and target in
/// column-block `j`, stored as (local row, local col) pairs.
fn tiles(graph: &CsrGraph, s: usize) -> Vec<Vec<Vec<(u32, u32)>>> {
    let n = graph.num_vertices();
    let bs = n / s;
    let mut t = vec![vec![Vec::new(); s]; s];
    for (u, v) in graph.edges() {
        let (i, j) = (u as usize / bs, v as usize / bs);
        t[i][j].push(((u as usize % bs) as u32, (v as usize % bs) as u32));
    }
    t
}

/// Runs the GNN benchmark and validates against the CPU reference.
///
/// # Errors
///
/// [`pidcomm::Error::InvalidBuffer`], before anything leaves the arena, if
/// `cfg.pes` has no DIMM geometry or is not a perfect square,
/// `cfg.layers` is zero, `cfg.dtype` is wider than 4 bytes, the vertex
/// count does not divide by `cfg.pes`,
/// `cfg.feature_dim` does not divide by `sqrt(cfg.pes)`, or a feature
/// block is not a multiple of `8 * sqrt(cfg.pes)` bytes; else propagates
/// collective validation errors.
///
/// # Panics
///
/// Panics if the PIM features diverge from the CPU reference.
pub fn run_gnn(cfg: &GnnConfig, graph: &CsrGraph) -> pidcomm::Result<AppRun> {
    run_gnn_in(cfg, graph, &mut SystemArena::new())
}

/// As [`run_gnn`], but sourcing the `PimSystem` from `arena` (and
/// returning it), so repeated runs — e.g. consecutive sweep cells on one
/// worker — reuse allocations. Results are byte-identical to [`run_gnn`].
///
/// # Errors
///
/// As [`run_gnn`].
///
/// # Panics
///
/// As [`run_gnn`].
pub fn run_gnn_in(
    cfg: &GnnConfig,
    graph: &CsrGraph,
    arena: &mut SystemArena,
) -> pidcomm::Result<AppRun> {
    Ok(validated(
        run_gnn_resilient_in(cfg, graph, None, RunPolicy::default(), arena)?,
        "GNN PIM features",
    ))
}

/// As [`run_gnn`], but under run-level supervision (see
/// [`pidcomm::engine::supervisor`]): the same body, with collectives run
/// verified under quarantine-aware recovery, each layer committed through
/// an iteration checkpoint of the live feature block, and unrecoverable
/// faults ending the run with a typed outcome instead of a panic. With
/// `fault = None` the profile and outputs are bit-identical to
/// [`run_gnn`].
///
/// # Errors
///
/// As [`run_gnn`] (never typed fault errors — those are consumed by the
/// supervisor).
pub fn run_gnn_resilient(
    cfg: &GnnConfig,
    graph: &CsrGraph,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
) -> pidcomm::Result<ResilientRun> {
    run_gnn_resilient_in(cfg, graph, fault, policy, &mut SystemArena::new())
}

/// As [`run_gnn_resilient`], sourcing allocations from `arena` — the one
/// GNN body behind all four runners (see [`crate::driver`]).
///
/// # Errors
///
/// As [`run_gnn_resilient`].
pub fn run_gnn_resilient_in(
    cfg: &GnnConfig,
    graph: &CsrGraph,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
    arena: &mut SystemArena,
) -> pidcomm::Result<ResilientRun> {
    let p = cfg.pes;
    let f = cfg.feature_dim;
    let n = graph.num_vertices();
    let es = esize(cfg.dtype);
    let geom = geometry("GNN", p)?;
    let s = isqrt(p)
        // `s` vertex blocks of `bs` rows; collectives move whole blocks.
        .filter(|&s| {
            cfg.layers > 0
                // The typed-lane kernels hold elements in `i32` lanes.
                && es <= 4
                && n.is_multiple_of(p)
                && f.is_multiple_of(s)
                && (n / s * f * es).is_multiple_of(8 * s)
        })
        .ok_or_else(|| {
            let want = "a square PE count s*s, at least one layer, elements of at most \
                        4 bytes, vertices % pes == 0, feature_dim % s == 0 and a feature \
                        block of a multiple of 8*s bytes";
            let what = format!("GNN needs {want}: {n} vertices, {cfg:?}");
            pidcomm::Error::InvalidBuffer(what)
        })?;
    let bs = n / s; // vertices per block
    let block_bytes = bs * f * es;

    let tile = tiles(graph, s);
    let weights: Vec<MatI32> = (0..cfg.layers)
        .map(|l| MatI32::random(f, f, 3, 0x6e6e + l as u64))
        .collect();
    let f0 = MatI32::random(n, f, 3, 0xfea7);

    // MRAM layout.
    const FEAT: usize = 0; // this PE's current feature block (bs x f)
    let partial_off = block_bytes.next_multiple_of(64);
    let reduced_off = partial_off + block_bytes.next_multiple_of(64);
    let out_off = reduced_off + block_bytes.next_multiple_of(64);
    // The active dimension alternates between layers.
    let layer_mask = |layer: usize| -> pidcomm::Result<DimMask> {
        if layer.is_multiple_of(2) { "10" } else { "01" }.parse()
    };

    let setup = Setup {
        geom,
        dims: vec![s, s],
        opt: cfg.opt,
        threads: cfg.threads,
        profile: AppProfile::new(
            format!("GNN {}", cfg.variant.label()),
            format!("{n}v/int{}", 8 * es),
        ),
    };
    // Returns the gathered feature blocks, one buffer per group of the
    // last layer's mask.
    let body = |run: &mut Run<'_>| {
        // Scatter initial feature blocks: at layer 0 the active mask is
        // "10" (x varies within a group), so PE (x, y) must hold block x.
        // The payloads, one per group (`s` groups of `s` members), come from
        // (and return to) the arena's buffer-set pool. Member `rank` of
        // every group holds feature rows [rank*bs, (rank+1)*bs), so each
        // payload is the whole of `f0` in row order: encoded once, copied
        // to the other groups. A one-shot send, executed directly (GNN's
        // per-layer win is the fused pairs below, not a prepared image
        // that would run once); it restages everything from the host
        // buffers, so a re-run needs no checkpointed MRAM state.
        let mask0 = layer_mask(0)?;
        let mut scatter_bufs = run.arena.byte_set(s, s * block_bytes);
        let (first, rest) = scatter_bufs.split_first_mut().expect("s >= 1 groups");
        kernels::encode_trunc(cfg.dtype, f0.as_slice(), first);
        for buf in rest {
            buf.copy_from_slice(first);
        }
        let scatter_plan = run.comm.plan_cached(
            &mut run.plans,
            Primitive::Scatter,
            &mask0,
            &BufferSpec::new(0, FEAT, block_bytes).with_dtype(cfg.dtype),
            ReduceKind::Sum,
        )?;
        let scattered = run.step(&[], |sys, at| {
            at.collective(sys, &scatter_plan, Some(&scatter_bufs))
        });
        run.arena.recycle_byte_set(scatter_bufs);
        scattered?;

        for (layer, w) in weights.iter().enumerate() {
            let mask = layer_mask(layer)?;
            let groups = run.comm.manager().groups(&mask)?;
            // Host-kernel work items run one per PE; recover each PE's
            // (group, rank) coordinates up front since groups partition
            // the PE array exactly.
            let mut owner = vec![(0usize, 0usize); p];
            for g in &groups {
                for (rank, &pe) in g.members.iter().enumerate() {
                    owner[pe.index()] = (g.id, rank);
                }
            }
            let sub_cols = f / s;
            let colblk_bytes = bs * sub_cols * es;
            // The combine's shape: `in_rows` reduced rows against a panel
            // of `panel_cols` rows of W^T, `tile_len` products per PE,
            // written out as `out_len` elements.
            let (in_rows, panel_cols, out_len) = match cfg.variant {
                GnnVariant::RsAr => (bs / s, f, bs * f),
                GnnVariant::ArAg => (bs, sub_cols, bs * sub_cols),
            };
            let tile_len = in_rows * panel_cols;
            let wt: Vec<i32> = (0..f * f).map(|i| w.get(i % f, i / f)).collect();
            // The layer's two collectives run as one fused chain: the
            // first step's result lands in MRAM, the combination kernel
            // rewrites it in place as the inter-step hook, and the second
            // step consumes it directly — no host staging between the
            // pair. Layers alternate between two masks, so each plan is
            // built at most twice per run (and pooled across runs in the
            // arena cache). Supervised, the chain's merged rollback image
            // covers both steps' regions, so a mid-chain fault restores
            // and replays the whole pair.
            let mut plan = |primitive, dst, bytes| {
                let spec = BufferSpec::new(partial_off, dst, bytes).with_dtype(cfg.dtype);
                run.comm
                    .plan_cached(&mut run.plans, primitive, &mask, &spec, ReduceKind::Sum)
            };
            let pair = match cfg.variant {
                GnnVariant::RsAr => vec![
                    plan(Primitive::ReduceScatter, reduced_off, block_bytes)?,
                    plan(Primitive::AllReduce, out_off, block_bytes)?,
                ],
                GnnVariant::ArAg => vec![
                    plan(Primitive::AllReduce, reduced_off, block_bytes)?,
                    plan(Primitive::AllGather, out_off, colblk_bytes)?,
                ],
            };
            let fused = run.comm.fuse(pair, &[])?;

            // The live state at a layer boundary is the feature block
            // (everything else is rewritten from it or read-only).
            run.step(&[(FEAT, block_bytes)], |sys, at| {
                // Aggregation kernel: within its group, PE of rank r
                // computes A[i_group][r] · F_r, a partial of row-block
                // i_group. Per-edge row accumulation runs as a
                // typed-lane segment-sum over the feature block
                // decoded into per-worker scratch.
                let kernels = par_pes_with(
                    sys.pes_mut(),
                    cfg.threads,
                    || (vec![0i32; bs * f], vec![0i32; bs * f]),
                    |(fblk, partial), pid, pe| {
                        // simlint: hot(begin, gnn aggregation)
                        let (gid, rank) = owner[pid];
                        kernels::decode_sext(cfg.dtype, pe.read(FEAT, block_bytes), fblk);
                        partial.fill(0);
                        let t = &tile[gid][rank];
                        for &(u, v) in t {
                            let (u, v) = (u as usize, v as usize);
                            kernels::add_wrap(
                                cfg.dtype,
                                &mut partial[u * f..(u + 1) * f],
                                &fblk[v * f..(v + 1) * f],
                            );
                        }
                        pe.write_trunc(partial_off, cfg.dtype, partial);
                        let edges = t.len() as u64;
                        KERNEL_SCALE
                            * pe_kernel_ns(
                                edges * (f * es) as u64 + block_bytes as u64,
                                4 * edges * f as u64,
                            )
                        // simlint: hot(end)
                    },
                );
                at.launch(sys, kernels);

                // The combination kernel, run as the chain's hook: one
                // panel product of the PE's reduced rows with a panel
                // of W^T, then ReLU. RS&AR multiplies its rows
                // sub-block by all of W and places the result at its
                // sub-block position in an otherwise-zero block;
                // AR&AG multiplies the whole block by its rank's
                // column block of W, which the AllGather picks up
                // from the same place.
                at.fused(sys, &fused, |_, sys| {
                    let kernels = par_pes_with(
                        sys.pes_mut(),
                        cfg.threads,
                        || (vec![0i32; in_rows * f], vec![0i32; out_len]),
                        |(rows, out), pid, pe| {
                            // simlint: hot(begin, gnn combine)
                            let (_, rank) = owner[pid];
                            let (slot, panel) = match cfg.variant {
                                GnnVariant::RsAr => (rank * tile_len, 0),
                                GnnVariant::ArAg => (0, rank * panel_cols * f),
                            };
                            let reduced = pe.read(reduced_off, in_rows * f * es);
                            kernels::decode_sext(cfg.dtype, reduced, rows);
                            out.fill(0);
                            let product = &mut out[slot..slot + tile_len];
                            kernels::panel_product_wrap(
                                cfg.dtype,
                                product,
                                rows,
                                &wt[panel..panel + panel_cols * f],
                                f,
                            );
                            kernels::relu_i32(product);
                            pe.write_trunc(partial_off, cfg.dtype, out);
                            KERNEL_SCALE
                                * pe_kernel_ns(
                                    ((in_rows + panel_cols) * f * es) as u64,
                                    12 * (in_rows * f * panel_cols) as u64,
                                )
                            // simlint: hot(end)
                        },
                    );
                    Ok(Some(kernels))
                })?;
                // The result block becomes the next layer's feature
                // block: as it stands for RS&AR; AR&AG's gathered
                // layout is column-block-major, and interleaving it
                // back to row-major is the same PE-local pass.
                par_pes(sys.pes_mut(), cfg.threads, |_, pe| {
                    // simlint: hot(begin, gnn feature rotate)
                    match cfg.variant {
                        GnnVariant::RsAr => pe.copy_within_region(out_off, FEAT, block_bytes),
                        GnnVariant::ArAg => {
                            pe.interleave_blocks(out_off, FEAT, s, bs, sub_cols * es)
                        }
                    }
                    // simlint: hot(end)
                });
                Ok(())
            })?;
        }

        // Gather final features along the last active mask. A run that
        // aborted in a layer never gets here (the early return above), so
        // its verdict is the full output length.
        let last_mask = layer_mask(cfg.layers - 1)?;
        let gather_plan = run.comm.plan_cached(
            &mut run.plans,
            Primitive::Gather,
            &last_mask,
            &BufferSpec::new(FEAT, 0, block_bytes).with_dtype(cfg.dtype),
            ReduceKind::Sum,
        )?;
        let gathered = run.step(&[], |sys, at| at.collective(sys, &gather_plan, None))?;
        Ok(gathered.expect("gather produces host output"))
    };
    drive(arena, fault, policy, setup, body, |gathered| {
        let (expected, cpu_ns) = cpu_reference(graph, &f0, &weights, cfg.dtype);
        // After the final layer every member of group g holds block g (the
        // group's row-block); the gather's buffer g starts with rank 0's
        // copy.
        let mismatched = match gathered {
            Some(gathered) => gathered
                .iter()
                .enumerate()
                .map(|(g, buf)| {
                    let got = mat_from_bytes(bs, f, &buf[..block_bytes], cfg.dtype);
                    let want = &expected.as_slice()[g * bs * f..(g + 1) * bs * f];
                    mismatches(Some(got.as_slice()), want)
                })
                .sum(),
            None => (n * f) as u64,
        };
        Verdict { mismatched, cpu_ns }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidcomm_data::{rmat, RmatParams};

    fn small_graph() -> CsrGraph {
        rmat(10, 4, RmatParams::skewed(21)) // 1024 vertices
    }

    #[test]
    fn gnn_rsar_validates() {
        let cfg = GnnConfig {
            threads: 0,
            pes: 64,
            feature_dim: 16,
            layers: 3,
            variant: GnnVariant::RsAr,
            opt: OptLevel::Full,
            dtype: DType::I32,
        };
        let run = run_gnn(&cfg, &small_graph()).unwrap();
        assert!(run.validated);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::ReduceScatter) > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::AllReduce) > 0.0);
    }

    #[test]
    fn gnn_arag_validates() {
        let cfg = GnnConfig {
            threads: 0,
            pes: 64,
            feature_dim: 16,
            layers: 3,
            variant: GnnVariant::ArAg,
            opt: OptLevel::Full,
            dtype: DType::I32,
        };
        let run = run_gnn(&cfg, &small_graph()).unwrap();
        assert!(run.validated);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::AllReduce) > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::AllGather) > 0.0);
    }

    #[test]
    fn variants_agree_with_each_other() {
        let g = small_graph();
        let mk = |variant| GnnConfig {
            threads: 0,
            pes: 64,
            feature_dim: 16,
            layers: 2,
            variant,
            opt: OptLevel::Full,
            dtype: DType::I32,
        };
        let a = run_gnn(&mk(GnnVariant::RsAr), &g).unwrap();
        let b = run_gnn(&mk(GnnVariant::ArAg), &g).unwrap();
        // Both validate against the same CPU reference -> they agree.
        assert!(a.validated && b.validated);
    }

    #[test]
    fn narrow_widths_validate_and_int8_skips_domain_transfer() {
        let g = small_graph();
        let mk = |dtype| GnnConfig {
            threads: 0,
            pes: 64,
            feature_dim: 16,
            layers: 2,
            variant: GnnVariant::RsAr,
            opt: OptLevel::Full,
            dtype,
        };
        let i8run = run_gnn(&mk(DType::I8), &g).unwrap();
        let i16run = run_gnn(&mk(DType::I16), &g).unwrap();
        assert!(i8run.validated && i16run.validated);
        // 8-bit elements avoid domain transfer in RS/AR (§V-C); the
        // remaining DT comes only from Scatter/Gather, so even though the
        // int8 run moves half the bytes of int16, its DT drops by far more
        // than half.
        assert!(
            i8run.profile.comm.domain_transfer < 0.4 * i16run.profile.comm.domain_transfer,
            "int8 DT {} vs int16 DT {}",
            i8run.profile.comm.domain_transfer,
            i16run.profile.comm.domain_transfer
        );
    }

    #[test]
    fn non_square_pes_rejected() {
        let cfg = GnnConfig {
            threads: 0,
            pes: 128,
            feature_dim: 16,
            layers: 1,
            variant: GnnVariant::RsAr,
            opt: OptLevel::Full,
            dtype: DType::I32,
        };
        let err = run_gnn(&cfg, &small_graph()).unwrap_err();
        assert!(matches!(err, pidcomm::Error::InvalidBuffer(_)), "{err}");
        assert!(err.to_string().contains("square PE count"), "{err}");
    }
}
