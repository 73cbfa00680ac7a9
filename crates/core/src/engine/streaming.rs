//! The optimized PID-Comm execution paths (§V of the paper).
//!
//! Every primitive follows the same three-phase structure:
//!
//! 1. **PE-assisted reordering** (phase A): each PE locally permutes its
//!    chunks so that, afterwards, every burst the host reads contains eight
//!    words with *distinct destinations* — one per lane.
//! 2. **Streaming host modulation** (phase B): the host reads bursts,
//!    applies a single register-level permutation (a byte-lane shuffle when
//!    cross-domain modulation applies, otherwise DT ∘ word-shift ∘ DT) and
//!    optionally a vertical SIMD reduction, then writes the register
//!    straight back to the destination entangled group. No host-memory
//!    staging.
//! 3. **PE-assisted reordering** (phase C): destination PEs fix up the
//!    local order of the received chunks.
//!
//! The index arithmetic for arbitrary groups: a communication group of size
//! `N` decomposes as `N = L × M` (lane ranks × entangled groups, see
//! [`EgCluster`]). A source PE with lane rank `i` pre-rotates the chunks
//! inside each destination-EG part by `i`, so the burst at part `m_d`,
//! slot `k` carries, in lane rank `i`, the chunk destined to lane rank
//! `(k + i) mod L` of EG `m_d`. Rotating the register by `k` aligns every
//! word with its destination lane, and the whole register is written to EG
//! `m_d` in one burst. Packed sibling instances (groups sharing the
//! entangled groups) rotate in lock-step inside the same register.
//!
//! # Execution engine
//!
//! Clusters touch disjoint entangled groups, so each cluster runs as an
//! independent task with an exclusive [`EgView`] over its PEs, and the
//! tasks fan out over the executor ([`super::hostkernel`]). The executors
//! move bytes and nothing else: what the modeled device pays is the plan's
//! [`CostSheet`], tallied once at plan build by [`charge`], so no schedule
//! of the clusters can reach a modeled bit.
//!
//! Inside a task, AlltoAll is *resolve once, stream many*: after phase A
//! the task resolves, once per PE, a read window over the source region
//! and a write window over the destination region ([`EgView::windows`] —
//! one capacity check, one segment lookup, one extent update each), and
//! the `(m_s, m_d, k)` loops then move chunks between the resolved slices.
//! The same loops serve every chunk size: a PE's region is resolved once
//! whether a chunk is 8 bytes or 8 KiB.
//!
//! The reducing primitives (ReduceScatter, AllReduce, Reduce) are *stream
//! every PE once*: one PE-major pass ([`reduce_cluster`]) walks the source
//! regions tile by tile, rotating each PE's stretch (phase A, fused) and
//! folding it while it is hot, and leaves one reduced vector per group in
//! rank order. A source that PEs share stays shared through both steps:
//! the rotation turns its pages into pages of one rotated image per lane
//! rank, and the fold ([`super::fold`]) takes each PE's stretch as its
//! pieces, so an idempotent operator folds a page its lane-mates share
//! once. That vector *is* Reduce's host output; ReduceScatter lands
//! each member its chunk of it; AllReduce lands all of it on every member
//! as one shared image ([`pim_sim::pe::Pe::write_shared`]): each member's
//! pages read the group's one `Arc`, and nothing is copied but the bytes
//! on the two pages the destination cuts. AllGather's result is replicated
//! too — every member ends with its group's sources in rank order — so it
//! lands the same way: one image per group, built from one read of each
//! source ([`pim_sim::pe::Pe::read_window`]), shared by every member. No
//! region is walked twice and nothing is moved in pieces smaller than the
//! model's registers unless a fault strikes one — under a fault plan an
//! image still lands shared, and its pieces are drawn as the register run
//! it stands for ([`pim_sim::pe::Landing::Run`]), each PE taking them in
//! the order the register loop would land them.
//!
//! Every function here executes a [`CollectivePlan`]: the per-cluster
//! rotation and final-slot schedules ([`ClusterSched`]) and the resolved
//! thread fan-out were all derived at *plan* time, so a plan held across
//! iterations (or pooled in a `PlanCache`) pays none of that per call.
//!
//! # Fault model
//!
//! The streaming loops need no fault hooks of their own: every byte they
//! land goes through [`pim_sim::pe::WriteWindow::put`] on the destination
//! PE (phase B), or through the one landing body of
//! [`pim_sim::pe::Pe::write`] (the rooted primitives' row writes) and
//! `Pe::write_shared` (AllReduce's and AllGather's fan-out) — which is
//! where [`pim_sim::FaultPlan`] injection and read-after-write
//! verification live. A window resolved while a plan is attached lands
//! each chunk checked, with the chunk's own `(pe, offset, len)`; the
//! landing body lands directly and draws each piece by the same key — a
//! run as the registers it stands for, in their order — and lands a struck
//! piece again through a window over it alone. Verification belongs to
//! the plan: with none attached every landing is the direct lane,
//! verified or not. Phase-A reordering ([`pim_sim::pe::Pe::rotate_parts`]) and the
//! typed in-place views are PE-local *compute*, deliberately outside the
//! transport fault scope (see `pim_sim::pe`). With no fault plan attached,
//! none of these paths change behavior by a single byte or modeled
//! nanosecond.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

use pim_sim::domain::{LanePerm, IDENTITY_PERM};
use pim_sim::dtype::{fill_identity, reducer, DType};
use pim_sim::geometry::{DimmGeometry, BURST_BYTES, LANES};
use pim_sim::pe::{Landing, Rotations, WriteWindow};
use pim_sim::system::EgView;
use pim_sim::PimSystem;

use crate::config::{OptLevel, Primitive, Technique};
use crate::engine::fold::Fold;
use crate::engine::hostkernel::par_pes;
use crate::engine::plan::{ClusterSched, CollectivePlan, Move};
use crate::engine::sheet::CostSheet;
use crate::engine::HostRows;
use crate::hypercube::EgCluster;

/// The per-PE pre-permutation of phase A in table form: destination slot
/// `m_d * l + k` receives the chunk originally at `((k + i_src) % l) + l *
/// m_d` — every part of `l` chunks rotated left by the PE's lane rank,
/// which is how [`pre_reorder_cluster`] and [`reduce_cluster`] execute it.
#[cfg(test)]
fn pre_perm(i_src: usize, l: usize, m: usize) -> Vec<usize> {
    (0..l * m)
        .map(|p| {
            let (m_d, k) = (p / l, p % l);
            ((k + i_src) % l) + l * m_d
        })
        .collect()
}

/// The per-PE post-permutation of phase C in table form: final slot `s =
/// m_s * l + i_s` receives the chunk that arrived at slot `m_s * l +
/// ((i_dst - i_s) % l)`. The streaming writes never run it: they land
/// every register directly in its final slot
/// ([`ClusterSched::final_slot`], this table's per-part inverse).
#[cfg(test)]
fn post_perm(i_dst: usize, l: usize, m: usize) -> Vec<usize> {
    (0..l * m)
        .map(|s| {
            let (m_s, i_s) = (s / l, s % l);
            m_s * l + ((i_dst + l - i_s) % l)
        })
        .collect()
}

/// One cluster's execution context: exclusive PE access, the plan's
/// precomputed per-cluster schedule, and a slot for host-side outputs of
/// rooted primitives.
struct ClusterTask<'c, 'v> {
    view: EgView<'v>,
    cluster: &'c EgCluster,
    sched: &'c ClusterSched,
    /// Index of the cluster in plan order (keys per-cluster prepared
    /// staging offsets).
    index: usize,
    /// `(group_id, buffer)` pairs produced by Gather/Reduce.
    out: Vec<(usize, Vec<u8>)>,
}

/// Splits `sys` into per-cluster views, runs `f` over all of the plan's
/// clusters on up to the plan's resolved thread count and returns the host
/// outputs sorted by group id.
fn run_clustered(
    sys: &mut PimSystem,
    plan: &CollectivePlan,
    f: impl Fn(&mut ClusterTask) + Sync,
) -> Vec<(usize, Vec<u8>)> {
    // Plans of primitives whose execution never reads a schedule
    // (Scatter/Gather/Broadcast, and the baseline path) carry an *empty*
    // schedule vector; anything else must be parallel to the clusters —
    // a partial vector is a broken plan invariant, and direct indexing
    // turns it into an immediate panic instead of silent corruption.
    static NO_SCHED: ClusterSched = ClusterSched {
        rotations: Vec::new(),
        final_slot: Vec::new(),
    };
    let sched_of = |i: usize| {
        if plan.sched.is_empty() {
            &NO_SCHED
        } else {
            &plan.sched[i]
        }
    };
    // The views borrow the plan's per-cluster EG partition (`plan.parts`);
    // what a warm execute still allocates before the fan-out is the view
    // and task vectors themselves, one entry per cluster.
    let views = sys.split_eg_views(&plan.parts);
    let mut tasks: Vec<ClusterTask> = views
        .into_iter()
        .zip(plan.clusters.iter().enumerate())
        .map(|(view, (i, cluster))| ClusterTask {
            view,
            cluster,
            sched: sched_of(i),
            index: i,
            out: Vec::new(),
        })
        .collect();
    par_pes(&mut tasks, plan.cluster_threads, |_, task| f(task));

    let mut outs: Vec<_> = tasks.into_iter().flat_map(|task| task.out).collect();
    outs.sort_by_key(|(gid, _)| *gid);
    outs
}

/// Runs phase A for one cluster: every PE rotates each destination-EG part
/// of its `n` chunks of `chunk` bytes at `offset` left by its lane rank.
fn pre_reorder_cluster(task: &mut ClusterTask, offset: usize, chunk: usize) {
    let c = task.cluster;
    let (l, m) = (c.lane_count, c.eg_count());
    let mut rotations = Rotations::default();
    for g in &c.groups {
        for (i_src, &lane) in g.lanes.iter().enumerate() {
            for slot in 0..m {
                task.view.pe_mut(slot, lane).rotate_parts(
                    offset,
                    chunk,
                    l,
                    l * m,
                    i_src,
                    &mut rotations,
                );
            }
        }
    }
}

/// Lands one register on the eight PEs of `bank`: lane `d` receives
/// `row(sigma[d])` in the part at `base`, at its *final* within-part slot
/// `slots[d]` — phase C fused into the write, so no destination-side PE
/// kernel has to run afterwards. The model still charges the phase-C
/// reorder (the device would execute it) while the simulator skips the
/// byte shuffling it can prove redundant.
#[inline]
fn land_register<'r>(
    bank: &mut [WriteWindow],
    base: usize,
    slots: &[usize; LANES],
    chunk: usize,
    sigma: &LanePerm,
    row: impl Fn(usize) -> &'r [u8],
) {
    for (d, lane) in bank.iter_mut().enumerate() {
        lane.put(base + slots[d] * chunk, row(sigma[d]));
    }
}

/// Charges `blocks` host-side modulations of a non-arithmetic primitive:
/// a single byte-lane shuffle per block when cross-domain modulation is
/// enabled, otherwise the DT ∘ word-shift ∘ DT sequence (staged through
/// host memory when in-register modulation is disabled).
///
/// The *functional* modulation happens in the host domain during the row
/// write ([`EgView::write_rows`] with the rotation as the lane
/// permutation) — byte-identical to shuffling each raw burst, by the
/// fusion identity of [`pim_sim::domain`] — so only the model's operation
/// counts are recorded here, one per burst the device would shuffle.
fn modulate_charges(sheet: &mut CostSheet, primitive: Primitive, opt: OptLevel, blocks: u64) {
    if opt.enables(Technique::CrossDomain, primitive) {
        sheet.shuffle_blocks += blocks;
    } else {
        sheet.dt_blocks += 2 * blocks;
        sheet.shuffle_blocks += blocks;
        if !opt.enables(Technique::InRegister, primitive) {
            // Spill + reload around the host-memory modulation pass.
            sheet.stream_bytes += 2 * BURST_BYTES as u64 * blocks;
        }
    }
}

/// Records every `CostSheet` charge one cluster of `plan` incurs on the
/// streaming path — the **single source of truth** for streaming costs.
///
/// The formulas aggregate the model's per-`(m_s, m_d, k)` charges over the
/// executors' loops (every counter is a `u64`, so summing per-iteration
/// charges in any grouping is exact); the one `u64 → f64` conversion
/// happens when the plan's sheet is applied ([`CostSheet::apply`] /
/// [`CostSheet::apply_to`]).
fn charge_cluster(sheet: &mut CostSheet, plan: &CollectivePlan, c: &EgCluster) {
    let p = plan.primitive;
    let (opt, dtype) = (plan.opt, plan.spec.dtype);
    let b = plan.spec.bytes_per_node;
    let (l, m) = (c.lane_count, c.eg_count());
    let n = l * m;
    match p {
        Primitive::AlltoAll => {
            // Triple loop (m_s, m_d, k): read burst + modulation + write
            // burst per iteration.
            let chunk = b / n;
            let words = (chunk / 8) as u64;
            let run = (chunk / 8 * BURST_BYTES) as u64;
            for m_s in 0..m {
                sheet.streamed(c.channels[m_s], (m * l) as u64 * run);
            }
            modulate_charges(sheet, p, opt, (m * m * l) as u64 * words);
            for m_d in 0..m {
                sheet.streamed(c.channels[m_d], (m * l) as u64 * run);
            }
        }
        Primitive::ReduceScatter => {
            // Per destination part: the shared reduction loop over all
            // (m_s, k) sources, then one reduced row write.
            let chunk = b / n;
            let words = (chunk / 8) as u64;
            let run = (chunk * LANES) as u64;
            for m_s in 0..m {
                sheet.streamed(c.channels[m_s], (m * l) as u64 * run);
            }
            align_reduce_charges(sheet, dtype, p, opt, (m * m * l) as u64 * words);
            if !dtype.is_byte_sized() {
                // Write-back domain transfer of the reduced registers.
                sheet.dt_blocks += m as u64 * words;
            }
            for m_d in 0..m {
                sheet.streamed(c.channels[m_d], run);
            }
        }
        Primitive::AllReduce => {
            // Reduction phase (as ReduceScatter's), then the fused
            // distribution fan-out: every reduced register is shuffled and
            // written to every (k, m_d) destination.
            let chunk = b / n;
            let words = (chunk / 8) as u64;
            let run = (chunk * LANES) as u64;
            for m_s in 0..m {
                sheet.streamed(c.channels[m_s], (m * l) as u64 * run);
            }
            align_reduce_charges(sheet, dtype, p, opt, (m * m * l) as u64 * words);
            if !dtype.is_byte_sized() {
                // One domain transfer per reduced register (per m_v).
                sheet.dt_blocks += m as u64 * words;
            }
            sheet.shuffle_blocks += (m * l * m) as u64 * words;
            if !opt.enables(Technique::InRegister, p) {
                sheet.stream_bytes += (m * l * m) as u64 * 2 * run;
            }
            for m_d in 0..m {
                sheet.streamed(c.channels[m_d], (m * l) as u64 * run);
            }
        }
        Primitive::AllGather => {
            // One read burst per source part, then a modulated write per
            // (k, m_d) destination.
            let chunk = b;
            let words = (chunk / 8) as u64;
            let run = (chunk / 8 * BURST_BYTES) as u64;
            for m_s in 0..m {
                sheet.streamed(c.channels[m_s], run);
            }
            modulate_charges(sheet, p, opt, (m * m * l) as u64 * words);
            for m_d in 0..m {
                sheet.streamed(c.channels[m_d], (m * l) as u64 * run);
            }
        }
        Primitive::Scatter => {
            let words = (b / 8) as u64;
            let run = words * BURST_BYTES as u64;
            sheet.stream_bytes += m as u64 * run;
            if !opt.enables(Technique::InRegister, p) {
                // Conventional path first rearranges the host buffer in
                // host memory before transferring.
                sheet.scatter_bytes += m as u64 * run;
            }
            sheet.dt_blocks += m as u64 * words;
            for m_d in 0..m {
                sheet.streamed(c.channels[m_d], run);
            }
        }
        Primitive::Gather => {
            let words = (b / 8) as u64;
            let run = words * BURST_BYTES as u64;
            for m_s in 0..m {
                sheet.streamed(c.channels[m_s], run);
            }
            sheet.dt_blocks += m as u64 * words;
            if !opt.enables(Technique::InRegister, p) {
                sheet.scatter_bytes += m as u64 * run;
            }
            sheet.stream_bytes += m as u64 * run;
        }
        Primitive::Reduce => {
            // The reduction loop per destination part, then one streaming
            // copy of the accumulator to the host.
            let chunk = b / n;
            let words = (chunk / 8) as u64;
            let run = (chunk * LANES) as u64;
            for m_s in 0..m {
                sheet.streamed(c.channels[m_s], (m * l) as u64 * run);
            }
            align_reduce_charges(sheet, dtype, p, opt, (m * m * l) as u64 * words);
            sheet.stream_bytes += m as u64 * run;
        }
        Primitive::Broadcast => {
            let words = (b / 8) as u64;
            let run = words * BURST_BYTES as u64;
            sheet.stream_bytes += run;
            sheet.dt_blocks += words;
            for m_d in 0..m {
                sheet.streamed(c.channels[m_d], run);
            }
        }
    }
}

/// The streaming path's whole cost, tallied once when `plan` is built:
/// the PE-side reorder passes in execution order, every cluster's
/// [`charge_cluster`] and the one host↔PIM transfer phase.
pub(crate) fn charge(sheet: &mut CostSheet, plan: &CollectivePlan) {
    let b = plan.spec.bytes_per_node as u64;
    match plan.primitive {
        // Phase A (pre) and phase C (post) reorder passes.
        Primitive::AlltoAll | Primitive::AllReduce => {
            sheet.pe_reorder(b);
            sheet.pe_reorder(b);
        }
        // Pre-reorder only: the result lands in final order.
        Primitive::ReduceScatter | Primitive::Reduce => sheet.pe_reorder(b),
        // Post-reorder only, over the gathered extent.
        Primitive::AllGather => sheet.pe_reorder(plan.n as u64 * b),
        Primitive::Scatter | Primitive::Gather | Primitive::Broadcast => {}
    }
    for c in &plan.clusters {
        charge_cluster(sheet, plan, c);
    }
    sheet.transfer_phases += 1;
}

/// The whole cost of a stepped ring / tree AllReduce
/// ([`crate::topology`]), tallied from its step list when
/// [`CollectivePlan::stepped`] builds the plan: per step burst-granular
/// bus traffic — each (entangled group, side) the step touches moves
/// `ceil(len / 8)` whole bursts however few of its lanes participate —, one
/// register shuffle per source burst, one transfer phase, and the
/// receivers' accumulate kernel as a PE-side pass when the step reduces. A
/// step with no moves (the staging phase, the tree's closing sync) is one
/// bare transfer phase.
pub(crate) fn charge_stepped(sheet: &mut CostSheet, geom: &DimmGeometry, steps: &[Vec<Move>]) {
    for moves in steps {
        let len = moves.first().map_or(0, |mv| mv.len);
        let mut src_egs = BTreeSet::new();
        let mut dst_egs = BTreeSet::new();
        let mut max_reduce_bytes = 0;
        for mv in moves {
            debug_assert_eq!(mv.len, len, "uniform step sizes expected");
            src_egs.insert(geom.group_of(mv.src_pe));
            dst_egs.insert(geom.group_of(mv.dst_pe));
            if mv.reduce {
                max_reduce_bytes = max_reduce_bytes.max(mv.len);
            }
        }
        let bursts_per_eg = len.div_ceil(8) as u64;
        for &eg in src_egs.iter().chain(&dst_egs) {
            sheet.streamed(
                geom.channel_of_group(eg),
                bursts_per_eg * BURST_BYTES as u64,
            );
        }
        sheet.shuffle_blocks += src_egs.len() as u64 * bursts_per_eg;
        sheet.transfer_phases += 1;
        if max_reduce_bytes > 0 {
            sheet.pe_reorder(max_reduce_bytes as u64);
        }
    }
}

/// AlltoAll (§V-A, Fig. 7d).
pub(crate) fn alltoall(sys: &mut PimSystem, plan: &CollectivePlan) {
    let (src, dst) = (plan.spec.src_offset, plan.spec.dst_offset);
    let bytes_per_node = plan.spec.bytes_per_node;

    run_clustered(sys, plan, |task| {
        let c = task.cluster;
        let (l, m) = (c.lane_count, c.eg_count());
        let chunk = bytes_per_node / (l * m);
        let sched = task.sched;

        pre_reorder_cluster(task, src, chunk);

        // The register read at part m_d, slot k of EG m_s lands in part
        // m_s of EG m_d.
        let (srcs, mut dsts) = task
            .view
            .windows(src..src + bytes_per_node, dst..dst + bytes_per_node);
        // simlint: hot(begin, alltoall phase B)
        for (m_s, from) in srcs.chunks_exact(LANES).enumerate() {
            for (m_d, to) in dsts.chunks_exact_mut(LANES).enumerate() {
                for k in 0..l {
                    let at = (m_d * l + k) * chunk;
                    land_register(
                        to,
                        dst + m_s * l * chunk,
                        &sched.final_slot[k],
                        chunk,
                        &sched.rotations[k],
                        |s| &from[s][at..at + chunk],
                    );
                }
            }
        }
        // simlint: hot(end)
    });
}

/// Charges `blocks` align-and-reduce steps: for 8-bit element types the
/// whole step stays in the raw domain (the host can interpret single bytes
/// without domain transfer, §V-C); otherwise each block is
/// domain-transferred first. As with [`modulate_charges`], the functional
/// work runs row-wise in the host domain and only the counts are recorded
/// here.
fn align_reduce_charges(
    sheet: &mut CostSheet,
    dtype: DType,
    primitive: Primitive,
    opt: OptLevel,
    blocks: u64,
) {
    if !dtype.is_byte_sized() {
        sheet.dt_blocks += blocks;
    }
    sheet.shuffle_blocks += blocks;
    sheet.reduce_blocks += blocks;
    if !opt.enables(Technique::InRegister, primitive) {
        sheet.stream_bytes += 2 * BURST_BYTES as u64 * blocks;
    }
}

/// Bytes of one source lane the PE-major reduction keeps in flight: the
/// tile it folds a lane's PEs into (and the stretch of each PE it rotates
/// and reads while doing so) stays cache-resident at any `bytes_per_node`.
const TILE_BYTES: usize = 64 * 1024;

/// The shared reduction of ReduceScatter, AllReduce and Reduce, fused with
/// their phase A: returns, per packed group in `cluster.groups` order, the
/// group's reduced vector — `bytes_per_node` bytes, chunk `r` being what
/// rank `r = i + l * m_d` (lane rank `i` of EG `m_d`) is owed.
///
/// PE-major: the region is tiled in whole destination-EG parts, and per
/// tile every source PE is visited once — its parts are rotated by its lane
/// rank (phase A, exactly [`pim_sim::pe::Pe::rotate_parts`] over the whole
/// region once all tiles are done) and the still-hot tile is folded
/// *vertically* into its lane's sum: the lane's first PE copied in, the
/// others folded piece by piece ([`Fold`]). The pass keeps one memo of
/// rotated images ([`Rotations`]), so the lane-mates of a shared source
/// lend the same rotated pages, and an idempotent operator folds those
/// once per lane. Each lane sum is
/// then aligned: slot `k` of a part rotated by `i` belongs to lane rank
/// `(k + i) % l`, so the part folds into the group's vector as two runs —
/// the host-domain form of aligning every burst with the rotation before
/// the vertical SIMD reduction. Integer reductions are associative and
/// commutative, so this is bit-identical to folding burst by burst, and the
/// same bytes reduced. Purely functional: its costs are part of
/// [`charge_cluster`]'s per-primitive tallies.
fn reduce_cluster(task: &mut ClusterTask, plan: &CollectivePlan) -> Vec<Vec<u8>> {
    let c = task.cluster;
    let (l, m) = (c.lane_count, c.eg_count());
    let (src, b) = (plan.spec.src_offset, plan.spec.bytes_per_node);
    let (op, dtype) = (plan.op, plan.spec.dtype);
    let chunk = b / (l * m);
    let part = l * chunk;
    let tile = (TILE_BYTES / part).max(1) * part;
    let kernel = reducer(op, dtype);
    let mut images = vec![vec![0u8; b]; c.groups.len()];
    for image in &mut images {
        fill_identity(op, dtype, image);
    }
    let mut sum = vec![0u8; tile.min(b)];
    let mut fold = Fold::new(op, dtype);
    let mut rotations = Rotations::default();
    // simlint: hot(begin, PE-major reduction)
    for t0 in (0..b).step_by(tile) {
        let len = tile.min(b - t0);
        let sum = &mut sum[..len];
        for (g, image) in c.groups.iter().zip(&mut images) {
            for (i, &lane) in g.lanes.iter().enumerate() {
                for m_s in 0..m {
                    let pe = task.view.pe_mut(m_s, lane);
                    pe.rotate_parts(src + t0, chunk, l, len / chunk, i, &mut rotations);
                    if m_s == 0 {
                        fold.copy(sum, pe, src + t0);
                    } else {
                        fold.fold(sum, pe, src + t0);
                    }
                }
                let cut = (l - i) * chunk;
                let to = image[t0..t0 + len].chunks_exact_mut(part);
                for (to, from) in to.zip(sum.chunks_exact(part)) {
                    kernel(&mut to[i * chunk..], &from[..cut]);
                    kernel(&mut to[..i * chunk], &from[cut..]);
                }
            }
        }
    }
    // simlint: hot(end)
    images
}

/// ReduceScatter (§V-B2, Fig. 8b).
pub(crate) fn reduce_scatter(sys: &mut PimSystem, plan: &CollectivePlan) {
    let dst = plan.spec.dst_offset;
    let bytes_per_node = plan.spec.bytes_per_node;

    run_clustered(sys, plan, |task| {
        let c = task.cluster;
        let l = c.lane_count;
        let chunk = bytes_per_node / c.group_size();

        let images = reduce_cluster(task, plan);

        let (_, mut dsts) = task.view.windows(0..0, dst..dst + chunk);
        for (m_d, to) in dsts.chunks_exact_mut(LANES).enumerate() {
            for (g, image) in c.groups.iter().zip(&images) {
                for (&lane, row) in g.lanes.iter().zip(image[m_d * l * chunk..].chunks(chunk)) {
                    to[lane].put(dst, row);
                }
            }
        }
    });
}

/// AllReduce (§V-B3, Fig. 8c): ReduceScatter's reduction phase fused with
/// AllGather's distribution phase — the reduced registers are scattered to
/// all PEs without a round-trip through PIM memory.
pub(crate) fn all_reduce(sys: &mut PimSystem, plan: &CollectivePlan) {
    let dst = plan.spec.dst_offset;
    let bytes_per_node = plan.spec.bytes_per_node;

    run_clustered(sys, plan, |task| {
        let c = task.cluster;
        let (l, m) = (c.lane_count, c.eg_count());
        let chunk = bytes_per_node / (l * m);

        let images: Vec<Arc<[u8]>> = reduce_cluster(task, plan)
            .into_iter()
            .map(Arc::from)
            .collect();

        // Distribution phase: the model charges one domain transfer per
        // reduced register and one shuffle per written register (see
        // charge_cluster) — the reference flow rotates in the store loop.
        // Functionally every member ends up with its group's whole vector
        // in rank order.
        land_replicated(task, dst, chunk, &images);
    });
}

/// AllGather (§V-B1, Fig. 8a): every member of a group ends with the
/// group's sources concatenated in rank order, so each group's result is
/// built once, from one read of each source, and lands on every member as
/// one shared image, as AllReduce's does.
pub(crate) fn all_gather(sys: &mut PimSystem, plan: &CollectivePlan) {
    let (src, dst) = (plan.spec.src_offset, plan.spec.dst_offset);
    let chunk = plan.spec.bytes_per_node;

    run_clustered(sys, plan, |task| {
        let c = task.cluster;
        let (l, m) = (c.lane_count, c.eg_count());

        // Rank `i + l * m_s` is lane rank `i` of EG `m_s`.
        let images: Vec<Arc<[u8]>> = c
            .groups
            .iter()
            .map(|g| {
                let mut image = Vec::with_capacity(l * m * chunk);
                for m_s in 0..m {
                    for &lane in &g.lanes {
                        let pe = task.view.pe_mut(m_s, lane);
                        image.extend_from_slice(&pe.read_window(src, chunk));
                    }
                }
                Arc::from(image)
            })
            .collect();

        // The model charges one read burst per source part and a modulated
        // write per (k, m_d) destination (see charge_cluster).
        land_replicated(task, dst, chunk, &images);
    });
}

/// Lands each packed group's image — a result every member receives
/// whole — on every member as one shared image
/// ([`pim_sim::pe::Pe::write_shared`]). Where the fault layer watches, an
/// image's pieces are drawn as the registers the model counts, in the
/// order the register loop would land them: the PE at lane `d` takes, part
/// by part and rotation `k` by rotation, the `chunk`-byte piece at its
/// final slot `final_slot[k][d]` — slot `(i - k) % l` for lane rank `i`.
fn land_replicated(task: &mut ClusterTask, dst: usize, chunk: usize, images: &[Arc<[u8]>]) {
    let c = task.cluster;
    let (l, m) = (c.lane_count, c.eg_count());
    let final_slot = &task.sched.final_slot;
    // simlint: hot(begin, replicated fan-out)
    for m_d in 0..m {
        for (g, image) in c.groups.iter().zip(images) {
            for &lane in &g.lanes {
                let order = |j: usize| j / l * l + final_slot[j % l][lane];
                let landing = Landing::Run {
                    chunk,
                    order: &order,
                };
                task.view
                    .pe_mut(m_d, lane)
                    .write_shared(dst, image, landing);
            }
        }
    }
    // simlint: hot(end)
}

/// Gather (§V-B4: AllGather's read step followed by domain transfer).
/// Returns host buffers indexed by group id, `N * bytes_per_node` each.
pub(crate) fn gather(sys: &mut PimSystem, plan: &CollectivePlan) -> Vec<Vec<u8>> {
    let src = plan.spec.src_offset;
    let bytes_per_node = plan.spec.bytes_per_node;
    let num_groups = plan.num_groups();

    let outs = run_clustered(sys, plan, |task| {
        let c = task.cluster;
        let (l, m) = (c.lane_count, c.eg_count());
        let mut host: Vec<(usize, Vec<u8>)> = c
            .groups
            .iter()
            .map(|g| (g.group_id, vec![0u8; c.group_size() * bytes_per_node]))
            .collect();
        let mut rows = vec![0u8; LANES * bytes_per_node];
        for m_s in 0..m {
            task.view
                .read_rows_into(m_s, src, bytes_per_node, &mut rows);
            for (gi, g) in c.groups.iter().enumerate() {
                for (i, &lane) in g.lanes.iter().enumerate() {
                    let rank = i + l * m_s;
                    let off = rank * bytes_per_node;
                    host[gi].1[off..off + bytes_per_node]
                        .copy_from_slice(&rows[lane * bytes_per_node..(lane + 1) * bytes_per_node]);
                }
            }
        }
        task.out = host;
    });

    collect_host_out(outs, num_groups)
}

/// Reduce (§V-B4: the reduction half of ReduceScatter with the host as
/// root). Returns per-group reduced vectors of `bytes_per_node` bytes.
pub(crate) fn reduce(sys: &mut PimSystem, plan: &CollectivePlan) -> Vec<Vec<u8>> {
    let num_groups = plan.num_groups();

    let outs = run_clustered(sys, plan, |task| {
        let c = task.cluster;
        // The reduced vectors already hold word order for every element
        // width (for 8-bit elements this is the free raw-domain
        // reinterpretation of the model: no DT charged).
        let images = reduce_cluster(task, plan);
        task.out = c.groups.iter().map(|g| g.group_id).zip(images).collect();
    });

    collect_host_out(outs, num_groups)
}

/// Where a rooted send takes its rows from.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// The per-group host row source, indexed by group id; the executor
    /// asks it for one rank row at a time into one `LANES *
    /// bytes_per_node` block, so neither the send nor a generating source
    /// ever holds the whole payload.
    Host(&'a dyn HostRows),
    /// A row image assembled by [`stage_rows`], with the base offset of
    /// each cluster's blocks in plan order.
    Staged {
        image: &'a [u8],
        offsets: &'a [usize],
    },
}

/// The rooted-send row layout: the bytes of its group's host buffer that
/// group rank `rank` receives — its own `bytes_per_node` for Scatter
/// (buffers are laid out by destination rank), the whole buffer for
/// Broadcast. Lane rank `i` of destination part `m_d` is rank `i + l *
/// m_d`.
pub(crate) fn rank_row(plan: &CollectivePlan, rank: usize) -> Range<usize> {
    let b = plan.spec.bytes_per_node;
    match plan.primitive {
        Primitive::Scatter => rank * b..(rank + 1) * b,
        _ => 0..b,
    }
}

/// Row blocks a cluster's rooted send is made of: one per destination part
/// for Scatter, one written to every part unchanged for Broadcast.
fn row_blocks(plan: &CollectivePlan, c: &EgCluster) -> usize {
    match plan.primitive {
        Primitive::Scatter => c.eg_count(),
        _ => 1,
    }
}

/// Assembles row block `block` of cluster `c` into `rows` (`LANES *
/// bytes_per_node` bytes, lane-major): one rank row requested per lane. A
/// cluster's packed groups own all eight lanes between them
/// (`build_clusters`), so every byte of `rows` is overwritten.
fn fill_block(
    plan: &CollectivePlan,
    c: &EgCluster,
    block: usize,
    host_in: &dyn HostRows,
    rows: &mut [u8],
) {
    let b = plan.spec.bytes_per_node;
    for g in &c.groups {
        for (i, &lane) in g.lanes.iter().enumerate() {
            let range = rank_row(plan, i + c.lane_count * block);
            host_in.fill(g.group_id, range, &mut rows[lane * b..(lane + 1) * b]);
        }
    }
}

/// Scatter and Broadcast (§V-B4), the host as root. Scatter is the
/// write-back half of ReduceScatter; Broadcast is the native driver path —
/// one domain transfer per block, reused for every destination PE of the
/// group, no technique applies, already bus-bound (Table II, §VIII-B).
/// Either lands one row block per destination part ([`rank_row`]).
pub(crate) fn rooted_send(sys: &mut PimSystem, plan: &CollectivePlan, rows: Rows<'_>) {
    let dst = plan.spec.dst_offset;
    let b = plan.spec.bytes_per_node;
    let block_len = LANES * b;

    run_clustered(sys, plan, |task| {
        let c = task.cluster;
        let last_block = row_blocks(plan, c) - 1;
        let mut scratch = match rows {
            Rows::Host(_) => vec![0u8; block_len],
            Rows::Staged { .. } => Vec::new(),
        };
        // simlint: hot(begin, rooted-send landing)
        for m_d in 0..c.eg_count() {
            // Scatter: part `m_d` lands block `m_d`. Broadcast: its one
            // block, assembled for part 0, lands on every part.
            let block = m_d.min(last_block);
            let rows = match rows {
                Rows::Staged { image, offsets } => {
                    let at = offsets[task.index] + block * block_len;
                    &image[at..at + block_len]
                }
                Rows::Host(host_in) => {
                    if block == m_d {
                        fill_block(plan, c, block, host_in, &mut scratch);
                    }
                    &scratch[..]
                }
            };
            task.view.write_rows(m_d, dst, b, rows, &IDENTITY_PERM);
        }
        // simlint: hot(end)
    });
}

/// Total bytes of the row image a prepared execution of `plan` needs.
pub(crate) fn staged_len(plan: &CollectivePlan) -> usize {
    let blocks: usize = plan.clusters.iter().map(|c| row_blocks(plan, c)).sum();
    blocks * LANES * plan.spec.bytes_per_node
}

/// Assembles the per-group host buffers of a Scatter/Broadcast into the
/// prepared row image `buf` (length [`staged_len`]), returning the base
/// offset of each cluster's blocks in plan order. Blocks are assembled
/// front to back, exactly as the per-call path fills its scratch block,
/// and fully overwritten — recycled arena buffers and `restage` over a
/// previous payload need no clear first.
pub(crate) fn stage_rows(
    plan: &CollectivePlan,
    host_in: &dyn HostRows,
    buf: &mut [u8],
) -> Vec<usize> {
    let block_len = LANES * plan.spec.bytes_per_node;
    let mut offsets = Vec::with_capacity(plan.clusters.len());
    let mut base = 0usize;
    for c in &plan.clusters {
        offsets.push(base);
        for block in 0..row_blocks(plan, c) {
            fill_block(plan, c, block, host_in, &mut buf[base..base + block_len]);
            base += block_len;
        }
    }
    offsets
}

/// Rebuilds the per-group host buffers from a prepared row image — the
/// exact inverse of [`stage_rows`] (staging is a pure byte permutation,
/// so no information is lost; every lane of a Broadcast group carries the
/// same bytes). Only the degraded-recompute path uses this (it reads each
/// member's rank row from the original rank-ordered buffers), which is
/// what lets [`super::prepared::PreparedScatter`] drop `host_in` after
/// staging instead of retaining a second copy.
pub(crate) fn unstage_rows(
    plan: &CollectivePlan,
    staged: &[u8],
    offsets: &[usize],
) -> Vec<Vec<u8>> {
    let b = plan.spec.bytes_per_node;
    let per_group = match plan.primitive {
        Primitive::Scatter => plan.n * b,
        _ => b,
    };
    let mut host: Vec<Vec<u8>> = vec![vec![0u8; per_group]; plan.num_groups()];
    for (c, &base) in plan.clusters.iter().zip(offsets) {
        for block in 0..row_blocks(plan, c) {
            let rows = &staged[base + block * LANES * b..];
            for g in &c.groups {
                for (i, &lane) in g.lanes.iter().enumerate() {
                    host[g.group_id][rank_row(plan, i + c.lane_count * block)]
                        .copy_from_slice(&rows[lane * b..(lane + 1) * b]);
                }
            }
        }
    }
    host
}

/// Places per-cluster `(group_id, buffer)` outputs into the dense
/// group-indexed vector the public API returns.
fn collect_host_out(outs: Vec<(usize, Vec<u8>)>, num_groups: usize) -> Vec<Vec<u8>> {
    let mut host_out: Vec<Vec<u8>> = vec![Vec::new(); num_groups];
    for (gid, buf) in outs {
        host_out[gid] = buf;
    }
    host_out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre- and post-permutations must compose with the burst-level
    /// rotation schedule to the AlltoAll permutation; here we check their
    /// standalone algebra.
    #[test]
    fn pre_perm_is_a_permutation_for_all_shapes() {
        for l in [1usize, 2, 4, 8] {
            for m in [1usize, 2, 3, 4, 16] {
                for i_src in 0..l {
                    let p = pre_perm(i_src, l, m);
                    let mut seen = vec![false; l * m];
                    for &x in &p {
                        assert!(!seen[x], "l={l} m={m} i={i_src}");
                        seen[x] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn post_perm_is_a_permutation_for_all_shapes() {
        for l in [1usize, 2, 4, 8] {
            for m in [1usize, 2, 3, 4, 16] {
                for i_dst in 0..l {
                    let p = post_perm(i_dst, l, m);
                    let mut seen = vec![false; l * m];
                    for &x in &p {
                        assert!(!seen[x], "l={l} m={m} i={i_dst}");
                        seen[x] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn pre_perm_keeps_parts_and_rotates_within() {
        // Slot m_d*l+k must source a chunk of the same destination-EG part.
        let (l, m) = (4usize, 3usize);
        for i_src in 0..l {
            let p = pre_perm(i_src, l, m);
            for (slot, &src) in p.iter().enumerate() {
                assert_eq!(slot / l, src / l, "chunks never cross parts");
                assert_eq!((slot % l + i_src) % l, src % l, "rotation by lane rank");
            }
        }
    }

    #[test]
    fn pre_perm_with_zero_lane_rank_is_identity() {
        let p = pre_perm(0, 8, 4);
        assert!(p.iter().enumerate().all(|(i, &x)| i == x));
        // ...and so is the post-permutation for destination lane rank 0
        // only at slots whose source lane rank is 0.
        let q = post_perm(0, 1, 16);
        assert!(
            q.iter().enumerate().all(|(i, &x)| i == x),
            "l=1 is trivially identity"
        );
    }

    #[test]
    fn post_perm_inverts_arrival_order() {
        // If chunk from source rank s arrives at slot m_s*l + (i_d - i_s)%l,
        // the post-permutation must place it at slot s = m_s*l + i_s.
        let (l, m) = (8usize, 2usize);
        for i_d in 0..l {
            let p = post_perm(i_d, l, m);
            for m_s in 0..m {
                for i_s in 0..l {
                    let arrival = m_s * l + ((i_d + l - i_s) % l);
                    let final_slot = m_s * l + i_s;
                    assert_eq!(p[final_slot], arrival);
                }
            }
        }
    }

    #[test]
    fn sched_matches_closed_form() {
        // What the plan precomputes and phase A executes must equal the
        // closed-form tables for every lane of every cluster shape:
        // `rotate_parts` by the lane rank is `pre_perm`, and landing each
        // arrival slot k of every part at `final_slot[k]` equals applying
        // `post_perm` afterwards.
        use crate::hypercube::{build_clusters, HypercubeManager};
        use crate::HypercubeShape;
        use pim_sim::pe::Pe;
        use pim_sim::DimmGeometry;

        let manager = HypercubeManager::new(
            HypercubeShape::new(vec![4, 2, 4]).unwrap(),
            DimmGeometry::new(2, 1, 2),
        )
        .unwrap();
        for mask in ["100", "010", "001", "110", "101", "111"] {
            for c in &build_clusters(&manager, &mask.parse().unwrap()).unwrap() {
                let sched = ClusterSched::for_cluster(c);
                let (l, m) = (c.lane_count, c.eg_count());
                let image: Vec<u8> = (0..l * m).map(|slot| slot as u8).collect();
                for g in &c.groups {
                    for (i, &lane) in g.lanes.iter().enumerate() {
                        let mut pe = Pe::new();
                        pe.write(0, &image);
                        pe.rotate_parts(0, 1, l, l * m, i, &mut Default::default());
                        let pre: Vec<u8> = pre_perm(i, l, m).iter().map(|&s| s as u8).collect();
                        assert_eq!(pe.peek(0, l * m), pre, "{mask} pre i={i}");
                        // post[final] = arrival  <=>  final_slot[arrival] = final.
                        for (final_slot, arrival) in post_perm(i, l, m).into_iter().enumerate() {
                            assert_eq!(
                                sched.final_slot[arrival % l][lane],
                                final_slot % l,
                                "{mask} i={i} slot {final_slot}"
                            );
                        }
                    }
                }
            }
        }
    }
}
