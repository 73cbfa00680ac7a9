//! The conventional CPU-mediated communication path (§III-A, Fig. 3a).
//!
//! This is the UPMEM-SDK / SimplePIM-style flow the paper compares against:
//! all data is pulled to the host (with automatic domain transfer),
//! globally rearranged/reduced *in host memory*, domain-transferred again
//! and pushed back. The engine computes its own results, on borrowed PE
//! memory: [`group_result`] makes each group's result — a reducing pull
//! folds the pieces each PE lends ([`pim_sim::pe::Pe::pieces`], through
//! [`super::fold`]), so nothing is copied and an idempotent operator folds
//! a page the members share once — and [`push`] lands each member its
//! share, as one image the members share
//! ([`pim_sim::pe::Pe::write_shared`]) where the share is the whole result.
//! An AlltoAll has no one result: [`alltoall`] transposes a group's chunks
//! one batch of destination ranks at a time, in one buffer it reuses, and
//! lands each batch before it reads the next. Plan validation keeps every
//! source region apart from every destination region, so a landing never
//! reaches a byte a later read takes, and every call sees a snapshot of its
//! sources. Degraded execution ([`super::recovery`]) is the same functions
//! over the surviving PEs. The plan's cost sheet ([`charge`]) charges the
//! three bottlenecks the paper identifies: host-memory staging,
//! word-granular modulation and per-byte domain transfer.
//!
//! Groups touch disjoint PEs, so the host-memory rearrangement of the
//! groups fans out over the executor; pushes stay in group order, keeping
//! the final MRAM images identical to serial execution. AlltoAll's batches,
//! which interleave reads and landings, run group by group on the calling
//! thread.

use std::sync::Arc;

use pim_sim::dtype::fill_identity;
use pim_sim::geometry::BURST_BYTES;
use pim_sim::pe::Landing;
use pim_sim::{PeId, PimSystem};

use crate::config::Primitive;
use crate::engine::buffer_extents;
use crate::engine::fold::Fold;
use crate::engine::hostkernel::par_pes;
use crate::engine::plan::CollectivePlan;
use crate::engine::sheet::CostSheet;

/// Records every `CostSheet` charge the baseline execution of `plan`
/// incurs — the **single source of truth** for the conventional path's
/// costs, tallied once when the plan is built. All quantities depend only
/// on the plan's group tables and spec, never on payload bytes.
pub(crate) fn charge(sheet: &mut CostSheet, plan: &CollectivePlan) {
    let geom = plan.geometry;
    let groups = plan.groups.as_slice();
    let primitive = plan.primitive;
    let bytes_per_node = plan.spec.bytes_per_node;
    let n = groups[0].members.len();
    // Bytes read from / written to each member PE.
    let (in_size, out_size) = buffer_extents(primitive, bytes_per_node, n);

    // 1. Pull every member's data into host memory.
    for group in groups {
        for &pe in &group.members {
            let ch = geom.channel_of_group(geom.group_of(pe));
            sheet.bulk(ch, in_size as u64);
        }
    }
    let total_in = (in_size as u64) * groups.len() as u64 * n as u64;

    // 3. Push results back — every primitive but Reduce redistributes
    //    per-member outputs of `out_size` bytes.
    let mut total_out = 0u64;
    if primitive != Primitive::Reduce {
        for group in groups {
            for &pe in &group.members {
                let ch = geom.channel_of_group(geom.group_of(pe));
                sheet.bulk(ch, out_size as u64);
            }
            total_out += (out_size * group.members.len()) as u64;
        }
    }

    // Host-side accounting. The 1-D single-group AllGather has a fast path
    // in the conventional stack: Gather followed by the native Broadcast,
    // which domain-transfers each block only once and needs no modulation
    // (§VIII-E: "the baseline relies on the fast broadcast function, which
    // cannot be utilized for 2D settings").
    let ag_fast_path = primitive == Primitive::AllGather && groups.len() == 1;
    let unique_out = if ag_fast_path {
        (n * bytes_per_node) as u64 // one concatenated vector, reused for all PEs
    } else {
        total_out
    };

    sheet.dt_blocks += (total_in + unique_out).div_ceil(BURST_BYTES as u64);
    sheet.stream_bytes += total_in + unique_out;
    if primitive.is_reducing() {
        // The host-memory arithmetic pass over all inputs.
        sheet.reduce_mem_bytes += total_in;
        // Reduce needs no global rearrangement, only the reduction; the
        // redistributing primitives additionally pay the word-granular
        // modulation pass.
        if primitive != Primitive::Reduce {
            sheet.scatter_bytes += total_in + total_out;
        }
    } else if !ag_fast_path {
        sheet.scatter_bytes += total_in + total_out;
    }
    sheet.transfer_phases += 2;
}

/// Executes the plan's primitive over its pre-enumerated group tables
/// using the conventional host-memory flow. Returns host-side outputs for
/// `Reduce`, `None` otherwise.
pub(crate) fn run(sys: &mut PimSystem, plan: &CollectivePlan) -> Option<Vec<Vec<u8>>> {
    if plan.primitive == Primitive::AlltoAll {
        let mut batch = Vec::new();
        for group in &plan.groups {
            alltoall(sys, plan, &group.members, |_| false, &mut batch);
        }
        return None;
    }
    // 1. Pull every member's data (domain transfer is automatic in the
    //    conventional driver) and 2. globally rearrange / reduce it in host
    //    memory — pure computation on shared borrows, one task and one
    //    result per group.
    let pes = &*sys;
    let mut groups: Vec<_> = plan.groups.iter().collect();
    let results = par_pes(&mut groups, plan.group_threads, |_, group| {
        group_result(pes, plan, &group.members)
    });

    // 3. Push results back (domain transfer again), in group order.
    if plan.primitive == Primitive::Reduce {
        return Some(results);
    }
    for (group, row) in groups.iter().zip(results) {
        push(sys, plan, &group.members, &row, |_| false);
    }
    None
}

/// A group's result, computed in host memory from its members' sources:
/// the concatenation of the sources (AllGather, Gather) or the fold of
/// every member into an identity-filled accumulator (the reducing
/// primitives). AlltoAll's is never built whole ([`alltoall`]).
pub(crate) fn group_result(sys: &PimSystem, plan: &CollectivePlan, members: &[PeId]) -> Vec<u8> {
    debug_assert_ne!(plan.primitive, Primitive::AlltoAll);
    let (src, b) = (plan.spec.src_offset, plan.spec.bytes_per_node);
    if plan.primitive.is_reducing() {
        let (op, dtype) = (plan.op, plan.spec.dtype);
        let mut acc = vec![0u8; b];
        fill_identity(op, dtype, &mut acc);
        let mut fold = Fold::new(op, dtype);
        for &pe in members {
            fold.fold(&mut acc, sys.pe(pe), src);
        }
        return acc;
    }
    let mut row = Vec::with_capacity(members.len() * b);
    for &pe in members {
        row.extend_from_slice(&sys.pe(pe).read_window(src, b));
    }
    row
}

/// Lands each member of a group but those `skip` names, in member order,
/// its share of the group's result `row` ([`group_result`]): its slice
/// (ReduceScatter) or — where every member's output is the whole row
/// (AllReduce, AllGather) — a replica the members share
/// (`Pe::write_shared`). Returns the bytes it landed.
pub(crate) fn push(
    sys: &mut PimSystem,
    plan: &CollectivePlan,
    members: &[PeId],
    row: &[u8],
    skip: impl Fn(PeId) -> bool,
) -> u64 {
    let dst = plan.spec.dst_offset;
    let out_size = buffer_extents(plan.primitive, plan.spec.bytes_per_node, members.len()).1;
    let whole = (row.len() == out_size).then(|| Arc::<[u8]>::from(row));
    let mut landed = 0;
    for (rank, &pe) in members.iter().enumerate().filter(|&(_, &pe)| !skip(pe)) {
        let pe = sys.pe_mut(pe);
        match &whole {
            Some(image) => pe.write_shared(dst, image, Landing::Row),
            None => pe.write(dst, &row[rank * out_size..][..out_size]),
        }
        landed += out_size as u64;
    }
    landed
}

/// Bytes of destination rows one AlltoAll batch transposes: the batch
/// buffer, and the stretch of every source it reads at once, stay small and
/// cache-resident whatever the group's `n * b` (32 MiB on DLRM's 1024-PE
/// group).
const BATCH_BYTES: usize = 1 << 20;

/// A group's AlltoAll: destination rank `d`'s row is chunk `d` of every
/// member's source, in rank order. Works through the ranks in batches of
/// [`BATCH_BYTES`] worth of rows: every member lends one window over its
/// chunks for the batch, the batch's rows are assembled in `batch` (reused
/// across batches, and by the caller across groups), and each row lands
/// with `Pe::write` on its member, in member order, but on the members
/// `skip` names. Returns the bytes it landed.
pub(crate) fn alltoall(
    sys: &mut PimSystem,
    plan: &CollectivePlan,
    members: &[PeId],
    skip: impl Fn(PeId) -> bool,
    batch: &mut Vec<u8>,
) -> u64 {
    let (src, dst, b) = (
        plan.spec.src_offset,
        plan.spec.dst_offset,
        plan.spec.bytes_per_node,
    );
    let n = members.len();
    let c = b / n;
    let rows = (BATCH_BYTES / b).clamp(1, n);
    batch.resize(rows * b, 0);
    let mut landed = 0;
    // simlint: hot(begin, baseline AlltoAll batches)
    for r0 in (0..n).step_by(rows) {
        let ranks = &members[r0..(r0 + rows).min(n)];
        let batch = &mut batch[..ranks.len() * b];
        for (m, &pe) in members.iter().enumerate() {
            let window = sys.pe(pe).read_window(src + r0 * c, ranks.len() * c);
            for (row, chunk) in batch.chunks_exact_mut(b).zip(window.chunks_exact(c)) {
                row[m * c..][..c].copy_from_slice(chunk);
            }
        }
        for (row, &pe) in batch.chunks_exact(b).zip(ranks) {
            if !skip(pe) {
                sys.pe_mut(pe).write(dst, row);
                landed += b as u64;
            }
        }
    }
    // simlint: hot(end)
    landed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::{BufferSpec, Communicator, DimMask, HypercubeManager, HypercubeShape, OptLevel};
    use pim_sim::{DimmGeometry, ReduceKind};

    /// Plan validation refuses overlapping regions, so no caller gets
    /// here; the flow itself would still see a snapshot of its sources,
    /// because no landing starts before the last read it depends on has
    /// ended: a group result is read whole before its push, and this
    /// AlltoAll (`n * b` = 1 KiB) fits one batch, whose reads all end
    /// before its first landing.
    #[test]
    fn overlapping_regions_would_still_see_a_snapshot() {
        let geom = DimmGeometry::single_group();
        let shape = HypercubeShape::new(vec![8]).unwrap();
        let comm = Communicator::new(HypercubeManager::new(shape, geom).unwrap())
            .with_opt(OptLevel::Baseline)
            .with_threads(1);
        let mask = DimMask::all(comm.manager().shape());
        for primitive in [
            Primitive::AlltoAll,
            Primitive::ReduceScatter,
            Primitive::AllReduce,
            Primitive::AllGather,
        ] {
            let b = if primitive == Primitive::AllGather {
                16
            } else {
                128
            };
            let apart = BufferSpec::new(0, 4096, b);
            let mut plan = comm
                .plan(primitive, &mask, &apart, ReduceKind::Sum)
                .unwrap();
            plan.spec.dst_offset = 8; // one word into every source
            let mut sys = PimSystem::new(geom);
            for pe in geom.pes() {
                let data: Vec<u8> = (0..b).map(|i| (pe.0 as usize * 37 + i * 5) as u8).collect();
                sys.pe_mut(pe).write(0, &data);
            }
            let members = &plan.groups[0].members;
            let inputs: Vec<Vec<u8>> = members.iter().map(|&pe| sys.pe(pe).peek(0, b)).collect();
            let (op, dtype) = (plan.op, plan.spec.dtype);
            let want = match primitive {
                Primitive::AlltoAll => oracle::alltoall(&inputs),
                Primitive::ReduceScatter => oracle::reduce_scatter(&inputs, op, dtype),
                Primitive::AllReduce => oracle::all_reduce(&inputs, op, dtype),
                _ => oracle::all_gather(&inputs),
            };
            run(&mut sys, &plan);
            for (&pe, want) in members.iter().zip(&want) {
                assert_eq!(&sys.pe(pe).peek(8, want.len()), want, "{primitive} {pe}");
            }
        }
    }
}
