//! Alternative hierarchy-aware AllReduce topologies (§VIII-H, Fig. 23a).
//!
//! The paper compares its virtual-hypercube AllReduce against ring and tree
//! algorithmic topologies, both implemented *with* PID-Comm's register-level
//! optimizations but structured as multi-step neighbor exchanges. Both lose
//! badly (up to 2.05× for ring and 7.89× for tree) because:
//!
//! * every step is a separate host-mediated transfer phase with launch and
//!   setup overheads, and
//! * the bus always moves whole 64-byte bursts per entangled group, so a
//!   step in which only a subset of lanes carries useful data (the tree's
//!   upper levels) wastes the corresponding fraction of bandwidth.
//!
//! Ring and tree are step schedules of [`CollectivePlan`]:
//! [`Topology::plan`] builds the step list and tallies its cost sheet once,
//! and the plan runs through the same [`CollectivePlan::run`] as every
//! collective — one fault epoch per run, every landing through `Pe::write`,
//! detected corruption surfaced as a typed error, retry and degrade under
//! [`crate::Communicator::execute_verified`], and a cost-only report equal
//! to the functional one. They produce exactly the AllReduce result and
//! charge costs burst-accurately, so the wasted bandwidth emerges from
//! structure rather than from a fudge factor.

use pim_sim::dtype::{reduce_bytes, ReduceKind};
use pim_sim::PimSystem;

use crate::comm::Communicator;
use crate::config::Primitive;
use crate::engine::plan::{CollectivePlan, Move};
use crate::engine::BufferSpec;
use crate::error::Result;
use crate::hypercube::{CommGroup, DimMask, HypercubeManager};

/// An AllReduce topology; [`Topology::plan`] plans AllReduce with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// PID-Comm's native single-phase hypercube AllReduce.
    Hypercube,
    /// Ring reduce-scatter + ring all-gather: `2(N-1)` neighbor steps.
    Ring,
    /// Binary reduction tree up, binary broadcast tree down:
    /// `2·log2(N)` levels with shrinking lane utilization.
    Tree,
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Topology::Hypercube => "hypercube",
            Topology::Ring => "ring",
            Topology::Tree => "tree",
        };
        f.write_str(s)
    }
}

impl Topology {
    /// Plans AllReduce with this topology. Every variant's plan leaves each
    /// member PE with the element-wise reduction of the group's
    /// `bytes_per_node`-byte buffers at `dst_offset`; execute it with
    /// [`CollectivePlan::run`] or score it with
    /// [`CollectivePlan::cost_only_report`].
    ///
    /// # Errors
    ///
    /// Same validation as [`Communicator::plan`]; ring and tree
    /// additionally require the group size to be a power of two.
    pub fn plan(
        self,
        manager: &HypercubeManager,
        mask: &DimMask,
        spec: &BufferSpec,
        op: ReduceKind,
    ) -> Result<CollectivePlan> {
        let schedule = match self {
            Topology::Hypercube => {
                let comm = Communicator::new(manager.clone());
                return comm.plan(Primitive::AllReduce, mask, spec, op);
            }
            Topology::Ring => ring_steps,
            Topology::Tree => tree_steps,
        };
        CollectivePlan::stepped(manager, mask, spec, op, schedule)
    }
}

/// Executes a stepped plan: every PE first copies its source to its
/// destination (the scratch the steps work in, so the source survives),
/// then the steps' moves run in order. A reducing move folds the sender's
/// chunk into the receiver's and lands the result; every landing goes
/// through `Pe::write`, where fault injection and verification live. The
/// cost is the plan's sheet, applied by the dispatch.
pub(crate) fn run_steps(sys: &mut PimSystem, plan: &CollectivePlan) {
    let (src, b) = (plan.spec.src_offset, plan.spec.bytes_per_node);
    for pe in plan.geometry.pes() {
        let data = sys.pe_mut(pe).read(src, b).to_vec();
        sys.pe_mut(pe).write(plan.spec.dst_offset, &data);
    }
    for mv in plan.steps.iter().flatten() {
        let data = sys.pe_mut(mv.src_pe).read(mv.src_off, mv.len).to_vec();
        let row = if mv.reduce {
            let mut acc = sys.pe_mut(mv.dst_pe).read(mv.dst_off, mv.len).to_vec();
            reduce_bytes(plan.op, plan.spec.dtype, &mut acc, &data);
            acc
        } else {
            data
        };
        sys.pe_mut(mv.dst_pe).write(mv.dst_off, &row);
    }
}

/// Classic ring AllReduce: N-1 reduce-scatter steps, then N-1 all-gather
/// steps, each moving one `b/N` chunk per PE to its ring successor.
fn ring_steps(groups: &[CommGroup], spec: &BufferSpec, n: usize) -> Vec<Vec<Move>> {
    let c = spec.bytes_per_node / n;
    let dst = spec.dst_offset;
    // Reduce-scatter phase: at step t, rank r sends chunk (r - t) mod n,
    // accumulated at the receiver. All-gather phase: at step t, rank r
    // sends chunk (r + 1 - t) mod n, overwriting.
    let phase = |shift: usize, reduce: bool| {
        (0..n - 1).map(move |t| {
            let mut moves = Vec::new();
            for g in groups {
                for (r, &pe) in g.members.iter().enumerate() {
                    let chunk = (r + shift + n - (t % n)) % n;
                    moves.push(Move {
                        src_pe: pe,
                        dst_pe: g.members[(r + 1) % n],
                        src_off: dst + chunk * c,
                        dst_off: dst + chunk * c,
                        len: c,
                        reduce,
                    });
                }
            }
            moves
        })
    };
    phase(0, true).chain(phase(1, false)).collect()
}

/// Binary-tree AllReduce: log2(N) reduction levels toward rank 0 (full
/// vectors), then log2(N) broadcast levels back down, then a closing sync
/// (a step with no moves). Upper levels involve ever fewer lanes per
/// entangled group, wasting bus bandwidth — the effect behind the paper's
/// 7.89× tree slowdown.
fn tree_steps(groups: &[CommGroup], spec: &BufferSpec, n: usize) -> Vec<Vec<Move>> {
    let b = spec.bytes_per_node;
    let dst = spec.dst_offset;
    let levels = n.trailing_zeros() as usize;
    let whole = |src_pe, dst_pe, reduce| Move {
        src_pe,
        dst_pe,
        src_off: dst,
        dst_off: dst,
        len: b,
        reduce,
    };
    let mut steps = Vec::new();

    // Reduction up: at level l (stride s = 2^l), ranks r ≡ s (mod 2s) send
    // their whole buffer to r - s, which accumulates.
    for l in 0..levels {
        let s = 1 << l;
        let mut moves = Vec::new();
        for g in groups {
            for (r, &pe) in g.members.iter().enumerate() {
                if r % (2 * s) == s {
                    moves.push(whole(pe, g.members[r - s], true));
                }
            }
        }
        steps.push(moves);
    }

    // Broadcast down: reverse order.
    for l in (0..levels).rev() {
        let s = 1 << l;
        let mut moves = Vec::new();
        for g in groups {
            for (r, &pe) in g.members.iter().enumerate() {
                if r % (2 * s) == 0 && r + s < n {
                    moves.push(whole(pe, g.members[r + s], false));
                }
            }
        }
        steps.push(moves);
    }
    // The extra PE-side arithmetic shows up as a final sync on the
    // critical path.
    steps.push(Vec::new());
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::hypercube::HypercubeShape;
    use crate::oracle;
    use crate::report::CommReport;
    use pim_sim::{DType, DimmGeometry};

    fn setup(dims: &[usize], geom: DimmGeometry) -> (PimSystem, HypercubeManager) {
        let manager =
            HypercubeManager::new(HypercubeShape::new(dims.to_vec()).unwrap(), geom).unwrap();
        (PimSystem::new(geom), manager)
    }

    fn fill(sys: &mut PimSystem, bytes: usize) {
        for pe in sys.geometry().pes() {
            let data: Vec<u8> = (0..bytes)
                .map(|i| ((pe.0 as usize * 131 + i * 7) % 127) as u8)
                .collect();
            sys.pe_mut(pe).write(0, &data);
        }
    }

    /// Plans a Sum AllReduce with `topo` and runs it on `sys`.
    fn all_reduce(
        sys: &mut PimSystem,
        manager: &HypercubeManager,
        topo: Topology,
        mask: &DimMask,
        spec: &BufferSpec,
    ) -> Result<CommReport> {
        let plan = topo.plan(manager, mask, spec, ReduceKind::Sum)?;
        plan.run(sys, None).map(|e| e.report)
    }

    fn check_allreduce(
        sys: &mut PimSystem,
        manager: &HypercubeManager,
        mask: &DimMask,
        b: usize,
        dst: usize,
    ) {
        let groups = manager.groups(mask).unwrap();
        for g in &groups {
            let inputs: Vec<Vec<u8>> = g
                .members
                .iter()
                .map(|&pe| sys.pe_mut(pe).read(0, b).to_vec())
                .collect();
            let want = oracle::all_reduce(&inputs, ReduceKind::Sum, DType::U64);
            for (&pe, w) in g.members.iter().zip(&want) {
                let got = sys.pe_mut(pe).read(dst, b).to_vec();
                assert_eq!(&got, w, "group {} {pe}", g.id);
            }
        }
    }

    #[test]
    fn ring_all_reduce_is_correct() {
        let (mut sys, manager) = setup(&[8, 8], DimmGeometry::single_rank());
        let mask: DimMask = "10".parse().unwrap();
        let b = 64;
        fill(&mut sys, b);
        let spec = BufferSpec::new(0, 1024, b);
        let report = all_reduce(&mut sys, &manager, Topology::Ring, &mask, &spec).unwrap();
        check_allreduce(&mut sys, &manager, &mask, b, 1024);
        assert!(report.time_ns() > 0.0);
    }

    #[test]
    fn tree_all_reduce_is_correct() {
        let (mut sys, manager) = setup(&[8, 8], DimmGeometry::single_rank());
        let mask: DimMask = "10".parse().unwrap();
        let b = 64;
        fill(&mut sys, b);
        let spec = BufferSpec::new(0, 1024, b);
        all_reduce(&mut sys, &manager, Topology::Tree, &mask, &spec).unwrap();
        check_allreduce(&mut sys, &manager, &mask, b, 1024);
    }

    #[test]
    fn ring_and_tree_are_correct_on_multi_eg_groups() {
        let (mut sys, manager) = setup(&[16, 4], DimmGeometry::single_rank());
        let mask: DimMask = "10".parse().unwrap();
        let b = 128;
        for topo in [Topology::Ring, Topology::Tree] {
            fill(&mut sys, b);
            let spec = BufferSpec::new(0, 4096, b);
            all_reduce(&mut sys, &manager, topo, &mask, &spec).unwrap();
            check_allreduce(&mut sys, &manager, &mask, b, 4096);
        }
    }

    #[test]
    fn hypercube_beats_ring_beats_tree() {
        // The Fig. 23a ordering on a 2-D 16x16 AllReduce (scaled-down
        // version of the paper's 32x32).
        let geom = DimmGeometry::upmem_256();
        let (mut sys, manager) = setup(&[16, 16], geom);
        let mask: DimMask = "10".parse().unwrap();
        let b = 16 * 64;
        let mut times = Vec::new();
        for topo in [Topology::Hypercube, Topology::Ring, Topology::Tree] {
            fill(&mut sys, b);
            let spec = BufferSpec::new(0, 65536, b);
            let report = all_reduce(&mut sys, &manager, topo, &mask, &spec).unwrap();
            times.push(report.time_ns());
        }
        assert!(
            times[0] < times[1],
            "hypercube {} < ring {}",
            times[0],
            times[1]
        );
        assert!(times[1] < times[2], "ring {} < tree {}", times[1], times[2]);
    }

    /// Ring and tree plans reject what `Communicator::plan` rejects — a
    /// destination past the bank end, overlapping regions — plus a group
    /// size that is not a power of two, as typed errors at plan build; a
    /// system of another geometry fails at `run`, before any byte moves.
    #[test]
    fn non_power_of_two_rejected() {
        use pim_sim::pe::MRAM_CAPACITY;

        let (rank, odd) = (DimmGeometry::single_rank(), DimmGeometry::new(3, 1, 2));
        for topo in [Topology::Ring, Topology::Tree] {
            let plan = |dims: &[usize], geom, mask: &str, dst, b| {
                let (_, manager) = setup(dims, geom);
                let spec = BufferSpec::new(0, dst, b);
                topo.plan(&manager, &mask.parse().unwrap(), &spec, ReduceKind::Sum)
            };
            let rejected = |row: &str, planned: Result<CollectivePlan>| {
                let err = planned.err().expect("plan build must fail");
                assert!(
                    matches!(err, Error::InvalidBuffer(_)),
                    "{topo} {row}: {err}"
                );
            };
            for (row, dst) in [("past bank end", MRAM_CAPACITY - 32), ("overlap", 32)] {
                rejected(row, plan(&[8, 8], rank, "10", dst, 64));
            }
            rejected("non-power-of-two", plan(&[8, 2, 3], odd, "001", 1024, 24));

            let mut sys = PimSystem::new(DimmGeometry::single_group());
            let planned = plan(&[8, 8], rank, "10", 1024, 64).unwrap();
            let err = planned.run(&mut sys, None).unwrap_err();
            assert!(
                matches!(err, Error::ShapeSystemMismatch { .. }),
                "{topo} other geometry: {err}"
            );
            assert_eq!(sys.total_mram_used(), 0, "{topo}: bytes moved before {err}");
        }
    }
}
