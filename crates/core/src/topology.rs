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
//! The implementations here are functionally complete (they produce exactly
//! the AllReduce result) and charge costs burst-accurately, so the wasted
//! bandwidth emerges from structure rather than from a fudge factor.

use pim_sim::dtype::{reduce_bytes, DType, ReduceKind};
use pim_sim::{Category, PimSystem};

use crate::config::{OptLevel, Primitive};
use crate::engine::sheet::CostSheet;
use crate::engine::{streaming, validate_spec, BufferSpec};
use crate::error::{Error, Result};
use crate::hypercube::{CommGroup, DimMask, HypercubeManager};
use crate::report::CommReport;

/// Which algorithmic topology to use for [`topology_all_reduce`].
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

/// Runs AllReduce with the chosen topology and returns the report.
///
/// All variants leave every member PE with the element-wise reduction of
/// the group's `bytes_per_node`-byte buffers at `dst_offset`.
///
/// # Errors
///
/// Same validation as [`crate::Communicator::all_reduce`]; ring and tree
/// additionally require the group size to be a power of two.
pub fn topology_all_reduce(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    topology: Topology,
    mask: &DimMask,
    spec: &BufferSpec,
    op: ReduceKind,
) -> Result<CommReport> {
    match topology {
        Topology::Hypercube => {
            crate::comm::Communicator::new(manager.clone()).all_reduce(sys, mask, spec, op)
        }
        Topology::Ring => stepped_all_reduce(sys, manager, mask, spec, op, Stepped::Ring),
        Topology::Tree => stepped_all_reduce(sys, manager, mask, spec, op, Stepped::Tree),
    }
}

enum Stepped {
    Ring,
    Tree,
}

/// One host-mediated point-to-point move of `len` bytes between two PEs'
/// MRAMs, accumulated at the receiver if `reduce` is set.
pub(crate) struct Move {
    pub(crate) src_pe: pim_sim::PeId,
    pub(crate) dst_pe: pim_sim::PeId,
    pub(crate) src_off: usize,
    pub(crate) dst_off: usize,
    pub(crate) len: usize,
    pub(crate) reduce: bool,
}

/// Executes one synchronous step of point-to-point moves. Its cost is the
/// step's share of [`streaming::charge_stepped`].
fn run_step(sys: &mut PimSystem, moves: &[Move], dtype: DType, op: ReduceKind) {
    for mv in moves {
        let data = sys.pe_mut(mv.src_pe).read(mv.src_off, mv.len).to_vec();
        if mv.reduce {
            // simlint: allow(pe-choke-point, reason = "fused reduce landing: the read-modify-write accumulates into dst in place; a Pe::write round-trip would double-buffer every reduce step and the chaos suite covers this path via the post-collective verify pass")
            let dst = sys.pe_mut(mv.dst_pe).slice_mut(mv.dst_off, mv.len);
            reduce_bytes(op, dtype, dst, &data);
        } else {
            sys.pe_mut(mv.dst_pe).write(mv.dst_off, &data);
        }
    }
}

/// The stepped AllReduce: validate, build the step list, derive its cost
/// sheet, then move the bytes.
fn stepped_all_reduce(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    mask: &DimMask,
    spec: &BufferSpec,
    op: ReduceKind,
    kind: Stepped,
) -> Result<CommReport> {
    let n = mask.group_size(manager.shape())?;
    validate_spec(Primitive::AllReduce, spec, n)?;
    if !n.is_power_of_two() {
        return Err(Error::InvalidBuffer(format!(
            "ring/tree AllReduce needs a power-of-two group size; got {n}"
        )));
    }
    if manager.geometry() != sys.geometry() {
        return Err(Error::ShapeSystemMismatch {
            nodes: manager.num_nodes(),
            pes: sys.geometry().num_pes(),
        });
    }
    let b = spec.bytes_per_node;
    let groups = manager.groups(mask)?;
    let steps = match kind {
        Stepped::Ring => ring_steps(&groups, spec, n),
        Stepped::Tree => tree_steps(&groups, spec, n),
    };
    let mut sheet = CostSheet::new(sys.geometry().channels());
    streaming::charge_stepped(&mut sheet, sys.geometry(), &steps);

    let before = sys.meter();
    // Work in a scratch copy at dst so the source buffer survives.
    for g in &groups {
        for &pe in &g.members {
            let data = sys.pe_mut(pe).read(spec.src_offset, b).to_vec();
            sys.pe_mut(pe).write(spec.dst_offset, &data);
        }
    }
    for moves in &steps {
        run_step(sys, moves, spec.dtype, op);
    }
    if let Stepped::Tree = kind {
        // The extra PE-side arithmetic shows up as kernel pressure on the
        // critical path; charge the final sync.
        sys.charge(Category::Other, sys.model().transfer_setup_ns);
    }
    sheet.apply(sys);

    let breakdown = sys.meter().since(&before);
    let p = manager.num_nodes() as u64;
    Ok(CommReport {
        primitive: Primitive::AllReduce,
        opt: OptLevel::Full,
        breakdown,
        bytes_in: p * b as u64,
        bytes_out: p * b as u64,
        group_size: n,
        num_groups: groups.len(),
    })
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
/// vectors), then log2(N) broadcast levels back down. Upper levels involve
/// ever fewer lanes per entangled group, wasting bus bandwidth — the
/// effect behind the paper's 7.89× tree slowdown.
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
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::HypercubeShape;
    use crate::oracle;
    use pim_sim::DimmGeometry;

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
        let report = topology_all_reduce(
            &mut sys,
            &manager,
            Topology::Ring,
            &mask,
            &BufferSpec::new(0, 1024, b),
            ReduceKind::Sum,
        )
        .unwrap();
        check_allreduce(&mut sys, &manager, &mask, b, 1024);
        assert!(report.time_ns() > 0.0);
    }

    #[test]
    fn tree_all_reduce_is_correct() {
        let (mut sys, manager) = setup(&[8, 8], DimmGeometry::single_rank());
        let mask: DimMask = "10".parse().unwrap();
        let b = 64;
        fill(&mut sys, b);
        topology_all_reduce(
            &mut sys,
            &manager,
            Topology::Tree,
            &mask,
            &BufferSpec::new(0, 1024, b),
            ReduceKind::Sum,
        )
        .unwrap();
        check_allreduce(&mut sys, &manager, &mask, b, 1024);
    }

    #[test]
    fn ring_and_tree_are_correct_on_multi_eg_groups() {
        let (mut sys, manager) = setup(&[16, 4], DimmGeometry::single_rank());
        let mask: DimMask = "10".parse().unwrap();
        let b = 128;
        for topo in [Topology::Ring, Topology::Tree] {
            fill(&mut sys, b);
            topology_all_reduce(
                &mut sys,
                &manager,
                topo,
                &mask,
                &BufferSpec::new(0, 4096, b),
                ReduceKind::Sum,
            )
            .unwrap();
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
            let report = topology_all_reduce(
                &mut sys,
                &manager,
                topo,
                &mask,
                &BufferSpec::new(0, 65536, b),
                ReduceKind::Sum,
            )
            .unwrap();
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

    /// Ring and tree reject what `Communicator::all_reduce` rejects — a
    /// destination past the bank end, overlapping regions, a system of
    /// another geometry — plus a group size that is not a power of two, as
    /// typed errors before any byte moves.
    #[test]
    fn non_power_of_two_rejected() {
        use pim_sim::pe::MRAM_CAPACITY;

        let (rank, odd) = (DimmGeometry::single_rank(), DimmGeometry::new(3, 1, 2));
        for topo in [Topology::Ring, Topology::Tree] {
            let reject = |dims: &[usize], geom, sys_geom, mask: &str, dst, b| {
                let (_, manager) = setup(dims, geom);
                let mut sys = PimSystem::new(sys_geom);
                let mask = mask.parse().unwrap();
                let spec = BufferSpec::new(0, dst, b);
                let err =
                    topology_all_reduce(&mut sys, &manager, topo, &mask, &spec, ReduceKind::Sum)
                        .unwrap_err();
                assert_eq!(sys.total_mram_used(), 0, "{topo}: bytes moved before {err}");
                err
            };
            for (row, dst) in [("past bank end", MRAM_CAPACITY - 32), ("overlap", 32)] {
                let err = reject(&[8, 8], rank, rank, "10", dst, 64);
                assert!(
                    matches!(err, Error::InvalidBuffer(_)),
                    "{topo} {row}: {err}"
                );
            }
            let err = reject(&[8, 2, 3], odd, odd, "001", 1024, 24);
            assert!(
                matches!(err, Error::InvalidBuffer(_)),
                "{topo} non-power-of-two: {err}"
            );
            let err = reject(&[8, 8], rank, DimmGeometry::single_group(), "10", 1024, 64);
            assert!(
                matches!(err, Error::ShapeSystemMismatch { .. }),
                "{topo} other geometry: {err}"
            );
        }
    }
}
