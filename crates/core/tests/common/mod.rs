//! What the transport suites share: the communicator and fill helpers and
//! the per-call reference loops the engine's data paths are compared with.

#![allow(dead_code)] // each suite uses its own subset
#![allow(clippy::needless_range_loop)] // loop indices drive offset math

use std::ops::Range;
use std::sync::Arc;

use pidcomm::hypercube::{build_clusters, EgCluster};
use pidcomm::{
    oracle, BufferSpec, Communicator, DimMask, HypercubeManager, HypercubeShape, OptLevel,
    Primitive,
};
use pim_sim::domain::{LanePerm, IDENTITY_PERM};
use pim_sim::dtype::fill_identity;
use pim_sim::geometry::LANES;
use pim_sim::pe::{Landing, Rotations, PAGE_BYTES};
use pim_sim::testgen::fill_byte;
use pim_sim::{DimmGeometry, PeId, PimSystem, ReduceKind};

/// The seed bases CI's chaos smoke runs under.
pub const CI_SEEDS: [u64; 3] = [1, 77, 3_405_691_582];

pub fn communicator(dims: &[usize], geom: DimmGeometry, opt: OptLevel) -> Communicator {
    let shape = HypercubeShape::new(dims.to_vec()).unwrap();
    Communicator::new(HypercubeManager::new(shape, geom).unwrap())
        .with_opt(opt)
        .with_threads(1)
}

pub fn is_chunked(prim: Primitive) -> bool {
    matches!(
        prim,
        Primitive::AlltoAll | Primitive::ReduceScatter | Primitive::AllReduce | Primitive::Reduce
    )
}

/// Per-PE `(source, destination)` bytes of `prim` at `bytes_per_node`.
pub fn extents(prim: Primitive, b: usize, n: usize) -> (usize, usize) {
    match prim {
        Primitive::AlltoAll | Primitive::AllReduce => (b, b),
        Primitive::ReduceScatter => (b, b / n),
        Primitive::AllGather => (b, b * n),
        Primitive::Scatter | Primitive::Broadcast => (0, b),
        Primitive::Gather | Primitive::Reduce => (b, 0),
    }
}

/// Writes `len` salted bytes at `offset` of every PE, each PE a different
/// cut of one pattern (a fresh pattern per PE would dominate the suite).
pub fn fill(sys: &mut PimSystem, offset: usize, len: usize, salt: u64) {
    let pattern: Vec<u8> = (0..len + 2048).map(|i| fill_byte(salt, 0, i)).collect();
    for pe in sys.geometry().pes() {
        let cut = (pe.0 as usize * 7) % 2048;
        sys.pe_mut(pe).write(offset, &pattern[cut..cut + len]);
    }
}

/// Lands `image` at `offset` on every PE, either as one replica they all
/// share (`Pe::write_shared` of one row, as CC lands its label prototype)
/// or as a plain `Pe::write` of the same bytes.
pub fn land_replicas(sys: &mut PimSystem, offset: usize, image: &Arc<[u8]>, shared: bool) {
    for pe in sys.geometry().pes() {
        let pe = sys.pe_mut(pe);
        if shared {
            pe.write_shared(offset, image, Landing::Row);
        } else {
            pe.write(offset, image);
        }
    }
}

/// A few small writes over `[offset, offset + len)` after a replicated
/// landing, as CC's PEs lower their own labels: every third PE writes 8
/// salted bytes at an odd offset. Returns the MRAM range each PE wrote.
pub fn edit(
    sys: &mut PimSystem,
    offset: usize,
    len: usize,
    salt: u64,
) -> Vec<(PeId, Range<usize>)> {
    let mut edits = Vec::new();
    for pe in sys.geometry().pes().filter(|pe| pe.0 % 3 == 1) {
        let at = (offset + (pe.0 as usize * 1237 + salt as usize) % (len - 8)) | 1;
        let bytes: Vec<u8> = (0..8).map(|i| fill_byte(salt, pe.0 as u64, i)).collect();
        sys.pe_mut(pe).write(at, &bytes);
        edits.push((pe, at..at + 8));
    }
    edits
}

/// Bytes of the pages `[offset, offset + len)` touches.
pub fn pages(offset: usize, len: usize) -> usize {
    (offset + len).next_multiple_of(PAGE_BYTES) - offset / PAGE_BYTES * PAGE_BYTES
}

/// Asserts that lane-mates — members of one group that `opt` rotates
/// alike — lend the same bytes, by `try_slice` pointer, for every whole
/// page of the source region farther than a part and a page from any
/// place where sharing ends for either of them. Returns (shared pages,
/// whole pages) over all PEs.
pub fn assert_sharing_survives(
    sys: &PimSystem,
    comm: &pidcomm::Communicator,
    mask: &DimMask,
    opt: OptLevel,
    (src, b): (usize, usize),
    cuts: &[(Option<PeId>, Range<usize>)],
    what: &str,
) -> (usize, usize) {
    let geom = *sys.geometry();
    let groups = comm.manager().groups(mask).unwrap();
    let l = build_clusters(comm.manager(), mask).unwrap()[0].lane_count;
    let span = l * (b / groups[0].members.len());
    // Full rotates a 64 KiB tile of whole parts at a time; a page that a
    // tile boundary cuts is owned like a cut page.
    let tile = (64 * 1024 / span).max(1) * span;
    let mut ends: Vec<(Option<PeId>, Range<usize>)> = cuts.to_vec();
    if opt == OptLevel::Full {
        ends.extend(
            (tile..b)
                .step_by(tile)
                .map(|t| (None, src + t..src + t + 1)),
        );
    }
    let page = |p: usize, pe: PeId| {
        let lo = p * PAGE_BYTES;
        let far = ends
            .iter()
            .filter(|(who, _)| who.is_none_or(|w| w == pe))
            .all(|(_, r)| {
                r.end + span + PAGE_BYTES <= lo || r.start >= lo + PAGE_BYTES + span + PAGE_BYTES
            });
        (
            far,
            sys.pe(pe).try_slice(lo, PAGE_BYTES).map(<[u8]>::as_ptr),
        )
    };
    let whole = src.div_ceil(PAGE_BYTES)..(src + b) / PAGE_BYTES;
    let (mut shared, mut pages) = (0, 0);
    // Lane-mates: the members `opt` rotates alike — all of them under
    // Baseline, which does not rotate. Each is held to the next one round
    // its class.
    let class_of = |x: PeId| match opt {
        OptLevel::Baseline => 0,
        _ => geom.lane_of(x),
    };
    for g in &groups {
        for lane in 0..LANES {
            let class: Vec<PeId> = (g.members.iter().copied())
                .filter(|&x| class_of(x) == lane)
                .collect();
            for (k, &x) in class.iter().enumerate() {
                let y = class[(k + 1) % class.len()];
                for p in whole.clone() {
                    pages += 1;
                    let ((far_x, at_x), (far_y, at_y)) = (page(p, x), page(p, y));
                    if x != y && far_x && far_y {
                        assert_eq!(at_x, at_y, "{what}: {x} and {y} unshared page {p}");
                    }
                    shared += usize::from(x != y && at_x.is_some() && at_x == at_y);
                }
            }
        }
    }
    (shared, pages)
}

/// One collective call of the suite.
pub struct Call<'a> {
    pub prim: Primitive,
    pub mask: &'a DimMask,
    pub spec: BufferSpec,
    pub op: ReduceKind,
    pub host_in: &'a [Vec<u8>],
}

/// Executes the call one-shot and compares every member's destination
/// bytes (and the host buffers of Gather/Reduce) with the oracle.
pub fn run_and_check(comm: &Communicator, sys: &mut PimSystem, call: &Call, what: &str) {
    let Call {
        prim,
        mask,
        ref spec,
        op,
        host_in,
    } = *call;
    let (b, dtype) = (spec.bytes_per_node, spec.dtype);
    let groups = comm.manager().groups(mask).unwrap();
    let mut want_pe = Vec::new();
    let mut want_host = Vec::new();
    for g in &groups {
        let n = g.members.len();
        let inputs: Vec<Vec<u8>> = g
            .members
            .iter()
            .map(|&pe| sys.pe(pe).peek(spec.src_offset, b))
            .collect();
        let outputs = match prim {
            Primitive::AlltoAll => oracle::alltoall(&inputs),
            Primitive::ReduceScatter => oracle::reduce_scatter(&inputs, op, dtype),
            Primitive::AllReduce => oracle::all_reduce(&inputs, op, dtype),
            Primitive::AllGather => oracle::all_gather(&inputs),
            Primitive::Scatter => oracle::scatter(&host_in[g.id], n),
            Primitive::Broadcast => oracle::broadcast(&host_in[g.id], n),
            Primitive::Gather => {
                want_host.push(oracle::gather(&inputs));
                continue;
            }
            Primitive::Reduce => {
                want_host.push(oracle::reduce(&inputs, op, dtype));
                continue;
            }
        };
        want_pe.extend(g.members.iter().copied().zip(outputs));
    }
    let host_out = match prim {
        Primitive::AlltoAll => comm.all_to_all(sys, mask, spec).map(|_| None),
        Primitive::ReduceScatter => comm.reduce_scatter(sys, mask, spec, op).map(|_| None),
        Primitive::AllReduce => comm.all_reduce(sys, mask, spec, op).map(|_| None),
        Primitive::AllGather => comm.all_gather(sys, mask, spec).map(|_| None),
        Primitive::Scatter => comm.scatter(sys, mask, spec, host_in).map(|_| None),
        Primitive::Broadcast => comm.broadcast(sys, mask, spec, host_in).map(|_| None),
        Primitive::Gather => comm.gather(sys, mask, spec).map(|(_, out)| Some(out)),
        Primitive::Reduce => comm.reduce(sys, mask, spec, op).map(|(_, out)| Some(out)),
    }
    .unwrap_or_else(|e| panic!("{what}: {e}"));
    for (pe, bytes) in &want_pe {
        assert!(
            sys.pe(*pe).peek(spec.dst_offset, bytes.len()) == *bytes,
            "{what}: {pe} differs from the oracle"
        );
    }
    if let Some(out) = host_out {
        assert!(
            out == want_host,
            "{what}: host output differs from the oracle"
        );
    }
}

/// Executes `prim` over `clusters` with the per-call `EgView` row methods
/// — phase A over the whole region, then one `copy_rows` / `reduce_rows` /
/// `write_rows(_at)` per `(m_s, m_d, k)`: the transport the windows, and
/// the burst-by-burst reduction the PE-major pass, replaced. `Reduce` stops
/// after the reduction (its result leaves through the host).
pub fn per_call_reference(
    sys: &mut PimSystem,
    clusters: &[EgCluster],
    prim: Primitive,
    spec: &BufferSpec,
    op: ReduceKind,
) {
    let (src, dst, dtype) = (spec.src_offset, spec.dst_offset, spec.dtype);
    let parts: Vec<_> = clusters.iter().map(|c| c.egs.clone()).collect();
    let mut views = sys.split_eg_views(&parts);
    for (view, c) in views.iter_mut().zip(clusters) {
        let (l, m) = (c.lane_count, c.eg_count());
        let chunk = if prim == Primitive::AllGather {
            spec.bytes_per_node
        } else {
            spec.bytes_per_node / (l * m)
        };
        let sigmas: Vec<LanePerm> = (0..l).map(|k| c.rotation(k)).collect();
        let mut rank = [0usize; LANES];
        for g in &c.groups {
            for (i, &lane) in g.lanes.iter().enumerate() {
                rank[lane] = i;
                if prim != Primitive::AllGather {
                    for slot in 0..m {
                        view.pe_mut(slot, lane).rotate_parts(
                            src,
                            chunk,
                            l,
                            l * m,
                            i,
                            &mut Rotations::default(),
                        );
                    }
                }
            }
        }
        let final_offsets = |part: usize, k: usize| -> [usize; LANES] {
            core::array::from_fn(|d| dst + (part * l + (rank[d] + l - k) % l) * chunk)
        };
        let mut accs = vec![vec![0u8; LANES * chunk]; m];
        if prim.is_reducing() {
            for (m_d, acc) in accs.iter_mut().enumerate() {
                fill_identity(op, dtype, acc);
                for m_s in 0..m {
                    for k in 0..l {
                        let at = src + (m_d * l + k) * chunk;
                        view.reduce_rows(m_s, at, chunk, acc, &sigmas[k], op, dtype);
                    }
                }
            }
        }
        match prim {
            Primitive::AlltoAll => {
                for m_s in 0..m {
                    for m_d in 0..m {
                        for k in 0..l {
                            let at = src + (m_d * l + k) * chunk;
                            let offs = final_offsets(m_s, k);
                            view.copy_rows(m_s, at, m_d, &offs, chunk, &sigmas[k]);
                        }
                    }
                }
            }
            Primitive::AllGather => {
                for m_s in 0..m {
                    for k in 0..l {
                        for m_d in 0..m {
                            let offs = final_offsets(m_s, k);
                            view.copy_rows(m_s, src, m_d, &offs, chunk, &sigmas[k]);
                        }
                    }
                }
            }
            Primitive::ReduceScatter => {
                for (m_d, acc) in accs.iter().enumerate() {
                    view.write_rows(m_d, dst, chunk, acc, &IDENTITY_PERM);
                }
            }
            Primitive::AllReduce => {
                for (m_v, acc) in accs.iter().enumerate() {
                    for k in 0..l {
                        for m_d in 0..m {
                            view.write_rows_at(m_d, &final_offsets(m_v, k), chunk, acc, &sigmas[k]);
                        }
                    }
                }
            }
            Primitive::Reduce => {}
            _ => unreachable!("the reference covers the windowed MRAM-to-MRAM primitives"),
        }
    }
}
