//! The three primitive workloads.
//!
//! `prims_full` / `prims_baseline`: the fig14 configuration (1024 PEs,
//! dims (32,32), mask `10`, 32 KiB per node, U64, Sum; AllGather and the
//! four rooted primitives sized `bytes / group_size`) on one system with
//! persistent plans, executed repeatedly — the warm steady state.
//!
//! `prims_small`: one-shot `Communicator` calls (plan + validate + execute
//! per call) at 8 B per peer, Baseline and Full, over five shape/mask
//! pairs — the overhead-bound regime BFS and CC iterate in.
//!
//! On the cold pass every group's output bytes (and the host buffers of
//! Gather/Reduce) are compared with `pidcomm::oracle`.

use std::hint::black_box;
use std::rc::Rc;

use pidcomm::{
    oracle, BufferSpec, CollectivePlan, CommReport, Communicator, DimMask, HypercubeManager,
    HypercubeShape, OptLevel, Primitive,
};
use pim_sim::testgen::fill_byte;
use pim_sim::{DType, DimmGeometry, PimSystem, ReduceKind};

use super::{catch, opt_slug, CellRun, Evictor, Workload, THREADS};
use crate::clock::Stopwatch;
use crate::trace::{Layer, Tracer};

const DTYPE: DType = DType::U64;
const OP: ReduceKind = ReduceKind::Sum;

/// Shape/mask pairs of `prims_small`, all over 1024 PEs.
const SMALL_SHAPES: [(&[usize], &str); 5] = [
    (&[1024], "1"),
    (&[32, 32], "10"),
    (&[32, 32], "01"),
    (&[8, 8, 16], "101"),
    (&[8, 8, 16], "010"),
];

struct Cell {
    comm: usize,
    mask: DimMask,
    prim: Primitive,
    spec: BufferSpec,
    /// Host payload of Scatter/Broadcast, one buffer per group.
    host_in: Vec<Vec<u8>>,
    /// Persistent plan (`prims_full`/`prims_baseline`); `None` = one-shot.
    plan: Option<CollectivePlan>,
}

pub struct Prims {
    ids: Vec<String>,
    comms: Vec<Communicator>,
    cells: Vec<Cell>,
    sys: PimSystem,
    /// Empties the last-level cache before each timed cell, when set.
    evictor: Option<Rc<Evictor>>,
}

/// Per-primitive buffer sizing, as `pidcomm_bench::time_primitive` does
/// it: chunked primitives (and Reduce) move `b` per node, AllGather and the
/// other rooted primitives `b / n` so total volume stays comparable.
fn spec_for(prim: Primitive, b: usize, n: usize) -> BufferSpec {
    let small = (b / n).max(8).next_multiple_of(8);
    let dst = 2 * b.next_multiple_of(64) + 64;
    let bytes = match prim {
        Primitive::AlltoAll
        | Primitive::ReduceScatter
        | Primitive::AllReduce
        | Primitive::Reduce => b,
        Primitive::AllGather | Primitive::Scatter | Primitive::Gather | Primitive::Broadcast => {
            small
        }
    };
    BufferSpec::new(0, dst, bytes).with_dtype(DTYPE)
}

fn host_payload(
    prim: Primitive,
    spec: &BufferSpec,
    n: usize,
    groups: usize,
    seed: u64,
) -> Vec<Vec<u8>> {
    let len = match prim {
        Primitive::Scatter => n * spec.bytes_per_node,
        Primitive::Broadcast => spec.bytes_per_node,
        _ => return Vec::new(),
    };
    (0..groups)
        .map(|g| {
            (0..len)
                .map(|i| fill_byte(seed, (1 << 20) + g as u64, i))
                .collect()
        })
        .collect()
}

pub fn communicator(
    dims: &[usize],
    opt: OptLevel,
    threads: usize,
    geom: DimmGeometry,
) -> Communicator {
    let shape = HypercubeShape::new(dims.to_vec()).expect("frozen shape");
    let manager = HypercubeManager::new(shape, geom).expect("frozen shape fits 1024 PEs");
    Communicator::new(manager)
        .with_opt(opt)
        .with_threads(threads)
}

fn filled_system(geom: DimmGeometry, bytes: usize, seed: u64, tr: &mut Tracer) -> PimSystem {
    let mut sys = tr.scope("PimSystem::new", Layer::Sim, |_| PimSystem::new(geom));
    let mut fill = vec![0u8; bytes];
    for pe in geom.pes() {
        for (i, b) in fill.iter_mut().enumerate() {
            *b = fill_byte(seed, u64::from(pe.0), i);
        }
        tr.scope("Pe::write", Layer::Sim, |_| sys.pe_mut(pe).write(0, &fill));
    }
    sys
}

impl Prims {
    /// `threads` is [`THREADS`] in every workload; the layer sweep's
    /// cluster-parallelism probe alone passes 2.
    pub fn fig14(opt: OptLevel, threads: usize, seed: u64, tr: &mut Tracer) -> Self {
        let geom = DimmGeometry::upmem_1024();
        let b = 32 * 1024;
        let comm = tr.scope("HypercubeManager::new", Layer::Core, |_| {
            communicator(&[32, 32], opt, threads, geom)
        });
        let mask: DimMask = "10".parse().expect("frozen mask");
        let n = mask
            .group_size(comm.manager().shape())
            .expect("mask fits shape");
        let groups = geom.num_pes() / n;
        let mut ids = Vec::new();
        let mut cells = Vec::new();
        for prim in Primitive::ALL {
            let spec = spec_for(prim, b, n);
            let plan = tr.scope("Communicator::plan", Layer::Core, |_| {
                comm.plan(prim, &mask, &spec, OP)
                    .expect("frozen spec plans")
            });
            ids.push(prim.abbrev().to_string());
            cells.push(Cell {
                comm: 0,
                mask: mask.clone(),
                prim,
                host_in: host_payload(prim, &spec, n, groups, seed),
                spec,
                plan: Some(plan),
            });
        }
        let sys = filled_system(geom, b, seed, tr);
        Self {
            ids,
            comms: vec![comm],
            cells,
            sys,
            evictor: None,
        }
    }

    pub fn evicting(mut self, evictor: Option<Rc<Evictor>>) -> Self {
        self.evictor = evictor;
        self
    }

    pub fn small(seed: u64, tr: &mut Tracer) -> Self {
        let geom = DimmGeometry::upmem_1024();
        let mut ids = Vec::new();
        let mut comms = Vec::new();
        let mut cells = Vec::new();
        let mut max_b = 0;
        for (dims, mask_str) in SMALL_SHAPES {
            for opt in [OptLevel::Baseline, OptLevel::Full] {
                let comm = tr.scope("HypercubeManager::new", Layer::Core, |_| {
                    communicator(dims, opt, THREADS, geom)
                });
                let mask: DimMask = mask_str.parse().expect("frozen mask");
                let n = mask
                    .group_size(comm.manager().shape())
                    .expect("mask fits shape");
                let b = 8 * n;
                max_b = max_b.max(b);
                for prim in Primitive::ALL {
                    let spec = spec_for(prim, b, n);
                    let dims_label: Vec<String> = dims.iter().map(usize::to_string).collect();
                    ids.push(format!(
                        "{}/{}/{}/{}",
                        dims_label.join("x"),
                        mask_str,
                        opt_slug(opt),
                        prim.abbrev()
                    ));
                    cells.push(Cell {
                        comm: comms.len(),
                        mask: mask.clone(),
                        prim,
                        host_in: host_payload(prim, &spec, n, geom.num_pes() / n, seed),
                        spec,
                        plan: None,
                    });
                }
                comms.push(comm);
            }
        }
        let sys = filled_system(geom, max_b, seed, tr);
        Self {
            ids,
            comms,
            cells,
            sys,
            evictor: None,
        }
    }
}

/// Executes one cell through its persistent plan, or one-shot.
fn execute(
    cell: &Cell,
    comm: &Communicator,
    sys: &mut PimSystem,
) -> pidcomm::Result<(CommReport, Option<Vec<Vec<u8>>>)> {
    let (mask, spec) = (&cell.mask, &cell.spec);
    match (&cell.plan, cell.prim) {
        (Some(p), Primitive::Scatter | Primitive::Broadcast) => {
            p.execute_with_host(sys, &cell.host_in).map(|r| (r, None))
        }
        (Some(p), Primitive::Gather | Primitive::Reduce) => {
            p.execute_to_host(sys).map(|(r, out)| (r, Some(out)))
        }
        (Some(p), _) => p.execute(sys).map(|r| (r, None)),
        (None, Primitive::AlltoAll) => comm.all_to_all(sys, mask, spec).map(|r| (r, None)),
        (None, Primitive::ReduceScatter) => {
            comm.reduce_scatter(sys, mask, spec, OP).map(|r| (r, None))
        }
        (None, Primitive::AllReduce) => comm.all_reduce(sys, mask, spec, OP).map(|r| (r, None)),
        (None, Primitive::AllGather) => comm.all_gather(sys, mask, spec).map(|r| (r, None)),
        (None, Primitive::Scatter) => comm
            .scatter(sys, mask, spec, &cell.host_in)
            .map(|r| (r, None)),
        (None, Primitive::Gather) => comm.gather(sys, mask, spec).map(|(r, out)| (r, Some(out))),
        (None, Primitive::Reduce) => comm
            .reduce(sys, mask, spec, OP)
            .map(|(r, out)| (r, Some(out))),
        (None, Primitive::Broadcast) => comm
            .broadcast(sys, mask, spec, &cell.host_in)
            .map(|r| (r, None)),
    }
}

/// What the oracle says the cell must leave behind: per group, the
/// members' destination bytes and (Gather/Reduce) the host buffer.
struct Expected {
    per_pe: Vec<(pim_sim::PeId, Vec<u8>)>,
    host_out: Vec<Vec<u8>>,
}

/// Reads the cell's inputs (non-materializing peeks, so the check does not
/// disturb first-touch state) and applies the oracle.
fn expect(cell: &Cell, comm: &Communicator, sys: &PimSystem) -> Expected {
    let spec = &cell.spec;
    let mut per_pe = Vec::new();
    let mut host_out = Vec::new();
    for g in comm.manager().groups(&cell.mask).expect("frozen mask") {
        let n = g.members.len();
        let inputs = |sys: &PimSystem| -> Vec<Vec<u8>> {
            g.members
                .iter()
                .map(|&pe| sys.pe(pe).peek(spec.src_offset, spec.bytes_per_node))
                .collect()
        };
        let outputs = match cell.prim {
            Primitive::AlltoAll => oracle::alltoall(&inputs(sys)),
            Primitive::ReduceScatter => oracle::reduce_scatter(&inputs(sys), OP, DTYPE),
            Primitive::AllReduce => oracle::all_reduce(&inputs(sys), OP, DTYPE),
            Primitive::AllGather => oracle::all_gather(&inputs(sys)),
            Primitive::Scatter => oracle::scatter(&cell.host_in[g.id], n),
            Primitive::Broadcast => oracle::broadcast(&cell.host_in[g.id], n),
            Primitive::Gather => {
                host_out.push(oracle::gather(&inputs(sys)));
                continue;
            }
            Primitive::Reduce => {
                host_out.push(oracle::reduce(&inputs(sys), OP, DTYPE));
                continue;
            }
        };
        per_pe.extend(g.members.iter().copied().zip(outputs));
    }
    Expected { per_pe, host_out }
}

fn verify(
    want: &Expected,
    dst: usize,
    sys: &PimSystem,
    host_out: Option<&[Vec<u8>]>,
) -> Option<String> {
    for (pe, bytes) in &want.per_pe {
        if sys.pe(*pe).peek(dst, bytes.len()) != *bytes {
            return Some(format!("{pe} destination bytes differ from the oracle"));
        }
    }
    if !want.host_out.is_empty() && host_out != Some(&want.host_out[..]) {
        return Some("host output differs from the oracle".into());
    }
    None
}

impl Workload for Prims {
    fn cells(&self) -> &[String] {
        &self.ids
    }

    fn pass(&mut self, tr: &mut Tracer, check: bool) -> Vec<CellRun> {
        let mut runs = Vec::with_capacity(self.cells.len());
        for (i, cell) in self.cells.iter().enumerate() {
            tr.set_cell(i);
            let comm = &self.comms[cell.comm];
            let want =
                check.then(|| tr.scope("oracle", Layer::Core, |_| expect(cell, comm, &self.sys)));
            // The cold pass keeps the cache state set-up left it in.
            if let (Some(e), false) = (&self.evictor, check) {
                tr.scope("Evictor::evict", Layer::Harness, |_| e.evict());
            }
            // A report's time is `meter.since(before)`: only from a zeroed
            // meter are its bits a function of the plan alone.
            self.sys.take_meter();
            let span = tr.enter(
                if cell.plan.is_some() {
                    "CollectivePlan::execute"
                } else {
                    "Communicator::one_shot"
                },
                Layer::Core,
            );
            let sw = Stopwatch::start();
            let result = catch(|| black_box(execute(cell, comm, &mut self.sys)));
            let took = sw.stop();
            tr.exit(span);
            runs.push(match result {
                Ok(Ok((report, host_out))) => {
                    let failure = want.and_then(|w| {
                        tr.scope("oracle", Layer::Core, |_| {
                            verify(&w, cell.spec.dst_offset, &self.sys, host_out.as_deref())
                        })
                    });
                    CellRun {
                        wall_ns: took.wall_ns,
                        cpu_ns: took.cpu_ns,
                        modeled_ns: report.time_ns(),
                        completed: failure.is_none(),
                        failure,
                        comm_ns: None,
                        bytes: report.bytes_in + report.bytes_out,
                        chaos: None,
                    }
                }
                Ok(Err(e)) => CellRun::failed(took, format!("error: {e}")),
                Err(panic) => CellRun::failed(took, panic),
            });
        }
        runs
    }
}
