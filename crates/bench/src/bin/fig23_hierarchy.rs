//! Fig. 23: (a) hypercube vs ring vs tree AllReduce; (b) multi-host
//! AllReduce and AlltoAll with 1/2/4 hosts.
//!
//! The three topology runs and the three host-count ensembles are
//! independent simulations, so they run as cells on the work-stealing
//! sweep pool (`--threads N`, default auto); each cell's engine fan-out
//! is bounded by the remaining budget so the two layers compose.

use pidcomm::{
    BufferSpec, Communicator, DimMask, HypercubeManager, HypercubeShape, LinkModel, MultiHost,
    MultiHostReport, Topology,
};
use pidcomm_bench::header;
use pidcomm_bench::sweep::{self, threads_flag, SweepBudget};
use pim_sim::{DimmGeometry, PimSystem, ReduceKind};

fn topology_cell(topo: Topology) -> pidcomm::CommReport {
    let geom = DimmGeometry::upmem_1024();
    let shape = HypercubeShape::new(vec![32, 32]).unwrap();
    let mask: DimMask = "10".parse().unwrap();
    let b = 32 * 512;
    let manager = HypercubeManager::new(shape, geom).unwrap();
    let mut sys = PimSystem::new(geom);
    for pe in geom.pes() {
        sys.pe_mut(pe).write(0, &vec![3u8; b]);
    }
    let spec = BufferSpec::new(0, 2 * b + 64, b);
    let plan = topo.plan(&manager, &mask, &spec, ReduceKind::Sum).unwrap();
    plan.run(&mut sys, None).unwrap().report
}

fn multihost_cell(hosts: usize, engine_threads: usize) -> (MultiHostReport, MultiHostReport) {
    let per_host = DimmGeometry::upmem_256();
    // An explicit per-host bound caps both the host-level fan-out and each
    // host's inner cluster fan-out (see `par_hosts`), so the cell can use
    // up to bound x bound threads: stay within the sweep budget by taking
    // the integer square root.
    let bound = engine_threads.isqrt().max(1);
    let mk = || {
        let m =
            HypercubeManager::new(HypercubeShape::new(vec![16, 16]).unwrap(), per_host).unwrap();
        Communicator::new(m).with_threads(bound)
    };
    let mh = MultiHost::new(
        (0..hosts).map(|_| mk()).collect(),
        LinkModel::ethernet_10g(),
    )
    .unwrap();
    let mask: DimMask = "10".parse().unwrap();

    // AllReduce: 8 KiB per PE.
    let b_ar = 16 * 512;
    let mut systems: Vec<PimSystem> = (0..hosts).map(|_| PimSystem::new(per_host)).collect();
    for sys in systems.iter_mut() {
        for pe in per_host.pes() {
            sys.pe_mut(pe).write(0, &vec![1u8; b_ar]);
        }
    }
    let ar = mh
        .all_reduce(
            &mut systems,
            &mask,
            &BufferSpec::new(0, 2 * b_ar + 64, b_ar),
            ReduceKind::Sum,
        )
        .unwrap();

    // AlltoAll: chunked across hosts x group.
    let b_aa = 8 * 16 * hosts * 8;
    let mut systems: Vec<PimSystem> = (0..hosts).map(|_| PimSystem::new(per_host)).collect();
    for sys in systems.iter_mut() {
        for pe in per_host.pes() {
            sys.pe_mut(pe).write(0, &vec![2u8; b_aa]);
        }
    }
    let aa = mh
        .all_to_all(
            &mut systems,
            &mask,
            &BufferSpec::new(0, 2 * b_aa + 64, b_aa),
        )
        .unwrap();
    (ar, aa)
}

fn main() {
    const TOPOLOGIES: [Topology; 3] = [Topology::Hypercube, Topology::Ring, Topology::Tree];
    const HOSTS: [usize; 3] = [1, 2, 4];

    // Build the actual cell vector first and derive every count — the
    // budget split and the queue size — from it, so the workers /
    // engine_threads schedule can never drift from the cells actually
    // enqueued if an axis is added or filtered later.
    enum Spec {
        Topo(Topology),
        Hosts(usize),
    }
    let specs: Vec<Spec> = TOPOLOGIES
        .iter()
        .map(|&t| Spec::Topo(t))
        .chain(HOSTS.iter().map(|&h| Spec::Hosts(h)))
        .collect();
    // The real guard is structural: specs.len() is the only count the
    // budget split and the queue ever see. The assert just documents the
    // expected sweep size so a reshaped cell list is caught loudly.
    assert_eq!(specs.len(), TOPOLOGIES.len() + HOSTS.len());
    let budget = SweepBudget::split(threads_flag(), specs.len());

    // All six cells drain through one shared queue; the reports come back
    // in cell order for deterministic printing.
    enum Cell {
        Topo(pidcomm::CommReport),
        Hosts(MultiHostReport, MultiHostReport),
    }
    let results = sweep::run_cells(specs.len(), budget.workers, |i| match specs[i] {
        Spec::Topo(topo) => Cell::Topo(topology_cell(topo)),
        Spec::Hosts(hosts) => {
            let (ar, aa) = multihost_cell(hosts, budget.engine_threads);
            Cell::Hosts(ar, aa)
        }
    });

    header(
        "Fig. 23a",
        "AllReduce with hypercube / ring / tree topologies, 2-D (32,32)",
        "tree up to 7.89x and ring up to 2.05x slower than the hypercube",
    );
    let mut hyper_t = 0.0;
    for (topo, cell) in TOPOLOGIES.iter().zip(&results) {
        let Cell::Topo(report) = cell else {
            unreachable!()
        };
        if *topo == Topology::Hypercube {
            hyper_t = report.time_ns();
        }
        println!(
            "{:<10} {:>9.2} ms  ({:.2}x vs hypercube, {:>6.2} GB/s)",
            format!("{topo}"),
            report.time_ns() / 1e6,
            report.time_ns() / hyper_t,
            report.throughput_gbps()
        );
    }

    println!();
    header(
        "Fig. 23b",
        "multi-host AllReduce / AlltoAll, 256 PEs per host, 10 Gbps MPI",
        "AR overhead small (reduced data crosses MPI); AA overhead grows with hosts",
    );
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12}",
        "hosts", "AR local ms", "AR mpi ms", "AA local ms", "AA mpi ms"
    );
    for (hosts, cell) in HOSTS.iter().zip(&results[TOPOLOGIES.len()..]) {
        let Cell::Hosts(ar, aa) = cell else {
            unreachable!()
        };
        println!(
            "{hosts:<6} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            ar.local.total() / 1e6,
            ar.mpi_ns / 1e6,
            aa.local.total() / 1e6,
            aa.mpi_ns / 1e6
        );
    }
}
