//! Cross-crate integration tests: the whole stack — dataset generation,
//! applications, collectives, topologies and the multi-host extension —
//! exercised through public APIs only.

use pidcomm::{
    BufferSpec, Communicator, DimMask, HypercubeManager, HypercubeShape, LinkModel, MultiHost,
    OptLevel, Primitive, Topology,
};
use pidcomm_apps::bfs::{default_source, run_bfs, BfsConfig};
use pidcomm_apps::cc::{run_cc, CcConfig};
use pidcomm_apps::dlrm::{run_dlrm, DlrmRunConfig};
use pidcomm_apps::gnn::{run_gnn, GnnConfig, GnnVariant};
use pidcomm_apps::mlp::{run_mlp, MlpConfig};
use pidcomm_data::dlrm::DlrmConfig;
use pidcomm_data::{rmat, GraphPreset, RmatParams};
use pim_sim::{DType, DimmGeometry, PimSystem, ReduceKind};

#[test]
fn all_five_applications_validate_on_64_pes() {
    let graph = rmat(10, 8, RmatParams::skewed(3)).to_undirected();

    let bfs = run_bfs(
        &BfsConfig {
            threads: 0,
            pes: 64,
            opt: OptLevel::Full,
        },
        &graph,
        default_source(&graph),
    )
    .unwrap();
    assert!(bfs.validated);

    let cc = run_cc(
        &CcConfig {
            threads: 0,
            pes: 64,
            opt: OptLevel::Full,
        },
        &graph,
    )
    .unwrap();
    assert!(cc.validated);

    let mlp = run_mlp(&MlpConfig {
        threads: 0,
        features: 512,
        layers: 2,
        pes: 64,
        opt: OptLevel::Full,
    })
    .unwrap();
    assert!(mlp.validated);

    let gnn = run_gnn(
        &GnnConfig {
            threads: 0,
            pes: 64,
            feature_dim: 16,
            layers: 2,
            variant: GnnVariant::RsAr,
            opt: OptLevel::Full,
            dtype: DType::I32,
        },
        &rmat(10, 4, RmatParams::uniform(5)),
    )
    .unwrap();
    assert!(gnn.validated);

    let mut workload = DlrmConfig::criteo_like(16);
    workload.batch_size = 512;
    let dlrm = run_dlrm(&DlrmRunConfig {
        threads: 0,
        workload,
        pes: 64,
        opt: OptLevel::Full,
    })
    .unwrap();
    assert!(dlrm.validated);
}

#[test]
fn report_breakdown_matches_system_meter() {
    // The CommReport's breakdown must equal the meter delta on the system.
    let geom = DimmGeometry::single_rank();
    let mut sys = PimSystem::new(geom);
    for pe in geom.pes() {
        sys.pe_mut(pe).write(0, &[7u8; 512]);
    }
    let manager = HypercubeManager::new(HypercubeShape::new(vec![8, 8]).unwrap(), geom).unwrap();
    let comm = Communicator::new(manager);
    let before = sys.meter();
    let report = comm
        .all_reduce(
            &mut sys,
            &"10".parse().unwrap(),
            &BufferSpec::new(0, 1024, 512),
            ReduceKind::Sum,
        )
        .unwrap();
    let delta = sys.meter().since(&before);
    assert!((report.breakdown.total() - delta.total()).abs() < 1e-9);
    assert!((report.breakdown.pe_mem_access - delta.pe_mem_access).abs() < 1e-9);
}

#[test]
fn sequential_collectives_compose() {
    // The GNN communication skeleton of Algorithm 1, hand-rolled:
    // scatter -> [RS(dim) -> AR(dim)] x layers with alternating dims ->
    // gather, all on one system.
    let geom = DimmGeometry::single_rank();
    let mut sys = PimSystem::new(geom);
    let manager = HypercubeManager::new(HypercubeShape::new(vec![8, 8]).unwrap(), geom).unwrap();
    let comm = Communicator::new(manager);
    let b = 8 * 8 * 8;

    let groups = comm.manager().groups(&"11".parse().unwrap()).unwrap();
    let host: Vec<Vec<u8>> = vec![(0..64 * b).map(|i| (i % 251) as u8).collect(); groups.len()];
    comm.scatter(
        &mut sys,
        &"11".parse().unwrap(),
        &BufferSpec::new(0, 0, b),
        &host,
    )
    .unwrap();

    for layer in 0..3 {
        let mask: DimMask = if layer % 2 == 0 { "10" } else { "01" }.parse().unwrap();
        comm.reduce_scatter(
            &mut sys,
            &mask,
            &BufferSpec::new(0, 4096, b),
            ReduceKind::Sum,
        )
        .unwrap();
        comm.all_reduce(
            &mut sys,
            &mask,
            &BufferSpec::new(4096, 8192, b / 8),
            ReduceKind::Sum,
        )
        .unwrap();
        // Feed the result forward.
        for pe in geom.pes() {
            let data = sys.pe_mut(pe).read(8192, b / 8).to_vec();
            let repeated: Vec<u8> = data.iter().cycle().take(b).copied().collect();
            sys.pe_mut(pe).write(0, &repeated);
        }
    }
    let (_, out) = comm
        .gather(&mut sys, &"11".parse().unwrap(), &BufferSpec::new(0, 0, b))
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].len(), 64 * b);
}

#[test]
fn topologies_agree_with_hypercube_result() {
    let geom = DimmGeometry::single_rank();
    let manager = HypercubeManager::new(HypercubeShape::new(vec![8, 8]).unwrap(), geom).unwrap();
    let mask: DimMask = "01".parse().unwrap();
    let b = 128;

    let mut results: Vec<Vec<u8>> = Vec::new();
    for topo in [Topology::Hypercube, Topology::Ring, Topology::Tree] {
        let mut sys = PimSystem::new(geom);
        for pe in geom.pes() {
            let data: Vec<u8> = (0..b)
                .map(|i| ((pe.0 as usize * 31 + i) % 200) as u8)
                .collect();
            sys.pe_mut(pe).write(0, &data);
        }
        let spec = BufferSpec::new(0, 1024, b);
        let plan = topo.plan(&manager, &mask, &spec, ReduceKind::Sum).unwrap();
        plan.run(&mut sys, None).unwrap();
        let snapshot: Vec<u8> = geom
            .pes()
            .flat_map(|pe| sys.pe_mut(pe).read(1024, b).to_vec())
            .collect();
        results.push(snapshot);
    }
    assert_eq!(results[0], results[1], "ring result differs");
    assert_eq!(results[0], results[2], "tree result differs");
}

#[test]
fn multi_host_extends_single_host_results() {
    let geom = DimmGeometry::single_rank();
    let mk = || {
        Communicator::new(
            HypercubeManager::new(HypercubeShape::new(vec![8, 8]).unwrap(), geom).unwrap(),
        )
    };
    let mh = MultiHost::new(vec![mk(), mk()], LinkModel::ethernet_10g()).unwrap();
    let mut systems = vec![PimSystem::new(geom), PimSystem::new(geom)];
    let b = 64;
    for (h, sys) in systems.iter_mut().enumerate() {
        for pe in geom.pes() {
            sys.pe_mut(pe).write(0, &[(h as u8 + 1); 64]);
        }
    }
    let spec = BufferSpec::new(0, 1024, b);
    let plan = mh.plan(
        Primitive::AllReduce,
        &"10".parse().unwrap(),
        &spec,
        ReduceKind::Sum,
    );
    let report = plan.unwrap().execute(&mut systems).unwrap();
    assert_eq!(report.hosts, 2);
    // Sum across 8 members per host on 2 hosts: 8*1 + 8*2 = 24 per byte
    // ... elementwise u64 sums of 0x0101..: check one word.
    let v = systems[0]
        .pe_mut(geom.pes().next().unwrap())
        .read(1024, 8)
        .to_vec();
    let got = u64::from_le_bytes(v.try_into().unwrap());
    let ones: u64 = u64::from_le_bytes([1; 8]);
    assert_eq!(got, ones * 8 + ones * 2 * 8);
}

#[test]
fn dataset_presets_are_usable() {
    let g = GraphPreset::GowallaLike.generate();
    assert!(g.num_edges() > 10_000);
    let run = run_bfs(
        &BfsConfig {
            threads: 0,
            pes: 64,
            opt: OptLevel::Full,
        },
        &g.to_undirected(),
        default_source(&g),
    )
    .unwrap();
    assert!(run.validated);
}

#[test]
fn all_eight_primitives_round_trip_on_one_system() {
    let geom = DimmGeometry::upmem_256();
    let mut sys = PimSystem::new(geom);
    let manager = HypercubeManager::new(HypercubeShape::new(vec![16, 16]).unwrap(), geom).unwrap();
    let comm = Communicator::new(manager);
    let mask: DimMask = "10".parse().unwrap();
    let n = 16;
    let b = 8 * n;
    for pe in geom.pes() {
        sys.pe_mut(pe).write(0, &vec![(pe.0 % 256) as u8; b]);
    }
    let groups = comm.manager().groups(&mask).unwrap().len();

    let mut seen = vec![comm
        .all_to_all(&mut sys, &mask, &BufferSpec::new(0, 4096, b))
        .unwrap()];
    seen.push(
        comm.reduce_scatter(
            &mut sys,
            &mask,
            &BufferSpec::new(0, 8192, b),
            ReduceKind::Sum,
        )
        .unwrap(),
    );
    seen.push(
        comm.all_reduce(
            &mut sys,
            &mask,
            &BufferSpec::new(0, 12288, b),
            ReduceKind::Max,
        )
        .unwrap(),
    );
    seen.push(
        comm.all_gather(&mut sys, &mask, &BufferSpec::new(0, 16384, 64))
            .unwrap(),
    );
    let host = vec![vec![9u8; n * 64]; groups];
    seen.push(
        comm.scatter(&mut sys, &mask, &BufferSpec::new(0, 32768, 64), &host)
            .unwrap(),
    );
    seen.push(
        comm.gather(&mut sys, &mask, &BufferSpec::new(0, 0, 64))
            .unwrap()
            .0,
    );
    seen.push(
        comm.reduce(&mut sys, &mask, &BufferSpec::new(0, 0, b), ReduceKind::Sum)
            .unwrap()
            .0,
    );
    let host = vec![vec![1u8; 64]; groups];
    seen.push(
        comm.broadcast(&mut sys, &mask, &BufferSpec::new(0, 40960, 64), &host)
            .unwrap(),
    );

    let kinds: Vec<Primitive> = seen.iter().map(|r| r.primitive).collect();
    assert_eq!(kinds, Primitive::ALL.to_vec());
    assert!(seen.iter().all(|r| r.time_ns() > 0.0));
}
