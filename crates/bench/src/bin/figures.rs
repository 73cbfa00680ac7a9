//! Regenerates the paper's tables and figures (§VIII), one function each:
//!
//! ```text
//! figures [--threads N] <name>...
//! ```
//!
//! prints the named ones in the order given. The primitive figures (14, 16
//! to 20) and fig23b read cost-only plan reports; the application figures
//! and fig23a simulate. `--threads N` (`0` or absent = auto) sizes the
//! sweep pool of fig13 / fig15 / fig21 / fig23a, whose cells run serial
//! inside it; the printed numbers are byte-identical at every setting.

use pidcomm::{
    technique_applies, BufferSpec, CommReport, DimMask, HypercubeManager, HypercubeShape, OptLevel,
    Primitive, Technique, Topology,
};
use pidcomm_apps::gnn::{run_gnn, GnnConfig, GnnVariant};
use pidcomm_bench::apps::{self, AppCell};
use pidcomm_bench::{geomean, header, multihost_cell, run_primitive, sweep, PrimSetup};
use pim_sim::{DType, DimmGeometry, PimSystem, ReduceKind};

/// A figure's name and its function, which takes the sweep pool size.
type Figure = (&'static str, fn(usize));

const FIGURES: [Figure; 13] = [
    ("tables", |_| tables()),
    ("fig04", |_| fig04()),
    ("fig13", fig13),
    ("fig14", |_| fig14()),
    ("fig15", fig15),
    ("fig16", |_| fig16()),
    ("fig17", |_| fig17()),
    ("fig18", |_| fig18()),
    ("fig19", |_| fig19()),
    ("fig20", |_| fig20()),
    ("fig21", fig21),
    ("fig22", |_| fig22()),
    ("fig23", fig23),
];

/// The four primitives the breakdown, ablation and sweep figures plot.
const FOUR: [Primitive; 4] = [
    Primitive::AlltoAll,
    Primitive::ReduceScatter,
    Primitive::AllReduce,
    Primitive::AllGather,
];

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workers, mut names) = (0, Vec::new());
    while let Some(arg) = args.next() {
        if arg != "--threads" {
            names.push(arg);
            continue;
        }
        let v = args.next().unwrap_or_default();
        workers = v.parse().unwrap_or_else(|_| {
            eprintln!("error: --threads needs a number, got {v:?}");
            std::process::exit(2);
        });
    }
    let find = |name: &String| FIGURES.iter().find(|(n, _)| n == name).map(|&(_, f)| f);
    match names.iter().map(find).collect::<Option<Vec<_>>>() {
        Some(figures) if !figures.is_empty() => figures.into_iter().for_each(|f| f(workers)),
        _ => {
            let all: Vec<&str> = FIGURES.iter().map(|&(n, _)| n).collect();
            eprintln!("usage: figures [--threads N] <name>...");
            eprintln!("names: {}", all.join(" "));
            std::process::exit(2);
        }
    }
}

/// Tables I, II and III.
fn tables() {
    header(
        "Table I",
        "comparison against conventional approaches",
        "PID-Comm is the only framework with multi-instance + all 8 primitives",
    );
    println!(
        "{:<14} {:<16} {:<14} Primitives",
        "Framework", "Multi-instance", "Performance"
    );
    println!(
        "{:<14} {:<16} {:<14} Sc Ga Br",
        "UPMEM SDK", "not supported", "not optimized"
    );
    println!(
        "{:<14} {:<16} {:<14} AR AG Sc Ga Br",
        "SimplePIM", "not supported", "not optimized"
    );
    let all: Vec<&str> = Primitive::ALL.iter().map(|p| p.abbrev()).collect();
    println!(
        "{:<14} {:<16} {:<14} {}",
        "PID-Comm",
        "supported",
        "optimized",
        all.join(" ")
    );

    println!();
    header(
        "Table II",
        "applicability of the proposed techniques",
        "PR: 5 primitives, IM: 7, CM: 2 (AA, AG only)",
    );
    print!("{:<26}", "technique");
    for p in Primitive::ALL {
        print!(" {:>3}", p.abbrev());
    }
    println!();
    for (name, t) in [
        ("PIM-assisted reordering", Technique::PeReorder),
        ("in-register modulation", Technique::InRegister),
        ("cross-domain modulation", Technique::CrossDomain),
    ] {
        print!("{name:<26}");
        for p in Primitive::ALL {
            print!(" {:>3}", if technique_applies(p, t) { "v" } else { "" });
        }
        println!();
    }

    println!();
    header(
        "Table III",
        "benchmark applications (harness-scale substitutes)",
        "5 apps, hypercube dims 1-3, communication primitive mix",
    );
    println!(
        "{:<12} {:<6} {:<28} Datasets (scaled substitutes)",
        "App", "Dims", "Primitives"
    );
    for (app, dims, prims, datasets) in [
        ("DLRM", "3", "Sc Ga AA RS AG", "Criteo-like, emb dim 16/32"),
        (
            "GNN RS&AR",
            "2",
            "Sc Ga RS AR",
            "PM-like, RD-like, 3 layers",
        ),
        (
            "GNN AR&AG",
            "2",
            "Sc Ga AR AG",
            "PM-like, RD-like, 3 layers",
        ),
        ("BFS", "1", "Sc Ga AR(or)", "LJ-like, LG-like"),
        ("CC", "1", "Sc Re AR(min)", "LJ-like, LG-like"),
        (
            "MLP",
            "1",
            "Sc Ga RS",
            "features 2048/4096 (16k/32k scaled)",
        ),
    ] {
        println!("{app:<12} {dims:<6} {prims:<28} {datasets}");
    }
}

/// Fig. 4: execution-time breakdown of the applications on the
/// conventional (baseline) communication stack.
fn fig04() {
    header(
        "Fig. 4",
        "baseline app breakdown: communication dominates; inside it, modulation/host-mem/DT",
        "all five apps spend a large share in communication on the conventional stack",
    );
    println!(
        "{:<12} {:<4} {:>9} {:>7} || {:>6} {:>6} {:>6} {:>6} {:>6}",
        "app", "ds", "total ms", "comm%", "DT%", "mod%", "hmem%", "pemem%", "other%"
    );
    for case in apps::all_cases() {
        if !matches!(
            (case.app, case.dataset),
            ("DLRM", "16") | ("GNN RS&AR", "PM") | ("BFS", "LJ") | ("CC", "LJ") | ("MLP", "16k")
        ) {
            continue;
        }
        let run = case.run(1024, OptLevel::Baseline);
        let p = &run.profile;
        let comm = &p.comm;
        let ct = comm.comm_total();
        println!(
            "{:<12} {:<4} {:>9.2} {:>6.1}% || {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}%",
            case.app,
            case.dataset,
            p.total_ns() / 1e6,
            100.0 * p.comm_ns() / p.total_ns(),
            100.0 * comm.domain_transfer / ct,
            100.0 * comm.host_modulation / ct,
            100.0 * comm.host_mem_access / ct,
            100.0 * comm.pe_mem_access / ct,
            100.0 * (comm.other + comm.pe_modulation) / ct,
        );
    }
}

/// Fig. 13: per-application time split into the eight primitives plus the
/// compute kernel, baseline vs PID-Comm.
fn fig13(workers: usize) {
    let cases = apps::all_cases();
    let cells = apps::base_vs_full_cells(cases.len(), 1024);
    header(
        "Fig. 13",
        "application breakdown by primitive, Base vs Ours (harness-scale datasets)",
        "communication latency largely reduced for all applications; kernel unchanged",
    );
    let runs = apps::run_app_sweep(&cases, &cells, workers);
    for (cell, run) in cells.iter().zip(&runs) {
        let case = &cases[cell.case];
        let label = match cell.opt {
            OptLevel::Baseline => "Base",
            _ => "Ours",
        };
        println!(
            "{:<9} {:<4} {label}: {}",
            case.app,
            case.dataset,
            run.profile.table_row()
        );
    }
}

/// Fig. 14: throughput of the eight primitives, baseline vs PID-Comm, on
/// the 2-D (32, 32) configuration.
fn fig14() {
    header(
        "Fig. 14",
        "primitive throughput, Base vs PID-Comm, 2-D (32,32), 1024 PEs",
        "AA 5.19x, RS 4.46x, AR 4.23x, Br ~1x, geomean 2.83x",
    );
    let setup = PrimSetup::default_2d(32 * 1024);
    println!(
        "{:<4} {:>10} {:>10} {:>8}",
        "prim", "base GB/s", "ours GB/s", "speedup"
    );
    let mut speedups = Vec::new();
    for prim in Primitive::ALL {
        let base = run_primitive(&setup, prim, OptLevel::Baseline).throughput_gbps();
        let ours = run_primitive(&setup, prim, OptLevel::Full).throughput_gbps();
        speedups.push(ours / base);
        println!(
            "{:<4} {base:>10.2} {ours:>10.2} {:>7.2}x",
            prim.abbrev(),
            ours / base
        );
    }
    println!("geomean speedup: {:.2}x", geomean(&speedups));
}

/// Fig. 15: application speedup of PID-Comm over the baseline stack.
fn fig15(workers: usize) {
    let cases = apps::all_cases();
    let cells = apps::base_vs_full_cells(cases.len(), 1024);
    header(
        "Fig. 15",
        "application speedup, PID-Comm over baseline, 1024 PEs",
        "1.20x - 3.99x per app, geomean 1.99x",
    );
    println!(
        "{:<12} {:<4} {:>10} {:>10} {:>8}",
        "app", "ds", "base ms", "ours ms", "speedup"
    );
    let runs = apps::run_app_sweep(&cases, &cells, workers);
    let mut speedups = Vec::new();
    for (case, pair) in cases.iter().zip(runs.chunks_exact(2)) {
        let (base, ours) = (pair[0].profile.total_ns(), pair[1].profile.total_ns());
        speedups.push(base / ours);
        println!(
            "{:<12} {:<4} {:>10.2} {:>10.2} {:>7.2}x",
            case.app,
            case.dataset,
            base / 1e6,
            ours / 1e6,
            base / ours
        );
    }
    println!("geomean speedup: {:.2}x (paper: 1.99x)", geomean(&speedups));
}

/// Fig. 16: ablation Base -> +PR -> +IM -> +CM for AlltoAll,
/// ReduceScatter, AllReduce and AllGather.
fn fig16() {
    header(
        "Fig. 16",
        "ablation of the three techniques, 2-D (32,32)",
        "monotone gains; PR strongest for RS/AR; CM only helps AA/AG; AG gains smallest",
    );
    let setup = PrimSetup::default_2d(32 * 1024);
    println!(
        "{:<4} {:>9} {:>9} {:>9} {:>9}",
        "prim", "Base", "+PR", "+IM", "+CM"
    );
    let mut per_step: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for prim in FOUR {
        let tps: Vec<f64> = OptLevel::ALL
            .iter()
            .map(|&opt| run_primitive(&setup, prim, opt).throughput_gbps())
            .collect();
        for step in 0..3 {
            per_step[step].push(tps[step + 1] / tps[step]);
        }
        println!(
            "{:<4} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            prim.abbrev(),
            tps[0],
            tps[1],
            tps[2],
            tps[3]
        );
    }
    println!(
        "geomean step gains: +PR {:.2}x, +IM {:.2}x, +CM {:.2}x (paper: 1.48x / 2.03x / 1.42x)",
        geomean(&per_step[0]),
        geomean(&per_step[1]),
        geomean(&per_step[2]),
    );
}

/// Fig. 17: execution-time breakdown of AA/RS/AR/AG, baseline vs PID-Comm.
fn fig17() {
    header(
        "Fig. 17",
        "breakdown of four primitives, 32x32 PEs (sizes scaled /128 vs paper's 8MB/PE)",
        "host-mem vanishes with IM; DT vanishes for AA/AG with CM; PE-side modulation is minor",
    );
    let setup = PrimSetup::default_2d(64 * 1024);
    println!(
        "{:<4} {:<5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "prim", "opt", "total", "DT", "hostmod", "hostmem", "pemem", "pemod", "other"
    );
    for prim in FOUR {
        for opt in [OptLevel::Baseline, OptLevel::Full] {
            let b = run_primitive(&setup, prim, opt).breakdown;
            println!(
                "{:<4} {:<5} {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}ms",
                prim.abbrev(),
                format!("{opt}"),
                b.total() / 1e6,
                b.domain_transfer / 1e6,
                b.host_modulation / 1e6,
                b.host_mem_access / 1e6,
                b.pe_mem_access / 1e6,
                b.pe_modulation / 1e6,
                b.other / 1e6,
            );
        }
    }
}

/// Fig. 18: primitive throughput vs data size, 1-D (1024) and 2-D (32,32).
fn fig18() {
    header(
        "Fig. 18",
        "data-size sweep (bytes/node scaled /128 vs paper's 128K-8M)",
        "PID-Comm pulls ahead as size grows (2.89x at max, geomean); 1-D AG baseline already fast",
    );
    // Multiples of the minimum legal per-node size (8 x group size).
    let factors = [1usize, 2, 4, 8, 16];
    for (label, group, mk) in [
        (
            "1D",
            1024usize,
            PrimSetup::default_1d as fn(usize) -> PrimSetup,
        ),
        ("2D", 32, PrimSetup::default_2d),
    ] {
        for prim in FOUR {
            print!("{label} {:<4}", prim.abbrev());
            for &k in &factors {
                let b = 8 * group * k;
                let setup = mk(b);
                let base = run_primitive(&setup, prim, OptLevel::Baseline).throughput_gbps();
                let ours = run_primitive(&setup, prim, OptLevel::Full).throughput_gbps();
                print!("  {:>5}B:{:>5.1}/{:<5.1}", b, base, ours);
            }
            println!();
        }
    }
    println!("(cells are base/ours GB/s per bytes-per-node size)");
}

/// Fig. 19: primitive throughput vs number of PEs (64 - 1024).
fn fig19() {
    header(
        "Fig. 19",
        "PE-count sweep, 1-D and 2-D",
        "PID-Comm scales 2.36-4.20x from 64 to 1024 PEs (channel scaling); baseline is host-bound and flat",
    );
    let counts = [64usize, 128, 256, 512, 1024];
    for (label, dims_of) in [
        ("1D", (|p: usize| vec![p]) as fn(usize) -> Vec<usize>),
        ("2D", |p: usize| {
            let x = 1 << (p.trailing_zeros() / 2);
            vec![x, p / x]
        }),
    ] {
        for prim in FOUR {
            print!("{label} {:<4}", prim.abbrev());
            for &p in &counts {
                let dims = dims_of(p);
                let mask = if dims.len() == 1 { "1" } else { "10" };
                // Fixed per-node payload across the sweep so fixed
                // overheads amortize identically (64 KiB for 1-D groups,
                // 8 KiB for 2-D groups; both satisfy the 8 x N alignment
                // at every PE count).
                let bytes_per_node = if dims.len() == 1 { 64 * 1024 } else { 8 * 1024 };
                let setup = PrimSetup {
                    geom: DimmGeometry::with_pes(p),
                    bytes_per_node,
                    dims,
                    mask: mask.into(),
                    dtype: DType::U64,
                };
                let base = run_primitive(&setup, prim, OptLevel::Baseline).throughput_gbps();
                let ours = run_primitive(&setup, prim, OptLevel::Full).throughput_gbps();
                print!("  {p:>4}:{base:>5.1}/{ours:<5.1}");
            }
            println!();
        }
    }
    println!("(cells are base/ours GB/s per PE count)");
}

/// Fig. 20: PID-Comm throughput across 3-D hypercube shapes.
fn fig20() {
    header(
        "Fig. 20",
        "3-D hypercube shape sweep, communication along x",
        "AA/AR roughly shape-insensitive (<=20.6 / 12.2 GB/s); RS/AG grow with x (<=17.8 / 36.1 GB/s)",
    );
    let shapes: [[usize; 3]; 10] = [
        [8, 64, 2],
        [16, 32, 2],
        [32, 16, 2],
        [64, 8, 2],
        [128, 4, 2],
        [8, 32, 4],
        [16, 16, 4],
        [32, 8, 4],
        [64, 4, 4],
        [128, 2, 4],
    ];
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>8}",
        "shape", "AA", "RS", "AR", "AG"
    );
    for dims in shapes {
        let setup = PrimSetup {
            geom: DimmGeometry::upmem_1024(),
            dims: dims.to_vec(),
            mask: "100".into(),
            bytes_per_node: (8 * dims[0] * 32).max(4096),
            dtype: DType::U64,
        };
        let vals = FOUR.map(|p| run_primitive(&setup, p, OptLevel::Full).throughput_gbps());
        println!(
            "[{:>3},{:>3},{:>2}] {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            dims[0], dims[1], dims[2], vals[0], vals[1], vals[2], vals[3]
        );
    }
}

/// Dataset-scale compensation applied to fig21's CPU reference times.
///
/// The harness datasets are 8-500x smaller than the paper's, and CPU work
/// per communication byte shrinks faster than the data: GNN / MLP compute
/// is quadratic in the feature width while traffic is linear, and graph
/// working sets that fit in the LLC flatter the CPU. Each factor restores
/// the paper-scale compute-to-traffic ratio on the CPU side, the way the
/// `KERNEL_SCALE` compensation does inside the PIM kernels. The factor is
/// the product of the terms noted beside it. The width terms follow from
/// the scaling; the table, batch and LLC terms are estimates, not
/// measurements, so fig21 reports a shape rather than a measured CPU time.
fn cpu_scale(app: &str) -> f64 {
    match app {
        // 26 Criteo tables vs 8 (3.25x) x the batch scale (~2.5x).
        "DLRM" => 8.0,
        // Kernel x6 x (500/64)^2 / (500/64) feature scaling = 46.9, rounded down.
        a if a.starts_with("GNN") => 45.0,
        // Kernel x4 x 2.5 for the LLC-resident visited arrays.
        "BFS" => 10.0,
        // Kernel x1.5 x ~5.3 for the LLC-resident labels.
        "CC" => 8.0,
        // (16k/2048)^2 / (16k/2048) = 8 width scaling x 2 for the multiply width.
        "MLP" => 16.0,
        _ => 1.0,
    }
}

/// Fig. 21: CPU-only vs PIM-baseline vs PID-Comm across PE counts.
fn fig21(workers: usize) {
    header(
        "Fig. 21",
        "speedup over the CPU-only system vs PE count (harness-scale datasets, CPU scale-compensated)",
        "PIM base geomean 2.27x, PID-Comm 4.07x; compute-heavy apps scale with PEs, CC peaks early",
    );
    let cases = apps::all_cases();
    // One row per selected (app, dataset); one base/ours pair per PE count.
    let mut rows: Vec<(usize, &[usize])> = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        if !matches!(
            (case.app, case.dataset),
            ("DLRM", "16")
                | ("GNN RS&AR", "PM")
                | ("GNN AR&AG", "PM")
                | ("BFS", "LJ")
                | ("CC", "LJ")
                | ("MLP", "16k")
        ) {
            continue;
        }
        let counts: &[usize] = match case.app {
            a if a.starts_with("GNN") => &[64, 256, 1024],
            "CC" => &[32, 64, 128, 256, 512, 1024],
            _ => &[64, 128, 256, 512, 1024],
        };
        rows.push((i, counts));
    }
    let cells: Vec<AppCell> = rows
        .iter()
        .flat_map(|&(case, counts)| {
            counts.iter().flat_map(move |&pes| {
                [OptLevel::Baseline, OptLevel::Full]
                    .into_iter()
                    .map(move |opt| AppCell { case, pes, opt })
            })
        })
        .collect();
    let runs = apps::run_app_sweep(&cases, &cells, workers);

    let mut next = runs.chunks_exact(2);
    for &(case, counts) in &rows {
        let case = &cases[case];
        print!("{:<10} {:<4}", case.app, case.dataset);
        let scale = cpu_scale(case.app);
        for &p in counts {
            let pair = next.next().expect("one base/ours pair per PE count");
            let (base, ours) = (&pair[0], &pair[1]);
            print!(
                "  {p:>4}:{:>5.2}/{:<5.2}",
                scale * base.cpu_ns / base.profile.total_ns(),
                scale * ours.cpu_ns / ours.profile.total_ns()
            );
        }
        println!();
    }
    println!("(cells are PIM-base/PID-Comm speedup over CPU per PE count; >1 means PIM wins)");
}

/// Fig. 22: word-width sensitivity (INT8/16/32) on the GNN benchmarks.
fn fig22() {
    header(
        "Fig. 22",
        "GNN with INT8/16/32 elements, Base vs Ours",
        "speedup largest for INT8 (cross-domain modulation applies to RS/AR; paper: 1.64x geomean)",
    );
    println!(
        "{:<10} {:<4} {:<6} {:>10} {:>10} {:>8} {:>9} {:>12}",
        "variant", "ds", "dtype", "base ms", "ours ms", "speedup", "comm-spd", "ours DT ms"
    );
    for (variant, vl) in [(GnnVariant::RsAr, "RS&AR"), (GnnVariant::ArAg, "AR&AG")] {
        for (graph, ds) in [(apps::pm(), "PM"), (apps::rd(), "RD")] {
            for dtype in [DType::I8, DType::I16, DType::I32] {
                let mk = |opt| GnnConfig {
                    threads: 0,
                    pes: 1024,
                    feature_dim: 32,
                    layers: 3,
                    variant,
                    opt,
                    dtype,
                };
                let base = run_gnn(&mk(OptLevel::Baseline), graph).unwrap().profile;
                let ours = run_gnn(&mk(OptLevel::Full), graph).unwrap().profile;
                println!(
                    "{:<10} {:<4} {:<6} {:>10.2} {:>10.2} {:>7.2}x {:>8.2}x {:>12.3}",
                    vl,
                    ds,
                    format!("{dtype}"),
                    base.total_ns() / 1e6,
                    ours.total_ns() / 1e6,
                    base.total_ns() / ours.total_ns(),
                    base.comm_ns() / ours.comm_ns(),
                    ours.comm.domain_transfer / 1e6,
                );
            }
        }
    }
}

/// One fig23a cell: a functional AllReduce of `topo` on the 32x32 cube.
fn topology_cell(topo: Topology) -> CommReport {
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

/// Fig. 23: (a) hypercube vs ring vs tree AllReduce, functional, the
/// three cells in one pool; (b) multi-host AllReduce and AlltoAll with
/// 1/2/4 hosts, cost-only.
fn fig23(workers: usize) {
    const TOPOLOGIES: [Topology; 3] = [Topology::Hypercube, Topology::Ring, Topology::Tree];
    let reports = sweep::run_cells(TOPOLOGIES.len(), workers, |i| topology_cell(TOPOLOGIES[i]));

    header(
        "Fig. 23a",
        "AllReduce with hypercube / ring / tree topologies, 2-D (32,32)",
        "tree up to 7.89x and ring up to 2.05x slower than the hypercube",
    );
    let mut hyper_t = 0.0;
    for (topo, report) in TOPOLOGIES.iter().zip(&reports) {
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
    for hosts in [1, 2, 4] {
        let (ar, aa) = multihost_cell(hosts);
        println!(
            "{hosts:<6} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            ar.local.total() / 1e6,
            ar.mpi_ns / 1e6,
            aa.local.total() / 1e6,
            aa.mpi_ns / 1e6
        );
    }
}
