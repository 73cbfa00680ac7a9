//! # pidcomm-bench — figure/table regeneration harness
//!
//! The `figures` binary prints the paper's evaluation (§VIII), one
//! function per table or figure. This library is the cell core they
//! share: [`run_primitive`] for one collective, [`apps`] for the
//! application cases and their sweep, the [`sweep`] pool — and [`pins`],
//! the deterministic sweeps whose bit patterns `cargo test` checks against
//! the `BENCH_*.json` files at the repo root. Pins are tests; host time is
//! measured by the `benchmark/` package and nowhere in this crate's
//! library.
//!
//! # Threading model
//!
//! One level fans out per run, and every setting is a pure execution knob
//! (results are byte-identical at each):
//!
//! - **A sweep** ([`apps::run_app_sweep`], fig23's cells): the pool owns
//!   every thread. Its workers pull cell indices from one shared queue,
//!   results land in per-cell slots so output order never depends on
//!   scheduling, and each cell runs serial inside it (`threads = 1` for
//!   its collectives and host kernels). `figures --threads N` (`0` = auto
//!   from `PIDCOMM_THREADS` or the available parallelism) sets the pool
//!   size and nothing else; `tests/app_sweep_determinism.rs` pins every
//!   pool size to the one-worker schedule.
//! - **A stand-alone run** ([`apps::AppCase::run`], fig04 / fig22): the
//!   run keeps `pidcomm`'s cluster-parallel engine and host-kernel fan-out
//!   at the auto bound.
//!
//! The primitive figures run nothing: a cell is a plan's cost-only report.

// The harness never takes unsafe shortcuts; any future unsafe fast path
// belongs in pim_sim, under simlint's unsafe-audit lint.
#![forbid(unsafe_code)]

use pidcomm::{
    BufferSpec, CommReport, Communicator, DimMask, HypercubeManager, HypercubeShape, OptLevel,
    Primitive,
};
use pim_sim::{DType, DimmGeometry, ReduceKind, TimeModel};

pub mod pins;
pub mod sweep;

/// A primitive invocation setup shared by the sweeps.
#[derive(Debug, Clone)]
pub struct PrimSetup {
    /// System geometry.
    pub geom: DimmGeometry,
    /// Hypercube dimensions.
    pub dims: Vec<usize>,
    /// Communication mask.
    pub mask: String,
    /// `bytes_per_node` for chunked primitives (AA/RS/AR); AllGather &
    /// rooted primitives derive per-node sizes from it.
    pub bytes_per_node: usize,
    /// Element type.
    pub dtype: DType,
}

impl PrimSetup {
    /// The paper's default 2-D (32, 32) setup on 1024 PEs.
    pub fn default_2d(bytes_per_node: usize) -> Self {
        Self {
            geom: DimmGeometry::upmem_1024(),
            dims: vec![32, 32],
            mask: "10".into(),
            bytes_per_node,
            dtype: DType::U64,
        }
    }

    /// A 1-D setup over all 1024 PEs.
    pub fn default_1d(bytes_per_node: usize) -> Self {
        Self {
            geom: DimmGeometry::upmem_1024(),
            dims: vec![1024],
            mask: "1".into(),
            bytes_per_node,
            dtype: DType::U64,
        }
    }

    /// The communicator, mask and spec of one `prim` cell at `opt`:
    /// `bytes_per_node` is interpreted per primitive so total volume stays
    /// comparable across primitives (the paper's "larger side"
    /// normalization) — AA/RS/AR/Reduce send it whole, AG and the rooted
    /// primitives `bytes_per_node / N` (at least 8) per node.
    fn cell(&self, prim: Primitive, opt: OptLevel) -> (Communicator, DimMask, BufferSpec) {
        let shape = HypercubeShape::new(self.dims.clone()).unwrap();
        let mask: DimMask = self.mask.parse().unwrap();
        let b = self.bytes_per_node;
        let bytes = match prim {
            Primitive::AlltoAll
            | Primitive::ReduceScatter
            | Primitive::AllReduce
            | Primitive::Reduce => b,
            _ => (b / mask.group_size(&shape).unwrap())
                .max(8)
                .next_multiple_of(8),
        };
        let dst = 2 * b.next_multiple_of(64) + 64;
        let spec = BufferSpec::new(0, dst, bytes).with_dtype(self.dtype);
        let manager = HypercubeManager::new(shape, self.geom).unwrap();
        let comm = Communicator::new(manager).with_opt(opt).with_threads(1);
        (comm, mask, spec)
    }
}

/// The report of one primitive at one optimization level: the plan's
/// cost-only report under the UPMEM calibration, bit-identical to what a
/// functional run on a fresh system reports (`core/tests/cost_only.rs`).
///
/// # Panics
///
/// Panics on configuration errors (this is a harness, not a library API).
pub fn run_primitive(setup: &PrimSetup, prim: Primitive, opt: OptLevel) -> CommReport {
    let (comm, mask, spec) = setup.cell(prim, opt);
    let plan = comm.plan(prim, &mask, &spec, ReduceKind::Sum).unwrap();
    plan.cost_only_report(&TimeModel::upmem())
}

/// Geometric mean of a slice.
pub fn geomean(values: &[f64]) -> f64 {
    let ln: f64 = values.iter().map(|v| v.ln()).sum();
    (ln / values.len() as f64).exp()
}

/// Prints a standard figure header.
pub fn header(fig: &str, what: &str, paper_shape: &str) {
    println!("==================================================================");
    println!("{fig}: {what}");
    println!("paper shape: {paper_shape}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{Category, PimSystem};

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
    }

    /// The cost-only cell equals a functional one-shot of the same spec
    /// on a fresh system, bit for bit, for every primitive at every level.
    #[test]
    fn run_primitive_works_for_all_eight() {
        let setup = PrimSetup {
            geom: DimmGeometry::single_rank(),
            dims: vec![8, 8],
            mask: "10".into(),
            bytes_per_node: 8 * 8 * 8,
            dtype: DType::U64,
        };
        let bits = |r: &CommReport| {
            let times = Category::ALL.map(|c| r.breakdown.get(c).to_bits());
            (times, r.bytes_in, r.bytes_out)
        };
        for opt in OptLevel::ALL {
            for prim in Primitive::ALL {
                let report = run_primitive(&setup, prim, opt);
                assert!(report.time_ns() > 0.0, "{prim}");
                assert!(report.throughput_gbps() > 0.0, "{prim}");

                let (comm, mask, spec) = setup.cell(prim, opt);
                let mut sys = PimSystem::new(setup.geom);
                for pe in setup.geom.pes() {
                    sys.pe_mut(pe)
                        .write(0, &vec![pe.0 as u8 | 1; setup.bytes_per_node]);
                }
                let groups = comm.manager().groups(&mask).unwrap().len();
                let host = |len| vec![vec![0x5Au8; len]; groups];
                let (b, n) = (
                    spec.bytes_per_node,
                    mask.group_size(comm.manager().shape()).unwrap(),
                );
                let sum = ReduceKind::Sum;
                let functional = match prim {
                    Primitive::AlltoAll => comm.all_to_all(&mut sys, &mask, &spec),
                    Primitive::ReduceScatter => comm.reduce_scatter(&mut sys, &mask, &spec, sum),
                    Primitive::AllReduce => comm.all_reduce(&mut sys, &mask, &spec, sum),
                    Primitive::AllGather => comm.all_gather(&mut sys, &mask, &spec),
                    Primitive::Scatter => comm.scatter(&mut sys, &mask, &spec, &host(n * b)),
                    Primitive::Gather => comm.gather(&mut sys, &mask, &spec).map(|r| r.0),
                    Primitive::Reduce => comm.reduce(&mut sys, &mask, &spec, sum).map(|r| r.0),
                    Primitive::Broadcast => comm.broadcast(&mut sys, &mask, &spec, &host(b)),
                };
                let functional = functional.unwrap();
                assert_eq!(bits(&report), bits(&functional), "{prim} {opt:?}");
            }
        }
    }
}

/// Standard scaled application configurations (Table III), used by the
/// Fig. 4 / 13 / 15 / 21 regenerators. Returns `(label, dataset, run)`
/// closures so figures can pick subsets.
pub mod apps {
    use pidcomm::OptLevel;
    use pidcomm_apps::bfs::{default_source, run_bfs_in, BfsConfig};
    use pidcomm_apps::cc::{run_cc_in, CcConfig};
    use pidcomm_apps::dlrm::{run_dlrm_in, DlrmRunConfig};
    use pidcomm_apps::gnn::{run_gnn_in, GnnConfig, GnnVariant};
    use pidcomm_apps::mlp::{run_mlp_in, MlpConfig};
    use pidcomm_apps::AppRun;
    use pidcomm_data::dlrm::DlrmConfig;
    use pidcomm_data::{rmat, CsrGraph, RmatParams};
    use pim_sim::{DType, SystemArena};

    use crate::sweep;

    use std::sync::LazyLock;

    // The harness datasets are immutable and shared by every cell of a
    // sweep, so they are generated once per process and borrowed from
    // every (possibly concurrent) run instead of being rebuilt per cell.
    static LJ: LazyLock<CsrGraph> =
        LazyLock::new(|| rmat(15, 16, RmatParams::skewed(0x117e)).to_undirected());
    static LG: LazyLock<CsrGraph> =
        LazyLock::new(|| rmat(13, 10, RmatParams::skewed(0x6a11a)).to_undirected());
    static PM: LazyLock<CsrGraph> = LazyLock::new(|| rmat(11, 4, RmatParams::uniform(0x9d)));
    static RD: LazyLock<CsrGraph> = LazyLock::new(|| rmat(11, 25, RmatParams::skewed(0x4edd17)));
    static SMALL: LazyLock<CsrGraph> = LazyLock::new(|| rmat(10, 6, RmatParams::skewed(0x5ca1e)));
    static SMALL_UNDIR: LazyLock<CsrGraph> = LazyLock::new(|| SMALL.to_undirected());

    /// LiveJournal-like graph, scaled for the harness.
    pub fn lj() -> &'static CsrGraph {
        &LJ
    }

    /// Gowalla-like graph, scaled for the harness.
    pub fn lg() -> &'static CsrGraph {
        &LG
    }

    /// PubMed-like GNN graph (2048 vertices, sparse).
    pub fn pm() -> &'static CsrGraph {
        &PM
    }

    /// Reddit-like GNN graph (2048 vertices, dense).
    pub fn rd() -> &'static CsrGraph {
        &RD
    }

    /// `(pes, opt, threads, arena)` entry point of one benchmark case.
    type AppRunner = Box<dyn Fn(usize, OptLevel, usize, &mut SystemArena) -> AppRun + Send + Sync>;

    /// One benchmark configuration of Table III.
    ///
    /// The runner is `Send + Sync` so independent runs can execute
    /// concurrently on the sweep pool — each run checks its
    /// [`pim_sim::PimSystem`] out of the worker's private arena and only
    /// borrows the shared *immutable* process-cached datasets above.
    pub struct AppCase {
        /// Application name (paper naming).
        pub app: &'static str,
        /// Dataset label (paper naming).
        pub dataset: &'static str,
        runner: AppRunner,
    }

    impl AppCase {
        /// Runs the case on `pes` PEs at `opt` with the default (auto)
        /// engine thread budget.
        pub fn run(&self, pes: usize, opt: OptLevel) -> AppRun {
            self.run_threaded(pes, opt, 0)
        }

        /// Runs the case with an explicit engine + host-kernel thread
        /// budget (`0` = auto, `1` = serial). Results are byte-identical
        /// at every setting.
        pub fn run_threaded(&self, pes: usize, opt: OptLevel, threads: usize) -> AppRun {
            self.run_in(pes, opt, threads, &mut SystemArena::new())
        }

        /// Runs the case sourcing its `PimSystem` and staging buffers from
        /// `arena` — the sweep pool passes each worker's private arena so
        /// consecutive cells reuse allocations. Results are byte-identical
        /// to a fresh-arena run.
        pub fn run_in(
            &self,
            pes: usize,
            opt: OptLevel,
            threads: usize,
            arena: &mut SystemArena,
        ) -> AppRun {
            (self.runner)(pes, opt, threads, arena)
        }
    }

    /// The paper's twelve benchmark configurations (Table III / Fig. 15),
    /// at harness scale.
    pub fn all_cases() -> Vec<AppCase> {
        vec![
            AppCase {
                app: "DLRM",
                dataset: "16",
                runner: Box::new(|pes, opt, threads, arena| {
                    let mut w = DlrmConfig::criteo_like(16);
                    w.batch_size = 2048;
                    run_dlrm_in(
                        &DlrmRunConfig {
                            workload: w,
                            pes,
                            opt,
                            threads,
                        },
                        arena,
                    )
                    .unwrap()
                }),
            },
            AppCase {
                app: "DLRM",
                dataset: "32",
                runner: Box::new(|pes, opt, threads, arena| {
                    let mut w = DlrmConfig::criteo_like(32);
                    w.batch_size = 2048;
                    run_dlrm_in(
                        &DlrmRunConfig {
                            workload: w,
                            pes,
                            opt,
                            threads,
                        },
                        arena,
                    )
                    .unwrap()
                }),
            },
            AppCase {
                app: "GNN RS&AR",
                dataset: "PM",
                runner: Box::new(|pes, opt, threads, arena| {
                    gnn_case(pes, opt, threads, GnnVariant::RsAr, pm(), arena)
                }),
            },
            AppCase {
                app: "GNN RS&AR",
                dataset: "RD",
                runner: Box::new(|pes, opt, threads, arena| {
                    gnn_case(pes, opt, threads, GnnVariant::RsAr, rd(), arena)
                }),
            },
            AppCase {
                app: "GNN AR&AG",
                dataset: "PM",
                runner: Box::new(|pes, opt, threads, arena| {
                    gnn_case(pes, opt, threads, GnnVariant::ArAg, pm(), arena)
                }),
            },
            AppCase {
                app: "GNN AR&AG",
                dataset: "RD",
                runner: Box::new(|pes, opt, threads, arena| {
                    gnn_case(pes, opt, threads, GnnVariant::ArAg, rd(), arena)
                }),
            },
            AppCase {
                app: "BFS",
                dataset: "LJ",
                runner: Box::new(|pes, opt, threads, arena| {
                    let g = lj();
                    run_bfs_in(
                        &BfsConfig { pes, opt, threads },
                        g,
                        default_source(g),
                        arena,
                    )
                    .unwrap()
                }),
            },
            AppCase {
                app: "BFS",
                dataset: "LG",
                runner: Box::new(|pes, opt, threads, arena| {
                    let g = lg();
                    run_bfs_in(
                        &BfsConfig { pes, opt, threads },
                        g,
                        default_source(g),
                        arena,
                    )
                    .unwrap()
                }),
            },
            AppCase {
                app: "CC",
                dataset: "LJ",
                runner: Box::new(|pes, opt, threads, arena| {
                    run_cc_in(&CcConfig { pes, opt, threads }, lj(), arena).unwrap()
                }),
            },
            AppCase {
                app: "CC",
                dataset: "LG",
                runner: Box::new(|pes, opt, threads, arena| {
                    run_cc_in(&CcConfig { pes, opt, threads }, lg(), arena).unwrap()
                }),
            },
            AppCase {
                app: "MLP",
                dataset: "16k",
                runner: Box::new(|pes, opt, threads, arena| {
                    run_mlp_in(
                        &MlpConfig {
                            features: 2048,
                            layers: 5,
                            pes,
                            opt,
                            threads,
                        },
                        arena,
                    )
                    .unwrap()
                }),
            },
            AppCase {
                app: "MLP",
                dataset: "32k",
                runner: Box::new(|pes, opt, threads, arena| {
                    run_mlp_in(
                        &MlpConfig {
                            features: 4096,
                            layers: 5,
                            pes,
                            opt,
                            threads,
                        },
                        arena,
                    )
                    .unwrap()
                }),
            },
        ]
    }

    /// Reduced-scale cases covering all five applications, sized so the
    /// whole sweep finishes in seconds on 64 PEs — the cells of
    /// [`crate::pins::apps_small`] and of the sweep determinism test.
    pub fn small_cases() -> Vec<AppCase> {
        vec![
            AppCase {
                app: "DLRM",
                dataset: "sm",
                runner: Box::new(|pes, opt, threads, arena| {
                    run_dlrm_in(
                        &DlrmRunConfig {
                            workload: DlrmConfig {
                                num_tables: 8,
                                rows_per_table: 1 << 10,
                                embedding_dim: 16,
                                batch_size: 1024,
                                seed: 7,
                            },
                            pes,
                            opt,
                            threads,
                        },
                        arena,
                    )
                    .unwrap()
                }),
            },
            AppCase {
                app: "GNN RS&AR",
                dataset: "sm",
                runner: Box::new(|pes, opt, threads, arena| {
                    gnn_case(pes, opt, threads, GnnVariant::RsAr, &SMALL, arena)
                }),
            },
            AppCase {
                app: "BFS",
                dataset: "sm",
                runner: Box::new(|pes, opt, threads, arena| {
                    let g = &*SMALL_UNDIR;
                    run_bfs_in(
                        &BfsConfig { pes, opt, threads },
                        g,
                        default_source(g),
                        arena,
                    )
                    .unwrap()
                }),
            },
            AppCase {
                app: "CC",
                dataset: "sm",
                runner: Box::new(|pes, opt, threads, arena| {
                    run_cc_in(&CcConfig { pes, opt, threads }, &SMALL_UNDIR, arena).unwrap()
                }),
            },
            AppCase {
                app: "MLP",
                dataset: "sm",
                runner: Box::new(|pes, opt, threads, arena| {
                    run_mlp_in(
                        &MlpConfig {
                            features: 512,
                            layers: 3,
                            pes,
                            opt,
                            threads,
                        },
                        arena,
                    )
                    .unwrap()
                }),
            },
        ]
    }

    fn gnn_case(
        pes: usize,
        opt: OptLevel,
        threads: usize,
        variant: GnnVariant,
        graph: &CsrGraph,
        arena: &mut SystemArena,
    ) -> AppRun {
        run_gnn_in(
            &GnnConfig {
                pes,
                feature_dim: 64,
                layers: 3,
                variant,
                opt,
                dtype: DType::I32,
                threads,
            },
            graph,
            arena,
        )
        .unwrap()
    }

    /// One cell of an application sweep: which case, at which PE count,
    /// at which optimization level.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct AppCell {
        /// Index into the sweep's case list.
        pub case: usize,
        /// Number of PEs.
        pub pes: usize,
        /// Communication optimization level.
        pub opt: OptLevel,
    }

    /// Runs every cell over `cases` on a pool of `workers` (`0` = auto,
    /// `1` = the serial reference schedule) and returns the [`AppRun`]s in
    /// cell order. The pool owns every thread: each cell runs serial
    /// inside it (`threads = 1`), and every pool size produces
    /// byte-identical results.
    ///
    /// Each worker owns a private [`SystemArena`], so consecutive cells
    /// on one worker reuse the same `PimSystem` allocation and scatter
    /// staging buffers instead of rebuilding them from scratch (see the
    /// [`sweep`] module docs for the lifecycle).
    pub fn run_app_sweep(cases: &[AppCase], cells: &[AppCell], workers: usize) -> Vec<AppRun> {
        sweep::run_cells_with(cells.len(), workers, SystemArena::new, |arena, i| {
            let c = &cells[i];
            cases[c.case].run_in(c.pes, c.opt, 1, arena)
        })
    }

    /// The fig13/fig15 cell list: every case at `pes` PEs, baseline then
    /// full, in case order.
    pub fn base_vs_full_cells(num_cases: usize, pes: usize) -> Vec<AppCell> {
        (0..num_cases)
            .flat_map(|case| {
                [OptLevel::Baseline, OptLevel::Full]
                    .into_iter()
                    .map(move |opt| AppCell { case, pes, opt })
            })
            .collect()
    }
}
