//! The three application workloads: the 24 fig15 cells (12 cases ×
//! Baseline, Full at 1024 PEs), split by which layers do the work.
//!
//! Configurations are frozen copies of `pidcomm_bench::apps::all_cases`.
//! Every cell runs through its `run_*_in` on one arena that the whole
//! workload recycles, so the cold pass pays first-touch MRAM and plan
//! builds and later passes run on pooled systems and cached plans.
//! `--seed` moves the rmat and DLRM generator seeds; the MLP generates its
//! weights from fixed seeds inside the run and has no seed input.

use std::hint::black_box;

use pidcomm::{OptLevel, PlanCache, PlanCacheStats};
use pidcomm_apps::bfs::{default_source, run_bfs_in, BfsConfig};
use pidcomm_apps::cc::{run_cc_in, CcConfig};
use pidcomm_apps::dlrm::{run_dlrm_in, DlrmRunConfig};
use pidcomm_apps::gnn::{run_gnn_in, GnnConfig, GnnVariant};
use pidcomm_apps::mlp::{run_mlp_in, MlpConfig};
use pidcomm_apps::AppRun;
use pidcomm_data::dlrm::DlrmConfig;
use pidcomm_data::{rmat, CsrGraph, RmatParams};
use pim_sim::{DType, SystemArena};

use super::{catch, mix, opt_slug, CellRun, Workload, THREADS};
use crate::clock::{Elapsed, Stopwatch};
use crate::trace::{Layer, Tracer};

pub const PES: usize = 1024;

#[derive(Debug, Clone, Copy)]
enum Case {
    Mlp { features: usize },
    Gnn { variant: GnnVariant, graph: usize },
    Dlrm { dim: usize },
    Bfs { graph: usize },
    Cc { graph: usize },
}

pub struct Apps {
    ids: Vec<String>,
    cells: Vec<(Case, OptLevel)>,
    graphs: Vec<CsrGraph>,
    seed: u64,
    arena: SystemArena,
}

impl Apps {
    fn new(cases: &[(&str, Case)], graphs: Vec<CsrGraph>, seed: u64) -> Self {
        let mut ids = Vec::new();
        let mut cells = Vec::new();
        for (name, case) in cases {
            for opt in [OptLevel::Baseline, OptLevel::Full] {
                ids.push(format!("{name}.{}", opt_slug(opt)));
                cells.push((*case, opt));
            }
        }
        Self {
            ids,
            cells,
            graphs,
            seed,
            arena: SystemArena::new(),
        }
    }

    pub fn mlp(seed: u64, _tr: &mut Tracer) -> Self {
        Self::new(
            &[
                ("mlp.16k", Case::Mlp { features: 2048 }),
                ("mlp.32k", Case::Mlp { features: 4096 }),
            ],
            Vec::new(),
            seed,
        )
    }

    pub fn fused(seed: u64, tr: &mut Tracer) -> Self {
        // PubMed-like (sparse) and Reddit-like (dense) 2048-vertex graphs.
        let graphs = tr.scope("rmat", Layer::Data, |_| {
            vec![
                rmat(11, 4, RmatParams::uniform(mix(0x9d, seed))),
                rmat(11, 25, RmatParams::skewed(mix(0x4e_dd17, seed))),
            ]
        });
        use GnnVariant::{ArAg, RsAr};
        Self::new(
            &[
                ("dlrm.16", Case::Dlrm { dim: 16 }),
                ("dlrm.32", Case::Dlrm { dim: 32 }),
                (
                    "gnn-rsar.pm",
                    Case::Gnn {
                        variant: RsAr,
                        graph: 0,
                    },
                ),
                (
                    "gnn-rsar.rd",
                    Case::Gnn {
                        variant: RsAr,
                        graph: 1,
                    },
                ),
                (
                    "gnn-arag.pm",
                    Case::Gnn {
                        variant: ArAg,
                        graph: 0,
                    },
                ),
                (
                    "gnn-arag.rd",
                    Case::Gnn {
                        variant: ArAg,
                        graph: 1,
                    },
                ),
            ],
            graphs,
            seed,
        )
    }

    pub fn graph(seed: u64, tr: &mut Tracer) -> Self {
        // LiveJournal-like and Gowalla-like graphs, scaled for the harness.
        let graphs = tr.scope("rmat+to_undirected", Layer::Data, |_| {
            vec![
                rmat(15, 16, RmatParams::skewed(mix(0x117e, seed))).to_undirected(),
                rmat(13, 10, RmatParams::skewed(mix(0x6_a11a, seed))).to_undirected(),
            ]
        });
        Self::new(
            &[
                ("bfs.lj", Case::Bfs { graph: 0 }),
                ("bfs.lg", Case::Bfs { graph: 1 }),
                ("cc.lj", Case::Cc { graph: 0 }),
                ("cc.lg", Case::Cc { graph: 1 }),
            ],
            graphs,
            seed,
        )
    }

    fn run(&mut self, case: Case, opt: OptLevel) -> pidcomm::Result<AppRun> {
        let (pes, threads, arena) = (PES, THREADS, &mut self.arena);
        match case {
            Case::Mlp { features } => run_mlp_in(
                &MlpConfig {
                    features,
                    layers: 5,
                    pes,
                    opt,
                    threads,
                },
                arena,
            ),
            Case::Gnn { variant, graph } => run_gnn_in(
                &GnnConfig {
                    pes,
                    feature_dim: 64,
                    layers: 3,
                    variant,
                    opt,
                    dtype: DType::I32,
                    threads,
                },
                &self.graphs[graph],
                arena,
            ),
            Case::Dlrm { dim } => {
                let mut workload = DlrmConfig::criteo_like(dim);
                workload.batch_size = 2048;
                workload.seed = mix(workload.seed, self.seed);
                run_dlrm_in(
                    &DlrmRunConfig {
                        workload,
                        pes,
                        opt,
                        threads,
                    },
                    arena,
                )
            }
            Case::Bfs { graph } => {
                let g = &self.graphs[graph];
                run_bfs_in(
                    &BfsConfig { pes, opt, threads },
                    g,
                    default_source(g),
                    arena,
                )
            }
            Case::Cc { graph } => {
                run_cc_in(&CcConfig { pes, opt, threads }, &self.graphs[graph], arena)
            }
        }
    }
}

/// Folds an app run's result into a cell record. The runners validate
/// against their CPU reference internally; a divergence panics there and
/// arrives here as `Err`.
pub fn app_cell(took: Elapsed, result: Result<pidcomm::Result<AppRun>, String>) -> CellRun {
    match result {
        Ok(Ok(run)) => {
            let failure = (!run.validated).then(|| "result differs from the CPU reference".into());
            let total = run.profile.total_ns();
            CellRun {
                wall_ns: took.wall_ns,
                cpu_ns: took.cpu_ns,
                modeled_ns: total,
                completed: failure.is_none(),
                failure,
                comm_ns: Some(run.profile.comm_ns()),
                bytes: 0,
                chaos: None,
            }
        }
        Ok(Err(e)) => CellRun::failed(took, format!("error: {e}")),
        Err(panic) => CellRun::failed(took, panic),
    }
}

impl Workload for Apps {
    fn cells(&self) -> &[String] {
        &self.ids
    }

    fn pass(&mut self, tr: &mut Tracer, _check: bool) -> Vec<CellRun> {
        let mut runs = Vec::with_capacity(self.cells.len());
        for i in 0..self.cells.len() {
            let (case, opt) = self.cells[i];
            tr.set_cell(i);
            let span = tr.enter("run_app_in", Layer::Apps);
            let sw = Stopwatch::start();
            let result = catch(|| black_box(self.run(case, opt)));
            let took = sw.stop();
            tr.exit(span);
            runs.push(app_cell(took, result));
        }
        runs
    }

    fn plan_cache(&mut self) -> Option<PlanCacheStats> {
        let cache = self.arena.take_extension::<PlanCache>();
        let stats = cache.snapshot();
        self.arena.put_extension(cache);
        Some(stats)
    }
}
