//! `chaos_small`: the five small applications at 64 PEs through their
//! `run_*_resilient_in` runners under seeded fault profiles — clean, rare
//! bit flips (1 in 2^14 writes), a storm (flips at 2^13 plus row corruption
//! at 2^14) and a persistently dead PE 3 — with quarantine on and off: 35
//! cells, frozen from `pidcomm_bench::chaos::soak_cells`. Fault-plan seeds
//! are fixed per profile; `--seed` moves only the graph and DLRM data.
//!
//! The output check is the recovery contract: a run that ends `Completed`
//! must validate with zero mismatched elements (faults are detected or
//! harmless, never silent), a run that does not validate must not claim
//! `Completed`, and the clean column must be `Completed`, validated, and —
//! on the cold pass — equal to the plain runner's result.

use std::hint::black_box;
use std::sync::Arc;

use pidcomm::{OptLevel, RunOutcome, RunPolicy};
use pidcomm_apps::bfs::{default_source, run_bfs_in, run_bfs_resilient_in, BfsConfig};
use pidcomm_apps::cc::{run_cc_in, run_cc_resilient_in, CcConfig};
use pidcomm_apps::dlrm::{run_dlrm_in, run_dlrm_resilient_in, DlrmRunConfig};
use pidcomm_apps::gnn::{run_gnn_in, run_gnn_resilient_in, GnnConfig, GnnVariant};
use pidcomm_apps::mlp::{run_mlp_in, run_mlp_resilient_in, MlpConfig};
use pidcomm_apps::{AppRun, ResilientRun};
use pidcomm_data::dlrm::DlrmConfig;
use pidcomm_data::{rmat, CsrGraph, RmatParams};
use pim_sim::{DType, FaultPlan, SystemArena};

use super::{catch, mix, CellRun, ChaosRecord, Workload, THREADS};
use crate::clock::Stopwatch;
use crate::trace::{Layer, Tracer};

const PES: usize = 64;
const OPT: OptLevel = OptLevel::Full;
const FAULT_SEED: u64 = 0xc4a0_5000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum App {
    Dlrm,
    Gnn,
    Bfs,
    Cc,
    Mlp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Profile {
    Clean,
    Flip,
    Storm,
    DeadPe,
}

impl Profile {
    const ALL: [(Profile, &'static str); 4] = [
        (Profile::Clean, "clean"),
        (Profile::Flip, "flip"),
        (Profile::Storm, "storm"),
        (Profile::DeadPe, "dead-pe"),
    ];

    /// A fresh plan per run: the plan carries the fault epoch counter.
    fn plan(self, seed: u64) -> Option<Arc<FaultPlan>> {
        let plan = FaultPlan::new(seed);
        Some(Arc::new(match self {
            Profile::Clean => return None,
            Profile::Flip => plan.with_bit_flip_period(1 << 14),
            Profile::Storm => plan
                .with_bit_flip_period(1 << 13)
                .with_row_corrupt_period(1 << 14),
            Profile::DeadPe => plan.with_failed_pe(3),
        }))
    }
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    app: App,
    profile: Profile,
    quarantine: bool,
    fault_seed: u64,
}

pub struct Chaos {
    ids: Vec<String>,
    cells: Vec<Cell>,
    small: CsrGraph,
    small_undir: CsrGraph,
    seed: u64,
    arena: SystemArena,
}

impl Chaos {
    pub fn new(seed: u64, tr: &mut Tracer) -> Self {
        let (small, small_undir) = tr.scope("rmat+to_undirected", Layer::Data, |_| {
            let g = rmat(10, 6, RmatParams::skewed(mix(0x5_ca1e, seed)));
            let u = g.to_undirected();
            (g, u)
        });
        let mut ids = Vec::new();
        let mut cells = Vec::new();
        for (app, name) in [
            (App::Dlrm, "dlrm"),
            (App::Gnn, "gnn-rsar"),
            (App::Bfs, "bfs"),
            (App::Cc, "cc"),
            (App::Mlp, "mlp"),
        ] {
            for (i, (profile, label)) in Profile::ALL.into_iter().enumerate() {
                let fault_seed = FAULT_SEED + i as u64;
                // Policy is irrelevant without faults: the clean column runs once.
                let columns: &[bool] = if profile == Profile::Clean {
                    &[true]
                } else {
                    &[true, false]
                };
                for &quarantine in columns {
                    ids.push(match profile {
                        Profile::Clean => format!("{name}.clean"),
                        _ => format!("{name}.{label}.{}", if quarantine { "q" } else { "nq" }),
                    });
                    cells.push(Cell {
                        app,
                        profile,
                        quarantine,
                        fault_seed,
                    });
                }
            }
        }
        Self {
            ids,
            cells,
            small,
            small_undir,
            seed,
            arena: SystemArena::new(),
        }
    }

    fn dlrm_config(&self) -> DlrmRunConfig {
        DlrmRunConfig {
            workload: DlrmConfig {
                num_tables: 8,
                rows_per_table: 1 << 10,
                embedding_dim: 16,
                batch_size: 1024,
                seed: mix(7, self.seed),
            },
            pes: PES,
            opt: OPT,
            threads: THREADS,
        }
    }

    fn resilient(&mut self, cell: &Cell) -> pidcomm::Result<ResilientRun> {
        let fault = cell.profile.plan(cell.fault_seed);
        let policy = if cell.quarantine {
            RunPolicy::default()
        } else {
            RunPolicy::default().without_quarantine()
        };
        let (pes, opt, threads) = (PES, OPT, THREADS);
        let dlrm = self.dlrm_config();
        let arena = &mut self.arena;
        match cell.app {
            App::Dlrm => run_dlrm_resilient_in(&dlrm, fault, policy, arena),
            App::Gnn => run_gnn_resilient_in(&GNN, &self.small, fault, policy, arena),
            App::Bfs => {
                let g = &self.small_undir;
                let cfg = BfsConfig { pes, opt, threads };
                run_bfs_resilient_in(&cfg, g, default_source(g), fault, policy, arena)
            }
            App::Cc => {
                let cfg = CcConfig { pes, opt, threads };
                run_cc_resilient_in(&cfg, &self.small_undir, fault, policy, arena)
            }
            App::Mlp => run_mlp_resilient_in(&MLP, fault, policy, arena),
        }
    }

    /// The plain runner at the same configuration — what the clean
    /// resilient run must equal.
    fn plain(&mut self, app: App) -> pidcomm::Result<AppRun> {
        let (pes, opt, threads) = (PES, OPT, THREADS);
        let dlrm = self.dlrm_config();
        let arena = &mut self.arena;
        match app {
            App::Dlrm => run_dlrm_in(&dlrm, arena),
            App::Gnn => run_gnn_in(&GNN, &self.small, arena),
            App::Bfs => {
                let g = &self.small_undir;
                run_bfs_in(
                    &BfsConfig { pes, opt, threads },
                    g,
                    default_source(g),
                    arena,
                )
            }
            App::Cc => run_cc_in(&CcConfig { pes, opt, threads }, &self.small_undir, arena),
            App::Mlp => run_mlp_in(&MLP, arena),
        }
    }
}

const GNN: GnnConfig = GnnConfig {
    pes: PES,
    feature_dim: 64,
    layers: 3,
    variant: GnnVariant::RsAr,
    opt: OPT,
    dtype: DType::I32,
    threads: THREADS,
};

const MLP: MlpConfig = MlpConfig {
    features: 512,
    layers: 3,
    pes: PES,
    opt: OPT,
    threads: THREADS,
};

/// The recovery contract of one resilient run (module docs).
fn contract(run: &ResilientRun, clean: bool) -> Option<String> {
    let completed = run.outcome == RunOutcome::Completed;
    if completed && !(run.run.validated && run.mismatched == 0) {
        return Some(format!(
            "silent corruption: completed with {} mismatched elements",
            run.mismatched
        ));
    }
    if !run.run.validated && completed {
        return Some("unvalidated run claims completion".into());
    }
    if clean && !completed {
        return Some(format!("clean run ended {}", run.outcome.label()));
    }
    None
}

impl Workload for Chaos {
    fn cells(&self) -> &[String] {
        &self.ids
    }

    fn pass(&mut self, tr: &mut Tracer, check: bool) -> Vec<CellRun> {
        let mut runs = Vec::with_capacity(self.cells.len());
        for i in 0..self.cells.len() {
            tr.set_cell(i);
            let span = tr.enter("run_app_resilient_in", Layer::Apps);
            let sw = Stopwatch::start();
            let cell = self.cells[i];
            let result = catch(|| black_box(self.resilient(&cell)));
            let took = sw.stop();
            tr.exit(span);
            let clean = cell.profile == Profile::Clean;
            runs.push(match result {
                Ok(Ok(run)) => {
                    let mut failure = contract(&run, clean);
                    if failure.is_none() && clean && check {
                        let plain = tr.scope("run_app_in", Layer::Apps, |_| {
                            catch(|| self.plain(cell.app))
                        });
                        if !matches!(&plain, Ok(Ok(p)) if *p == run.run) {
                            failure =
                                Some("clean resilient run differs from the plain runner".into());
                        }
                    }
                    CellRun {
                        wall_ns: took.wall_ns,
                        cpu_ns: took.cpu_ns,
                        modeled_ns: run.modeled_ns,
                        completed: run.outcome == RunOutcome::Completed && run.run.validated,
                        failure,
                        comm_ns: None,
                        bytes: 0,
                        chaos: Some(ChaosRecord {
                            outcome: run.outcome.label(),
                            retries: run.retries,
                            backoff_epochs: run.backoff_epochs,
                            restores: run.checkpoint_restores,
                            quarantined: run.quarantined.len(),
                            mismatched: run.mismatched,
                            validated: run.run.validated,
                        }),
                    }
                }
                Ok(Err(e)) => CellRun::failed(took, format!("error: {e}")),
                Err(panic) => CellRun::failed(took, panic),
            });
        }
        runs
    }
}
