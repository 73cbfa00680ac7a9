//! Application matrix tests: every app at several PE counts, optimization
//! levels and (where applicable) element widths — all must validate
//! bit-exactly and produce structurally sane profiles.

use pidcomm::{OptLevel, PlanCache, Primitive, RunOutcome, RunPolicy};
use pidcomm_apps::bfs::{default_source, run_bfs, run_bfs_in, run_bfs_resilient_in, BfsConfig};
use pidcomm_apps::cc::{run_cc, run_cc_in, run_cc_resilient_in, CcConfig};
use pidcomm_apps::dlrm::{run_dlrm, run_dlrm_in, run_dlrm_resilient_in, DlrmRunConfig};
use pidcomm_apps::gnn::{run_gnn, run_gnn_in, run_gnn_resilient_in, GnnConfig, GnnVariant};
use pidcomm_apps::mlp::{run_mlp, run_mlp_in, run_mlp_resilient_in, MlpConfig};
use pidcomm_apps::{AppRun, ResilientRun};
use pidcomm_data::dlrm::DlrmConfig;
use pidcomm_data::{rmat, CsrGraph, RmatParams};
use pim_sim::pe::PAGE_BYTES;
use pim_sim::{DType, DimmGeometry, FaultPlan, SystemArena};
use std::sync::Arc;

fn graph() -> CsrGraph {
    rmat(11, 6, RmatParams::skewed(77)).to_undirected()
}

#[test]
fn mlp_validates_across_pe_counts() {
    for pes in [8, 32, 64, 256] {
        let run = run_mlp(&MlpConfig {
            threads: 0,
            features: 1024,
            layers: 2,
            pes,
            opt: OptLevel::Full,
        })
        .unwrap();
        assert!(run.validated, "{pes} PEs");
        // More PEs -> no more kernel time per PE (work splits).
        assert!(run.profile.kernel_ns > 0.0);
    }
}

#[test]
fn mlp_presets_are_consistent() {
    let a = MlpConfig::feat16k(64, OptLevel::Full);
    assert_eq!(a.features, 2048);
    assert_eq!(a.layers, 5);
    let b = MlpConfig::feat32k(64, OptLevel::Baseline);
    assert_eq!(b.features, 4096);
    assert_eq!(b.opt, OptLevel::Baseline);
}

#[test]
fn mlp_kernel_time_shrinks_with_more_pes() {
    let small = run_mlp(&MlpConfig {
        threads: 0,
        features: 1024,
        layers: 2,
        pes: 16,
        opt: OptLevel::Full,
    })
    .unwrap();
    let large = run_mlp(&MlpConfig {
        threads: 0,
        features: 1024,
        layers: 2,
        pes: 256,
        opt: OptLevel::Full,
    })
    .unwrap();
    assert!(
        large.profile.kernel_ns < small.profile.kernel_ns,
        "parallel kernels must speed up: {} vs {}",
        large.profile.kernel_ns,
        small.profile.kernel_ns
    );
}

#[test]
fn bfs_validates_across_pe_counts_and_levels() {
    let g = graph();
    let src = default_source(&g);
    for pes in [16, 64, 128] {
        for opt in [OptLevel::Baseline, OptLevel::InRegister, OptLevel::Full] {
            let run = run_bfs(
                &BfsConfig {
                    threads: 0,
                    pes,
                    opt,
                },
                &g,
                src,
            )
            .unwrap();
            assert!(run.validated, "{pes} PEs {opt}");
        }
    }
}

#[test]
fn bfs_from_every_kind_of_source() {
    let g = graph();
    // Hub, vertex 0, and a likely low-degree vertex.
    for src in [default_source(&g), 0, (g.num_vertices() - 1) as u32] {
        let run = run_bfs(
            &BfsConfig {
                threads: 0,
                pes: 64,
                opt: OptLevel::Full,
            },
            &g,
            src,
        )
        .unwrap();
        assert!(run.validated, "source {src}");
    }
}

#[test]
fn cc_handles_star_chain_and_isolated_graphs() {
    // Star.
    let star = CsrGraph::from_edges(64, (1..64).map(|v| (0u32, v as u32)).collect());
    let run = run_cc(
        &CcConfig {
            threads: 0,
            pes: 16,
            opt: OptLevel::Full,
        },
        &star,
    )
    .unwrap();
    assert!(run.validated);

    // Chain.
    let chain = CsrGraph::from_edges(64, (0..63).map(|v| (v as u32, v as u32 + 1)).collect());
    let run = run_cc(
        &CcConfig {
            threads: 0,
            pes: 16,
            opt: OptLevel::Full,
        },
        &chain,
    )
    .unwrap();
    assert!(run.validated);

    // Fully isolated vertices: every vertex is its own component.
    let isolated = CsrGraph::from_edges(64, vec![]);
    let run = run_cc(
        &CcConfig {
            threads: 0,
            pes: 16,
            opt: OptLevel::Full,
        },
        &isolated,
    )
    .unwrap();
    assert!(run.validated);
}

#[test]
fn gnn_all_variants_widths_and_levels() {
    let g = rmat(10, 4, RmatParams::uniform(9));
    for variant in [GnnVariant::RsAr, GnnVariant::ArAg] {
        for dtype in [DType::I8, DType::I16, DType::I32] {
            for opt in [OptLevel::Baseline, OptLevel::Full] {
                let run = run_gnn(
                    &GnnConfig {
                        threads: 0,
                        pes: 64,
                        feature_dim: 16,
                        layers: 2,
                        variant,
                        opt,
                        dtype,
                    },
                    &g,
                )
                .unwrap();
                assert!(run.validated, "{} {dtype} {opt}", variant.label());
            }
        }
    }
}

/// AR&AG's combine multiplies by a `sub_cols`-row panel of W^T and its
/// interleave moves `sub_cols`-element rows: one, two and four elements
/// per row cover a row below, at and above the 8-byte lane word at every
/// width.
#[test]
fn gnn_arag_validates_at_every_panel_width_and_element_width() {
    let g = rmat(10, 4, RmatParams::uniform(9));
    for sub_cols in [1, 2, 4] {
        for dtype in [DType::I8, DType::I16, DType::I32] {
            for opt in [OptLevel::Baseline, OptLevel::Full] {
                let cfg = GnnConfig {
                    threads: 0,
                    pes: 64,
                    feature_dim: 8 * sub_cols,
                    layers: 3,
                    variant: GnnVariant::ArAg,
                    opt,
                    dtype,
                };
                let run = run_gnn(&cfg, &g).unwrap();
                assert!(run.validated, "sub_cols {sub_cols} {dtype} {opt}");
            }
        }
    }
}

/// AR&AG's interleave is PE-local compute, outside the fault scope; the
/// collectives around it are not. Under a storm the supervised run keeps
/// the recovery contract: `Completed` means validated with nothing
/// mismatched, and the mismatch count and the flag never disagree.
#[test]
fn supervised_gnn_arag_keeps_the_recovery_contract_under_a_storm() {
    let g = rmat(10, 4, RmatParams::uniform(9));
    let cfg = GnnConfig {
        threads: 0,
        pes: 64,
        feature_dim: 16,
        layers: 3,
        variant: GnnVariant::ArAg,
        opt: OptLevel::Full,
        dtype: DType::I32,
    };
    let mut arena = SystemArena::new();
    let mut recovered = 0;
    for seed in [1u64, 77, 3_405_691_582] {
        for policy in [
            RunPolicy::default(),
            RunPolicy::default().without_quarantine(),
        ] {
            let storm = FaultPlan::new(seed)
                .with_bit_flip_period(1 << 10)
                .with_row_corrupt_period(1 << 11);
            let run =
                run_gnn_resilient_in(&cfg, &g, Some(Arc::new(storm)), policy, &mut arena).unwrap();
            let what = format!("seed {seed}: {:?}", run.outcome);
            assert_eq!(run.run.validated, run.mismatched == 0, "{what}");
            if run.outcome == RunOutcome::Completed {
                assert!(run.run.validated && run.mismatched == 0, "{what}");
                recovered += usize::from(run.retries > 0);
            }
        }
    }
    assert!(recovered > 0, "storm too sparse to exercise a recovery");
}

#[test]
fn gnn_single_layer_and_256_pes() {
    let g = rmat(12, 4, RmatParams::skewed(4)); // 4096 vertices % 256
    let run = run_gnn(
        &GnnConfig {
            threads: 0,
            pes: 256,
            feature_dim: 32,
            layers: 1,
            variant: GnnVariant::RsAr,
            opt: OptLevel::Full,
            dtype: DType::I32,
        },
        &g,
    )
    .unwrap();
    assert!(run.validated);
}

#[test]
fn dlrm_validates_across_pe_counts_and_dims() {
    for pes in [64, 128, 256] {
        for dim in [16, 32] {
            let mut w = DlrmConfig::criteo_like(dim);
            w.batch_size = 1024;
            w.rows_per_table = 1 << 10;
            let run = run_dlrm(&DlrmRunConfig {
                threads: 0,
                workload: w,
                pes,
                opt: OptLevel::Full,
            })
            .unwrap();
            assert!(run.validated, "{pes} PEs dim {dim}");
            assert!(run.profile.primitive_ns(Primitive::AlltoAll) > 0.0);
            assert!(run.profile.primitive_ns(Primitive::Gather) > 0.0);
        }
    }
}

#[test]
fn profiles_only_contain_the_expected_primitives() {
    // Table III's primitive mix, checked mechanically.
    let g = graph();
    let bfs = run_bfs(
        &BfsConfig {
            threads: 0,
            pes: 64,
            opt: OptLevel::Full,
        },
        &g,
        default_source(&g),
    )
    .unwrap();
    for p in [
        Primitive::AlltoAll,
        Primitive::ReduceScatter,
        Primitive::Broadcast,
    ] {
        assert_eq!(bfs.profile.primitive_ns(p), 0.0, "BFS should not use {p}");
    }
    assert!(bfs.profile.primitive_ns(Primitive::AllReduce) > 0.0);
    assert!(bfs.profile.primitive_ns(Primitive::Scatter) > 0.0);

    let mlp = run_mlp(&MlpConfig {
        threads: 0,
        features: 512,
        layers: 2,
        pes: 64,
        opt: OptLevel::Full,
    })
    .unwrap();
    for p in [
        Primitive::AlltoAll,
        Primitive::AllReduce,
        Primitive::AllGather,
    ] {
        assert_eq!(mlp.profile.primitive_ns(p), 0.0, "MLP should not use {p}");
    }
    assert!(mlp.profile.primitive_ns(Primitive::ReduceScatter) > 0.0);
}

/// The five apps' inputs at a given host-kernel/engine thread budget —
/// what the two runners below feed the plain and the resilient entry
/// points.
struct AllApps {
    graph: CsrGraph,
    source: u32,
    mlp: MlpConfig,
    bfs: BfsConfig,
    cc: CcConfig,
    gnn: GnnConfig,
    dlrm: DlrmRunConfig,
}

fn all_apps(threads: usize) -> AllApps {
    let graph = graph();
    AllApps {
        source: default_source(&graph),
        graph,
        mlp: MlpConfig {
            threads,
            features: 512,
            layers: 3,
            pes: 64,
            opt: OptLevel::Full,
        },
        bfs: BfsConfig {
            threads,
            pes: 64,
            opt: OptLevel::Full,
        },
        cc: CcConfig {
            threads,
            pes: 64,
            opt: OptLevel::Full,
        },
        gnn: GnnConfig {
            threads,
            pes: 64,
            feature_dim: 16,
            layers: 2,
            variant: GnnVariant::RsAr,
            opt: OptLevel::Full,
            dtype: DType::I32,
        },
        dlrm: DlrmRunConfig {
            threads,
            workload: DlrmConfig {
                num_tables: 8,
                rows_per_table: 1 << 10,
                embedding_dim: 16,
                batch_size: 1024,
                seed: 7,
            },
            pes: 64,
            opt: OptLevel::Full,
        },
    }
}

/// Runs all five apps through the plain entry points, sourcing systems
/// from `arena` — the pinning harness for the two tests below.
fn run_all_apps(threads: usize, arena: &mut SystemArena) -> Vec<AppRun> {
    let a = all_apps(threads);
    vec![
        run_mlp_in(&a.mlp, arena).unwrap(),
        run_bfs_in(&a.bfs, &a.graph, a.source, arena).unwrap(),
        run_cc_in(&a.cc, &a.graph, arena).unwrap(),
        run_gnn_in(&a.gnn, &a.graph, arena).unwrap(),
        run_dlrm_in(&a.dlrm, arena).unwrap(),
    ]
}

/// The same five runs through the resilient entry points, with no fault
/// plan and the default policy.
fn run_all_apps_resilient(threads: usize, arena: &mut SystemArena) -> Vec<ResilientRun> {
    let a = all_apps(threads);
    let policy = RunPolicy::default();
    vec![
        run_mlp_resilient_in(&a.mlp, None, policy, arena).unwrap(),
        run_bfs_resilient_in(&a.bfs, &a.graph, a.source, None, policy, arena).unwrap(),
        run_cc_resilient_in(&a.cc, &a.graph, None, policy, arena).unwrap(),
        run_gnn_resilient_in(&a.gnn, &a.graph, None, policy, arena).unwrap(),
        run_dlrm_resilient_in(&a.dlrm, None, policy, arena).unwrap(),
    ]
}

#[test]
fn host_kernel_thread_counts_never_change_any_app_result() {
    // The host-kernel executor (`pidcomm::par_pes`) fans the apps' per-PE
    // functional loops over the `threads` budget; outputs, profiles and
    // modeled times must stay byte-identical at {1, 2, auto}.
    let reference = run_all_apps(1, &mut SystemArena::new());
    assert!(reference.iter().all(|r| r.validated));
    for threads in [2usize, 0] {
        let runs = run_all_apps(threads, &mut SystemArena::new());
        for (i, (a, b)) in reference.iter().zip(&runs).enumerate() {
            assert!(a == b, "app #{i} diverges at host-kernel threads={threads}");
        }
    }
}

#[test]
fn arena_reuse_between_runs_never_leaks_state() {
    // Two consecutive passes over all apps on one arena: the second pass
    // runs entirely on recycled systems/buffers and must be byte-identical
    // to the fresh-allocation reference, at serial and parallel host
    // kernels alike.
    let reference = run_all_apps(1, &mut SystemArena::new());
    let mut arena = SystemArena::new();
    for pass in 0..2 {
        for threads in [1usize, 0] {
            let runs = run_all_apps(threads, &mut arena);
            for (i, (a, b)) in reference.iter().zip(&runs).enumerate() {
                assert!(
                    a == b,
                    "app #{i} diverges on arena pass {pass} at threads={threads}"
                );
            }
            // The plain run is the resilient run with no plan and the
            // default policy, and that run has nothing to recover from.
            let resilient = run_all_apps_resilient(threads, &mut arena);
            for (i, (plain, run)) in runs.iter().zip(&resilient).enumerate() {
                assert!(*plain == run.run, "app #{i}: the two entry points differ");
                assert_eq!(run.outcome, RunOutcome::Completed, "app #{i}");
                assert_eq!(
                    (run.retries, run.checkpoint_restores, run.backoff_epochs),
                    (0, 0, 0),
                    "app #{i}"
                );
                assert!(run.quarantined.is_empty(), "app #{i}");
            }
        }
    }
    assert!(
        arena.pooled_systems() >= 1,
        "apps must recycle their systems"
    );
}

/// Everything a run checks out of the arena goes back on every exit: a
/// sweep worker that hits a bad cell keeps its warmed plan cache, and a
/// pooled system never carries a fault plan or verification into the
/// next (possibly plain) run.
#[test]
fn failed_and_aborted_runs_return_their_checkouts_to_the_arena() {
    let g = graph();
    let gnn = |feature_dim| GnnConfig {
        threads: 0,
        pes: 64,
        feature_dim,
        layers: 2,
        variant: GnnVariant::RsAr,
        opt: OptLevel::Full,
        dtype: DType::I32,
    };
    let storm = || Some(Arc::new(FaultPlan::new(3).with_bit_flip_period(1 << 4)));
    let mut arena = SystemArena::new();
    assert!(run_gnn_in(&gnn(16), &g, &mut arena).unwrap().validated);
    let warm = |arena: &mut SystemArena| {
        let plans = arena.take_extension::<PlanCache>();
        let len = plans.len();
        arena.put_extension(plans);
        len
    };
    let warmed = warm(&mut arena);
    assert!(warmed > 0, "the first run pools its plans");

    // A zero-width feature block passes the shape asserts and fails plan
    // validation — after the system and the plan cache were checked out.
    let err = run_gnn_in(&gnn(0), &g, &mut arena).unwrap_err();
    assert!(matches!(err, pidcomm::Error::InvalidBuffer(_)), "{err}");
    assert_eq!(warm(&mut arena), warmed, "an Err dropped the plan cache");
    assert_eq!(arena.pooled_systems(), 1, "an Err dropped the system");

    // The same failure under supervision with a fault plan attached …
    let policy = RunPolicy::default();
    assert!(run_gnn_resilient_in(&gnn(0), &g, storm(), policy, &mut arena).is_err());
    assert_eq!(warm(&mut arena), warmed);
    // … and a storm run the supervisor aborts for lack of budget.
    let mlp = MlpConfig {
        threads: 0,
        features: 512,
        layers: 2,
        pes: 64,
        opt: OptLevel::Full,
    };
    let aborted =
        run_mlp_resilient_in(&mlp, storm(), policy.with_retry_budget(0), &mut arena).unwrap();
    assert_eq!(aborted.outcome, RunOutcome::BudgetExhausted);
    assert!(
        warm(&mut arena) > warmed,
        "the aborted run's plans stay pooled"
    );

    assert_eq!(arena.pooled_systems(), 1);
    let sys = arena.system(DimmGeometry::with_pes(64));
    assert!(
        sys.fault_plan().is_none(),
        "pooled system kept a fault plan"
    );
    assert!(!sys.verify_writes(), "pooled system kept verification on");
    arena.recycle(sys);
    assert!(run_gnn_in(&gnn(16), &g, &mut arena).unwrap().validated);
}

/// A bad MLP config is a typed error, not a panic, and is refused before
/// anything leaves the arena.
#[test]
fn bad_mlp_configs_are_typed_errors_that_leave_the_arena_alone() {
    let good = MlpConfig {
        threads: 0,
        features: 512,
        layers: 2,
        pes: 64,
        opt: OptLevel::Full,
    };
    let mut arena = SystemArena::new();
    assert!(run_mlp_in(&good, &mut arena).unwrap().validated);
    let pools = format!("{arena:?}");
    let bad = [
        MlpConfig { pes: 0, ..good },
        MlpConfig { layers: 0, ..good },
        MlpConfig {
            features: 0,
            ..good
        },
        // 500 % 64 != 0: no whole number of columns per PE.
        MlpConfig {
            features: 500,
            ..good
        },
        // 64 % 64 == 0, but 4 * 64 % (8 * 64) != 0: ReduceScatter alignment.
        MlpConfig {
            features: 64,
            ..good
        },
        // The MLP's own checks pass, but no geometry has these PE counts:
        // 12 is no multiple of 8, 320 does not factor.
        MlpConfig {
            pes: 12,
            features: 96,
            ..good
        },
        MlpConfig {
            pes: 320,
            features: 640,
            ..good
        },
    ];
    for cfg in bad {
        let err = run_mlp_in(&cfg, &mut arena).unwrap_err();
        assert!(matches!(err, pidcomm::Error::InvalidBuffer(_)), "{err}");
        let policy = RunPolicy::default();
        let err = run_mlp_resilient_in(&cfg, None, policy, &mut arena).unwrap_err();
        assert!(matches!(err, pidcomm::Error::InvalidBuffer(_)), "{err}");
        assert_eq!(format!("{arena:?}"), pools, "{cfg:?} touched the arena");
    }
}

/// Bad BFS / CC configs likewise: no PEs (a division by zero once), a PE
/// count with no geometry, an empty graph, a source that is no vertex.
#[test]
fn bad_graph_app_configs_are_typed_errors_that_leave_the_arena_alone() {
    let (g, empty) = (graph(), CsrGraph::from_edges(0, vec![]));
    let policy = RunPolicy::default();
    let mut arena = SystemArena::new();
    let (threads, opt) = (0, OptLevel::Full);
    let good = 64;
    assert!(
        run_bfs_in(
            &BfsConfig {
                threads,
                pes: good,
                opt
            },
            &g,
            0,
            &mut arena
        )
        .unwrap()
        .validated
    );
    assert!(
        run_cc_in(
            &CcConfig {
                threads,
                pes: good,
                opt
            },
            &g,
            &mut arena
        )
        .unwrap()
        .validated
    );
    let pools = format!("{arena:?}");
    let past_the_end = g.num_vertices() as u32;
    // 320 PEs = 40 entangled groups: 8 banks x 4 ranks x 1.25 channels.
    for (pes, graph, source) in [
        (0, &g, 0),
        (12, &g, 0),
        (320, &g, 0),
        (good, &empty, 0),
        (good, &g, past_the_end),
    ] {
        let what = format!(
            "{pes} PEs, {} vertices, source {source}",
            graph.num_vertices()
        );
        let bfs = BfsConfig { threads, pes, opt };
        let err = run_bfs_in(&bfs, graph, source, &mut arena).unwrap_err();
        assert!(
            matches!(err, pidcomm::Error::InvalidBuffer(_)),
            "{what}: {err}"
        );
        assert!(run_bfs_resilient_in(&bfs, graph, source, None, policy, &mut arena).is_err());
        if source == 0 {
            let cc = CcConfig { threads, pes, opt };
            let err = run_cc_in(&cc, graph, &mut arena).unwrap_err();
            assert!(
                matches!(err, pidcomm::Error::InvalidBuffer(_)),
                "{what}: {err}"
            );
            assert!(run_cc_resilient_in(&cc, graph, None, policy, &mut arena).is_err());
        }
        assert_eq!(format!("{arena:?}"), pools, "{what} touched the arena");
    }
}

/// BFS and CC scatter every PE's adjacency partition padded to the largest
/// one; on a skewed graph that image is mostly zeros, and the padding must
/// not become MRAM. Measured on the system both runs leave in the arena.
#[test]
fn graph_apps_keep_the_adjacency_padding_out_of_mram() {
    const PES: usize = 64;
    let g = rmat(13, 16, RmatParams::skewed(7)).to_undirected();
    let (n, per_pe) = (g.num_vertices(), g.num_vertices().div_ceil(PES));
    let parts: Vec<usize> = (0..PES)
        .map(|pe| {
            let owned = pe * per_pe..((pe + 1) * per_pe).min(n);
            owned.map(|v| 4 + 4 * g.degree(v as u32)).sum()
        })
        .collect();
    // The apps' `slice_bytes`.
    let slice = parts.iter().max().unwrap().next_multiple_of(8);
    let mean = parts.iter().sum::<usize>() / PES;
    assert!(slice >= 8 * mean, "skew: largest {slice} B, mean {mean} B");

    let mut arena = SystemArena::new();
    let (threads, opt) = (1, OptLevel::Full);
    let bfs = BfsConfig {
        pes: PES,
        opt,
        threads,
    };
    assert!(
        run_bfs_in(&bfs, &g, default_source(&g), &mut arena)
            .unwrap()
            .validated
    );
    let cc = CcConfig {
        pes: PES,
        opt,
        threads,
    };
    assert!(run_cc_in(&cc, &g, &mut arena).unwrap().validated);

    let sys = arena.system(DimmGeometry::try_with_pes(PES).unwrap());
    let pes = || sys.geometry().pes().map(|pe| sys.pe(pe));
    // Pages held inside the padded region `[0, slice)`: the CSR prefixes,
    // plus the page the bitmaps and labels after it share with its end.
    // The checkout put them in runs of zeros; they still count as held.
    let held: usize = pes()
        .map(|pe| pe.mram_resident_in(0, slice.next_multiple_of(PAGE_BYTES)))
        .sum();
    let padded = PES * slice;
    assert!(held < padded / 4, "{held} B of a {padded} B padded region");
    // Everything both runs keep — CC's label arrays included — is less
    // than the padding alone would be.
    let resident: usize = pes().map(|pe| pe.mram_resident()).sum();
    assert!(
        resident < padded,
        "{resident} B resident, {padded} B padded"
    );
}

/// Bad DLRM / GNN configs likewise — each was an `assert!` (or, at 128
/// PEs, GNN's square-root check) once: a PE count with no geometry or no
/// square root, workloads that do not split over the hypercube, an empty
/// batch or table, a graph or feature width that does not tile.
#[test]
fn bad_dlrm_and_gnn_configs_are_typed_errors_that_leave_the_arena_alone() {
    let policy = RunPolicy::default();
    let mut arena = SystemArena::new();
    let dlrm = DlrmRunConfig {
        threads: 0,
        workload: DlrmConfig {
            num_tables: 8,
            rows_per_table: 1 << 10,
            embedding_dim: 16,
            batch_size: 1024,
            seed: 7,
        },
        pes: 64,
        opt: OptLevel::Full,
    };
    let gnn = GnnConfig {
        threads: 0,
        pes: 64,
        feature_dim: 16,
        layers: 2,
        variant: GnnVariant::RsAr,
        opt: OptLevel::Full,
        dtype: DType::I32,
    };
    let g = rmat(10, 4, RmatParams::uniform(9));
    assert!(run_dlrm_in(&dlrm, &mut arena).unwrap().validated);
    assert!(run_gnn_in(&gnn, &g, &mut arena).unwrap().validated);
    let pools = format!("{arena:?}");

    let workload = |edit: fn(&mut DlrmConfig)| {
        let mut w = dlrm.workload;
        edit(&mut w);
        DlrmRunConfig {
            workload: w,
            ..dlrm
        }
    };
    let bad_dlrm = [
        DlrmRunConfig { pes: 0, ..dlrm },
        DlrmRunConfig { pes: 12, ..dlrm },
        // 3 tables: the table division (3) does not divide 64 PEs.
        workload(|w| w.num_tables = 3),
        // 12 tables over a table division of 8.
        workload(|w| w.num_tables = 12),
        workload(|w| w.num_tables = 0),
        workload(|w| w.embedding_dim = 0),
        // Column division 2 does not divide 3 components.
        workload(|w| w.embedding_dim = 3),
        // Row division 4 at 64 PEs.
        workload(|w| w.rows_per_table = 1023),
        workload(|w| w.rows_per_table = 0),
        workload(|w| w.batch_size = 1000),
        workload(|w| w.batch_size = 0),
    ];
    for cfg in bad_dlrm {
        let err = run_dlrm_in(&cfg, &mut arena).unwrap_err();
        assert!(
            matches!(err, pidcomm::Error::InvalidBuffer(_)),
            "{cfg:?}: {err}"
        );
        assert!(run_dlrm_resilient_in(&cfg, None, policy, &mut arena).is_err());
        assert_eq!(format!("{arena:?}"), pools, "{cfg:?} touched the arena");
    }

    let bad_gnn = [
        (GnnConfig { pes: 0, ..gnn }, &g),
        (GnnConfig { pes: 12, ..gnn }, &g),
        // A geometry, but no square root.
        (GnnConfig { pes: 128, ..gnn }, &g),
        // 12 % sqrt(64) != 0.
        (
            GnnConfig {
                feature_dim: 12,
                ..gnn
            },
            &g,
        ),
        // No layer to run: once `layers - 1` underflowed after checkout.
        (GnnConfig { layers: 0, ..gnn }, &g),
        // 8-byte elements do not fit the kernels' `i32` lanes: once a
        // panic in `encode_trunc` after checkout.
        (
            GnnConfig {
                dtype: DType::I64,
                ..gnn
            },
            &g,
        ),
        (
            GnnConfig {
                dtype: DType::U64,
                ..gnn
            },
            &g,
        ),
        // 100 vertices do not tile over 64 PEs.
        (gnn, &CsrGraph::from_edges(100, vec![(0, 1)])),
        // 4 x 4 PEs, blocks of 4 rows x 4 features x 1 B = 16 B: not the
        // 8 * 4 bytes a collective over 4 members moves.
        (
            GnnConfig {
                pes: 16,
                feature_dim: 4,
                dtype: DType::I8,
                ..gnn
            },
            &CsrGraph::from_edges(16, vec![(0, 1)]),
        ),
    ];
    for (cfg, graph) in bad_gnn {
        let what = format!("{} vertices, {cfg:?}", graph.num_vertices());
        let err = run_gnn_in(&cfg, graph, &mut arena).unwrap_err();
        assert!(
            matches!(err, pidcomm::Error::InvalidBuffer(_)),
            "{what}: {err}"
        );
        assert!(run_gnn_resilient_in(&cfg, graph, None, policy, &mut arena).is_err());
        assert_eq!(format!("{arena:?}"), pools, "{what} touched the arena");
    }
}

#[test]
fn optimization_level_never_changes_results_only_time() {
    // Same seed, all four levels: identical kernels, different comm time.
    let g = graph();
    let src = default_source(&g);
    let runs: Vec<_> = OptLevel::ALL
        .iter()
        .map(|&opt| {
            run_bfs(
                &BfsConfig {
                    threads: 0,
                    pes: 64,
                    opt,
                },
                &g,
                src,
            )
            .unwrap()
        })
        .collect();
    for r in &runs {
        assert!(r.validated);
        assert!((r.profile.kernel_ns - runs[0].profile.kernel_ns).abs() < 1e-6);
    }
    // Full must beat Baseline on communication.
    assert!(runs[3].profile.comm_ns() < runs[0].profile.comm_ns());
}
