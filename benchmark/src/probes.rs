//! The traced run's per-layer metrics.
//!
//! An app run is one opaque call from outside, so besides the spans of the
//! workload itself the traced run executes a fixed **layer sweep**: small
//! probes of each library layer's public functions at sizes taken from the
//! workloads, one pass of the 24 fig15 cells and the 35 chaos cells, and
//! warm passes of the primitive workloads. The sweep is the same whatever
//! workload is being traced, so every traced run reports every name and a
//! layer's number can be compared across runs and commits.
//!
//! Each timed probe is the median of [`SAMPLES`] samples of at least
//! [`MIN_SAMPLE`] each. Throughputs are host GB/s (bytes per ns) or
//! Gelem/s over computed bytes; counts are exact.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pidcomm::{
    par_pes, BufferSpec, Communicator, DimMask, HypercubeManager, HypercubeShape, LinkModel,
    MultiHost, OptLevel, PlanCache, Primitive, RecoveryPolicy,
};
use pidcomm_apps::mlp::{run_mlp_in, MlpConfig};
use pidcomm_data::dlrm::DlrmConfig;
use pidcomm_data::{generate_batch, rmat, MatI32, RmatParams};
use pim_sim::domain::{transpose8x8, IDENTITY_PERM};
use pim_sim::dtype::reduce_bytes;
use pim_sim::geometry::{EgId, LANES};
use pim_sim::system::Checkpoint;
use pim_sim::testgen::SplitMix64;
use pim_sim::{kernels, DType, DimmGeometry, PimSystem, ReduceKind, SystemArena};

use crate::json::Json;
use crate::run::RunResult;
use crate::stats::median;
use crate::trace::{self_time_by_layer, Layer, Tracer};
use crate::workloads::apps::Apps;
use crate::workloads::chaos::Chaos;
use crate::workloads::prims::{communicator, Prims};
use crate::workloads::{mix, CellRun, ChaosRecord, Workload, THREADS};

const SAMPLES: usize = 5;
const MIN_SAMPLE: Duration = Duration::from_millis(12);

/// Bytes each PE moves in the warm transport probes (the fig14 payload).
const CHUNK: usize = 32 * 1024;
/// Per-PE first-touch sizes: MLP-32k's weight slice, and four times that.
const COLD: usize = 320 * 1024;
const COLD_LARGE: usize = 1280 * 1024;
/// Vector length of the lane-kernel probes (MLP-32k's feature width).
const LANE_ELEMS: usize = 4096;

struct Sweep<'a> {
    tr: &'a mut Tracer,
    out: Vec<(String, Json)>,
}

impl Sweep<'_> {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        let m = Json::obj().with("value", value).with("unit", unit);
        self.out.push((name.to_string(), m));
    }

    /// Median ns per call of `f`, warm: each sample repeats `f` until
    /// [`MIN_SAMPLE`] has passed.
    fn time(&mut self, name: &'static str, layer: Layer, mut f: impl FnMut()) -> f64 {
        self.tr.scope(name, layer, |_| {
            f(); // first touch and lazy set-up stay outside the samples
            let samples: Vec<f64> = (0..SAMPLES)
                .map(|_| {
                    let t0 = Instant::now();
                    let mut calls = 0u32;
                    loop {
                        f();
                        calls += 1;
                        let spent = t0.elapsed();
                        if spent >= MIN_SAMPLE {
                            break spent.as_nanos() as f64 / f64::from(calls);
                        }
                    }
                })
                .collect();
            median(&samples)
        })
    }

    /// Median ns of one call of `f` on state freshly built by `make` (built
    /// and dropped outside the clock) — for first-touch costs.
    fn time_fresh<S>(
        &mut self,
        name: &'static str,
        layer: Layer,
        mut make: impl FnMut() -> S,
        mut f: impl FnMut(&mut S),
    ) -> f64 {
        self.tr.scope(name, layer, |_| {
            let samples: Vec<f64> = (0..SAMPLES)
                .map(|_| {
                    let mut state = make();
                    let t0 = Instant::now();
                    f(&mut state);
                    t0.elapsed().as_nanos() as f64
                })
                .collect();
            median(&samples)
        })
    }
}

fn bytes_of(seed: u64, len: usize) -> Vec<u8> {
    SplitMix64::new(seed).bytes(len)
}

fn i32s_of(seed: u64, len: usize) -> Vec<i32> {
    let mut g = SplitMix64::new(seed);
    (0..len).map(|_| (g.next_u64() % 199) as i32 - 99).collect()
}

fn data_layer(s: &mut Sweep, seed: u64) {
    let mut edges = 0;
    let ns = s.time("rmat+to_undirected", Layer::Data, || {
        let g = rmat(15, 16, RmatParams::skewed(mix(0x117e, seed))).to_undirected();
        edges = g.num_edges();
        black_box(g);
    });
    s.put(
        "data.graph.rmat_medges_per_s",
        edges as f64 / ns * 1e3,
        "Medge/s",
    );

    let ns = s.time("MatI32::random", Layer::Data, || {
        black_box(MatI32::random(2048, 2048, 4, 0x9a77));
    });
    s.put(
        "data.features.mat_random_melems_per_s",
        (2048.0 * 2048.0) / ns * 1e3,
        "Melem/s",
    );

    let mut cfg = DlrmConfig::criteo_like(16);
    cfg.batch_size = 2048;
    cfg.seed = mix(cfg.seed, seed);
    let ns = s.time("generate_batch", Layer::Data, || {
        black_box(generate_batch(&cfg));
    });
    s.put("data.dlrm.batch_ms", ns / 1e6, "ms");
}

fn sim_pe(s: &mut Sweep, seed: u64) {
    let buf = bytes_of(seed, COLD_LARGE);

    // First touch: fresh PEs, one write each, 320 MiB in total both times
    // (what MLP-32k scatters) — as 1024 slices, then as 256 slices four
    // times the size.
    for (name, label, pes, len) in [
        ("sim.pe.write_cold_gbps", "Pe::write cold", 1024, COLD),
        (
            "sim.pe.write_cold_large_gbps",
            "Pe::write cold large",
            256,
            COLD_LARGE,
        ),
    ] {
        let geom = DimmGeometry::with_pes(pes);
        let ns = s.time_fresh(
            label,
            Layer::Sim,
            || PimSystem::new(geom),
            |sys| {
                for pe in sys.pes_mut() {
                    pe.write(0, &buf[..len]);
                }
            },
        );
        s.put(name, (pes * len) as f64 / ns, "GB/s");
    }

    let geom = DimmGeometry::upmem_1024();
    let mut sys = PimSystem::new(geom);
    let total = (geom.num_pes() * CHUNK) as f64;
    let chunk = &buf[..CHUNK];
    let ns = s.time("Pe::write warm", Layer::Sim, || {
        for pe in sys.pes_mut() {
            pe.write(0, chunk);
        }
    });
    s.put("sim.pe.write_warm_gbps", total / ns, "GB/s");

    // Offset 4104 puts every write across a page boundary and off the
    // 64-byte burst grid.
    let ns = s.time("Pe::write straddle", Layer::Sim, || {
        for pe in sys.pes_mut() {
            pe.write(4104, chunk);
        }
    });
    s.put("sim.pe.write_straddle_gbps", total / ns, "GB/s");

    let mut sink = vec![0u8; CHUNK];
    let ns = s.time("Pe::read_into", Layer::Sim, || {
        for pe in sys.pes_mut() {
            pe.read_into(0, &mut sink);
        }
        black_box(&sink);
    });
    s.put("sim.pe.read_gbps", total / ns, "GB/s");

    let ns = s.time("Pe::copy_from", Layer::Sim, || {
        for pair in sys.pes_mut().chunks_exact_mut(2) {
            let (a, b) = pair.split_at_mut(1);
            a[0].copy_from(2 * CHUNK, &b[0], 0, CHUNK);
            b[0].copy_from(2 * CHUNK, &a[0], 0, CHUNK);
        }
    });
    s.put("sim.pe.copy_from_gbps", total / ns, "GB/s");

    let ns = s.time("Pe::rotate_blocks", Layer::Sim, || {
        for pe in sys.pes_mut() {
            pe.rotate_blocks(0, CHUNK / 32, 32, 5);
        }
    });
    s.put("sim.pe.rotate_blocks_gbps", total / ns, "GB/s");

    // A reversal is not a rotation, so this takes the staged general path.
    let reversal: Vec<usize> = (0..32).rev().collect();
    let ns = s.time("Pe::permute_blocks", Layer::Sim, || {
        for pe in sys.pes_mut() {
            pe.permute_blocks(0, CHUNK / 32, 32, &reversal);
        }
    });
    s.put("sim.pe.permute_blocks_gbps", total / ns, "GB/s");
    drop(sys);

    let geom = DimmGeometry::upmem_256();
    let mut sys = PimSystem::new(geom);
    sys.set_verify_writes(true);
    let ns = s.time("Pe::write verified", Layer::Sim, || {
        for pe in sys.pes_mut() {
            pe.write(0, chunk);
        }
    });
    s.put(
        "sim.pe.write_verified_gbps",
        (geom.num_pes() * CHUNK) as f64 / ns,
        "GB/s",
    );
}

fn sim_system(s: &mut Sweep, seed: u64) {
    let geom = DimmGeometry::upmem_1024();
    let egs: Vec<EgId> = geom.groups().collect();
    let mut sys = PimSystem::new(geom);
    let total = (geom.num_pes() * CHUNK) as f64;
    let rows = bytes_of(seed, LANES * CHUNK);

    // Row transport, as the streaming engine drives it: one view over
    // every entangled group, whole-chunk rows per lane.
    {
        let mut views = sys.split_eg_views(std::slice::from_ref(&egs));
        let view = &mut views[0];
        let ns = s.time("EgView::write_rows", Layer::Sim, || {
            for slot in 0..egs.len() {
                view.write_rows(slot, 0, CHUNK, &rows, &IDENTITY_PERM);
            }
        });
        s.put("sim.system.write_rows_gbps", total / ns, "GB/s");

        let mut out = vec![0u8; LANES * CHUNK];
        let ns = s.time("EgView::read_rows_into", Layer::Sim, || {
            for slot in 0..egs.len() {
                view.read_rows_into(slot, 0, CHUNK, &mut out);
            }
            black_box(&out);
        });
        s.put("sim.system.read_rows_gbps", total / ns, "GB/s");

        let ns = s.time("EgView::reduce_rows", Layer::Sim, || {
            for slot in 0..egs.len() {
                view.reduce_rows(
                    slot,
                    0,
                    CHUNK,
                    &mut out,
                    &IDENTITY_PERM,
                    ReduceKind::Sum,
                    DType::U64,
                );
            }
        });
        s.put("sim.system.reduce_rows_gbps", total / ns, "GB/s");

        let dst = [2 * CHUNK; LANES];
        let ns = s.time("EgView::copy_rows", Layer::Sim, || {
            for slot in 0..egs.len() {
                view.copy_rows(slot, 0, (slot + 1) % egs.len(), &dst, CHUNK, &IDENTITY_PERM);
            }
        });
        s.put("sim.system.copy_rows_gbps", total / ns, "GB/s");
    }

    // Burst transport, as the baseline engine drives it.
    let ns = s.time("PimSystem::write_bursts", Layer::Sim, || {
        for &eg in &egs {
            sys.write_bursts(eg, 0, &rows);
        }
    });
    s.put("sim.system.write_bursts_gbps", total / ns, "GB/s");
    let mut out = vec![0u8; LANES * CHUNK];
    let ns = s.time("PimSystem::read_bursts_into", Layer::Sim, || {
        for &eg in &egs {
            sys.read_bursts_into(eg, 0, &mut out);
        }
        black_box(&out);
    });
    s.put("sim.system.read_bursts_gbps", total / ns, "GB/s");

    let mut ckpt = Checkpoint::new();
    let ns = s.time("PimSystem::checkpoint_regions", Layer::Sim, || {
        sys.checkpoint_regions(&[(0, CHUNK)], &mut ckpt);
    });
    s.put("sim.system.checkpoint_gbps", total / ns, "GB/s");
    let ns = s.time("PimSystem::restore_regions", Layer::Sim, || {
        sys.restore_regions(&ckpt);
    });
    s.put("sim.system.restore_gbps", total / ns, "GB/s");

    // Reset zero-fills everything resident, so a recycled system pays for
    // the largest cell that ever ran on it.
    let resident: usize = sys.pes_mut().iter().map(|pe| pe.mram_resident()).sum();
    let ns = s.time("PimSystem::reset", Layer::Sim, || sys.reset());
    s.put("sim.system.reset_gbps", resident as f64 / ns, "GB/s");
    drop(sys);

    // Checking a never-touched pooled system out and back in.
    let mut arena = SystemArena::new();
    let sys = arena.system(geom);
    arena.recycle(sys);
    let ns = s.time("SystemArena::system", Layer::Sim, || {
        let sys = arena.system(geom);
        arena.recycle(sys);
    });
    s.put("sim.arena.checkout_clean_us", ns / 1e3, "us");
}

fn sim_kernels(s: &mut Sweep, seed: u64) {
    let mut block = bytes_of(seed, 2 * CHUNK);
    let ns = s.time("transpose8x8", Layer::Sim, || {
        for b in block.chunks_exact_mut(64) {
            transpose8x8(b);
        }
    });
    s.put(
        "sim.domain.transpose8x8_gbps",
        (2 * CHUNK) as f64 / ns,
        "GB/s",
    );

    let src = bytes_of(seed + 1, CHUNK);
    let mut acc = vec![0u8; CHUNK];
    let ns = s.time("reduce_bytes", Layer::Sim, || {
        reduce_bytes(ReduceKind::Sum, DType::U64, &mut acc, &src);
    });
    s.put("sim.dtype.reduce_bytes_gbps", CHUNK as f64 / ns, "GB/s");

    let n = LANE_ELEMS as f64;
    let xs = i32s_of(seed, LANE_ELEMS);
    let xbytes: Vec<u8> = xs.iter().flat_map(|v| v.to_le_bytes()).collect();
    let mut acc = i32s_of(seed + 2, LANE_ELEMS);
    let ns = s.time("kernels::axpy_i32_bytes", Layer::Sim, || {
        kernels::axpy_i32_bytes(&mut acc, black_box(3), &xbytes);
    });
    s.put("sim.kernels.axpy_i32_bytes_gelems", n / ns, "Gelem/s");
    let ns = s.time("kernels::add_wrap", Layer::Sim, || {
        kernels::add_wrap(DType::I32, &mut acc, &xs);
    });
    s.put("sim.kernels.add_wrap_gelems", n / ns, "Gelem/s");
    let ns = s.time("kernels::axpy_wrap", Layer::Sim, || {
        kernels::axpy_wrap(DType::I32, &mut acc, black_box(-5), &xs);
    });
    s.put("sim.kernels.axpy_wrap_gelems", n / ns, "Gelem/s");

    // The GNN transpose: 32 blocks of 64 rows of 8 B into a strided layout.
    let src = bytes_of(seed + 3, 32 * 64 * 8);
    let mut dst = vec![0u8; 32 * 64 * 8];
    let ns = s.time("kernels::copy_rows", Layer::Sim, || {
        for blk in 0..32 {
            kernels::copy_rows(&mut dst, blk * 8, 256, &src, blk * 64 * 8, 8, 8, 64);
        }
    });
    s.put(
        "sim.kernels.copy_rows_gelems",
        (32 * 64 * 2) as f64 / ns,
        "Gelem/s",
    );

    // BFS frontier bitmaps: `news` is `olds` plus some fresh bits.
    let olds = bytes_of(seed + 4, LANE_ELEMS);
    let mut news = bytes_of(seed + 5, LANE_ELEMS);
    kernels::bitmap_or(&mut news, &olds);
    let bits = (LANE_ELEMS * 8) as f64;
    let ns = s.time("kernels::for_each_new_bit", Layer::Sim, || {
        let mut sum = 0usize;
        kernels::for_each_new_bit(&news, &olds, |v| sum += v);
        black_box(sum);
    });
    s.put("sim.kernels.for_each_new_bit_gelems", bits / ns, "Gelem/s");
    let mut acc = olds.clone();
    let ns = s.time("kernels::bitmap_or", Layer::Sim, || {
        kernels::bitmap_or(&mut acc, &news);
    });
    s.put("sim.kernels.bitmap_or_gelems", bits / ns, "Gelem/s");
}

fn fig14_comm(opt: OptLevel) -> (Communicator, DimMask) {
    let comm = communicator(&[32, 32], opt, THREADS, DimmGeometry::upmem_1024());
    (comm, "10".parse().expect("frozen mask"))
}

/// The fig14 AllReduce buffers: 32 KiB of U64 per node.
fn fig14_spec() -> BufferSpec {
    BufferSpec::new(0, 2 * CHUNK + 64, CHUNK).with_dtype(DType::U64)
}

fn core_plan(s: &mut Sweep) {
    let geom = DimmGeometry::upmem_1024();
    let ns = s.time("HypercubeManager::new", Layer::Core, || {
        let shape = HypercubeShape::new(vec![32, 32]).expect("frozen shape");
        black_box(HypercubeManager::new(shape, geom).expect("shape fits geometry"));
    });
    s.put("core.hypercube.manager_build_us", ns / 1e3, "us");

    let (comm, mask) = fig14_comm(OptLevel::Full);
    let spec = fig14_spec();
    let ns = s.time("Communicator::plan", Layer::Core, || {
        black_box(comm.plan(Primitive::AllReduce, &mask, &spec, ReduceKind::Sum)).expect("plans");
    });
    s.put("core.engine.plan.build_us", ns / 1e3, "us");

    let mut cache = PlanCache::new();
    let ns = s.time("Communicator::plan_cached", Layer::Core, || {
        black_box(comm.plan_cached(
            &mut cache,
            Primitive::AllReduce,
            &mask,
            &spec,
            ReduceKind::Sum,
        ))
        .expect("plans");
    });
    s.put("core.engine.plan.cache_hit_ns", ns, "ns");

    let plan = comm
        .plan(Primitive::AllReduce, &mask, &spec, ReduceKind::Sum)
        .expect("plans");
    let ns = s.time("CollectivePlan::execute_cost_only", Layer::Core, || {
        black_box(plan.execute_cost_only());
    });
    s.put("core.engine.cost_only_us", ns / 1e3, "us");
}

/// Per-cell wall samples (ms) and the last pass's records over `passes`
/// warm passes of `w`, after one untimed cold pass.
fn warm_passes(
    w: &mut dyn Workload,
    passes: usize,
    tr: &mut Tracer,
) -> (Vec<Vec<f64>>, Vec<CellRun>) {
    let mut last = w.pass(tr, false);
    let mut samples = vec![Vec::new(); last.len()];
    for _ in 0..passes {
        last = w.pass(tr, false);
        for (s, run) in samples.iter_mut().zip(&last) {
            s.push(run.wall_ns as f64 / 1e6);
        }
    }
    (samples, last)
}

fn core_exec(s: &mut Sweep, seed: u64) {
    // The fig14 cells, warm, both engines.
    let mut pass_ms = [0.0; 2];
    for (k, (opt, slug)) in [(OptLevel::Full, "full"), (OptLevel::Baseline, "baseline")]
        .into_iter()
        .enumerate()
    {
        let (samples, last, ids) = s.tr.scope("prims warm passes", Layer::Harness, |tr| {
            let mut w = Prims::fig14(opt, THREADS, seed, tr);
            let ids = w.cells().to_vec();
            let (samples, last) = warm_passes(&mut w, 12, tr);
            (samples, last, ids)
        });
        let medians: Vec<f64> = samples.iter().map(|v| median(v)).collect();
        for (id, ms) in ids.iter().zip(&medians) {
            s.put(&format!("core.engine.exec.{id}.{slug}_ms"), *ms, "ms");
        }
        let host_ns = medians.iter().sum::<f64>() * 1e6;
        let sim_ns: f64 = last.iter().map(|r| r.modeled_ns).sum();
        let bytes: u64 = last.iter().map(|r| r.bytes).sum();
        s.put(
            &format!("core.engine.exec.{slug}.host_ns_per_sim_ns"),
            host_ns / sim_ns,
            "ratio",
        );
        s.put(
            &format!("core.engine.exec.{slug}.host_ns_per_byte"),
            host_ns / bytes as f64,
            "ns/B",
        );
        pass_ms[k] = host_ns / 1e6;
    }

    // The same Full pass with the cluster fan-out at 2 threads.
    let two = s.tr.scope("prims warm passes 2t", Layer::Harness, |tr| {
        let mut w = Prims::fig14(OptLevel::Full, 2, seed, tr);
        let (samples, _) = warm_passes(&mut w, 12, tr);
        samples.iter().map(|v| median(v)).sum::<f64>()
    });
    s.put("core.engine.parallel.speedup_2t", pass_ms[0] / two, "ratio");

    // Small payloads: mean one-shot call, Full vs Baseline.
    let (samples, ids) = s.tr.scope("prims_small warm passes", Layer::Harness, |tr| {
        let mut w = Prims::small(seed, tr);
        let ids = w.cells().to_vec();
        (warm_passes(&mut w, 3, tr).0, ids)
    });
    let mean_us = |slug: &str| {
        let of: Vec<f64> = ids
            .iter()
            .zip(&samples)
            .filter(|(id, _)| id.contains(slug))
            .map(|(_, v)| median(v) * 1e3)
            .collect();
        of.iter().sum::<f64>() / of.len() as f64
    };
    let (full, base) = (mean_us("/full/"), mean_us("/baseline/"));
    s.put("core.engine.exec_small.full_us", full, "us");
    s.put("core.engine.exec_small.baseline_us", base, "us");
    s.put(
        "core.engine.exec_small.full_over_baseline",
        full / base,
        "ratio",
    );
}

fn core_tiers(s: &mut Sweep, seed: u64) {
    let geom = DimmGeometry::upmem_1024();
    let (comm, mask) = fig14_comm(OptLevel::Full);
    let n = 32;
    let b = 8 * 1024;
    let plan = |prim, src, dst, bytes| {
        Arc::new(
            comm.plan(
                prim,
                &mask,
                &BufferSpec::new(src, dst, bytes),
                ReduceKind::Sum,
            )
            .expect("chain plans"),
        )
    };
    // Scatter -> AlltoAll -> ReduceScatter -> Gather, each step reading
    // where the previous one wrote.
    let steps = vec![
        plan(Primitive::Scatter, 0, b, b),
        plan(Primitive::AlltoAll, b, 2 * b, b),
        plan(Primitive::ReduceScatter, 2 * b, 3 * b, b),
        plan(Primitive::Gather, 3 * b, 4 * b, b / n),
    ];
    let host_in: Vec<Vec<u8>> = (0..geom.num_pes() / n)
        .map(|g| bytes_of(seed + g as u64, n * b))
        .collect();
    let mut sys = PimSystem::new(geom);

    let ns = s.time("Communicator::prepare", Layer::Core, || {
        black_box(comm.prepare(Arc::clone(&steps[0]), &host_in)).expect("stages");
    });
    s.put("core.engine.prepared.stage_ms", ns / 1e6, "ms");

    let prepared = comm
        .prepare(Arc::clone(&steps[0]), &host_in)
        .expect("stages");
    let direct = s.time("CollectivePlan::execute_with_host", Layer::Core, || {
        black_box(steps[0].execute_with_host(&mut sys, &host_in)).expect("executes");
    });
    let staged = s.time("PreparedScatter::execute", Layer::Core, || {
        black_box(prepared.execute(&mut sys)).expect("executes");
    });
    s.put(
        "core.engine.prepared.exec_over_direct",
        staged / direct,
        "ratio",
    );

    let unfused = s.time("plan sequence", Layer::Core, || {
        steps[0]
            .execute_with_host(&mut sys, &host_in)
            .expect("executes");
        steps[1].execute(&mut sys).expect("executes");
        steps[2].execute(&mut sys).expect("executes");
        black_box(steps[3].execute_to_host(&mut sys)).expect("executes");
    });
    let chain = comm.fuse(steps.clone(), &[]).expect("fuses");
    let fused = s.time("FusedPlan::execute_with", Layer::Core, || {
        black_box(chain.execute_with(&mut sys, Some(&prepared), |_, _| Ok(()))).expect("executes");
    });
    s.put("core.engine.fused.over_unfused", fused / unfused, "ratio");

    // Verified execution with no fault plan attached is modeled-bit-identical
    // to plain execution; this is what it costs in host time.
    let ar = comm
        .plan(Primitive::AllReduce, &mask, &fig14_spec(), ReduceKind::Sum)
        .expect("plans");
    let plain = s.time("CollectivePlan::execute", Layer::Core, || {
        black_box(ar.execute(&mut sys)).expect("executes");
    });
    let policy = RecoveryPolicy::default();
    let verified = s.time("Communicator::execute_verified", Layer::Core, || {
        black_box(comm.execute_verified(&mut sys, &ar, None, &policy)).expect("executes");
    });
    s.put(
        "core.engine.recovery.verified_clean_over_plain",
        verified / plain,
        "ratio",
    );

    let ns = s.time("par_pes", Layer::Core, || {
        black_box(par_pes(sys.pes_mut(), THREADS, |_, _| ()));
    });
    s.put("core.engine.hostkernel.dispatch_us", ns / 1e3, "us");
}

fn core_rest(s: &mut Sweep, seed: u64) {
    // Oracle check of the eight fig14 cells: the cold pass's `oracle` spans.
    let from = s.tr.spans().len();
    s.tr.scope("prims cold pass", Layer::Harness, |tr| {
        Prims::fig14(OptLevel::Full, THREADS, seed, tr).pass(tr, true);
    });
    let oracle_ns: u64 = s.tr.spans()[from..]
        .iter()
        .filter(|sp| sp.name == "oracle")
        .map(|sp| sp.duration_ns())
        .sum();
    s.put("core.oracle.check_ms", oracle_ns as f64 / 1e6, "ms");

    // Hierarchical AllReduce over 4 hosts of 256 PEs.
    let geom = DimmGeometry::upmem_256();
    let comms: Vec<Communicator> = (0..4)
        .map(|_| communicator(&[16, 16], OptLevel::Full, THREADS, geom))
        .collect();
    let hosts = MultiHost::new(comms, LinkModel::ethernet_10g()).expect("hosts agree");
    let fill = bytes_of(seed, CHUNK);
    let mut systems: Vec<PimSystem> = (0..4)
        .map(|_| {
            let mut sys = PimSystem::new(geom);
            for pe in sys.pes_mut() {
                pe.write(0, &fill);
            }
            sys
        })
        .collect();
    let spec = fig14_spec();
    let mask: DimMask = "10".parse().expect("frozen mask");
    let plan = hosts
        .plan(Primitive::AllReduce, &mask, &spec, ReduceKind::Sum)
        .expect("plans");
    let ns = s.time("MultiHostPlan::execute", Layer::Core, || {
        black_box(plan.execute(&mut systems)).expect("executes");
    });
    s.put("core.multihost.allreduce_ms", ns / 1e6, "ms");

    // Host-kernel fan-out: the MLP-16k Full cell at 2 threads vs 1,
    // alternating, two runs each.
    let mut arena = SystemArena::new();
    let mut wall = [Vec::new(), Vec::new()];
    s.tr.scope("run_mlp_in 1t/2t", Layer::Apps, |_| {
        for _ in 0..2 {
            for (k, threads) in [1, 2].into_iter().enumerate() {
                let cfg = MlpConfig {
                    features: 2048,
                    layers: 5,
                    pes: 1024,
                    opt: OptLevel::Full,
                    threads,
                };
                let t0 = Instant::now();
                black_box(run_mlp_in(&cfg, &mut arena)).expect("MLP runs");
                wall[k].push(t0.elapsed().as_secs_f64());
            }
        }
    });
    s.put(
        "core.engine.hostkernel.speedup_2t",
        median(&wall[0]) / median(&wall[1]),
        "ratio",
    );
}

/// One pass of the 24 fig15 cells (fresh arena per workload, fixed order)
/// and of the 35 chaos cells.
fn apps_layer(s: &mut Sweep, seed: u64) {
    let mut hits = 0;
    let mut misses = 0;
    let mut share: Vec<(&str, f64, f64)> = ["mlp", "dlrm", "gnn-rsar", "gnn-arag", "bfs", "cc"]
        .map(|app| (app, 0.0, 0.0))
        .to_vec();
    let builders: [fn(u64, &mut Tracer) -> Apps; 3] = [Apps::mlp, Apps::fused, Apps::graph];
    for build in builders {
        let (ids, runs, cache) = s.tr.scope("fig15 pass", Layer::Harness, |tr| {
            let mut w = build(seed, tr);
            let runs = w.pass(tr, true);
            (w.cells().to_vec(), runs, w.plan_cache())
        });
        if let Some(cache) = cache {
            hits += cache.hits;
            misses += cache.misses;
        }
        for (id, run) in ids.iter().zip(&runs) {
            s.put(
                &format!("apps.{id}.wall_ms"),
                run.wall_ns as f64 / 1e6,
                "ms",
            );
            if let (Some(comm), true) = (run.comm_ns, id.ends_with(".full")) {
                let app = share
                    .iter_mut()
                    .find(|(app, _, _)| id.starts_with(&format!("{app}.")))
                    .expect("every fig15 cell belongs to one of the six apps");
                app.1 += comm;
                app.2 += run.modeled_ns;
            }
        }
    }
    for (app, comm, total) in share {
        s.put(&format!("apps.{app}.comm_share"), comm / total, "ratio");
    }
    s.put("core.engine.plan.cache_hits", hits as f64, "count");
    s.put("core.engine.plan.cache_misses", misses as f64, "count");

    let runs = s.tr.scope("chaos pass", Layer::Harness, |tr| {
        Chaos::new(seed, tr).pass(tr, false)
    });
    let records: Vec<_> = runs.iter().filter_map(|r| r.chaos.as_ref()).collect();
    let count = |f: &dyn Fn(&&ChaosRecord) -> u64| records.iter().map(f).sum::<u64>() as f64;
    let outcome = |label: &[&str]| {
        records
            .iter()
            .filter(|r| label.contains(&r.outcome))
            .count() as f64
    };
    let sup = "core.engine.supervisor";
    s.put(
        &format!("{sup}.retries"),
        count(&|r| u64::from(r.retries)),
        "count",
    );
    s.put(
        &format!("{sup}.backoff_epochs"),
        count(&|r| r.backoff_epochs),
        "count",
    );
    s.put(
        &format!("{sup}.checkpoint_restores"),
        count(&|r| r.restores),
        "count",
    );
    s.put(
        &format!("{sup}.quarantined_pes"),
        count(&|r| r.quarantined as u64),
        "count",
    );
    s.put(
        &format!("{sup}.mismatched_elems"),
        count(&|r| r.mismatched),
        "count",
    );
    s.put(
        &format!("{sup}.completed_cells"),
        outcome(&["completed"]),
        "count",
    );
    s.put(
        &format!("{sup}.degraded_cells"),
        outcome(&["degraded"]),
        "count",
    );
    s.put(
        &format!("{sup}.aborted_cells"),
        outcome(&["deadline_exceeded", "budget_exhausted"]),
        "count",
    );
}

/// Every per-layer metric, by name, for the traced run `result`.
pub fn layer_metrics(result: &RunResult, seed: u64, tr: &mut Tracer) -> Json {
    // Spans so far belong to the traced workload; the sweep's come after.
    let own = self_time_by_layer(tr.spans());
    let mut s = Sweep {
        tr,
        out: Vec::new(),
    };
    data_layer(&mut s, seed);
    sim_pe(&mut s, seed);
    sim_system(&mut s, seed);
    sim_kernels(&mut s, seed);
    core_plan(&mut s);
    core_exec(&mut s, seed);
    core_tiers(&mut s, seed);
    core_rest(&mut s, seed);
    apps_layer(&mut s, seed);

    s.put(
        "trace.overhead_pct",
        result.trace_overhead_pct().unwrap_or(f64::NAN),
        "%",
    );
    for (layer, ns) in Layer::ALL.iter().zip(own) {
        s.put(
            &format!("trace.self_ms.{}", layer.name()),
            ns as f64 / 1e6,
            "ms",
        );
    }
    let spans = s.tr.spans().len();
    s.put("trace.spans", spans as f64, "count");
    Json::Obj(s.out)
}
