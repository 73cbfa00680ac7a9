//! Multi-layer perceptron on the PID-Comm framework (§VII-E).
//!
//! The feature matrix is column-partitioned across the PEs (1-D
//! hypercube): PE `p` owns `f/P` columns of each weight matrix and the
//! matching slice of the activation vector. Each layer computes a
//! full-length *partial* output vector per PE (its columns' contribution),
//! which a ReduceScatter sums and redistributes so every PE ends with its
//! slice of the next activation — exactly the paper's structure
//! (Scatter → [kernel → ReduceScatter]×L → Gather). The per-layer
//! ReduceScatter plan is built once for the whole stack (pooled in the
//! worker's arena plan cache) and re-executed each layer.

use std::sync::Arc;

use pidcomm::{
    par_chunks, par_pes, par_pes_with, BufferSpec, DimMask, OptLevel, Primitive, RunPolicy,
};
use pidcomm_data::MatI32;
use pim_sim::{kernels, DType, DimmGeometry, FaultPlan, ReduceKind, SystemArena};

use crate::cost::{pe_kernel_ns, CpuModel};
use crate::driver::{drive, mismatches, validated, Run, Setup, Supervision, Verdict};
use crate::profile::AppProfile;
use crate::{AppRun, ResilientRun};

/// MLP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlpConfig {
    /// Feature width `f` (the paper uses 16k and 32k; scaled presets use
    /// 2048 and 4096 — the same 8× scaling as the datasets).
    pub features: usize,
    /// Number of layers (the paper uses 5).
    pub layers: usize,
    /// Number of PEs.
    pub pes: usize,
    /// Communication optimization level (Baseline vs PID-Comm).
    pub opt: OptLevel,
    /// Engine thread budget for the app's collectives: `0` = auto,
    /// `1` = the serial reference schedule. Purely an execution knob —
    /// profiles and results are byte-identical at every setting — and the
    /// sweep harness uses it to split a machine budget between concurrent
    /// app runs and per-run cluster fan-out.
    pub threads: usize,
}

impl MlpConfig {
    /// The paper's "16k" configuration, scaled 8×.
    pub fn feat16k(pes: usize, opt: OptLevel) -> Self {
        Self {
            features: 2048,
            layers: 5,
            pes,
            opt,
            threads: 0,
        }
    }

    /// The paper's "32k" configuration, scaled 8×.
    pub fn feat32k(pes: usize, opt: OptLevel) -> Self {
        Self {
            features: 4096,
            layers: 5,
            pes,
            opt,
            threads: 0,
        }
    }

    fn label(&self) -> String {
        format!("{}f", self.features)
    }
}

fn relu(v: i32) -> i32 {
    v.max(0)
}

/// CPU reference: `x <- relu(W_l x)` per layer, wrapping arithmetic.
fn cpu_reference(weights: &[MatI32], x0: &[i32]) -> (Vec<i32>, f64) {
    let cpu = CpuModel::xeon_5215();
    let f = x0.len();
    let mut x = x0.to_vec();
    let mut time = 0.0;
    for w in weights {
        let mut y = vec![0i32; f];
        for (c, &xv) in x.iter().enumerate() {
            if xv == 0 {
                continue;
            }
            for (r, yv) in y.iter_mut().enumerate() {
                *yv = yv.wrapping_add(w.get(r, c).wrapping_mul(xv));
            }
        }
        x = y.into_iter().map(relu).collect();
        // 2 ops per MAC; streams the whole weight matrix once.
        time += cpu.time_ns(2 * (f * f) as u64, (f * f * 4 + f * 8) as u64);
    }
    (x, time)
}

/// Runs the MLP benchmark and validates the PIM result against the CPU
/// reference.
///
/// # Errors
///
/// Propagates collective validation errors.
///
/// # Panics
///
/// Panics if `features` is not divisible by `8 × pes / 4` (the
/// ReduceScatter alignment) or if validation fails.
pub fn run_mlp(cfg: &MlpConfig) -> pidcomm::Result<AppRun> {
    run_mlp_in(cfg, &mut SystemArena::new())
}

/// As [`run_mlp`], but sourcing the `PimSystem` and staging buffers from
/// `arena` (and returning them to it), so repeated runs — e.g. consecutive
/// sweep cells on one worker — reuse allocations. Results are
/// byte-identical to [`run_mlp`].
///
/// # Errors
///
/// Propagates collective validation errors.
pub fn run_mlp_in(cfg: &MlpConfig, arena: &mut SystemArena) -> pidcomm::Result<AppRun> {
    Ok(validated(mlp(cfg, None, arena)?, "MLP PIM result"))
}

/// As [`run_mlp`], but under run-level supervision (see
/// [`pidcomm::engine::supervisor`]): the same body, with collectives run
/// verified under quarantine-aware recovery, each layer committed through
/// an iteration checkpoint of the live activation slice, and
/// unrecoverable faults ending the run with a typed outcome instead of a
/// panic. With `fault = None` the profile and outputs are bit-identical
/// to [`run_mlp`].
///
/// # Errors
///
/// Propagates collective validation errors (never typed fault errors —
/// those are consumed by the supervisor).
pub fn run_mlp_resilient(
    cfg: &MlpConfig,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
) -> pidcomm::Result<ResilientRun> {
    run_mlp_resilient_in(cfg, fault, policy, &mut SystemArena::new())
}

/// As [`run_mlp_resilient`], sourcing allocations from `arena`.
///
/// # Errors
///
/// As [`run_mlp_resilient`].
pub fn run_mlp_resilient_in(
    cfg: &MlpConfig,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
    arena: &mut SystemArena,
) -> pidcomm::Result<ResilientRun> {
    mlp(cfg, Some((fault, policy)), arena)
}

/// The one MLP body behind all four runners (see [`crate::driver`]).
fn mlp(
    cfg: &MlpConfig,
    supervision: Supervision,
    arena: &mut SystemArena,
) -> pidcomm::Result<ResilientRun> {
    let p = cfg.pes;
    let f = cfg.features;
    assert_eq!(f % p, 0, "features must divide evenly across PEs");
    assert_eq!((f * 4) % (8 * p), 0, "ReduceScatter alignment: 4f % 8P");
    let cols = f / p;

    // Deterministic weights and input.
    let weights: Vec<MatI32> = (0..cfg.layers)
        .map(|l| MatI32::random(f, f, 4, 0x9a77 + l as u64))
        .collect();
    let x0: Vec<i32> = (0..f).map(|i| ((i * 37 + 11) % 9) as i32 - 4).collect();

    // Layout: activation slice at SLICE, partial vectors at PARTIAL,
    // reduced output at OUT, weight column slices behind them.
    let slice_bytes = cols * 4;
    let partial_bytes = f * 4;
    const SLICE: usize = 0;
    let partial_off = slice_bytes.next_multiple_of(64);
    let out_off = partial_off + partial_bytes.next_multiple_of(64);
    let w_off = out_off + slice_bytes.next_multiple_of(64);
    let w_slice_bytes = cfg.layers * f * cols * 4;

    let setup = Setup {
        geom: DimmGeometry::with_pes(p),
        dims: vec![p],
        opt: cfg.opt,
        threads: cfg.threads,
        profile: AppProfile::new("MLP", cfg.label()),
    };
    let body = |run: &mut Run<'_>| {
        let mask = DimMask::all(run.comm.manager().shape());
        let mut plan = |primitive, src, dst, bytes| {
            let spec = BufferSpec::new(src, dst, bytes).with_dtype(DType::I32);
            run.comm
                .plan_cached(&mut run.plans, primitive, &mask, &spec, ReduceKind::Sum)
        };
        let x_scatter_plan = plan(Primitive::Scatter, 0, SLICE, slice_bytes)?;
        let w_scatter_plan = plan(Primitive::Scatter, 0, w_off, w_slice_bytes)?;
        // The per-layer reduction plan, built once for the whole stack
        // (and pooled across runs): every layer issues the identical
        // ReduceScatter, so planning per call was pure per-layer overhead.
        let rs_plan = plan(
            Primitive::ReduceScatter,
            partial_off,
            out_off,
            partial_bytes,
        )?;
        let gather_plan = plan(Primitive::Gather, SLICE, 0, slice_bytes)?;

        // Setup: scatter the initial activation slices and the weight
        // column slices (all layers at once): PE p receives columns
        // [p*cols, (p+1)*cols) of every W_l. Both sends restage everything
        // from host buffers, so a re-run needs no checkpointed MRAM state.
        let host_x: Vec<Vec<u8>> = vec![x0.iter().flat_map(|v| v.to_le_bytes()).collect()];
        let mut w_host = run.arena.bytes(p * w_slice_bytes);
        par_chunks(&mut w_host, w_slice_bytes, cfg.threads, |dst_pe, chunk| {
            let mut off = 0;
            for w in &weights {
                for c in dst_pe * cols..(dst_pe + 1) * cols {
                    for r in 0..f {
                        chunk[off..off + 4].copy_from_slice(&w.get(r, c).to_le_bytes());
                        off += 4;
                    }
                }
            }
        });
        let scattered = run.step(&[], |sys, at| {
            let x = at.collective(sys, &x_scatter_plan, Some(&host_x))?;
            let w = at.collective(sys, &w_scatter_plan, Some(core::slice::from_ref(&w_host)))?;
            Ok([x.report, w.report])
        });
        // The image is dead once the setup step is over (a retry happens
        // inside it); hand it back before the layers run, aborted or not.
        run.arena.recycle_bytes(w_host);
        for report in &scattered? {
            run.profile.record(report);
        }

        for l in 0..cfg.layers {
            // The live state at a layer boundary is the activation slice
            // (everything else is rewritten from it or read-only).
            let (kernel, report) = run.step(&[(SLICE, slice_bytes)], |sys, at| {
                // PE kernel: partial_p = sum over owned columns c of
                // x[c] * W[:,c], with ReLU applied to the incoming slice
                // (except the first layer, whose input is raw). One
                // host-kernel work item per PE; the activation slice and
                // partial vector live in per-worker scratch, and the gemv
                // runs as fused decode+axpy over the weight columns
                // already staged *in PE MRAM* (each owned column is a
                // contiguous f-length typed lane there — the layout the
                // scatter built).
                let kernels = par_pes_with(
                    sys.pes_mut(),
                    cfg.threads,
                    || (vec![0i32; cols], vec![0i32; f]),
                    |(xs, partial), _, pe| {
                        // simlint: hot(begin, mlp gemv)
                        pe.read_i32s(SLICE, xs);
                        if l > 0 {
                            kernels::relu_i32(xs);
                        }
                        partial.fill(0);
                        let layer_off = w_off + l * cols * f * 4;
                        let wbytes = pe.read(layer_off, cols * f * 4);
                        for (ci, &xv) in xs.iter().enumerate() {
                            if xv == 0 {
                                continue;
                            }
                            kernels::axpy_i32_bytes(
                                partial,
                                xv,
                                &wbytes[ci * f * 4..(ci + 1) * f * 4],
                            );
                        }
                        pe.write_i32s(partial_off, partial);
                        pe_kernel_ns((f * cols * 4 + f * 8) as u64, (12 * f * cols) as u64)
                        // simlint: hot(end)
                    },
                );
                let kernel = Run::launch(sys, kernels);

                // ReduceScatter the partials: PE p ends with elements
                // [p*cols, (p+1)*cols) of the summed output — the warm
                // per-layer plan.
                let report = at.collective(sys, &rs_plan, None)?.report;

                // The reduced slice becomes the next activation slice.
                par_pes(sys.pes_mut(), cfg.threads, |_, pe| {
                    // simlint: hot(begin, mlp slice rotate)
                    pe.copy_within_region(out_off, SLICE, slice_bytes);
                    // simlint: hot(end)
                });
                Ok((kernel, report))
            })?;
            run.record_kernel(kernel);
            run.profile.record(&report);
        }

        // Gather the final activation (pre-ReLU of the last layer's
        // output, so apply ReLU on the host like the reference does).
        let gathered = run.step(&[], |sys, at| at.collective(sys, &gather_plan, None))?;
        run.profile.record(&gathered.report);
        let gathered = gathered.host_out.expect("gather produces host output");
        Ok(gathered[0]
            .chunks_exact(4)
            .map(|c| relu(i32::from_le_bytes(c.try_into().unwrap())))
            .collect::<Vec<i32>>())
    };
    drive(arena, supervision, setup, body, |result| {
        let (expected, cpu_ns) = cpu_reference(&weights, &x0);
        Verdict {
            mismatched: mismatches(result.as_deref(), &expected),
            cpu_ns,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_validates_on_64_pes() {
        let cfg = MlpConfig {
            threads: 0,
            features: 512,
            layers: 3,
            pes: 64,
            opt: OptLevel::Full,
        };
        let run = run_mlp(&cfg).unwrap();
        assert!(run.validated);
        assert!(run.profile.total_ns() > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::ReduceScatter) > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::Scatter) > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::Gather) > 0.0);
        assert!(run.cpu_ns > 0.0);
    }

    #[test]
    fn baseline_is_slower_but_equal() {
        let full = run_mlp(&MlpConfig {
            threads: 0,
            features: 512,
            layers: 3,
            pes: 64,
            opt: OptLevel::Full,
        })
        .unwrap();
        let base = run_mlp(&MlpConfig {
            threads: 0,
            features: 512,
            layers: 3,
            pes: 64,
            opt: OptLevel::Baseline,
        })
        .unwrap();
        assert!(base.validated && full.validated);
        assert!(
            base.profile.comm_ns() > full.profile.comm_ns(),
            "baseline comm should be slower"
        );
        // Kernels are identical.
        assert!((base.profile.kernel_ns - full.profile.kernel_ns).abs() < 1e-6);
    }
}
