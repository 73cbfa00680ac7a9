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

use std::ops::Range;
use std::sync::Arc;

use pidcomm::{
    par_pes, par_pes_with, BufferSpec, DimMask, Error, HostRows, OptLevel, Primitive, RunPolicy,
};
use pidcomm_data::MatI32;
use pim_sim::{kernels, DType, FaultPlan, ReduceKind, SystemArena};

use crate::cost::{pe_kernel_ns, CpuModel};
use crate::driver::{drive, geometry, mismatches, validated, Run, Setup, Verdict};
use crate::profile::AppProfile;
use crate::{AppRun, ResilientRun};

/// MLP configuration. The weight matrices are a pure function of
/// `(features, layer)` and are never materialized: the scatter generates
/// them row by row ([`WeightRows`]) and the CPU reference regenerates rows.
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
    /// profiles and results are byte-identical at every setting. The
    /// sweep harness passes `1`: its pool owns every thread.
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

/// Entries of every weight matrix lie in `[-W_BOUND, W_BOUND)`.
const W_BOUND: i32 = 4;

/// Seed of layer `l`'s weight matrix `MatI32::random(f, f, W_BOUND, _)`.
fn w_seed(l: usize) -> u64 {
    0x9a77 + l as u64
}

/// CPU reference: `x <- relu(W_l x)` per layer, wrapping arithmetic. It
/// regenerates each weight row from the formula and takes a contiguous
/// dot product, so it depends on neither PE memory nor the scatter's row
/// source.
fn cpu_reference(layers: usize, x0: &[i32]) -> (Vec<i32>, f64) {
    let cpu = CpuModel::xeon_5215();
    let f = x0.len();
    let mut x = x0.to_vec();
    let mut row = vec![0i32; f];
    let mut time = 0.0;
    for l in 0..layers {
        let y = (0..f).map(|r| {
            MatI32::random_row(W_BOUND, w_seed(l), r, &mut row);
            let dot = row.iter().zip(&x);
            relu(dot.fold(0i32, |acc, (&w, &xv)| acc.wrapping_add(w.wrapping_mul(xv))))
        });
        x = y.collect();
        // 2 ops per MAC; streams the whole weight matrix once.
        time += cpu.time_ns(2 * (f * f) as u64, (f * f * 4 + f * 8) as u64);
    }
    (x, time)
}

/// The weight scatter's row source (one group: the 1-D hypercube): rank
/// `r`'s row holds PE `r`'s columns `[r*cols, (r+1)*cols)` of every layer
/// as `f`-length little-endian lanes, layer-major. A lane the requested
/// range covers whole is generated straight into `dst` (the send asks for
/// whole rank rows, so every lane is); a lane it cuts is generated into a
/// one-lane scratch buffer and only the requested bytes are copied.
struct WeightRows {
    f: usize,
    cols: usize,
    layers: usize,
}

impl HostRows for WeightRows {
    fn groups(&self) -> usize {
        1
    }

    fn group_len(&self, _: usize) -> usize {
        self.layers * self.f * self.f * 4
    }

    fn fill(&self, _: usize, range: Range<usize>, dst: &mut [u8]) {
        let (lane, lanes_per_row) = (self.f * 4, self.layers * self.cols);
        let column = |k: usize, out: &mut [u8]| {
            let (pe, slot) = (k / lanes_per_row, k % lanes_per_row);
            let c = pe * self.cols + slot % self.cols;
            MatI32::random_col_le(self.f, W_BOUND, w_seed(slot / self.cols), c, out);
        };
        let mut cut = Vec::new();
        let mut at = range.start;
        while at < range.end {
            let (k, skip) = (at / lane, at % lane);
            let n = (lane - skip).min(range.end - at);
            let out = &mut dst[at - range.start..][..n];
            if n == lane {
                column(k, out);
            } else {
                cut.resize(lane, 0);
                column(k, &mut cut);
                out.copy_from_slice(&cut[skip..skip + n]);
            }
            at += n;
        }
    }
}

/// Runs the MLP benchmark and validates the PIM result against the CPU
/// reference. The weights are generated in place on both sides and never
/// materialized (see [`MlpConfig`]).
///
/// # Errors
///
/// [`pidcomm::Error::InvalidBuffer`], before anything leaves the arena,
/// unless `features`, `layers`, `pes` are positive, `features % pes == 0`
/// (whole columns per PE) and `4 × features % (8 × pes) == 0` (the
/// ReduceScatter alignment); else propagates collective validation errors.
///
/// # Panics
///
/// Panics if the PIM result diverges from the CPU reference.
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
/// As [`run_mlp`].
pub fn run_mlp_in(cfg: &MlpConfig, arena: &mut SystemArena) -> pidcomm::Result<AppRun> {
    Ok(validated(
        run_mlp_resilient_in(cfg, None, RunPolicy::default(), arena)?,
        "MLP PIM result",
    ))
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

/// As [`run_mlp_resilient`], sourcing allocations from `arena` — the one
/// MLP body behind all four runners (see [`crate::driver`]).
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
    let (p, f, layers) = (cfg.pes, cfg.features, cfg.layers);
    if p == 0 || f == 0 || layers == 0 || f % p != 0 || (f * 4) % (8 * p) != 0 {
        let want = "positive features/layers/pes, features % pes == 0, 4*features % (8*pes) == 0";
        return Err(Error::InvalidBuffer(format!("MLP needs {want}: {cfg:?}")));
    }
    let cols = f / p;
    let x0: Vec<i32> = (0..f).map(|i| ((i * 37 + 11) % 9) as i32 - 4).collect();

    // Layout: activation slice at SLICE, partial vectors at PARTIAL,
    // reduced output at OUT, weight column slices behind them.
    let slice_bytes = cols * 4;
    let partial_bytes = f * 4;
    const SLICE: usize = 0;
    let partial_off = slice_bytes.next_multiple_of(64);
    let out_off = partial_off + partial_bytes.next_multiple_of(64);
    let w_off = out_off + slice_bytes.next_multiple_of(64);
    let w_slice_bytes = layers * f * cols * 4;

    let setup = Setup {
        geom: geometry("MLP", p)?,
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
        // [p*cols, (p+1)*cols) of every W_l. Both sends read everything
        // from the host side, so a re-run needs no checkpointed MRAM state.
        let host_x: Vec<Vec<u8>> = vec![x0.iter().flat_map(|v| v.to_le_bytes()).collect()];
        let weights = WeightRows { f, cols, layers };
        run.step(&[], |sys, at| {
            at.collective(sys, &x_scatter_plan, Some(&host_x))?;
            at.collective(sys, &w_scatter_plan, Some(&weights))?;
            Ok(())
        })?;

        for l in 0..layers {
            // The live state at a layer boundary is the activation slice
            // (everything else is rewritten from it or read-only).
            run.step(&[(SLICE, slice_bytes)], |sys, at| {
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
                        kernels::decode_i32(pe.read(SLICE, cols * 4), xs);
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
                at.launch(sys, kernels);

                // ReduceScatter the partials: PE p ends with elements
                // [p*cols, (p+1)*cols) of the summed output — the warm
                // per-layer plan.
                at.collective(sys, &rs_plan, None)?;

                // The reduced slice becomes the next activation slice.
                par_pes(sys.pes_mut(), cfg.threads, |_, pe| {
                    // simlint: hot(begin, mlp slice rotate)
                    pe.copy_within_region(out_off, SLICE, slice_bytes);
                    // simlint: hot(end)
                });
                Ok(())
            })?;
        }

        // Gather the final activation (pre-ReLU of the last layer's
        // output, so apply ReLU on the host like the reference does).
        let gathered = run.step(&[], |sys, at| at.collective(sys, &gather_plan, None))?;
        let gathered = gathered.expect("gather produces host output");
        Ok(gathered[0]
            .chunks_exact(4)
            .map(|c| relu(i32::from_le_bytes(c.try_into().unwrap())))
            .collect::<Vec<i32>>())
    };
    drive(arena, fault, policy, setup, body, |result| {
        let (expected, cpu_ns) = cpu_reference(layers, &x0);
        Verdict {
            mismatched: mismatches(result.as_deref(), &expected),
            cpu_ns,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The column-order reference this module used before the row
    /// generator: walks each materialized matrix down its columns.
    fn cpu_reference_by_columns(layers: usize, x0: &[i32]) -> Vec<i32> {
        let f = x0.len();
        let mut x = x0.to_vec();
        for l in 0..layers {
            let w = MatI32::random(f, f, W_BOUND, w_seed(l));
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
        }
        x
    }

    /// The per-element staging loop this module used before the column
    /// generator: transposes materialized matrices into PE order.
    fn stage_weights_by_elements(f: usize, cols: usize, layers: usize) -> Vec<u8> {
        let weights: Vec<MatI32> = (0..layers)
            .map(|l| MatI32::random(f, f, W_BOUND, w_seed(l)))
            .collect();
        let mut image = Vec::new();
        for dst_pe in 0..f / cols {
            for w in &weights {
                for c in dst_pe * cols..(dst_pe + 1) * cols {
                    for r in 0..f {
                        image.extend_from_slice(&w.get(r, c).to_le_bytes());
                    }
                }
            }
        }
        image
    }

    #[test]
    fn row_order_reference_equals_the_column_order_one() {
        for (f, layers) in [(64, 1), (96, 3), (512, 3)] {
            // Zeros, negatives, and magnitudes whose products with a
            // weight of -4 wrap past `i32::MIN`.
            let x0: Vec<i32> = (0..f)
                .map(|i| match i % 5 {
                    0 => 0,
                    1 => -i,
                    2 => i32::MIN + i,
                    3 => i32::MAX - i,
                    _ => i * 7919,
                })
                .collect();
            let (got, _) = cpu_reference(layers, &x0);
            assert_eq!(got, cpu_reference_by_columns(layers, &x0), "f {f}");
        }
    }

    #[test]
    fn generated_image_equals_the_transposed_matrices() {
        let layers = 3;
        for (f, p) in [(64, 64), (96, 8), (512, 64)] {
            let cols = f / p;
            let expected = stage_weights_by_elements(f, cols, layers);
            let weights = WeightRows { f, cols, layers };
            assert_eq!(weights.group_len(0), expected.len(), "f {f} P {p}");
            let row = expected.len() / p;
            let mut image = Vec::new();
            for r in 0..p {
                // Stale contents, as a recycled send block holds.
                let mut block = vec![0xA5u8; row];
                weights.fill(0, r * row..(r + 1) * row, &mut block);
                image.extend_from_slice(&block);
            }
            assert!(image == expected, "f {f} P {p}");
        }
    }

    #[test]
    fn any_byte_range_equals_the_same_bytes_of_a_whole_fill() {
        let (f, p, layers) = (64, 8, 2);
        let weights = WeightRows {
            f,
            cols: f / p,
            layers,
        };
        let total = weights.group_len(0);
        let mut whole = vec![0xA5u8; total];
        weights.fill(0, 0..total, &mut whole);
        // Lane boundaries (every 256 B), rank rows (every 4 KiB), and
        // starts and lengths that cut a lane or fit inside one.
        let starts = [0, 1, 3, 4, 100, 255, 256, 257, 511, 4095, 4096, 4099];
        let lens = [
            0, 1, 2, 3, 4, 5, 200, 255, 256, 257, 300, 512, 767, 4096, 5000,
        ];
        for start in starts.into_iter().chain([total - 300, total - 1]) {
            for len in lens.into_iter().filter(|&len| start + len <= total) {
                let mut got = vec![0xA5u8; len];
                weights.fill(0, start..start + len, &mut got);
                assert!(got == whole[start..start + len], "({start}, {len})");
            }
        }
    }

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
