//! Analytic plan autotuning, FFTW-`MEASURE` style.
//!
//! Cost-only execution ([`CollectivePlan::execute_cost_only`]) makes a
//! modeled time orders of magnitude cheaper than a functional run, which
//! turns plan selection into a search problem: for a given (primitive,
//! payload, PE budget), enumerate every legal hypercube shape ×
//! entangled-group mask × optimization level, score each candidate
//! analytically, and hand back the best [`CollectivePlan`].
//!
//! The search is **exhaustive and deterministic**: shapes are enumerated
//! in a fixed lexicographic order (ordered factorizations with
//! power-of-two non-final dimensions, as [`HypercubeShape`] requires),
//! masks in ascending bit-pattern order, opt levels in the caller's order,
//! and ties break toward the earliest candidate (strictly-smaller time
//! wins). Scores come from [`CollectivePlan::cost_only_report`], which
//! never reads the thread budget, so the same request produces the same
//! winning plan at any thread count — pinned by `tests/cost_only.rs`.
//!
//! Candidates whose plan fails validation (payload not divisible by the
//! candidate group size, mismatched shape, …) are skipped and counted, so
//! a [`TuneReport`] always accounts for the full frontier.

use pim_sim::dtype::ReduceKind;
use pim_sim::geometry::DimmGeometry;
use pim_sim::TimeModel;

use crate::config::{OptLevel, Primitive};
use crate::engine::plan::CollectivePlan;
use crate::engine::BufferSpec;
use crate::error::{Error, Result};
use crate::hypercube::{DimMask, HypercubeManager, HypercubeShape};

/// Maximum hypercube rank enumerated (the paper's design space uses up to
/// 3-D shapes; higher ranks grow the frontier combinatorially).
const MAX_DIMS: usize = 3;

/// What to tune for: one collective over one payload geometry and PE
/// budget. Construct with [`TuneRequest::new`], then narrow the search
/// with the builder methods.
#[derive(Debug, Clone)]
pub struct TuneRequest {
    /// The collective to plan.
    pub primitive: Primitive,
    /// Payload layout (offsets, bytes per node, element type).
    pub spec: BufferSpec,
    /// Reduction operator (ignored by non-reducing primitives).
    pub op: ReduceKind,
    /// The physical PE budget candidates are mapped onto.
    pub geometry: DimmGeometry,
    /// Optimization levels to explore, in order.
    pub opts: Vec<OptLevel>,
    /// When set, only candidates whose communication-group size equals
    /// this value are explored — tuning the *layout* of a fixed logical
    /// collective rather than changing its semantics.
    pub group_size: Option<usize>,
    /// Thread budget recorded into the winning plan (`0` = auto). Never
    /// affects scoring: cost-only execution ignores it.
    pub threads: usize,
}

impl TuneRequest {
    /// A request with the default search space: `Full` optimization only,
    /// `Sum`, any group size, shapes up to 3-D, auto threads.
    pub fn new(primitive: Primitive, spec: BufferSpec, geometry: DimmGeometry) -> Self {
        Self {
            primitive,
            spec,
            op: ReduceKind::Sum,
            geometry,
            opts: vec![OptLevel::Full],
            group_size: None,
            threads: 0,
        }
    }

    /// Sets the optimization levels to explore (explored in this order).
    #[must_use]
    pub fn with_opts(mut self, opts: Vec<OptLevel>) -> Self {
        self.opts = opts;
        self
    }

    /// Restricts the search to candidates with this communication-group
    /// size.
    #[must_use]
    pub fn with_group_size(mut self, n: usize) -> Self {
        self.group_size = Some(n);
        self
    }

    /// Sets the thread budget recorded into the winning plan.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// One scored point of the explored frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneCandidate {
    /// Hypercube dimensions, innermost first (as [`HypercubeShape::new`]).
    pub dims: Vec<usize>,
    /// The dimension mask as a `'0'`/`'1'` string (char `i` = dim `i`).
    pub mask: String,
    /// Optimization level.
    pub opt: OptLevel,
    /// Communication-group size of this candidate.
    pub group_size: usize,
    /// Analytically modeled execution time (bit-identical to what a
    /// functional run of this candidate would report).
    pub modeled_ns: f64,
}

/// The explored frontier of one [`autotune`] call — reusable: the same
/// report can rank alternatives, feed a bench table, or seed a narrower
/// follow-up search.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Every legally planned candidate, in deterministic search order.
    pub explored: Vec<TuneCandidate>,
    /// Candidates whose plan failed validation and were skipped.
    pub skipped: usize,
    /// Index of the winner in `explored`.
    pub best: usize,
}

impl TuneReport {
    /// The winning candidate.
    pub fn best(&self) -> &TuneCandidate {
        &self.explored[self.best]
    }
}

/// Enumerates every legal hypercube shape over `num_pes` nodes with at
/// most [`MAX_DIMS`] dimensions, in lexicographic order: each non-final
/// dimension is a power-of-two factor ≥ 2 (the [`HypercubeShape`]
/// constraint), the final dimension is whatever remains.
fn enumerate_shapes(num_pes: usize) -> Vec<Vec<usize>> {
    fn rec(rem: usize, slots_left: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        // Close the shape here: `rem` becomes the final dimension.
        prefix.push(rem);
        out.push(prefix.clone());
        prefix.pop();
        if slots_left <= 1 {
            return;
        }
        // Or peel a power-of-two factor as a non-final dimension.
        let mut f = 2;
        while f < rem {
            if rem.is_multiple_of(f) {
                prefix.push(f);
                rec(rem / f, slots_left - 1, prefix, out);
                prefix.pop();
            }
            f *= 2;
        }
    }
    let mut out = Vec::new();
    if num_pes > 0 {
        rec(num_pes, MAX_DIMS, &mut Vec::new(), &mut out);
    }
    out
}

/// Exhaustively searches hypercube shapes × entangled-group masks × opt
/// levels for `req`, scoring every candidate with cost-only execution
/// under `model`, and returns the best plan together with the explored
/// frontier.
///
/// Deterministic at any `req.threads` (see the module docs); the winner's
/// modeled time is ≤ every explored candidate's, including whatever
/// default shape the caller uses today.
///
/// # Errors
///
/// Returns [`Error::InvalidBuffer`] when no candidate in the search space
/// plans successfully (e.g. the payload is not divisible by any legal
/// group size).
pub fn autotune(req: &TuneRequest, model: &TimeModel) -> Result<(CollectivePlan, TuneReport)> {
    let num_pes = req.geometry.num_pes();
    let mut explored = Vec::new();
    let mut skipped = 0usize;
    let mut best: Option<(usize, CollectivePlan, f64)> = None;

    for dims in enumerate_shapes(num_pes) {
        let rank = dims.len();
        let Ok(shape) = HypercubeShape::new(dims.clone()) else {
            skipped += 1;
            continue;
        };
        let Ok(manager) = HypercubeManager::new(shape, req.geometry) else {
            skipped += 1;
            continue;
        };
        for pattern in 1u32..(1u32 << rank) {
            let bits: Vec<bool> = (0..rank).map(|i| pattern >> i & 1 == 1).collect();
            let group_size: usize = dims
                .iter()
                .zip(&bits)
                .filter(|(_, &sel)| sel)
                .map(|(&d, _)| d)
                .product();
            if let Some(want) = req.group_size {
                if group_size != want {
                    continue;
                }
            }
            let Ok(mask) = DimMask::new(bits.clone()) else {
                skipped += 1;
                continue;
            };
            for &opt in &req.opts {
                let plan = CollectivePlan::build(
                    &manager,
                    opt,
                    req.primitive,
                    &mask,
                    &req.spec,
                    req.op,
                    req.threads,
                );
                let Ok(plan) = plan else {
                    skipped += 1;
                    continue;
                };
                let modeled_ns = plan.cost_only_report(model).time_ns();
                let idx = explored.len();
                explored.push(TuneCandidate {
                    dims: dims.clone(),
                    mask: bits.iter().map(|&b| if b { '1' } else { '0' }).collect(),
                    opt,
                    group_size,
                    modeled_ns,
                });
                // Strictly-smaller wins: ties keep the earliest candidate,
                // so the result is independent of everything but the fixed
                // enumeration order.
                if best.as_ref().is_none_or(|(_, _, t)| modeled_ns < *t) {
                    best = Some((idx, plan, modeled_ns));
                }
            }
        }
    }

    match best {
        Some((idx, plan, _)) => Ok((
            plan,
            TuneReport {
                explored,
                skipped,
                best: idx,
            },
        )),
        None => Err(Error::InvalidBuffer(format!(
            "autotune: no legal (shape, mask, opt) configuration for {} over {num_pes} PEs \
             with bytes_per_node {}",
            req.primitive, req.spec.bytes_per_node
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_enumeration_is_exhaustive_and_legal() {
        let shapes = enumerate_shapes(64);
        // Every shape multiplies back to 64 and non-final dims are
        // powers of two >= 2.
        for dims in &shapes {
            assert_eq!(dims.iter().product::<usize>(), 64, "{dims:?}");
            assert!(dims.len() <= 3);
            for &d in &dims[..dims.len() - 1] {
                assert!(d.is_power_of_two() && d >= 2, "{dims:?}");
            }
            assert!(HypercubeShape::new(dims.clone()).is_ok(), "{dims:?}");
        }
        // No duplicates, deterministic order.
        let again = enumerate_shapes(64);
        assert_eq!(shapes, again);
        let mut dedup = shapes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), shapes.len());
        // 64 = 2^6: compositions of 6 into at most 3 parts = 1 + 5 + 10.
        assert_eq!(shapes.len(), 16);
    }

    #[test]
    fn shape_enumeration_handles_non_power_of_two_tail() {
        // 48 = 16 x 3: the final dimension may be any remainder.
        for dims in enumerate_shapes(48) {
            assert_eq!(dims.iter().product::<usize>(), 48);
            for &d in &dims[..dims.len() - 1] {
                assert!(d.is_power_of_two());
            }
        }
    }
}
