//! Prepared execution: validate and stage once, execute many — and fused
//! multi-step plans with no intermediate host staging.
//!
//! A [`CollectivePlan`] holds every payload-*independent* derivation; this
//! module holds the payload-*dependent* per-call work that can be hoisted
//! out of an iteration loop as well:
//!
//! * [`PreparedScatter`] validates a Scatter/Broadcast's `host_in` once
//!   and assembles its row image once, into a buffer that can be pooled in
//!   a [`SystemArena`]. Repeat executes then skip validation and row
//!   assembly entirely — the rooted-send executor slices the image where
//!   the per-call path fills a scratch block, and everything around it is
//!   the one dispatch, so reports and PE bytes are bit-identical (pinned
//!   by `tests/prepared.rs`).
//! * [`FusedPlan`] chains 2+ plans of one geometry into a single execution
//!   unit: step *k*'s output rows sit in PE MRAM exactly where step
//!   *k+1*'s plan reads them, with optional host kernels ([`FusedPlan::
//!   execute_with`] hooks) between steps and **no host staging round-trip
//!   anywhere in the chain**. Each step keeps its own fault epoch, cost
//!   sheet and meter window, so per-step [`CommReport`]s are bit-identical
//!   to issuing the plans separately — fusion removes host-side copies and
//!   per-call overhead, never changes the charged schedule.
//!
//! # Fusion contract
//!
//! [`FusedPlan::new`] enforces the chain shape: at least two steps, all
//! sharing one [`DimmGeometry`]; only the first step may be a host-rooted
//! send (Scatter/Broadcast — staged via [`PreparedScatter`]), only the
//! last may be a host-rooted receive (Gather/Reduce), and every step's
//! buffers must satisfy its own plan validation. Inter-step hooks must
//! derive everything they write from host state plus MRAM the chain's
//! rollback regions cover ([`FusedPlan::with_regions`] adds hook-written
//! regions), so a verified retry of the chain re-runs them
//! deterministically — see [`crate::engine::recovery`].
//!
//! # Lifecycle
//!
//! plan (once) → prepare/fuse (once per payload) → execute ×N. Restage
//! ([`PreparedScatter::restage`]) refreshes the image in place when the
//! payload changes; [`PreparedScatter::retire`] returns the buffer to the
//! arena pool.

use std::sync::Arc;

use pim_sim::geometry::DimmGeometry;
use pim_sim::{PimSystem, SystemArena};

use crate::config::Primitive;
use crate::engine::plan::CollectivePlan;
use crate::engine::streaming::{self, Rows};
use crate::engine::{validate_host_in, Execution};
use crate::error::{Error, Result};
use crate::report::CommReport;

/// A Scatter/Broadcast with its host payload validated and pre-staged
/// into one per-cluster row image. See the module docs.
pub struct PreparedScatter {
    plan: Arc<CollectivePlan>,
    /// The staged row image ([`streaming::stage_rows`] layout).
    rows: Vec<u8>,
    /// Base offset of each cluster's block in `rows`, in plan order.
    offsets: Vec<usize>,
}

impl PreparedScatter {
    fn check_plan(plan: &CollectivePlan) -> Result<()> {
        if !matches!(plan.primitive(), Primitive::Scatter | Primitive::Broadcast) {
            return Err(Error::InvalidHostData(format!(
                "{} takes no host input rows; only Scatter and Broadcast can be prepared",
                plan.primitive()
            )));
        }
        Ok(())
    }

    fn validate(plan: &CollectivePlan, host_in: &[Vec<u8>]) -> Result<()> {
        Self::check_plan(plan)?;
        validate_host_in(
            plan.primitive,
            plan.spec.bytes_per_node,
            plan.n,
            plan.num_groups(),
            Some(&host_in),
        )
    }

    /// Validates `host_in` against `plan` and stages its rows into a
    /// fresh image.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidHostData`] for non-rooted-send plans or host
    /// buffers of the wrong count/size.
    pub fn stage(plan: Arc<CollectivePlan>, host_in: &[Vec<u8>]) -> Result<Self> {
        Self::validate(&plan, host_in)?;
        let mut rows = vec![0u8; streaming::staged_len(&plan)];
        let offsets = streaming::stage_rows(&plan, &host_in, &mut rows);
        Ok(Self {
            plan,
            rows,
            offsets,
        })
    }

    /// As [`PreparedScatter::stage`], with the image checked out of
    /// `arena`'s byte pool instead of freshly allocated — pair with
    /// [`PreparedScatter::retire`] so iteration-heavy sweeps reuse one
    /// allocation across cells.
    ///
    /// # Errors
    ///
    /// As [`PreparedScatter::stage`].
    pub fn stage_in(
        plan: Arc<CollectivePlan>,
        host_in: &[Vec<u8>],
        arena: &mut SystemArena,
    ) -> Result<Self> {
        Self::validate(&plan, host_in)?;
        let mut rows = arena.raw_bytes(streaming::staged_len(&plan));
        let offsets = streaming::stage_rows(&plan, &host_in, &mut rows);
        Ok(Self {
            plan,
            rows,
            offsets,
        })
    }

    /// Re-validates and re-stages a new payload into the existing image
    /// (no reallocation): the warm path for loops whose payload changes
    /// every iteration but whose plan does not.
    ///
    /// # Errors
    ///
    /// As [`PreparedScatter::stage`]; on error the image is unchanged.
    pub fn restage(&mut self, host_in: &[Vec<u8>]) -> Result<()> {
        Self::validate(&self.plan, host_in)?;
        self.offsets = streaming::stage_rows(&self.plan, &host_in, &mut self.rows);
        Ok(())
    }

    /// The plan this payload was staged for.
    pub fn plan(&self) -> &Arc<CollectivePlan> {
        &self.plan
    }

    /// Executes the prepared collective: identical charging, fault
    /// epoching and row landings to
    /// [`CollectivePlan::execute_with_host`], minus the per-call
    /// validation and row assembly.
    ///
    /// # Errors
    ///
    /// [`Error::ShapeSystemMismatch`] on a geometry mismatch, plus the
    /// fault-layer errors of any execution.
    pub fn execute(&self, sys: &mut PimSystem) -> Result<CommReport> {
        self.run(sys).map(|e| e.report)
    }

    /// Internal execute returning the full [`Execution`] (fused steps
    /// and the recovery tier share it).
    pub(crate) fn run(&self, sys: &mut PimSystem) -> Result<Execution> {
        self.plan.check_geometry(sys.geometry())?;
        let rows = Rows::Staged {
            image: &self.rows,
            offsets: &self.offsets,
        };
        self.plan.dispatch(sys, Some(rows))
    }

    /// Rebuilds the original per-group host buffers from the staged image
    /// (its exact inverse) — the degraded-recompute path's input, so
    /// prepared execution never retains a second copy of `host_in`.
    pub(crate) fn unstage(&self) -> Vec<Vec<u8>> {
        streaming::unstage_rows(&self.plan, &self.rows, &self.offsets)
    }

    /// Returns the image buffer to `arena`'s byte pool.
    pub fn retire(self, arena: &mut SystemArena) {
        arena.recycle_bytes(self.rows);
    }
}

/// Outcome of one fused-chain execution: per-step reports (bit-identical
/// to issuing the plans separately) and the final step's host outputs.
#[derive(Debug, Clone)]
pub struct FusedExecution {
    /// One report per step, in chain order.
    pub reports: Vec<CommReport>,
    /// Host output buffers of a trailing Gather/Reduce step.
    pub host_out: Option<Vec<Vec<u8>>>,
}

/// A chain of 2+ collectives over one geometry executed as a unit. See
/// the module docs for the fusion contract.
pub struct FusedPlan {
    steps: Vec<Arc<CollectivePlan>>,
    /// Merged union of every step's touched MRAM windows plus any
    /// hook-written extras — the rollback image a verified retry of the
    /// chain needs.
    regions: Vec<(usize, usize)>,
}

/// Merges a region list into a minimal sorted set of disjoint windows.
fn merge_regions(mut regs: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    regs.retain(|&(_, len)| len > 0);
    regs.sort_unstable();
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for (off, len) in regs {
        match merged.last_mut() {
            Some((m_off, m_len)) if off <= *m_off + *m_len => {
                let end = (off + len).max(*m_off + *m_len);
                *m_len = end - *m_off;
            }
            _ => merged.push((off, len)),
        }
    }
    merged
}

impl FusedPlan {
    /// Fuses `steps` into one chain, validating the fusion contract:
    /// ≥ 2 steps, one shared geometry, host-rooted sends only first,
    /// host-rooted receives only last.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidHostData`] on a contract violation,
    /// [`Error::ShapeSystemMismatch`] on mixed geometries.
    pub fn new(steps: Vec<Arc<CollectivePlan>>) -> Result<Self> {
        Self::with_regions(steps, &[])
    }

    /// As [`FusedPlan::new`], additionally covering `extra` MRAM windows
    /// `(offset, len)` in the chain's rollback image — every region an
    /// inter-step hook writes must be listed here, or a mid-chain retry
    /// would re-run the hook over half-committed state.
    ///
    /// # Errors
    ///
    /// As [`FusedPlan::new`].
    pub fn with_regions(steps: Vec<Arc<CollectivePlan>>, extra: &[(usize, usize)]) -> Result<Self> {
        if steps.len() < 2 {
            return Err(Error::InvalidHostData(format!(
                "a fused plan chains at least 2 steps; got {}",
                steps.len()
            )));
        }
        for step in &steps[1..] {
            steps[0].check_geometry(&step.geometry)?;
        }
        let last = steps.len() - 1;
        for (k, step) in steps.iter().enumerate() {
            let p = step.primitive();
            if k > 0 && matches!(p, Primitive::Scatter | Primitive::Broadcast) {
                return Err(Error::InvalidHostData(format!(
                    "step {k} is a host-rooted send ({p}); only the first fused step may be"
                )));
            }
            if k < last && matches!(p, Primitive::Gather | Primitive::Reduce) {
                return Err(Error::InvalidHostData(format!(
                    "step {k} is a host-rooted receive ({p}); only the last fused step may be"
                )));
            }
        }
        let mut regions: Vec<(usize, usize)> = steps
            .iter()
            .flat_map(|s| s.touched_regions())
            .chain(extra.iter().copied())
            .collect();
        regions = merge_regions(regions);
        Ok(Self { steps, regions })
    }

    /// The chained plans, in execution order.
    pub fn steps(&self) -> &[Arc<CollectivePlan>] {
        &self.steps
    }

    /// The shared geometry of every step.
    pub fn geometry(&self) -> &DimmGeometry {
        &self.steps[0].geometry
    }

    /// The merged MRAM windows a rollback image of one chain execution
    /// must cover: every step's touched regions plus the hook-written
    /// extras passed to [`FusedPlan::with_regions`]. Apps extend their
    /// iteration checkpoint lists with these.
    pub fn regions(&self) -> &[(usize, usize)] {
        &self.regions
    }

    /// Executes the chain with no prepared input and no inter-step hooks
    /// (the first step must not be host-rooted).
    ///
    /// # Errors
    ///
    /// As [`FusedPlan::execute_with`].
    pub fn execute(&self, sys: &mut PimSystem) -> Result<FusedExecution> {
        self.execute_with(sys, None, |_, _| Ok(()))
    }

    /// Executes the chain: step 0 from its [`PreparedScatter`] when the
    /// chain starts with a rooted send, then each subsequent step directly
    /// over the previous step's in-MRAM output, with `hook(k, sys)` run
    /// between step `k` and `k + 1` (host kernels on the intermediate
    /// state). Each step charges and reports exactly as a standalone
    /// execution of its plan.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidHostData`] when `staged` does not match the first
    /// step; otherwise as the individual plans' execute methods. A failed
    /// step or hook leaves the chain partially executed — the verified
    /// tier ([`crate::engine::recovery`]) rolls back and retries whole
    /// chains.
    pub fn execute_with(
        &self,
        sys: &mut PimSystem,
        staged: Option<&PreparedScatter>,
        mut hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
    ) -> Result<FusedExecution> {
        self.check_staged(staged)?;
        let mut reports = Vec::with_capacity(self.steps.len());
        let mut host_out = None;
        for (k, step) in self.steps.iter().enumerate() {
            let exec = match (k, staged) {
                (0, Some(prepared)) => prepared.run(sys)?,
                _ => step.run(sys, None)?,
            };
            reports.push(exec.report);
            host_out = exec.host_out;
            if k + 1 < self.steps.len() {
                hook(k, sys)?;
            }
        }
        Ok(FusedExecution { reports, host_out })
    }

    /// Validates that `staged` matches the chain's first step: present
    /// exactly when step 0 is a rooted send, and staged for that very
    /// plan.
    pub(crate) fn check_staged(&self, staged: Option<&PreparedScatter>) -> Result<()> {
        let rooted = matches!(
            self.steps[0].primitive(),
            Primitive::Scatter | Primitive::Broadcast
        );
        match (rooted, staged) {
            (true, None) => Err(Error::InvalidHostData(format!(
                "fused chain starts with {}; pass its PreparedScatter",
                self.steps[0].primitive()
            ))),
            (false, Some(_)) => Err(Error::InvalidHostData(
                "fused chain starts with a non-rooted step; it takes no prepared input".into(),
            )),
            (true, Some(prepared)) if !Arc::ptr_eq(prepared.plan(), &self.steps[0]) => {
                Err(Error::InvalidHostData(
                    "prepared input was staged for a different plan than the chain's first step"
                        .into(),
                ))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_regions_sorts_merges_and_drops_empties() {
        assert_eq!(
            merge_regions(vec![(100, 50), (0, 10), (140, 20), (5, 0), (8, 4)]),
            vec![(0, 12), (100, 60)]
        );
        assert_eq!(merge_regions(vec![]), vec![]);
        // Adjacent windows coalesce.
        assert_eq!(merge_regions(vec![(0, 8), (8, 8)]), vec![(0, 16)]);
    }
}
