//! The user-facing communicator (the paper's `pidcomm_*` API, Fig. 10).

use std::sync::Arc;

use pim_sim::dtype::ReduceKind;
use pim_sim::{Checkpoint, PimSystem, SystemArena};

use crate::config::{OptLevel, Primitive};
use crate::engine::plan::{CollectivePlan, PlanCache, PlanKey};
use crate::engine::prepared::{FusedPlan, PreparedScatter};
use crate::engine::recovery::{
    self, FusedVerifiedExecution, RecoveryPolicy, Unit, VerifiedExecution,
};
use crate::engine::{BufferSpec, HostRows};
use crate::error::Result;
use crate::hypercube::{DimMask, HypercubeManager};
use crate::report::CommReport;

/// Issues multi-instance collective communications over a virtual
/// hypercube.
///
/// A `Communicator` pairs a [`HypercubeManager`] with an [`OptLevel`]
/// (defaulting to the full PID-Comm design; the other levels exist for the
/// paper's ablation and baseline comparisons). Every call takes the target
/// [`PimSystem`], a [`DimMask`] choosing the communication dimensions and a
/// [`BufferSpec`] describing the per-PE buffers.
///
/// # Examples
///
/// Eight-node AllReduce over one entangled group:
///
/// ```
/// use pidcomm::{BufferSpec, Communicator, DimMask, HypercubeManager, HypercubeShape};
/// use pim_sim::{DimmGeometry, DType, PimSystem, ReduceKind};
///
/// let geom = DimmGeometry::single_group();
/// let mut sys = PimSystem::new(geom);
/// // Every PE holds eight u64 values.
/// for pe in geom.pes() {
///     let vals: Vec<u8> = (0..8u64).flat_map(|v| v.to_le_bytes()).collect();
///     sys.pe_mut(pe).write(0, &vals);
/// }
///
/// let manager = HypercubeManager::new(HypercubeShape::linear(8)?, geom)?;
/// let comm = Communicator::new(manager);
/// let report = comm.all_reduce(
///     &mut sys,
///     &DimMask::parse("1")?,
///     &BufferSpec::new(0, 64, 64),
///     ReduceKind::Sum,
/// )?;
///
/// // Every PE now holds the sums 0*8, 1*8, ..., 7*8.
/// let out = sys.pe_mut(geom.pes().next().unwrap()).read(64, 8).to_vec();
/// assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 0);
/// assert!(report.time_ns() > 0.0);
/// # Ok::<(), pidcomm::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Communicator {
    manager: HypercubeManager,
    opt: OptLevel,
    threads: usize,
}

impl Communicator {
    /// Creates a communicator running the full PID-Comm design.
    pub fn new(manager: HypercubeManager) -> Self {
        Self {
            manager,
            opt: OptLevel::Full,
            threads: 0,
        }
    }

    /// Selects an optimization level (for ablations and baselines).
    pub fn with_opt(mut self, opt: OptLevel) -> Self {
        self.opt = opt;
        self
    }

    /// Bounds the engine's cluster-level thread fan-out: `0` (the default)
    /// sizes it automatically, `1` forces the serial reference schedule.
    /// Purely an execution knob — results and reports are byte-identical
    /// at every setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured thread bound (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured optimization level.
    pub fn opt(&self) -> OptLevel {
        self.opt
    }

    /// The underlying hypercube manager.
    pub fn manager(&self) -> &HypercubeManager {
        &self.manager
    }

    /// Plans one collective — validates the spec against the group size
    /// and the MRAM bank, decomposes the mask into entangled-group
    /// clusters, builds the phase-B schedules, and resolves the thread
    /// fan-out — without executing it. The returned [`CollectivePlan`] can
    /// be executed any number of times, against any system of matching
    /// geometry; the one-shot calls below are this followed by
    /// [`CollectivePlan::run`], so each execution is byte-identical to
    /// theirs. `op` is ignored by non-reducing primitives (pass
    /// [`ReduceKind::Sum`]).
    ///
    /// This is the classic persistent-collective shape (MPI persistent
    /// requests, FFTW plans): iteration-heavy applications hoist the plan
    /// out of their loops and stop paying the fixed planning cost per
    /// call.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error`] on invalid masks or misaligned, overlapping
    /// or out-of-bank buffers — the payload-independent half of the
    /// one-shot validation.
    pub fn plan(
        &self,
        primitive: Primitive,
        mask: &DimMask,
        spec: &BufferSpec,
        op: ReduceKind,
    ) -> Result<CollectivePlan> {
        CollectivePlan::build(
            &self.manager,
            self.opt,
            primitive,
            mask,
            spec,
            op,
            self.threads,
        )
    }

    /// As [`Communicator::plan`], but served from `cache`: planning runs
    /// at most once per distinct
    /// `(primitive, opt, mask, spec, geometry, op, threads)` key per
    /// cache. Sweep workers park one cache in their
    /// [`pim_sim::SystemArena`] extension slot so consecutive cells reuse
    /// plans across runs.
    ///
    /// # Errors
    ///
    /// See [`Communicator::plan`]; failed builds are not cached.
    pub fn plan_cached(
        &self,
        cache: &mut PlanCache,
        primitive: Primitive,
        mask: &DimMask,
        spec: &BufferSpec,
        op: ReduceKind,
    ) -> Result<Arc<CollectivePlan>> {
        let key = PlanKey::new(self, primitive, mask, spec, op);
        cache.get_or_build(key, || self.plan(primitive, mask, spec, op))
    }

    /// Executes a plan with fault detection and recovery: verification is
    /// enabled for the duration, transient faults (detected corruption, a
    /// transiently stuck PE) are retried up to `policy.max_retries` times
    /// — each execution is one fault epoch, so a retry re-draws the fault
    /// schedule — and a *persistently* failed PE degrades to host-side
    /// recompute of the collective's semantics when `policy.degrade` is
    /// set. The returned report spans all attempts, with retries and
    /// degraded recompute charged to the cost sheet's recovery counters,
    /// so recovery is visible in modeled time.
    ///
    /// With no fault plan attached this is byte- and modeled-bit-identical
    /// to the plan's ordinary execute methods: verification reads back
    /// through the non-materializing peek path and charges nothing.
    ///
    /// `host_in` follows the plan's primitive: `Some` for Scatter and
    /// Broadcast (one buffer per group), `None` otherwise; Gather and
    /// Reduce return `host_out` buffers.
    ///
    /// # Errors
    ///
    /// As the plan's execute methods, plus [`crate::Error::DataCorruption`]
    /// / [`crate::Error::PeFailed`] when recovery is exhausted (retry
    /// budget spent, or degradation disabled).
    pub fn execute_verified(
        &self,
        sys: &mut PimSystem,
        plan: &CollectivePlan,
        host_in: Option<&[Vec<u8>]>,
        policy: &RecoveryPolicy,
    ) -> Result<VerifiedExecution> {
        let host_in = host_in.as_ref().map(|h| h as &dyn HostRows);
        let unit = Unit::Plan { plan, host_in };
        let rollback = &mut Checkpoint::new();
        recovery::run_verified(sys, &unit, policy, rollback, None, |_, _| Ok(()))
            .map(FusedVerifiedExecution::into_single)
    }

    /// Stages a rooted send's host payload for repeat execution: the
    /// prepared-execution tier over [`Communicator::plan`]. Validation
    /// and row assembly run once, here; every
    /// [`PreparedScatter::execute`] after that skips both and is
    /// byte- and modeled-bit-identical to
    /// [`CollectivePlan::execute_with_host`].
    ///
    /// Pass an arena to pool the staged image
    /// ([`PreparedScatter::stage_in`] / [`PreparedScatter::retire`]) via
    /// [`Communicator::prepare_in`].
    ///
    /// # Errors
    ///
    /// [`crate::Error::ShapeSystemMismatch`] when the plan was built for a
    /// different geometry than this communicator, plus
    /// [`PreparedScatter::stage`]'s validation errors.
    pub fn prepare(
        &self,
        plan: Arc<CollectivePlan>,
        host_in: &[Vec<u8>],
    ) -> Result<PreparedScatter> {
        plan.check_geometry(self.manager.geometry())?;
        PreparedScatter::stage(plan, host_in)
    }

    /// As [`Communicator::prepare`], staging into an arena-pooled buffer.
    ///
    /// # Errors
    ///
    /// As [`Communicator::prepare`].
    pub fn prepare_in(
        &self,
        plan: Arc<CollectivePlan>,
        host_in: &[Vec<u8>],
        arena: &mut SystemArena,
    ) -> Result<PreparedScatter> {
        plan.check_geometry(self.manager.geometry())?;
        PreparedScatter::stage_in(plan, host_in, arena)
    }

    /// Fuses plans built by this communicator into one multi-step chain
    /// ([`FusedPlan::new`]), checking each against the communicator's
    /// geometry first. `extra_regions` lists the MRAM windows inter-step
    /// hooks write, so chain-level rollback covers them
    /// ([`FusedPlan::with_regions`]).
    ///
    /// # Errors
    ///
    /// [`crate::Error::ShapeSystemMismatch`] on any geometry mismatch, plus the
    /// fusion-contract errors of [`FusedPlan::new`].
    pub fn fuse(
        &self,
        steps: Vec<Arc<CollectivePlan>>,
        extra_regions: &[(usize, usize)],
    ) -> Result<FusedPlan> {
        for step in &steps {
            step.check_geometry(self.manager.geometry())?;
        }
        FusedPlan::with_regions(steps, extra_regions)
    }

    /// Executes a fused chain with fault detection and recovery — the
    /// chain-level [`Communicator::execute_verified`]: verification on
    /// for the duration, transient faults retried by rolling the whole
    /// chain back (merged step + hook regions) and re-running from step
    /// 0, persistent PE failures degraded step-by-step to host-side
    /// recompute. With no fault plan attached this is byte- and
    /// modeled-bit-identical to [`FusedPlan::execute_with`].
    ///
    /// # Errors
    ///
    /// As [`Communicator::execute_verified`], plus the fused-plan
    /// validation errors (staged input mismatch).
    pub fn execute_verified_fused(
        &self,
        sys: &mut PimSystem,
        fused: &FusedPlan,
        staged: Option<&PreparedScatter>,
        policy: &RecoveryPolicy,
        hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
    ) -> Result<FusedVerifiedExecution> {
        let unit = Unit::chain(fused, staged)?;
        let rollback = &mut Checkpoint::new();
        recovery::run_verified(sys, &unit, policy, rollback, None, hook)
    }

    /// AlltoAll: each node's buffer holds one chunk per group member; node
    /// `d` receives chunk `d` of every member, ordered by source rank.
    ///
    /// `spec.bytes_per_node` is the full send buffer size and must be
    /// divisible by `8 × group size`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error`] on invalid masks, misaligned or overlapping
    /// buffers, or a shape/system mismatch.
    pub fn all_to_all(
        &self,
        sys: &mut PimSystem,
        mask: &DimMask,
        spec: &BufferSpec,
    ) -> Result<CommReport> {
        self.plan(Primitive::AlltoAll, mask, spec, ReduceKind::Sum)?
            .run(sys, None)
            .map(|e| e.report)
    }

    /// ReduceScatter: chunks are reduced element-wise across the group and
    /// node `d` receives reduced chunk `d` (`bytes_per_node / group size`
    /// bytes) at `dst_offset`.
    ///
    /// # Errors
    ///
    /// See [`Communicator::all_to_all`].
    pub fn reduce_scatter(
        &self,
        sys: &mut PimSystem,
        mask: &DimMask,
        spec: &BufferSpec,
        op: ReduceKind,
    ) -> Result<CommReport> {
        self.plan(Primitive::ReduceScatter, mask, spec, op)?
            .run(sys, None)
            .map(|e| e.report)
    }

    /// AllReduce: every node receives the element-wise reduction of all
    /// `bytes_per_node`-byte buffers. Implemented as the paper's fused
    /// ReduceScatter + AllGather (reduced registers are fanned out without
    /// a PIM round-trip).
    ///
    /// # Errors
    ///
    /// See [`Communicator::all_to_all`].
    pub fn all_reduce(
        &self,
        sys: &mut PimSystem,
        mask: &DimMask,
        spec: &BufferSpec,
        op: ReduceKind,
    ) -> Result<CommReport> {
        self.plan(Primitive::AllReduce, mask, spec, op)?
            .run(sys, None)
            .map(|e| e.report)
    }

    /// AllGather: every node contributes `bytes_per_node` bytes and
    /// receives the concatenation of all contributions (`group size ×
    /// bytes_per_node` bytes) at `dst_offset`, ordered by source rank.
    ///
    /// # Errors
    ///
    /// See [`Communicator::all_to_all`].
    pub fn all_gather(
        &self,
        sys: &mut PimSystem,
        mask: &DimMask,
        spec: &BufferSpec,
    ) -> Result<CommReport> {
        self.plan(Primitive::AllGather, mask, spec, ReduceKind::Sum)?
            .run(sys, None)
            .map(|e| e.report)
    }

    /// Scatter: the host (root) distributes `host_in[g]` — `group size ×
    /// bytes_per_node` bytes laid out by destination rank — to the nodes of
    /// group `g`.
    ///
    /// # Errors
    ///
    /// See [`Communicator::all_to_all`]; additionally validates the host
    /// buffers' count and sizes.
    pub fn scatter(
        &self,
        sys: &mut PimSystem,
        mask: &DimMask,
        spec: &BufferSpec,
        host_in: &[Vec<u8>],
    ) -> Result<CommReport> {
        self.plan(Primitive::Scatter, mask, spec, ReduceKind::Sum)?
            .run(sys, Some(host_in))
            .map(|e| e.report)
    }

    /// Gather: the host (root) collects `bytes_per_node` bytes from every
    /// node; returns one buffer per group, ordered by source rank.
    ///
    /// # Errors
    ///
    /// See [`Communicator::all_to_all`].
    pub fn gather(
        &self,
        sys: &mut PimSystem,
        mask: &DimMask,
        spec: &BufferSpec,
    ) -> Result<(CommReport, Vec<Vec<u8>>)> {
        self.plan(Primitive::Gather, mask, spec, ReduceKind::Sum)?
            .run(sys, None)
            .map(|e| (e.report, e.host_out.expect("gather produces host output")))
    }

    /// Reduce: the host (root) receives, per group, the element-wise
    /// reduction of the members' `bytes_per_node`-byte buffers.
    ///
    /// # Errors
    ///
    /// See [`Communicator::all_to_all`].
    pub fn reduce(
        &self,
        sys: &mut PimSystem,
        mask: &DimMask,
        spec: &BufferSpec,
        op: ReduceKind,
    ) -> Result<(CommReport, Vec<Vec<u8>>)> {
        self.plan(Primitive::Reduce, mask, spec, op)?
            .run(sys, None)
            .map(|e| (e.report, e.host_out.expect("reduce produces host output")))
    }

    /// Broadcast: the host (root) sends `host_in[g]` (`bytes_per_node`
    /// bytes) to every node of group `g`. This is the native driver path
    /// and is identical at every optimization level (§VIII-B).
    ///
    /// # Errors
    ///
    /// See [`Communicator::scatter`].
    pub fn broadcast(
        &self,
        sys: &mut PimSystem,
        mask: &DimMask,
        spec: &BufferSpec,
        host_in: &[Vec<u8>],
    ) -> Result<CommReport> {
        self.plan(Primitive::Broadcast, mask, spec, ReduceKind::Sum)?
            .run(sys, Some(host_in))
            .map(|e| e.report)
    }
}
