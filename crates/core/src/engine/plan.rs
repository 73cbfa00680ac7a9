//! Persistent collective plans: the plan half of the engine's
//! plan-once / execute-many split.
//!
//! Validating the [`BufferSpec`] against the group geometry, decomposing
//! the mask into [`EgCluster`]s, computing the per-cluster rotation and
//! placement schedules, tallying the modeled cost and resolving the thread
//! fan-out depend only on `(primitive, opt, mask, spec, geometry, op,
//! threads)`, never on the payload — and iteration-heavy applications
//! (CC/BFS run the identical `AllReduce` every level until fixed point, MLP
//! per layer, GNN per step, DLRM per batch) repeat the same key every
//! iteration.
//!
//! [`CollectivePlan`] captures all of it as a first-class, reusable value,
//! in the style of MPI persistent requests / FFTW plans:
//!
//! * [`crate::Communicator::plan`] builds a plan;
//!   [`CollectivePlan::execute`] (and the rooted variants
//!   [`CollectivePlan::execute_with_host`] /
//!   [`CollectivePlan::execute_to_host`]) runs it any number of times,
//!   against any system of matching geometry. Every way of executing a
//!   collective — the one-shot `Communicator` methods included — ends in
//!   [`CollectivePlan::run`].
//! * [`PlanCache`] is a keyed pool of plans ([`crate::Communicator::plan_cached`]):
//!   planning runs at most once per distinct key per cache, with hit/miss
//!   counters so harnesses can assert and report reuse. Sweep workers park
//!   one cache per worker in their `pim_sim::SystemArena` (via the typed
//!   extension slot), so consecutive cells and iterations reuse plans with
//!   zero rebuild.
//!
//! Cost is a property of the plan: [`CollectivePlan::build`] tallies the
//! [`CostSheet`] once, and every execution applies that stored sheet to the
//! system's meter — the executors move bytes and hold no sheet. Cost-only
//! execution ([`CollectivePlan::cost_only_report`]) applies the same sheet
//! to a bare meter, so it equals the functional report by construction.
//! Plans are immutable and `Send + Sync`, so a warm plan cannot carry state
//! between executions (pinned by `tests/plan_reuse.rs`).

use std::collections::HashMap;
use std::sync::Arc;

use pim_sim::domain::LanePerm;
use pim_sim::dtype::ReduceKind;
use pim_sim::geometry::{DimmGeometry, EgId, LANES};
use pim_sim::{Breakdown, PimSystem, TimeModel};

use crate::config::{OptLevel, Primitive};
use crate::engine::sheet::CostSheet;
use crate::engine::streaming::Rows;
use crate::engine::{
    baseline, buffer_extents, logical_volumes, parallel, streaming, validate_host_in,
    validate_spec, BufferSpec, Execution,
};
use crate::error::{Error, Result};
use crate::hypercube::{build_clusters, CommGroup, DimMask, EgCluster, HypercubeManager};
use crate::report::CommReport;

/// Precomputed phase-B schedule of one cluster: the per-slot lane
/// rotations and final-slot placements the streaming loops read.
pub(crate) struct ClusterSched {
    /// `rotation(k)` for every within-part slot `k` (length `lane_count`).
    pub(crate) rotations: Vec<LanePerm>,
    /// `final_slot[k][lane]`: the within-part slot where the register
    /// arriving at within-part slot `k` finally belongs on `lane` — the
    /// phase-C post-permutation inverted per part, so the streaming writes
    /// land every register directly in place.
    pub(crate) final_slot: Vec<[usize; LANES]>,
}

impl ClusterSched {
    pub(crate) fn for_cluster(c: &EgCluster) -> Self {
        let l = c.lane_count;
        // Lane rank of every physical lane within its packed group.
        let mut rank = [0usize; LANES];
        for g in &c.groups {
            for (i, &lane) in g.lanes.iter().enumerate() {
                rank[lane] = i;
            }
        }
        Self {
            rotations: (0..l).map(|k| c.rotation(k)).collect(),
            // The chunk of source lane rank `i_s` arrives on lane rank
            // `i_d` at slot `(i_d - i_s) mod l` and belongs at slot `i_s`.
            final_slot: (0..l)
                .map(|k| core::array::from_fn(|lane| (rank[lane] + l - k) % l))
                .collect(),
        }
    }
}

/// One host-mediated point-to-point move of `len` bytes between two PEs'
/// MRAMs, accumulated at the receiver if `reduce` is set.
pub(crate) struct Move {
    pub(crate) src_pe: pim_sim::PeId,
    pub(crate) dst_pe: pim_sim::PeId,
    pub(crate) src_off: usize,
    pub(crate) dst_off: usize,
    pub(crate) len: usize,
    pub(crate) reduce: bool,
}

/// A fully planned collective: everything that follows from
/// `(primitive, opt, mask, spec, geometry, op, threads)` — validated
/// buffer geometry, the [`EgCluster`] decomposition, the per-cluster
/// phase-B rotation and placement schedules, the baseline path's
/// group tables, the modeled cost of one execution and the resolved
/// thread fan-out — ready to execute any number of times. A ring / tree
/// AllReduce plan ([`crate::Topology::plan`]) holds its step list instead.
/// See the module docs.
pub struct CollectivePlan {
    pub(crate) primitive: Primitive,
    pub(crate) opt: OptLevel,
    pub(crate) op: ReduceKind,
    pub(crate) spec: BufferSpec,
    pub(crate) geometry: DimmGeometry,
    /// Hypercube node count (equals the PE count).
    pub(crate) num_nodes: usize,
    /// Communication group size `N`.
    pub(crate) n: usize,
    /// Number of simultaneous groups.
    pub(crate) num_groups: usize,
    /// The entangled-group decomposition the streaming engine runs over.
    pub(crate) clusters: Vec<EgCluster>,
    /// Per-cluster EG partition, parallel to `clusters`: what the views of
    /// [`PimSystem::split_eg_views`] borrow on every execute.
    pub(crate) parts: Vec<Vec<EgId>>,
    /// Per-cluster phase-B schedules, parallel to `clusters`.
    pub(crate) sched: Vec<ClusterSched>,
    /// Group tables for the baseline host-memory path (empty when the plan
    /// never takes it).
    pub(crate) groups: Vec<CommGroup>,
    /// The dimension mask the plan was built for — kept so the verified
    /// execution path can re-derive group membership for host-side
    /// recompute during graceful degradation.
    pub(crate) mask: DimMask,
    /// Resolved cluster-level fan-out (auto already applied).
    pub(crate) cluster_threads: usize,
    /// Resolved per-group fan-out of the baseline path.
    pub(crate) group_threads: usize,
    /// What one execution charges, tallied once by `build`.
    pub(crate) sheet: CostSheet,
    /// A stepped plan's synchronous steps; empty for hypercube plans.
    pub(crate) steps: Vec<Vec<Move>>,
}

impl CollectivePlan {
    /// Plans one collective against `manager`: everything
    /// payload-independent runs here, once — the cost sheet included.
    pub(crate) fn build(
        manager: &HypercubeManager,
        opt: OptLevel,
        primitive: Primitive,
        mask: &DimMask,
        spec: &BufferSpec,
        op: ReduceKind,
        threads: usize,
    ) -> Result<Self> {
        let n = mask.group_size(manager.shape())?;
        let num_groups = manager.num_nodes() / n;
        validate_spec(primitive, spec, n)?;

        let clusters = build_clusters(manager, mask)?;

        // Only the streaming paths of the reordering primitives read the
        // schedules; the baseline host-memory path instead runs per
        // communication group, so each plan carries exactly the derived
        // state its execution reads (Scatter/Gather/Broadcast need
        // neither).
        let reordering = matches!(
            primitive,
            Primitive::AlltoAll
                | Primitive::ReduceScatter
                | Primitive::AllReduce
                | Primitive::AllGather
                | Primitive::Reduce
        );
        let baseline_grouped = reordering && opt == OptLevel::Baseline;
        let sched = if reordering && !baseline_grouped {
            clusters.iter().map(ClusterSched::for_cluster).collect()
        } else {
            Vec::new()
        };
        let groups = if baseline_grouped {
            manager.groups(mask)?
        } else {
            Vec::new()
        };

        let mut plan = Self {
            primitive,
            opt,
            op,
            spec: *spec,
            geometry: *manager.geometry(),
            num_nodes: manager.num_nodes(),
            n,
            num_groups,
            cluster_threads: parallel::effective_threads(threads, clusters.len()),
            group_threads: parallel::effective_threads(threads, groups.len()),
            parts: clusters.iter().map(|c| c.egs.clone()).collect(),
            clusters,
            sched,
            groups,
            mask: mask.clone(),
            sheet: CostSheet::new(0),
            steps: Vec::new(),
        };
        // The charge functions read the finished plan, so its sheet is
        // tallied last.
        let mut sheet = CostSheet::new(plan.geometry.channels());
        if baseline_grouped {
            baseline::charge(&mut sheet, &plan);
        } else {
            streaming::charge(&mut sheet, &plan);
        }
        plan.sheet = sheet;
        Ok(plan)
    }

    /// Plans a ring / tree AllReduce ([`crate::topology`]): the spec
    /// validated as by `build`, a power-of-two group, the step list — the
    /// staging phase (no moves), then `schedule`'s steps — and its
    /// [`streaming::charge_stepped`] sheet. Reports [`OptLevel::Full`].
    pub(crate) fn stepped(
        manager: &HypercubeManager,
        mask: &DimMask,
        spec: &BufferSpec,
        op: ReduceKind,
        schedule: fn(&[CommGroup], &BufferSpec, usize) -> Vec<Vec<Move>>,
    ) -> Result<Self> {
        let n = mask.group_size(manager.shape())?;
        validate_spec(Primitive::AllReduce, spec, n)?;
        if !n.is_power_of_two() {
            return Err(Error::InvalidBuffer(format!(
                "ring/tree AllReduce needs a power-of-two group size; got {n}"
            )));
        }
        let groups = manager.groups(mask)?;
        let mut steps = vec![Vec::new()];
        steps.extend(schedule(&groups, spec, n));
        let geometry = *manager.geometry();
        let mut sheet = CostSheet::new(geometry.channels());
        streaming::charge_stepped(&mut sheet, &geometry, &steps);
        Ok(Self {
            primitive: Primitive::AllReduce,
            opt: OptLevel::Full,
            op,
            spec: *spec,
            geometry,
            num_nodes: manager.num_nodes(),
            n,
            num_groups: groups.len(),
            clusters: Vec::new(),
            parts: Vec::new(),
            sched: Vec::new(),
            groups: Vec::new(),
            mask: mask.clone(),
            cluster_threads: 1,
            group_threads: 1,
            sheet,
            steps,
        })
    }

    /// The primitive this plan executes.
    pub fn primitive(&self) -> Primitive {
        self.primitive
    }

    /// The optimization level it runs at.
    pub fn opt(&self) -> OptLevel {
        self.opt
    }

    /// The buffer layout it was planned for.
    pub fn spec(&self) -> &BufferSpec {
        &self.spec
    }

    /// Communication group size `N`.
    pub fn group_size(&self) -> usize {
        self.n
    }

    /// Number of simultaneous communication groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// The per-PE MRAM windows a run of this plan may write or
    /// destructively reorder: the validated source extent (phase-A
    /// reordering pre-rotates sources in place) and the destination
    /// extent — the same extents [`validate_spec`] checks for overlap.
    /// Rollback images need exactly these windows and nothing else.
    pub(crate) fn touched_regions(&self) -> [(usize, usize); 2] {
        let (src_len, dst_len) = buffer_extents(self.primitive, self.spec.bytes_per_node, self.n);
        [
            (self.spec.src_offset, src_len),
            (self.spec.dst_offset, dst_len),
        ]
    }

    /// Executes a primitive that needs no host-side buffers (AlltoAll,
    /// ReduceScatter, AllReduce, AllGather).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHostData`] for rooted primitives (use
    /// [`CollectivePlan::execute_with_host`] /
    /// [`CollectivePlan::execute_to_host`]) and
    /// [`Error::ShapeSystemMismatch`] when `sys` has a different geometry
    /// than the plan.
    pub fn execute(&self, sys: &mut PimSystem) -> Result<CommReport> {
        match self.primitive {
            Primitive::Scatter | Primitive::Broadcast => Err(Error::InvalidHostData(format!(
                "{} requires host input buffers; use execute_with_host",
                self.primitive
            ))),
            Primitive::Gather | Primitive::Reduce => Err(Error::InvalidHostData(format!(
                "{} produces host output buffers; use execute_to_host",
                self.primitive
            ))),
            _ => self.run(sys, None).map(|e| e.report),
        }
    }

    /// Executes a host-rooted send primitive (Scatter, Broadcast) with one
    /// host buffer per group.
    ///
    /// # Errors
    ///
    /// As [`CollectivePlan::execute`], plus host-buffer count/size
    /// validation.
    pub fn execute_with_host(
        &self,
        sys: &mut PimSystem,
        host_in: &[Vec<u8>],
    ) -> Result<CommReport> {
        if !matches!(self.primitive, Primitive::Scatter | Primitive::Broadcast) {
            return Err(Error::InvalidHostData(format!(
                "{} takes no host input buffers",
                self.primitive
            )));
        }
        self.run(sys, Some(host_in)).map(|e| e.report)
    }

    /// Executes a host-rooted receive primitive (Gather, Reduce),
    /// returning one host buffer per group.
    ///
    /// # Errors
    ///
    /// As [`CollectivePlan::execute`].
    pub fn execute_to_host(&self, sys: &mut PimSystem) -> Result<(CommReport, Vec<Vec<u8>>)> {
        if !matches!(self.primitive, Primitive::Gather | Primitive::Reduce) {
            return Err(Error::InvalidHostData(format!(
                "{} produces no host output buffers",
                self.primitive
            )));
        }
        self.run(sys, None).map(|e| {
            (
                e.report,
                e.host_out.expect("rooted receive produces output"),
            )
        })
    }

    /// The one execution entry: payload-dependent validation, then the
    /// dispatch. Behind [`CollectivePlan::execute`],
    /// [`CollectivePlan::execute_with_host`],
    /// [`CollectivePlan::execute_to_host`], the one-shot `Communicator`
    /// methods, every fused step, the verified tier and the multi-host
    /// phases; for callers that handle every primitive uniformly, `host_in`
    /// is `Some` exactly for Scatter and Broadcast, and `host_out` comes
    /// back `Some` exactly for Gather and Reduce.
    ///
    /// # Errors
    ///
    /// [`Error::ShapeSystemMismatch`] when `sys` has a different geometry
    /// than the plan, [`Error::InvalidHostData`] when `host_in` does not
    /// match the primitive, plus the fault layer's typed errors.
    pub fn run(&self, sys: &mut PimSystem, host_in: Option<&[Vec<u8>]>) -> Result<Execution> {
        self.check_run(sys, host_in)?;
        self.dispatch(sys, host_in.map(Rows::Host))
    }

    /// What [`CollectivePlan::run`] rejects before dispatch — a system of
    /// another geometry, host buffers that do not match the primitive —
    /// for the degraded path, which executes the plan without dispatching
    /// it.
    pub(crate) fn check_run(&self, sys: &PimSystem, host_in: Option<&[Vec<u8>]>) -> Result<()> {
        self.check_geometry(sys)?;
        validate_host_in(
            self.primitive,
            self.spec.bytes_per_node,
            self.n,
            self.num_groups,
            host_in,
        )
    }

    /// The plan's geometry gate: a plan only runs against systems of the
    /// geometry it was built for.
    pub(crate) fn check_geometry(&self, sys: &PimSystem) -> Result<()> {
        if self.geometry != *sys.geometry() {
            return Err(Error::ShapeSystemMismatch {
                nodes: self.num_nodes,
                pes: sys.geometry().num_pes(),
            });
        }
        Ok(())
    }

    /// The execution envelope and the primitive dispatch inside it: fault
    /// epoch + stuck scan, the one `match` over primitives, application of
    /// the plan's [`CostSheet`], corruption check and report assembly. Its
    /// two callers differ only in where a rooted send's `rows` come from —
    /// [`CollectivePlan::run`] passes the host buffers it validated (`None`
    /// for every other primitive), the prepared tier ([`super::prepared`])
    /// the image it validated when staging — so both charge and report
    /// bit-identically. Either checks the geometry first
    /// ([`CollectivePlan::check_geometry`]).
    pub(super) fn dispatch(
        &self,
        sys: &mut PimSystem,
        rows: Option<Rows<'_>>,
    ) -> Result<Execution> {
        // Fault-layer execute boundary: each execution is one epoch, and a
        // stuck PE fails the collective up front — every PE participates in
        // every collective (`num_groups × n == num_nodes`), so a dead DPU
        // can never be silently skipped by dispatch.
        if let Some(fp) = sys.fault_plan() {
            let epoch = fp.begin_epoch();
            if let Some(pe) = (0..self.num_nodes as u32).find(|&pe| fp.pe_stuck(pe)) {
                return Err(Error::PeFailed { pe, epoch });
            }
        }

        let before = sys.meter();

        let host_out = match self.primitive {
            Primitive::Scatter | Primitive::Broadcast => {
                let rows = rows.expect("callers pass a rooted send its rows");
                streaming::rooted_send(sys, self, rows);
                None
            }
            Primitive::Gather => Some(streaming::gather(sys, self)),
            Primitive::AllReduce if !self.steps.is_empty() => {
                crate::topology::run_steps(sys, self);
                None
            }
            _ if self.opt == OptLevel::Baseline => baseline::run(sys, self),
            Primitive::AlltoAll => {
                streaming::alltoall(sys, self);
                None
            }
            Primitive::ReduceScatter => {
                streaming::reduce_scatter(sys, self);
                None
            }
            Primitive::AllReduce => {
                streaming::all_reduce(sys, self);
                None
            }
            Primitive::AllGather => {
                streaming::all_gather(sys, self);
                None
            }
            Primitive::Reduce => Some(streaming::reduce(sys, self)),
        };

        self.sheet.apply(sys);

        // Detection boundary: surface the first verification mismatch as a
        // typed error instead of a silent wrong answer. The attempt's cost
        // stays on the meter — a failed execution did real work, and the
        // verified retry loop reports it as recovery time.
        if let Some(ev) = sys.take_corruption() {
            return Err(Error::DataCorruption {
                pe: ev.pe,
                offset: ev.offset,
                expected: ev.expected,
                found: ev.found,
                epoch: ev.epoch,
            });
        }

        Ok(Execution {
            report: self.report(sys.meter().since(&before)),
            host_out,
        })
    }

    /// The report of one execution whose modeled time is `breakdown`.
    fn report(&self, breakdown: Breakdown) -> CommReport {
        let (bytes_in, bytes_out) = logical_volumes(
            self.primitive,
            self.spec.bytes_per_node,
            self.n,
            self.num_nodes,
            self.num_groups,
        );
        CommReport {
            primitive: self.primitive,
            opt: self.opt,
            breakdown,
            bytes_in,
            bytes_out,
            group_size: self.n,
            num_groups: self.num_groups,
        }
    }

    /// The integer [`CostSheet`] every execution of this plan applies,
    /// tallied once at plan build (`streaming::charge` /
    /// `baseline::charge` / `streaming::charge_stepped`): reading it
    /// touches no PE MRAM, host staging or fault layer. Converted with a
    /// [`TimeModel`] it yields a functional run's modeled nanoseconds bit
    /// for bit (see [`CollectivePlan::cost_only_report`]) — what the
    /// figure harness and the design-space pins read.
    pub fn execute_cost_only(&self) -> &CostSheet {
        &self.sheet
    }

    /// The [`CommReport`] a functional execution of this plan would
    /// return, computed analytically. The breakdown's modeled times are
    /// **bit-identical** to a functional run's (measured from a fresh
    /// meter — a new or `reset()` system) under the same `model`;
    /// property-tested in `tests/cost_only.rs`.
    pub fn cost_only_report(&self, model: &TimeModel) -> CommReport {
        let mut meter = Breakdown::new();
        self.sheet.apply_to(&mut meter, model);
        self.report(meter)
    }
}

/// Everything a plan's derived state depends on. Two calls with equal keys
/// are served by one plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    primitive: Primitive,
    opt: OptLevel,
    op: ReduceKind,
    mask: DimMask,
    dims: Vec<usize>,
    geometry: DimmGeometry,
    spec: BufferSpec,
    threads: usize,
}

impl PlanKey {
    pub(crate) fn new(
        comm: &crate::Communicator,
        primitive: Primitive,
        mask: &DimMask,
        spec: &BufferSpec,
        op: ReduceKind,
    ) -> Self {
        Self {
            primitive,
            opt: comm.opt(),
            op,
            mask: mask.clone(),
            dims: comm.manager().shape().dims().to_vec(),
            geometry: *comm.manager().geometry(),
            spec: *spec,
            threads: comm.threads(),
        }
    }
}

/// A point-in-time copy of one [`PlanCache`]'s counters, for scoped
/// delta accounting: take a [`PlanCache::snapshot`] before a phase, take
/// another after, and [`PlanCacheStats::delta`] yields exactly that
/// phase's hits/misses — immune to other caches (and other threads'
/// caches) in the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups served by an already-built plan.
    pub hits: u64,
    /// Lookups that had to build (and insert) a plan.
    pub misses: u64,
    /// Distinct plans pooled at snapshot time.
    pub len: usize,
}

impl PlanCacheStats {
    /// Counter movement since `earlier` (a previous snapshot of the same
    /// cache): hits/misses subtract, `len` stays this snapshot's current
    /// value.
    #[must_use]
    pub fn delta(&self, earlier: &PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            len: self.len,
        }
    }
}

/// A keyed pool of [`CollectivePlan`]s: planning runs at most once per
/// distinct `(primitive, opt, mask, spec, geometry, op, threads)` per
/// cache. Sweep workers keep one per worker (parked in the
/// `pim_sim::SystemArena` extension slot between cells), so consecutive
/// cells and iterations reuse plans with zero rebuild. Purely an execution
/// cache: a warm plan executes byte-identically to a cold one. The pool is
/// unbounded — a run's key population is small and fixed.
#[derive(Default)]
pub struct PlanCache {
    plans: HashMap<PlanKey, Arc<CollectivePlan>>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lookups served by an already-built plan.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that had to build (and insert) a plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct plans currently pooled.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// A point-in-time copy of this cache's counters (see
    /// [`PlanCacheStats::delta`]).
    pub fn snapshot(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            len: self.plans.len(),
        }
    }

    /// Fetches the plan for `key`, building it with `build` on a miss.
    /// Failed builds are not cached (and counted as neither hit nor miss).
    pub(crate) fn get_or_build(
        &mut self,
        key: PlanKey,
        build: impl FnOnce() -> Result<CollectivePlan>,
    ) -> Result<Arc<CollectivePlan>> {
        if let Some(plan) = self.plans.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(build()?);
        self.misses += 1;
        self.plans.insert(key, Arc::clone(&plan));
        Ok(plan)
    }
}
