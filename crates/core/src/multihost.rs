//! Multi-host hierarchical collectives (§IX-A, Fig. 23b).
//!
//! The paper demonstrates PID-Comm's extendability on a testbed of up to
//! four processes, each driving a four-rank UPMEM channel (256 PEs), with
//! the global step performed over MPI throttled to 10 Gbps ethernet.
//!
//! This module reproduces that setting: `H` independent [`PimSystem`]s —
//! each with its own hypercube and local collectives — joined by an
//! analytic [`LinkModel`]. AllReduce sends only locally-reduced data over
//! the link (1/P of the input), while AlltoAll must ship the `(H-1)/H`
//! fraction destined to other hosts, which is why its multi-host overhead
//! grows with host count while AllReduce's stays negligible.

use pim_sim::dtype::{reduce_bytes, ReduceKind};
use pim_sim::{Breakdown, PimSystem, TimeModel};

use crate::comm::Communicator;
use crate::config::Primitive;
use crate::engine::hostkernel::{panic_message, par_pes};
use crate::engine::plan::CollectivePlan;
use crate::engine::{parallel, BufferSpec, Execution};
use crate::error::{Error, Result};
use crate::hypercube::{CommGroup, DimMask};
use crate::oracle;

/// Runs `f(host, system)` once per host on the executor's worker threads
/// (hosts own disjoint [`PimSystem`]s, mirroring the independent processes
/// of the paper's testbed) and returns the per-host results in host order;
/// the error of the lowest-numbered failing host wins, deterministically.
/// `threads` is the host-level fan-out resolved once at plan time.
///
/// A panicking host worker is contained ([`std::panic::catch_unwind`]) and
/// surfaces as [`Error::WorkerPanicked`] instead of unwinding through the
/// sibling hosts — in a real deployment one crashed MPI rank must not take
/// the driver process down with it. Containment ranks with the same
/// lowest-host rule as ordinary errors.
fn par_hosts<T, F>(threads: usize, systems: &mut [PimSystem], f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, &mut PimSystem) -> Result<T> + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    par_pes(systems, threads, |h, sys| {
        catch_unwind(AssertUnwindSafe(|| f(h, sys))).unwrap_or_else(|payload| {
            Err(Error::WorkerPanicked(format!(
                "host {h}: {}",
                panic_message(payload.as_ref())
            )))
        })
    })
    .into_iter()
    .collect()
}

/// Analytic model of the inter-host interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Link bandwidth in bytes per nanosecond (GB/s). The paper throttles
    /// MPI to 10 Gbps = 1.25 GB/s.
    pub bandwidth: f64,
    /// Per-message latency in nanoseconds.
    pub latency_ns: f64,
}

impl LinkModel {
    /// The paper's 10 Gbps ethernet setting.
    pub fn ethernet_10g() -> Self {
        Self {
            bandwidth: 1.25,
            latency_ns: 20_000.0,
        }
    }

    /// Time for an H-host ring exchange where every host contributes
    /// `bytes` and the algorithm moves the classic `(H-1)/H` fraction
    /// `passes` times.
    pub fn collective_time(&self, hosts: usize, bytes: u64, passes: f64) -> f64 {
        if hosts <= 1 {
            return 0.0;
        }
        let frac = (hosts as f64 - 1.0) / hosts as f64;
        passes * frac * bytes as f64 / self.bandwidth + 2.0 * (hosts as f64 - 1.0) * self.latency_ns
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::ethernet_10g()
    }
}

/// Timing result of a multi-host collective: hosts run their local phases
/// in parallel, so the local component is the slowest host's breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHostReport {
    /// Breakdown of the slowest host's local work.
    pub local: Breakdown,
    /// Time spent on the inter-host link.
    pub mpi_ns: f64,
    /// Number of hosts.
    pub hosts: usize,
}

impl MultiHostReport {
    /// Total modeled wall-clock time in nanoseconds.
    pub fn time_ns(&self) -> f64 {
        self.local.total() + self.mpi_ns
    }
}

/// A set of identical PIM hosts joined by a link.
///
/// Each host has the same geometry and hypercube; `comms[h]` issues the
/// local collectives of host `h`.
#[derive(Debug)]
pub struct MultiHost {
    /// The per-host communicators (same shape on every host).
    comms: Vec<Communicator>,
    link: LinkModel,
}

impl MultiHost {
    /// Creates a multi-host ensemble from per-host communicators.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHostData`] if `comms` is empty or the hosts
    /// disagree on shape.
    pub fn new(comms: Vec<Communicator>, link: LinkModel) -> Result<Self> {
        if comms.is_empty() {
            return Err(Error::InvalidHostData("need at least one host".into()));
        }
        let shape = comms[0].manager().shape().clone();
        if comms.iter().any(|c| c.manager().shape() != &shape) {
            return Err(Error::InvalidHostData(
                "all hosts must share one hypercube shape".into(),
            ));
        }
        Ok(Self { comms, link })
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.comms.len()
    }

    /// Plans one hierarchical collective across all hosts: resolves the
    /// host-level thread schedule once (concurrently running hosts get
    /// serial inner plans), builds the per-host inner
    /// [`CollectivePlan`]s for both local phases, and captures the shared
    /// group tables. The returned [`MultiHostPlan`] executes any number of
    /// times; the one-shot methods below are plan-then-execute.
    ///
    /// Supported primitives: `AllReduce`, `AlltoAll`, `ReduceScatter`,
    /// `AllGather` (the hierarchical collectives of §IX-A).
    ///
    /// # Errors
    ///
    /// Propagates local plan validation errors, plus
    /// [`Error::InvalidBuffer`] for the multi-host divisibility requirement
    /// of AlltoAll / ReduceScatter and for an AllGather whose global result
    /// or scratch window does not fit the MRAM bank.
    pub fn plan(
        &self,
        primitive: Primitive,
        mask: &DimMask,
        spec: &BufferSpec,
        op: ReduceKind,
    ) -> Result<MultiHostPlan> {
        let h = self.hosts();
        let b = spec.bytes_per_node;
        let manager = self.comms[0].manager();
        let n = mask.group_size(manager.shape())?;
        let num_groups = manager.num_nodes() / n;

        // Phase 3 always lands host data at the caller's destination.
        let landing = |bytes_per_node| BufferSpec {
            src_offset: 0,
            dst_offset: spec.dst_offset,
            bytes_per_node,
            dtype: spec.dtype,
        };
        // Per primitive: the two local phases (phase 2 is the analytic
        // link model) and whether `bytes_per_node` must split into one
        // 8-byte-aligned chunk per *global* rank.
        let (prim1, spec1, prim3, spec3, per_global_rank) = match primitive {
            Primitive::AllReduce => (
                Primitive::Reduce,
                *spec,
                Primitive::Broadcast,
                landing(b),
                false,
            ),
            Primitive::AlltoAll => (
                Primitive::AlltoAll,
                *spec,
                Primitive::Scatter,
                landing(b),
                true,
            ),
            Primitive::ReduceScatter => (
                Primitive::Reduce,
                *spec,
                Primitive::Scatter,
                landing(b / (n * h)),
                true,
            ),
            Primitive::AllGather => {
                // The local AllGather's intermediate result lands in a
                // scratch region past the final destination window. Sizes
                // that overflow cannot fit the bank either; the plans
                // below check the ones that do not.
                let global = h.checked_mul(n).and_then(|ranks| ranks.checked_mul(b));
                let scratch = global
                    .and_then(|len| spec.dst_offset.checked_add(len))
                    .and_then(|end| end.checked_next_multiple_of(64));
                let (Some(global), Some(scratch)) = (global, scratch) else {
                    return Err(Error::InvalidBuffer(format!(
                        "multi-host AllGather of {b} bytes per node over {} ranks at offset {} overflows",
                        n * h,
                        spec.dst_offset
                    )));
                };
                let gathered = BufferSpec {
                    dst_offset: scratch,
                    ..*spec
                };
                (
                    Primitive::AllGather,
                    gathered,
                    Primitive::Broadcast,
                    landing(global),
                    false,
                )
            }
            other => {
                return Err(Error::InvalidHostData(format!(
                    "{other} has no hierarchical multi-host form"
                )))
            }
        };
        if per_global_rank && !b.is_multiple_of(8 * n * h) {
            return Err(Error::InvalidBuffer(format!(
                "multi-host {primitive} needs bytes_per_node divisible by 8 x {} (hosts x group size); got {b}",
                n * h
            )));
        }

        // One level fans out: an explicit bound on every host caps the
        // host fan-out at the largest bound, any host on auto keeps it
        // automatic. Hosts that run concurrently plan their local
        // collectives serial; a serial host loop leaves each host its
        // communicator's own bound. Purely an execution-schedule knob —
        // results and reports are byte-identical at every setting.
        let requested = if self.comms.iter().any(|c| c.threads() == 0) {
            0
        } else {
            self.comms.iter().map(|c| c.threads()).max().unwrap_or(1)
        };
        let host_threads = parallel::effective_threads(requested, h);
        let collect = |prim: Primitive, spec: &BufferSpec| -> Result<Vec<CollectivePlan>> {
            self.comms
                .iter()
                .map(|c| {
                    let threads = if host_threads > 1 { 1 } else { c.threads() };
                    CollectivePlan::build(c.manager(), c.opt(), prim, mask, spec, op, threads)
                })
                .collect()
        };

        Ok(MultiHostPlan {
            primitive,
            spec: *spec,
            op,
            link: self.link,
            hosts: h,
            host_threads,
            n,
            num_groups,
            // Only the moving hierarchies walk the group member tables
            // (for their host-side snapshot); the reducing ones just count
            // groups.
            groups: if matches!(primitive, Primitive::AlltoAll | Primitive::AllGather) {
                manager.groups(mask)?
            } else {
                Vec::new()
            },
            phase1: collect(prim1, &spec1)?,
            phase3: collect(prim3, &spec3)?,
        })
    }

    /// Hierarchical AllReduce across all hosts (§IX-A): local Reduce to
    /// each host's root, an inter-host exchange of the (small) reduced
    /// vectors, then local Broadcast. Every PE of every host ends with the
    /// global element-wise reduction at `spec.dst_offset`.
    ///
    /// # Errors
    ///
    /// Propagates local collective validation errors; `systems.len()` must
    /// equal the host count.
    pub fn all_reduce(
        &self,
        systems: &mut [PimSystem],
        mask: &DimMask,
        spec: &BufferSpec,
        op: ReduceKind,
    ) -> Result<MultiHostReport> {
        self.plan(Primitive::AllReduce, mask, spec, op)?
            .execute(systems)
    }

    /// Hierarchical AlltoAll across all hosts: a local AlltoAll groups data
    /// by destination, the `(H-1)/H` cross-host fraction travels over the
    /// link, and a local Scatter places the incoming chunks. Node ranks are
    /// global: host `h`, local rank `r` is global rank `h * N + r`, and
    /// `spec.bytes_per_node` covers `H × N` chunks.
    ///
    /// # Errors
    ///
    /// Propagates local collective validation errors.
    pub fn all_to_all(
        &self,
        systems: &mut [PimSystem],
        mask: &DimMask,
        spec: &BufferSpec,
    ) -> Result<MultiHostReport> {
        self.plan(Primitive::AlltoAll, mask, spec, ReduceKind::Sum)?
            .execute(systems)
    }

    /// Hierarchical ReduceScatter across all hosts: local Reduce per host,
    /// an inter-host exchange of the reduced vectors, then a local Scatter
    /// of each host's chunk range. Global rank `h * N + r` receives chunk
    /// `h * N + r` of the globally reduced vector; `spec.bytes_per_node`
    /// covers `H × N` chunks (§IX-A: "similar trends persist in
    /// ReduceScatter whose data are sent after reduction").
    ///
    /// # Errors
    ///
    /// Propagates local collective validation errors.
    pub fn reduce_scatter(
        &self,
        systems: &mut [PimSystem],
        mask: &DimMask,
        spec: &BufferSpec,
        op: ReduceKind,
    ) -> Result<MultiHostReport> {
        self.plan(Primitive::ReduceScatter, mask, spec, op)?
            .execute(systems)
    }

    /// Hierarchical AllGather across all hosts: local AllGather, an
    /// inter-host exchange of the per-host concatenations (data crosses
    /// the link *before* duplication, §IX-A), then a local Broadcast of
    /// the global concatenation ordered by global rank.
    ///
    /// # Errors
    ///
    /// Propagates local collective validation errors.
    pub fn all_gather(
        &self,
        systems: &mut [PimSystem],
        mask: &DimMask,
        spec: &BufferSpec,
    ) -> Result<MultiHostReport> {
        self.plan(Primitive::AllGather, mask, spec, ReduceKind::Sum)?
            .execute(systems)
    }
}

/// A planned hierarchical collective: the host-level schedule, the shared
/// group tables and one inner [`CollectivePlan`] per host per local phase,
/// reusable across any number of executions (see [`MultiHost::plan`]).
pub struct MultiHostPlan {
    primitive: Primitive,
    spec: BufferSpec,
    op: ReduceKind,
    link: LinkModel,
    hosts: usize,
    /// Host-level fan-out, resolved once at plan time.
    host_threads: usize,
    /// Local communication group size `N`.
    n: usize,
    num_groups: usize,
    /// The per-host group tables (identical on every host — all hosts
    /// share one hypercube shape), captured once.
    groups: Vec<CommGroup>,
    /// Per-host plans of the first local phase.
    phase1: Vec<CollectivePlan>,
    /// Per-host plans of the closing local phase.
    phase3: Vec<CollectivePlan>,
}

impl MultiHostPlan {
    /// The hierarchical primitive this plan executes.
    pub fn primitive(&self) -> Primitive {
        self.primitive
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Time the phase-2 inter-host exchange spends on the link — purely
    /// analytic (the functional path computes nothing else for it), so
    /// the **single source of truth** shared by [`MultiHostPlan::execute`]
    /// and [`MultiHostPlan::execute_cost_only`].
    fn mpi_ns(&self) -> f64 {
        let h = self.hosts;
        let b = self.spec.bytes_per_node;
        let n = self.n;
        match self.primitive {
            // Reduced vectors cross twice (reduce-scatter + all-gather ring).
            Primitive::AllReduce => self
                .link
                .collective_time(h, (self.num_groups * b) as u64, 2.0),
            // The (H-1)/H cross-host fraction of each host's share.
            Primitive::AlltoAll => {
                let total_bytes = (self.num_groups * n * h * b) as u64;
                self.link.collective_time(h, total_bytes / h as u64, 1.0)
            }
            Primitive::ReduceScatter => {
                self.link
                    .collective_time(h, (self.num_groups * b) as u64, 1.0)
            }
            // Per-host concatenations cross once, before duplication.
            Primitive::AllGather => {
                let total = (self.num_groups * h * n * b) as u64;
                self.link.collective_time(h, total, 1.0)
            }
            _ => unreachable!("plan() only builds hierarchical primitives"),
        }
    }

    /// Cost-only execution: folds the stored cost sheets of both local
    /// phases of every host ([`CollectivePlan::execute_cost_only`]) plus
    /// the analytic link model into a [`MultiHostReport`] bit-identical to
    /// [`MultiHostPlan::execute`] on fresh systems — without moving a
    /// byte. The per-host meter is accumulated exactly as the functional
    /// path does (phase 1 from zero, phase 3 continuing on the same
    /// meter, then the phase-3 delta added back), so even the f64
    /// rounding sequence matches.
    pub fn execute_cost_only(&self, model: &TimeModel) -> MultiHostReport {
        let mut locals = Vec::with_capacity(self.hosts);
        for host in 0..self.hosts {
            let mut meter = Breakdown::new();
            self.phase1[host].sheet.apply_to(&mut meter, model);
            let p1 = meter;
            self.phase3[host].sheet.apply_to(&mut meter, model);
            let extra = meter.since(&p1);
            let mut local = p1;
            local += extra;
            locals.push(local);
        }
        MultiHostReport {
            local: slowest(&locals),
            mpi_ns: self.mpi_ns(),
            hosts: self.hosts,
        }
    }

    /// Executes the planned collective over one [`PimSystem`] per host:
    /// a local collective on every host, the inter-host exchange, and a
    /// local rooted send of what each host is owed.
    ///
    /// # Errors
    ///
    /// `systems.len()` must equal the host count; propagates local
    /// execution errors (e.g. geometry mismatches).
    pub fn execute(&self, systems: &mut [PimSystem]) -> Result<MultiHostReport> {
        if systems.len() != self.hosts {
            return Err(Error::InvalidHostData(format!(
                "{} systems for {} hosts",
                systems.len(),
                self.hosts
            )));
        }
        let (src, b) = (self.spec.src_offset, self.spec.bytes_per_node);

        // Snapshot, `[group][global rank]` (AlltoAll / AllGather; `groups`
        // is empty otherwise): the moving hierarchies compute their global
        // result host-side over the union of all hosts' groups, from the
        // sources as they were before the local phase rearranges them.
        let snapshot: Vec<Vec<Vec<u8>>> = self
            .groups
            .iter()
            .map(|g| {
                let ranks = systems
                    .iter()
                    .flat_map(|sys| g.members.iter().map(move |&pe| sys.pe(pe).peek(src, b)));
                ranks.collect()
            })
            .collect();

        // Phase 1: the first local collective on every host (hosts really
        // run in parallel, one worker thread each).
        let phase1 = par_hosts(self.host_threads, systems, |host, sys| {
            self.phase1[host].run(sys, None)
        })?;

        // Phase 2: the inter-host exchange; its time is analytic
        // ([`MultiHostPlan::mpi_ns`]).
        let inputs = self.phase2(&phase1, &snapshot);

        // Phase 3: every host lands its share — or the one set all hosts
        // share — with a local rooted send.
        let phase3 = par_hosts(self.host_threads, systems, |host, sys| {
            self.phase3[host].run(sys, Some(&inputs[host % inputs.len()]))
        })?;

        let locals: Vec<Breakdown> = phase1
            .iter()
            .zip(&phase3)
            .map(|(first, last)| {
                let mut local = first.report.breakdown;
                local += last.report.breakdown;
                local
            })
            .collect();
        Ok(MultiHostReport {
            local: slowest(&locals),
            mpi_ns: self.mpi_ns(),
            hosts: self.hosts,
        })
    }

    /// Phase 2, functionally: turns what phase 1 left — the per-host
    /// reduced vectors, or the snapshot — into phase 3's host input, one
    /// buffer per group. Returns one such set per host, or a single set
    /// where every host lands the same bytes (AllReduce, AllGather).
    fn phase2(&self, phase1: &[Execution], snapshot: &[Vec<Vec<u8>>]) -> Vec<Vec<Vec<u8>>> {
        let (h, n) = (self.hosts, self.n);
        match self.primitive {
            Primitive::AllReduce | Primitive::ReduceScatter => {
                // The hosts' reduced vectors, reduced across hosts.
                let mut reduced = phase1
                    .iter()
                    .map(|e| e.host_out.as_deref().expect("Reduce returns host output"));
                let mut global = reduced.next().expect("at least one host").to_vec();
                for host in reduced {
                    for (acc, src) in global.iter_mut().zip(host) {
                        reduce_bytes(self.op, self.spec.dtype, acc, src);
                    }
                }
                if self.primitive == Primitive::AllReduce {
                    return vec![global];
                }
                // Host `host` scatters the chunks of its own ranks.
                let share = self.spec.bytes_per_node / h;
                let mine = |host: usize| host * share..(host + 1) * share;
                (0..h)
                    .map(|host| global.iter().map(|g| g[mine(host)].to_vec()).collect())
                    .collect()
            }
            // The global concatenation, ordered by global rank.
            Primitive::AllGather => vec![snapshot.iter().map(|ranks| ranks.concat()).collect()],
            Primitive::AlltoAll => {
                // The global AlltoAll oracle runs once per group; every
                // host scatters its own rank range of the shared result.
                let global: Vec<Vec<Vec<u8>>> = snapshot
                    .iter()
                    .map(|ranks| oracle::alltoall(ranks))
                    .collect();
                let mine = |host: usize| host * n..(host + 1) * n;
                (0..h)
                    .map(|host| global.iter().map(|out| out[mine(host)].concat()).collect())
                    .collect()
            }
            _ => unreachable!("plan() only builds hierarchical primitives"),
        }
    }
}

fn slowest(locals: &[Breakdown]) -> Breakdown {
    locals
        .iter()
        .copied()
        .max_by(|a, b| a.total().partial_cmp(&b.total()).unwrap())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::{HypercubeManager, HypercubeShape};
    use pim_sim::{DType, DimmGeometry};

    fn ensemble(hosts: usize, threads: usize) -> (MultiHost, Vec<PimSystem>, DimMask) {
        let geom = DimmGeometry::single_rank(); // 64 PEs per host
        let comms: Vec<Communicator> = (0..hosts)
            .map(|_| {
                let m =
                    HypercubeManager::new(HypercubeShape::new(vec![8, 8]).unwrap(), geom).unwrap();
                Communicator::new(m).with_threads(threads)
            })
            .collect();
        let systems: Vec<PimSystem> = (0..hosts).map(|_| PimSystem::new(geom)).collect();
        let mh = MultiHost::new(comms, LinkModel::ethernet_10g()).unwrap();
        (mh, systems, "10".parse().unwrap())
    }

    fn fill(systems: &mut [PimSystem], bytes: usize) {
        for (h, sys) in systems.iter_mut().enumerate() {
            for pe in sys.geometry().pes() {
                let data: Vec<u8> = (0..bytes)
                    .map(|i| ((h * 19 + pe.0 as usize * 7 + i) % 113) as u8)
                    .collect();
                sys.pe_mut(pe).write(0, &data);
            }
        }
    }

    #[test]
    fn panicking_host_worker_becomes_typed_error() {
        let geom = DimmGeometry::single_rank();
        let mut systems: Vec<PimSystem> = (0..3).map(|_| PimSystem::new(geom)).collect();
        for threads in [1usize, 3] {
            let err = par_hosts(threads, &mut systems, |h, _sys| -> Result<u32> {
                if h >= 1 {
                    panic!("host worker {h} crashed");
                }
                Ok(h as u32)
            })
            .expect_err("panic must surface as an error");
            match err {
                // Hosts 1 and 2 both die; the lowest-numbered one wins.
                Error::WorkerPanicked(msg) => {
                    assert!(msg.starts_with("host 1:"), "{threads}: {msg}");
                    assert!(msg.contains("host worker 1 crashed"), "{threads}: {msg}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn multi_host_all_reduce_reduces_globally() {
        let (mh, mut systems, mask) = ensemble(3, 0);
        let b = 64;
        fill(&mut systems, b);

        // Expected: per group id, reduce over the group members of all hosts.
        let groups = mh.comms[0].manager().groups(&mask).unwrap();
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for g in &groups {
            let mut inputs = Vec::new();
            for sys in systems.iter_mut() {
                for &pe in &g.members {
                    inputs.push(sys.pe_mut(pe).read(0, b).to_vec());
                }
            }
            expected.push(oracle::reduce(&inputs, ReduceKind::Sum, DType::U64));
        }

        let report = mh
            .all_reduce(
                &mut systems,
                &mask,
                &BufferSpec::new(0, 1024, b),
                ReduceKind::Sum,
            )
            .unwrap();
        assert_eq!(report.hosts, 3);
        assert!(report.mpi_ns > 0.0);

        for sys in systems.iter_mut() {
            for (g, want) in groups.iter().zip(&expected) {
                for &pe in &g.members {
                    let got = sys.pe_mut(pe).read(1024, b).to_vec();
                    assert_eq!(&got, want, "host result for {pe}");
                }
            }
        }
    }

    #[test]
    fn multi_host_alltoall_matches_global_oracle() {
        let hosts = 2;
        let (mh, mut systems, mask) = ensemble(hosts, 0);
        let n = 8;
        let b = 8 * n * hosts; // one 8-byte word per global destination
        fill(&mut systems, b);

        // Capture expected global result.
        let groups = mh.comms[0].manager().groups(&mask).unwrap();
        let mut expected: Vec<Vec<Vec<u8>>> = Vec::new(); // [group][global rank]
        for g in &groups {
            let mut inputs = Vec::new();
            for sys in systems.iter_mut() {
                for &pe in &g.members {
                    inputs.push(sys.pe_mut(pe).read(0, b).to_vec());
                }
            }
            expected.push(oracle::alltoall(&inputs));
        }

        let report = mh
            .all_to_all(&mut systems, &mask, &BufferSpec::new(0, 4096, b))
            .unwrap();
        assert!(report.mpi_ns > 0.0);

        for (h, sys) in systems.iter_mut().enumerate() {
            for (g, want) in groups.iter().zip(&expected) {
                for (r, &pe) in g.members.iter().enumerate() {
                    let got = sys.pe_mut(pe).read(4096, b).to_vec();
                    assert_eq!(&got, &want[h * n + r], "host {h} {pe}");
                }
            }
        }
    }

    #[test]
    fn single_host_has_no_mpi_cost() {
        let (mh, mut systems, mask) = ensemble(1, 0);
        let b = 64;
        fill(&mut systems, b);
        let report = mh
            .all_reduce(
                &mut systems,
                &mask,
                &BufferSpec::new(0, 1024, b),
                ReduceKind::Sum,
            )
            .unwrap();
        assert_eq!(report.mpi_ns, 0.0);
    }

    #[test]
    fn alltoall_mpi_cost_exceeds_allreduce_mpi_cost() {
        // AllReduce ships reduced data (1/N of input); AlltoAll ships the
        // (H-1)/H fraction of everything (§IX-A).
        let (mh, mut systems, mask) = ensemble(4, 0);
        let n = 8;
        let b = 8 * n * 4;
        fill(&mut systems, b);
        let ar = mh
            .all_reduce(
                &mut systems,
                &mask,
                &BufferSpec::new(0, 8192, b),
                ReduceKind::Sum,
            )
            .unwrap();
        fill(&mut systems, b);
        let aa = mh
            .all_to_all(&mut systems, &mask, &BufferSpec::new(0, 16384, b))
            .unwrap();
        assert!(
            aa.mpi_ns > ar.mpi_ns,
            "AA {} vs AR {}",
            aa.mpi_ns,
            ar.mpi_ns
        );
    }

    #[test]
    fn multi_host_reduce_scatter_chunks_globally() {
        let hosts = 2;
        let (mh, mut systems, mask) = ensemble(hosts, 0);
        let n = 8;
        let b = 8 * n * hosts; // one 8-byte chunk per global rank
        fill(&mut systems, b);

        // Expected: global rank h*n + r gets chunk h*n + r of the global sum.
        let groups = mh.comms[0].manager().groups(&mask).unwrap();
        let mut expected: Vec<Vec<Vec<u8>>> = Vec::new(); // [group][global rank]
        for g in &groups {
            let mut inputs = Vec::new();
            for sys in systems.iter_mut() {
                for &pe in &g.members {
                    inputs.push(sys.pe_mut(pe).read(0, b).to_vec());
                }
            }
            expected.push(oracle::reduce_scatter(&inputs, ReduceKind::Sum, DType::U64));
        }

        let report = mh
            .reduce_scatter(
                &mut systems,
                &mask,
                &BufferSpec::new(0, 4096, b),
                ReduceKind::Sum,
            )
            .unwrap();
        assert!(report.mpi_ns > 0.0);
        let chunk = b / (n * hosts);
        for (h, sys) in systems.iter_mut().enumerate() {
            for (g, want) in groups.iter().zip(&expected) {
                for (r, &pe) in g.members.iter().enumerate() {
                    let got = sys.pe_mut(pe).read(4096, chunk).to_vec();
                    assert_eq!(&got, &want[h * n + r], "host {h} {pe}");
                }
            }
        }
    }

    #[test]
    fn multi_host_all_gather_concatenates_globally() {
        let hosts = 2;
        let (mh, mut systems, mask) = ensemble(hosts, 0);
        let n = 8;
        let b = 16;
        fill(&mut systems, b);

        let groups = mh.comms[0].manager().groups(&mask).unwrap();
        let mut expected: Vec<Vec<u8>> = Vec::new(); // [group] global concat
        for g in &groups {
            let mut cat = Vec::new();
            for sys in systems.iter_mut() {
                for &pe in &g.members {
                    cat.extend(sys.pe_mut(pe).read(0, b).to_vec());
                }
            }
            expected.push(cat);
        }

        let report = mh
            .all_gather(&mut systems, &mask, &BufferSpec::new(0, 4096, b))
            .unwrap();
        assert!(report.mpi_ns > 0.0);
        for sys in systems.iter_mut() {
            for (g, want) in groups.iter().zip(&expected) {
                for &pe in &g.members {
                    let got = sys.pe_mut(pe).read(4096, hosts * n * b).to_vec();
                    assert_eq!(&got, want, "{pe}");
                }
            }
        }
    }

    #[test]
    fn reduced_primitives_ship_less_mpi_data_than_allgather() {
        // §IX-A: RS sends data after reduction, AG before duplication.
        let (mh, mut systems, mask) = ensemble(4, 0);
        let n = 8;
        let b = 8 * n * 4;
        fill(&mut systems, b);
        let rs = mh
            .reduce_scatter(
                &mut systems,
                &mask,
                &BufferSpec::new(0, 8192, b),
                ReduceKind::Sum,
            )
            .unwrap();
        fill(&mut systems, 16);
        let ag = mh
            .all_gather(&mut systems, &mask, &BufferSpec::new(0, 8192, 16))
            .unwrap();
        assert!(rs.mpi_ns > 0.0 && ag.mpi_ns > 0.0);
    }

    /// The one body, over every hierarchy and host count: one error
    /// variant for the one divisibility rule, the functional report equal
    /// to the analytic one bit for bit, a plan that carries nothing from
    /// one execution into the next, and one level of fan-out — hosts that
    /// run concurrently plan serial local collectives, a serial host loop
    /// leaves each host its own bound.
    #[test]
    fn every_hierarchy_at_every_host_count() {
        let n = 8;
        let dst = 4096;
        for (hosts, threads) in [(1, 4), (2, 2), (4, 3), (4, 0)] {
            let (mh, mut systems, mask) = ensemble(hosts, threads);
            // (primitive, bytes per node, a size the rule rejects, bytes landed per PE)
            let per_rank = 8 * n * hosts;
            for (prim, b, bad_b, landed) in [
                (Primitive::AllReduce, per_rank, 4 * n, per_rank),
                (Primitive::AlltoAll, per_rank, 4 * n * hosts, per_rank),
                (Primitive::ReduceScatter, per_rank, 4 * n * hosts, 8),
                (Primitive::AllGather, 16, 4, 16 * n * hosts),
            ] {
                let what = format!("{prim} x {hosts} at threads={threads}");
                let plan = |b| mh.plan(prim, &mask, &BufferSpec::new(0, dst, b), ReduceKind::Sum);
                assert!(
                    matches!(plan(bad_b), Err(Error::InvalidBuffer(_))),
                    "{what}: {bad_b} bytes"
                );
                let plan = plan(b).unwrap();
                let analytic = plan.execute_cost_only(&TimeModel::upmem());
                let want = |items| match plan.host_threads {
                    1 => parallel::effective_threads(threads, items),
                    _ => 1,
                };
                for p in plan.phase1.iter().chain(&plan.phase3) {
                    let want = (want(p.clusters.len()), want(p.groups.len()));
                    assert_eq!((p.cluster_threads, p.group_threads), want, "{what}");
                }
                let mut run = || {
                    systems.iter_mut().for_each(PimSystem::reset);
                    fill(&mut systems, b);
                    let report = plan.execute(&mut systems).unwrap();
                    let image: Vec<Vec<u8>> = systems
                        .iter()
                        .flat_map(|sys| sys.geometry().pes().map(|pe| sys.pe(pe).peek(dst, landed)))
                        .collect();
                    (report, image)
                };
                let (first, second) = (run(), run());
                assert_eq!(first, second, "{what}: second execute");
                assert_eq!(first.0, analytic, "{what}: cost-only");
                assert_eq!(
                    first.0.time_ns().to_bits(),
                    analytic.time_ns().to_bits(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn mismatched_system_count_rejected() {
        let (mh, mut systems, mask) = ensemble(2, 0);
        systems.pop();
        let err = mh
            .all_reduce(
                &mut systems,
                &mask,
                &BufferSpec::new(0, 1024, 64),
                ReduceKind::Sum,
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvalidHostData(_)));
    }

    #[test]
    fn link_model_scaling() {
        let link = LinkModel::ethernet_10g();
        assert_eq!(link.collective_time(1, 1 << 20, 2.0), 0.0);
        let t2 = link.collective_time(2, 1 << 20, 1.0);
        let t4 = link.collective_time(4, 1 << 20, 1.0);
        assert!(t4 > t2, "more hosts, more link time");
    }
}
