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
//!
//! [`MultiHost::plan`] is the one way in; [`MultiHostPlan::execute`] is
//! one data path. Phase 2 takes its answer from what phase 1 returned or
//! landed — the reduced vectors, or the bytes the local AlltoAll /
//! AllGather left in every host's MRAM — so a wrong or faulted phase-1
//! landing reaches the result (or is caught by write verification).

use pim_sim::dtype::{reduce_bytes, ReduceKind};
use pim_sim::{Breakdown, PimSystem, TimeModel};

use crate::comm::Communicator;
use crate::config::Primitive;
use crate::engine::hostkernel::{panic_message, par_pes};
use crate::engine::plan::CollectivePlan;
use crate::engine::{parallel, BufferSpec, Execution};
use crate::error::{Error, Result};
use crate::hypercube::{CommGroup, DimMask};

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

    /// Plans one hierarchical collective across all hosts (§IX-A): a local
    /// collective on every host, an inter-host exchange over the link, and
    /// a local rooted send of what each host is owed. Ranks are global:
    /// host `h`, local rank `r` is global rank `h * N + r`. The four
    /// hierarchies:
    ///
    /// - `AllReduce`: local Reduce, the reduced vectors cross the link,
    ///   local Broadcast. Every PE of every host ends with the global
    ///   element-wise reduction at `spec.dst_offset`.
    /// - `AlltoAll`: a local AlltoAll groups data by destination, the
    ///   `(H-1)/H` cross-host fraction crosses the link, a local Scatter
    ///   places the incoming chunks. `spec.bytes_per_node` covers `H × N`
    ///   chunks.
    /// - `ReduceScatter`: local Reduce, the reduced vectors cross the
    ///   link, a local Scatter of each host's chunk range. Global rank
    ///   `h * N + r` receives chunk `h * N + r` of the global reduction
    ///   (`H × N` chunks; "data are sent after reduction").
    /// - `AllGather`: a local AllGather into a scratch window past the
    ///   destination, the per-host concatenations cross the link *before*
    ///   duplication, a local Broadcast of the global concatenation
    ///   ordered by global rank.
    ///
    /// Planning resolves the host-level thread schedule once (concurrently
    /// running hosts get serial inner plans), builds the per-host inner
    /// [`CollectivePlan`]s for both local phases. The returned
    /// [`MultiHostPlan`] executes any number of times.
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
        let n = mask.group_size(self.comms[0].manager().shape())?;

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
            phase1: collect(prim1, &spec1)?,
            phase3: collect(prim3, &spec3)?,
        })
    }
}

/// A planned hierarchical collective: the host-level schedule and one
/// inner [`CollectivePlan`] per host per local phase, reusable across any
/// number of executions (see [`MultiHost::plan`]).
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
    /// Per-host plans of the first local phase. All hosts share one
    /// hypercube shape, so host 0's group table is every host's; AlltoAll
    /// and AllGather read phase 1's landings through it.
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
        let (h, n, b) = (self.hosts, self.n, self.spec.bytes_per_node);
        let num_groups = self.phase1[0].num_groups();
        match self.primitive {
            // Reduced vectors cross twice (reduce-scatter + all-gather ring).
            Primitive::AllReduce => self.link.collective_time(h, (num_groups * b) as u64, 2.0),
            // The (H-1)/H cross-host fraction of each host's share.
            Primitive::AlltoAll => {
                let total_bytes = (num_groups * n * h * b) as u64;
                self.link.collective_time(h, total_bytes / h as u64, 1.0)
            }
            Primitive::ReduceScatter => self.link.collective_time(h, (num_groups * b) as u64, 1.0),
            // Per-host concatenations cross once, before duplication.
            Primitive::AllGather => {
                let total = (num_groups * h * n * b) as u64;
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
        // Phase 1: the first local collective on every host (hosts really
        // run in parallel, one worker thread each).
        let phase1 = par_hosts(self.host_threads, systems, |host, sys| {
            self.phase1[host].run(sys, None)
        })?;

        // Phase 2: the inter-host exchange, read from what phase 1
        // returned or landed; its time is analytic
        // ([`MultiHostPlan::mpi_ns`]).
        let inputs = self.phase2(&phase1, systems);

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
    /// reduced vectors, or the bytes it landed in every host's MRAM — into
    /// phase 3's host input, one buffer per group. Returns one such set
    /// per host, or a single set where every host lands the same bytes
    /// (AllReduce, AllGather).
    fn phase2(&self, phase1: &[Execution], systems: &[PimSystem]) -> Vec<Vec<Vec<u8>>> {
        let (h, n, b) = (self.hosts, self.n, self.spec.bytes_per_node);
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
                let share = b / h;
                let mine = |host: usize| host * share..(host + 1) * share;
                (0..h)
                    .map(|host| global.iter().map(|g| g[mine(host)].to_vec()).collect())
                    .collect()
            }
            // Every member holds its host's concatenation: one member's
            // window per host, in host order, is the global concatenation
            // ordered by global rank.
            Primitive::AllGather => {
                let scratch = self.phase1[0].spec.dst_offset;
                let gather = |g: &CommGroup| {
                    let window = |sys: &PimSystem| sys.pe(g.members[0]).peek(scratch, n * b);
                    systems.iter().flat_map(window).collect()
                };
                vec![self.phase1[0].groups.iter().map(gather).collect()]
            }
            Primitive::AlltoAll => {
                // The local AlltoAll permuted within each host, so the `c`
                // bytes global source `(host, i)` owes global rank `g` sit
                // at that host's local rank `g / H`, offset
                // `i·H·c + (g % H)·c`. Host `to` scatters what its own
                // global ranks are owed, each from every source in rank order.
                let c = b / (h * n);
                let input = |to: usize, group: &CommGroup| {
                    let mut input = vec![0u8; n * b];
                    let mut chunks = input.chunks_exact_mut(c);
                    for g in to * n..(to + 1) * n {
                        let holder = group.members[g / h];
                        for sys in systems {
                            for i in 0..n {
                                let at = self.spec.dst_offset + i * h * c + (g % h) * c;
                                let chunk = chunks.next().expect("n·b = H·N chunks per rank");
                                sys.pe(holder).peek_into(at, chunk);
                            }
                        }
                    }
                    input
                };
                (0..h)
                    .map(|to| self.phase1[0].groups.iter().map(|g| input(to, g)).collect())
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
    use pim_sim::DimmGeometry;

    /// Local group size of [`ensemble`]'s `"10"` mask on its 8x8 cube.
    const N: usize = 8;

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

    /// Byte `i` of PE `pe`'s source on host `host`, as [`fill`] writes it.
    fn source(host: usize, pe: usize, i: usize) -> u8 {
        ((host * 19 + pe * 7 + i) % 113) as u8
    }

    fn fill(systems: &mut [PimSystem], bytes: usize) {
        for (h, sys) in systems.iter_mut().enumerate() {
            for pe in sys.geometry().pes() {
                let data: Vec<u8> = (0..bytes).map(|i| source(h, pe.0 as usize, i)).collect();
                sys.pe_mut(pe).write(0, &data);
            }
        }
    }

    /// What PE `pe` of host `host` holds at the destination after `prim`
    /// (u64 sums) over `hosts` [`fill`]ed hosts of `b` source bytes, as
    /// plain index arithmetic: the `"10"` groups are the rows of the 8x8
    /// cube, so PE `pe` is local rank `pe % N` of group `pe / N`, and
    /// global rank `s` of that group is PE `group·N + s % N` of host
    /// `s / N`.
    fn expected(prim: Primitive, hosts: usize, b: usize, host: usize, pe: usize) -> Vec<u8> {
        let (group, global) = (pe / N, host * N + pe % N);
        let byte = move |s: usize, i: usize| source(s / N, group * N + s % N, i);
        let word = move |s: usize, w: usize| {
            u64::from_le_bytes(std::array::from_fn(|k| byte(s, 8 * w + k)))
        };
        let sum = |w: usize| {
            let total = (0..hosts * N).fold(0u64, |acc, s| acc.wrapping_add(word(s, w)));
            total.to_le_bytes()
        };
        let c = b / (hosts * N);
        let ranks = 0..hosts * N;
        match prim {
            Primitive::AllReduce => (0..b / 8).flat_map(sum).collect(),
            Primitive::AlltoAll => ranks
                .flat_map(|s| (0..c).map(move |i| byte(s, global * c + i)))
                .collect(),
            Primitive::ReduceScatter => (global * c / 8..(global + 1) * c / 8)
                .flat_map(sum)
                .collect(),
            Primitive::AllGather => ranks
                .flat_map(|s| (0..b).map(move |i| byte(s, i)))
                .collect(),
            _ => unreachable!("not a hierarchy"),
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

    /// Link time of `prim` over `hosts` hosts at `b` bytes per node, read
    /// from the plan alone.
    fn mpi_ns(hosts: usize, prim: Primitive, b: usize) -> f64 {
        let (mh, _, mask) = ensemble(hosts, 0);
        let spec = BufferSpec::new(0, 8192, b);
        let plan = mh.plan(prim, &mask, &spec, ReduceKind::Sum).unwrap();
        plan.execute_cost_only(&TimeModel::upmem()).mpi_ns
    }

    #[test]
    fn single_host_has_no_mpi_cost() {
        assert_eq!(mpi_ns(1, Primitive::AllReduce, 64), 0.0);
    }

    #[test]
    fn alltoall_mpi_cost_exceeds_allreduce_mpi_cost() {
        // AllReduce ships reduced data (1/N of input); AlltoAll ships the
        // (H-1)/H fraction of everything (§IX-A).
        let b = 8 * N * 4;
        let (ar, aa) = (
            mpi_ns(4, Primitive::AllReduce, b),
            mpi_ns(4, Primitive::AlltoAll, b),
        );
        assert!(aa > ar, "AA {aa} vs AR {ar}");
    }

    #[test]
    fn reduced_primitives_ship_less_mpi_data_than_allgather() {
        // §IX-A: RS sends data after reduction, AG before duplication.
        let b = 8 * N * 4;
        let (rs, ag) = (
            mpi_ns(4, Primitive::ReduceScatter, b),
            mpi_ns(4, Primitive::AllGather, b),
        );
        assert!(rs < ag, "RS {rs} vs AG {ag}");
    }

    /// The one body, over every hierarchy and host count: the landed
    /// bytes equal [`expected`] on every PE of every host, one error
    /// variant for the one divisibility rule, the functional report equal
    /// to the analytic one bit for bit (with link time exactly when there
    /// is a link), a plan that carries nothing from one execution into
    /// the next, and one level of fan-out — hosts that run concurrently
    /// plan serial local collectives, a serial host loop leaves each host
    /// its own bound.
    #[test]
    fn every_hierarchy_at_every_host_count() {
        let dst = 4096;
        for (hosts, threads) in [(1, 4), (2, 2), (4, 3), (4, 0)] {
            let (mh, mut systems, mask) = ensemble(hosts, threads);
            // (primitive, bytes per node, a size the rule rejects, bytes landed per PE)
            let per_rank = 8 * N * hosts;
            for (prim, b, bad_b, landed) in [
                (Primitive::AllReduce, per_rank, 4 * N, per_rank),
                (Primitive::AlltoAll, per_rank, 4 * N * hosts, per_rank),
                (Primitive::ReduceScatter, per_rank, 4 * N * hosts, 8),
                (Primitive::AllGather, 16, 4, 16 * N * hosts),
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
                for (i, got) in first.1.iter().enumerate() {
                    let (host, pe) = (i / 64, i % 64);
                    let want = expected(prim, hosts, b, host, pe);
                    assert_eq!(got, &want, "{what}: host {host} PE {pe}");
                }
                assert_eq!(first, second, "{what}: second execute");
                assert_eq!(first.0, analytic, "{what}: cost-only");
                assert_eq!(
                    first.0.time_ns().to_bits(),
                    analytic.time_ns().to_bits(),
                    "{what}"
                );
                assert_eq!(first.0.hosts, hosts, "{what}");
                assert_eq!(first.0.mpi_ns > 0.0, hosts > 1, "{what}: link time");
            }
        }
    }

    #[test]
    fn mismatched_system_count_rejected() {
        let (mh, mut systems, mask) = ensemble(2, 0);
        systems.pop();
        let spec = BufferSpec::new(0, 1024, 64);
        let plan = mh.plan(Primitive::AllReduce, &mask, &spec, ReduceKind::Sum);
        let err = plan.unwrap().execute(&mut systems).unwrap_err();
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
