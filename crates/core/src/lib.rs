//! # pidcomm — PID-Comm collective communication for PIM-enabled DIMMs
//!
//! A Rust reproduction of *PID-Comm: A Fast and Flexible Collective
//! Communication Framework for Commodity Processing-in-DIMM Devices*
//! (ISCA 2024), running on the byte-accurate [`pim_sim`] substrate.
//!
//! ## The model
//!
//! PEs are abstracted as a user-defined multi-dimensional virtual
//! [`HypercubeShape`] mapped onto the DRAM hierarchy in chip → bank → rank
//! → channel order. Each collective call selects communication dimensions
//! with a [`DimMask`]; every slice of the hypercube along those dimensions
//! becomes one communication group, and all groups run simultaneously
//! (multi-instance invocation).
//!
//! ## The library
//!
//! [`Communicator`] provides the paper's eight primitives — AlltoAll,
//! ReduceScatter, AllReduce, AllGather, Scatter, Gather, Reduce and
//! Broadcast — with the full optimization stack (PE-assisted reordering,
//! in-register modulation and cross-domain modulation) as well as the
//! conventional baseline and intermediate levels for ablation
//! ([`OptLevel`]).
//!
//! ## Execution engine
//!
//! The engine separates *what the modeled device pays* (the cost sheet,
//! charged from exact operation counts) from *how the simulator computes
//! the bytes*, which lets the functional side run far faster than a
//! literal transcription of the hardware flow while keeping buffers and
//! [`CommReport`]s bit-identical:
//!
//! * **Cluster parallelism** — the [`hypercube`] planner groups a call
//!   into clusters of entangled groups that touch disjoint PEs. Each
//!   cluster executes as an independent task with an exclusive
//!   [`pim_sim::system::EgView`] and a private cost sheet, fanned out over
//!   scoped threads; sheets merge in cluster order, and since every
//!   counter is an exact integer the totals cannot depend on scheduling.
//!   [`Communicator::with_threads`] bounds the fan-out (`1` = serial
//!   reference schedule); `multihost` collectives additionally run one
//!   worker per host.
//! * **Host-domain row transport** — instead of materializing 64-byte
//!   raw-order bursts one at a time, the streaming loops move whole chunks
//!   as per-lane *rows* (the host-domain view of a burst run). The fusion
//!   identity of [`pim_sim::domain`] guarantees a lane-permuted row write
//!   equals domain transfer + register shuffle + domain transfer on every
//!   burst, so modulation degenerates to row indirection and AlltoAll /
//!   AllGather move PE-to-PE with no staging buffer at all. Reductions
//!   accumulate rows straight out of PE memory.
//! * **Resolve-once window transport and phase fusion** — a cluster task
//!   resolves each PE's source and destination regions once
//!   ([`pim_sim::system::EgView::windows`]) and streams every chunk of the
//!   collective between the resolved slices, so an 8-byte chunk costs a
//!   slice copy, not a segment lookup. Phase-C placements are applied
//!   during the streaming writes themselves — every register lands
//!   directly in its final slot, from a table flattened at plan time —
//!   while the cost sheet still charges the PE-side reorder kernel the
//!   device would run. Phase A executes physically (the paper's
//!   destructive source pre-rotation) as a part-wise rotation by the lane
//!   rank, [`pim_sim::pe::Pe::rotate_parts`].
//! * **Persistent plans** — the engine is split into plan and execute
//!   halves: everything payload-independent (validated spec geometry,
//!   cluster decomposition, phase-B schedules, resolved thread fan-out)
//!   lives in a reusable [`CollectivePlan`] built by [`Communicator::plan`] and executed any number of times,
//!   MPI-persistent-request style; [`Communicator::plan_cached`] pools
//!   plans in a keyed [`PlanCache`]. The one-shot methods are themselves
//!   plan-then-execute, and warm re-execution is byte-identical to cold
//!   planning (`tests/plan_reuse.rs`).
//! * **Prepared & fused execution** — the tier above plans: a
//!   [`PreparedScatter`] validates and row-stages a rooted send's host
//!   payload once (arena-pooled image), so repeat executes skip
//!   validation and assembly; a [`FusedPlan`] chains collectives of one
//!   geometry so step *k*'s output is step *k+1*'s in-MRAM input with no
//!   host staging between, with per-step reports bit-identical to
//!   standalone execution (`tests/prepared.rs`).
//!
//! `BENCH_streaming.json` (regenerated by the `bench_json` binary in
//! `pidcomm-bench`) tracks the wall-clock trajectory of the fig. 14 sweep
//! against the modeled times, which must never change.
//!
//! ## Quick start
//!
//! ```
//! use pidcomm::{BufferSpec, Communicator, DimMask, HypercubeManager, HypercubeShape};
//! use pim_sim::{DimmGeometry, PimSystem};
//!
//! // 64 PEs as an 8x8 hypercube.
//! let geom = DimmGeometry::single_rank();
//! let mut sys = PimSystem::new(geom);
//! let manager = HypercubeManager::new(HypercubeShape::new(vec![8, 8])?, geom)?;
//! let comm = Communicator::new(manager);
//!
//! // Every PE sends 8 bytes to each of the 8 nodes in its x-row.
//! for pe in geom.pes() {
//!     sys.pe_mut(pe).write(0, &[pe.0 as u8; 64]);
//! }
//! let report = comm.all_to_all(&mut sys, &DimMask::parse("10")?, &BufferSpec::new(0, 64, 64))?;
//! println!("AlltoAll took {:.1} us", report.time_ns() / 1e3);
//! # Ok::<(), pidcomm::Error>(())
//! ```

// The modeled engine takes no unsafe shortcuts; any future unsafe
// fast path belongs in pim_sim, under simlint's unsafe-audit lint.
#![forbid(unsafe_code)]

pub mod comm;
pub mod config;
pub mod engine;
pub mod error;
pub mod hypercube;
pub mod multihost;
pub mod oracle;
pub mod report;
pub mod topology;

pub use comm::Communicator;
pub use config::{technique_applies, OptLevel, Primitive, Technique};
pub use engine::autotune::{autotune, TuneCandidate, TuneReport, TuneRequest};
pub use engine::hostkernel::{panic_message, par_chunks, par_pes, par_pes_with};
pub use engine::parallel::auto_threads;
pub use engine::plan::{CollectivePlan, PlanCache, PlanCacheStats};
pub use engine::prepared::{FusedExecution, FusedPlan, PreparedScatter};
pub use engine::recovery::{FusedVerifiedExecution, RecoveryPolicy, VerifiedExecution};
pub use engine::supervisor::{RunOutcome, RunPolicy};
pub use engine::BufferSpec;
pub use error::{Error, Result};
pub use hypercube::{DimMask, HypercubeManager, HypercubeShape};
pub use multihost::{LinkModel, MultiHost, MultiHostPlan, MultiHostReport};
pub use report::CommReport;
pub use topology::{topology_all_reduce, Topology};

// Re-export the substrate types that appear in this crate's public API.
pub use pim_sim::{DType, ReduceKind};
