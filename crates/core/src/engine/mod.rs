//! Execution engine: validation, dispatch and cost application.
//!
//! Two halves: [`plan`] derives everything payload-independent once
//! (validated buffer geometry, cluster decomposition, phase-B schedules,
//! resolved thread fan-out) into a reusable [`plan::CollectivePlan`], and
//! [`plan::CollectivePlan::run`] is the payload-dependent half — the one
//! entry every way of executing a collective ends in.

pub(crate) mod baseline;
pub mod hostkernel;
pub(crate) mod parallel;
pub mod plan;
pub mod prepared;
pub mod recovery;
pub mod sheet;
pub(crate) mod streaming;
pub mod supervisor;

use pim_sim::dtype::DType;
use pim_sim::pe::MRAM_CAPACITY;

use crate::config::Primitive;
use crate::error::{Error, Result};
use crate::report::CommReport;

/// Buffer description shared by all collective calls: the same MRAM offsets
/// apply to every participating PE (the SPMD convention of the paper's
/// API, Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferSpec {
    /// Source MRAM offset on every PE (ignored by Scatter/Broadcast).
    pub src_offset: usize,
    /// Destination MRAM offset on every PE (ignored by Gather/Reduce).
    pub dst_offset: usize,
    /// Payload bytes per node; see each primitive for the exact meaning
    /// (total send size for AlltoAll/ReduceScatter/AllReduce/Reduce/Gather,
    /// per-node contribution for AllGather, per-node receive size for
    /// Scatter/Broadcast).
    pub bytes_per_node: usize,
    /// Element type of the payload.
    pub dtype: DType,
}

impl BufferSpec {
    /// Convenience constructor with `u64` elements.
    pub fn new(src_offset: usize, dst_offset: usize, bytes_per_node: usize) -> Self {
        Self {
            src_offset,
            dst_offset,
            bytes_per_node,
            dtype: DType::U64,
        }
    }

    /// Sets the element type.
    pub fn with_dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }
}

/// Outcome of one plan execution ([`plan::CollectivePlan::run`]).
#[derive(Debug, Clone)]
pub struct Execution {
    /// Modeled-time report of the execution.
    pub report: CommReport,
    /// Host output buffers (Gather/Reduce only), one per group.
    pub host_out: Option<Vec<Vec<u8>>>,
}

/// MRAM byte ranges `(src_len, dst_len)` a primitive touches per PE.
pub(crate) fn buffer_extents(primitive: Primitive, b: usize, n: usize) -> (usize, usize) {
    match primitive {
        Primitive::AlltoAll | Primitive::AllReduce => (b, b),
        Primitive::ReduceScatter => (b, b / n),
        Primitive::AllGather => (b, b * n),
        Primitive::Scatter => (0, b),
        Primitive::Gather | Primitive::Reduce => (b, 0),
        Primitive::Broadcast => (0, b),
    }
}

/// Logical data volumes `(bytes_in, bytes_out)` for throughput reporting.
pub(crate) fn logical_volumes(
    primitive: Primitive,
    b: usize,
    n: usize,
    p: usize,
    g: usize,
) -> (u64, u64) {
    let (b, n, p, g) = (b as u64, n as u64, p as u64, g as u64);
    match primitive {
        Primitive::AlltoAll | Primitive::AllReduce => (p * b, p * b),
        Primitive::ReduceScatter => (p * b, p * b / n),
        Primitive::AllGather => (p * b, p * b * n),
        Primitive::Scatter => (g * n * b, p * b),
        Primitive::Gather => (p * b, g * n * b),
        Primitive::Reduce => (p * b, g * b),
        Primitive::Broadcast => (g * b, p * b),
    }
}

/// The payload-independent validation half: everything about the spec that
/// can be checked at plan time, without a system or host buffers.
pub(crate) fn validate_spec(primitive: Primitive, spec: &BufferSpec, n: usize) -> Result<()> {
    let b = spec.bytes_per_node;
    if b == 0 {
        return Err(Error::InvalidBuffer("bytes_per_node is zero".into()));
    }
    if !b.is_multiple_of(spec.dtype.size_bytes()) {
        return Err(Error::InvalidBuffer(format!(
            "bytes_per_node {b} is not a multiple of element size {}",
            spec.dtype.size_bytes()
        )));
    }
    let chunked = matches!(
        primitive,
        Primitive::AlltoAll | Primitive::ReduceScatter | Primitive::AllReduce | Primitive::Reduce
    );
    if chunked && !b.is_multiple_of(8 * n) {
        return Err(Error::InvalidBuffer(format!(
            "{primitive} needs bytes_per_node divisible by 8 x group size ({}); got {b}",
            8 * n
        )));
    }
    if !chunked && !b.is_multiple_of(8) {
        return Err(Error::InvalidBuffer(format!(
            "{primitive} needs bytes_per_node divisible by 8; got {b}"
        )));
    }

    // Every primitive has an extent of at least `b` bytes, so a larger `b`
    // cannot fit — and bounding it first keeps `b * n` below from
    // overflowing.
    if b > MRAM_CAPACITY {
        return Err(Error::InvalidBuffer(format!(
            "bytes_per_node {b} exceeds the {MRAM_CAPACITY}-byte MRAM bank"
        )));
    }
    let (src_len, dst_len) = buffer_extents(primitive, b, n);
    let s = bank_extent("source", spec.src_offset, src_len)?;
    let d = bank_extent("destination", spec.dst_offset, dst_len)?;
    if src_len > 0 && dst_len > 0 && s.start < d.end && d.start < s.end {
        return Err(Error::InvalidBuffer(format!(
            "source [{}, {}) and destination [{}, {}) regions overlap",
            s.start, s.end, d.start, d.end
        )));
    }
    Ok(())
}

/// The per-PE MRAM range `[offset, offset + len)`, or
/// [`Error::InvalidBuffer`] when it does not end inside the bank. An
/// extent of no bytes is not accessed, so its offset is not checked (the
/// spec's unused side may hold anything).
fn bank_extent(what: &str, offset: usize, len: usize) -> Result<std::ops::Range<usize>> {
    if len == 0 {
        return Ok(offset..offset);
    }
    match offset.checked_add(len) {
        Some(end) if end <= MRAM_CAPACITY => Ok(offset..end),
        _ => Err(Error::InvalidBuffer(format!(
            "{what} region of {len} bytes at offset {offset} ends past the {MRAM_CAPACITY}-byte MRAM bank"
        ))),
    }
}

/// The payload-dependent validation half: host buffer counts and sizes,
/// checked at execute time.
pub(crate) fn validate_host_in(
    primitive: Primitive,
    b: usize,
    n: usize,
    num_groups: usize,
    host_in: Option<&[Vec<u8>]>,
) -> Result<()> {
    match primitive {
        Primitive::Scatter | Primitive::Broadcast => {
            let host_in = host_in.ok_or_else(|| {
                Error::InvalidHostData(format!("{primitive} requires host input buffers"))
            })?;
            if host_in.len() != num_groups {
                return Err(Error::InvalidHostData(format!(
                    "expected {num_groups} host buffers (one per group), got {}",
                    host_in.len()
                )));
            }
            let expect = if primitive == Primitive::Scatter {
                n * b
            } else {
                b
            };
            for (i, buf) in host_in.iter().enumerate() {
                if buf.len() != expect {
                    return Err(Error::InvalidHostData(format!(
                        "host buffer {i} has {} bytes, expected {expect}",
                        buf.len()
                    )));
                }
            }
        }
        _ => {
            if host_in.is_some() {
                return Err(Error::InvalidHostData(format!(
                    "{primitive} takes no host input buffers"
                )));
            }
        }
    }
    Ok(())
}
