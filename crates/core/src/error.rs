//! Error type of the PID-Comm library.

use core::fmt;

use pim_sim::CorruptionEvent;

/// Errors returned by PID-Comm operations.
///
/// Non-exhaustive: the fault-tolerant execution layer grows new variants
/// (detected corruption, failed PEs) without breaking downstream matches.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A hypercube shape was invalid (empty, zero-length dimension, or a
    /// non-power-of-two length in a dimension other than the last).
    InvalidShape(String),
    /// A dimension mask string was malformed or did not match the shape.
    InvalidMask(String),
    /// The hypercube does not match the PE count of the target system.
    ShapeSystemMismatch {
        /// Nodes in the hypercube.
        nodes: usize,
        /// PEs in the system.
        pes: usize,
    },
    /// A buffer size or offset failed a primitive's alignment requirements.
    InvalidBuffer(String),
    /// Host-side buffers passed to a rooted primitive did not match the
    /// number of communication groups or their sizes.
    InvalidHostData(String),
    /// Write verification detected corrupted data landing on a PE during
    /// a collective execution: the FNV digest of the bytes read back did
    /// not match the digest of the bytes the transport intended to land.
    DataCorruption {
        /// Flat index of the PE whose landed data was corrupted.
        pe: u32,
        /// MRAM offset of the corrupted write.
        offset: usize,
        /// FNV-1a digest of the intended bytes.
        expected: u64,
        /// FNV-1a digest of the bytes found in MRAM.
        found: u64,
        /// Fault-plan epoch (execution index) the corruption occurred in.
        epoch: u64,
    },
    /// A PE required by the collective is stuck (dead DPU) in the current
    /// execution epoch, detected before dispatch.
    PeFailed {
        /// Flat index of the failed PE.
        pe: u32,
        /// Fault-plan epoch (execution index) the failure was observed in.
        epoch: u64,
    },
    /// A worker thread panicked inside a parallel section; the panic was
    /// contained and converted into this error instead of aborting the
    /// whole run.
    WorkerPanicked(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidShape(msg) => write!(f, "invalid hypercube shape: {msg}"),
            Error::InvalidMask(msg) => write!(f, "invalid dimension mask: {msg}"),
            Error::ShapeSystemMismatch { nodes, pes } => write!(
                f,
                "hypercube has {nodes} nodes but the system has {pes} PEs"
            ),
            Error::InvalidBuffer(msg) => write!(f, "invalid buffer: {msg}"),
            Error::InvalidHostData(msg) => write!(f, "invalid host data: {msg}"),
            Error::DataCorruption {
                pe,
                offset,
                expected,
                found,
                epoch,
            } => write!(
                f,
                "data corruption detected on PE {pe} at offset {offset} in epoch {epoch}: \
                 expected digest {expected:#018x}, found {found:#018x}"
            ),
            Error::PeFailed { pe, epoch } => {
                write!(f, "PE {pe} failed (stuck) in epoch {epoch}")
            }
            Error::WorkerPanicked(msg) => write!(f, "worker thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// A write verification mismatch, surfaced as the typed error.
impl From<&CorruptionEvent> for Error {
    fn from(ev: &CorruptionEvent) -> Self {
        Error::DataCorruption {
            pe: ev.pe,
            offset: ev.offset,
            expected: ev.expected,
            found: ev.found,
            epoch: ev.epoch,
        }
    }
}

/// Result alias used throughout the crate.
pub type Result<T> = core::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Error::ShapeSystemMismatch { nodes: 32, pes: 64 };
        assert_eq!(
            format!("{e}"),
            "hypercube has 32 nodes but the system has 64 PEs"
        );
        assert!(format!("{}", Error::InvalidShape("x".into())).contains("invalid hypercube shape"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<Error>();
    }
}
