//! Deterministic fault injection: the chaos layer of the PIM substrate.
//!
//! Every number the engine reports assumes perfect hardware; real
//! DIMM-resident PEs are exactly where transient faults live. This module
//! lets tests and harnesses schedule faults *deterministically* — every
//! decision is a pure function of `(seed, pe, epoch, offset)`, so a fault
//! schedule is reproducible bit-for-bit regardless of thread count or
//! scheduling, the same property the rest of the simulator guarantees for
//! fault-free runs.
//!
//! # Fault model
//!
//! Three fault kinds, all striking the host-mediated transport writes (a
//! [`crate::pe::WriteWindow::put`], or a piece a [`crate::pe::Landing`] names):
//!
//! * **Bit flips** ([`FaultKind::BitFlip`]): one bit of a landed write is
//!   inverted — transient MRAM corruption at the moment data lands.
//! * **Row corruption** ([`FaultKind::RowCorrupt`]): one 8-byte lane word
//!   of a landed write is XORed with a pseudo-random mask — an in-flight
//!   row-transfer error.
//! * **Stuck PEs** ([`FaultKind::Stuck`] / [`FaultPlan::with_failed_pe`]):
//!   a dead DPU. Its MRAM stays host-readable (matching UPMEM, where the
//!   host reaches a bank regardless of DPU health) but writes routed to it
//!   are dropped, and it cannot run kernels. Stuck faults are *transient*
//!   (one epoch) when scheduled by event/period, *persistent* when listed
//!   via [`FaultPlan::with_failed_pe`].
//!
//! An **epoch** is one collective execution: the engine calls
//! [`FaultPlan::begin_epoch`] at each execute boundary, so "transient"
//! means "gone on retry".
//!
//! # Detection
//!
//! Detection is read-after-write verification: with a plan attached and
//! verification enabled (see `PimSystem::set_verify_writes`), every
//! transport write reads the landed bytes back and compares them with the
//! intended ones; a landing that differs is named by the FNV-1a digests of
//! both, and the first per PE whose digests differ is recorded as a
//! [`CorruptionEvent`] and surfaced at the execute boundary. Verification
//! never touches the cost meter, so enabling it leaves modeled times
//! bit-identical. It belongs to the plan: with none attached nothing can
//! strike a landing, so every landing takes the direct lane, verified or
//! not, and compares nothing.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a 64-bit digest — the fingerprint primitive of the write
/// verification path (and of the benchmark drift guards).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64-style stateless mixer: one well-spread `u64` per key tuple.
/// All fault decisions come from this, which is what makes the schedule
/// independent of write order and thread count.
fn mix(seed: u64, a: u64, b: u64, c: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(c)
        .wrapping_add(salt.wrapping_mul(0xd6e8_feb8_6659_fd93));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const SALT_FLIP: u64 = 1;
const SALT_ROW: u64 = 2;
const SALT_STUCK: u64 = 3;
const SALT_POS: u64 = 4;

/// The kinds of fault a [`FaultPlan`] can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Invert one bit of a landed transport write.
    BitFlip,
    /// XOR one 8-byte lane word of a landed transport write.
    RowCorrupt,
    /// The PE is dead for the epoch: writes to it are dropped.
    Stuck,
}

/// One explicitly scheduled fault: `kind` strikes PE `pe` during epoch
/// `epoch`. Explicit events make single-fault experiments precise where
/// the period-based schedule is statistical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What happens.
    pub kind: FaultKind,
    /// The PE it happens to (flat PE index).
    pub pe: u32,
    /// The execution epoch it happens in (first execution = epoch 1).
    pub epoch: u64,
}

/// What a scheduled fault does to one landed write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Invert bit `bit` of the written range (bit index within `len * 8`).
    BitFlip {
        /// Bit position within the written bytes.
        bit: usize,
    },
    /// XOR the 8-byte word at `word * 8` with `mask` (never zero).
    RowCorrupt {
        /// Word index within the written bytes.
        word: usize,
        /// Non-zero XOR mask.
        mask: u64,
    },
}

/// First detected write corruption on a PE: the intended vs. landed FNV
/// digests of one transport write. Surfaced at execute boundaries as
/// `pidcomm::Error::DataCorruption`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionEvent {
    /// Flat index of the PE whose write verification failed.
    pub pe: u32,
    /// MRAM offset of the failed write.
    pub offset: usize,
    /// Length of the failed write.
    pub len: usize,
    /// FNV-1a digest of the intended bytes.
    pub expected: u64,
    /// FNV-1a digest of the bytes actually landed.
    pub found: u64,
    /// Fault-plan epoch the write happened in (0 when no plan attached).
    pub epoch: u64,
}

/// A deterministic, seeded schedule of hardware faults.
///
/// A plan combines a *statistical* schedule (per-kind periods: a fault of
/// that kind strikes a write when a hash of `(seed, pe, epoch, offset)`
/// falls on the period) with *explicit* [`FaultEvent`]s and a set of
/// *persistently failed* PEs. All decisions are stateless functions of the
/// key tuple, so the same plan produces the same faults at any thread
/// count; the only mutable state is the epoch counter, advanced once per
/// collective execution at a single-threaded boundary.
///
/// # Examples
///
/// ```
/// use pim_sim::fault::{FaultKind, FaultPlan};
///
/// // PE 3's transport is poisoned during (only) the second execution.
/// let plan = FaultPlan::new(42).with_event(FaultKind::BitFlip, 3, 2);
/// assert_eq!(plan.begin_epoch(), 1);
/// assert!(plan.write_fault(3, 0, 64).is_none());
/// assert_eq!(plan.begin_epoch(), 2);
/// assert!(plan.write_fault(3, 0, 64).is_some());
/// assert!(plan.write_fault(4, 0, 64).is_none());
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    bit_flip_period: u64,
    row_corrupt_period: u64,
    stuck_period: u64,
    events: Vec<FaultEvent>,
    failed_pes: BTreeSet<u32>,
    epoch: AtomicU64,
}

impl FaultPlan {
    /// A plan with the given seed and no faults scheduled.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Schedules statistical bit flips: roughly one write in `period`
    /// (per PE, per epoch, keyed by offset) lands with one bit inverted.
    /// `0` disables the kind.
    pub fn with_bit_flip_period(mut self, period: u64) -> Self {
        self.bit_flip_period = period;
        self
    }

    /// Schedules statistical row corruption: roughly one row-sized write
    /// in `period` lands with one lane word XORed. `0` disables the kind.
    pub fn with_row_corrupt_period(mut self, period: u64) -> Self {
        self.row_corrupt_period = period;
        self
    }

    /// Schedules statistical transient PE failures: PE `p` is stuck for
    /// epoch `e` when `hash(seed, p, e)` falls on the period. `0` disables
    /// the kind.
    pub fn with_stuck_period(mut self, period: u64) -> Self {
        self.stuck_period = period;
        self
    }

    /// Adds one explicit fault event (see [`FaultEvent`]).
    pub fn with_event(mut self, kind: FaultKind, pe: u32, epoch: u64) -> Self {
        self.events.push(FaultEvent { kind, pe, epoch });
        self
    }

    /// Marks a PE as persistently failed: stuck in every epoch. This is
    /// the case bounded retry cannot fix and recovery must degrade around.
    pub fn with_failed_pe(mut self, pe: u32) -> Self {
        self.failed_pes.insert(pe);
        self
    }

    /// The seed the statistical schedule derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current execution epoch (0 before the first [`FaultPlan::begin_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Advances to the next execution epoch and returns it. Called by the
    /// engine at each execute boundary (single-threaded), so "epoch" means
    /// "collective execution" and a retry lands in a fresh epoch.
    pub fn begin_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Whether `pe` is listed as persistently failed.
    pub fn pe_failed_persistent(&self, pe: u32) -> bool {
        self.failed_pes.contains(&pe)
    }

    /// Whether `pe` is stuck (dead) during the current epoch —
    /// persistently failed, explicitly scheduled, or drawn by the stuck
    /// period.
    pub fn pe_stuck(&self, pe: u32) -> bool {
        if self.failed_pes.contains(&pe) {
            return true;
        }
        let e = self.epoch();
        if self
            .events
            .iter()
            .any(|ev| ev.kind == FaultKind::Stuck && ev.pe == pe && ev.epoch == e)
        {
            return true;
        }
        self.stuck_period > 0
            && mix(self.seed, pe as u64, e, 0, SALT_STUCK).is_multiple_of(self.stuck_period)
    }

    /// Decides whether (and how) a transport write of `len` bytes at
    /// `offset` on PE `pe` is corrupted in the current epoch. Pure in
    /// `(seed, pe, epoch, offset, len)`: the same write gets the same
    /// answer no matter when or on which thread it executes.
    pub fn write_fault(&self, pe: u32, offset: usize, len: usize) -> Option<WriteFault> {
        if len == 0 {
            return None;
        }
        let e = self.epoch();
        let pos = mix(self.seed, pe as u64, e, offset as u64, SALT_POS);
        for ev in &self.events {
            if ev.pe != pe || ev.epoch != e {
                continue;
            }
            match ev.kind {
                FaultKind::BitFlip => {
                    return Some(WriteFault::BitFlip {
                        bit: (pos % (len as u64 * 8)) as usize,
                    })
                }
                FaultKind::RowCorrupt if len >= 8 => {
                    return Some(WriteFault::RowCorrupt {
                        word: (pos % (len as u64 / 8)) as usize,
                        mask: pos | 1,
                    })
                }
                _ => {}
            }
        }
        if self.bit_flip_period > 0
            && mix(self.seed, pe as u64, e, offset as u64, SALT_FLIP)
                .is_multiple_of(self.bit_flip_period)
        {
            return Some(WriteFault::BitFlip {
                bit: (pos % (len as u64 * 8)) as usize,
            });
        }
        if self.row_corrupt_period > 0
            && len >= 8
            && mix(self.seed, pe as u64, e, offset as u64, SALT_ROW)
                .is_multiple_of(self.row_corrupt_period)
        {
            return Some(WriteFault::RowCorrupt {
                word: (pos % (len as u64 / 8)) as usize,
                mask: pos | 1,
            });
        }
        None
    }
}

/// A PE's handle on the system's shared fault plan: its own flat index
/// plus the plan. Installed on every PE by `PimSystem::attach_fault_plan`.
#[derive(Debug, Clone)]
pub struct FaultCtx {
    pub(crate) pe: u32,
    pub(crate) plan: Arc<FaultPlan>,
}

impl FaultCtx {
    /// Binds PE `pe` to `plan`.
    pub fn new(pe: u32, plan: Arc<FaultPlan>) -> Self {
        Self { pe, plan }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn decisions_are_deterministic_and_epoch_keyed() {
        let plan = FaultPlan::new(7).with_bit_flip_period(4);
        plan.begin_epoch();
        let a: Vec<Option<WriteFault>> = (0..64).map(|o| plan.write_fault(3, o * 64, 64)).collect();
        let b: Vec<Option<WriteFault>> = (0..64).map(|o| plan.write_fault(3, o * 64, 64)).collect();
        assert_eq!(a, b, "same epoch, same answers");
        assert!(a.iter().any(Option::is_some), "period 4 fires somewhere");
        assert!(a.iter().any(Option::is_none), "period 4 spares somewhere");
        plan.begin_epoch();
        let c: Vec<Option<WriteFault>> = (0..64).map(|o| plan.write_fault(3, o * 64, 64)).collect();
        assert_ne!(a, c, "new epoch, new draw");
    }

    #[test]
    fn explicit_events_fire_exactly_on_their_key() {
        let plan = FaultPlan::new(1)
            .with_event(FaultKind::BitFlip, 5, 1)
            .with_event(FaultKind::Stuck, 9, 2);
        plan.begin_epoch();
        assert!(plan.write_fault(5, 0, 8).is_some());
        assert!(plan.write_fault(6, 0, 8).is_none());
        assert!(!plan.pe_stuck(9));
        plan.begin_epoch();
        assert!(plan.write_fault(5, 0, 8).is_none());
        assert!(plan.pe_stuck(9));
        assert!(!plan.pe_stuck(5));
    }

    #[test]
    fn persistent_failures_span_epochs() {
        let plan = FaultPlan::new(0).with_failed_pe(2);
        assert!(plan.pe_failed_persistent(2));
        for _ in 0..4 {
            plan.begin_epoch();
            assert!(plan.pe_stuck(2));
            assert!(!plan.pe_stuck(3));
        }
    }

    #[test]
    fn row_corrupt_needs_a_whole_word() {
        let plan = FaultPlan::new(3).with_event(FaultKind::RowCorrupt, 0, 1);
        plan.begin_epoch();
        assert!(
            plan.write_fault(0, 0, 4).is_none(),
            "sub-word writes spared"
        );
        match plan.write_fault(0, 0, 64) {
            Some(WriteFault::RowCorrupt { word, mask }) => {
                assert!(word < 8);
                assert_ne!(mask, 0);
            }
            other => panic!("expected row corruption, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_writes_never_fault() {
        let plan = FaultPlan::new(3).with_bit_flip_period(1);
        plan.begin_epoch();
        assert!(plan.write_fault(0, 0, 0).is_none());
    }
}
