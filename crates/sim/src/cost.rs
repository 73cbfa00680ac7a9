//! Analytic timing model and execution-time breakdown accounting.
//!
//! The simulator executes collectives functionally (bytes really move) and
//! charges each step to one of the breakdown categories the paper reports
//! in Figures 4, 13 and 17. Absolute nanoseconds are calibrated against
//! published UPMEM measurements, not measured on hardware; what matters for
//! the reproduction is the *shape*: which component dominates, which
//! technique removes which component, and how the totals scale.

use core::fmt;
use core::ops::{Add, AddAssign};

use crate::geometry::{DimmGeometry, BURST_BYTES};

/// Execution-time breakdown, in nanoseconds, using the paper's categories.
///
/// `kernel` is used by applications for PE compute time (the "Kernel" bar of
/// Fig. 13); pure communication reports leave it at zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Host-side domain transfers (the 8×8 byte transposes).
    pub domain_transfer: f64,
    /// Host-side data modulation in vector registers (shifts, shuffles,
    /// vertical SIMD reductions).
    pub host_modulation: f64,
    /// Host DRAM traffic for staging/modulating data in host memory
    /// (the baseline's dominant cost; removed by in-register modulation).
    pub host_mem_access: f64,
    /// Host↔PIM bus transfers ("PE Mem Access" in the paper's figures).
    pub pe_mem_access: f64,
    /// PE-side reorder kernels (PE-assisted reordering).
    pub pe_modulation: f64,
    /// PE compute kernels of applications.
    pub kernel: f64,
    /// Kernel-launch and synchronization overheads.
    pub other: f64,
}

impl Breakdown {
    /// A zeroed breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total time across all categories, in nanoseconds.
    pub fn total(&self) -> f64 {
        self.domain_transfer
            + self.host_modulation
            + self.host_mem_access
            + self.pe_mem_access
            + self.pe_modulation
            + self.kernel
            + self.other
    }

    /// Communication-only time (everything except `kernel`).
    pub fn comm_total(&self) -> f64 {
        self.total() - self.kernel
    }

    /// Adds `ns` nanoseconds to the given category.
    pub fn charge(&mut self, cat: Category, ns: f64) {
        debug_assert!(ns >= 0.0 && ns.is_finite(), "invalid charge {ns}");
        match cat {
            Category::DomainTransfer => self.domain_transfer += ns,
            Category::HostModulation => self.host_modulation += ns,
            Category::HostMemAccess => self.host_mem_access += ns,
            Category::PeMemAccess => self.pe_mem_access += ns,
            Category::PeModulation => self.pe_modulation += ns,
            Category::Kernel => self.kernel += ns,
            Category::Other => self.other += ns,
        }
    }

    /// Value of the given category.
    pub fn get(&self, cat: Category) -> f64 {
        match cat {
            Category::DomainTransfer => self.domain_transfer,
            Category::HostModulation => self.host_modulation,
            Category::HostMemAccess => self.host_mem_access,
            Category::PeMemAccess => self.pe_mem_access,
            Category::PeModulation => self.pe_modulation,
            Category::Kernel => self.kernel,
            Category::Other => self.other,
        }
    }

    /// The difference `self - earlier`, clamped at zero per category.
    /// Used to compute the cost of an interval from two meter snapshots.
    pub fn since(&self, earlier: &Breakdown) -> Breakdown {
        Breakdown {
            domain_transfer: (self.domain_transfer - earlier.domain_transfer).max(0.0),
            host_modulation: (self.host_modulation - earlier.host_modulation).max(0.0),
            host_mem_access: (self.host_mem_access - earlier.host_mem_access).max(0.0),
            pe_mem_access: (self.pe_mem_access - earlier.pe_mem_access).max(0.0),
            pe_modulation: (self.pe_modulation - earlier.pe_modulation).max(0.0),
            kernel: (self.kernel - earlier.kernel).max(0.0),
            other: (self.other - earlier.other).max(0.0),
        }
    }
}

impl Add for Breakdown {
    type Output = Breakdown;

    fn add(mut self, rhs: Breakdown) -> Breakdown {
        self += rhs;
        self
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Breakdown) {
        self.domain_transfer += rhs.domain_transfer;
        self.host_modulation += rhs.host_modulation;
        self.host_mem_access += rhs.host_mem_access;
        self.pe_mem_access += rhs.pe_mem_access;
        self.pe_modulation += rhs.pe_modulation;
        self.kernel += rhs.kernel;
        self.other += rhs.other;
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {:.1} us (DT {:.1}, host-mod {:.1}, host-mem {:.1}, pe-mem {:.1}, pe-mod {:.1}, kernel {:.1}, other {:.1})",
            self.total() / 1e3,
            self.domain_transfer / 1e3,
            self.host_modulation / 1e3,
            self.host_mem_access / 1e3,
            self.pe_mem_access / 1e3,
            self.pe_modulation / 1e3,
            self.kernel / 1e3,
            self.other / 1e3,
        )
    }
}

/// Breakdown category, matching the paper's Fig. 17 legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Host-side domain transfer.
    DomainTransfer,
    /// Host-side in-register modulation.
    HostModulation,
    /// Host DRAM staging traffic.
    HostMemAccess,
    /// Host↔PIM bus transfers.
    PeMemAccess,
    /// PE-side reorder kernels.
    PeModulation,
    /// PE compute kernels (applications only).
    Kernel,
    /// Launch/sync overheads.
    Other,
}

impl Category {
    /// All categories in display order.
    pub const ALL: [Category; 7] = [
        Category::DomainTransfer,
        Category::HostModulation,
        Category::HostMemAccess,
        Category::PeMemAccess,
        Category::PeModulation,
        Category::Kernel,
        Category::Other,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::DomainTransfer => "domain-transfer",
            Category::HostModulation => "host-modulation",
            Category::HostMemAccess => "host-mem-access",
            Category::PeMemAccess => "pe-mem-access",
            Category::PeModulation => "pe-modulation",
            Category::Kernel => "kernel",
            Category::Other => "other",
        };
        f.write_str(s)
    }
}

/// Calibrated timing parameters of the simulated system.
///
/// All rates are bytes per nanosecond (= GB/s); all fixed costs are
/// nanoseconds. Defaults ([`TimeModel::upmem`]) approximate the paper's
/// testbed: an Intel Xeon Gold 5215 host with AVX-512 and four channels of
/// DDR4-2400 UPMEM DIMMs.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeModel {
    /// Peak bandwidth of one memory channel (DDR4-2400: 19.2 GB/s).
    pub channel_bw: f64,
    /// Fraction of channel peak reachable by the driver's bulk rank-wide
    /// copies (the conventional path's transfers).
    pub bus_efficiency: f64,
    /// Fraction of channel peak reachable by the optimized engine's
    /// burst-granular streaming to scattered offsets. Lower than bulk —
    /// bursts hop between MRAM rows of different entangled groups.
    pub streamed_bus_efficiency: f64,
    /// Host clock in GHz; vector-register op costs are expressed in cycles
    /// and divided by this.
    pub host_clock_ghz: f64,
    /// Effective host cycles to domain-transfer one 64-byte block. This is
    /// a *pool* value: the UPMEM driver runs DT on several worker threads,
    /// so the per-block charge is the single-thread cost divided by the
    /// pool parallelism.
    pub dt_cycles_per_block: f64,
    /// Effective host cycles for one in-register permutation/shift of a
    /// 64-byte block (pool value).
    pub shuffle_cycles_per_block: f64,
    /// Effective host cycles for one vertical SIMD reduction of a 64-byte
    /// block (pool value).
    pub reduce_cycles_per_block: f64,
    /// Effective host-DRAM bandwidth for streaming copies.
    pub host_mem_stream_bw: f64,
    /// Effective host-DRAM bandwidth for the baseline's word-granular
    /// global modulation pass (reads + writes with poor locality).
    pub host_mem_scatter_bw: f64,
    /// Effective host-DRAM bandwidth for the baseline's in-memory reduction
    /// pass (dependent read-modify-write chains; §VIII-D notes host
    /// reduction is more computation-intensive than reordering).
    pub host_mem_reduce_bw: f64,
    /// Per-PE MRAM↔WRAM streaming bandwidth available to reorder kernels
    /// (tasklet-pipelined DMA).
    pub pe_mram_bw: f64,
    /// Extra PE cycles per byte spent shifting/permuting in WRAM.
    pub pe_reorder_cycles_per_byte: f64,
    /// PE clock in GHz (UPMEM DPUs run at ~350 MHz).
    pub pe_clock_ghz: f64,
    /// Fixed cost of launching a PIM kernel across the system.
    pub kernel_launch_ns: f64,
    /// Fixed cost of setting up one host↔PIM transfer phase.
    pub transfer_setup_ns: f64,
}

impl TimeModel {
    /// Parameters calibrated against the paper's UPMEM testbed (Intel Xeon
    /// Gold 5215, 4 channels of DDR4-2400 UPMEM DIMMs). Absolute rates are
    /// *effective* values fitted so the primitive throughputs and
    /// improvement factors of Figures 14, 16 and 17 are reproduced in
    /// shape. The fit has no recorded derivation; ROADMAP item 3 (a
    /// fidelity ledger, the calibration written down as code) holds it.
    pub fn upmem() -> Self {
        Self {
            channel_bw: 19.2,
            bus_efficiency: 0.88,
            streamed_bus_efficiency: 0.55,
            host_clock_ghz: 2.5,
            dt_cycles_per_block: 2.4,
            shuffle_cycles_per_block: 0.4,
            reduce_cycles_per_block: 1.28,
            host_mem_stream_bw: 40.0,
            host_mem_scatter_bw: 11.2,
            host_mem_reduce_bw: 9.8,
            pe_mram_bw: 2.8,
            pe_reorder_cycles_per_byte: 0.0,
            pe_clock_ghz: 0.35,
            kernel_launch_ns: 12_000.0,
            transfer_setup_ns: 2_000.0,
        }
    }

    /// Nanoseconds to move `bytes_per_channel[c]` bytes over each channel
    /// `c` in bulk mode; channels proceed in parallel, so the slowest
    /// channel defines the phase time.
    pub fn bus_time(&self, bytes_per_channel: &[u64]) -> f64 {
        let max = bytes_per_channel.iter().copied().max().unwrap_or(0);
        max as f64 / (self.channel_bw * self.bus_efficiency)
    }

    /// Nanoseconds to move `bytes_per_channel[c]` bytes over each channel
    /// in burst-granular streaming mode.
    pub fn streamed_bus_time(&self, bytes_per_channel: &[u64]) -> f64 {
        let max = bytes_per_channel.iter().copied().max().unwrap_or(0);
        max as f64 / (self.channel_bw * self.streamed_bus_efficiency)
    }

    /// Nanoseconds to move `total_bytes` spread evenly over all channels of
    /// `geom` in bulk mode.
    pub fn bus_time_even(&self, geom: &DimmGeometry, total_bytes: u64) -> f64 {
        let per = total_bytes.div_ceil(geom.channels() as u64);
        self.bus_time(&vec![per; geom.channels()])
    }

    /// Nanoseconds of host time to domain-transfer `blocks` 64-byte blocks.
    pub fn dt_time(&self, blocks: u64) -> f64 {
        blocks as f64 * self.dt_cycles_per_block / self.host_clock_ghz
    }

    /// Nanoseconds of host time for `blocks` in-register shuffles.
    pub fn shuffle_time(&self, blocks: u64) -> f64 {
        blocks as f64 * self.shuffle_cycles_per_block / self.host_clock_ghz
    }

    /// Nanoseconds of host time for `blocks` vertical SIMD reductions.
    pub fn reduce_time(&self, blocks: u64) -> f64 {
        blocks as f64 * self.reduce_cycles_per_block / self.host_clock_ghz
    }

    /// Nanoseconds for a streaming host-memory pass over `bytes`
    /// (`passes` = number of read+write traversals).
    pub fn host_stream_time(&self, bytes: u64, passes: f64) -> f64 {
        bytes as f64 * passes / self.host_mem_stream_bw
    }

    /// Nanoseconds for the baseline's word-granular modulation pass over
    /// `bytes` in host memory.
    pub fn host_scatter_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.host_mem_scatter_bw
    }

    /// Nanoseconds for the baseline's in-memory reduction pass over `bytes`.
    pub fn host_reduce_mem_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.host_mem_reduce_bw
    }

    /// Nanoseconds for a PE to stream `bytes` through WRAM and permute them
    /// locally. All PEs run in parallel, so callers pass the *maximum*
    /// per-PE byte count.
    pub fn pe_reorder_time(&self, bytes_per_pe: u64) -> f64 {
        // Read + write through MRAM plus register shifting work.
        let mram = 2.0 * bytes_per_pe as f64 / self.pe_mram_bw;
        let alu = bytes_per_pe as f64 * self.pe_reorder_cycles_per_byte / self.pe_clock_ghz;
        mram + alu
    }

    /// Convenience: number of 64-byte blocks covering `bytes`.
    pub fn blocks(bytes: u64) -> u64 {
        bytes.div_ceil(BURST_BYTES as u64)
    }
}

impl Default for TimeModel {
    fn default() -> Self {
        Self::upmem()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_and_charges() {
        let mut b = Breakdown::new();
        b.charge(Category::DomainTransfer, 10.0);
        b.charge(Category::PeMemAccess, 5.0);
        b.charge(Category::Kernel, 100.0);
        assert_eq!(b.total(), 115.0);
        assert_eq!(b.comm_total(), 15.0);
        assert_eq!(b.get(Category::DomainTransfer), 10.0);
    }

    #[test]
    fn breakdown_add_and_since() {
        let mut a = Breakdown::new();
        a.charge(Category::Other, 1.0);
        let mut b = a;
        b.charge(Category::Other, 2.0);
        b.charge(Category::HostModulation, 4.0);
        let delta = b.since(&a);
        assert_eq!(delta.other, 2.0);
        assert_eq!(delta.host_modulation, 4.0);
        let sum = a + delta;
        assert_eq!(sum.total(), b.total());
    }

    #[test]
    fn bus_time_takes_slowest_channel() {
        let m = TimeModel::upmem();
        let skewed = m.bus_time(&[1_000_000, 10, 10, 10]);
        let even = m.bus_time(&[1_000_000; 4]);
        assert!(
            (skewed - even).abs() < 1e-9,
            "parallel channels: max governs"
        );
        assert!(m.bus_time(&[2_000_000, 0, 0, 0]) > skewed);
    }

    #[test]
    fn bus_time_even_splits_across_channels() {
        let m = TimeModel::upmem();
        let g4 = DimmGeometry::upmem_1024();
        let g1 = DimmGeometry::upmem_256();
        let t4 = m.bus_time_even(&g4, 4_000_000);
        let t1 = m.bus_time_even(&g1, 4_000_000);
        assert!((t1 / t4 - 4.0).abs() < 0.01, "4 channels are 4x faster");
    }

    #[test]
    fn scatter_is_slower_than_stream() {
        let m = TimeModel::upmem();
        assert!(m.host_scatter_time(1 << 20) > m.host_stream_time(1 << 20, 1.0));
    }

    #[test]
    fn register_ops_are_cheaper_than_dt() {
        let m = TimeModel::upmem();
        assert!(m.shuffle_time(1000) < m.dt_time(1000));
    }

    #[test]
    fn blocks_round_up() {
        assert_eq!(TimeModel::blocks(0), 0);
        assert_eq!(TimeModel::blocks(1), 1);
        assert_eq!(TimeModel::blocks(64), 1);
        assert_eq!(TimeModel::blocks(65), 2);
    }

    #[test]
    fn display_is_nonempty() {
        let b = Breakdown::new();
        assert!(!format!("{b}").is_empty());
        assert_eq!(format!("{}", Category::PeMemAccess), "pe-mem-access");
    }
}
