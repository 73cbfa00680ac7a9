//! Physical topology of a PIM-enabled DIMM system.
//!
//! Commodity PIM-enabled DIMMs (e.g. UPMEM) follow the DDR4 hierarchy: a
//! *channel* holds several *ranks*; a rank holds (usually 8) *chips* that
//! operate in unison; each chip holds several *banks*, and a processing
//! element (PE, UPMEM calls them DPUs) sits next to each bank.
//!
//! Because the chips of a rank share the 64-bit channel bus — 8 bits per
//! chip — the 8 banks with the same bank index across the 8 chips of a rank
//! are always accessed together. The paper calls such a set of banks/PEs an
//! **entangled group**; it is the unit of host↔PIM data transfer and the
//! granularity at which [`crate::domain`] transposes data between the host
//! and PIM domains.

use core::fmt;

/// Number of chips per rank, and therefore the number of PEs (lanes) in an
/// entangled group. Fixed at 8 by the DDR4 64-bit bus / 8-bit chip split.
pub const LANES: usize = 8;

/// Size in bytes of one DDR4 burst: 8 beats × 64 bits. Also the unit on
/// which domain transfer operates (8 bytes from each of the 8 lanes).
pub const BURST_BYTES: usize = 64;

/// Bytes contributed by a single lane (PE) to one burst.
pub const LANE_BYTES: usize = BURST_BYTES / LANES;

/// Shape of the simulated PIM-DIMM system.
///
/// The canonical UPMEM evaluation system of the paper is
/// 4 channels × 4 ranks × 8 chips × 8 banks = 1024 PEs
/// ([`DimmGeometry::upmem_1024`]).
///
/// # Examples
///
/// ```
/// use pim_sim::geometry::DimmGeometry;
///
/// let g = DimmGeometry::upmem_1024();
/// assert_eq!(g.num_pes(), 1024);
/// assert_eq!(g.num_entangled_groups(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimmGeometry {
    channels: usize,
    ranks_per_channel: usize,
    banks_per_chip: usize,
}

impl DimmGeometry {
    /// Creates a geometry with the given number of channels, ranks per
    /// channel and banks per chip. The number of chips per rank is fixed
    /// at [`LANES`].
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(channels: usize, ranks_per_channel: usize, banks_per_chip: usize) -> Self {
        assert!(channels > 0, "geometry needs at least one channel");
        assert!(ranks_per_channel > 0, "geometry needs at least one rank");
        assert!(banks_per_chip > 0, "geometry needs at least one bank");
        Self {
            channels,
            ranks_per_channel,
            banks_per_chip,
        }
    }

    /// The paper's evaluation system: 4 channels × 4 ranks × 8 chips ×
    /// 8 banks = 1024 PEs.
    pub fn upmem_1024() -> Self {
        Self::new(4, 4, 8)
    }

    /// One channel of the paper's system: 1 × 4 × 8 × 8 = 256 PEs.
    pub fn upmem_256() -> Self {
        Self::new(1, 4, 8)
    }

    /// A single rank (64 PEs), the smallest configuration that still has
    /// eight full entangled groups.
    pub fn single_rank() -> Self {
        Self::new(1, 1, 8)
    }

    /// Smallest geometry exercising one entangled group.
    pub fn single_group() -> Self {
        Self::new(1, 1, 1)
    }

    /// Geometry with the given number of PEs laid out following the paper's
    /// fill order (banks, then ranks, then channels), using up to 8 banks,
    /// 4 ranks and as many channels as needed.
    ///
    /// # Panics
    ///
    /// Panics if `pes` is not a positive multiple of [`LANES`] or does not
    /// factor into banks × ranks × channels ([`Self::try_with_pes`] is the
    /// fallible form).
    pub fn with_pes(pes: usize) -> Self {
        assert!(
            pes > 0 && pes.is_multiple_of(LANES),
            "PE count must be a positive multiple of 8"
        );
        Self::try_with_pes(pes)
            .unwrap_or_else(|| panic!("PE count {pes} does not factor into banks×ranks×channels"))
    }

    /// As [`Self::with_pes`], or `None` where that panics: `pes` is zero,
    /// not a multiple of [`LANES`], or does not factor.
    pub fn try_with_pes(pes: usize) -> Option<Self> {
        if pes == 0 || !pes.is_multiple_of(LANES) {
            return None;
        }
        let groups = pes / LANES;
        let banks = groups.min(8);
        let ranks = (groups / banks).clamp(1, 4);
        let channels = groups / (banks * ranks);
        (banks * ranks * channels == groups).then(|| Self::new(channels, ranks, banks))
    }

    /// Number of memory channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of ranks per channel.
    pub fn ranks_per_channel(&self) -> usize {
        self.ranks_per_channel
    }

    /// Number of chips per rank (always [`LANES`]).
    pub fn chips_per_rank(&self) -> usize {
        LANES
    }

    /// Number of banks per chip (= entangled groups per rank).
    pub fn banks_per_chip(&self) -> usize {
        self.banks_per_chip
    }

    /// Total number of PEs in the system.
    pub fn num_pes(&self) -> usize {
        self.channels * self.ranks_per_channel * LANES * self.banks_per_chip
    }

    /// Total number of entangled groups (`num_pes / 8`).
    pub fn num_entangled_groups(&self) -> usize {
        self.num_pes() / LANES
    }

    /// Entangled groups per channel.
    pub fn groups_per_channel(&self) -> usize {
        self.ranks_per_channel * self.banks_per_chip
    }

    /// Returns the linear PE id for a physical coordinate.
    ///
    /// The linear order follows the paper's hypercube fill order (§IV-C):
    /// chip (fastest) → bank → rank → channel (slowest).
    pub fn pe_id(&self, coord: PhysCoord) -> PeId {
        debug_assert!(coord.chip < LANES);
        debug_assert!(coord.bank < self.banks_per_chip);
        debug_assert!(coord.rank < self.ranks_per_channel);
        debug_assert!(coord.channel < self.channels);
        let idx = coord.chip
            + LANES
                * (coord.bank
                    + self.banks_per_chip * (coord.rank + self.ranks_per_channel * coord.channel));
        PeId(idx as u32)
    }

    /// Returns the physical coordinate of a PE id.
    pub fn coord(&self, pe: PeId) -> PhysCoord {
        let mut idx = pe.index();
        let chip = idx % LANES;
        idx /= LANES;
        let bank = idx % self.banks_per_chip;
        idx /= self.banks_per_chip;
        let rank = idx % self.ranks_per_channel;
        idx /= self.ranks_per_channel;
        let channel = idx;
        debug_assert!(channel < self.channels, "PE id out of range");
        PhysCoord {
            channel,
            rank,
            chip,
            bank,
        }
    }

    /// The entangled group a PE belongs to.
    pub fn group_of(&self, pe: PeId) -> EgId {
        EgId((pe.index() / LANES) as u32)
    }

    /// The lane (chip index) of a PE within its entangled group.
    pub fn lane_of(&self, pe: PeId) -> usize {
        pe.index() % LANES
    }

    /// The PE at `lane` of entangled group `eg`.
    pub fn pe_of(&self, eg: EgId, lane: usize) -> PeId {
        debug_assert!(lane < LANES);
        debug_assert!(eg.index() < self.num_entangled_groups());
        PeId((eg.index() * LANES + lane) as u32)
    }

    /// Channel an entangled group lives on. Transfers to distinct channels
    /// proceed in parallel; transfers on the same channel serialize.
    pub fn channel_of_group(&self, eg: EgId) -> usize {
        eg.index() / self.groups_per_channel()
    }

    /// Iterator over all PE ids.
    pub fn pes(&self) -> impl ExactSizeIterator<Item = PeId> {
        (0..self.num_pes() as u32).map(PeId)
    }

    /// Iterator over all entangled group ids.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = EgId> {
        (0..self.num_entangled_groups() as u32).map(EgId)
    }
}

impl Default for DimmGeometry {
    fn default() -> Self {
        Self::upmem_1024()
    }
}

impl fmt::Display for DimmGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}ch x {}rk x {}chip x {}bank ({} PEs)",
            self.channels,
            self.ranks_per_channel,
            LANES,
            self.banks_per_chip,
            self.num_pes()
        )
    }
}

/// Identifier of a processing element (DPU), linear in the paper's
/// chip → bank → rank → channel fill order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PeId(pub u32);

impl PeId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{:04}", self.0)
    }
}

/// Identifier of an entangled group (8 PEs across the chips of a rank that
/// share a bank index), linear in bank → rank → channel order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EgId(pub u32);

impl EgId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EG{:03}", self.0)
    }
}

/// Physical coordinate of a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PhysCoord {
    /// Memory channel index.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Chip within the rank (the lane of the entangled group).
    pub chip: usize,
    /// Bank within the chip.
    pub bank: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upmem_1024_counts() {
        let g = DimmGeometry::upmem_1024();
        assert_eq!(g.num_pes(), 1024);
        assert_eq!(g.num_entangled_groups(), 128);
        assert_eq!(g.groups_per_channel(), 32);
        assert_eq!(g.chips_per_rank(), 8);
    }

    #[test]
    fn pe_id_roundtrip() {
        let g = DimmGeometry::new(2, 3, 5);
        for pe in g.pes() {
            let c = g.coord(pe);
            assert_eq!(g.pe_id(c), pe);
        }
    }

    #[test]
    fn fill_order_is_chip_bank_rank_channel() {
        let g = DimmGeometry::new(2, 2, 2);
        // PE 0 and PE 1 differ only in chip.
        assert_eq!(g.coord(PeId(0)).chip, 0);
        assert_eq!(g.coord(PeId(1)).chip, 1);
        // After 8 chips the bank advances.
        assert_eq!(g.coord(PeId(8)).bank, 1);
        assert_eq!(g.coord(PeId(8)).chip, 0);
        // After all banks the rank advances.
        assert_eq!(g.coord(PeId(16)).rank, 1);
        // After all ranks the channel advances.
        assert_eq!(g.coord(PeId(32)).channel, 1);
    }

    #[test]
    fn entangled_group_membership() {
        let g = DimmGeometry::upmem_1024();
        let pe = PeId(17);
        let eg = g.group_of(pe);
        assert_eq!(eg.index(), 2);
        assert_eq!(g.lane_of(pe), 1);
        assert_eq!(g.pe_of(eg, 1), pe);
        // All lanes of a group share channel, rank and bank, differing in chip.
        let c0 = g.coord(g.pe_of(eg, 0));
        for lane in 1..LANES {
            let c = g.coord(g.pe_of(eg, lane));
            assert_eq!(c.channel, c0.channel);
            assert_eq!(c.rank, c0.rank);
            assert_eq!(c.bank, c0.bank);
            assert_eq!(c.chip, lane);
        }
    }

    #[test]
    fn channel_of_group_partitions_evenly() {
        let g = DimmGeometry::upmem_1024();
        let mut counts = vec![0usize; g.channels()];
        for eg in g.groups() {
            counts[g.channel_of_group(eg)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 32));
    }

    #[test]
    fn with_pes_round_trips_paper_sizes() {
        for pes in [64, 128, 256, 512, 1024] {
            let g = DimmGeometry::with_pes(pes);
            assert_eq!(g.num_pes(), pes, "geometry for {pes} PEs");
        }
        assert_eq!(DimmGeometry::with_pes(1024), DimmGeometry::upmem_1024());
    }

    #[test]
    fn try_with_pes_is_with_pes_or_none() {
        for pes in 0..=2048usize {
            let caught = std::panic::catch_unwind(|| DimmGeometry::with_pes(pes)).ok();
            assert_eq!(DimmGeometry::try_with_pes(pes), caught, "{pes} PEs");
        }
        // 40 entangled groups: 8 banks x 4 ranks leaves 1.25 channels.
        assert_eq!(DimmGeometry::try_with_pes(320), None);
        assert!(DimmGeometry::try_with_pes(2048).is_some());
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn with_pes_rejects_unaligned() {
        let _ = DimmGeometry::with_pes(12);
    }

    #[test]
    fn display_formats() {
        let g = DimmGeometry::upmem_1024();
        assert_eq!(format!("{g}"), "4ch x 4rk x 8chip x 8bank (1024 PEs)");
        assert_eq!(format!("{}", PeId(3)), "PE0003");
        assert_eq!(format!("{}", EgId(3)), "EG003");
    }
}
