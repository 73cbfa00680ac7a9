//! The simulated PIM system: PEs + host bus + time meter.

use std::ops::Range;
use std::sync::Arc;

use crate::cost::{Breakdown, Category, TimeModel};
use crate::domain::{transpose8x8, LanePerm};
use crate::fault::{CorruptionEvent, FaultCtx, FaultPlan};
use crate::geometry::{DimmGeometry, EgId, PeId, BURST_BYTES, LANES, LANE_BYTES};
use crate::pe::{Pe, ReadWindow, WriteWindow};

/// A complete PIM-enabled DIMM system: the PE array, the physical geometry,
/// the calibrated time model and a running cost meter.
///
/// All *functional* operations (burst reads/writes, PE kernels) are provided
/// here; *timing* is charged explicitly by callers via [`PimSystem::charge`]
/// because the correct cost of a step depends on phase-level context
/// (channel parallelism, overlap) that only the collective engine knows.
///
/// # Examples
///
/// ```
/// use pim_sim::{DimmGeometry, PimSystem};
/// use pim_sim::geometry::{EgId, PeId};
///
/// let mut sys = PimSystem::new(DimmGeometry::single_rank());
/// sys.pe_mut(PeId(3)).write(0, &[42; 8]);
/// let burst = sys.read_burst(EgId(0), 0);
/// // Lane 3 contributed byte 42 to every beat.
/// assert_eq!(burst[3], 42);
/// assert_eq!(burst[8 + 3], 42);
/// ```
#[derive(Debug, Clone)]
pub struct PimSystem {
    geometry: DimmGeometry,
    model: TimeModel,
    pes: Vec<Pe>,
    meter: Breakdown,
    /// Attached fault plan, if any (see [`crate::fault`]). `None` keeps
    /// every PE on the direct-store write path.
    fault: Option<Arc<FaultPlan>>,
    /// Mirror of the per-PE verify flags, so boundary checks can skip the
    /// PE scan when verification was never enabled.
    verify: bool,
}

// ---- bank-level burst transport --------------------------------------
//
// A "bank" here is the 8-PE slice of one entangled group (contiguous in
// the PE array). The burst codecs are free functions over such slices so
// that both the whole-system API and the per-cluster [`EgView`]s used by
// the parallel engine share one implementation.
//
// The wire format conversion (raw beat-major order ↔ per-lane words) is
// exactly a domain transfer, so the codecs stage bursts in host order and
// run the word-wise [`transpose8x8`] instead of a per-byte interleave loop.

/// Reads `out.len() / 64` consecutive bursts starting at MRAM `offset`
/// into `out` in raw order.
fn bank_read_bursts(bank: &[Pe], offset: usize, out: &mut [u8]) {
    debug_assert_eq!(bank.len(), LANES);
    debug_assert_eq!(out.len() % BURST_BYTES, 0);
    for (lane, pe) in bank.iter().enumerate() {
        // Stage this lane's words at their host-order positions.
        for (b, block) in out.chunks_exact_mut(BURST_BYTES).enumerate() {
            pe.peek_into(
                offset + b * LANE_BYTES,
                &mut block[lane * LANE_BYTES..(lane + 1) * LANE_BYTES],
            );
        }
    }
    for block in out.chunks_exact_mut(BURST_BYTES) {
        transpose8x8(block); // host order -> raw order
    }
}

/// Writes `data.len() / 64` consecutive raw-order bursts to MRAM `offset`.
fn bank_write_bursts(bank: &mut [Pe], offset: usize, data: &[u8]) {
    debug_assert_eq!(bank.len(), LANES);
    debug_assert_eq!(data.len() % BURST_BYTES, 0);
    let mut host = [0u8; BURST_BYTES];
    for (b, block) in data.chunks_exact(BURST_BYTES).enumerate() {
        host.copy_from_slice(block);
        transpose8x8(&mut host); // raw order -> host order
        for (lane, pe) in bank.iter_mut().enumerate() {
            pe.write(
                offset + b * LANE_BYTES,
                &host[lane * LANE_BYTES..(lane + 1) * LANE_BYTES],
            );
        }
    }
}

/// Reads `row_len` bytes at `offset` from every lane into `out`, one
/// contiguous row per lane (`out[lane*row_len..]`) — the *host-domain*
/// view of a burst run. Because the domain transfer is an involution that
/// cancels between a read and the matching write, the streaming engine can
/// move whole chunks with one memcpy per lane and never materialize the
/// raw beat-major wire format.
fn bank_read_rows(bank: &[Pe], offset: usize, row_len: usize, out: &mut [u8]) {
    debug_assert_eq!(bank.len(), LANES);
    debug_assert_eq!(out.len(), LANES * row_len);
    for (lane, pe) in bank.iter().enumerate() {
        pe.peek_into(offset, &mut out[lane * row_len..(lane + 1) * row_len]);
    }
}

/// Writes per-lane rows at `offset`: lane `d` receives row `perm[d]` —
/// the host-domain equivalent of writing a burst run modulated by the lane
/// permutation `perm` (see [`crate::domain`]'s fusion identity).
fn bank_write_rows(bank: &mut [Pe], offset: usize, row_len: usize, rows: &[u8], perm: &LanePerm) {
    debug_assert_eq!(bank.len(), LANES);
    debug_assert_eq!(rows.len(), LANES * row_len);
    for (lane, pe) in bank.iter_mut().enumerate() {
        let src = perm[lane];
        pe.write(offset, &rows[src * row_len..(src + 1) * row_len]);
    }
}

impl PimSystem {
    /// Creates a system with the given geometry and the default
    /// [`TimeModel::upmem`] calibration.
    pub fn new(geometry: DimmGeometry) -> Self {
        Self::with_model(geometry, TimeModel::upmem())
    }

    /// Creates a system with an explicit time model.
    pub fn with_model(geometry: DimmGeometry, model: TimeModel) -> Self {
        let pes = vec![Pe::new(); geometry.num_pes()];
        Self {
            geometry,
            model,
            pes,
            meter: Breakdown::new(),
            fault: None,
            verify: false,
        }
    }

    /// The system's geometry.
    pub fn geometry(&self) -> &DimmGeometry {
        &self.geometry
    }

    /// The calibrated time model.
    pub fn model(&self) -> &TimeModel {
        &self.model
    }

    /// Shared access to a PE.
    pub fn pe(&self, pe: PeId) -> &Pe {
        &self.pes[pe.index()]
    }

    /// Mutable access to a PE.
    pub fn pe_mut(&mut self, pe: PeId) -> &mut Pe {
        &mut self.pes[pe.index()]
    }

    /// Exclusive access to the whole PE array in PE-index order — the
    /// entry point of the apps' host-kernel fan-out (`pidcomm::par_pes`):
    /// each worker thread mutates a disjoint contiguous sub-slice, so the
    /// loop body gets `&mut Pe` access without any locking.
    pub fn pes_mut(&mut self) -> &mut [Pe] {
        &mut self.pes
    }

    /// Returns the system to its post-construction state — every PE
    /// reading all-zero ([`Pe::reset`] puts its pages in runs of zeros,
    /// zeroing none), no fault plan attached, write verification off, the
    /// meter cleared — while keeping all allocations for reuse. Geometry and
    /// time model are unchanged. This is what lets a
    /// [`crate::arena::SystemArena`] hand the same allocation to
    /// consecutive benchmark cells with results byte-identical to a
    /// freshly built system, at a cost that does not grow with what the
    /// system has held.
    pub fn reset(&mut self) {
        for pe in &mut self.pes {
            pe.reset();
        }
        self.fault = None;
        self.verify = false;
        self.meter = Breakdown::new();
    }

    /// The 8-PE slice of one entangled group (PEs of an EG are contiguous
    /// in lane order).
    fn bank(&self, eg: EgId) -> &[Pe] {
        &self.pes[eg.index() * LANES..(eg.index() + 1) * LANES]
    }

    fn bank_mut(&mut self, eg: EgId) -> &mut [Pe] {
        &mut self.pes[eg.index() * LANES..(eg.index() + 1) * LANES]
    }

    // ---- functional bus operations -------------------------------------

    /// Reads one 64-byte burst from entangled group `eg` at MRAM offset
    /// `offset`, in raw (PIM-domain) order: `out[beat*8 + lane]` is byte
    /// `offset + beat` of the PE at `lane`.
    ///
    /// The physical bus always moves whole bursts — there is no way to read
    /// a subset of lanes — which is why communication groups that underuse
    /// an entangled group waste bandwidth (§III-B).
    pub fn read_burst(&self, eg: EgId, offset: usize) -> [u8; BURST_BYTES] {
        let mut out = [0u8; BURST_BYTES];
        bank_read_bursts(self.bank(eg), offset, &mut out);
        out
    }

    /// Writes one 64-byte burst (raw order) to entangled group `eg` at
    /// MRAM offset `offset`.
    pub fn write_burst(&mut self, eg: EgId, offset: usize, block: &[u8; BURST_BYTES]) {
        bank_write_bursts(self.bank_mut(eg), offset, block);
    }

    /// Reads `out.len() / 64` consecutive raw bursts starting at `offset`
    /// into `out` — the batched *wire-format* transport. The streaming
    /// engine itself moves data as host-domain rows
    /// ([`PimSystem::read_rows_into`]); this raw-order run view exists for
    /// tools and tests that need the physical burst layout.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a multiple of 64.
    pub fn read_bursts_into(&self, eg: EgId, offset: usize, out: &mut [u8]) {
        assert_eq!(
            out.len() % BURST_BYTES,
            0,
            "burst runs move whole 64-byte bursts"
        );
        bank_read_bursts(self.bank(eg), offset, out);
    }

    /// Writes `data.len() / 64` consecutive raw bursts starting at
    /// `offset` — the write half of the batched wire-format transport.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of 64.
    pub fn write_bursts(&mut self, eg: EgId, offset: usize, data: &[u8]) {
        assert_eq!(
            data.len() % BURST_BYTES,
            0,
            "burst runs move whole 64-byte bursts"
        );
        bank_write_bursts(self.bank_mut(eg), offset, data);
    }

    /// Reads `row_len` bytes per lane at `offset` into contiguous per-lane
    /// rows — the host-domain view of a `row_len / 8`-burst run. See
    /// [`EgView::read_rows_into`] for the engine-facing variant.
    ///
    /// # Panics
    ///
    /// Panics if `row_len` is not a multiple of 8 or `out.len()` is not
    /// `8 * row_len`.
    pub fn read_rows_into(&self, eg: EgId, offset: usize, row_len: usize, out: &mut [u8]) {
        assert_eq!(row_len % LANE_BYTES, 0, "rows move whole 8-byte words");
        assert_eq!(out.len(), LANES * row_len, "need one row per lane");
        bank_read_rows(self.bank(eg), offset, row_len, out);
    }

    /// Writes per-lane rows at `offset`, lane `d` receiving row `perm[d]`
    /// — the host-domain write half of a modulated burst run.
    ///
    /// # Panics
    ///
    /// Panics if `row_len` is not a multiple of 8 or `rows.len()` is not
    /// `8 * row_len`.
    pub fn write_rows(
        &mut self,
        eg: EgId,
        offset: usize,
        row_len: usize,
        rows: &[u8],
        perm: &LanePerm,
    ) {
        assert_eq!(row_len % LANE_BYTES, 0, "rows move whole 8-byte words");
        assert_eq!(rows.len(), LANES * row_len, "need one row per lane");
        bank_write_rows(self.bank_mut(eg), offset, row_len, rows, perm);
    }

    /// Reads `len` bytes (a multiple of 8) starting at `offset` from every
    /// lane of `eg` as consecutive raw bursts.
    pub fn read_bursts(&self, eg: EgId, offset: usize, len: usize) -> Vec<u8> {
        assert_eq!(
            len % LANE_BYTES,
            0,
            "burst reads move multiples of 8 bytes per lane"
        );
        let mut out = vec![0u8; len / LANE_BYTES * BURST_BYTES];
        bank_read_bursts(self.bank(eg), offset, &mut out);
        out
    }

    /// Splits the PE array into disjoint per-part [`EgView`]s, one per
    /// entry of `parts`. Each view grants exclusive mutable access to the
    /// named entangled groups and can be moved to its own worker thread —
    /// the foundation of cluster-parallel collective execution.
    ///
    /// # Panics
    ///
    /// Panics if an entangled group appears in more than one part (or twice
    /// in one part).
    pub fn split_eg_views<'a>(&'a mut self, parts: &'a [Vec<EgId>]) -> Vec<EgView<'a>> {
        let geometry = self.geometry;
        let mut banks: Vec<Option<&mut [Pe]>> = self.pes.chunks_mut(LANES).map(Some).collect();
        parts
            .iter()
            .map(|egs| {
                let slices = egs
                    .iter()
                    .map(|eg| {
                        banks[eg.index()]
                            .take()
                            .unwrap_or_else(|| panic!("{eg} claimed by two views"))
                    })
                    .collect();
                EgView {
                    geometry,
                    egs,
                    banks: slices,
                }
            })
            .collect()
    }

    // ---- metering -------------------------------------------------------

    /// Adds `ns` nanoseconds of cost in category `cat`.
    pub fn charge(&mut self, cat: Category, ns: f64) {
        self.meter.charge(cat, ns);
    }

    /// Current accumulated breakdown.
    pub fn meter(&self) -> Breakdown {
        self.meter
    }

    /// Resets the meter to zero and returns the previous value.
    pub fn take_meter(&mut self) -> Breakdown {
        core::mem::replace(&mut self.meter, Breakdown::new())
    }

    /// Charges a PE kernel: fixed launch overhead (to `Other`) plus the
    /// maximum per-PE execution time (to `Kernel`), since all PEs run in
    /// parallel and the host waits for the slowest.
    pub fn run_kernel(&mut self, max_pe_ns: f64) {
        let launch = self.model.kernel_launch_ns;
        self.charge(Category::Other, launch);
        self.charge(Category::Kernel, max_pe_ns);
    }

    /// Total MRAM bytes in use across all PEs (for memory accounting in
    /// tests and benches).
    pub fn total_mram_used(&self) -> usize {
        self.pes.iter().map(Pe::mram_used).sum()
    }

    // ---- fault layer ----------------------------------------------------

    /// Attaches a fault plan: every PE gets a [`FaultCtx`] binding its
    /// flat index to the shared plan, routing all transport writes through
    /// the checked path (see [`crate::fault`]). Replaces any previously
    /// attached plan.
    pub fn attach_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for (i, pe) in self.pes.iter_mut().enumerate() {
            pe.set_fault_ctx(Some(FaultCtx::new(i as u32, plan.clone())));
        }
        self.fault = Some(plan);
    }

    /// Detaches the fault plan (if any), returning every PE to the
    /// direct-store write path.
    pub fn detach_fault_plan(&mut self) {
        for pe in &mut self.pes {
            pe.set_fault_ctx(None);
        }
        self.fault = None;
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// Enables or disables read-after-write verification of transport
    /// writes on every PE. Verification charges no modeled time and grows
    /// no MRAM, so a fault-free verified run is bit-identical to an
    /// unverified one.
    pub fn set_verify_writes(&mut self, on: bool) {
        for pe in &mut self.pes {
            pe.set_verify(on);
        }
        self.verify = on;
    }

    /// Whether write verification is currently enabled.
    pub fn verify_writes(&self) -> bool {
        self.verify
    }

    /// Collects the first recorded write corruption across the PE array
    /// (lowest PE index wins — a deterministic choice regardless of how
    /// many threads executed the writes), clearing every PE's record.
    /// Returns `None` immediately when neither a fault plan nor
    /// verification is active.
    pub fn take_corruption(&mut self) -> Option<CorruptionEvent> {
        if self.fault.is_none() && !self.verify {
            return None;
        }
        let mut first = None;
        for pe in &mut self.pes {
            let ev = pe.take_corruption();
            if first.is_none() {
                first = ev;
            }
        }
        first
    }

    /// Drains *every* PE's recorded write corruption into `out`, in PE
    /// order. Unlike [`Self::take_corruption`], nothing is discarded —
    /// run-level supervision needs all events so it can ignore the ones
    /// from already-quarantined PEs without absorbing a healthy PE's
    /// corruption alongside them.
    pub fn take_corruptions(&mut self, out: &mut Vec<CorruptionEvent>) {
        if self.fault.is_none() && !self.verify {
            return;
        }
        for pe in &mut self.pes {
            if let Some(ev) = pe.take_corruption() {
                out.push(ev);
            }
        }
    }

    // ---- iteration checkpoints ------------------------------------------

    /// Snapshots the given MRAM `regions` (shared `(offset, len)` windows,
    /// one set applied to every PE) into `ckpt`, replacing its previous
    /// contents. The capture uses the non-materializing peek path: it
    /// charges no modeled time and grows no MRAM, so taking checkpoints on
    /// a fault-free run perturbs nothing.
    pub fn checkpoint_regions(&self, regions: &[(usize, usize)], ckpt: &mut Checkpoint) {
        ckpt.regions.clear();
        ckpt.regions.extend_from_slice(regions);
        let total: usize = regions.iter().map(|&(_, len)| len).sum();
        ckpt.pes.resize_with(self.geometry.num_pes(), Vec::new);
        for (pe, buf) in self.geometry.pes().zip(&mut ckpt.pes) {
            buf.clear();
            buf.resize(total, 0);
            let mut at = 0;
            for &(offset, len) in regions {
                self.pes[pe.index()].peek_into(offset, &mut buf[at..at + len]);
                at += len;
            }
        }
    }

    /// Restores the regions captured by [`Self::checkpoint_regions`].
    /// This is a host-side rollback outside the fault scope: the PIM
    /// transport is not involved, so neither injection nor verification
    /// applies, and nothing is charged — the caller accounts for the
    /// rollback on its own recovery counters.
    pub fn restore_regions(&mut self, ckpt: &Checkpoint) {
        if ckpt.regions.is_empty() {
            return;
        }
        let fault = self.fault.take();
        if fault.is_some() {
            for pe in &mut self.pes {
                pe.set_fault_ctx(None);
            }
        }
        for (pe, buf) in self.geometry.pes().zip(&ckpt.pes) {
            let mut at = 0;
            for &(offset, len) in &ckpt.regions {
                self.pes[pe.index()].write(offset, &buf[at..at + len]);
                at += len;
            }
        }
        if let Some(fp) = fault {
            self.attach_fault_plan(fp);
        }
    }
}

/// A host-side snapshot of selected MRAM regions across every PE, taken
/// at an iteration boundary so run-level recovery can roll back one
/// iteration instead of one plan attempt (or the whole run). Created
/// empty (or checked out of a [`crate::SystemArena`] pool) and filled by
/// [`PimSystem::checkpoint_regions`]; the buffers are retained across
/// reuse so steady-state checkpointing allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    /// `(offset, len)` windows captured, identical on every PE.
    regions: Vec<(usize, usize)>,
    /// Concatenated window bytes, one buffer per PE in geometry order.
    pes: Vec<Vec<u8>>,
}

impl Checkpoint {
    /// Creates an empty checkpoint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes captured across all PEs — what a rollback moves, and
    /// therefore what the caller charges to its recovery counters.
    pub fn bytes(&self) -> u64 {
        self.pes.iter().map(|b| b.len() as u64).sum()
    }

    /// Whether the checkpoint covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty() || self.bytes() == 0
    }
}

/// Exclusive view over the PEs of a set of entangled groups, created by
/// [`PimSystem::split_eg_views`].
///
/// Entangled groups are addressed by *slot* — their position in the list
/// the view was built from — so engine code that already iterates a
/// cluster's EGs by index needs no lookup. Distinct views cover disjoint
/// EGs and may be used from different threads concurrently.
#[derive(Debug)]
pub struct EgView<'a> {
    geometry: DimmGeometry,
    egs: &'a [EgId],
    banks: Vec<&'a mut [Pe]>,
}

impl EgView<'_> {
    /// The system geometry.
    pub fn geometry(&self) -> &DimmGeometry {
        &self.geometry
    }

    /// The entangled groups this view covers, in slot order.
    pub fn egs(&self) -> &[EgId] {
        self.egs
    }

    /// Mutable access to the PE at `lane` of the EG in `slot`.
    pub fn pe_mut(&mut self, slot: usize, lane: usize) -> &mut Pe {
        &mut self.banks[slot][lane]
    }

    /// Resolves, once per PE, a [`ReadWindow`] over `src` and a
    /// [`WriteWindow`] over `dst` (see [`Pe::window_pair`]) — the streaming
    /// engine's transport: resolve at the top of a cluster task, then move
    /// every chunk of the collective between the resolved slices. Both
    /// vectors are indexed `slot * 8 + lane`.
    ///
    /// # Panics
    ///
    /// Panics if the regions overlap or exceed the bank capacity.
    pub fn windows(
        &mut self,
        src: Range<usize>,
        dst: Range<usize>,
    ) -> (Vec<ReadWindow<'_>>, Vec<WriteWindow<'_>>) {
        self.banks
            .iter_mut()
            .flat_map(|bank| bank.iter_mut())
            .map(|pe| pe.window_pair(src.clone(), dst.clone()))
            .unzip()
    }

    /// As [`PimSystem::read_burst`], for the EG in `slot`.
    pub fn read_burst(&self, slot: usize, offset: usize) -> [u8; BURST_BYTES] {
        let mut out = [0u8; BURST_BYTES];
        bank_read_bursts(self.banks[slot], offset, &mut out);
        out
    }

    /// As [`PimSystem::write_burst`], for the EG in `slot`.
    pub fn write_burst(&mut self, slot: usize, offset: usize, block: &[u8; BURST_BYTES]) {
        bank_write_bursts(self.banks[slot], offset, block);
    }

    /// As [`PimSystem::read_bursts_into`], for the EG in `slot`.
    pub fn read_bursts_into(&self, slot: usize, offset: usize, out: &mut [u8]) {
        assert_eq!(
            out.len() % BURST_BYTES,
            0,
            "burst runs move whole 64-byte bursts"
        );
        bank_read_bursts(self.banks[slot], offset, out);
    }

    /// As [`PimSystem::write_bursts`], for the EG in `slot`.
    pub fn write_bursts(&mut self, slot: usize, offset: usize, data: &[u8]) {
        assert_eq!(
            data.len() % BURST_BYTES,
            0,
            "burst runs move whole 64-byte bursts"
        );
        bank_write_bursts(self.banks[slot], offset, data);
    }

    /// As [`PimSystem::read_rows_into`], for the EG in `slot`.
    pub fn read_rows_into(&self, slot: usize, offset: usize, row_len: usize, out: &mut [u8]) {
        assert_eq!(row_len % LANE_BYTES, 0, "rows move whole 8-byte words");
        assert_eq!(out.len(), LANES * row_len, "need one row per lane");
        bank_read_rows(self.banks[slot], offset, row_len, out);
    }

    /// As [`PimSystem::write_rows`], for the EG in `slot`.
    pub fn write_rows(
        &mut self,
        slot: usize,
        offset: usize,
        row_len: usize,
        rows: &[u8],
        perm: &LanePerm,
    ) {
        assert_eq!(row_len % LANE_BYTES, 0, "rows move whole 8-byte words");
        assert_eq!(rows.len(), LANES * row_len, "need one row per lane");
        bank_write_rows(self.banks[slot], offset, row_len, rows, perm);
    }

    /// As [`EgView::write_rows`], but with a *per-lane* destination
    /// offset: lane `d` receives row `perm[d]` at `offsets[d]`. This lets
    /// the engine fuse the phase-C local reorder into the streaming write —
    /// each register lands directly in its final slot instead of an arrival
    /// slot that a later PE kernel would have to fix up.
    pub fn write_rows_at(
        &mut self,
        slot: usize,
        offsets: &[usize; LANES],
        row_len: usize,
        rows: &[u8],
        perm: &LanePerm,
    ) {
        assert_eq!(row_len % LANE_BYTES, 0, "rows move whole 8-byte words");
        assert_eq!(rows.len(), LANES * row_len, "need one row per lane");
        for (lane, pe) in self.banks[slot].iter_mut().enumerate() {
            let src = perm[lane];
            pe.write(offsets[lane], &rows[src * row_len..(src + 1) * row_len]);
        }
    }

    /// Reduces one row run directly out of PE memory: row `d` of `acc`
    /// accumulates, element-wise under `op`/`dtype`, the `row_len` bytes
    /// at `offset` of lane `perm[d]` of the EG in `slot` — the fused form
    /// of "read rows, align with the rotation, vertically reduce" with no
    /// staging copy. Unmaterialized source regions reduce as zeros.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_rows(
        &self,
        slot: usize,
        offset: usize,
        row_len: usize,
        acc: &mut [u8],
        perm: &LanePerm,
        op: crate::dtype::ReduceKind,
        dtype: crate::dtype::DType,
    ) {
        assert_eq!(row_len % LANE_BYTES, 0, "rows move whole 8-byte words");
        assert_eq!(acc.len(), LANES * row_len, "need one row per lane");
        for (d, accr) in acc.chunks_exact_mut(row_len).enumerate() {
            let src = self.banks[slot][perm[d]].read_window(offset, row_len);
            crate::dtype::reduce_bytes(op, dtype, accr, &src);
        }
    }

    /// Moves one row run directly between entangled groups without a
    /// staging buffer: lane `d` of `dst_slot` receives the `row_len` bytes
    /// at `src_offset` of lane `perm[d]` of `src_slot`, written at
    /// `dst_offsets[d]` — one one-row window transfer per lane. Source and
    /// destination regions must be disjoint when they share a PE.
    pub fn copy_rows(
        &mut self,
        src_slot: usize,
        src_offset: usize,
        dst_slot: usize,
        dst_offsets: &[usize; LANES],
        row_len: usize,
        perm: &LanePerm,
    ) {
        assert_eq!(row_len % LANE_BYTES, 0, "rows move whole 8-byte words");
        if src_slot == dst_slot {
            let bank = &mut *self.banks[src_slot];
            for d in 0..LANES {
                let s = perm[d];
                if s == d {
                    // A PE's chunk for itself still travels through the
                    // host: a window transfer, not a PE-local copy.
                    let to = dst_offsets[d];
                    let (row, mut landing) =
                        bank[d].window_pair(src_offset..src_offset + row_len, to..to + row_len);
                    landing.put(to, &row);
                } else {
                    let (a, b) = bank.split_at_mut(s.max(d));
                    if s < d {
                        b[0].copy_from(dst_offsets[d], &a[s], src_offset, row_len);
                    } else {
                        a[d].copy_from(dst_offsets[d], &b[0], src_offset, row_len);
                    }
                }
            }
        } else {
            let (lo, hi) = (src_slot.min(dst_slot), src_slot.max(dst_slot));
            let (a, b) = self.banks.split_at_mut(hi);
            let (src_bank, dst_bank) = if src_slot < dst_slot {
                (&*a[lo], &mut *b[0])
            } else {
                (&*b[0], &mut *a[lo])
            };
            for d in 0..LANES {
                dst_bank[d].copy_from(dst_offsets[d], &src_bank[perm[d]], src_offset, row_len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::transpose8x8;

    #[test]
    fn burst_roundtrip() {
        let mut sys = PimSystem::new(DimmGeometry::single_group());
        let block: [u8; 64] = core::array::from_fn(|i| (i * 3 + 1) as u8);
        sys.write_burst(EgId(0), 16, &block);
        assert_eq!(sys.read_burst(EgId(0), 16), block);
    }

    #[test]
    fn burst_raw_order_interleaves_lanes() {
        let mut sys = PimSystem::new(DimmGeometry::single_group());
        // PE at lane 2 holds 8 bytes of 0xAB at offset 0.
        sys.pe_mut(PeId(2)).write(0, &[0xAB; 8]);
        let raw = sys.read_burst(EgId(0), 0);
        for beat in 0..LANES {
            for lane in 0..LANES {
                let expect = if lane == 2 { 0xAB } else { 0 };
                assert_eq!(raw[beat * LANES + lane], expect);
            }
        }
    }

    #[test]
    fn domain_transfer_yields_contiguous_words() {
        let mut sys = PimSystem::new(DimmGeometry::single_group());
        for lane in 0..LANES {
            let pe = sys.geometry().pe_of(EgId(0), lane);
            let word = (lane as u64 + 1) * 0x0101_0101_0101_0101;
            sys.pe_mut(pe).write(0, &word.to_le_bytes());
        }
        let mut block = sys.read_burst(EgId(0), 0).to_vec();
        transpose8x8(&mut block);
        for lane in 0..LANES {
            let w = u64::from_le_bytes(block[lane * 8..lane * 8 + 8].try_into().unwrap());
            assert_eq!(w, (lane as u64 + 1) * 0x0101_0101_0101_0101);
        }
    }

    #[test]
    fn read_bursts_concatenates() {
        let mut sys = PimSystem::new(DimmGeometry::single_group());
        let b0: [u8; 64] = [1; 64];
        let b1: [u8; 64] = [2; 64];
        sys.write_burst(EgId(0), 0, &b0);
        sys.write_burst(EgId(0), 8, &b1);
        let all = sys.read_bursts(EgId(0), 0, 16);
        assert_eq!(&all[..64], &b0[..]);
        assert_eq!(&all[64..], &b1[..]);
    }

    #[test]
    fn burst_runs_match_single_burst_loops() {
        let mut sys = PimSystem::new(DimmGeometry::single_rank());
        for pe in sys.geometry().pes() {
            let data: Vec<u8> = (0..256).map(|i| (pe.0 as usize + i * 7) as u8).collect();
            sys.pe_mut(pe).write(0, &data);
        }
        let eg = EgId(3);
        // Batched read == loop of single reads.
        let mut run = vec![0u8; 4 * BURST_BYTES];
        sys.read_bursts_into(eg, 16, &mut run);
        for b in 0..4 {
            assert_eq!(
                &run[b * BURST_BYTES..(b + 1) * BURST_BYTES],
                &sys.read_burst(eg, 16 + b * LANE_BYTES)[..],
                "burst {b}"
            );
        }
        // Batched write == loop of single writes.
        let mut sys2 = sys.clone();
        sys.write_bursts(EgId(5), 8, &run);
        for b in 0..4 {
            let block: [u8; BURST_BYTES] = run[b * BURST_BYTES..(b + 1) * BURST_BYTES]
                .try_into()
                .unwrap();
            sys2.write_burst(EgId(5), 8 + b * LANE_BYTES, &block);
        }
        for pe in sys.geometry().pes() {
            let n = sys.pe(pe).mram_used().max(sys2.pe(pe).mram_used());
            assert_eq!(sys.pe(pe).peek(0, n), sys2.pe(pe).peek(0, n), "{pe}");
        }
    }

    #[test]
    fn row_transport_equals_burst_transport_with_domain_transfer() {
        // read_rows_into == read_bursts_into + per-block DT, and
        // write_rows(perm) == permute_lanes_raw(perm) + write_bursts —
        // the fusion identity the streaming engine's host-domain transport
        // rests on.
        use crate::domain::{permute_lanes_raw, rotation_within};

        let mut sys = PimSystem::new(DimmGeometry::single_rank());
        for pe in sys.geometry().pes() {
            let data: Vec<u8> = (0..256)
                .map(|i| (pe.0 as usize * 13 + i * 3) as u8)
                .collect();
            sys.pe_mut(pe).write(0, &data);
        }
        let eg = EgId(2);
        let row_len = 32; // 4 bursts
        let mut rows = vec![0u8; LANES * row_len];
        sys.read_rows_into(eg, 8, row_len, &mut rows);

        let mut raw = vec![0u8; 4 * BURST_BYTES];
        sys.read_bursts_into(eg, 8, &mut raw);
        for (w, block) in raw.chunks_exact_mut(BURST_BYTES).enumerate() {
            transpose8x8(block);
            for lane in 0..LANES {
                assert_eq!(
                    &block[lane * 8..lane * 8 + 8],
                    &rows[lane * row_len + w * 8..lane * row_len + (w + 1) * 8],
                    "burst {w} lane {lane}"
                );
            }
        }

        // Write side, with a non-trivial lane permutation. (Re-read: the
        // check above domain-transferred `raw` in place.)
        sys.read_bursts_into(eg, 8, &mut raw);
        let perm = rotation_within(&[0, 2, 4, 6], 1);
        let mut a = sys.clone();
        let mut b = sys.clone();
        a.write_rows(EgId(5), 0, row_len, &rows, &perm);
        for block in raw.chunks_exact_mut(BURST_BYTES) {
            permute_lanes_raw(block, &perm);
        }
        b.write_bursts(EgId(5), 0, &raw);
        for pe in a.geometry().pes() {
            let n = a.pe(pe).mram_used().max(b.pe(pe).mram_used());
            assert_eq!(a.pe(pe).peek(0, n), b.pe(pe).peek(0, n), "{pe}");
        }
    }

    #[test]
    fn split_views_give_disjoint_parallel_access() {
        let mut sys = PimSystem::new(DimmGeometry::single_rank());
        let block: [u8; 64] = core::array::from_fn(|i| i as u8);
        sys.write_burst(EgId(1), 0, &block);
        sys.write_burst(EgId(6), 0, &block);

        let parts = vec![vec![EgId(1), EgId(2)], vec![EgId(6)]];
        let mut views = sys.split_eg_views(&parts);
        let (a, rest) = views.split_at_mut(1);
        let a = &mut a[0];
        let b = &mut rest[0];
        assert_eq!(a.egs(), &[EgId(1), EgId(2)]);
        // Views read what the system wrote and write independently.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(a.read_burst(0, 0), block);
                a.write_burst(1, 0, &block);
            });
            s.spawn(|| {
                assert_eq!(b.read_burst(0, 0), block);
            });
        });
        drop(views);
        assert_eq!(sys.read_burst(EgId(2), 0), block);
    }

    #[test]
    #[should_panic(expected = "claimed by two views")]
    fn overlapping_views_rejected() {
        let mut sys = PimSystem::new(DimmGeometry::single_rank());
        let parts = vec![vec![EgId(0)], vec![EgId(0)]];
        let _ = sys.split_eg_views(&parts);
    }

    #[test]
    fn metering_accumulates_and_resets() {
        let mut sys = PimSystem::new(DimmGeometry::single_group());
        sys.charge(Category::PeMemAccess, 7.0);
        sys.run_kernel(100.0);
        let m = sys.meter();
        assert_eq!(m.pe_mem_access, 7.0);
        assert_eq!(m.kernel, 100.0);
        assert!(m.other > 0.0);
        let taken = sys.take_meter();
        assert_eq!(taken.total(), m.total());
        assert_eq!(sys.meter().total(), 0.0);
    }

    #[test]
    fn mram_usage_tracks_writes() {
        let mut sys = PimSystem::new(DimmGeometry::single_group());
        assert_eq!(sys.total_mram_used(), 0);
        sys.pe_mut(PeId(0)).write(0, &[0; 128]);
        assert_eq!(sys.total_mram_used(), 128);
    }

    #[test]
    fn fault_injection_detected_by_write_verification() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut sys = PimSystem::new(DimmGeometry::single_group());
        let plan = Arc::new(FaultPlan::new(11).with_event(FaultKind::BitFlip, 2, 1));
        sys.attach_fault_plan(plan.clone());
        sys.set_verify_writes(true);
        plan.begin_epoch();
        let block: [u8; 64] = core::array::from_fn(|i| i as u8);
        sys.write_burst(EgId(0), 0, &block);
        let ev = sys.take_corruption().expect("flip must be detected");
        assert_eq!(ev.pe, 2);
        assert_eq!(ev.epoch, 1);
        assert_ne!(ev.expected, ev.found);
        assert!(sys.take_corruption().is_none(), "record is cleared");
    }

    #[test]
    fn stuck_pe_drops_writes_but_stays_readable() {
        use crate::fault::FaultPlan;
        let mut sys = PimSystem::new(DimmGeometry::single_group());
        sys.pe_mut(PeId(1)).write(0, &[7u8; 8]);
        sys.attach_fault_plan(Arc::new(FaultPlan::new(0).with_failed_pe(1)));
        sys.pe_mut(PeId(1)).write(0, &[9u8; 8]);
        // The dead DPU's bank is still host-readable, holding stale data.
        assert_eq!(sys.pe(PeId(1)).peek(0, 8), vec![7u8; 8]);
        sys.detach_fault_plan();
        sys.pe_mut(PeId(1)).write(0, &[9u8; 8]);
        assert_eq!(sys.pe(PeId(1)).peek(0, 8), vec![9u8; 8]);
    }

    #[test]
    fn verified_fault_free_writes_are_bit_identical() {
        let mut a = PimSystem::new(DimmGeometry::single_group());
        let mut b = PimSystem::new(DimmGeometry::single_group());
        b.set_verify_writes(true);
        let block: [u8; 64] = core::array::from_fn(|i| (i * 5) as u8);
        a.write_burst(EgId(0), 0, &block);
        b.write_burst(EgId(0), 0, &block);
        for pe in a.geometry().pes() {
            assert_eq!(a.pe(pe).mram_used(), b.pe(pe).mram_used());
            let n = a.pe(pe).mram_used();
            assert_eq!(a.pe(pe).peek(0, n), b.pe(pe).peek(0, n), "{pe}");
        }
        assert!(b.take_corruption().is_none());
    }
}
