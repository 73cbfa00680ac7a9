//! Reusable allocation arena for [`PimSystem`]s and host staging buffers.
//!
//! Every benchmark cell builds a `PimSystem` (up to 1024 PEs, each with
//! paged MRAM segments and a reorder scratch) plus multi-megabyte host
//! staging buffers for its scatters, uses them for one run and drops the
//! lot — so a sweep over dozens of cells spends a measurable slice of its
//! serial wall on the allocator. A [`SystemArena`] closes that gap: each
//! sweep worker owns one arena, returns its system and buffers when a cell
//! finishes, and the next cell on that worker checks them out again
//! instead of reallocating them. A checked-out system's pages are put in
//! runs of zeros, not zero-filled: they read as zeros, and the next cell
//! zeroes only the pages it touches, so a checkout costs what the next cell uses,
//! not what the largest cell before it left resident.
//!
//! # Lifecycle and determinism contract
//!
//! * [`SystemArena::system`] returns a pooled system with *matching
//!   geometry* after [`PimSystem::reset`] — functionally indistinguishable
//!   from `PimSystem::new(geom)` (all reads observe zeros, no fault plan,
//!   verification off, meter empty) — or builds a fresh one on a pool
//!   miss. Pooled systems keep their
//!   [`crate::TimeModel`]; the arena is meant for homogeneous sweeps where
//!   every cell uses the default calibration, and callers with custom
//!   models should build those systems directly.
//! * [`SystemArena::recycle`] returns a system to the pool. Skipping it
//!   (e.g. on an error path) is safe — the system just drops and the next
//!   checkout pays a fresh allocation.
//! * [`SystemArena::raw_bytes`] / [`SystemArena::recycle_bytes`] do the
//!   same for plain `Vec<u8>` staging images that are overwritten in full
//!   (contents unspecified, the largest recycled capacity reused): DLRM's
//!   batch image, and the prepared tier's staged rows
//!   (`PreparedScatter::stage_in` checks one out, `retire` returns it),
//!   so iteration-heavy sweeps re-stage into one allocation across cells.
//!   The MLP's weights take none: its scatter generates them row by row.
//! * [`SystemArena::byte_set`] / [`SystemArena::recycle_byte_set`] pool
//!   the remaining per-cell buffer class, the GNN's per-group scatter
//!   payloads (`Vec<Vec<u8>>`). A checkout is observationally fresh —
//!   zero-filled buffers — with only spare capacity carried over.
//!
//! Because a checkout is always all-zero with a cleared meter, two
//! consecutive cells on one worker can never observe each other's state —
//! pinned by `app_sweep_determinism`'s arena-reuse test.

use std::any::Any;

use crate::geometry::DimmGeometry;
use crate::system::{Checkpoint, PimSystem};

/// Per-worker pool of [`PimSystem`]s and host staging buffers. See the
/// module docs for the lifecycle and determinism contract.
#[derive(Default)]
pub struct SystemArena {
    systems: Vec<PimSystem>,
    buffers: Vec<Vec<u8>>,
    byte_sets: Vec<Vec<Vec<u8>>>,
    checkpoints: Vec<Checkpoint>,
    extensions: Vec<Box<dyn Any + Send>>,
}

impl core::fmt::Debug for SystemArena {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SystemArena")
            .field("systems", &self.systems.len())
            .field("buffers", &self.buffers.len())
            .field("byte_sets", &self.byte_sets.len())
            .field("checkpoints", &self.checkpoints.len())
            .field("extensions", &self.extensions.len())
            .finish()
    }
}

impl SystemArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out an all-zero system with geometry `geom`: a reset pooled
    /// system when one with matching geometry is available, a fresh
    /// [`PimSystem::new`] otherwise.
    pub fn system(&mut self, geom: DimmGeometry) -> PimSystem {
        match self.systems.iter().position(|s| *s.geometry() == geom) {
            Some(i) => {
                let mut sys = self.systems.swap_remove(i);
                sys.reset();
                sys
            }
            None => PimSystem::new(geom),
        }
    }

    /// Returns a system to the pool for the next checkout, in whatever
    /// state it is in: the checkout resets it.
    pub fn recycle(&mut self, sys: PimSystem) {
        self.systems.push(sys);
    }

    /// Checks out a buffer of exactly `len` bytes, reusing the largest
    /// recycled allocation when one exists, with contents unspecified
    /// (recycled bytes are handed back as-is): the checkout for callers
    /// that overwrite every byte before reading any. Such an image can be
    /// large, and a clear would memset all of it only for the writer to
    /// overwrite it. A fresh checkout allocates with
    /// `vec![0u8; len]` (lazily zeroed pages), so first-touch cost is paid
    /// once, by the writer.
    pub fn raw_bytes(&mut self, len: usize) -> Vec<u8> {
        match self
            .buffers
            .iter()
            .enumerate()
            .max_by_key(|(_, b)| b.capacity())
        {
            Some((i, _)) => {
                let mut buf = self.buffers.swap_remove(i);
                // Grows (zero-filling only the growth) or truncates; the
                // recycled prefix keeps whatever it held.
                buf.resize(len, 0);
                buf
            }
            None => vec![0u8; len],
        }
    }

    /// Returns a staging buffer to the pool.
    pub fn recycle_bytes(&mut self, buf: Vec<u8>) {
        self.buffers.push(buf);
    }

    /// Checks out a set of `count` zero-filled buffers of `len` bytes
    /// each — the per-group scatter payloads of the GNN — reusing a
    /// recycled set's allocations (outer vector and inner buffers) when
    /// one exists. Observationally `vec![vec![0u8; len]; count]`.
    pub fn byte_set(&mut self, count: usize, len: usize) -> Vec<Vec<u8>> {
        let mut set = self.byte_sets.pop().unwrap_or_default();
        set.truncate(count);
        for buf in &mut set {
            buf.clear();
            buf.resize(len, 0);
        }
        set.resize_with(count, || vec![0u8; len]);
        set
    }

    /// Returns a buffer set to the pool for the next checkout.
    pub fn recycle_byte_set(&mut self, set: Vec<Vec<u8>>) {
        self.byte_sets.push(set);
    }

    /// Checks out an iteration [`Checkpoint`] for
    /// [`PimSystem::checkpoint_regions`], reusing a recycled one's per-PE
    /// buffers when available. The capture overwrites previous contents, so
    /// only spare capacity carries over.
    pub fn checkpoint(&mut self) -> Checkpoint {
        self.checkpoints.pop().unwrap_or_default()
    }

    /// Returns a checkpoint to the pool for the next checkout.
    pub fn recycle_checkpoint(&mut self, ckpt: Checkpoint) {
        self.checkpoints.push(ckpt);
    }

    /// Checks out the arena's typed extension slot for `T`, removing it
    /// from the pool (or building `T::default()` on a miss). Higher layers
    /// park per-worker caches that `pim_sim` cannot name — e.g. `pidcomm`'s
    /// keyed collective-plan cache — next to the systems and buffers, so
    /// consecutive cells on one worker reuse them. Pair with
    /// [`SystemArena::put_extension`] like `system`/`recycle`; skipping
    /// the put on an error path is safe (the next checkout starts fresh).
    pub fn take_extension<T: Any + Send + Default>(&mut self) -> T {
        match self
            .extensions
            .iter()
            .position(|e| e.downcast_ref::<T>().is_some())
        {
            Some(i) => *self
                .extensions
                .swap_remove(i)
                .downcast::<T>()
                .expect("position matched the type"),
            None => T::default(),
        }
    }

    /// Returns an extension value to the pool for the next checkout.
    pub fn put_extension<T: Any + Send>(&mut self, value: T) {
        self.extensions.push(Box::new(value));
    }

    /// Number of systems currently parked in the pool (tests/metrics).
    pub fn pooled_systems(&self) -> usize {
        self.systems.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::PeId;

    #[test]
    fn checkout_after_recycle_is_all_zero_and_reuses_the_allocation() {
        let geom = DimmGeometry::single_rank();
        let mut arena = SystemArena::new();
        let mut sys = arena.system(geom);
        sys.pe_mut(PeId(5)).write(128, &[0xAB; 256]);
        sys.run_kernel(17.0);
        assert!(sys.total_mram_used() > 0);
        arena.recycle(sys);
        assert_eq!(arena.pooled_systems(), 1);

        let sys = arena.system(geom);
        assert_eq!(arena.pooled_systems(), 0, "pool hit consumed the entry");
        assert_eq!(sys.total_mram_used(), 0);
        assert_eq!(sys.meter().total(), 0.0);
        assert_eq!(sys.pe(PeId(5)).peek(128, 256), vec![0u8; 256]);
        // The recycled PE kept its materialized pages (the whole point).
        assert!(sys.pe(PeId(5)).mram_resident() > 0);
    }

    #[test]
    fn checkout_after_recycle_drops_the_fault_plan_and_verification() {
        use crate::fault::FaultPlan;
        use std::sync::Arc;

        let geom = DimmGeometry::single_rank();
        let mut arena = SystemArena::new();
        let mut sys = arena.system(geom);
        let plan = Arc::new(FaultPlan::new(3).with_failed_pe(5));
        plan.begin_epoch();
        sys.attach_fault_plan(plan);
        sys.set_verify_writes(true);
        sys.pe_mut(PeId(5)).write(0, &[0xAB; 64]);
        assert_eq!(sys.pe(PeId(5)).peek(0, 64), vec![0; 64], "PE 5 is stuck");
        // Recycled with the storm still attached, as any caller may.
        arena.recycle(sys);

        let mut sys = arena.system(geom);
        assert!(sys.fault_plan().is_none(), "checkout kept the fault plan");
        assert!(!sys.verify_writes(), "checkout kept verification on");
        sys.pe_mut(PeId(5)).write(0, &[0xAB; 64]);
        assert_eq!(sys.pe(PeId(5)).peek(0, 64), vec![0xAB; 64]);
        assert!(sys.pe_mut(PeId(5)).take_corruption().is_none());
    }

    #[test]
    fn geometry_mismatch_builds_fresh() {
        let mut arena = SystemArena::new();
        arena.recycle(PimSystem::new(DimmGeometry::single_rank()));
        let sys = arena.system(DimmGeometry::single_group());
        assert_eq!(*sys.geometry(), DimmGeometry::single_group());
        assert_eq!(arena.pooled_systems(), 1, "mismatch leaves the pool alone");
    }

    #[test]
    fn byte_sets_are_observationally_fresh_and_reuse_allocations() {
        let mut arena = SystemArena::new();
        let mut set = arena.byte_set(4, 128);
        assert_eq!(set, vec![vec![0u8; 128]; 4]);
        for b in &mut set {
            b.fill(0x33);
        }
        let caps: Vec<usize> = set.iter().map(Vec::capacity).collect();
        arena.recycle_byte_set(set);
        // Smaller checkout: same inner allocations, zeroed.
        let set = arena.byte_set(3, 64);
        assert_eq!(set, vec![vec![0u8; 64]; 3]);
        assert!(set.iter().zip(&caps).all(|(b, &c)| b.capacity() == c));
        arena.recycle_byte_set(set);
        // Larger checkout: grows with fresh buffers for the extras.
        let set = arena.byte_set(6, 16);
        assert_eq!(set, vec![vec![0u8; 16]; 6]);
    }

    #[test]
    fn extensions_roundtrip_by_type() {
        #[derive(Default, PartialEq, Debug)]
        struct CacheA(Vec<u32>);
        #[derive(Default, PartialEq, Debug)]
        struct CacheB(u64);

        let mut arena = SystemArena::new();
        // Miss builds a default.
        assert_eq!(arena.take_extension::<CacheA>(), CacheA::default());
        arena.put_extension(CacheA(vec![1, 2, 3]));
        arena.put_extension(CacheB(9));
        // Each type finds its own slot regardless of insertion order.
        assert_eq!(arena.take_extension::<CacheB>(), CacheB(9));
        assert_eq!(arena.take_extension::<CacheA>(), CacheA(vec![1, 2, 3]));
        // Taken slots are gone.
        assert_eq!(arena.take_extension::<CacheB>(), CacheB::default());
    }
}
