//! Deep learning recommendation model on a 3-D hypercube (§VII-A, Fig. 11).
//!
//! The embedding stage is partitioned three ways, mapped to the hypercube
//! axes: **x** splits the embedding dimension (column division), **y**
//! splits each table's rows (row division), and **z** splits the tables
//! (table division). The communication structure follows Fig. 11:
//!
//! 1. `AlltoAll("111")` distributes the batch's lookup indices to the PEs
//!    owning the referenced tables and rows (duplicated across x, since
//!    every column shard needs them).
//! 2. A lookup kernel sum-pools each sample's rows (multi-hot features).
//! 3. `ReduceScatter("010")` combines the row-shard partial sums along y.
//! 4. `AlltoAll("101")` relocates the pooled vectors so each PE ends with
//!    complete embedding vectors for its sample subset.
//!
//! The run is validated bit-exactly against a direct CPU pooling reference
//! and finishes with the top-MLP kernel and a Gather.

use std::sync::Arc;

use pidcomm::{
    par_chunks, par_pes, par_pes_with, BufferSpec, DimMask, OptLevel, Primitive, RunPolicy,
};
use pidcomm_data::dlrm::{embedding_value, generate_batch, DlrmConfig};
use pidcomm_data::LookupBatch;
use pim_sim::{kernels, DType, FaultPlan, ReduceKind, SystemArena};

use crate::cost::{pe_kernel_ns, CpuModel};
use crate::driver::{drive, geometry, mismatches, validated, Run, Setup, Stop, Verdict};
use crate::profile::AppProfile;
use crate::{AppRun, ResilientRun};

/// Rows summed per (sample, table) lookup (multi-hot pooling).
const POOL_K: usize = 2;

/// DLRM run configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlrmRunConfig {
    /// Workload (tables, rows, embedding dim, batch).
    pub workload: DlrmConfig,
    /// Number of PEs.
    pub pes: usize,
    /// Communication optimization level.
    pub opt: OptLevel,
    /// Engine thread budget for the app's collectives: `0` = auto,
    /// `1` = the serial reference schedule. Purely an execution knob —
    /// profiles and results are byte-identical at every setting. The
    /// sweep harness passes `1`: its pool owns every thread.
    pub threads: usize,
}

/// Hypercube split `[x, y, z]` for a positive PE count (x = column
/// division, y = row division, z = table division ≤ number of tables);
/// `None` without tables or embedding components, or when the PE count
/// does not divide by the table division.
fn split(pes: usize, tables: usize, dim: usize) -> Option<[usize; 3]> {
    let tz = tables.min(8);
    if tz == 0 || dim == 0 || !pes.is_multiple_of(tz) {
        return None;
    }
    let rest = pes / tz;
    // Column division cannot exceed the embedding dimension.
    let tx = (1 << (rest.trailing_zeros() / 2)).min(dim).min(8);
    let ty = rest / tx;
    Some([tx, ty, tz])
}

/// One lookup routed through the index AlltoAll: `(sample, table, row)`
/// packed into a u64 — the table in 8 bits, the row in 24 (both bounds are
/// part of [`dlrm`]'s config filter).
fn pack(sample: usize, table: usize, row: u32) -> u64 {
    debug_assert!(table < 1 << 8 && row < 1 << 24, "({table}, {row}) aliases");
    ((sample as u64) << 32) | ((table as u64) << 24) | row as u64
}

fn unpack(v: u64) -> (usize, usize, u32) {
    (
        (v >> 32) as usize,
        ((v >> 24) & 0xFF) as usize,
        (v & 0xFF_FFFF) as u32,
    )
}

/// Sentinel marking a padding slot in index chunks.
const PAD: u64 = u64::MAX;

/// Row `k` of the multi-hot pool of a lookup whose drawn row is `r0`.
fn pool_row(w: &DlrmConfig, r0: u32, k: usize) -> u32 {
    ((r0 as usize + k * 97) % w.rows_per_table) as u32
}

/// The embedding rows the batch touches, materialized once per run:
/// `embedding_value` is a per-element hash and the same `(table, row)` is
/// looked up many times across samples (multi-hot pooling over a bounded
/// row space), so pooling runs as typed-lane adds over a materialized
/// slice instead of per-element hash calls. The table is the model's
/// weights — input to the CPU reference and to the PEs' lookup kernel
/// alike, part of neither computation — and immutable once built. The row
/// space is bounded (`tables × rows_per_table`), so the index is a flat
/// slot table: no hashing on the lookup path.
struct EmbeddingRows {
    d: usize,
    rows_per_table: usize,
    /// Per `(table, row)`, its row number in `values`; `usize::MAX` where
    /// no sample touches it.
    slots: Vec<usize>,
    values: Vec<i32>,
}

impl EmbeddingRows {
    fn touched_by(w: &DlrmConfig, batch: &LookupBatch) -> Self {
        let d = w.embedding_dim;
        let mut slots = vec![usize::MAX; w.num_tables * w.rows_per_table];
        let mut values = Vec::new();
        for tables in &batch.indices {
            for (t, &r0) in tables.iter().enumerate() {
                for row in (0..POOL_K).map(|k| pool_row(w, r0, k)) {
                    let slot = &mut slots[t * w.rows_per_table + row as usize];
                    if *slot == usize::MAX {
                        *slot = values.len() / d;
                        values.extend((0..d).map(|c| embedding_value(t, row, c)));
                    }
                }
            }
        }
        Self {
            d,
            rows_per_table: w.rows_per_table,
            slots,
            values,
        }
    }

    /// The full-width row for an in-range `(table, row)`, if a sample
    /// touches it.
    fn get(&self, table: usize, row: u32) -> Option<&[i32]> {
        let slot = self.slots[table * self.rows_per_table + row as usize];
        (slot != usize::MAX).then(|| &self.values[slot * self.d..(slot + 1) * self.d])
    }
}

/// CPU reference: pooled embedding vectors per sample (all tables
/// concatenated), plus a roofline time for lookup + pooling.
fn cpu_reference(
    cfg: &DlrmConfig,
    batch: &LookupBatch,
    rows: &EmbeddingRows,
) -> (Vec<Vec<i32>>, f64) {
    let cpu = CpuModel::xeon_5215();
    let d = cfg.embedding_dim;
    let mut out = Vec::with_capacity(cfg.batch_size);
    for tables in batch.indices.iter() {
        let mut vec = vec![0i32; cfg.num_tables * d];
        for (t, &r0) in tables.iter().enumerate() {
            for k in 0..POOL_K {
                let vals = rows
                    .get(t, pool_row(cfg, r0, k))
                    .expect("the batch touches it");
                kernels::add_wrap(DType::I32, &mut vec[t * d..(t + 1) * d], vals);
            }
        }
        out.push(vec);
    }
    let lookups = (cfg.batch_size * cfg.num_tables * POOL_K) as u64;
    let time = cpu.time_mixed_ns(lookups * d as u64, 0, lookups * (d as u64 * 4 + 64));
    (out, time)
}

/// Index routing for AlltoAll("111"). The destination of `(sample, table,
/// row)` is z = table shard, y = row shard and every x (duplicated, since
/// every column shard needs it), so a lookup is stored once, under its
/// x = 0 destination, and goes to the `tx` PEs from there. Each source
/// PE's lookups are kept in push order, stably grouped by destination —
/// the order a per-(source, destination) list grid would hold them in.
struct Routing {
    /// Lookups per source PE.
    per_src: usize,
    tx: usize,
    /// `(x = 0 destination, packed entry)`, `per_src` per source.
    routes: Vec<(usize, u64)>,
    /// Entries per (source, destination) chunk of the index AlltoAll: the
    /// longest list, computed exactly, padded uniformly.
    chunk_entries: usize,
}

impl Routing {
    /// Each source PE's routing depends only on its own batch shard, so
    /// the expansion fans out one host-kernel work item per source.
    fn of(w: &DlrmConfig, batch: &LookupBatch, [tx, ty, tz]: [usize; 3], threads: usize) -> Self {
        let shard = w.batch_size / (tx * ty * tz);
        let per_src = shard * w.num_tables * POOL_K;
        let tables_per_z = w.num_tables / tz;
        let rows_per_y = w.rows_per_table / ty;
        let mut routes = vec![(0usize, 0u64); tx * ty * tz * per_src];
        let longest = par_chunks(&mut routes, per_src, threads, |src, own| {
            // simlint: hot(begin, dlrm index routing)
            let mut slots = own.iter_mut();
            for s in src * shard..(src + 1) * shard {
                for (ti, &r0) in batch.indices[s].iter().enumerate() {
                    for row in (0..POOL_K).map(|k| pool_row(w, r0, k)) {
                        let (dy, dz) = (row as usize / rows_per_y, ti / tables_per_z);
                        let slot = slots.next().expect("per_src lookups per source");
                        *slot = (tx * (dy + ty * dz), pack(s, ti, row));
                    }
                }
            }
            own.sort_by_key(|&(dst0, _)| dst0); // stable
            let lists = own.chunk_by(|a, b| a.0 == b.0);
            lists.map(<[_]>::len).max().unwrap_or(0)
            // simlint: hot(end)
        });
        let max_entries = longest.into_iter().max().unwrap_or(0).max(1);
        Self {
            per_src,
            tx,
            routes,
            chunk_entries: max_entries.next_multiple_of(2).max(2),
        }
    }

    /// Fills `image` — source PE `src`'s AlltoAll send buffer, one
    /// `chunk_entries`-entry chunk per destination — with its routed
    /// entries, PAD everywhere else.
    fn encode(&self, src: usize, image: &mut [u8]) {
        // simlint: hot(begin, dlrm index encode)
        image.fill(0xFF);
        let own = &self.routes[src * self.per_src..(src + 1) * self.per_src];
        for list in own.chunk_by(|a, b| a.0 == b.0) {
            for dst in list[0].0..list[0].0 + self.tx {
                let chunk = &mut image[dst * self.chunk_entries * 8..][..list.len() * 8];
                for (slot, (_, entry)) in chunk.chunks_exact_mut(8).zip(list) {
                    slot.copy_from_slice(&entry.to_le_bytes());
                }
            }
        }
        // simlint: hot(end)
    }
}

/// Runs DLRM and validates the pooled embedding vectors.
///
/// # Errors
///
/// [`pidcomm::Error::InvalidBuffer`], before anything leaves the arena, if
/// `cfg.pes` has no DIMM geometry or the workload does not split over it:
/// the `[x, y, z]` hypercube must cover every PE, with the embedding
/// dimension divisible by `x`, the tables (at most 256) by `z`, a positive
/// row count per table (at most 2^24) by `y` and a non-empty batch by the
/// PE count; else propagates collective validation errors.
///
/// # Panics
///
/// Panics if the pooled embeddings diverge from the CPU reference.
pub fn run_dlrm(cfg: &DlrmRunConfig) -> pidcomm::Result<AppRun> {
    run_dlrm_in(cfg, &mut SystemArena::new())
}

/// As [`run_dlrm`], but sourcing the `PimSystem` and staging buffers from
/// `arena` (and returning them to it), so repeated runs — e.g. consecutive
/// sweep cells on one worker — reuse allocations. Results are
/// byte-identical to [`run_dlrm`].
///
/// # Errors
///
/// As [`run_dlrm`].
///
/// # Panics
///
/// As [`run_dlrm`].
pub fn run_dlrm_in(cfg: &DlrmRunConfig, arena: &mut SystemArena) -> pidcomm::Result<AppRun> {
    Ok(validated(
        run_dlrm_resilient_in(cfg, None, RunPolicy::default(), arena)?,
        "DLRM pooled embeddings",
    ))
}

/// As [`run_dlrm`], but under run-level supervision (see
/// [`pidcomm::engine::supervisor`]): the same body, with collectives run
/// verified under quarantine-aware recovery, the embedding pipeline
/// (index AlltoAll → lookup → ReduceScatter → relocation AlltoAll)
/// committed as one iteration, and unrecoverable faults ending the run
/// with a typed outcome instead of a panic. With `fault = None` the
/// profile and outputs are bit-identical to [`run_dlrm`].
///
/// # Errors
///
/// As [`run_dlrm`] (never typed fault errors — those are consumed by the
/// supervisor).
pub fn run_dlrm_resilient(
    cfg: &DlrmRunConfig,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
) -> pidcomm::Result<ResilientRun> {
    run_dlrm_resilient_in(cfg, fault, policy, &mut SystemArena::new())
}

/// As [`run_dlrm_resilient`], sourcing allocations from `arena` — the one
/// DLRM body behind all four runners (see [`crate::driver`]):
/// scatter step → index encode + fused 3-collective pipeline step →
/// read-only assembly → top-MLP + score gather step.
///
/// Every stage restages its inputs from host data or from buffers written
/// earlier in the same attempt, so every step's checkpoint is empty and a
/// re-run replays the whole step.
///
/// # Errors
///
/// As [`run_dlrm_resilient`].
pub fn run_dlrm_resilient_in(
    cfg: &DlrmRunConfig,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
    arena: &mut SystemArena,
) -> pidcomm::Result<ResilientRun> {
    let w = &cfg.workload;
    let p = cfg.pes;
    let d = w.embedding_dim;
    let t = w.num_tables;
    let bs = w.batch_size;
    let geom = geometry("DLRM", p)?;
    let [tx, ty, tz] = split(p, t, d)
        .filter(|&[tx, ty, tz]| {
            tx * ty * tz == p
                && d.is_multiple_of(tx)
                && w.rows_per_table > 0
                && w.rows_per_table.is_multiple_of(ty)
                && t.is_multiple_of(tz)
                // What an index entry can name (see `pack`).
                && t <= 1 << 8
                && w.rows_per_table <= 1 << 24
                && bs > 0
                && bs.is_multiple_of(p)
        })
        .ok_or_else(|| {
            let want = "an [x, y, z] split covering every PE with embedding_dim % x == 0, \
                        num_tables % z == 0 (at most 256), and positive rows_per_table % y == 0 \
                        (at most 2^24) and batch_size % pes == 0";
            pidcomm::Error::InvalidBuffer(format!("DLRM needs {want}: {cfg:?}"))
        })?;
    let comps = d / tx; // embedding components per column shard
    let tables_per_z = t / tz;
    // After the RS, PE (x, y, z) holds chunk y: samples sub-range
    // [y*bs/ty, ...) of the pooled (table z-shard, comps x-shard) values.
    // Within each y-fixed group (tx*tz members), member (x, z) holds the
    // y-chunk's samples for its (comps, tables) shard; destination (x', z')
    // owns samples sub-subset and wants all shards (at least one sample
    // each: the batch is a positive multiple of the PE count).
    let samples_per_y = bs / ty;
    let n2 = tx * tz;
    let samples_per_dest = samples_per_y / n2;

    let batch = generate_batch(w);
    let rows = EmbeddingRows::touched_by(w, &batch);
    let (expected, cpu_lookup_ns) = cpu_reference(w, &batch, &rows);
    let coords = |pe: usize| {
        let x = pe % tx;
        let y = (pe / tx) % ty;
        let z = pe / (tx * ty);
        (x, y, z)
    };
    // Bottom + top MLP stack: each PE processes its samples through 8
    // dense layers of width t*d (compute only; the paper profiles this as
    // Kernel — DLRM is its most kernel-heavy benchmark).
    let width = (t * d) as u64;
    let mlp_ops = samples_per_dest as u64 * 8 * 12 * width * width;
    let mlp_bytes = samples_per_dest as u64 * 8 * width * 4;
    let mlp_kernel = pe_kernel_ns(mlp_bytes, mlp_ops);

    let setup = Setup {
        geom,
        dims: vec![tx, ty, tz],
        opt: cfg.opt,
        threads: cfg.threads,
        profile: AppProfile::new("DLRM", format!("d{d}")),
    };
    let body = |run: &mut Run<'_>| {
        // ---- Host staging: raw batch shards (sample indices). -----------
        let shard = bs / p;
        // One 8-byte index per sample and table fills every shard to its
        // last byte, so the recycled image needs no clear.
        let shard_bytes = shard * t * 8;
        let mut batch_host = run.arena.raw_bytes(p * shard_bytes);
        par_chunks(&mut batch_host, shard_bytes, cfg.threads, |pe, chunk| {
            for si in 0..shard {
                let s = pe * shard + si;
                for (ti, &row) in batch.indices[s].iter().enumerate() {
                    let v = pack(s, ti, row);
                    let off = (si * t + ti) * 8;
                    chunk[off..off + 8].copy_from_slice(&v.to_le_bytes());
                }
            }
        });

        // ---- Index routing for AlltoAll("111"). -------------------------
        let routing = Routing::of(w, &batch, [tx, ty, tz], cfg.threads);
        let chunk_entries = routing.chunk_entries;
        let idx_b = p * chunk_entries * 8;
        let idx_src = shard_bytes.next_multiple_of(64);
        let idx_dst = idx_src + idx_b.next_multiple_of(64);

        // ---- Remaining MRAM layout. -------------------------------------
        // Partial buffer: all samples x owned tables x owned components.
        let partial_entries = bs * tables_per_z * comps;
        let partial_bytes = (partial_entries * 4).next_multiple_of(8 * ty);
        let pool_src = idx_dst + idx_b.next_multiple_of(64);
        let pool_dst = pool_src + partial_bytes.next_multiple_of(64);
        let rs_chunk_bytes = partial_bytes / ty;
        let aa2_chunk = samples_per_dest * tables_per_z * comps * 4;
        let aa2_b = (n2 * aa2_chunk).next_multiple_of(8 * n2);
        let aa2_src = pool_dst + rs_chunk_bytes.next_multiple_of(64);
        let aa2_dst = aa2_src + aa2_b.next_multiple_of(64);
        let aa2_payload = n2 * aa2_chunk;
        let score_bytes = (samples_per_dest * 8).next_multiple_of(8);
        let score_off = aa2_dst + aa2_b.next_multiple_of(64);

        // ---- Plans (pooled across runs in the arena cache). -------------
        let mask_all = DimMask::all(run.comm.manager().shape());
        let mask_y: DimMask = "010".parse()?;
        let mask_xz: DimMask = "101".parse()?;
        let mut plan = |primitive, mask: &DimMask, spec: BufferSpec| {
            run.comm
                .plan_cached(&mut run.plans, primitive, mask, &spec, ReduceKind::Sum)
        };
        let scatter_plan = plan(
            Primitive::Scatter,
            &mask_all,
            BufferSpec::new(0, 0, shard_bytes).with_dtype(DType::U64),
        )?;
        let idx_aa_plan = plan(
            Primitive::AlltoAll,
            &mask_all,
            BufferSpec::new(idx_src, idx_dst, idx_b).with_dtype(DType::U64),
        )?;
        let rs_plan = plan(
            Primitive::ReduceScatter,
            &mask_y,
            BufferSpec::new(pool_src, pool_dst, partial_bytes).with_dtype(DType::I32),
        )?;
        let aa2_plan = plan(
            Primitive::AlltoAll,
            &mask_xz,
            BufferSpec::new(aa2_src, aa2_dst, aa2_b).with_dtype(DType::I32),
        )?;
        let gather_plan = plan(
            Primitive::Gather,
            &mask_all,
            BufferSpec::new(score_off, 0, score_bytes).with_dtype(DType::I64),
        )?;
        // The pipeline core runs as one fused chain: index AlltoAll("111")
        // → ReduceScatter("010") → relocation AlltoAll("101"), with the
        // pooled lookup and the rank-major repack as inter-step hooks, so
        // no intermediate result takes a host staging round-trip.
        // Supervised, a mid-chain fault restores the chain's merged
        // region image (which covers the encoded index buffer, so the
        // hooks replay deterministically) and re-runs the whole pipeline.
        let pipeline = run.comm.fuse(vec![idx_aa_plan, rs_plan, aa2_plan], &[])?;

        // Setup: the batch scatter, a one-shot send restaged from the
        // host buffer.
        let scattered = run.step(&[], |sys, at| {
            at.collective(
                sys,
                &scatter_plan,
                Some(&core::slice::from_ref(&batch_host)),
            )
        });
        run.arena.recycle_bytes(batch_host);
        run.profile.record(&scattered?.report);

        // The embedding pipeline as one step.
        let (reports, lookup_kernel) = run.step(&[], |sys, at| {
            // Encode each source PE's routed index chunks (PAD-padded)
            // into its AlltoAll send buffer.
            par_pes_with(
                sys.pes_mut(),
                cfg.threads,
                || vec![0u8; idx_b],
                |image, src, pe| {
                    // simlint: hot(begin, dlrm index landing)
                    routing.encode(src, image);
                    pe.write(idx_src, image);
                    // simlint: hot(end)
                },
            );
            let mut lookup_kernel = 0.0f64;
            let reports = at.fused(sys, &pipeline, |step, sys| {
                match step {
                    // After the index AlltoAll: sum-pool owned rows, as a
                    // typed-lane add over the PE's column slice of each
                    // materialized embedding row.
                    0 => {
                        let kernels = par_pes_with(
                            sys.pes_mut(),
                            cfg.threads,
                            || (vec![0i32; partial_entries], vec![0i32; d]),
                            |(partial, spare), pid, pe| {
                                // simlint: hot(begin, dlrm pooled lookup)
                                let (x, _, z) = coords(pid);
                                partial.fill(0);
                                let mut lookups = 0u64;
                                {
                                    let received = pe.read(idx_dst, idx_b);
                                    for e in received.chunks_exact(8) {
                                        let v = u64::from_le_bytes(e.try_into().unwrap());
                                        if v == PAD {
                                            continue;
                                        }
                                        let (s, ti, row) = unpack(v);
                                        // Degraded transport can deliver
                                        // corrupted entries; skip anything
                                        // out of range instead of indexing
                                        // with garbage (clean runs never
                                        // hit this — every routed entry is
                                        // valid).
                                        if s >= bs
                                            || ti >= t
                                            || row as usize >= w.rows_per_table
                                            || ti / tables_per_z != z
                                        {
                                            continue;
                                        }
                                        let local_t = ti % tables_per_z;
                                        lookups += 1;
                                        let base = (s * tables_per_z + local_t) * comps;
                                        let vals = match rows.get(ti, row) {
                                            Some(vals) => vals,
                                            // In range, yet no sample
                                            // looks it up: a corrupted
                                            // entry. Pool what the table
                                            // holds there all the same.
                                            None => {
                                                for (c, v) in spare.iter_mut().enumerate() {
                                                    *v = embedding_value(ti, row, c);
                                                }
                                                &spare[..]
                                            }
                                        };
                                        kernels::add_wrap(
                                            DType::I32,
                                            &mut partial[base..base + comps],
                                            &vals[x * comps..(x + 1) * comps],
                                        );
                                    }
                                }
                                pe.write_i32s(pool_src, partial);
                                // simlint: allow(pe-choke-point, reason = "zero-fills freshly staged PE-local scratch pad, not transport; the payload above goes through the typed-view encoder")
                                pe.slice_mut(
                                    pool_src + partial_entries * 4,
                                    partial_bytes - partial_entries * 4,
                                )
                                .fill(0);
                                pe_kernel_ns(
                                    lookups * (comps as u64 * 4 + 8),
                                    6 * lookups * comps as u64,
                                )
                                // simlint: hot(end)
                            },
                        );
                        lookup_kernel = Run::launch(sys, kernels);
                    }
                    // After the ReduceScatter: stage the RS chunk as
                    // destination-rank-major chunks. The chunk layout
                    // ([sample in y-range][local table][comp] i32) already
                    // *is* rank-major — destination rank r's samples are
                    // the contiguous sub-range [r * samples_per_dest,
                    // (r+1) * samples_per_dest) — so the rearrangement is
                    // one in-PE copy plus zeroing the pad.
                    _ => {
                        par_pes(sys.pes_mut(), cfg.threads, |_, pe| {
                            // simlint: hot(begin, dlrm rank-major repack)
                            pe.copy_within_region(pool_dst, aa2_src, aa2_payload);
                            // simlint: allow(pe-choke-point, reason = "zero-fills the PE-local alignment pad after an in-PE copy, not transport")
                            pe.slice_mut(aa2_src + aa2_payload, aa2_b - aa2_payload)
                                .fill(0);
                            // simlint: hot(end)
                        });
                    }
                }
                Ok(())
            })?;
            Ok((reports, lookup_kernel))
        })?;
        run.profile.record(&reports[0]);
        run.record_kernel(lookup_kernel);
        run.profile.record(&reports[1]);
        run.profile.record(&reports[2]);

        // Assemble the full embedding vectors and count divergence from
        // the reference (read-only, so there is nothing to supervise).
        // Per-chunk payloads decode as one typed-lane run into per-worker
        // scratch, then scatter as comps-wide rows into the sample vector.
        let per_pe_mismatched = par_pes_with(
            run.sys.pes_mut(),
            cfg.threads,
            || (vec![0i32; t * d], vec![0i32; tables_per_z * comps]),
            |(vec, chunk), pid, pe| {
                // simlint: hot(begin, dlrm vector assembly)
                let (x, y, z) = coords(pid);
                let my_rank = x + tx * z; // rank within the "101" group (x fastest)
                let received = pe.read(aa2_dst, aa2_b);
                let mut mismatched = 0u64;
                for sd in 0..samples_per_dest {
                    let s = y * samples_per_y + my_rank * samples_per_dest + sd;
                    vec.fill(0);
                    for src_rank in 0..n2 {
                        let (sx, sz) = (src_rank % tx, src_rank / tx);
                        let base = src_rank * aa2_chunk + sd * tables_per_z * comps * 4;
                        kernels::decode_i32(
                            &received[base..base + tables_per_z * comps * 4],
                            chunk,
                        );
                        for lt in 0..tables_per_z {
                            let at = (sz * tables_per_z + lt) * d + sx * comps;
                            vec[at..at + comps]
                                .copy_from_slice(&chunk[lt * comps..(lt + 1) * comps]);
                        }
                    }
                    mismatched += mismatches(Some(&vec[..]), &expected[s]);
                }
                mismatched
                // simlint: hot(end)
            },
        );
        let mismatched: u64 = per_pe_mismatched.into_iter().sum();

        // Top MLP + score gather: scores restage each attempt. The
        // verdict on the embeddings above stands even if this last step
        // aborts under policy.
        let gathered = run.step(&[], |sys, at| {
            sys.run_kernel(mlp_kernel);
            par_pes(sys.pes_mut(), cfg.threads, |_, pe| {
                // simlint: hot(begin, dlrm score staging)
                // simlint: allow(pe-choke-point, reason = "stages PE-local placeholder scores before the Gather, not transport; the Gather itself moves them through Pe::write")
                pe.slice_mut(score_off, score_bytes).fill(1);
                // simlint: hot(end)
            });
            at.collective(sys, &gather_plan, None)
        });
        match gathered {
            Ok(gathered) => {
                run.record_kernel(mlp_kernel);
                run.profile.record(&gathered.report);
            }
            Err(Stop::Aborted) => {}
            Err(stop) => return Err(stop),
        }
        Ok(mismatched)
    };
    drive(arena, fault, policy, setup, body, |mismatched| {
        // CPU reference also runs the top MLP.
        let cpu = CpuModel::xeon_5215();
        let cpu_mlp_ns = cpu.time_ns(bs as u64 * 8 * 2 * width * width, bs as u64 * 8 * width * 4);
        Verdict {
            mismatched: mismatched.unwrap_or((bs * t * d) as u64),
            cpu_ns: cpu_lookup_ns + cpu_mlp_ns,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> DlrmConfig {
        DlrmConfig {
            num_tables: 8,
            rows_per_table: 1 << 10,
            embedding_dim: 16,
            batch_size: 1024,
            seed: 7,
        }
    }

    #[test]
    fn dlrm_validates_on_64_pes() {
        let cfg = DlrmRunConfig {
            threads: 0,
            workload: workload(),
            pes: 64,
            opt: OptLevel::Full,
        };
        let run = run_dlrm(&cfg).unwrap();
        assert!(run.validated);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::AlltoAll) > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::ReduceScatter) > 0.0);
    }

    #[test]
    fn dlrm_baseline_matches_and_is_slower() {
        let full = run_dlrm(&DlrmRunConfig {
            threads: 0,
            workload: workload(),
            pes: 64,
            opt: OptLevel::Full,
        })
        .unwrap();
        let base = run_dlrm(&DlrmRunConfig {
            threads: 0,
            workload: workload(),
            pes: 64,
            opt: OptLevel::Baseline,
        })
        .unwrap();
        assert!(base.validated);
        assert!(base.profile.comm_ns() > full.profile.comm_ns());
    }

    #[test]
    fn split_shapes_are_consistent() {
        for pes in [64, 128, 256, 512, 1024] {
            let [x, y, z] = split(pes, 8, 16).unwrap();
            assert_eq!(x * y * z, pes, "pes {pes}");
            assert!(x <= 16 && z <= 8);
        }
    }

    /// The builder `Routing` replaced, kept as its reference: a
    /// `[src * p + dst]` grid of p^2 entry lists filled in push order,
    /// the longest of which sizes the chunks, encoded list by list.
    fn grid_images(w: &DlrmConfig, batch: &LookupBatch, p: usize) -> (usize, Vec<Vec<u8>>) {
        let [tx, ty, tz] = split(p, w.num_tables, w.embedding_dim).unwrap();
        let shard = w.batch_size / p;
        let (tables_per_z, rows_per_y) = (w.num_tables / tz, w.rows_per_table / ty);
        let mut per_dest = vec![Vec::new(); p * p];
        for (s, tables) in batch.indices.iter().enumerate() {
            for (ti, &r0) in tables.iter().enumerate() {
                for k in 0..POOL_K {
                    let row = ((r0 as usize + k * 97) % w.rows_per_table) as u32;
                    let (dz, dy) = (ti / tables_per_z, row as usize / rows_per_y);
                    for dx in 0..tx {
                        let dst = dx + tx * (dy + ty * dz);
                        per_dest[s / shard * p + dst].push(pack(s, ti, row));
                    }
                }
            }
        }
        let max_entries = per_dest.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let chunk_entries = max_entries.next_multiple_of(2).max(2);
        let images = per_dest.chunks(p).map(|dests| {
            let mut image = vec![0xFF; p * chunk_entries * 8];
            for (dst, entries) in dests.iter().enumerate() {
                let off = dst * chunk_entries * 8;
                kernels::encode_u64(entries, &mut image[off..off + entries.len() * 8]);
            }
            image
        });
        (chunk_entries, images.collect())
    }

    #[test]
    fn routing_images_equal_the_list_grid_they_replaced() {
        for (pes, dim) in [(64, 16), (64, 32), (256, 16), (256, 32)] {
            let w = DlrmConfig {
                embedding_dim: dim,
                ..workload()
            };
            let popular = generate_batch(&w);
            // Every sample of a source shard hammers one row shard, so
            // single (source, destination) lists run long.
            let mut skewed = popular.clone();
            for (s, tables) in skewed.indices.iter_mut().enumerate() {
                tables.fill((s * pes / w.batch_size % 5) as u32);
            }
            for (name, batch) in [("popular", &popular), ("skewed", &skewed)] {
                let dims = split(pes, w.num_tables, dim).unwrap();
                let (chunk_entries, images) = grid_images(&w, batch, pes);
                for threads in [1, 2] {
                    let routing = Routing::of(&w, batch, dims, threads);
                    let what = format!("{pes} PEs d{dim} {name} x{threads}");
                    assert_eq!(routing.chunk_entries, chunk_entries, "{what}");
                    for (src, want) in images.iter().enumerate() {
                        let mut image = vec![0u8; want.len()];
                        routing.encode(src, &mut image);
                        assert!(image == *want, "{what}: source PE {src}");
                    }
                }
            }
            // The skewed batch repeats one destination per (source, table).
            let repeats = w.batch_size / pes * POOL_K;
            assert_eq!(grid_images(&w, &skewed, pes).0, repeats, "{pes} PEs");
        }
    }

    fn rejected(edit: fn(&mut DlrmConfig)) -> String {
        let mut w = workload();
        edit(&mut w);
        let cfg = DlrmRunConfig {
            threads: 0,
            workload: w,
            pes: 64,
            opt: OptLevel::Full,
        };
        let err = run_dlrm(&cfg).unwrap_err();
        assert!(matches!(err, pidcomm::Error::InvalidBuffer(_)), "{err}");
        err.to_string()
    }

    #[test]
    fn more_rows_than_an_index_entry_can_name_are_rejected() {
        // Divisible by the row division (4), so only the bound refuses it.
        assert!(rejected(|w| w.rows_per_table = (1 << 24) + 4).contains("at most 2^24"));
    }

    #[test]
    fn more_tables_than_an_index_entry_can_name_are_rejected() {
        // Divisible by the table division (8), so only the bound refuses it.
        assert!(rejected(|w| w.num_tables = 256 + 8).contains("at most 256"));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let v = pack(12345, 7, 0x00AB_CDEF);
        assert_eq!(unpack(v), (12345, 7, 0x00AB_CDEF));
    }
}
