//! Pins are tests: the three deterministic sweeps whose bit patterns are
//! committed at the repo root and checked by `cargo test -p pidcomm-bench
//! --test pins` — the small app sweep (`BENCH_apps_small.json`), the
//! design-space grids (`BENCH_design.json`) and the typed-lane kernel
//! outputs (`BENCH_kernels.json`).
//!
//! A [`Pin`] is a cell key and 64 bits: `f64::to_bits` of a modeled time
//! in nanoseconds, or an FNV-1a checksum of a kernel's output. Each sweep
//! is a plain `fn() -> Vec<Pin>` that runs every cell once; [`check`]
//! compares the cells with a committed file and says which keys moved.
//! Nothing here reads a clock: host time is measured in one place, the
//! `benchmark/` package (its `sim.kernels.*` and `core.engine.*` probes).
//! The fig14 primitive sweep, the full-size fig15 app sweep and the chaos
//! soak are pinned there too (`benchmark/expected.json`).
//!
//! A pin file holds one cell per line, so reading it is a line split:
//!
//! ```text
//!     { "cell": "MLP/sm/Full/64", "bits": "413268489b9f673f" },
//! ```

use std::path::Path;

use pidcomm::{BufferSpec, HypercubeManager, HypercubeShape, OptLevel, Primitive, Topology};
use pim_sim::fault::fnv1a;
use pim_sim::testgen::SplitMix64;
use pim_sim::{DType, DimmGeometry, ReduceKind, TimeModel};

use crate::{apps, multihost_cell, run_primitive, PrimSetup};

/// One pinned cell: its identity and the bit pattern it must keep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    /// Cell identity, unique within its sweep (`app/dataset/opt/pes` or
    /// `kernel/case`); free of `"` so a file line splits on it.
    pub key: String,
    /// `f64::to_bits` of a modeled time in ns, or an output checksum.
    pub bits: u64,
}

impl Pin {
    fn new(key: String, bits: u64) -> Self {
        assert!(
            !key.contains('"'),
            "pin key {key:?} would not survive the file"
        );
        Self { key, bits }
    }
}

/// Writes `cells` as a pin file: JSON, one cell per line.
///
/// # Errors
///
/// A message naming the file if it cannot be written.
pub fn write(path: &Path, cells: &[Pin]) -> Result<(), String> {
    let rows: Vec<String> = cells
        .iter()
        .map(|p| {
            format!(
                "    {{ \"cell\": \"{}\", \"bits\": \"{:016x}\" }}",
                p.key, p.bits
            )
        })
        .collect();
    let text = format!(
        "{{\n  \"checked_by\": \"cargo test -p pidcomm-bench --test pins\",\n  \"cells\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads the cells of a pin file, in file order.
///
/// # Errors
///
/// A message naming the file if it cannot be read, holds a cell line that
/// is not `{ "cell": "<key>", "bits": "<16 hex digits>" }`, or holds no
/// cell at all — an unreadable pin file must never pass as "nothing to
/// compare".
pub fn read(path: &Path) -> Result<Vec<Pin>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut cells = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let Some(cell) = line.trim().strip_prefix("{ \"cell\": \"") else {
            continue;
        };
        let parts: Vec<&str> = cell.trim_end_matches(',').split('"').collect();
        let pin = match parts[..] {
            // (`from_str_radix` alone would take a sign.)
            [key, ", ", "bits", ": ", hex, " }"] if hex.len() == 16 && !hex.starts_with('+') => {
                let bits = u64::from_str_radix(hex, 16).ok();
                bits.map(|bits| Pin::new(key.into(), bits))
            }
            _ => None,
        };
        let bad = || format!("{}:{}: not a pin: {}", path.display(), n + 1, line.trim());
        cells.push(pin.ok_or_else(bad)?);
    }
    if cells.is_empty() {
        return Err(format!("{} holds no cells", path.display()));
    }
    Ok(cells)
}

/// Every way `got` departs from `expected`, one line per cell key.
fn diff(expected: &[Pin], got: &[Pin]) -> Vec<String> {
    fn find(set: &[Pin], key: &str) -> Option<u64> {
        set.iter().find(|p| p.key == key).map(|p| p.bits)
    }
    let mut moved = Vec::new();
    for e in expected {
        match find(got, &e.key) {
            Some(bits) if bits == e.bits => {}
            Some(bits) => moved.push(format!(
                "{}: expected {:016x}, got {bits:016x}",
                e.key, e.bits
            )),
            None => moved.push(format!(
                "{}: missing (expected {:016x}, the sweep no longer emits it)",
                e.key, e.bits
            )),
        }
    }
    for g in got {
        if find(expected, &g.key).is_none() {
            moved.push(format!(
                "{}: extra (got {:016x}, not in the file)",
                g.key, g.bits
            ));
        }
    }
    if moved.is_empty() && expected != got {
        // Same cells, other sequence (or a key listed twice).
        let at = expected.iter().zip(got).position(|(e, g)| e != g);
        moved.push(match at {
            Some(i) => format!(
                "{}: out of order (cell {i} of the file; the sweep emits {} there)",
                expected[i].key, got[i].key
            ),
            None => format!(
                "{} cells in the file, {} emitted",
                expected.len(),
                got.len()
            ),
        });
    }
    moved
}

/// Checks the `cells` a sweep computed against the pin file `committed`,
/// after writing them to `computed` in the same format — so whatever the
/// verdict, the numbers behind it are on disk and re-blessing is a `cp`.
///
/// # Errors
///
/// A report listing every drifting, missing, extra or reordered cell by
/// key with the expected and computed bits; or why there was nothing to
/// compare (no cells computed, `committed` unreadable — see [`read`]).
pub fn check(committed: &Path, computed: &Path, cells: &[Pin]) -> Result<(), String> {
    if cells.is_empty() {
        return Err(format!("no cells computed for {}", committed.display()));
    }
    write(computed, cells)?;
    let moved = diff(&read(committed)?, cells);
    if moved.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{} of {} cells moved against {}:\n  {}\ncomputed cells: {} (to re-bless, cp it over the pin file)",
        moved.len(),
        cells.len(),
        committed.display(),
        moved.join("\n  "),
        computed.display()
    ))
}

/// The five [`apps::small_cases`] at Baseline and Full on 64 PEs, on the
/// serial reference schedule; pins each run's total modeled time.
///
/// # Panics
///
/// Panics if a run's output differs from its CPU reference.
pub fn apps_small() -> Vec<Pin> {
    let cases = apps::small_cases();
    let cells = apps::base_vs_full_cells(cases.len(), 64);
    let runs = apps::run_app_sweep(&cases, &cells, 1);
    let pin = |(cell, run): (&apps::AppCell, &pidcomm_apps::AppRun)| {
        let case = &cases[cell.case];
        let key = format!("{}/{}/{:?}/{}", case.app, case.dataset, cell.opt, cell.pes);
        assert!(
            run.validated,
            "{key}: output differs from the CPU reference"
        );
        Pin::new(key, run.profile.total_ns().to_bits())
    };
    cells.iter().zip(&runs).map(pin).collect()
}

/// Fig. 23a's three AllReduce topologies on fig23's 32×32 cell, then the
/// extended fig19 / fig20 / fig22 grids, then fig23b's multi-host cells,
/// scored by cost-only plan execution (bit-identical to the functional
/// engine: `crates/core/tests/cost_only.rs`) — the grids through the
/// figures' own cell core, [`run_primitive`] at Full: PE-count scaling of
/// a 1-D and a 2-D AllReduce, every ordered 3-D power-of-two shape over
/// 1024 PEs (the paper's figure plots ten of the 36), and the word width
/// of the reducing primitives; fig23b through [`multihost_cell`], the
/// local and the link time of AllReduce and AlltoAll at 1, 2 and 4 hosts.
/// Every cell communicates along x.
pub fn design() -> Vec<Pin> {
    use DType::{U16, U32, U64, U8};
    use Primitive::{AllReduce, Reduce, ReduceScatter};

    let model = TimeModel::upmem();
    let mut pins = Vec::new();
    let geom = DimmGeometry::upmem_1024();
    let manager = HypercubeManager::new(HypercubeShape::new(vec![32, 32]).unwrap(), geom).unwrap();
    let b = 16 << 10;
    let (spec, mask) = (BufferSpec::new(0, 2 * b + 64, b), "10".parse().unwrap());
    for topo in [Topology::Hypercube, Topology::Ring, Topology::Tree] {
        let plan = topo.plan(&manager, &mask, &spec, ReduceKind::Sum).unwrap();
        let report = plan.cost_only_report(&model);
        let key = format!("fig23a/{topo}/{:?}/1024", report.opt);
        pins.push(Pin::new(key, report.time_ns().to_bits()));
    }
    let mut cell = |sweep: &str, label: &str, dims: &[usize], bytes_per_node, dtype, prim| {
        let pes = dims.iter().product();
        let setup = PrimSetup {
            geom: DimmGeometry::with_pes(pes),
            dims: dims.to_vec(),
            mask: format!("1{}", "0".repeat(dims.len() - 1)),
            bytes_per_node,
            dtype,
        };
        let report = run_primitive(&setup, prim, OptLevel::Full);
        let key = format!("{sweep}/{label}/{:?}/{pes}", report.opt);
        pins.push(Pin::new(key, report.time_ns().to_bits()));
    };
    for pes in [64usize, 128, 256, 512, 1024] {
        cell("fig19x-1D", "AR", &[pes], 64 << 10, U64, AllReduce);
        let x = 1usize << (pes.trailing_zeros() / 2);
        cell("fig19x-2D", "AR", &[x, pes / x], 8 << 10, U64, AllReduce);
    }
    for ax in 1u32..=8 {
        for ay in 1u32..=(9 - ax) {
            let dims = [1usize << ax, 1 << ay, 1 << (10 - ax - ay)];
            // 32 elements of 8 B per member along x.
            let bytes = (8 * dims[0] * 32).max(4096);
            let label = format!("{}x{}x{}", dims[0], dims[1], dims[2]);
            cell("fig20x", &label, &dims, bytes, U64, AllReduce);
        }
    }
    for prim in [ReduceScatter, AllReduce, Reduce] {
        for dtype in [U8, U16, U32, U64] {
            let label = format!("{}/{dtype}", prim.abbrev());
            cell("fig22x", &label, &[32, 32], 8 << 10, dtype, prim);
        }
    }
    for hosts in [1, 2, 4] {
        let (ar, aa) = multihost_cell(hosts);
        for (prim, report) in [("AR", ar), ("AA", aa)] {
            let key = |part| format!("fig23b/{prim}/{hosts}/{part}");
            pins.push(Pin::new(key("local"), report.local.total().to_bits()));
            pins.push(Pin::new(key("mpi"), report.mpi_ns.to_bits()));
        }
    }
    pins
}

/// Every `pim_sim::kernels` entry point on seeded inputs of ragged length
/// (block bulk *and* scalar tail run); pins an FNV-1a checksum of each
/// output. Outputs that are not bytes are serialized with `to_le_bytes`,
/// never by a kernel under test; kernel ≡ definition itself is
/// `crates/sim/tests/kernels.rs`.
pub fn kernels() -> Vec<Pin> {
    use pim_sim::kernels::{self as k, reference as oracle};

    fn le32(v: &[i32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }
    fn le_u32(v: &[u32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    // Inputs are drawn from one seeded stream, in this order.
    let mut g = SplitMix64::new(0x004e_51e7);
    let mut pins = Vec::new();
    let mut pin = |kernel: &str, case: &str, out: &[u8]| {
        pins.push(Pin::new(format!("{kernel}/{case}"), fnv1a(out)));
    };

    // Codecs.
    const N: usize = 16 * 1024 + 7;
    let n = N.to_string();
    let bytes = g.bytes(N * 8);
    let mut i32s = vec![0i32; N];
    k::decode_i32(&bytes[..N * 4], &mut i32s);
    pin("decode_i32", &n, &le32(&i32s));
    let mut enc = vec![0u8; N * 4];
    k::encode_i32(&i32s, &mut enc);
    pin("encode_i32", &n, &enc);

    let mut u32s = vec![0u32; N];
    k::decode_u32(&bytes[..N * 4], &mut u32s);
    pin("decode_u32", &n, &le_u32(&u32s));
    k::encode_u32(&u32s, &mut enc);
    pin("encode_u32", &n, &enc);

    let mut u64s = vec![0u64; N];
    k::decode_u64(&bytes, &mut u64s);
    let mut enc: Vec<u8> = u64s.iter().flat_map(|x| x.to_le_bytes()).collect();
    pin("decode_u64", &n, &enc);
    k::encode_u64(&u64s, &mut enc);
    pin("encode_u64", &n, &enc);

    for dt in [DType::I8, DType::I16] {
        let w = dt.size_bytes();
        k::decode_sext(dt, &bytes[..N * w], &mut i32s);
        pin("decode_sext", &format!("{dt}x{N}"), &le32(&i32s));
        let mut enc = vec![0u8; N * w];
        k::encode_trunc(dt, &i32s, &mut enc);
        pin("encode_trunc", &format!("{dt}x{N}"), &enc);
    }

    // Accumulates at the MLP partial-vector shape (+ ragged tail).
    let na: i32 = 4096 + 5;
    let acc0: Vec<i32> = (0..na).map(|i| i.wrapping_mul(31) - 7).collect();
    let xs: Vec<i32> = (0..na).map(|i| (i % 97) - 48).collect();
    let mut on_acc = |kernel: &str, case: &str, f: &dyn Fn(&mut [i32])| {
        let mut acc = acc0.clone();
        f(&mut acc);
        pin(kernel, case, &le32(&acc));
    };
    on_acc("axpy_i32", &na.to_string(), &|acc| k::axpy_i32(acc, 3, &xs));
    let xbytes = le32(&xs);
    on_acc("axpy_i32_bytes", &na.to_string(), &|acc| {
        k::axpy_i32_bytes(acc, 3, &xbytes)
    });
    for dt in [DType::I8, DType::I32] {
        let case = format!("{dt}x{na}");
        on_acc("axpy_wrap", &case, &|acc| k::axpy_wrap(dt, acc, -5, &xs));
        on_acc("add_wrap", &case, &|acc| k::add_wrap(dt, acc, &xs));
    }
    on_acc("relu_i32", &na.to_string(), &|acc| k::relu_i32(acc));
    on_acc("max_i32", &na.to_string(), &|acc| k::max_i32(acc, &xs));

    // Bitmaps (BFS frontier shape, ragged byte length).
    let nb = 4096 + 3;
    let olds = g.bytes(nb);
    let mut news = g.bytes(nb);
    oracle::bitmap_or_scalar_ref(&mut news, &olds);
    let mut merged = olds.clone();
    k::bitmap_or(&mut merged, &news);
    pin("bitmap_or", &nb.to_string(), &merged);
    let mut fresh = Vec::new();
    k::for_each_new_bit(&news, &olds, |v| fresh.push(v as u32));
    pin("for_each_new_bit", &nb.to_string(), &le_u32(&fresh));

    // Row scatter at the GNN transpose shape (32 blocks of 64 rows x 8 B).
    let src = g.bytes(32 * 64 * 8);
    let mut dst = vec![0u8; 32 * 64 * 8];
    for blk in 0..32usize {
        k::copy_rows(&mut dst, blk * 8, 256, &src, blk * 64 * 8, 8, 8, 64);
    }
    pin("copy_rows", "gnn_transpose", &dst);

    // Panel product at the GNN AR&AG combine shape (64 rows x 64, against
    // a 2-column panel of W^T) plus a ragged one, at the narrow widths.
    let a: Vec<i32> = (0..64 * 64).map(|i| (i * 7919 % 255) - 127).collect();
    let bt: Vec<i32> = (0..3 * 64).map(|i| (i % 7) - 3).collect();
    let mut out = Vec::new();
    for (dt, rows, cols, depth) in [(DType::I8, 64, 2, 64), (DType::I16, 37, 3, 41)] {
        let mut product = vec![0i32; rows * cols];
        k::panel_product_wrap(
            dt,
            &mut product,
            &a[..rows * depth],
            &bt[..cols * depth],
            depth,
        );
        out.extend(le32(&product));
    }
    pin("panel_product_wrap", "gnn_combine", &out);
    pins
}
