//! Pins are tests: the four deterministic sweeps whose bit patterns are
//! committed at the repo root and checked by `cargo test -p pidcomm-bench
//! --test pins` — the small app sweep (`BENCH_apps_small.json`), the
//! design-space grids (`BENCH_design.json`), the plan autotuner
//! (`BENCH_autotune.json`) and the typed-lane kernel outputs
//! (`BENCH_kernels.json`).
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

use pidcomm::{
    BufferSpec, CollectivePlan, Communicator, HypercubeManager, HypercubeShape, OptLevel,
    Primitive, Topology, TuneRequest,
};
use pim_sim::fault::fnv1a;
use pim_sim::testgen::SplitMix64;
use pim_sim::{DType, DimmGeometry, ReduceKind, TimeModel};

use crate::apps;
use crate::sweep::SweepBudget;

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
    let runs = apps::run_app_sweep(&cases, &cells, SweepBudget::serial());
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

/// Payload of a fig20-style cell: 32 elements of 8 B per member along x.
fn fig20_bytes(x: usize) -> usize {
    (8 * x * 32).max(4096)
}

/// `8x64x2` for `[8, 64, 2]`.
fn shape_label(dims: &[usize]) -> String {
    let dims: Vec<String> = dims.iter().map(usize::to_string).collect();
    dims.join("x")
}

/// A Full-level plan of `prim` on the serial engine.
fn plan(
    geom: DimmGeometry,
    dims: &[usize],
    mask: &str,
    spec: BufferSpec,
    prim: Primitive,
) -> CollectivePlan {
    let manager = HypercubeManager::new(HypercubeShape::new(dims.to_vec()).unwrap(), geom).unwrap();
    Communicator::new(manager)
        .with_opt(OptLevel::Full)
        .with_threads(1)
        .plan(prim, &mask.parse().unwrap(), &spec, ReduceKind::Sum)
        .unwrap()
}

/// Fig. 23a's three AllReduce topologies on fig23's 32×32 cell, then the
/// extended fig19 / fig20 / fig22 grids, scored by cost-only plan
/// execution (bit-identical to the functional engine:
/// `crates/core/tests/cost_only.rs`): PE-count scaling of a 1-D and a 2-D
/// AllReduce, every ordered 3-D power-of-two shape over 1024 PEs (the
/// paper's figure plots ten of the 36), and the word width of the
/// reducing primitives. Every cell communicates along x.
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
    let mut cell = |sweep: &str, label: &str, dims: &[usize], bytes: usize, dtype, prim| {
        let pes = dims.iter().product();
        let mask = format!("1{}", "0".repeat(dims.len() - 1));
        // Destination window clear of every primitive's source extent
        // (AR/RS/Reduce read [0, bytes)).
        let dst = 2 * bytes.next_multiple_of(64) + 64;
        let spec = BufferSpec::new(0, dst, bytes).with_dtype(dtype);
        let plan = plan(DimmGeometry::with_pes(pes), dims, &mask, spec, prim);
        let ns = plan.cost_only_report(&model).time_ns();
        let key = format!("{sweep}/{label}/{:?}/{pes}", plan.opt());
        pins.push(Pin::new(key, ns.to_bits()));
    };
    for pes in [64usize, 128, 256, 512, 1024] {
        cell("fig19x-1D", "AR", &[pes], 64 << 10, U64, AllReduce);
        let x = 1usize << (pes.trailing_zeros() / 2);
        cell("fig19x-2D", "AR", &[x, pes / x], 8 << 10, U64, AllReduce);
    }
    for ax in 1u32..=8 {
        for ay in 1u32..=(9 - ax) {
            let dims = [1usize << ax, 1 << ay, 1 << (10 - ax - ay)];
            let bytes = fig20_bytes(dims[0]);
            cell("fig20x", &shape_label(&dims), &dims, bytes, U64, AllReduce);
        }
    }
    for prim in [ReduceScatter, AllReduce, Reduce] {
        for dtype in [U8, U16, U32, U64] {
            let label = format!("{}/{dtype}", prim.abbrev());
            cell("fig22x", &label, &[32, 32], 8 << 10, dtype, prim);
        }
    }
    pins
}

/// The analytic plan autotuner against the five applications' dominant
/// collectives at their 1024-PE default shapes (see `crates/apps`) and
/// three fig20 defaults; pins the tuned winner's modeled time.
///
/// # Panics
///
/// Panics if a tuned plan models slower than the default shape it was
/// offered as an alternative to.
pub fn autotune() -> Vec<Pin> {
    use DType::{I32, U32, U64, U8};
    use Primitive::{AllReduce, AlltoAll, ReduceScatter};

    let geom = DimmGeometry::upmem_1024();
    let model = TimeModel::upmem();
    let mut pins = Vec::new();
    let mut tune = |app: &str, dataset: &str, prim, bytes: usize, dtype, dims: &[usize], mask| {
        let dst = bytes.next_multiple_of(64).max(64 << 10);
        let spec = BufferSpec::new(0, dst, bytes).with_dtype(dtype);
        let default = plan(geom, dims, mask, spec, prim).cost_only_report(&model);
        let (_, report) = pidcomm::autotune(&TuneRequest::new(prim, spec, geom), &model).unwrap();
        let (best, default_ns) = (report.best(), default.time_ns());
        assert!(
            best.modeled_ns <= default_ns,
            "{app}/{dataset}: tuned plan ({} ns) lost to the default shape ({default_ns} ns)",
            best.modeled_ns
        );
        let key = format!("{app}/{dataset}/{:?}/1024", best.opt);
        pins.push(Pin::new(key, best.modeled_ns.to_bits()));
    };
    for (app, prim, bytes, dtype, dims, mask) in [
        ("MLP", ReduceScatter, 16 << 10, I32, &[1024][..], "1"),
        ("DLRM", AlltoAll, 4096, I32, &[8, 16, 8], "010"),
        ("GNN RS&AR", ReduceScatter, 8192, I32, &[32, 32], "10"),
        ("BFS", AllReduce, 8192, U8, &[1024], "1"),
        ("CC", AllReduce, 8192, U32, &[1024], "1"),
    ] {
        tune(app, &format!("{prim:?}"), prim, bytes, dtype, dims, mask);
    }
    for dims in [[8, 64, 2], [128, 4, 2], [64, 4, 4]] {
        let bytes = fig20_bytes(dims[0]);
        tune(
            "fig20",
            &shape_label(&dims),
            AllReduce,
            bytes,
            U64,
            &dims,
            "100",
        );
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
