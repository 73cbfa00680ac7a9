//! Fig. 19: primitive throughput vs number of PEs (64 - 1024).

use pidcomm::{OptLevel, Primitive};
use pidcomm_bench::{header, run_primitive, PrimSetup};
use pim_sim::{DType, DimmGeometry};

fn main() {
    header(
        "Fig. 19",
        "PE-count sweep, 1-D and 2-D",
        "PID-Comm scales 2.36-4.20x from 64 to 1024 PEs (channel scaling); baseline is host-bound and flat",
    );
    let counts = [64usize, 128, 256, 512, 1024];
    for (label, dims_of) in [
        ("1D", (|p: usize| vec![p]) as fn(usize) -> Vec<usize>),
        ("2D", |p: usize| {
            let x = 1 << (p.trailing_zeros() / 2);
            vec![x, p / x]
        }),
    ] {
        for prim in [
            Primitive::AlltoAll,
            Primitive::ReduceScatter,
            Primitive::AllReduce,
            Primitive::AllGather,
        ] {
            print!("{label} {:<4}", prim.abbrev());
            for &p in &counts {
                let dims = dims_of(p);
                let mask = if dims.len() == 1 {
                    "1".to_string()
                } else {
                    "10".to_string()
                };
                // Fixed per-node payload across the sweep so fixed
                // overheads amortize identically (64 KiB for 1-D groups,
                // 8 KiB for 2-D groups; both satisfy the 8 x N alignment
                // at every PE count).
                let bytes_per_node = if dims.len() == 1 { 64 * 1024 } else { 8 * 1024 };
                let setup = PrimSetup {
                    geom: DimmGeometry::with_pes(p),
                    bytes_per_node,
                    dims,
                    mask,
                    dtype: DType::U64,
                    model: pim_sim::TimeModel::upmem(),
                };
                let base = run_primitive(&setup, prim, OptLevel::Baseline).throughput_gbps();
                let ours = run_primitive(&setup, prim, OptLevel::Full).throughput_gbps();
                print!("  {p:>4}:{base:>5.1}/{ours:<5.1}");
            }
            println!();
        }
    }
    println!("(cells are base/ours GB/s per PE count)");
}
