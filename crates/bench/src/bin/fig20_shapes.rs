//! Fig. 20: PID-Comm throughput across 3-D hypercube shapes.

use pidcomm::{OptLevel, Primitive};
use pidcomm_bench::{header, run_primitive, PrimSetup};
use pim_sim::{DType, DimmGeometry};

fn main() {
    header(
        "Fig. 20",
        "3-D hypercube shape sweep, communication along x",
        "AA/AR roughly shape-insensitive (<=20.6 / 12.2 GB/s); RS/AG grow with x (<=17.8 / 36.1 GB/s)",
    );
    let shapes: [[usize; 3]; 10] = [
        [8, 64, 2],
        [16, 32, 2],
        [32, 16, 2],
        [64, 8, 2],
        [128, 4, 2],
        [8, 32, 4],
        [16, 16, 4],
        [32, 8, 4],
        [64, 4, 4],
        [128, 2, 4],
    ];
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>8}",
        "shape", "AA", "RS", "AR", "AG"
    );
    for dims in shapes {
        let n: usize = dims[0];
        let setup = PrimSetup {
            geom: DimmGeometry::upmem_1024(),
            dims: dims.to_vec(),
            mask: "100".into(),
            bytes_per_node: (8 * n * 32).max(4096),
            dtype: DType::U64,
            model: pim_sim::TimeModel::upmem(),
        };
        let vals: Vec<f64> = [
            Primitive::AlltoAll,
            Primitive::ReduceScatter,
            Primitive::AllReduce,
            Primitive::AllGather,
        ]
        .iter()
        .map(|&p| run_primitive(&setup, p, OptLevel::Full).throughput_gbps())
        .collect();
        println!(
            "[{:>3},{:>3},{:>2}] {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            dims[0], dims[1], dims[2], vals[0], vals[1], vals[2], vals[3]
        );
    }
}
