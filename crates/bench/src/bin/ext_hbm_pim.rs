//! Extension (§IX-A): adapting PID-Comm to an HBM-PIM-style device.
//!
//! HBM-PIM attaches a PE per *two* banks behind a single chip, so there is
//! no 8-way byte interleaving and cross-domain modulation does not apply
//! ("PID-Comm can be applied without cross-domain modulation"). We model
//! the adaptation by running the collective stack with CM disabled
//! (OptLevel::InRegister) on an HBM-like geometry with a faster,
//! pseudo-channel-rich bus.

use pidcomm::{OptLevel, Primitive};
use pidcomm_bench::{header, run_primitive, PrimSetup};
use pim_sim::{DType, DimmGeometry, TimeModel};

fn main() {
    header(
        "Extension (§IX-A)",
        "PID-Comm on an HBM-PIM-style stack (no cross-domain modulation, wider bus)",
        "paper: 'PID-Comm can be applied without cross-domain modulation'",
    );

    // HBM2 stack: 8 pseudo-channels modeled as channels, higher per-channel
    // bandwidth; 512 PEs.
    let mut hbm = TimeModel::upmem();
    hbm.channel_bw = 32.0;

    let setup = PrimSetup {
        geom: DimmGeometry::new(8, 1, 8), // 8 pseudo-channels x 64 PEs
        dims: vec![32, 16],
        mask: "10".into(),
        bytes_per_node: 32 * 1024,
        dtype: DType::U64,
        model: hbm.clone(),
    };

    println!(
        "{:<4} {:>14} {:>16} {:>16}",
        "prim", "UPMEM full", "UPMEM no-CM", "HBM-PIM no-CM*"
    );
    for prim in [
        Primitive::AlltoAll,
        Primitive::ReduceScatter,
        Primitive::AllReduce,
        Primitive::AllGather,
    ] {
        let upmem_full = run_primitive(&PrimSetup::default_2d(32 * 1024), prim, OptLevel::Full);
        let upmem_nocm = run_primitive(
            &PrimSetup::default_2d(32 * 1024),
            prim,
            OptLevel::InRegister,
        );
        // Same engine, HBM geometry + bandwidth, CM off.
        let hbm_run = run_primitive(&setup, prim, OptLevel::InRegister);
        println!(
            "{:<4} {:>12.2} GB/s {:>13.2} GB/s {:>13.2} GB/s",
            prim.abbrev(),
            upmem_full.throughput_gbps(),
            upmem_nocm.throughput_gbps(),
            hbm_run.throughput_gbps(),
        );
    }
    println!("* reducing primitives lose nothing (CM never applied to them);");
    println!("  AlltoAll/AllGather pay the DT they can no longer fuse away.");
}
