//! Micro-benchmarks of the library itself: the domain-transfer kernels that
//! every burst passes through, plan construction, and the end-to-end
//! simulated collectives (wall-clock of the functional engine, useful for
//! tracking simulator performance regressions).
//!
//! Plain `harness = false` timing loops (the container has no criterion):
//! run with `cargo bench -p pidcomm-bench`.

use std::hint::black_box;
use std::time::Instant;

use pidcomm::hypercube::{build_clusters, HypercubeManager};
use pidcomm::{BufferSpec, Communicator, DimMask, HypercubeShape, OptLevel, Primitive};
use pidcomm_bench::{run_primitive, PrimSetup};
use pim_sim::domain::{permute_lanes_raw, rotation_within, transpose8x8};
use pim_sim::dtype::{reduce_bytes, DType, ReduceKind};
use pim_sim::kernels::{self, reference as oracle};
use pim_sim::DimmGeometry;

/// Times `f` over enough iterations to fill ~50 ms and prints ns/iter.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm up and estimate.
    let t0 = Instant::now();
    let mut warm = 0u64;
    while t0.elapsed().as_millis() < 5 {
        f();
        warm += 1;
    }
    let iters = (warm * 10).max(10);
    let t1 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = t1.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<44} {ns:>14.1} ns/iter ({iters} iters)");
}

fn bench_domain_ops() {
    let mut block = [0x5Au8; 64];
    bench("domain/transpose8x8", || {
        transpose8x8(black_box(&mut block))
    });

    let perm = rotation_within(&[0, 1, 2, 3, 4, 5, 6, 7], 3);
    bench("domain/permute_lanes_raw", || {
        permute_lanes_raw(black_box(&mut block), &perm)
    });

    let mut acc = [1u8; 64];
    let src = [2u8; 64];
    bench("domain/reduce_u32_sum", || {
        reduce_bytes(
            ReduceKind::Sum,
            DType::U32,
            black_box(&mut acc),
            black_box(&src),
        )
    });
}

/// The seed's scalar per-element reduction loop, kept as the baseline the
/// chunked-lane `reduce_bytes` is measured against.
fn reduce_scalar_reference(op: ReduceKind, dtype: DType, acc: &mut [u8], src: &[u8]) {
    macro_rules! scalar {
        ($ty:ty) => {{
            const W: usize = core::mem::size_of::<$ty>();
            for (a, s) in acc.chunks_exact_mut(W).zip(src.chunks_exact(W)) {
                let av = <$ty>::from_le_bytes(a.try_into().unwrap());
                let sv = <$ty>::from_le_bytes(s.try_into().unwrap());
                let r = match op {
                    ReduceKind::Sum => av.wrapping_add(sv),
                    ReduceKind::Min => av.min(sv),
                    ReduceKind::Max => av.max(sv),
                    ReduceKind::Or => av | sv,
                    ReduceKind::And => av & sv,
                    ReduceKind::Xor => av ^ sv,
                };
                a.copy_from_slice(&r.to_le_bytes());
            }
        }};
    }
    match dtype {
        DType::U8 => scalar!(u8),
        DType::I8 => scalar!(i8),
        DType::U16 => scalar!(u16),
        DType::I16 => scalar!(i16),
        DType::U32 => scalar!(u32),
        DType::I32 => scalar!(i32),
        DType::U64 => scalar!(u64),
        DType::I64 => scalar!(i64),
    }
}

fn bench_reduce_kernels() {
    // Row-sized buffers (one 64 KiB chunk): the vectorized chunked-lane
    // loop vs the seed's scalar per-element loop.
    let mut acc = vec![1u8; 64 * 1024];
    let src = vec![2u8; 64 * 1024];
    for (name, op, dt) in [
        ("sum_u32", ReduceKind::Sum, DType::U32),
        ("sum_u8", ReduceKind::Sum, DType::U8),
        ("min_i16", ReduceKind::Min, DType::I16),
        ("xor_u64", ReduceKind::Xor, DType::U64),
    ] {
        bench(&format!("reduce64k/{name}"), || {
            reduce_bytes(op, dt, black_box(&mut acc), black_box(&src))
        });
        bench(&format!("reduce64k/{name}_scalar_ref"), || {
            reduce_scalar_reference(op, dt, black_box(&mut acc), black_box(&src))
        });
    }
}

/// The `pim_sim::kernels` typed-lane library vs its scalar oracles —
/// every entry point's before/after pair, at the shapes the apps run
/// (the MLP f=4096 partial vector, GNN f=64 feature rows, BFS/CC bitmap
/// and label arrays, DLRM index chunks).
fn bench_lane_kernels() {
    // Codecs at one 64 KiB row.
    let bytes = vec![0x5Au8; 64 * 1024];
    let mut i32s = vec![0i32; 16 * 1024];
    bench("kernels/decode_i32_64k", || {
        kernels::decode_i32(black_box(&bytes), black_box(&mut i32s))
    });
    bench("kernels/decode_i32_64k_scalar_ref", || {
        oracle::decode_i32_scalar_ref(black_box(&bytes), black_box(&mut i32s))
    });
    let mut out = vec![0u8; 64 * 1024];
    bench("kernels/encode_i32_64k", || {
        kernels::encode_i32(black_box(&i32s), black_box(&mut out))
    });
    bench("kernels/encode_i32_64k_scalar_ref", || {
        oracle::encode_i32_scalar_ref(black_box(&i32s), black_box(&mut out))
    });
    let mut u32s = vec![0u32; 16 * 1024];
    bench("kernels/decode_u32_64k", || {
        kernels::decode_u32(black_box(&bytes), black_box(&mut u32s))
    });
    bench("kernels/decode_u32_64k_scalar_ref", || {
        oracle::decode_u32_scalar_ref(black_box(&bytes), black_box(&mut u32s))
    });
    bench("kernels/encode_u32_64k", || {
        kernels::encode_u32(black_box(&u32s), black_box(&mut out))
    });
    bench("kernels/encode_u32_64k_scalar_ref", || {
        oracle::encode_u32_scalar_ref(black_box(&u32s), black_box(&mut out))
    });
    let mut u64s = vec![0u64; 8 * 1024];
    bench("kernels/decode_u64_64k", || {
        kernels::decode_u64(black_box(&bytes), black_box(&mut u64s))
    });
    bench("kernels/decode_u64_64k_scalar_ref", || {
        oracle::decode_u64_scalar_ref(black_box(&bytes), black_box(&mut u64s))
    });
    bench("kernels/encode_u64_64k", || {
        kernels::encode_u64(black_box(&u64s), black_box(&mut out))
    });
    bench("kernels/encode_u64_64k_scalar_ref", || {
        oracle::encode_u64_scalar_ref(black_box(&u64s), black_box(&mut out))
    });

    // Narrow sign-extending views (the GNN int8 path, 16 KiB elements).
    let narrow = vec![0xA5u8; 16 * 1024];
    bench("kernels/decode_sext_i8_16k", || {
        kernels::decode_sext(DType::I8, black_box(&narrow), black_box(&mut i32s))
    });
    bench("kernels/decode_sext_i8_16k_scalar_ref", || {
        oracle::decode_sext_scalar_ref(DType::I8, black_box(&narrow), black_box(&mut i32s))
    });
    let mut nout = vec![0u8; 16 * 1024];
    bench("kernels/encode_trunc_i8_16k", || {
        kernels::encode_trunc(DType::I8, black_box(&i32s), black_box(&mut nout))
    });
    bench("kernels/encode_trunc_i8_16k_scalar_ref", || {
        oracle::encode_trunc_scalar_ref(DType::I8, black_box(&i32s), black_box(&mut nout))
    });

    // Accumulates at the MLP partial-vector length (f = 4096).
    let mut acc = vec![1i32; 4096];
    let xs: Vec<i32> = (0..4096i32).map(|i| i - 2048).collect();
    let xbytes = {
        let mut b = vec![0u8; 4096 * 4];
        kernels::encode_i32(&xs, &mut b);
        b
    };
    bench("kernels/axpy_i32_4096", || {
        kernels::axpy_i32(black_box(&mut acc), black_box(3), black_box(&xs))
    });
    bench("kernels/axpy_i32_4096_scalar_ref", || {
        oracle::axpy_i32_scalar_ref(black_box(&mut acc), black_box(3), black_box(&xs))
    });
    bench("kernels/axpy_i32_bytes_4096", || {
        kernels::axpy_i32_bytes(black_box(&mut acc), black_box(3), black_box(&xbytes))
    });
    bench("kernels/axpy_i32_bytes_4096_scalar_ref", || {
        oracle::axpy_i32_bytes_scalar_ref(black_box(&mut acc), black_box(3), black_box(&xbytes))
    });
    for dt in [DType::I8, DType::I32] {
        bench(&format!("kernels/axpy_wrap_{dt}_4096"), || {
            kernels::axpy_wrap(dt, black_box(&mut acc), black_box(3), black_box(&xs))
        });
        bench(&format!("kernels/axpy_wrap_{dt}_4096_scalar_ref"), || {
            oracle::axpy_wrap_scalar_ref(dt, black_box(&mut acc), black_box(3), black_box(&xs))
        });
        bench(&format!("kernels/add_wrap_{dt}_4096"), || {
            kernels::add_wrap(dt, black_box(&mut acc), black_box(&xs))
        });
        bench(&format!("kernels/add_wrap_{dt}_4096_scalar_ref"), || {
            oracle::add_wrap_scalar_ref(dt, black_box(&mut acc), black_box(&xs))
        });
    }

    // Maps.
    bench("kernels/relu_i32_4096", || {
        kernels::relu_i32(black_box(&mut acc))
    });
    bench("kernels/relu_i32_4096_scalar_ref", || {
        oracle::relu_i32_scalar_ref(black_box(&mut acc))
    });
    bench("kernels/max_i32_4096", || {
        kernels::max_i32(black_box(&mut acc), black_box(&xs))
    });
    bench("kernels/max_i32_4096_scalar_ref", || {
        oracle::max_i32_scalar_ref(black_box(&mut acc), black_box(&xs))
    });

    // Bitmaps at the BFS LiveJournal-scale size (32k vertices -> 4 KiB).
    let mut bm = vec![0x10u8; 4096];
    let src = vec![0x01u8; 4096];
    bench("kernels/bitmap_or_4k", || {
        kernels::bitmap_or(black_box(&mut bm), black_box(&src))
    });
    bench("kernels/bitmap_or_4k_scalar_ref", || {
        oracle::bitmap_or_scalar_ref(black_box(&mut bm), black_box(&src))
    });
    let olds = vec![0x10u8; 4096];
    bench("kernels/new_bit_scan_4k", || {
        let mut sum = 0usize;
        kernels::for_each_new_bit(black_box(&bm), black_box(&olds), |v| sum += v);
        black_box(sum);
    });
    bench("kernels/new_bit_scan_4k_scalar_ref", || {
        let mut sum = 0usize;
        oracle::for_each_new_bit_scalar_ref(black_box(&bm), black_box(&olds), |v| sum += v);
        black_box(sum);
    });

    // Row scatter/gather at the GNN transpose shape (f=64 int32 rows,
    // 32 sub-column blocks of 2 elements).
    let gsrc = vec![0x42u8; 32 * 64 * 8];
    let mut gdst = vec![0u8; 32 * 64 * 8];
    bench("kernels/copy_rows_gnn_transpose", || {
        for blk in 0..32usize {
            kernels::copy_rows(
                black_box(&mut gdst),
                blk * 8,
                256,
                black_box(&gsrc),
                blk * 64 * 8,
                8,
                8,
                64,
            );
        }
    });
    bench("kernels/copy_rows_gnn_transpose_scalar_ref", || {
        for blk in 0..32usize {
            oracle::copy_rows_scalar_ref(
                black_box(&mut gdst),
                blk * 8,
                256,
                black_box(&gsrc),
                blk * 64 * 8,
                8,
                8,
                64,
            );
        }
    });
}

fn bench_planning() {
    for (dims, geom) in [
        (vec![32usize, 32], DimmGeometry::upmem_1024()),
        (vec![8, 16, 8], DimmGeometry::upmem_1024()),
    ] {
        let manager =
            HypercubeManager::new(HypercubeShape::new(dims.clone()).unwrap(), geom).unwrap();
        let mask: DimMask = DimMask::single(dims.len(), 0);
        bench(&format!("planning/build_clusters {dims:?}"), || {
            black_box(build_clusters(black_box(&manager), &mask).unwrap());
        });
    }
}

fn bench_collectives() {
    let setup = PrimSetup {
        geom: DimmGeometry::single_rank(),
        dims: vec![8, 8],
        mask: "10".into(),
        bytes_per_node: 8 * 8 * 16,
        dtype: pim_sim::DType::U64,
        model: pim_sim::TimeModel::upmem(),
    };
    for prim in [
        Primitive::AlltoAll,
        Primitive::ReduceScatter,
        Primitive::AllReduce,
        Primitive::AllGather,
    ] {
        for opt in [OptLevel::Baseline, OptLevel::Full] {
            bench(&format!("collectives_64pe/{}/{opt}", prim.abbrev()), || {
                black_box(run_primitive(black_box(&setup), prim, opt));
            });
        }
    }
}

fn bench_end_to_end() {
    let geom = DimmGeometry::upmem_256();
    let manager = HypercubeManager::new(HypercubeShape::new(vec![16, 16]).unwrap(), geom).unwrap();
    let comm = Communicator::new(manager);
    let mask: DimMask = "10".parse().unwrap();
    bench("end_to_end/allreduce_256pe_8kib", || {
        let mut sys = pim_sim::PimSystem::new(geom);
        for pe in geom.pes() {
            sys.pe_mut(pe).write(0, &[1u8; 8192]);
        }
        black_box(
            comm.all_reduce(
                &mut sys,
                &mask,
                &BufferSpec::new(0, 16384, 8192),
                ReduceKind::Sum,
            )
            .unwrap(),
        );
    });
}

fn main() {
    bench_domain_ops();
    bench_reduce_kernels();
    bench_lane_kernels();
    bench_planning();
    bench_collectives();
    bench_end_to_end();
}
