//! Error-path coverage: every validation rule of the public API, checked
//! through `Communicator` calls.

use pidcomm::hypercube::HypercubeManager;
use pidcomm::{BufferSpec, Communicator, DimMask, Error, HypercubeShape, OptLevel, Primitive};
use pim_sim::pe::MRAM_CAPACITY;
use pim_sim::{DType, DimmGeometry, PimSystem, ReduceKind};

fn comm_64() -> (PimSystem, Communicator) {
    let geom = DimmGeometry::single_rank();
    let manager = HypercubeManager::new(HypercubeShape::new(vec![8, 8]).unwrap(), geom).unwrap();
    (PimSystem::new(geom), Communicator::new(manager))
}

#[test]
fn shape_validation() {
    assert!(matches!(
        HypercubeShape::new(vec![]),
        Err(Error::InvalidShape(_))
    ));
    assert!(matches!(
        HypercubeShape::new(vec![0]),
        Err(Error::InvalidShape(_))
    ));
    assert!(matches!(
        HypercubeShape::new(vec![3, 8]),
        Err(Error::InvalidShape(_))
    ));
    // Non-power-of-two allowed only in the last position.
    assert!(HypercubeShape::new(vec![8, 3]).is_ok());
}

#[test]
fn mask_validation() {
    assert!(matches!(DimMask::parse("0x1"), Err(Error::InvalidMask(_))));
    assert!(matches!(DimMask::parse("00"), Err(Error::InvalidMask(_))));
    assert!(matches!(DimMask::new(vec![]), Err(Error::InvalidMask(_))));

    let (mut sys, comm) = comm_64();
    // Rank mismatch surfaces at call time.
    let err = comm
        .all_to_all(
            &mut sys,
            &"101".parse().unwrap(),
            &BufferSpec::new(0, 4096, 512),
        )
        .unwrap_err();
    assert!(matches!(err, Error::InvalidMask(_)));
}

#[test]
fn manager_requires_exact_coverage() {
    let shape = HypercubeShape::new(vec![8, 8]).unwrap();
    let err = HypercubeManager::new(shape, DimmGeometry::upmem_256()).unwrap_err();
    assert!(matches!(
        err,
        Error::ShapeSystemMismatch {
            nodes: 64,
            pes: 256
        }
    ));
}

#[test]
fn system_and_manager_geometry_must_agree() {
    let (_, comm) = comm_64();
    let mut other = PimSystem::new(DimmGeometry::upmem_256());
    let err = comm
        .all_to_all(
            &mut other,
            &"10".parse().unwrap(),
            &BufferSpec::new(0, 4096, 512),
        )
        .unwrap_err();
    assert!(matches!(err, Error::ShapeSystemMismatch { .. }));
}

#[test]
fn zero_and_misaligned_buffers_rejected() {
    let (mut sys, comm) = comm_64();
    let mask: DimMask = "10".parse().unwrap();

    for b in [0usize, 4, 12, 63] {
        let err = comm
            .all_to_all(&mut sys, &mask, &BufferSpec::new(0, 4096, b))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidBuffer(_)), "b = {b}");
    }

    // Chunked primitives need 8 x group-size alignment; 8 bytes is fine
    // for AllGather but not for AlltoAll on groups of 8.
    assert!(comm
        .all_gather(&mut sys, &mask, &BufferSpec::new(0, 4096, 8))
        .is_ok());
    assert!(matches!(
        comm.all_to_all(&mut sys, &mask, &BufferSpec::new(0, 4096, 8)),
        Err(Error::InvalidBuffer(_))
    ));
}

#[test]
fn dtype_alignment_enforced() {
    let (mut sys, comm) = comm_64();
    let mask: DimMask = "10".parse().unwrap();
    // 8 x 8 = 64 bytes is chunk-aligned but not a multiple of ... all
    // integer sizes divide 64, so use a valid case and check it passes.
    assert!(comm
        .reduce_scatter(
            &mut sys,
            &mask,
            &BufferSpec::new(0, 4096, 64).with_dtype(DType::U32),
            ReduceKind::Sum
        )
        .is_ok());
}

#[test]
fn overlapping_buffers_rejected() {
    let (mut sys, comm) = comm_64();
    let mask: DimMask = "10".parse().unwrap();
    let b = 512;

    // Identical src/dst.
    let err = comm
        .all_to_all(&mut sys, &mask, &BufferSpec::new(0, 0, b))
        .unwrap_err();
    assert!(matches!(err, Error::InvalidBuffer(_)));

    // Partial overlap.
    let err = comm
        .all_to_all(&mut sys, &mask, &BufferSpec::new(0, b / 2, b))
        .unwrap_err();
    assert!(matches!(err, Error::InvalidBuffer(_)));

    // AllGather's destination is n x b wide — an offset just past src but
    // inside the previous region's footprint is fine the other way round.
    let err = comm
        .all_gather(&mut sys, &mask, &BufferSpec::new(64, 0, 64))
        .unwrap_err();
    assert!(
        matches!(err, Error::InvalidBuffer(_)),
        "dst window reaches into src"
    );

    // Disjoint regions pass.
    assert!(comm
        .all_to_all(&mut sys, &mask, &BufferSpec::new(0, 8192, b))
        .is_ok());
}

#[test]
fn host_buffer_shapes_validated() {
    let (mut sys, comm) = comm_64();
    let mask: DimMask = "10".parse().unwrap();
    let spec = BufferSpec::new(0, 4096, 64);

    // Wrong group count.
    let err = comm
        .scatter(&mut sys, &mask, &spec, &[vec![0u8; 512]])
        .unwrap_err();
    assert!(matches!(err, Error::InvalidHostData(_)));

    // Wrong per-group size (needs n * b = 512).
    let bad = vec![vec![0u8; 128]; 8];
    let err = comm.scatter(&mut sys, &mask, &spec, &bad).unwrap_err();
    assert!(matches!(err, Error::InvalidHostData(_)));

    let good = vec![vec![0u8; 512]; 8];
    assert!(comm.scatter(&mut sys, &mask, &spec, &good).is_ok());

    // Broadcast expects b bytes per group.
    let oversized: Vec<Vec<u8>> = vec![vec![0u8; 512]; 8];
    let err = comm
        .broadcast(&mut sys, &mask, &spec, &oversized)
        .unwrap_err();
    assert!(matches!(err, Error::InvalidHostData(_)));
    assert!(comm
        .broadcast(
            &mut sys,
            &mask,
            &spec,
            &good.iter().map(|_| vec![0u8; 64]).collect::<Vec<_>>()
        )
        .is_ok());
}

#[test]
fn errors_do_not_charge_time_or_move_data() {
    let (mut sys, comm) = comm_64();
    let mask: DimMask = "10".parse().unwrap();
    for pe in sys.geometry().pes() {
        sys.pe_mut(pe).write(0, &[7u8; 512]);
    }
    let before = sys.meter();
    let _ = comm
        .all_to_all(&mut sys, &mask, &BufferSpec::new(0, 0, 512))
        .unwrap_err();
    assert_eq!(
        sys.meter().total(),
        before.total(),
        "failed call charged time"
    );
    let data = sys.pe_mut(pim_sim::PeId(0)).read(0, 512).to_vec();
    assert!(data.iter().all(|&b| b == 7), "failed call mutated MRAM");
}

#[test]
fn all_levels_reject_the_same_inputs() {
    for opt in OptLevel::ALL {
        let (mut sys, comm) = comm_64();
        let comm = comm.with_opt(opt);
        let mask: DimMask = "10".parse().unwrap();
        assert!(
            comm.all_to_all(&mut sys, &mask, &BufferSpec::new(0, 4096, 12))
                .is_err(),
            "{opt} accepted a misaligned buffer"
        );
    }
}

/// Per-PE `(source, destination)` bytes `prim` touches at `b` bytes per node.
fn extents(prim: Primitive, b: usize, n: usize) -> (usize, usize) {
    match prim {
        Primitive::AlltoAll | Primitive::AllReduce => (b, b),
        Primitive::ReduceScatter => (b, b / n),
        Primitive::AllGather => (b, b * n),
        Primitive::Scatter | Primitive::Broadcast => (0, b),
        Primitive::Gather | Primitive::Reduce => (b, 0),
    }
}

fn one_shot(
    comm: &Communicator,
    sys: &mut PimSystem,
    prim: Primitive,
    mask: &DimMask,
    spec: &BufferSpec,
    host_in: &[Vec<u8>],
) -> Result<(), Error> {
    let op = ReduceKind::Sum;
    match prim {
        Primitive::AlltoAll => comm.all_to_all(sys, mask, spec).map(drop),
        Primitive::ReduceScatter => comm.reduce_scatter(sys, mask, spec, op).map(drop),
        Primitive::AllReduce => comm.all_reduce(sys, mask, spec, op).map(drop),
        Primitive::AllGather => comm.all_gather(sys, mask, spec).map(drop),
        Primitive::Scatter => comm.scatter(sys, mask, spec, host_in).map(drop),
        Primitive::Gather => comm.gather(sys, mask, spec).map(drop),
        Primitive::Reduce => comm.reduce(sys, mask, spec, op).map(drop),
        Primitive::Broadcast => comm.broadcast(sys, mask, spec, host_in).map(drop),
    }
}

#[test]
fn out_of_bank_extents_are_typed_errors_at_plan_time() {
    let (mut sys, comm) = comm_64();
    let mask: DimMask = "10".parse().unwrap();
    let (n, b) = (8usize, 64usize);
    for pe in sys.geometry().pes() {
        sys.pe_mut(pe).write(0, &[7u8; 512]);
    }
    let (meter, used) = (sys.meter(), sys.total_mram_used());

    for prim in Primitive::ALL {
        let (src_len, dst_len) = extents(prim, b, n);
        let host_in = vec![vec![1u8; if prim == Primitive::Scatter { n * b } else { b }]; 8];
        let mut bad = vec![BufferSpec::new(0, 4096, MRAM_CAPACITY + 8 * n)];
        if src_len > 0 {
            bad.push(BufferSpec::new(MRAM_CAPACITY - src_len + 1, 0, b));
            bad.push(BufferSpec::new(usize::MAX, 0, b));
        }
        if dst_len > 0 {
            bad.push(BufferSpec::new(0, MRAM_CAPACITY - dst_len + 1, b));
            bad.push(BufferSpec::new(0, MRAM_CAPACITY, b));
            bad.push(BufferSpec::new(0, usize::MAX, b));
        }
        for spec in &bad {
            assert!(
                matches!(
                    comm.plan(prim, &mask, spec, ReduceKind::Sum),
                    Err(Error::InvalidBuffer(_))
                ),
                "{prim} planned {spec:?}"
            );
            assert!(
                matches!(
                    one_shot(&comm, &mut sys, prim, &mask, spec, &host_in),
                    Err(Error::InvalidBuffer(_))
                ),
                "{prim} ran {spec:?}"
            );
        }

        // Both extents may end on the bank's last byte, and the side a
        // primitive does not use may hold any offset.
        let (src, dst) = (
            if src_len > 0 { 0 } else { usize::MAX },
            if dst_len > 0 {
                MRAM_CAPACITY - dst_len
            } else {
                usize::MAX
            },
        );
        let edge = BufferSpec::new(src, dst, b);
        assert!(
            comm.plan(prim, &mask, &edge, ReduceKind::Sum).is_ok(),
            "{prim} {edge:?}"
        );
    }

    assert_eq!(
        sys.meter().total(),
        meter.total(),
        "a rejected call charged time"
    );
    assert_eq!(sys.total_mram_used(), used, "a rejected call touched MRAM");
    for pe in sys.geometry().pes() {
        assert!(sys.pe(pe).peek(0, 512).iter().all(|&x| x == 7), "{pe}");
    }
}
