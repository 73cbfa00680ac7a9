//! The pins that live nowhere else — 54 small app cells (10 totals and
//! their kernel / per-primitive split), 73 design-space cells, 22 kernel
//! checksums — checked against the `BENCH_*.json` files at the repo root.
//! A failing set names every cell that moved; `cargo test -p
//! pidcomm-bench --test pins <set>` re-runs one set alone, and each run leaves what it computed under
//! `CARGO_TARGET_TMPDIR` (`target/tmp/`), so re-blessing an intended
//! change is copying that file over the committed one.

use std::collections::BTreeMap;
use std::path::PathBuf;

use pidcomm_bench::pins::{self, Pin};

/// Where this run's files go (also the scratch space of the checker's own
/// tests below).
fn computed(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file)
}

/// Asserts that the sweep's `cells` are exactly the committed `file`.
fn assert_pins(file: &str, cells: &[Pin]) {
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    if let Err(report) = pins::check(&committed, &computed(file), cells) {
        panic!("{report}");
    }
}

#[test]
fn apps_small() {
    assert_pins("BENCH_apps_small.json", &pins::apps_small());
}

#[test]
fn design() {
    assert_pins("BENCH_design.json", &pins::design());
}

/// The model is layout-neutral at a fixed group size: every fig20x shape
/// with the same extent `x` along the communicating dimension scores the
/// same bits, however the other 1024 / x PEs are arranged.
#[test]
fn design_is_layout_neutral_at_a_fixed_group_size() {
    let mut by_x: BTreeMap<String, u64> = BTreeMap::new();
    let mut shapes = 0;
    for pin in pins::design() {
        let Some(shape) = pin.key.strip_prefix("fig20x/") else {
            continue;
        };
        shapes += 1;
        let x = shape.split('x').next().unwrap().to_string();
        let bits = *by_x.entry(x).or_insert(pin.bits);
        assert_eq!(bits, pin.bits, "{} scores other bits than its x", pin.key);
    }
    assert_eq!((shapes, by_x.len()), (36, 8), "{by_x:?}");
}

#[test]
fn kernels() {
    assert_pins("BENCH_kernels.json", &pins::kernels());
}

// ---- the checker itself ----------------------------------------------

fn cells(pins: &[(&str, u64)]) -> Vec<Pin> {
    let pin = |&(key, bits): &(&str, u64)| Pin {
        key: key.into(),
        bits,
    };
    pins.iter().map(pin).collect()
}

/// Commits `file` as a pin file of its own, then checks `got` against it.
fn check_against(name: &str, file: &[(&str, u64)], got: &[(&str, u64)]) -> Result<(), String> {
    let committed = computed(&format!("checker-{name}.committed.json"));
    pins::write(&committed, &cells(file)).unwrap();
    pins::check(
        &committed,
        &computed(&format!("checker-{name}.json")),
        &cells(got),
    )
}

const ABC: [(&str, u64); 3] = [("a/x/Full/64", 1), ("b/x/Full/64", 2), ("c/y z/Full/8", 3)];

#[test]
fn checker_accepts_equal_cells_and_its_own_file_round_trips() {
    check_against("equal", &ABC, &ABC).unwrap();
    for file in ["checker-equal.committed.json", "checker-equal.json"] {
        assert_eq!(pins::read(&computed(file)).unwrap(), cells(&ABC), "{file}");
    }
    // Edge bit patterns survive the fixed-width hex.
    let edges = [("lo", 0), ("hi", u64::MAX), ("nan", f64::NAN.to_bits())];
    check_against("edges", &edges, &edges).unwrap();
}

#[test]
fn checker_names_every_moved_cell_by_key() {
    let report = |name: &str, got: &[(&str, u64)]| check_against(name, &ABC, got).unwrap_err();

    let changed = report("changed", &[ABC[0], ("b/x/Full/64", 0x12), ABC[2]]);
    assert!(
        changed.contains("b/x/Full/64: expected 0000000000000002, got 0000000000000012"),
        "{changed}"
    );
    assert!(changed.contains("1 of 3 cells moved"), "{changed}");
    assert!(
        !changed.contains("a/x") && !changed.contains("c/y"),
        "{changed}"
    );
    assert!(changed.contains("checker-changed.json"), "{changed}");

    let missing = report("missing", &[ABC[0], ABC[2]]);
    assert!(
        missing.contains("b/x/Full/64: missing (expected 0000000000000002"),
        "{missing}"
    );

    let extra = report("extra", &[ABC[0], ABC[1], ABC[2], ("d/x/Full/64", 4)]);
    assert!(
        extra.contains("d/x/Full/64: extra (got 0000000000000004"),
        "{extra}"
    );

    let reordered = report("reordered", &[ABC[1], ABC[0], ABC[2]]);
    assert!(
        reordered.contains("a/x/Full/64: out of order"),
        "{reordered}"
    );

    // Everything at once: one line per cell.
    let all = report("all", &[("b/x/Full/64", 9), ("d/x/Full/64", 4)]);
    assert!(all.contains("4 of 2 cells moved"), "{all}");
    for line in [
        "a/x/Full/64: missing",
        "b/x/Full/64: expected",
        "c/y z/Full/8: missing",
        "d/x",
    ] {
        assert!(all.contains(line), "{line} not in {all}");
    }
}

#[test]
fn checker_refuses_to_pass_with_nothing_to_compare() {
    let scratch = computed("checker-nothing.json");
    let gone = computed("checker-no-such-file.json");
    let err = pins::check(&gone, &scratch, &cells(&ABC)).unwrap_err();
    assert!(
        err.contains("cannot read") && err.contains("no-such-file"),
        "{err}"
    );

    let committed = computed("checker-nothing.committed.json");
    for (text, want) in [
        ("", "holds no cells"),
        ("{\n  \"cells\": [\n  ]\n}\n", "holds no cells"),
        (
            "    { \"cell\": \"a\", \"bits\": \"12\" }\n",
            ":1: not a pin",
        ),
        (
            "    { \"cell\": \"a\", \"bits\": \"000000000000001g\" }\n",
            ":1: not a pin",
        ),
        (
            "    { \"cell\": \"a\", \"bits\": \"+00000000000001f\" }\n",
            ":1: not a pin",
        ),
        ("    { \"cell\": \"a\" }\n", ":1: not a pin"),
    ] {
        std::fs::write(&committed, text).unwrap();
        let err = pins::check(&committed, &scratch, &cells(&ABC)).unwrap_err();
        assert!(err.contains(want), "{text:?}: {err}");
    }
    let err = pins::check(&committed, &scratch, &[]).unwrap_err();
    assert!(err.contains("no cells computed"), "{err}");
}
