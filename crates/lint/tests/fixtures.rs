//! Fixture suite: one known-bad and one known-good snippet per lint,
//! checked through the library API with exact line:col expectations,
//! plus the workspace self-check and the CLI exit-code contract.

use pidcomm_lint::lints::{Lint, Severity, UnsafeAllowlist};
use pidcomm_lint::{lint_source, lint_workspace};
use std::path::{Path, PathBuf};

fn fixture(rel: &str) -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
    (rel.to_string(), src)
}

/// Lints a fixture under its embedded workspace-suffix path.
fn diags_of(rel: &str, allowlist: &UnsafeAllowlist) -> Vec<(Lint, u32, u32, Severity)> {
    let (virtual_path, src) = fixture(rel);
    lint_source(&virtual_path, &src, allowlist)
        .diags
        .into_iter()
        .map(|d| (d.lint, d.line, d.col, d.severity))
        .collect()
}

fn errors_of(rel: &str) -> Vec<(Lint, u32, u32)> {
    diags_of(rel, &UnsafeAllowlist::default())
        .into_iter()
        .filter(|(_, _, _, sev)| *sev == Severity::Error)
        .map(|(l, ln, c, _)| (l, ln, c))
        .collect()
}

#[test]
fn l1_cost_sheet_bad_and_good() {
    assert_eq!(
        errors_of("bad/crates/core/src/engine/newpath.rs"),
        vec![(Lint::CostSheet, 4, 11)]
    );
    assert_eq!(errors_of("good/crates/core/src/engine/newpath.rs"), vec![]);
}

#[test]
fn l1_allowed_files_may_mutate() {
    // The same mutation is legal inside the charge-helper homes.
    let src = "pub fn charge(sheet: &mut CostSheet) { sheet.dt_blocks += 1; }";
    let out = lint_source(
        "crates/core/src/engine/sheet.rs",
        src,
        &UnsafeAllowlist::default(),
    );
    assert!(out.diags.is_empty(), "{:?}", out.diags);
}

#[test]
fn l2_pe_choke_point_bad_and_good() {
    assert_eq!(
        errors_of("bad/crates/apps/src/staging.rs"),
        vec![(Lint::PeChokePoint, 4, 8)]
    );
    assert_eq!(errors_of("good/crates/apps/src/staging.rs"), vec![]);
    // Resolving an MRAM window is as confined as the raw view.
    assert_eq!(
        errors_of("bad/crates/core/src/engine/rawwindow.rs"),
        vec![(Lint::PeChokePoint, 4, 28)]
    );
    assert_eq!(
        errors_of("good/crates/core/src/engine/rawwindow.rs"),
        vec![]
    );
}

#[test]
fn l2_windows_resolve_only_in_pe_and_system() {
    let src = "pub fn f(pe: &mut Pe) { pe.window_pair(0..8, 8..16); }";
    for (path, flagged) in [
        ("crates/sim/src/pe.rs", false),
        ("crates/sim/src/system.rs", false),
        ("crates/sim/src/arena.rs", true),
        ("crates/apps/src/bfs.rs", true),
    ] {
        let out = lint_source(path, src, &UnsafeAllowlist::default());
        assert_eq!(!out.diags.is_empty(), flagged, "{path}: {:?}", out.diags);
    }
}

#[test]
fn l3_wall_clock_bad_and_good() {
    assert_eq!(
        errors_of("bad/crates/core/src/engine/timing.rs"),
        vec![(Lint::WallClock, 3, 25)]
    );
    assert_eq!(errors_of("good/crates/core/src/engine/timing.rs"), vec![]);
    // The figure harness feeds pins: host time lives only in `benchmark/`.
    assert_eq!(
        errors_of("bad/crates/bench/src/walltime.rs"),
        vec![(Lint::WallClock, 4, 25)]
    );
}

#[test]
fn l3_map_iteration_bad_and_good() {
    assert_eq!(
        errors_of("bad/crates/core/src/engine/order.rs"),
        vec![(Lint::MapIteration, 10, 29)]
    );
    assert_eq!(errors_of("good/crates/core/src/engine/order.rs"), vec![]);
}

#[test]
fn l4_hot_alloc_bad_and_good() {
    assert_eq!(
        errors_of("bad/crates/sim/src/hotpath.rs"),
        vec![(Lint::HotAlloc, 4, 19)]
    );
    assert_eq!(errors_of("good/crates/sim/src/hotpath.rs"), vec![]);
}

#[test]
fn l5_unsafe_audit_bad_and_good() {
    // Bad: both the missing SAFETY comment and the missing allowlist
    // entry fire, anchored on the `unsafe` keyword.
    assert_eq!(
        errors_of("bad/crates/sim/src/rawlane.rs"),
        vec![(Lint::UnsafeAudit, 3, 5), (Lint::UnsafeAudit, 3, 5)]
    );
    // Good: SAFETY comment present and the file allowlisted.
    let allowlist = UnsafeAllowlist::parse("crates/sim/src/rawlane.rs 1");
    let diags = diags_of("good/crates/sim/src/rawlane.rs", &allowlist);
    assert_eq!(diags, vec![]);
    // Over budget: a second unsafe beyond the allowlisted count fires.
    let src = "// SAFETY: a\nunsafe fn a() {}\n// SAFETY: b\nunsafe fn b() {}\n";
    let roomy = UnsafeAllowlist::parse("crates/sim/src/twice.rs 2");
    let out = lint_source("crates/sim/src/twice.rs", src, &roomy);
    assert!(out.diags.is_empty(), "{:?}", out.diags);
    let tight = UnsafeAllowlist::parse("crates/sim/src/twice.rs 1");
    let out = lint_source("crates/sim/src/twice.rs", src, &tight);
    assert_eq!(out.diags.len(), 1, "{:?}", out.diags);
    assert_eq!(out.diags[0].line, 4);
}

#[test]
fn l6_library_oracle_bad_and_good() {
    assert_eq!(
        errors_of("bad/crates/core/src/engine/reference.rs"),
        vec![(Lint::LibraryOracle, 3, 12)]
    );
    // The good fixture's test module imports the reference: exempt.
    assert_eq!(
        errors_of("good/crates/core/src/engine/reference.rs"),
        vec![]
    );
    // Either side of the `::` counts; the module itself, other crates and
    // a bare `oracle` binding do not.
    for (path, src, flagged) in [
        ("crates/apps/src/cc.rs", "use pidcomm::oracle;", true),
        (
            "crates/core/src/comm.rs",
            "fn f() { oracle::reduce(x, op, t); }",
            true,
        ),
        (
            "crates/core/src/oracle.rs",
            "fn f() { crate::oracle::gather(x); }",
            false,
        ),
        (
            "crates/bench/src/pins.rs",
            "fn f() { oracle::gather(x); }",
            false,
        ),
        ("crates/core/src/lib.rs", "pub mod oracle;", false),
        (
            "crates/core/src/comm.rs",
            "fn f(oracle: u8) -> u8 { oracle }",
            false,
        ),
    ] {
        let out = lint_source(path, src, &UnsafeAllowlist::default());
        assert_eq!(
            !out.diags.is_empty(),
            flagged,
            "{path}: {src}: {:?}",
            out.diags
        );
    }
}

#[test]
fn allow_directive_suppresses_counts_and_reports() {
    let src = "pub fn f(sheet: &mut CostSheet) {\n    // simlint: allow(cost-sheet, reason = \"fixture\")\n    sheet.dt_blocks += 1;\n}\n";
    let out = lint_source(
        "crates/core/src/engine/x.rs",
        src,
        &UnsafeAllowlist::default(),
    );
    assert!(out.diags.is_empty(), "{:?}", out.diags);
    assert_eq!(out.allows.len(), 1);
    assert_eq!(out.allows[0].lint, Lint::CostSheet);
    assert_eq!(out.allows[0].suppressed, 1);
    assert_eq!(out.allows[0].reason, "fixture");
}

#[test]
fn allow_directive_is_narrow() {
    // An allow two lines above the violation does NOT suppress it.
    let src = "pub fn f(sheet: &mut CostSheet) {\n    // simlint: allow(cost-sheet, reason = \"too far\")\n    let pad = 0;\n    sheet.dt_blocks += 1;\n}\n";
    let out = lint_source(
        "crates/core/src/engine/x.rs",
        src,
        &UnsafeAllowlist::default(),
    );
    // The violation survives AND the unused allow warns.
    assert_eq!(
        out.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count(),
        1
    );
    assert_eq!(
        out.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count(),
        1
    );
}

#[test]
fn malformed_directives_are_errors() {
    for (src, what) in [
        ("// simlint: allow(cost-sheet)\n", "missing reason"),
        (
            "// simlint: allow(no-such-lint, reason = \"x\")\n",
            "unknown lint",
        ),
        ("// simlint: frobnicate(now)\n", "unknown directive"),
        ("// simlint: hot(end)\n", "unbalanced end"),
        ("// simlint: hot(begin)\n", "unclosed begin"),
    ] {
        let out = lint_source(
            "crates/core/src/engine/x.rs",
            src,
            &UnsafeAllowlist::default(),
        );
        assert_eq!(
            out.diags.len(),
            1,
            "{what}: expected exactly one diagnostic, got {:?}",
            out.diags
        );
        assert_eq!(out.diags[0].lint, Lint::Directive, "{what}");
        assert_eq!(out.diags[0].severity, Severity::Error, "{what}");
    }
}

#[test]
fn cfg_test_modules_are_exempt_from_source_lints() {
    let src = "#[cfg(test)]\nmod tests {\n    fn poke(sheet: &mut CostSheet) {\n        sheet.dt_blocks += 1;\n    }\n}\n";
    let out = lint_source(
        "crates/core/src/engine/x.rs",
        src,
        &UnsafeAllowlist::default(),
    );
    assert!(out.diags.is_empty(), "{:?}", out.diags);
}

#[test]
fn directive_inside_string_is_inert() {
    let src = "pub fn f() -> &'static str {\n    \"// simlint: hot(begin)\"\n}\n";
    let out = lint_source(
        "crates/core/src/engine/x.rs",
        src,
        &UnsafeAllowlist::default(),
    );
    assert!(out.diags.is_empty(), "{:?}", out.diags);
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

/// The acceptance self-check: the live workspace lints clean.
#[test]
fn workspace_is_clean() {
    let report = lint_workspace(&workspace_root()).unwrap();
    let errors: Vec<_> = report
        .diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(errors.is_empty(), "workspace lint errors: {errors:#?}");
    assert!(
        report.files_checked > 30,
        "walker found suspiciously few files: {}",
        report.files_checked
    );
    // The live annotations documented in crates/README.md are in effect.
    assert!(
        !report.allows.is_empty(),
        "expected the repo's reasoned allow directives to be reported"
    );
}

/// CLI contract: exit 0 on the workspace, nonzero with file:line:col
/// diagnostics on each bad fixture.
#[test]
fn cli_exit_codes_and_spans() {
    let bin = env!("CARGO_BIN_EXE_simlint");
    let root = workspace_root();

    let clean = std::process::Command::new(bin)
        .arg("--root")
        .arg(&root)
        .output()
        .unwrap();
    assert!(
        clean.status.success(),
        "workspace run failed:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );

    for (fixture, needle) in [
        ("bad/crates/core/src/engine/newpath.rs", ":4:11"),
        ("bad/crates/apps/src/staging.rs", ":4:8"),
        ("bad/crates/core/src/engine/rawwindow.rs", ":4:28"),
        ("bad/crates/core/src/engine/timing.rs", ":3:25"),
        ("bad/crates/core/src/engine/order.rs", ":10:29"),
        ("bad/crates/sim/src/hotpath.rs", ":4:19"),
        ("bad/crates/sim/src/rawlane.rs", ":3:5"),
        ("bad/crates/core/src/engine/reference.rs", ":3:12"),
    ] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(fixture);
        let out = std::process::Command::new(bin)
            .arg("--root")
            .arg(&root)
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{fixture}: expected exit 1, stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(needle),
            "{fixture}: expected a diagnostic at `{needle}`, stderr:\n{stderr}"
        );
    }

    let explain = std::process::Command::new(bin)
        .args(["--explain", "cost-sheet"])
        .output()
        .unwrap();
    assert!(explain.status.success());
    assert!(String::from_utf8_lossy(&explain.stdout).contains("charge"));
}
