//! simlint — the in-tree invariant linter.
//!
//! The workspace's tests can only check invariants pointwise, for the
//! configurations they enumerate. simlint checks the *source* instead:
//! it lexes every workspace `.rs` file with a hand-rolled lexer (no
//! `syn`; the workspace takes no external dependencies) and pattern-
//! matches the token stream against the repo's written contracts —
//! cost-sheet discipline, the PE-write choke point, determinism hygiene,
//! hot-loop allocation freedom, the unsafe audit, and a library that never
//! calls its own test reference. See
//! [`lints::Lint::explain`] for each contract, or run
//! `simlint --explain <lint>`.
//!
//! The library half exists so the linter can lint itself: the fixture
//! tests and the workspace self-check call [`lint_source`] and
//! [`lint_workspace`] directly.

pub mod lexer;
pub mod lints;

use lints::{AllowUse, Diag, FileOutcome, Severity, UnsafeAllowlist};
use std::path::{Path, PathBuf};

/// Lints a single source text under the policy its (virtual) path
/// selects. The path is matched by suffix, so a fixture stored at
/// `tests/fixtures/bad/crates/apps/src/foo.rs` is linted exactly as a
/// real file under `crates/apps/src/` would be.
pub fn lint_source(virtual_path: &str, src: &str, allowlist: &UnsafeAllowlist) -> FileOutcome {
    lints::lint_file(virtual_path, src, allowlist)
}

/// The aggregate outcome of a workspace (or file-list) run.
#[derive(Debug, Default)]
pub struct Report {
    pub files_checked: usize,
    pub diags: Vec<Diag>,
    pub allows: Vec<AllowUse>,
}

impl Report {
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn warning_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }
}

/// Directory names the walker never descends into. Test code
/// deliberately violates invariants (bad fixtures, raw-sheet probes), and
/// `target/` is build output.
const SKIP_DIRS: [&str; 6] = ["target", ".git", "tests", "examples", "fixtures", ".github"];

/// Walks `root` for workspace `.rs` files, sorted for deterministic
/// output, returning workspace-relative paths.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads the committed unsafe allowlist from its canonical location
/// under `root`, or an empty one if the file does not exist.
pub fn load_allowlist(root: &Path) -> UnsafeAllowlist {
    let path = root.join("crates/lint/unsafe_allowlist.txt");
    match std::fs::read_to_string(&path) {
        Ok(text) => UnsafeAllowlist::parse(&text),
        Err(_) => UnsafeAllowlist::default(),
    }
}

/// Lints every workspace `.rs` file under `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let files = workspace_files(root)?;
    let allowlist = load_allowlist(root);
    lint_files(root, &files, &allowlist)
}

/// Lints an explicit file list. Paths are relativized against `root`
/// (when possible) so policy matching and diagnostics use workspace-
/// style forward-slash paths.
pub fn lint_files(
    root: &Path,
    files: &[PathBuf],
    allowlist: &UnsafeAllowlist,
) -> std::io::Result<Report> {
    let mut report = Report::default();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        let virtual_path = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(file)?;
        let outcome = lints::lint_file(&virtual_path, &src, allowlist);
        report.files_checked += 1;
        report.diags.extend(outcome.diags);
        report.allows.extend(outcome.allows);
    }
    Ok(report)
}
