//! `expected.json`: the pinned modeled-time bits of every cell (and the
//! recovery record of every `chaos_small` cell) at `--seed 1`.
//!
//! Modeled time is a pure function of the configuration, so any PR that is
//! not a deliberate model change must leave every pin untouched; `--check`
//! fails otherwise and names the first differing cell. At another seed only
//! the data-independent workloads (the three `prims_*`) keep their pins;
//! the rest are skipped and the report says so.
//!
//! The file is compiled in, so a run never depends on where it is started
//! from. `--all --bless` rewrites it (then rebuild).

use crate::json::Json;
use crate::workloads::{CellRun, ChaosRecord};

const EXPECTED: &str = include_str!("../expected.json");

/// The seed the pins were taken at.
pub const PINNED_SEED: u64 = 1;

#[derive(Debug, Default)]
pub struct PinReport {
    pub applied: usize,
    pub skipped: usize,
    /// Why pins were skipped, when they were.
    pub skip_reason: Option<String>,
    /// Cells whose modeled bits or recovery counts differ from their pin.
    pub mismatches: Vec<String>,
    /// `chaos_small` cells whose typed outcome differs from its pin — an
    /// output-check failure, not just drift.
    pub chaos_mismatches: Vec<String>,
}

impl PinReport {
    pub fn to_json(&self) -> Json {
        let list = |v: &[String]| v.iter().map(|s| s.as_str().into()).collect::<Vec<Json>>();
        Json::obj()
            .with("applied", self.applied)
            .with("skipped", self.skipped)
            .with("skip_reason", self.skip_reason.clone())
            .with("mismatches", list(&self.mismatches))
            .with("outcome_mismatches", list(&self.chaos_mismatches))
    }

    /// First differing cell, if any pin moved.
    pub fn first_mismatch(&self) -> Option<&str> {
        self.chaos_mismatches
            .first()
            .or(self.mismatches.first())
            .map(String::as_str)
    }
}

fn is_data_independent(workload: &str) -> bool {
    workload.starts_with("prims_")
}

fn recovery_counts(c: &ChaosRecord) -> [(&'static str, u64); 5] {
    [
        ("retries", u64::from(c.retries)),
        ("backoff_epochs", c.backoff_epochs),
        ("restores", c.restores),
        ("quarantined", c.quarantined as u64),
        ("mismatched", c.mismatched),
    ]
}

/// Compares the cold pass of `workload` against its pins.
pub fn check(workload: &str, seed: u64, ids: &[String], cold: &[CellRun]) -> PinReport {
    check_against(EXPECTED, workload, seed, ids, cold)
}

fn check_against(
    expected: &str,
    workload: &str,
    seed: u64,
    ids: &[String],
    cold: &[CellRun],
) -> PinReport {
    let mut report = PinReport::default();
    let skip = |why: String| PinReport {
        skipped: ids.len(),
        skip_reason: Some(why),
        ..PinReport::default()
    };
    if seed != PINNED_SEED && !is_data_independent(workload) {
        return skip(format!(
            "inputs depend on --seed; pins are taken at --seed {PINNED_SEED}"
        ));
    }
    let doc = match Json::parse(expected) {
        Ok(doc) => doc,
        Err(e) => return skip(format!("expected.json unreadable: {e}")),
    };
    let Some(pins) = doc.get("workloads").and_then(|w| w.get(workload)) else {
        return skip("expected.json has no pins for this workload".into());
    };
    for (id, run) in ids.iter().zip(cold) {
        let Some(pin) = pins
            .as_array()
            .iter()
            .find(|p| p.get("cell").and_then(Json::as_str) == Some(id))
        else {
            report.skipped += 1;
            continue;
        };
        report.applied += 1;
        let want = pin.get("modeled_bits").and_then(Json::as_str).unwrap_or("");
        let got = format!("{:016x}", run.modeled_ns.to_bits());
        if want != got {
            report.mismatches.push(format!(
                "{workload}/{id}: modeled bits {got}, pinned {want}"
            ));
        }
        if let (Some(rec), Some(pin)) = (&run.chaos, pin.get("recovery")) {
            let want = pin.get("outcome").and_then(Json::as_str).unwrap_or("");
            if want != rec.outcome {
                report.chaos_mismatches.push(format!(
                    "{workload}/{id}: outcome {}, pinned {want}",
                    rec.outcome
                ));
            }
            for (key, got) in recovery_counts(rec) {
                let want = pin.get(key).and_then(Json::as_f64);
                if want != Some(got as f64) {
                    report.mismatches.push(format!(
                        "{workload}/{id}: {key} {got}, pinned {}",
                        want.map_or("nothing".into(), |w| w.to_string())
                    ));
                }
            }
        }
    }
    report
}

/// Builds a fresh `expected.json` from the result documents of one
/// `--all` set at the pinned seed.
pub fn bless(results: &[Json]) -> Json {
    let mut workloads = Json::obj();
    for r in results {
        let name = r.get("workload").and_then(Json::as_str).unwrap_or("");
        let cells: Vec<Json> = r
            .get("cells")
            .map_or(&[][..], Json::as_array)
            .iter()
            .map(|c| {
                let pin = Json::obj()
                    .with("cell", c.get("id").and_then(Json::as_str).unwrap_or(""))
                    .with(
                        "modeled_bits",
                        c.get("modeled_bits").and_then(Json::as_str).unwrap_or(""),
                    );
                match c.get("recovery") {
                    Some(Json::Obj(fields)) => pin.with(
                        "recovery",
                        Json::Obj(
                            fields
                                .iter()
                                .filter(|(k, _)| k != "validated")
                                .cloned()
                                .collect(),
                        ),
                    ),
                    _ => pin,
                }
            })
            .collect();
        workloads = workloads.with(name, cells);
    }
    Json::obj()
        .with("seed", PINNED_SEED)
        .with("workloads", workloads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(modeled_ns: f64, chaos: Option<ChaosRecord>) -> CellRun {
        CellRun {
            wall_ns: 1,
            cpu_ns: 1,
            modeled_ns,
            failure: None,
            completed: true,
            comm_ns: None,
            bytes: 0,
            chaos,
        }
    }

    fn record(outcome: &'static str, retries: u32) -> ChaosRecord {
        ChaosRecord {
            outcome,
            retries,
            backoff_epochs: 0,
            restores: 0,
            quarantined: 0,
            mismatched: 0,
            validated: true,
        }
    }

    const DOC: &str = r#"{"seed": 1, "workloads": {
        "prims_full": [{"cell": "AA", "modeled_bits": "4132000000000000"}],
        "apps_graph": [{"cell": "bfs.lj.full", "modeled_bits": "4132000000000000"}],
        "chaos_small": [{"cell": "bfs.flip.q", "modeled_bits": "4132000000000000",
            "recovery": {"outcome": "completed", "retries": 3, "backoff_epochs": 0,
                         "restores": 0, "quarantined": 0, "mismatched": 0}}]}}"#;
    const NS: f64 = 1_179_648.0; // 0x4132000000000000

    #[test]
    fn matching_bits_apply_cleanly_and_a_flipped_bit_is_named() {
        let ids = vec!["AA".to_string()];
        let ok = check_against(DOC, "prims_full", 1, &ids, &[run(NS, None)]);
        assert_eq!((ok.applied, ok.skipped), (1, 0));
        assert!(ok.first_mismatch().is_none());
        let moved = f64::from_bits(NS.to_bits() + 1);
        let bad = check_against(DOC, "prims_full", 1, &ids, &[run(moved, None)]);
        assert!(bad.first_mismatch().unwrap().contains("prims_full/AA"));
    }

    #[test]
    fn held_out_seed_keeps_only_data_independent_pins() {
        let ids = vec!["AA".to_string()];
        let prims = check_against(DOC, "prims_full", 2, &ids, &[run(NS, None)]);
        assert_eq!(prims.applied, 1);
        let ids = vec!["bfs.lj.full".to_string()];
        let graph = check_against(DOC, "apps_graph", 2, &ids, &[run(NS, None)]);
        assert_eq!((graph.applied, graph.skipped), (0, 1));
        assert!(graph.skip_reason.unwrap().contains("--seed"));
    }

    #[test]
    fn recovery_pins_split_outcome_from_counts() {
        let ids = vec!["bfs.flip.q".to_string()];
        let same = [run(NS, Some(record("completed", 3)))];
        assert!(check_against(DOC, "chaos_small", 1, &ids, &same)
            .first_mismatch()
            .is_none());
        let retried = [run(NS, Some(record("completed", 4)))];
        let r = check_against(DOC, "chaos_small", 1, &ids, &retried);
        assert!(r.chaos_mismatches.is_empty());
        assert!(r.mismatches[0].contains("retries 4, pinned 3"));
        let degraded = [run(NS, Some(record("degraded", 3)))];
        let r = check_against(DOC, "chaos_small", 1, &ids, &degraded);
        assert!(r.chaos_mismatches[0].contains("outcome degraded, pinned completed"));
    }

    #[test]
    fn bless_round_trips_through_check() {
        let result = Json::obj().with("workload", "chaos_small").with(
            "cells",
            vec![Json::obj()
                .with("id", "bfs.flip.q")
                .with("modeled_bits", format!("{:016x}", NS.to_bits()))
                .with(
                    "recovery",
                    Json::obj()
                        .with("outcome", "completed")
                        .with("retries", 3u64)
                        .with("backoff_epochs", 0u64)
                        .with("restores", 0u64)
                        .with("quarantined", 0u64)
                        .with("mismatched", 0u64)
                        .with("validated", true),
                )],
        );
        let doc = bless(&[result]).pretty();
        let ids = vec!["bfs.flip.q".to_string()];
        let r = check_against(
            &doc,
            "chaos_small",
            1,
            &ids,
            &[run(NS, Some(record("completed", 3)))],
        );
        assert_eq!(r.applied, 1);
        assert!(r.first_mismatch().is_none());
    }

    /// The pin of `cell`, searched across the given workloads.
    fn pin<'a>(doc: &'a Json, workloads: &[&str], cell: &str) -> &'a Json {
        workloads
            .iter()
            .filter_map(|w| doc.get("workloads")?.get(w))
            .flat_map(|pins| pins.as_array())
            .find(|p| p.get("cell").and_then(Json::as_str) == Some(cell))
            .unwrap_or_else(|| panic!("no pin for {cell}"))
    }

    /// A committed trajectory file of the repo root, or `None` once a later
    /// PR has retired it (this check is a one-off: it proves the frozen
    /// workload copies are the workloads the repo has always tracked).
    fn trajectory(file: &str) -> Option<Json> {
        let path = format!("{}/../{file}", env!("CARGO_MANIFEST_DIR"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            eprintln!("{path} is gone; nothing to compare the pins with");
            return None;
        };
        Some(Json::parse(&text).expect("committed trajectory file parses"))
    }

    fn slug(app: &str) -> &'static str {
        match app {
            "DLRM" => "dlrm",
            "GNN RS&AR" => "gnn-rsar",
            "GNN AR&AG" => "gnn-arag",
            "BFS" => "bfs",
            "CC" => "cc",
            "MLP" => "mlp",
            other => panic!("unknown app {other}"),
        }
    }

    fn text<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("row lacks {key}"))
    }

    #[test]
    fn pins_equal_the_fig15_trajectory_bit_for_bit() {
        let Some(apps) = trajectory("BENCH_apps.json") else {
            return;
        };
        let doc = Json::parse(EXPECTED).unwrap();
        let rows = apps.get("results").unwrap().as_array();
        assert_eq!(rows.len(), 24);
        for row in rows {
            let cell = format!(
                "{}.{}.{}",
                slug(text(row, "app")),
                text(row, "dataset").to_lowercase(),
                text(row, "opt").to_lowercase()
            );
            let pin = pin(&doc, &["apps_mlp", "apps_fused", "apps_graph"], &cell);
            assert_eq!(
                text(pin, "modeled_bits"),
                text(row, "modeled_bits"),
                "{cell}"
            );
        }
        // The example the issue quotes.
        let mlp = pin(&doc, &["apps_mlp"], "mlp.32k.full");
        assert_eq!(text(mlp, "modeled_bits"), "417ca95c3a4fc790");
    }

    #[test]
    fn pins_equal_the_fig14_trajectory() {
        let Some(streaming) = trajectory("BENCH_streaming.json") else {
            return;
        };
        let doc = Json::parse(EXPECTED).unwrap();
        let rows = streaming.get("results").unwrap().as_array();
        assert_eq!(rows.len(), 4);
        for row in rows {
            let prim = text(row, "primitive");
            let bits =
                u64::from_str_radix(text(pin(&doc, &["prims_full"], prim), "modeled_bits"), 16);
            let us = f64::from_bits(bits.unwrap()) / 1e3;
            let committed = row.get("modeled_us").and_then(Json::as_f64).unwrap();
            // The file records microseconds to three decimals.
            assert_eq!(format!("{us:.3}"), format!("{committed:.3}"), "{prim}");
        }
    }

    #[test]
    fn pins_equal_the_chaos_trajectory_row_for_row() {
        let Some(chaos) = trajectory("BENCH_chaos.json") else {
            return;
        };
        let doc = Json::parse(EXPECTED).unwrap();
        let rows = chaos.get("results").unwrap().as_array();
        assert_eq!(rows.len(), 35);
        for row in rows {
            // "sm+clean" -> "clean"; "sm+flip/q" -> "flip.q".
            let column = text(row, "dataset")
                .trim_start_matches("sm+")
                .replace('/', ".");
            let cell = format!("{}.{column}", slug(text(row, "app")));
            let pin = pin(&doc, &["chaos_small"], &cell);
            assert_eq!(
                text(pin, "modeled_bits"),
                text(row, "modeled_bits"),
                "{cell}"
            );
            let rec = pin.get("recovery").unwrap();
            assert_eq!(text(rec, "outcome"), text(row, "outcome"), "{cell}");
            for (ours, theirs) in [
                ("retries", "retries"),
                ("backoff_epochs", "backoff_epochs"),
                ("restores", "checkpoint_restores"),
                ("quarantined", "quarantined"),
                ("mismatched", "mismatched"),
            ] {
                assert_eq!(
                    rec.get(ours).and_then(Json::as_f64),
                    row.get(theirs).and_then(Json::as_f64),
                    "{cell} {ours}"
                );
            }
        }
    }

    #[test]
    fn the_committed_file_parses_and_covers_every_workload() {
        let doc = Json::parse(EXPECTED).unwrap();
        for name in crate::workloads::WORKLOADS {
            let pins = doc.get("workloads").and_then(|w| w.get(name));
            assert!(
                pins.is_some_and(|p| !p.as_array().is_empty()),
                "{name} unpinned"
            );
        }
    }
}
