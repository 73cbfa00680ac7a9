//! `--compare A.json B.json` and the `--all` summary.
//!
//! For every metric × workload pairing: both medians, the ratio B/A (base
//! A), the metric's bound, and a verdict — `ok`, `worse` (B is worse than A
//! by more than the bound) or `unresolved` (A's own q1–q3 spread is wider
//! than the bound, so the benchmark cannot tell). Exact metrics compare by
//! bits. A file may hold several runs of a workload (e.g. ten seeds); with
//! four or more, medians and quartiles are taken across the runs,
//! otherwise the first run's own in-run quartiles are used.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::stats::{geomean, summarize};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// `(name, direction, bound)`; a bound of `None` marks an exact metric.
/// The bounds are `BENCHMARK.json`'s: the hosts this runs on are shared, and
/// in a busy hour identical runs have read a third apart (`README.md`), so
/// a tighter bound on a time would resolve nothing.
pub const METRICS: [(&str, Better, Option<f64>); 8] = [
    ("cpu_s", Better::Lower, Some(0.25)),
    ("setup_s", Better::Lower, Some(0.25)),
    ("peak_rss_mb", Better::Lower, Some(0.10)),
    ("sim_ms_per_host_s", Better::Higher, Some(0.25)),
    ("modeled_ms", Better::Lower, None),
    ("failed_share", Better::Lower, None),
    ("ops_attempted", Better::Lower, None),
    ("ops_failed", Better::Lower, None),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a pairing: median and quartiles of a metric on a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

pub fn verdict(a: Side, b: Side, better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        // Exact: any movement of the bits in the wrong direction, or any
        // movement of a count at all, is a change someone must explain.
        return if a.median.to_bits() == b.median.to_bits() {
            Verdict::Ok
        } else {
            Verdict::Worse
        };
    };
    if a.median != 0.0 && (a.q3 - a.q1) / a.median.abs() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => b.median / a.median - 1.0,
        Better::Higher => a.median / b.median - 1.0,
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn runs_of(doc: &Json) -> Vec<&Json> {
    match doc.get("runs") {
        Some(runs) => runs.as_array().iter().collect(),
        None => vec![doc],
    }
}

fn side(runs: &[&Json], workload: &str, metric: &str) -> Option<Side> {
    let of: Vec<&Json> = runs
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric))
        .collect();
    let num = |m: &Json, k: &str| m.get(k).and_then(Json::as_f64);
    let first = of.first()?;
    if of.len() >= 4 {
        let values: Vec<f64> = of.iter().filter_map(|m| num(m, "value")).collect();
        let s = summarize(&values);
        return Some(Side {
            median: s.median,
            q1: s.q1,
            q3: s.q3,
        });
    }
    let median = num(first, "value")?;
    Some(Side {
        median,
        q1: num(first, "q1").unwrap_or(median),
        q3: num(first, "q3").unwrap_or(median),
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (ra, rb) = (runs_of(&a), runs_of(&b));
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut any_worse = false;
    let mut rows = 0;
    for workload in crate::workloads::WORKLOADS {
        for (metric, better, bound) in METRICS {
            let (Some(sa), Some(sb)) = (side(&ra, workload, metric), side(&rb, workload, metric))
            else {
                continue;
            };
            let v = verdict(sa, sb, better, bound);
            any_worse |= v == Verdict::Worse;
            rows += 1;
            let ratio = if sa.median == sb.median {
                1.0
            } else {
                sb.median / sa.median
            };
            println!(
                "{workload:<16} {metric:<20} {:>14.6} {:>14.6} {ratio:>9.4} {:>7}  {}",
                sa.median,
                sb.median,
                bound.map_or("exact".into(), |b| format!("{:.0}%", b * 100.0)),
                v.label()
            );
        }
    }
    if rows == 0 {
        eprintln!("error: the two files share no workload");
        return ExitCode::from(2);
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn modeled_by_cell(doc: &Json) -> Vec<(String, f64)> {
    doc.get("cells")
        .map_or(&[][..], Json::as_array)
        .iter()
        .filter_map(|c| {
            Some((
                c.get("id")?.as_str()?.to_string(),
                c.get("modeled_ns")?.as_f64()?,
            ))
        })
        .collect()
}

fn workload<'a>(docs: &'a [Json], name: &str) -> Option<&'a Json> {
    docs.iter()
        .find(|d| d.get("workload").and_then(Json::as_str) == Some(name))
}

/// Baseline-over-Full modeled speed-ups of cells paired by id.
fn speedups(base: &[(String, f64)], full: &[(String, f64)]) -> Vec<(String, f64)> {
    base.iter()
        .filter_map(|(id, b)| {
            let (_, f) = full.iter().find(|(fid, _)| fid == id)?;
            Some((id.clone(), b / f))
        })
        .collect()
}

/// The paper's reported Full-over-Baseline speed-ups this repo tracks.
const PAPER_FIG14_GEOMEAN: f64 = 2.83;
const PAPER_FIG14: [(&str, f64); 3] = [("AA", 5.19), ("RS", 4.46), ("AR", 4.23)];
const PAPER_FIG15_GEOMEAN: f64 = 1.99;

fn accuracy_line(what: &str, ours: f64, paper: f64) {
    println!(
        "  {what:<28} {ours:>6.2}x   paper {paper:>5.2}x   relative error {:+.1}%",
        100.0 * (ours - paper) / paper
    );
}

/// Table of every workload's end-to-end metrics plus the model's accuracy
/// against the paper (printed beside the modeled numbers, never gated: the
/// bit pins are stricter).
pub fn print_summary(docs: &[Json]) {
    println!("== summary: end-to-end metrics by workload ==");
    print!("{:<16}", "workload");
    for (metric, _, _) in METRICS {
        print!(" {metric:>18}");
    }
    println!();
    for d in docs {
        print!(
            "{:<16}",
            d.get("workload").and_then(Json::as_str).unwrap_or("?")
        );
        for (metric, _, _) in METRICS {
            let v = d
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            print!(" {v:>18.6}");
        }
        println!();
    }

    println!("== accuracy: modeled Full-over-Baseline speed-up vs the paper ==");
    if let (Some(full), Some(base)) = (
        workload(docs, "prims_full"),
        workload(docs, "prims_baseline"),
    ) {
        let s = speedups(&modeled_by_cell(base), &modeled_by_cell(full));
        if !s.is_empty() {
            let all: Vec<f64> = s.iter().map(|(_, v)| *v).collect();
            accuracy_line(
                "fig14 geomean (8 primitives)",
                geomean(&all),
                PAPER_FIG14_GEOMEAN,
            );
            for (prim, paper) in PAPER_FIG14 {
                if let Some((_, ours)) = s.iter().find(|(id, _)| id == prim) {
                    accuracy_line(&format!("fig14 {prim}"), *ours, paper);
                }
            }
        }
    }
    let mut fig15 = Vec::new();
    for name in ["apps_mlp", "apps_fused", "apps_graph"] {
        let Some(doc) = workload(docs, name) else {
            continue;
        };
        let cells = modeled_by_cell(doc);
        let strip = |suffix: &str| -> Vec<(String, f64)> {
            cells
                .iter()
                .filter_map(|(id, ns)| Some((id.strip_suffix(suffix)?.to_string(), *ns)))
                .collect()
        };
        fig15.extend(
            speedups(&strip(".baseline"), &strip(".full"))
                .into_iter()
                .map(|(_, v)| v),
        );
    }
    if fig15.len() == 12 {
        accuracy_line(
            "fig15 geomean (12 app cases)",
            geomean(&fig15),
            PAPER_FIG15_GEOMEAN,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, q1: f64, q3: f64) -> Side {
        Side { median, q1, q3 }
    }

    #[test]
    fn noisy_metric_verdicts() {
        let a = side(10.0, 9.8, 10.2);
        let lower = |b: f64| verdict(a, side(b, b, b), Better::Lower, Some(0.10));
        assert_eq!(lower(10.0), Verdict::Ok);
        assert_eq!(lower(10.9), Verdict::Ok);
        assert_eq!(lower(11.2), Verdict::Worse);
        assert_eq!(lower(5.0), Verdict::Ok);
        // Higher-is-better flips the ratio.
        let higher = |b: f64| verdict(a, side(b, b, b), Better::Higher, Some(0.10));
        assert_eq!(higher(9.5), Verdict::Ok);
        assert_eq!(higher(8.0), Verdict::Worse);
        assert_eq!(higher(20.0), Verdict::Ok);
    }

    #[test]
    fn wide_parent_spread_is_unresolved_not_unchanged() {
        let a = side(10.0, 9.0, 11.0); // spread 20 % > 10 % bound
        assert_eq!(
            verdict(a, side(10.0, 10.0, 10.0), Better::Lower, Some(0.10)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(a, side(10.0, 10.0, 10.0), Better::Lower, Some(0.25)),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_metrics_compare_by_bits() {
        let x = 30.053828;
        let a = side(x, x, x);
        assert_eq!(verdict(a, a, Better::Lower, None), Verdict::Ok);
        let moved = f64::from_bits(x.to_bits() + 1);
        assert_eq!(
            verdict(a, side(moved, moved, moved), Better::Lower, None),
            Verdict::Worse
        );
    }

    #[test]
    fn sides_come_from_in_run_quartiles_or_across_runs() {
        let run = |v: f64| {
            Json::obj().with("workload", "prims_full").with(
                "metrics",
                Json::obj().with(
                    "cpu_s",
                    Json::obj()
                        .with("value", v)
                        .with("q1", v - 1.0)
                        .with("q3", v + 1.0),
                ),
            )
        };
        let one = run(10.0);
        let s = super::side(&[&one], "prims_full", "cpu_s").unwrap();
        assert_eq!((s.median, s.q1, s.q3), (10.0, 9.0, 11.0));
        let many: Vec<Json> = (1..=10).map(|v| run(f64::from(v))).collect();
        let refs: Vec<&Json> = many.iter().collect();
        let s = super::side(&refs, "prims_full", "cpu_s").unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!(super::side(&refs, "apps_mlp", "cpu_s").is_none());
    }

    #[test]
    fn speedups_pair_cells_by_id() {
        let base = vec![("AA".to_string(), 10.0), ("Br".to_string(), 3.0)];
        let full = vec![("Br".to_string(), 3.0), ("AA".to_string(), 2.0)];
        assert_eq!(
            speedups(&base, &full),
            vec![("AA".to_string(), 5.0), ("Br".to_string(), 1.0)]
        );
    }
}
