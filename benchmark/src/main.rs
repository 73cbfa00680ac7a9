//! The repo's benchmark, measured from outside the program: seven named
//! workloads, end-to-end metrics printed by name and unit, every output
//! checked, and a separate traced run for per-layer numbers. See
//! `README.md` in this directory for the glossary and the protocol.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME | --all] [--seed S] [--seconds T] [--trace 0|1]
//!     [--out FILE] [--check] [--bless] [--compare A.json B.json]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (the contract of
//! `BENCHMARK.json`): the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

#![forbid(unsafe_code)]

mod clock;
mod compare;
mod json;
mod pins;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use run::RunResult;
use trace::Tracer;
use workloads::WORKLOADS;

/// Default length of the timed region; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    check: bool,
    bless: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: [--workload NAME | --all] [--seed S] [--seconds T] [--trace 0|1] \
         [--out FILE] [--check] [--bless] [--compare A.json B.json]"
    );
    eprintln!("workloads: {}", WORKLOADS.join(", "));
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: pins::PINNED_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        check: false,
        bless: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, &flag)?),
            "--all" => args.all = true,
            "--seed" => {
                args.seed = value(&mut it, &flag)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value(&mut it, &flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => args.out = Some(value(&mut it, &flag)?.into()),
            "--check" => args.check = true,
            "--bless" => args.bless = true,
            "--compare" => {
                let a = value(&mut it, &flag)?;
                let b = value(&mut it, &flag)?;
                args.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.bless && !args.all {
        return Err("--bless rewrites every pin: use it with --all".into());
    }
    if args.bless && args.seed != pins::PINNED_SEED {
        return Err(format!("pins are taken at --seed {}", pins::PINNED_SEED));
    }
    Ok(args)
}

/// `benchmark/out/`, created on demand.
fn out_dir() -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn print_report(r: &RunResult, layers: Option<&Json>) {
    println!(
        "workload {}  seed {}  {} timed passes over {:.1} s  threads {}  closed loop, 1 client",
        r.workload,
        r.seed,
        r.passes,
        r.seconds,
        workloads::THREADS
    );
    println!(
        "{:<34} {:>12} {:>10} {:>10} {:>10} {:>6} {:>12} {:>12}",
        "cell", "cpu median ms", "min", "q1", "q3", "n", "wall median", "cold wall ms"
    );
    for c in &r.cells {
        let tail = c
            .cpu_ms
            .tail
            .map_or(String::new(), |(p, v)| format!("  p{p:.1} {v:.3} ms"));
        println!(
            "{:<34} {:>12.4} {:>10.4} {:>10.4} {:>10.4} {:>6} {:>12.4} {:>12.4}{tail}",
            c.id,
            c.cpu_ms.median,
            c.cpu_ms.min,
            c.cpu_ms.q1,
            c.cpu_ms.q3,
            c.cpu_ms.n,
            c.wall_ms.median,
            c.cold.wall_ns as f64 / 1e6
        );
    }
    println!(
        "end-to-end metrics (tracing {}):",
        if layers.is_some() { "ON" } else { "off" }
    );
    for (name, m) in r.end_to_end().fields() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<22} {value:>16.6} {unit}");
    }
    println!(
        "checks: {} cell executions, {} failed; pins {} applied, {} skipped{}",
        r.attempted,
        r.failed,
        r.pins.applied,
        r.pins.skipped,
        r.pins
            .skip_reason
            .as_ref()
            .map_or(String::new(), |w| format!(" ({w})"))
    );
    for f in &r.failures {
        println!("  FAILED {f}");
    }
    for m in r.pins.mismatches.iter().chain(&r.pins.chaos_mismatches) {
        println!("  PIN MOVED {m}");
    }
    if let Some(layers) = layers {
        println!("per-layer metrics:");
        for (name, m) in layers.fields() {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {name:<48} {value:>16.6} {unit}");
        }
    }
}

/// Strips a metric object down to the contract's `{value, unit}`.
fn value_unit(m: &Json) -> Json {
    Json::obj()
        .with("value", m.get("value").cloned().unwrap_or(Json::Null))
        .with("unit", m.get("unit").cloned().unwrap_or(Json::Null))
}

fn run_one(args: &Args, name: &str) -> ExitCode {
    let mut tr = Tracer::new(args.trace);
    let Some(result) = run::run_workload(name, args.seed, args.seconds, &mut tr) else {
        return usage(&format!("unknown workload {name}"));
    };
    let mut doc = result.to_json();
    let mut correct = result.correct();
    let mut layers = None;
    if args.trace {
        let l = probes::layer_metrics(&result, args.seed, &mut tr);
        if let Err(e) = trace::check_nesting(tr.spans()) {
            eprintln!("trace is malformed: {e}");
            correct = false;
        }
        let written = out_dir().and_then(|dir| {
            let path = dir.join(format!("trace-{name}.jsonl"));
            std::fs::write(&path, trace::to_jsonl(name, tr.spans())).map(|()| path)
        });
        match written {
            Ok(path) => eprintln!("wrote {} ({} spans)", path.display(), tr.spans().len()),
            Err(e) => eprintln!("cannot write the trace: {e}"),
        }
        doc = doc.with("layers", l.clone());
        layers = Some(l);
    }
    print_report(&result, layers.as_ref());
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let pins_moved = result.pins.first_mismatch();
    if args.check {
        match pins_moved {
            Some(first) => eprintln!("--check: pins moved, first: {first}"),
            None => eprintln!(
                "--check: {} pins hold ({} skipped)",
                result.pins.applied, result.pins.skipped
            ),
        }
    }

    let metrics = match &layers {
        Some(l) => Json::Obj(
            l.fields()
                .iter()
                .map(|(k, m)| (k.clone(), value_unit(m)))
                .collect(),
        ),
        None => {
            let all = result.end_to_end();
            // `BENCHMARK.json` bounds the noisy host-side metrics; the exact
            // ones are printed above and held by `--check`.
            Json::Obj(
                compare::METRICS
                    .iter()
                    .filter(|(_, _, bound)| bound.is_some())
                    .map(|(k, _, _)| {
                        (
                            k.to_string(),
                            value_unit(all.get(k).expect("bounded metric")),
                        )
                    })
                    .collect(),
            )
        }
    };
    let line = Json::obj()
        .with("correct", correct)
        .with("attempted", result.attempted)
        .with("failed", result.failed)
        .with("metrics", metrics);
    println!("{}", line.compact());
    if !correct || (args.check && pins_moved.is_some()) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One child process per workload, sequentially: `peak_rss_mb` is then per
/// workload and nothing runs concurrently with the load-generating thread.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = match out_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("cannot create the output directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut docs = Vec::new();
    let mut ok = true;
    for name in WORKLOADS {
        let part = dir.join(format!("result-{name}.json"));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if args.check {
            cmd.arg("--check");
        }
        // `status` waits for the child to end.
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{name}: {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                ok = false;
            }
        }
        match std::fs::read_to_string(&part)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        {
            Ok(doc) => docs.push(doc),
            Err(e) => {
                eprintln!("{name}: no result: {e}");
                ok = false;
            }
        }
        println!();
    }
    compare::print_summary(&docs);
    if args.bless && ok {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
        match std::fs::write(&path, pins::bless(&docs).pretty()) {
            Ok(()) => eprintln!(
                "wrote {} — rebuild to compile the new pins in",
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    let merged = Json::obj().with("claim", Json::Null).with("runs", docs);
    let out = args.out.clone().unwrap_or_else(|| dir.join("results.json"));
    match std::fs::write(&out, merged.pretty()) {
        Ok(()) => eprintln!("wrote {}", out.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if args.all {
        return run_all(&args);
    }
    match &args.workload {
        Some(name) => run_one(&args, name),
        None => usage("name a workload with --workload, or pass --all"),
    }
}
