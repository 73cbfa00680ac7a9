//! Runs one workload and turns its samples into the named metrics.
//!
//! A run is: set-up (build the workload and execute the checked cold pass)
//! repeated [`setup_reps`] times so `setup_s` is a median, then timed warm
//! passes until `--seconds` have elapsed. Both are on-CPU time of the
//! load-generating thread (`clock.rs`); wall time is reported beside them.
//! `cpu_s` is the sum over cells of each cell's smallest time across the
//! timed passes (on a shared host interference only adds time, see
//! [`Summary::min`]); the sum of medians is reported beside it. With
//! tracing on, timed passes alternate untraced/traced so the overhead of
//! tracing is read off the same process.

use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::clock::Stopwatch;
use crate::json::Json;
use crate::pins::{self, PinReport};
use crate::stats::{summarize, Summary};
use crate::trace::{Layer, Tracer};
use crate::workloads::{self, CellRun, ChaosRecord, Evictor, Workload};

/// How many times set-up runs in one process; `setup_s` is the median.
/// The two app workloads whose cold pass alone takes 4–6 s set up once:
/// the run-time budget affords no more, and their `setup_s` is steadied by
/// the median over runs and the 25 % bound instead.
fn setup_reps(workload: &str) -> usize {
    match workload {
        "apps_mlp" | "apps_graph" => 1,
        "apps_fused" | "chaos_small" => 3,
        _ => 5,
    }
}

pub struct CellReport {
    pub id: String,
    /// Timed-pass on-CPU time per execution, ms (untraced passes only).
    pub cpu_ms: Summary,
    /// The same executions on the wall clock.
    pub wall_ms: Summary,
    /// On-CPU time of the cell under tracing (traced runs only).
    pub traced_cpu_ms: Option<Summary>,
    /// The cold pass's record: modeled time, output check, recovery record.
    pub cold: CellRun,
}

pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub passes: usize,
    /// Set-up on the CPU clock, and the same repetitions on the wall clock.
    pub setup_s: Summary,
    pub setup_wall_s: Summary,
    pub cells: Vec<CellReport>,
    pub peak_rss_mb: f64,
    /// Cell executions over every pass, and how many failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub failures: Vec<String>,
    pub pins: PinReport,
    pub plan_cache: Option<pidcomm::PlanCacheStats>,
}

impl RunResult {
    /// Σ over cells of the cell's smallest on-CPU time, seconds.
    pub fn cpu_s(&self) -> f64 {
        self.cells.iter().map(|c| c.cpu_ms.min).sum::<f64>() / 1e3
    }

    /// Σ over cells of the cell's median on-CPU time, seconds — what a pass
    /// costs with this run's share of cache interference included.
    pub fn cpu_median_s(&self) -> f64 {
        self.cells.iter().map(|c| c.cpu_ms.median).sum::<f64>() / 1e3
    }

    /// Σ over cells of the cell's median wall time, seconds — what a pass
    /// took on this machine in this hour, stolen time and all.
    pub fn wall_median_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_ms.median).sum::<f64>() / 1e3
    }

    /// Quartile sums — how far this run's passes spread above `cpu_s`.
    pub fn cpu_s_quartiles(&self) -> (f64, f64) {
        let q1: f64 = self.cells.iter().map(|c| c.cpu_ms.q1).sum();
        let q3: f64 = self.cells.iter().map(|c| c.cpu_ms.q3).sum();
        (q1 / 1e3, q3 / 1e3)
    }

    /// Σ of modeled time over the cells of one pass, in fixed cell order.
    pub fn modeled_ms(&self) -> f64 {
        self.cells
            .iter()
            .fold(0.0, |acc, c| acc + c.cold.modeled_ns)
            / 1e6
    }

    /// Cells of one pass that did not finish with a validated result.
    pub fn ops_failed(&self) -> usize {
        self.cells.iter().filter(|c| !c.cold.completed).count()
    }

    pub fn failed_share(&self) -> f64 {
        self.ops_failed() as f64 / self.cells.len() as f64
    }

    /// Simulated milliseconds advanced per on-CPU host second.
    pub fn sim_ms_per_host_s(&self) -> f64 {
        self.modeled_ms() / self.cpu_s()
    }

    /// Traced vs untraced `cpu_s`, percent (traced runs only).
    pub fn trace_overhead_pct(&self) -> Option<f64> {
        let traced: Option<f64> = self
            .cells
            .iter()
            .map(|c| c.traced_cpu_ms.as_ref().map(|s| s.min))
            .sum();
        traced.map(|t| 100.0 * (t / 1e3 - self.cpu_s()) / self.cpu_s())
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Counts one pass: every cell is an attempt; a cell fails on its own
    /// output check, or when a deterministic quantity differs from the cold
    /// pass (modeled bits, recovery record).
    fn pass(&mut self, ids: &[String], runs: &[CellRun], cold: Option<&[CellRun]>) {
        for (i, run) in runs.iter().enumerate() {
            self.attempted += 1;
            if let Some(why) = &run.failure {
                self.fail(format!("{}: {why}", ids[i]));
            } else if let Some(cold) = cold {
                if run.modeled_ns.to_bits() != cold[i].modeled_ns.to_bits() {
                    self.fail(format!("{}: modeled time differs between passes", ids[i]));
                } else if run.chaos != cold[i].chaos {
                    self.fail(format!(
                        "{}: recovery record differs between passes",
                        ids[i]
                    ));
                }
            }
        }
    }
}

/// Runs `name` at `seed` for `seconds` of timed passes.
///
/// Returns `None` for an unknown workload name.
pub fn run_workload(name: &str, seed: u64, seconds: f64, tr: &mut Tracer) -> Option<RunResult> {
    let traced = tr.is_on();
    let mut tally = Tally::default();

    // Made before set-up and kept until exit, so that its bytes sit under
    // the process's peak and can be taken off it exactly.
    let evictor = workloads::evicts(name).then(|| Rc::new(Evictor::new()));

    // Set-up, repeated. Each repetition drops the previous workload first,
    // so peak RSS is one workload's, and starts from a fresh arena, an
    // empty plan cache and untouched MRAM.
    let reps = if traced { 1 } else { setup_reps(name) };
    let (mut setup_cpu, mut setup_wall) = (Vec::new(), Vec::new());
    let mut state: Option<(Box<dyn Workload>, Vec<CellRun>)> = None;
    for rep in 0..reps {
        drop(state.take());
        tr.set_pass(rep as u32);
        let sw = Stopwatch::start();
        let span = tr.enter("setup", Layer::Harness);
        let mut w = workloads::build(name, seed, evictor.clone(), tr)?;
        let cold = w.pass(tr, true);
        tr.exit(span);
        let took = sw.stop();
        setup_cpu.push(took.cpu_ns as f64 / 1e9);
        setup_wall.push(took.wall_ns as f64 / 1e9);
        tally.pass(w.cells(), &cold, None);
        state = Some((w, cold));
    }
    let (mut w, cold) = state.expect("at least one set-up repetition");
    let ids = w.cells().to_vec();
    let plan_cache = w.plan_cache();

    // Output pins: modeled bits of every cell (and recovery records) at
    // the default seed; only the data-independent workloads elsewhere.
    let pins = pins::check(name, seed, &ids, &cold);
    for m in &pins.chaos_mismatches {
        tally.fail(m.clone());
    }

    // Timed passes. Traced runs alternate untraced/traced passes.
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    let mut plain_wall: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    let mut under_trace: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    let mut passes = 0;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    loop {
        for trace_this in [false, true] {
            if trace_this && !traced {
                continue;
            }
            tr.set_on(trace_this);
            tr.set_pass(reps as u32 + passes as u32);
            let span = tr.enter("pass", Layer::Harness);
            let runs = w.pass(tr, false);
            tr.exit(span);
            tally.pass(&ids, &runs, Some(&cold));
            let sink = if trace_this {
                &mut under_trace
            } else {
                &mut plain
            };
            for (samples, run) in sink.iter_mut().zip(&runs) {
                samples.push(run.cpu_ns as f64 / 1e6);
            }
            if !trace_this {
                for (samples, run) in plain_wall.iter_mut().zip(&runs) {
                    samples.push(run.wall_ns as f64 / 1e6);
                }
            }
        }
        passes += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    tr.set_on(traced);

    let cells = ids
        .into_iter()
        .zip(cold)
        .enumerate()
        .map(|(i, (id, cold))| CellReport {
            id,
            cpu_ms: summarize(&plain[i]),
            wall_ms: summarize(&plain_wall[i]),
            traced_cpu_ms: traced.then(|| summarize(&under_trace[i])),
            cold,
        })
        .collect();
    Some(RunResult {
        workload: name.to_string(),
        seed,
        seconds,
        passes,
        setup_s: summarize(&setup_cpu),
        setup_wall_s: summarize(&setup_wall),
        cells,
        peak_rss_mb: peak_rss_mb()
            - evictor.map_or(0.0, |_| Evictor::BYTES as f64 / f64::from(1 << 20)),
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        pins,
        plan_cache,
    })
}

fn summary_json(s: &Summary) -> Json {
    let j = Json::obj()
        .with("median", s.median)
        .with("min", s.min)
        .with("q1", s.q1)
        .with("q3", s.q3)
        .with("n", s.n);
    match s.tail {
        Some((p, v)) => j.with("tail_pct", p).with("tail", v),
        None => j,
    }
}

fn chaos_json(c: &ChaosRecord) -> Json {
    Json::obj()
        .with("outcome", c.outcome)
        .with("retries", u64::from(c.retries))
        .with("backoff_epochs", c.backoff_epochs)
        .with("restores", c.restores)
        .with("quarantined", c.quarantined)
        .with("mismatched", c.mismatched)
        .with("validated", c.validated)
}

fn metric(value: f64, unit: &str, q1: f64, q3: f64, n: usize) -> Json {
    Json::obj()
        .with("value", value)
        .with("unit", unit)
        .with("q1", q1)
        .with("q3", q3)
        .with("n", n)
}

fn exact(value: f64, unit: &str) -> Json {
    Json::obj()
        .with("value", value)
        .with("unit", unit)
        .with("bits", format!("{:016x}", value.to_bits()))
}

impl RunResult {
    /// The run's end-to-end metrics by name. The first four are the noisy
    /// host-side metrics `BENCHMARK.json` bounds; the rest are exact.
    pub fn end_to_end(&self) -> Json {
        let (q1, q3) = self.cpu_s_quartiles();
        let cpu = self.cpu_s();
        // One to five set-up repetitions, the first of them process-cold,
        // carry no usable quartiles: `setup_s` gets its spread from several
        // runs (`--compare` on files holding four or more), not from one.
        let s = &self.setup_s;
        let rss = self.peak_rss_mb;
        let rate = self.sim_ms_per_host_s();
        let modeled = self.modeled_ms();
        Json::obj()
            .with(
                "cpu_s",
                metric(cpu, "s", q1, q3, self.passes)
                    .with("median", self.cpu_median_s())
                    .with("wall_median", self.wall_median_s()),
            )
            .with(
                "setup_s",
                metric(s.median, "s", s.median, s.median, s.n)
                    .with("wall_median", self.setup_wall_s.median),
            )
            .with("peak_rss_mb", metric(rss, "MB", rss, rss, 1))
            .with(
                "sim_ms_per_host_s",
                // Quartiles swap: the rate is highest where wall is lowest.
                metric(rate, "ms/s", modeled / q3, modeled / q1, self.passes),
            )
            .with("modeled_ms", exact(modeled, "sim-ms"))
            .with("failed_share", exact(self.failed_share(), "ratio"))
            .with("ops_attempted", exact(self.cells.len() as f64, "count"))
            .with("ops_failed", exact(self.ops_failed() as f64, "count"))
    }

    pub fn to_json(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                let mut j = Json::obj()
                    .with("id", c.id.as_str())
                    .with("cpu_ms", summary_json(&c.cpu_ms))
                    .with("wall_ms", summary_json(&c.wall_ms));
                if let Some(t) = &c.traced_cpu_ms {
                    j = j.with("traced_cpu_ms", summary_json(t));
                }
                j = j
                    .with("cold_wall_ms", c.cold.wall_ns as f64 / 1e6)
                    .with("modeled_ns", c.cold.modeled_ns)
                    .with(
                        "modeled_bits",
                        format!("{:016x}", c.cold.modeled_ns.to_bits()),
                    )
                    .with("completed", c.cold.completed)
                    .with("failure", c.cold.failure.clone());
                if let Some(comm) = c.cold.comm_ns {
                    j = j.with("comm_share", comm / c.cold.modeled_ns);
                }
                match &c.cold.chaos {
                    Some(chaos) => j.with("recovery", chaos_json(chaos)),
                    None => j,
                }
            })
            .collect();
        let mut j = Json::obj()
            .with("workload", self.workload.as_str())
            .with("seed", self.seed)
            .with("seconds", self.seconds)
            .with("passes", self.passes)
            .with("threads", workloads::THREADS)
            .with(
                "nproc",
                std::thread::available_parallelism().map_or(0, usize::from),
            )
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "failures",
                self.failures
                    .iter()
                    .map(|f| f.as_str().into())
                    .collect::<Vec<Json>>(),
            )
            .with("metrics", self.end_to_end())
            .with("setup_samples_s", summary_json(&self.setup_s))
            .with("pins", self.pins.to_json());
        if let Some(pc) = &self.plan_cache {
            j = j.with(
                "plan_cache",
                Json::obj().with("hits", pc.hits).with("misses", pc.misses),
            );
        }
        j.with("cells", cells)
    }
}
