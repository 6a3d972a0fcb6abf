//! `qoco-perfbench`: the end-to-end and per-layer benchmark of QOCO.
//!
//! ```text
//! qoco-perfbench --workload clean_soccer|serve_soccer
//!                [--seed N] --seconds S --trace 0|1 --server-bin PATH
//!                --work-dir DIR [--commit ID] [--flip N]
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds this binary
//! and `qoco-serve` first. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! See `perfbench/README.md` for what each workload and metric means.

mod clean;
mod inputs;
mod layers;
mod serve;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use inputs::Job;

/// The seed a run uses when none is given. Claims made while tuning on it
/// are confirmed on the held-out seed 7919 (see README.md).
const DEFAULT_SEED: u64 = 1;
/// Noise draws per query: each run averages over this many planted
/// databases per query, so its figures depend little on the seed.
const CLEAN_DRAWS: u64 = 5;
const SERVE_DRAWS: u64 = 6;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process `clean_view`.
    Clean,
    /// Sessions over the `/sessions` API.
    Serve,
}

pub struct Workload {
    pub kind: Kind,
    /// The sessions of one pass, in the order the client runs them.
    pub jobs: Vec<Job>,
}

pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    pub server_bin: PathBuf,
    pub work_dir: PathBuf,
    commit: String,
    flip: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<&str> {
        raw.iter()
            .position(|a| a == name)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
    };
    let number = |name: &str| -> Result<Option<u64>, String> {
        value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name} needs a whole number, got {v:?}"))
            })
            .transpose()
    };
    for (i, a) in raw.iter().enumerate() {
        let known = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--server-bin",
            "--work-dir",
            "--commit",
            "--flip",
        ];
        if a.starts_with("--") && !known.contains(&a.as_str()) {
            return Err(format!("unknown flag {a}"));
        }
        if a.starts_with("--") && raw.get(i + 1).is_none() {
            return Err(format!("{a} needs a value"));
        }
    }
    Ok(Args {
        workload: value("--workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: number("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: number("--seconds")?.ok_or("--seconds is required")?,
        trace: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace is 0 or 1, got {other:?}")),
        },
        server_bin: value("--server-bin")
            .ok_or("--server-bin is required")?
            .into(),
        work_dir: value("--work-dir").ok_or("--work-dir is required")?.into(),
        commit: value("--commit").unwrap_or("unknown").to_string(),
        flip: number("--flip")?.map(|n| n as usize),
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Generate the workload's inputs from the seed, transcripts included.
fn build(name: &str, seed: u64) -> Result<Workload, String> {
    let (kind, jobs) = match name {
        "clean_soccer" => (
            Kind::Clean,
            inputs::soccer_jobs(seed, CLEAN_DRAWS, &inputs::fig3c_strategies(seed))?,
        ),
        "serve_soccer" => (
            Kind::Serve,
            inputs::soccer_jobs(
                seed,
                SERVE_DRAWS,
                &[(
                    qoco::core::DeletionStrategy::Qoco,
                    qoco::core::SplitStrategyKind::Provenance,
                )],
            )?,
        ),
        other => {
            return Err(format!(
                "unknown workload {other:?} (clean_soccer, serve_soccer)"
            ))
        }
    };
    Ok(Workload { kind, jobs })
}

/// The `q`-quantile of `samples` (nearest rank).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Sessions attempted and failed, and why they failed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Count one session; `problem` says why it failed, if it did.
    pub fn record(&mut self, label: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.errors.push(format!("{label}: {p}"));
        }
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// The timing figures of each pass. A run reports each figure at its
/// better quartile over the passes: on a shared host, other work slows
/// some passes, and those fall in the worse three quarters.
#[derive(Default)]
struct PassFigures {
    answer_p50: Vec<f64>,
    answer_p99: Vec<f64>,
    create_p50: Vec<f64>,
    sessions_per_s: Vec<f64>,
}

impl PassFigures {
    /// `typical_ms` gives the pass's median answer wait, `answer_ms` its p99.
    fn push(
        &mut self,
        typical_ms: &[f64],
        answer_ms: &[f64],
        create_ms: &[f64],
        sessions_per_s: f64,
    ) {
        self.answer_p50.push(median(typical_ms));
        self.answer_p99.push(quantile(answer_ms, 0.99));
        self.create_p50.push(median(create_ms));
        self.sessions_per_s.push(sessions_per_s);
    }

    fn metrics(&self) -> [Metric; 4] {
        let fastest_quarter = |times: &[f64]| quantile(times, 0.25);
        [
            ("answer_p50_ms", fastest_quarter(&self.answer_p50), "ms"),
            ("answer_p99_ms", fastest_quarter(&self.answer_p99), "ms"),
            ("create_p50_ms", fastest_quarter(&self.create_p50), "ms"),
            (
                "sessions_per_s",
                quantile(&self.sessions_per_s, 0.75),
                "1/s",
            ),
        ]
    }
}

/// Measure end-to-end metrics: repeat passes until `seconds` have gone by.
fn run_untraced(args: &Args, w: &Workload, setup: f64) -> Result<(Vec<Metric>, Outcome), String> {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes = 0u64;
    let mut figures = PassFigures::default();
    let mut outcome = Outcome::default();
    let mut questions = 0u64;
    let (setup, peak_rss_mb) = match w.kind {
        Kind::Clean => {
            // Warm caches and lazy initialisation once, untimed.
            clean::run_pass(&w.jobs, &mut clean::CleanSamples::default());
            while passes == 0 || started.elapsed() < budget {
                let mut s = clean::CleanSamples::default();
                clean::run_pass(&w.jobs, &mut s);
                figures.push(
                    &s.session_wait_ms,
                    &s.gaps_ms,
                    &s.first_question_ms,
                    s.outcome.attempted as f64 / secs(s.session_time),
                );
                questions += s.questions;
                outcome.absorb(s.outcome);
                passes += 1;
            }
            (setup, serve::peak_rss_mb(std::process::id())?)
        }
        Kind::Serve => {
            let (mut starts, mut rss) = (Vec::new(), Vec::new());
            while passes == 0 || started.elapsed() < budget {
                let t = Instant::now();
                let server = serve::Server::start(
                    &args.server_bin,
                    args.work_dir.join(format!("store-{passes}")),
                )?;
                starts.push(secs(t.elapsed()));
                let mut s = serve::ClientSamples::default();
                let wall = serve::run_pass(
                    &serve::Http {
                        addr: server.addr.clone(),
                    },
                    &w.jobs,
                    &mut s,
                );
                rss.push(server.peak_rss_mb()?);
                drop(server);
                figures.push(
                    &s.answer_ms,
                    &s.answer_ms,
                    &s.create_ms,
                    s.outcome.attempted as f64 / secs(wall),
                );
                questions += s.answers;
                outcome.absorb(s.outcome);
                passes += 1;
            }
            (setup + median(&starts), median(&rss))
        }
    };
    let mut metrics = vec![
        ("setup_s", setup, "s"),
        ("questions", questions as f64 / passes as f64, "count"),
    ];
    metrics.extend(figures.metrics());
    metrics.push(("peak_rss_mb", peak_rss_mb, "MB"));
    println!(
        "perfbench: {passes} pass(es) in {:.2} s",
        secs(started.elapsed())
    );
    Ok((metrics, outcome))
}

fn run(args: &Args) -> Result<(Vec<Metric>, Outcome), String> {
    println!(
        "perfbench: workload={} seed={} trace={} nproc={} clients=1 rayon_threads={} commit={} profile={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc(),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "default".to_string()),
        args.commit,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        workload = Some(build(&args.workload, args.seed)?);
        setups.push(secs(t.elapsed()));
    }
    let mut w = workload.expect("at least one set-up");
    if let Some(n) = args.flip {
        inputs::flip_answer(&mut w.jobs, n)?;
    }
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let result = if args.trace {
        layers::run(args, &w)
    } else {
        run_untraced(args, &w, median(&setups))
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    result
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qoco-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (metrics, outcome) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qoco-perfbench: {e}");
            std::process::exit(1);
        }
    };
    for e in outcome.errors.iter().take(5) {
        eprintln!("qoco-perfbench: failed: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
}

/// JSON has no NaN or infinity; a metric that could not be measured is
/// printed as null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
