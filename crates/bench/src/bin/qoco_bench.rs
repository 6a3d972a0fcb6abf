//! `qoco-bench` — operational entry points for the bench harness.
//!
//! Subcommands:
//!
//! * `regressions` — re-run the eval scaling sweep and gate it against the
//!   committed `BENCH_eval.json` baseline (exit 1 on any regressed cell).
//!   `--quick` measures the CI-sized subset; `--check` suppresses all file
//!   writes; otherwise a summary line is appended to
//!   `BENCH_trajectory.jsonl`. `--inject-slowdown CELL=FACTOR` multiplies
//!   one measured cell after the fact — CI uses it to prove the gate trips.
//!   `--attribute` re-runs each regressed cell, folds a profile from its
//!   spans and names the top self-time frames in the failure message (and
//!   the trajectory line), turning "a cell regressed" into "this phase
//!   regressed".
//! * `profile CELL` — run one sweep cell for `--budget-ms` and write the
//!   folded stacks of its spans, weighted by self time in nanoseconds (or
//!   a flamegraph SVG with an `.svg` `--out`). `profile --diff BASE HEAD`
//!   compares two folded files frame by frame.
//! * `validate-trace FILE` — structurally validate an exported Chrome
//!   trace (array or object form), requiring any `--require-span NAME`
//!   spans.
//! * `validate-flamegraph FILE` — structurally validate a flamegraph SVG
//!   (frame groups, tooltips, in-canvas rects), requiring any
//!   `--require-frame NAME` frames.
//! * `validate-decisions FILE` — structurally validate the decision-
//!   provenance lines of a `--telemetry` JSONL export (unique positive
//!   ids, string evidence), requiring any `--require-kind NAME` kinds.
//! * `validate-sessions` — the serve-replay correctness gate: drive the
//!   Figure 1 session to completion, then rehydrate from every journal
//!   prefix (every possible `kill -9` point) and require a byte-identical
//!   final report, plus duplicate/out-of-order submission rejection.
//! * `validate-requests` — the request-provenance gate: strictly parse a
//!   serve run's `--access-log` JSONL (a corrupted line fails), then
//!   cross-check its request ids against the `serve.request` spans and
//!   decision records of `--telemetry` exports and the `r=` fields of
//!   `--journal` files. `--require-request ID` additionally demands the
//!   named id reached every layer.
//! * `watch-replay SERIES --rules FILE` — re-evaluate qoco-watch alert
//!   rules offline over the `"type":"sample"` lines of a `--telemetry`
//!   export and print the deterministic alert timeline. `--expect-fire
//!   RULE` / `--expect-resolve RULE` turn it into a CI gate (exit 1 when
//!   the named rule never fired / never resolved).

use std::process::ExitCode;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use qoco_bench::decision_check::validate_decisions;
use qoco_bench::flame_check::validate_flamegraph;
use qoco_bench::profile_cmd::{profile_cell, render_diff, top_frames_line};
use qoco_bench::regressions::{compare, load_baseline, DEFAULT_THRESHOLD};
use qoco_bench::scaling::{scaling_sweep, SweepConfig};
use qoco_bench::trace_check::validate_trace;
use qoco_bench::watch_replay::replay;
use qoco_telemetry::{fmt_ns, Profile};

fn repo_path(file: &str) -> String {
    format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: qoco-bench regressions [--quick] [--check] [--attribute] [--threshold X] \
         [--baseline FILE] [--inject-slowdown workload/size/engine=FACTOR]\n       \
         qoco-bench profile workload/size/current [--out FILE.folded|FILE.svg] \
         [--budget-ms N]\n       \
         qoco-bench profile --diff BASE.folded HEAD.folded [--min-delta PCT]\n       \
         qoco-bench validate-trace FILE [--require-span NAME]...\n       \
         qoco-bench validate-flamegraph FILE [--require-frame NAME]...\n       \
         qoco-bench validate-decisions FILE [--require-kind NAME]...\n       \
         qoco-bench validate-sessions\n       \
         qoco-bench validate-requests --access-log FILE... [--telemetry FILE]... \
         [--journal FILE]... [--require-request ID]...\n       \
         qoco-bench watch-replay SERIES --rules FILE [--expect-fire RULE]... \
         [--expect-resolve RULE]..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("regressions") => run_regressions(&args[1..]),
        Some("profile") => run_profile(&args[1..]),
        Some("validate-trace") => run_validate_trace(&args[1..]),
        Some("validate-flamegraph") => run_validate_flamegraph(&args[1..]),
        Some("validate-decisions") => run_validate_decisions(&args[1..]),
        Some("validate-sessions") => run_validate_sessions(&args[1..]),
        Some("validate-requests") => run_validate_requests(&args[1..]),
        Some("watch-replay") => run_watch_replay(&args[1..]),
        _ => usage(),
    }
}

fn run_validate_sessions(args: &[String]) -> ExitCode {
    if !args.is_empty() {
        return usage();
    }
    match qoco_bench::session_check::validate_sessions() {
        Ok(summary) => {
            println!(
                "serve-replay gate: {} answer(s), {} journal prefix(es) replayed \
                 byte-identically; duplicates and out-of-order submissions bounced",
                summary.answers, summary.prefixes
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serve-replay gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_validate_requests(args: &[String]) -> ExitCode {
    let mut access: Vec<String> = Vec::new();
    let mut telemetry: Vec<String> = Vec::new();
    let mut journals: Vec<String> = Vec::new();
    let mut require: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let bucket = match arg.as_str() {
            "--access-log" => &mut access,
            "--telemetry" => &mut telemetry,
            "--journal" => &mut journals,
            "--require-request" => &mut require,
            _ => return usage(),
        };
        match it.next() {
            Some(v) => bucket.push(v.clone()),
            None => return usage(),
        }
    }

    let read_all = |paths: &[String]| -> Result<Vec<(String, String)>, String> {
        paths
            .iter()
            .map(|p| {
                std::fs::read_to_string(p)
                    .map(|text| (p.clone(), text))
                    .map_err(|e| format!("cannot read {p}: {e}"))
            })
            .collect()
    };
    let outcome = read_all(&access).and_then(|access| {
        let telemetry = read_all(&telemetry)?;
        let journals = read_all(&journals)?;
        qoco_bench::request_check::validate_requests(&access, &telemetry, &journals, &require)
    });
    match outcome {
        Ok(summary) => {
            println!(
                "request-provenance gate: {} access line(s) over {} request id(s); \
                 {} serve.request span(s), {} journal record(s) and {} decision(s) \
                 cross-checked",
                summary.access_lines,
                summary.distinct_ids,
                summary.spans,
                summary.journal_tagged,
                summary.decisions_tagged
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: request-provenance gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_watch_replay(args: &[String]) -> ExitCode {
    let mut series = None;
    let mut rules_path = None;
    let mut expect_fire: Vec<String> = Vec::new();
    let mut expect_resolve: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rules" => match it.next() {
                Some(v) => rules_path = Some(v.clone()),
                None => return usage(),
            },
            "--expect-fire" => match it.next() {
                Some(v) => expect_fire.push(v.clone()),
                None => return usage(),
            },
            "--expect-resolve" => match it.next() {
                Some(v) => expect_resolve.push(v.clone()),
                None => return usage(),
            },
            _ if series.is_none() && !arg.starts_with('-') => series = Some(arg.clone()),
            _ => return usage(),
        }
    }
    let (Some(series), Some(rules_path)) = (series, rules_path) else {
        return usage();
    };

    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let outcome = read(&series)
        .and_then(|series_text| Ok((series_text, read(&rules_path)?)))
        .and_then(|(series_text, rules_text)| replay(&series_text, &rules_text));
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", outcome.report);

    let mut failed = false;
    for (expectation, rules, pick) in [
        ("fire", &expect_fire, 0usize),
        ("resolve", &expect_resolve, 1usize),
    ] {
        for rule in rules {
            match outcome.rule_counts(rule) {
                None => {
                    eprintln!("error: --expect-{expectation} names unknown rule `{rule}`");
                    failed = true;
                }
                Some(counts) => {
                    let n = [counts.0, counts.1][pick];
                    if n == 0 {
                        eprintln!(
                            "error: rule `{rule}` was expected to {expectation} but never did"
                        );
                        failed = true;
                    }
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn run_regressions(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut check = false;
    let mut attribute = false;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut baseline_path = repo_path("BENCH_eval.json");
    let mut injections: Vec<(String, f64)> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--attribute" => attribute = true,
            "--threshold" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => threshold = v,
                None => return usage(),
            },
            "--baseline" => match it.next() {
                Some(v) => baseline_path = v.clone(),
                None => return usage(),
            },
            "--inject-slowdown" => {
                let Some((cell, factor)) = it
                    .next()
                    .and_then(|v| v.split_once('='))
                    .and_then(|(c, f)| f.parse::<f64>().ok().map(|f| (c.to_string(), f)))
                else {
                    return usage();
                };
                injections.push((cell, factor));
            }
            _ => return usage(),
        }
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match load_baseline(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::full()
    };
    let mode = if quick { "quick" } else { "full" };
    eprintln!(
        "measuring {mode} sweep ({} eval sizes, 2 eval workloads + cleaning_sweep \
         at {} sizes)…",
        config.sizes.len(),
        config.cleaning_sizes.len()
    );
    let mut samples = scaling_sweep(&config);
    for (cell, factor) in &injections {
        let Some(s) = samples.iter_mut().find(|s| s.key() == *cell) else {
            eprintln!("error: --inject-slowdown cell {cell} was not measured in this sweep");
            return ExitCode::FAILURE;
        };
        eprintln!("injecting ×{factor} slowdown into {cell}");
        s.mean_ns *= factor;
    }

    let report = compare(&samples, &baseline, threshold);
    print!("{}", report.render());

    // Per-phase attribution: re-run each regressed cell, fold its spans
    // and name its hottest frames. An injected slowdown only multiplied a
    // recorded mean, so the re-run materializes it as real busy-wait time
    // inside an `inject.slowdown` span — the profile then names the
    // injected phase, which is what CI asserts.
    let mut attribution: Vec<(String, String)> = Vec::new();
    if attribute && !report.pass() {
        for cell in report.regressed_cells() {
            let inject_factor = injections
                .iter()
                .find(|(c, _)| *c == cell.key)
                .map(|(_, f)| *f);
            eprintln!(
                "attributing regression in {} (re-run with spans)…",
                cell.key
            );
            match profile_cell(&cell.key, Duration::from_millis(150), inject_factor) {
                Ok(profile) => {
                    let frames = top_frames_line(&profile, 3);
                    println!(
                        "attribution for {}: top regressed frames: {frames} ({} of span time)",
                        cell.key,
                        fmt_ns(profile.total)
                    );
                    attribution.push((cell.key.clone(), frames));
                }
                Err(e) => eprintln!("warning: could not attribute {}: {e}", cell.key),
            }
        }
    }

    if !check {
        let at_epoch_s = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let line = report.trajectory_line(at_epoch_s, mode, host_parallelism(), &attribution);
        let path = repo_path("BENCH_trajectory.jsonl");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                use std::io::Write;
                writeln!(f, "{line}")
            });
        match appended {
            Ok(()) => eprintln!("appended trajectory entry to {path}"),
            Err(e) => eprintln!("warning: could not append to {path}: {e}"),
        }
    }

    if report.pass() {
        println!(
            "regression gate: PASS ({} cells compared)",
            report.cells.len()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "regression gate: FAIL ({} of {} cells regressed)",
            report.cells.iter().filter(|c| c.regressed).count(),
            report.cells.len()
        );
        ExitCode::FAILURE
    }
}

fn run_profile(args: &[String]) -> ExitCode {
    // diff mode: compare two folded files, no measurement
    if args.first().map(String::as_str) == Some("--diff") {
        let mut min_delta = 0.02f64;
        let mut files: Vec<String> = Vec::new();
        let mut it = args[1..].iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--min-delta" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                    Some(v) => min_delta = v / 100.0,
                    None => return usage(),
                },
                _ if !arg.starts_with('-') => files.push(arg.clone()),
                _ => return usage(),
            }
        }
        let [base_path, head_path] = files.as_slice() else {
            return usage();
        };
        let load = |path: &str| -> Result<Profile, String> {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Profile::parse_folded(&text).map_err(|e| format!("{path}: {e}"))
        };
        match (load(base_path), load(head_path)) {
            (Ok(base), Ok(head)) => {
                print!("{}", render_diff(&base, &head, min_delta));
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        let mut cell = None;
        let mut out = None;
        let mut budget = Duration::from_millis(500);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out" => match it.next() {
                    Some(v) => out = Some(v.clone()),
                    None => return usage(),
                },
                "--budget-ms" => match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => budget = Duration::from_millis(v),
                    None => return usage(),
                },
                _ if cell.is_none() && !arg.starts_with('-') => cell = Some(arg.clone()),
                _ => return usage(),
            }
        }
        let Some(cell) = cell else { return usage() };

        eprintln!("profiling {cell} for {budget:?}…");
        let profile = match profile_cell(&cell, budget, None) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "folded {} stacks ({} of span time); top frames: {}",
            profile.counts().len(),
            fmt_ns(profile.total),
            top_frames_line(&profile, 3)
        );
        match out {
            Some(path) => {
                let rendered = if path.ends_with(".svg") {
                    profile.flamegraph_svg(&format!("qoco eval cell {cell}"))
                } else {
                    profile.to_folded()
                };
                if let Err(e) = std::fs::write(&path, rendered) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {path}");
            }
            None => print!("{}", profile.to_folded()),
        }
        ExitCode::SUCCESS
    }
}

fn run_validate_flamegraph(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut require_frames = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--require-frame" => match it.next() {
                Some(v) => require_frames.push(v.clone()),
                None => return usage(),
            },
            _ if file.is_none() && !arg.starts_with('-') => file = Some(arg.clone()),
            _ => return usage(),
        }
    }
    let Some(file) = file else { return usage() };

    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate_flamegraph(&text, &require_frames) {
        Ok(summary) => {
            println!(
                "{file}: valid flamegraph — {} frames, {} distinct names",
                summary.frames,
                summary.frame_names.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{file}: INVALID — {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_validate_trace(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut require_spans = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--require-span" => match it.next() {
                Some(v) => require_spans.push(v.clone()),
                None => return usage(),
            },
            _ if file.is_none() && !arg.starts_with('-') => file = Some(arg.clone()),
            _ => return usage(),
        }
    }
    let Some(file) = file else { return usage() };

    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate_trace(&text, &require_spans) {
        Ok(summary) => {
            println!(
                "{file}: valid Chrome trace — {} complete events on {} thread tracks, {} span names",
                summary.complete_events,
                summary.thread_tracks,
                summary.span_names.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{file}: INVALID — {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_validate_decisions(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut require_kinds = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--require-kind" => match it.next() {
                Some(v) => require_kinds.push(v.clone()),
                None => return usage(),
            },
            _ if file.is_none() && !arg.starts_with('-') => file = Some(arg.clone()),
            _ => return usage(),
        }
    }
    let Some(file) = file else { return usage() };

    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate_decisions(&text, &require_kinds) {
        Ok(summary) => {
            println!(
                "{file}: valid decision log — {} decision(s) across {} kind(s)",
                summary.decisions,
                summary.kinds.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{file}: INVALID — {e}");
            ExitCode::FAILURE
        }
    }
}
