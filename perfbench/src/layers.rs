//! The traced run: per-layer numbers, measured from outside the program.
//!
//! The benchmark times its own calls into public functions
//! (`SessionMachine`, `SessionStore`, `Database::clone`,
//! `MaterializedView::new`), its own `Oracle` and `RouteHandler`
//! wrappers, and reads the spans and counters the program already emits
//! through an `InMemoryCollector` and `SessionTimeline::attribution`.
//! Every workload reports every metric, measured on its own inputs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qoco::core::{SessionMachine, SessionSpec, SessionStore};
use qoco::crowd::JournalRecord;
use qoco::engine::MaterializedView;
use qoco::serve::{ServeOptions, SessionRegistry};
use qoco::telemetry::{self, InMemoryCollector, MetricsSnapshot, PhaseAttribution};

use crate::clean::{self, CleanSamples};
use crate::inputs::Job;
use crate::serve::{self, ClientSamples, Handled, Route, Timed};
use crate::{median, secs, Args, Kind, Metric, Outcome, Workload};

/// Every per-layer metric: name, unit, layer, and the end-to-end metric
/// (and workload) it should move.
pub const CATALOG: &[(&str, &str, &str, &str)] = &[
    ("crowd.q.verify_answer", "count", "crowd", "questions, every workload; must not change"),
    ("crowd.q.verify_fact", "count", "crowd", "questions, every workload; must not change"),
    ("crowd.q.satisfiable", "count", "crowd", "questions, every workload; must not change"),
    ("crowd.q.filled_vars", "count", "crowd", "questions, every workload; must not change"),
    ("crowd.q.complete_result", "count", "crowd", "questions, every workload; must not change"),
    ("crowd.oracle_us", "us", "crowd", "none: guards that the simulator stays out of timed loops"),
    ("core.deletion_ms", "ms", "core", "answer_p50_ms, sessions_per_s on clean_soccer; answer_* on serve_soccer"),
    ("core.insertion_ms", "ms", "core", "answer_p50_ms, sessions_per_s on clean_soccer; answer_* on serve_soccer"),
    ("core.witnesses_enumerated", "count", "core", "answer_p50_ms, sessions_per_s on clean_soccer; answer_* on serve_soccer"),
    ("core.splits_generated", "count", "core", "answer_p50_ms, sessions_per_s on clean_soccer; answer_* on serve_soccer"),
    ("engine.eval_ms", "ms", "engine", "answer_p50_ms, sessions_per_s on clean_soccer; answer_* on serve_soccer"),
    ("engine.view_delta_ms", "ms", "engine", "answer_p50_ms, sessions_per_s on clean_soccer; answer_* on serve_soccer"),
    ("engine.witness_ms", "ms", "engine", "answer_p50_ms, sessions_per_s on clean_soccer; answer_* on serve_soccer"),
    ("engine.assignments_tried", "count", "engine", "answer_p50_ms, sessions_per_s on clean_soccer; answer_* on serve_soccer"),
    ("engine.probe_hits", "count", "engine", "answer_p50_ms, sessions_per_s on clean_soccer; answer_* on serve_soccer"),
    ("engine.index_rebuilds", "count", "engine", "answer_p50_ms, sessions_per_s on clean_soccer; answer_* on serve_soccer"),
    ("engine.view_full_refreshes", "count", "engine", "answer_p50_ms, sessions_per_s on clean_soccer; answer_* on serve_soccer"),
    ("engine.view_build_ms", "ms", "engine", "answer_p50_ms on serve_soccer"),
    ("data.db_clone_ms", "ms", "data", "answer_p50_ms on serve_soccer"),
    ("machine.submit_ms_p50", "ms", "core.machine", "answer_*, create_p50_ms on serve_soccer; nothing on clean_soccer"),
    ("machine.new_ms", "ms", "core.machine", "create_p50_ms on serve_soccer; nothing on clean_soccer"),
    ("machine.replayed_answers", "count", "core.machine", "answer_* on serve_soccer; nothing on clean_soccer"),
    ("machine.step_growth", "ratio", "core.machine", "answer_p99_ms on serve_soccer; nothing on clean_soccer"),
    ("store.append_us_p50", "us", "core.store", "answer_p50_ms on serve_soccer"),
    ("store.create_ms", "ms", "core.store", "create_p50_ms on serve_soccer"),
    ("store.bytes_per_answer", "B", "core.store", "answer_p50_ms on serve_soccer"),
    ("serve.handle_answers_ms_p50", "ms", "serve", "answer_* on serve_soccer"),
    ("serve.handle_create_ms_p50", "ms", "serve", "create_p50_ms on serve_soccer"),
    ("serve.response_bytes", "B", "serve", "answer_*, peak_rss_mb on serve_soccer"),
    ("serve.registry_sessions", "count", "serve", "peak_rss_mb on serve_soccer"),
    ("http.overhead_ms_p50", "ms", "telemetry", "sessions_per_s on serve_soccer"),
    ("telemetry.spans_per_answer", "count", "telemetry", "peak_rss_mb on serve_soccer"),
    ("telemetry.trace_overhead", "ratio", "telemetry", "none: traced / untraced headline (sessions_per_s time on clean_soccer, answer_p50_ms on serve_soccer)"),
];

fn ms(d: Duration) -> f64 {
    secs(d) * 1e3
}

/// Spans and counters from one traced section.
struct Trace {
    attribution: BTreeMap<&'static str, PhaseAttribution>,
    snapshot: MetricsSnapshot,
    spans: usize,
}

/// Run `f` with an in-memory collector installed.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let collector = Arc::new(InMemoryCollector::new());
    let guard = telemetry::session(collector.clone());
    let out = f();
    let snapshot = telemetry::metrics().snapshot();
    drop(guard);
    let timeline = collector.timeline(Vec::new(), snapshot.clone());
    let trace = Trace {
        attribution: timeline.attribution(),
        spans: timeline.spans().len(),
        snapshot,
    };
    (out, trace)
}

impl Trace {
    fn self_ms(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .filter_map(|n| self.attribution.get(n))
            .fold(0.0, |total, a| total + a.self_ns as f64 / 1e6)
    }

    fn counter(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .fold(0.0, |total, n| total + self.snapshot.counter(n) as f64)
    }
}

/// A registry on a fresh store under the work directory, behind the
/// benchmark's timing wrapper.
fn registry(args: &Args, tag: &str) -> Result<Timed<SessionRegistry>, String> {
    let store = SessionStore::open(args.work_dir.join(tag)).map_err(|e| e.to_string())?;
    Ok(Timed {
        inner: SessionRegistry::open(store, ServeOptions::default()).map_err(|e| e.to_string())?,
        log: Mutex::new(Vec::new()),
    })
}

fn handled(log: &Mutex<Vec<Handled>>, route: Route) -> Vec<f64> {
    log.lock()
        .expect("no thread panics while holding the log")
        .iter()
        .filter(|h| h.route == route)
        .map(|h| h.ms)
        .collect()
}

fn spec_of(job: &Job) -> SessionSpec {
    SessionSpec {
        query: job.query.clone(),
        dirty: (*job.dirty).clone(),
        config: job.config,
        deadline_ms: None,
    }
}

/// Median of `reps` timings of `f`, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// `SessionMachine` driven directly over a pass's sessions.
struct MachineProbe {
    new_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    /// Answers replayed across all steps.
    replayed: u64,
    /// Mean of the last submits over the first, on the longest session.
    step_growth: f64,
    /// Each session's journal, for the store probe.
    logs: Vec<Vec<JournalRecord>>,
    outcome: Outcome,
}

fn machine_probe(jobs: &[Job]) -> MachineProbe {
    let mut p = MachineProbe {
        new_ms: Vec::new(),
        submit_ms: Vec::new(),
        replayed: 0,
        step_growth: f64::NAN,
        logs: Vec::new(),
        outcome: Outcome::default(),
    };
    let mut longest: Vec<f64> = Vec::new();
    for job in jobs {
        let t = Instant::now();
        let mut m = SessionMachine::new(spec_of(job));
        p.new_ms.push(ms(t.elapsed()));
        let mut series = Vec::new();
        let mut problem = None;
        while let Some(pending) = m.pending() {
            let seq = pending.seq;
            let Some((_, answer)) = job
                .transcript
                .get(seq as usize - 1)
                .filter(|(kind, _)| *kind == pending.kind)
            else {
                problem = Some(format!(
                    "SessionMachine question {seq} departs from the transcript"
                ));
                break;
            };
            let t = Instant::now();
            let submitted = m.submit(seq, Ok(answer.clone()));
            series.push(ms(t.elapsed()));
            p.replayed += m.log().len() as u64;
            if let Err(e) = submitted {
                problem = Some(format!("SessionMachine rejected answer {seq}: {e}"));
                break;
            }
        }
        if problem.is_none()
            && m.finished().map(|f| f.report.to_string()).as_ref() != Some(&job.report)
        {
            problem = Some("SessionMachine report differs from the recorded one".to_string());
        }
        p.outcome.record(&job.label, problem);
        p.submit_ms.extend(&series);
        if series.len() > longest.len() {
            longest = series;
        }
        p.logs.push(m.log().to_vec());
    }
    let window = (longest.len() / 2).clamp(1, 10);
    p.step_growth = mean(&longest[longest.len().saturating_sub(window)..])
        / mean(&longest[..window.min(longest.len())]);
    p
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// `SessionStore::create` and `append_answer` on a scratch store: returns
/// the create and append timings and the journal bytes written.
fn store_probe(
    args: &Args,
    jobs: &[Job],
    logs: &[Vec<JournalRecord>],
) -> Result<(Vec<f64>, Vec<f64>, u64), String> {
    let dir = args.work_dir.join("store-probe");
    let store = SessionStore::open(&dir).map_err(|e| e.to_string())?;
    let (mut create_ms, mut append_us, mut bytes) = (Vec::new(), Vec::new(), 0);
    for (i, (job, log)) in jobs.iter().zip(logs).enumerate() {
        let id = format!("p{i}");
        let spec = spec_of(job);
        let t = Instant::now();
        store.create(&id, &spec).map_err(|e| e.to_string())?;
        create_ms.push(ms(t.elapsed()));
        for record in log {
            let t = Instant::now();
            store
                .append_answer(&id, record)
                .map_err(|e| e.to_string())?;
            append_us.push(secs(t.elapsed()) * 1e6);
        }
        bytes += std::fs::metadata(dir.join(&id).join("session.journal"))
            .map_err(|e| e.to_string())?
            .len();
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((create_ms, append_us, bytes))
}

/// Mean over the pass's distinct inputs of the median time of `f`.
fn per_input_ms(jobs: &[Job], f: impl Fn(&Job)) -> f64 {
    let mut distinct: Vec<&Job> = Vec::new();
    for job in jobs {
        if !distinct.iter().any(|d| Arc::ptr_eq(&d.dirty, &job.dirty)) {
            distinct.push(job);
        }
    }
    let samples: Vec<f64> = distinct.iter().map(|j| time_ms(5, || f(j))).collect();
    mean(&samples)
}

/// One in-process pass through the registry; returns its wrapper (with
/// the handler timings) and the client samples.
fn registry_pass(
    args: &Args,
    w: &Workload,
    tag: &str,
) -> Result<(Timed<SessionRegistry>, ClientSamples), String> {
    let reg = registry(args, tag)?;
    let mut samples = ClientSamples::default();
    serve::run_pass(&reg, &w.jobs, &mut samples);
    Ok((reg, samples))
}

pub fn run(args: &Args, w: &Workload) -> Result<(Vec<Metric>, Outcome), String> {
    let jobs = &w.jobs;
    let mut outcome = Outcome::default();

    // crowd, and core/engine on clean_soccer: the in-process cleaner,
    // untraced (after an untimed warm-up pass) and traced.
    clean::run_pass(jobs, &mut CleanSamples::default());
    let mut plain = CleanSamples::default();
    clean::run_pass(jobs, &mut plain);
    let (cs, clean_trace) = traced(|| {
        let mut s = CleanSamples::default();
        clean::run_pass(jobs, &mut s);
        s
    });
    let questions = cs.questions.max(1) as f64;
    outcome.absorb(plain.outcome);

    let machine = machine_probe(jobs);
    let (create_ms, append_us, journal_bytes) = store_probe(args, jobs, &machine.logs)?;
    let view_build = per_input_ms(jobs, |j| {
        std::hint::black_box(MaterializedView::new(j.query.clone(), &j.dirty));
    });
    let db_clone = per_input_ms(jobs, |j| drop(std::hint::black_box((*j.dirty).clone())));

    // serve: the registry in-process behind the benchmark's RouteHandler
    // wrapper, untraced (after a warm-up pass) and traced. qoco-serve
    // always runs with an in-memory collector, so the traced handler times
    // are the ones the server pays.
    registry_pass(args, w, "registry-warm")?;
    let (plain_reg, ps) = registry_pass(args, w, "registry-plain")?;
    let plain_answer_p50 = median(&handled(&plain_reg.log, Route::Answer));
    drop(plain_reg);
    let (traced_pass, serve_trace) = traced(|| registry_pass(args, w, "registry-traced"));
    let (reg, ts) = traced_pass?;
    let handler_answer_p50 = median(&handled(&reg.log, Route::Answer));
    let response_bytes = {
        let log = reg
            .log
            .lock()
            .expect("no thread panics while holding the log");
        mean(&log.iter().map(|h| h.bytes as f64).collect::<Vec<_>>())
    };

    // telemetry: one pass over loopback HTTP, for the transport's share.
    let server = serve::Server::start(&args.server_bin, args.work_dir.join("store-http"))?;
    let mut hs = ClientSamples::default();
    let http = serve::Http {
        addr: server.addr.clone(),
    };
    serve::run_pass(&http, jobs, &mut hs);
    drop(server);

    // core and engine come from the path the workload itself takes.
    let (trace, spans_per_answer, trace_overhead) = match w.kind {
        Kind::Clean => (
            &clean_trace,
            clean_trace.spans as f64 / questions,
            secs(cs.session_time) / secs(plain.session_time),
        ),
        Kind::Serve => (
            &serve_trace,
            serve_trace.spans as f64 / ts.answers.max(1) as f64,
            handler_answer_p50 / plain_answer_p50,
        ),
    };
    let stats = cs.stats;
    let metrics: Vec<(&str, f64)> = vec![
        (
            "crowd.q.verify_answer",
            stats.verify_answer_questions as f64,
        ),
        ("crowd.q.verify_fact", stats.verify_fact_questions as f64),
        ("crowd.q.satisfiable", stats.satisfiable_questions as f64),
        ("crowd.q.filled_vars", stats.filled_variables as f64),
        (
            "crowd.q.complete_result",
            stats.complete_result_tasks as f64,
        ),
        ("crowd.oracle_us", secs(cs.oracle_time) * 1e6 / questions),
        (
            "core.deletion_ms",
            trace.self_ms(&["clean.deletion_phase", "deletion.remove_answer"]),
        ),
        (
            "core.insertion_ms",
            trace.self_ms(&["clean.insertion_phase", "insertion.add_answer"]),
        ),
        (
            "core.witnesses_enumerated",
            trace.counter(&["deletion.witnesses_enumerated"]),
        ),
        (
            "core.splits_generated",
            trace.counter(&["insertion.splits_generated"]),
        ),
        (
            "engine.eval_ms",
            trace.self_ms(&["eval.assignments", "eval.par_chunk", "eval.satisfiable"]),
        ),
        (
            "engine.view_delta_ms",
            trace.self_ms(&["view.apply_edit", "monitor.apply_edit"]),
        ),
        (
            "engine.witness_ms",
            trace.self_ms(&["engine.witnesses", "engine.why_not"]),
        ),
        (
            "engine.assignments_tried",
            trace.counter(&["eval.assignments_tried"]),
        ),
        (
            "engine.probe_hits",
            trace.counter(&["eval.probe_hits", "eval.delta_probe_hits"]),
        ),
        (
            "engine.index_rebuilds",
            trace.counter(&["eval.index_rebuilds"]),
        ),
        (
            "engine.view_full_refreshes",
            trace.counter(&["view.full_refreshes"]),
        ),
        ("engine.view_build_ms", view_build),
        ("data.db_clone_ms", db_clone),
        ("machine.submit_ms_p50", median(&machine.submit_ms)),
        ("machine.new_ms", median(&machine.new_ms)),
        ("machine.replayed_answers", machine.replayed as f64),
        ("machine.step_growth", machine.step_growth),
        ("store.append_us_p50", median(&append_us)),
        ("store.create_ms", median(&create_ms)),
        (
            "store.bytes_per_answer",
            journal_bytes as f64 / append_us.len().max(1) as f64,
        ),
        ("serve.handle_answers_ms_p50", handler_answer_p50),
        (
            "serve.handle_create_ms_p50",
            median(&handled(&reg.log, Route::Create)),
        ),
        ("serve.response_bytes", response_bytes),
        ("serve.registry_sessions", reg.inner.active() as f64),
        (
            "http.overhead_ms_p50",
            median(&hs.answer_ms) - plain_answer_p50,
        ),
        ("telemetry.spans_per_answer", spans_per_answer),
        ("telemetry.trace_overhead", trace_overhead),
    ];
    for o in [
        cs.outcome,
        machine.outcome,
        ps.outcome,
        ts.outcome,
        hs.outcome,
    ] {
        outcome.absorb(o);
    }
    let mut out = Vec::new();
    for (name, value) in metrics {
        let &(name, unit, layer, moves) = CATALOG
            .iter()
            .find(|c| c.0 == name)
            .expect("every metric is in the catalog");
        println!("layer {layer:<13} {name:<28} {value:>14.4} {unit:<6} moves: {moves}");
        out.push((name, value, unit));
    }
    Ok((out, outcome))
}
