//! `qoco-serve` — the resumable cleaning-session service.
//!
//! ```text
//! qoco-serve serve  --addr 127.0.0.1:0 --store DIR [--max-sessions N]
//!                   [--deadline-ms N] [--reap-interval-ms N]
//!                   [--access-log PATH] [--telemetry PATH]
//!                   [--watch-tick MS] [--watch-rules FILE]
//! qoco-serve oracle --addr HOST:PORT --session ID [--example figure1]
//!                   [--request-id ID]
//! ```
//!
//! `serve` binds the HTTP API (plus the usual `/metrics`, `/health`,
//! `/dashboard` routes), rehydrates any sessions already in the store —
//! the crash-recovery path — and prints the bound address on stdout.
//!
//! `oracle` plays the crowd for a session created from a named example:
//! it mirrors the session's deterministic state machine locally, answers
//! the mirror's questions with a perfect oracle over the example's ground
//! truth, and submits each answer over HTTP. Because cleaning is a
//! deterministic function of the answer sequence, the mirror's question
//! at seq *n* is the server's question at seq *n* — even across server
//! restarts — so the helper never needs to deserialize questions from
//! the wire.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use qoco::core::{SessionMachine, SessionState};
use qoco::crowd::{Answer, Oracle, PerfectOracle};
use qoco::serve::{encode_answer, figure1_ground, figure1_spec, ServeOptions, SessionRegistry};
use qoco_core::SessionStore;
use qoco_telemetry::json::Json;
use qoco_telemetry::{Collector, EventRecord, MetricsServer, ServerOptions, SpanRecord};

fn usage() -> ! {
    eprintln!(
        "usage:\n  qoco-serve serve  --addr HOST:PORT --store DIR [--max-sessions N] \
         [--deadline-ms N] [--reap-interval-ms N] [--access-log PATH] [--telemetry PATH] \
         [--watch-tick MS] [--watch-rules FILE]\n  \
         qoco-serve oracle --addr HOST:PORT --session ID [--example figure1] [--request-id ID]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let result = match cmd.as_str() {
        "serve" => cmd_serve(&args[1..]),
        "oracle" => cmd_oracle(&args[1..]),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("qoco-serve: {e}");
        std::process::exit(1);
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// A sink that retains nothing: installing it turns counters and gauges on
/// without keeping any span, event or decision.
struct Discard;

impl Collector for Discard {
    fn record_span(&self, _: &SpanRecord) {}
    fn record_event(&self, _: &EventRecord) {}
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:0");
    let store_dir = flag_value(args, "--store").ok_or("serve needs --store DIR")?;
    let mut options = ServeOptions::default();
    if let Some(n) = flag_value(args, "--max-sessions") {
        options.max_sessions = n.parse().map_err(|_| "--max-sessions must be an integer")?;
    }
    if let Some(n) = flag_value(args, "--deadline-ms") {
        options.default_deadline_ms = n.parse().map_err(|_| "--deadline-ms must be an integer")?;
    }
    let reap_interval: u64 = flag_value(args, "--reap-interval-ms")
        .unwrap_or("1000")
        .parse()
        .map_err(|_| "--reap-interval-ms must be an integer")?;

    // Counters and gauges (sessions.parked, serve.rejected, …) only record
    // under an installed telemetry session. With --telemetry the session
    // streams its spans, events and decisions to a JSONL file whose
    // per-line flushes survive a kill -9; without it they are discarded,
    // because a long-running server must not retain a record per request.
    let sink: std::sync::Arc<dyn Collector> = match flag_value(args, "--telemetry") {
        Some(path) => std::sync::Arc::new(
            qoco_telemetry::JsonlCollector::create_write_through(path)
                .map_err(|e| format!("cannot open telemetry log {path}: {e}"))?,
        ),
        None => std::sync::Arc::new(Discard),
    };
    let _telemetry = qoco_telemetry::session(sink);

    // A server is long-running, so the qoco-watch sampler is on by
    // default: it is what feeds the `/dashboard` route sparklines and the
    // `/api/timeseries` windows from the serve.* RED metrics. `--watch-rules`
    // additionally arms SLO alerts (e.g. `p95(serve.latency_ns.report) > …`)
    // on `/alerts`.
    let watch_rules = match flag_value(args, "--watch-rules") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("--watch-rules {path}: {e}"))?;
            qoco_telemetry::parse_rules(&text).map_err(|e| format!("--watch-rules {path}: {e}"))?
        }
        None => Vec::new(),
    };
    let watch_tick_ms: u64 = flag_value(args, "--watch-tick")
        .unwrap_or("1000")
        .parse()
        .map_err(|_| "--watch-tick must be a millisecond interval")?;
    if watch_tick_ms == 0 {
        return Err("--watch-tick interval must be positive".to_string());
    }
    let _watch = qoco_telemetry::start_watch(
        watch_rules,
        qoco_telemetry::WatchTick::Wall(Duration::from_millis(watch_tick_ms)),
    );

    let access_log = match flag_value(args, "--access-log") {
        Some(path) => Some(std::sync::Arc::new(
            qoco_telemetry::AccessLog::create(path)
                .map_err(|e| format!("cannot open access log {path}: {e}"))?,
        )),
        None => None,
    };

    let store = SessionStore::open(store_dir).map_err(|e| format!("cannot open store: {e}"))?;
    let registry =
        std::sync::Arc::new(SessionRegistry::open(store, options).map_err(|e| e.to_string())?);
    let rehydrated = registry.active();
    let server = MetricsServer::start_with(
        addr,
        ServerOptions {
            handler: Some(registry.clone()),
            access_log,
            ..ServerOptions::default()
        },
    )
    .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // The CI driver reads this line to learn the ephemeral port.
    println!("listening on {}", server.local_addr());
    println!("store rehydrated {rehydrated} session(s)");
    let _ = std::io::stdout().flush();

    let reaper = registry.clone();
    std::thread::Builder::new()
        .name("qoco-serve-reaper".to_string())
        .spawn(move || loop {
            std::thread::sleep(Duration::from_millis(reap_interval));
            for id in reaper.reap_idle() {
                eprintln!("reaped idle session {id}");
            }
        })
        .map_err(|e| e.to_string())?;

    loop {
        std::thread::park();
    }
}

// ---------------------------------------------------------------------------
// the oracle helper

/// One HTTP/1.1 request over a fresh connection; returns (status, body).
/// A non-empty `request_id` is sent as `X-Request-Id` so the server's
/// access log, spans, and journal can be grepped for it afterwards.
fn http(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    request_id: &str,
) -> Result<(String, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let id_header = if request_id.is_empty() {
        String::new()
    } else {
        format!("X-Request-Id: {request_id}\r\n")
    };
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         {id_header}Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("recv: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    let status = head
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .ok_or("malformed status line")?;
    Ok((status.to_string(), body.to_string()))
}

fn cmd_oracle(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr").ok_or("oracle needs --addr HOST:PORT")?;
    let session = flag_value(args, "--session").ok_or("oracle needs --session ID")?;
    let example = flag_value(args, "--example").unwrap_or("figure1");
    if example != "figure1" {
        return Err(format!("unknown example {example:?} (try figure1)"));
    }
    let request_id = flag_value(args, "--request-id").unwrap_or("");

    // The local mirror of the server's deterministic session, and the
    // perfect oracle that answers it against the example's ground truth.
    let mut mirror = SessionMachine::new(figure1_spec());
    let mut oracle = PerfectOracle::new(figure1_ground());
    let mut answers: Vec<Answer> = Vec::new(); // answers[i] answered seq i+1

    loop {
        let (status, body) = http(
            addr,
            "GET",
            &format!("/sessions/{session}/pending"),
            "",
            request_id,
        )?;
        if status != "200 OK" {
            return Err(format!("pending: {status}: {}", body.trim()));
        }
        let json = Json::parse(&body).map_err(|e| format!("pending: bad JSON: {e}"))?;
        let state = json
            .get("state")
            .and_then(Json::as_str)
            .ok_or("pending: missing state")?;
        if state != "awaiting" {
            println!(
                "session {session} is {state} after {} answer(s)",
                answers.len()
            );
            return Ok(());
        }
        let epoch = json
            .get("epoch")
            .and_then(Json::as_f64)
            .ok_or("pending: missing epoch")? as u64;
        let seq = json
            .get("pending")
            .and_then(Json::as_array)
            .and_then(|p| p.first())
            .and_then(|p| p.get("seq"))
            .and_then(Json::as_f64)
            .ok_or("pending: missing seq")? as u64;

        // Advance the mirror until it has produced the answer for `seq`.
        while (answers.len() as u64) < seq {
            let SessionState::AwaitingAnswers(p) = mirror.state() else {
                return Err(format!(
                    "mirror finished after {} answers but the server asks for seq {seq}; \
                     the session was not created from example {example:?}",
                    answers.len()
                ));
            };
            let answer = oracle
                .answer(&p.question)
                .map_err(|e| format!("ground-truth oracle failed: {e:?}"))?;
            let mirror_seq = p.seq;
            mirror
                .submit(mirror_seq, Ok(answer.clone()))
                .map_err(|e| format!("mirror rejected its own answer: {e}"))?;
            answers.push(answer);
        }

        let item = encode_answer(seq, &answers[(seq - 1) as usize]);
        let payload = format!("{{\"epoch\":{epoch},\"answers\":[{item}]}}");
        let (status, body) = http(
            addr,
            "POST",
            &format!("/sessions/{session}/answers"),
            &payload,
            request_id,
        )?;
        if status != "200 OK" {
            return Err(format!("answers: {status}: {}", body.trim()));
        }
        println!("answered seq {seq}");
    }
}
