//! A dependency-free operational HTTP endpoint.
//!
//! [`MetricsServer`] binds a `std::net::TcpListener` and answers:
//!
//! * `GET /metrics` — the current global registry in Prometheus text
//!   format (see [`crate::MetricsSnapshot::to_prometheus_text`]) plus a
//!   constant `qoco_build_info` gauge identifying the binary.
//! * `GET /health` — a one-object JSON liveness summary (uptime, the live
//!   session-progress and serve gauges, profiler sample totals).
//! * `GET /alerts` — the qoco-watch rule states and recent lifecycle
//!   transitions as JSON.
//! * `GET /api/timeseries?metric=…[&window=…]` — the sampled ring of one
//!   metric plus its windowed rate and min/max/last as JSON.
//! * `GET /dashboard` — a self-contained HTML page with inline-SVG
//!   sparklines and the alert table (see [`crate::dashboard_html`]).
//! * `GET /api/requests` — the in-flight request inspector: every request
//!   currently being served, with its id, route, session, current phase
//!   and age (see [`crate::inflight_requests`]).
//!
//! Additional routes — the `/sessions` API of `qoco-serve` — plug in
//! through [`RouteHandler`] in [`ServerOptions`]: the handler is consulted
//! for anything the built-ins do not claim, and its route summaries join
//! the 404 listing. Everything still unclaimed gets a `404` that lists
//! every route that does exist. Each route carries its correct
//! `Content-Type` and every response closes the connection
//! (`Connection: close`).
//!
//! ## Request observability
//!
//! Every request is assigned a **request id**: an inbound `X-Request-Id`
//! header (or the trace id of a W3C `traceparent`) is honored, anything
//! else gets a deterministic `qr-N` from a per-listener counter seeded by
//! [`ServerOptions::request_id_seed`]. The id is echoed back as an
//! `X-Request-Id` response header, stamped on the request's
//! `serve.request` span, marked current on the serving worker (see
//! [`crate::begin_request`]) so the machine step, journal and decision
//! layers underneath can tag their records with it, and written to the
//! structured access log ([`ServerOptions::access_log`]) together with
//! method, route, status, bytes, latency and session. Per-route RED
//! metrics (`serve.requests.<route>.<class>` counters,
//! `serve.latency_ns.<route>` histograms, the `serve.inflight` gauge)
//! flow through the ordinary registry.
//!
//! ## Robustness
//!
//! Connections are served by a pool of reused worker threads fed from one
//! queue. The pool grows lazily, one worker per connection that is queued
//! or being served, so it never holds more than the in-flight cap
//! ([`ServerOptions::max_connections`]) threads and spawns none once it is
//! warm. Excess connections are shed immediately with `429` (counted in
//! `serve.rejected`) instead of queueing behind a stalled peer. A handler
//! that panics kills its worker, not the pool: the connection's slot and
//! `serve.inflight` are released on unwinding, and the next connection
//! gets a fresh worker. Each
//! connection gets a *wall-clock* deadline for its whole request head — a
//! slow-loris client dripping one byte per second is cut off with `408`
//! when the deadline lapses, even though no single `read()` ever times
//! out. Request bodies are bounded ([`ServerOptions::max_body_bytes`],
//! `413` beyond), and a request line longer than [`MAX_REQUEST_LINE`]
//! with no line break in sight is cut off with `414`. A body is framed by
//! `Content-Length` alone: an unparsable, negative or conflicting value
//! gets `400`, and any `Transfer-Encoding` gets `501`.
//!
//! The server reads the *global* registry and watch directly, so it
//! reflects live values mid-session (unlike exporters that consume an
//! end-of-session snapshot). Dropping the guard shuts the listener down.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::push_json_str;

/// One parsed HTTP request, as handed to a [`RouteHandler`].
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …).
    pub method: String,
    /// The path with the query string stripped (`/sessions/s1/answers`).
    pub route: String,
    /// The raw query string (no leading `?`; empty if none).
    pub query: String,
    /// The request body (empty unless the client sent `Content-Length`).
    pub body: Vec<u8>,
    /// The request id: the sanitized inbound `X-Request-Id` (or
    /// `traceparent` trace id), else a listener-generated `qr-N`. Never
    /// empty by the time a [`RouteHandler`] sees the request.
    pub request_id: String,
}

/// A response a [`RouteHandler`] produces.
pub struct HttpResponse {
    /// Full status line tail, e.g. `"200 OK"`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: &'static str, body: String) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A plain-text response.
    pub fn text(status: &'static str, body: String) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }
}

/// Pluggable routes consulted for requests the built-in routes do not
/// claim. Handlers run on the pool's worker threads and must be
/// `Send + Sync`; return `None` to fall through to the 404.
pub trait RouteHandler: Send + Sync {
    /// Answer `req`, or `None` if this handler does not own the route.
    fn handle(&self, req: &HttpRequest) -> Option<HttpResponse>;

    /// Route summaries (e.g. `"POST /sessions"`) appended to the 404
    /// body's route list.
    fn route_summaries(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Tunables for [`MetricsServer::start_with`]; `Default` matches the
/// plain [`MetricsServer::start`].
pub struct ServerOptions {
    /// Extra routes; `None` serves only the built-ins.
    pub handler: Option<Arc<dyn RouteHandler>>,
    /// In-flight connection cap; excess connections get `429` and count
    /// into `serve.rejected`.
    pub max_connections: usize,
    /// Request-body cap; larger `Content-Length` gets `413`.
    pub max_body_bytes: usize,
    /// Wall-clock allowance for reading one complete request (head and
    /// body); a drip-feeding client is cut off with `408` when it lapses.
    pub read_deadline: Duration,
    /// Structured JSONL access log; `None` logs nothing.
    pub access_log: Option<Arc<crate::AccessLog>>,
    /// First value of the per-listener counter that mints `qr-N` request
    /// ids for requests arriving without one. Deterministic by design: a
    /// replayed request sequence against a fresh listener reproduces the
    /// same ids.
    pub request_id_seed: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            handler: None,
            max_connections: 64,
            max_body_bytes: 1 << 20,
            read_deadline: Duration::from_secs(5),
            access_log: None,
            request_id_seed: 1,
        }
    }
}

/// A running metrics endpoint; see the module docs. Dropping it stops the
/// accept loop and joins the serving thread; the workers finish the
/// connections already accepted, then exit.
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9184"`; port 0 picks an ephemeral
    /// port — read it back with [`MetricsServer::local_addr`]) and start
    /// serving the built-in routes with default [`ServerOptions`].
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        MetricsServer::start_with(addr, ServerOptions::default())
    }

    /// [`MetricsServer::start`] with explicit options (extra routes,
    /// connection cap, body cap, read deadline).
    pub fn start_with(addr: &str, options: ServerOptions) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let (queue, pending) = mpsc::channel();
        let pool = Arc::new(Pool {
            started: Instant::now(),
            request_ids: AtomicU64::new(options.request_id_seed),
            options,
            in_flight: AtomicUsize::new(0),
            workers: AtomicUsize::new(0),
            pending: Mutex::new(pending),
        });
        let handle = std::thread::Builder::new()
            .name("qoco-metrics".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Shed before queueing: a stalled peer holds a slot,
                    // it must not hold the accept loop.
                    let live = pool.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    if live > pool.options.max_connections {
                        pool.in_flight.fetch_sub(1, Ordering::SeqCst);
                        shed(stream, &pool);
                        continue;
                    }
                    // One worker per queued or served connection, so none
                    // waits behind a busy peer. A failed spawn leaves the
                    // connection queued for the next free or new worker.
                    if pool.workers.load(Ordering::SeqCst) < live {
                        spawn_worker(&pool);
                    }
                    // Cannot fail: the pool holds the receiving end.
                    let _ = queue.send(stream);
                }
                // Dropping `queue` here lets every worker finish what is
                // queued and exit.
            })?;
        Ok(MetricsServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Unblock the accept() the serving thread is parked in.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// What the accept loop shares with the workers: the options, the id
/// counter, the slot and worker counts, and the queue of accepted
/// connections.
struct Pool {
    options: ServerOptions,
    started: Instant,
    request_ids: AtomicU64,
    /// Connections accepted and not yet finished, queued or being served;
    /// at most `options.max_connections`.
    in_flight: AtomicUsize,
    /// Live worker threads. The accept loop spawns one only while this is
    /// below `in_flight`, so it never exceeds `options.max_connections`.
    workers: AtomicUsize,
    /// The queue's receiving end. An idle worker blocks in `recv` while
    /// holding the lock; the others wait on the lock.
    pending: Mutex<Receiver<TcpStream>>,
}

/// Answer a connection over the cap with `429` from the accept loop.
fn shed(mut stream: TcpStream, pool: &Pool) {
    crate::counter_add("serve.rejected", 1);
    crate::counter_add("serve.rejected.cap", 1);
    let received = Instant::now();
    let rid = next_request_id(&pool.request_ids);
    let resp = HttpResponse::text(
        "429 Too Many Requests",
        "connection limit reached, retry later\n".to_string(),
    );
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = write_response(&mut stream, &resp, Some(&rid));
    drain_unread(&mut stream);
    log_access(&pool.options, received, &rid, "-", "-", &resp, None);
}

/// Add one worker thread to the pool.
fn spawn_worker(pool: &Arc<Pool>) {
    pool.workers.fetch_add(1, Ordering::SeqCst);
    let shared = pool.clone();
    let spawned = std::thread::Builder::new()
        .name("qoco-serve-conn".to_string())
        .spawn(move || work(&shared));
    if spawned.is_err() {
        pool.workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A worker's loop: serve queued connections one at a time until the
/// listener shuts down.
fn work(pool: &Pool) {
    let mut worker = Worker {
        pool,
        serving: false,
    };
    loop {
        let next = pool
            .pending
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .recv();
        let Ok(mut stream) = next else { break };
        crate::gauge_add("serve.inflight", 1.0);
        worker.serving = true;
        let _ = serve_one(&mut stream, pool.started, &pool.options, &pool.request_ids);
        worker.serving = false;
        // Free the slot before closing: a client that reconnects as soon
        // as it reads EOF must find this worker counted as free, or the
        // accept loop spawns another one for it.
        release_slot(pool);
        drop(stream);
    }
}

/// One worker's place in the pool. Dropped by a handler panic, it gives up
/// the worker place *before* the connection's slot: the accept loop then
/// never sees a freed slot while still counting the dead worker, and
/// spawns a replacement for the next connection.
struct Worker<'a> {
    pool: &'a Pool,
    serving: bool,
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        self.pool.workers.fetch_sub(1, Ordering::SeqCst);
        if self.serving {
            release_slot(self.pool);
        }
    }
}

fn release_slot(pool: &Pool) {
    crate::gauge_add("serve.inflight", -1.0);
    pool.in_flight.fetch_sub(1, Ordering::SeqCst);
}

/// A request line longer than this (with no line break in sight) is cut
/// off with `414` instead of being buffered further. Real scrapers send
/// `GET /metrics HTTP/1.1` — anything approaching this bound is garbage.
const MAX_REQUEST_LINE: usize = 1024;

/// The `GET /health` body: a single JSON object with server uptime, the
/// live session-progress gauges (0 when no session has set them) and the
/// serve-layer session gauges.
fn health_body(started: Instant) -> String {
    let snapshot = crate::metrics().snapshot();
    let gauge = |name: &str| snapshot.gauges.get(name).copied().unwrap_or(0.0);
    format!(
        concat!(
            "{{\"status\":\"ok\",\"uptime_s\":{:.3},\"session_active\":{},",
            "\"questions_asked\":{},\"witnesses_open\":{},",
            "\"sessions\":{{\"active\":{},\"parked\":{}}}}}\n"
        ),
        started.elapsed().as_secs_f64(),
        crate::enabled(),
        gauge("session.questions_asked"),
        gauge("session.witnesses_open"),
        gauge("sessions.active"),
        gauge("sessions.parked"),
    )
}

/// Push `v` as a JSON number, or `null` when absent/non-finite.
fn push_json_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) if v.is_finite() => out.push_str(&format!("{v}")),
        _ => out.push_str("null"),
    }
}

/// The `GET /metrics` body: Prometheus exposition plus the constant
/// `qoco_build_info` gauge, so every scrape is attributable to a build.
fn metrics_body() -> String {
    let mut text = crate::metrics().snapshot().to_prometheus_text();
    let b = crate::build_info();
    text.push_str("# HELP qoco_build_info Build identity (always 1; labels carry the info).\n");
    text.push_str("# TYPE qoco_build_info gauge\n");
    text.push_str(&format!(
        "qoco_build_info{{version=\"{}\",git=\"{}\",host_parallelism=\"{}\"}} 1\n",
        b.version, b.git, b.host_parallelism
    ));
    text
}

/// The `GET /alerts` body: watch liveness, per-rule lifecycle state, and
/// the recent transition log.
fn alerts_body() -> String {
    let mut out = String::from("{\"watch\":");
    match crate::watch() {
        None => out.push_str("false,\"tick\":0,\"states\":[],\"transitions\":[]"),
        Some(w) => {
            out.push_str(&format!("true,\"tick\":{},\"states\":[", w.ticks()));
            for (i, s) in w.alert_states().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                push_json_str(&mut out, &s.name);
                out.push_str(",\"rule\":");
                push_json_str(&mut out, &s.rule);
                out.push_str(&format!(
                    ",\"severity\":\"{}\",\"state\":\"{}\",\"last_value\":",
                    s.severity, s.state
                ));
                push_json_f64(&mut out, s.last_value);
                out.push_str(&format!(
                    ",\"fired\":{},\"resolved\":{}}}",
                    s.fired, s.resolved
                ));
            }
            out.push_str("],\"transitions\":[");
            for (i, t) in w.recent_transitions().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"tick\":{},\"at_ns\":{},\"rule\":",
                    t.tick, t.at_ns
                ));
                push_json_str(&mut out, &t.rule);
                out.push_str(&format!(",\"to\":\"{}\",\"value\":", t.to));
                push_json_f64(&mut out, t.value);
                out.push('}');
            }
            out.push(']');
        }
    }
    out.push_str("}\n");
    out
}

/// The `GET /api/timeseries` body (status, JSON). `metric` is required;
/// `window` (rule-grammar duration, default 60s) bounds the rate and
/// min/max/last derivations.
fn timeseries_body(query: &str) -> (&'static str, String) {
    let mut metric = None;
    let mut window = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        match k {
            "metric" => metric = Some(v.to_string()),
            "window" => window = Some(v.to_string()),
            _ => {}
        }
    }
    let Some(metric) = metric.filter(|m| !m.is_empty()) else {
        return (
            "400 Bad Request",
            "{\"error\":\"missing `metric` query parameter\"}\n".to_string(),
        );
    };
    let window_ns = match window.as_deref().map(crate::alerts::parse_duration) {
        None => 60 * crate::LOGICAL_TICK_NS,
        Some(Ok(ns)) if ns > 0 => ns,
        Some(other) => {
            let mut out = String::from("{\"error\":");
            let msg = match other {
                Ok(_) => "window must be positive".to_string(),
                Err(e) => e,
            };
            push_json_str(&mut out, &msg);
            out.push_str("}\n");
            return ("400 Bad Request", out);
        }
    };
    let Some(w) = crate::watch() else {
        return (
            "503 Service Unavailable",
            "{\"error\":\"no watch is running (start qoco-cli with --watch-rules)\"}\n".to_string(),
        );
    };
    let samples = w.store().samples(&metric);
    if samples.is_empty() {
        let mut out = String::from("{\"error\":\"no samples for metric\",\"metric\":");
        push_json_str(&mut out, &metric);
        out.push_str(",\"known\":[");
        for (i, name) in w.store().names().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
        }
        out.push_str("]}\n");
        return ("404 Not Found", out);
    }
    let now_ns = samples.last().map(|s| s.at_ns).unwrap_or(0);
    let mut out = String::from("{\"metric\":");
    push_json_str(&mut out, &metric);
    out.push_str(&format!(
        ",\"window_ns\":{window_ns},\"now_ns\":{now_ns},\"rate_per_s\":"
    ));
    push_json_f64(&mut out, w.store().rate(&metric, window_ns, now_ns));
    out.push_str(",\"stats\":");
    match w.store().window_stats(&metric, window_ns, now_ns) {
        None => out.push_str("null"),
        Some(st) => {
            out.push_str("{\"min\":");
            push_json_f64(&mut out, Some(st.min));
            out.push_str(",\"max\":");
            push_json_f64(&mut out, Some(st.max));
            out.push_str(",\"last\":");
            push_json_f64(&mut out, Some(st.last));
            out.push_str(&format!(",\"count\":{}}}", st.count));
        }
    }
    out.push_str(",\"samples\":[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"tick\":{},\"at_ns\":{},\"value\":",
            s.tick, s.at_ns
        ));
        push_json_f64(&mut out, Some(s.value));
        out.push('}');
    }
    out.push_str("]}\n");
    ("200 OK", out)
}

/// How reading one request ended.
enum ReadOutcome {
    /// A complete request (head fully read; body as advertised).
    Request(HttpRequest),
    /// The client earned an early error response.
    Reject(Box<RejectInfo>),
}

/// Everything known about a rejected request: the error response, the
/// labeled reason feeding `serve.rejected.<reason>`, and whatever request
/// metadata had been parsed before the reject (`"-"` / `None` when the
/// reject fired before the head was readable).
struct RejectInfo {
    response: HttpResponse,
    reason: &'static str,
    method: String,
    route: String,
    request_id: Option<String>,
}

impl RejectInfo {
    /// A reject that fired before any of the head could be parsed.
    fn early(response: HttpResponse, reason: &'static str) -> ReadOutcome {
        ReadOutcome::Reject(Box::new(RejectInfo {
            response,
            reason,
            method: "-".to_string(),
            route: "-".to_string(),
            request_id: None,
        }))
    }
}

/// The labeled sibling of the legacy `serve.rejected` total. Static names,
/// because the reason vocabulary is closed: `cap` (connection/session
/// caps), `uri` (request-line and head bounds), `deadline` (slow reads),
/// `body` (body cap), `framing` (a bad or conflicting `Content-Length`,
/// or any `Transfer-Encoding`).
fn reject_reason_counter(reason: &str) -> &'static str {
    match reason {
        "cap" => "serve.rejected.cap",
        "uri" => "serve.rejected.uri",
        "deadline" => "serve.rejected.deadline",
        "body" => "serve.rejected.body",
        "framing" => "serve.rejected.framing",
        _ => "serve.rejected.other",
    }
}

/// Mint the next `qr-N` id from the per-listener counter.
fn next_request_id(ids: &AtomicU64) -> String {
    format!("qr-{}", ids.fetch_add(1, Ordering::Relaxed))
}

/// An inbound request id, made safe to echo into a response header and an
/// access-log line: printable ASCII only (no CR/LF header injection),
/// bounded length. `None` when nothing survives.
fn sanitize_request_id(raw: &str) -> Option<String> {
    let cleaned: String = raw
        .trim()
        .chars()
        .filter(|c| c.is_ascii_graphic())
        .take(128)
        .collect();
    (!cleaned.is_empty()).then_some(cleaned)
}

/// The trace-id component of a W3C `traceparent` header
/// (`00-<32 hex>-<16 hex>-<2 hex>`), if well-formed.
fn traceparent_trace_id(raw: &str) -> Option<String> {
    raw.trim()
        .split('-')
        .nth(1)
        .filter(|t| t.len() == 32 && t.chars().all(|c| c.is_ascii_hexdigit()))
        .map(str::to_string)
}

/// Read one request under the wall-clock deadline; see the module docs.
fn read_request(stream: &mut TcpStream, options: &ServerOptions) -> std::io::Result<ReadOutcome> {
    let deadline = Instant::now() + options.read_deadline;
    // Per-read timeout well under the deadline, so the deadline check
    // runs even against a silent peer. It holds for every read below; the
    // 1 ms floor keeps a zero deadline a 408, not a rejected timeout.
    let slice = Duration::from_millis(250)
        .min(options.read_deadline)
        .max(Duration::from_millis(1));
    stream.set_read_timeout(Some(slice))?;
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_REQUEST_LINE && !buf.contains(&b'\n') {
            return Ok(RejectInfo::early(
                HttpResponse::text("414 URI Too Long", "request line too long\n".to_string()),
                "uri",
            ));
        }
        if buf.len() >= 64 * 1024 {
            return Ok(RejectInfo::early(
                HttpResponse::text(
                    "431 Request Header Fields Too Large",
                    "request head too large\n".to_string(),
                ),
                "uri",
            ));
        }
        if Instant::now() >= deadline {
            return Ok(RejectInfo::early(
                HttpResponse::text(
                    "408 Request Timeout",
                    "request head deadline exceeded\n".to_string(),
                ),
                "deadline",
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // Peer closed mid-head: nothing to answer.
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                ));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Loop: the deadline check above decides when to give up.
            }
            Err(e) => return Err(e),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut request_line = head.lines().next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("").to_string();
    let path = request_line.next().unwrap_or("").to_string();
    let (route, query) = path.split_once('?').unwrap_or((path.as_str(), ""));
    let mut content_length: Option<usize> = None;
    // The first framing error found: its status line and message.
    let mut framing: Option<(&'static str, &'static str)> = None;
    let mut inbound_id: Option<String> = None;
    let mut trace_id: Option<String> = None;
    for (k, v) in head.lines().skip(1).filter_map(|l| l.split_once(':')) {
        if k.eq_ignore_ascii_case("content-length") {
            match (parse_content_length(v), content_length) {
                (Some(n), None) => content_length = Some(n),
                (Some(n), Some(m)) if n == m => {}
                _ => {
                    framing.get_or_insert((
                        "400 Bad Request",
                        "invalid or conflicting Content-Length\n",
                    ));
                }
            }
        } else if k.eq_ignore_ascii_case("transfer-encoding") {
            framing.get_or_insert((
                "501 Not Implemented",
                "Transfer-Encoding is not supported; send a Content-Length\n",
            ));
        } else if k.eq_ignore_ascii_case("x-request-id") {
            inbound_id = sanitize_request_id(v);
        } else if k.eq_ignore_ascii_case("traceparent") {
            trace_id = traceparent_trace_id(v);
        }
    }
    // An explicit X-Request-Id beats the traceparent's trace id.
    let request_id = inbound_id.or(trace_id);
    // A body whose length is unknown cannot be read, nor skipped to find
    // the next request: refuse it rather than guess.
    if let Some((status, message)) = framing {
        return Ok(ReadOutcome::Reject(Box::new(RejectInfo {
            response: HttpResponse::text(status, message.to_string()),
            reason: "framing",
            method,
            route: route.to_string(),
            request_id,
        })));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > options.max_body_bytes {
        return Ok(ReadOutcome::Reject(Box::new(RejectInfo {
            response: HttpResponse::text(
                "413 Content Too Large",
                format!(
                    "request body of {content_length} bytes exceeds the {} byte cap\n",
                    options.max_body_bytes
                ),
            ),
            reason: "body",
            method,
            route: route.to_string(),
            request_id,
        })));
    }
    // The body goes straight into its final buffer, sized by the (capped)
    // Content-Length; bytes read past the head arrive with it.
    let mut body = vec![0u8; content_length];
    let early = &buf[head_end + 4..];
    let mut filled = early.len().min(content_length);
    body[..filled].copy_from_slice(&early[..filled]);
    while filled < content_length {
        if Instant::now() >= deadline {
            return Ok(ReadOutcome::Reject(Box::new(RejectInfo {
                response: HttpResponse::text(
                    "408 Request Timeout",
                    "request body deadline exceeded\n".to_string(),
                ),
                reason: "deadline",
                method: method.clone(),
                route: route.to_string(),
                request_id: request_id.clone(),
            })));
        }
        match stream.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Request(HttpRequest {
        method,
        route: route.to_string(),
        query: query.to_string(),
        body,
        // Empty means "none inbound": serve_one mints a qr-N before
        // anything else sees the request.
        request_id: request_id.unwrap_or_default(),
    }))
}

/// A `Content-Length` value: decimal digits only (no sign, no exponent),
/// surrounding whitespace allowed. `None` when it is not one, or overflows.
fn parse_content_length(raw: &str) -> Option<usize> {
    let digits = raw.trim();
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Pull whatever request bytes are still buffered before closing, so the
/// close is a clean FIN instead of an RST that could destroy the error
/// response in flight to the client. One bounded read — not a loop — so a
/// hostile streamer cannot turn the courtesy into a stall.
fn drain_unread(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    let _ = stream.read(&mut sink);
}

fn write_response(
    stream: &mut TcpStream,
    r: &HttpResponse,
    request_id: Option<&str>,
) -> std::io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        r.status,
        r.content_type,
        r.body.len(),
    );
    if let Some(rid) = request_id {
        response.push_str("X-Request-Id: ");
        response.push_str(rid);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(&r.body);
    stream.write_all(response.as_bytes())
}

/// Numeric status code of a status line tail like `"200 OK"`.
fn status_code(status: &str) -> u16 {
    status
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The `{id}` of a `/sessions/{id}/…` route, the access log's fallback
/// when the handler never tagged a session explicitly.
fn session_from_route(route: &str) -> Option<String> {
    let tail = route.strip_prefix("/sessions/")?;
    let id = tail.split('/').next().unwrap_or("");
    (!id.is_empty()).then(|| id.to_string())
}

/// The stable per-route label used in metric names: bounded vocabulary by
/// construction, so interning the composed names cannot leak unboundedly.
fn route_metric_key(method: &str, route: &str) -> &'static str {
    match (method, route) {
        (_, "/metrics") => "metrics",
        (_, "/health") => "health",
        (_, "/alerts") => "alerts",
        (_, "/dashboard") => "dashboard",
        (_, "/api/timeseries") => "timeseries",
        (_, "/api/requests") => "requests",
        ("POST", "/sessions") => "sessions_create",
        ("GET", "/sessions") => "sessions_list",
        _ => match route.rsplit_once('/').map(|(_, leaf)| leaf) {
            Some("pending") if route.starts_with("/sessions/") => "pending",
            Some("answers") if route.starts_with("/sessions/") => "answers",
            Some("report") if route.starts_with("/sessions/") => "report",
            _ => "other",
        },
    }
}

/// The status class label (`2xx`, `3xx`, `4xx`, `5xx`, `other`).
fn status_class(status: &str) -> &'static str {
    match status_code(status) {
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        500..=599 => "5xx",
        _ => "other",
    }
}

/// Record the per-route RED metrics for one finished request. All the
/// name-building work is gated so the disabled path stays allocation-free.
fn record_red_metrics(method: &str, route: &str, status: &'static str, latency_ns: u64) {
    if !crate::enabled() {
        return;
    }
    let key = route_metric_key(method, route);
    let class = status_class(status);
    crate::counter_add("serve.requests", 1);
    crate::counter_add(
        crate::intern_metric_name(&format!("serve.requests.{key}.{class}")),
        1,
    );
    crate::histogram_record(
        crate::intern_metric_name(&format!("serve.latency_ns.{key}")),
        latency_ns,
    );
}

/// Queue one access-log line, if a log is configured.
fn log_access(
    options: &ServerOptions,
    received: Instant,
    request_id: &str,
    method: &str,
    route: &str,
    response: &HttpResponse,
    session: Option<String>,
) {
    let Some(log) = options.access_log.as_ref() else {
        return;
    };
    log.record(&crate::AccessLogEntry {
        at_ns: crate::now_ns(),
        request_id: request_id.to_string(),
        method: method.to_string(),
        route: route.to_string(),
        status: status_code(response.status),
        bytes: response.body.len() as u64,
        latency_ns: received.elapsed().as_nanos() as u64,
        session,
    });
}

/// The `GET /api/requests` body: every request currently in flight, with
/// its age against the session clock.
fn requests_body() -> String {
    let now = crate::now_ns();
    let mut out = String::from("{\"requests\":[");
    for (i, r) in crate::inflight_requests().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"request\":");
        push_json_str(&mut out, &r.id);
        out.push_str(",\"method\":");
        push_json_str(&mut out, &r.method);
        out.push_str(",\"route\":");
        push_json_str(&mut out, &r.route);
        out.push_str(",\"session\":");
        match &r.session {
            Some(s) => push_json_str(&mut out, s),
            None => out.push_str("null"),
        }
        out.push_str(",\"phase\":");
        push_json_str(&mut out, r.phase);
        out.push_str(&format!(
            ",\"age_ns\":{}}}",
            now.saturating_sub(r.started_ns)
        ));
    }
    out.push_str("]}\n");
    out
}

/// The request [`crate::begin_request`] opened on this worker. Ended on
/// every exit, a handler panic included, so no dead request lingers in the
/// in-flight inspector.
struct OpenRequest(Option<u64>);

impl OpenRequest {
    /// End the request now and return its final in-flight entry.
    fn finish(&mut self) -> Option<crate::InflightRequest> {
        self.0.take().and_then(crate::end_request)
    }
}

impl Drop for OpenRequest {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Handle one connection: read the request and answer it; the caller
/// closes it. Every path — reject or dispatch — counts its RED metrics,
/// echoes the request id, and leaves an access-log line.
fn serve_one(
    stream: &mut TcpStream,
    started: Instant,
    options: &ServerOptions,
    ids: &AtomicU64,
) -> std::io::Result<()> {
    let received = Instant::now();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut req = match read_request(stream, options)? {
        ReadOutcome::Request(req) => req,
        ReadOutcome::Reject(info) => {
            crate::counter_add("serve.rejected", 1);
            crate::counter_add(reject_reason_counter(info.reason), 1);
            let rid = info
                .request_id
                .clone()
                .unwrap_or_else(|| next_request_id(ids));
            record_red_metrics(
                &info.method,
                &info.route,
                info.response.status,
                received.elapsed().as_nanos() as u64,
            );
            let out = write_response(stream, &info.response, Some(&rid));
            drain_unread(stream);
            log_access(
                options,
                received,
                &rid,
                &info.method,
                &info.route,
                &info.response,
                None,
            );
            return out;
        }
    };
    if req.request_id.is_empty() {
        req.request_id = next_request_id(ids);
    }
    // Mark the worker thread: everything the handler does underneath —
    // the machine step, the journal append, the decision dispatch — can
    // now tag its records with this request id.
    let mut request = OpenRequest(Some(crate::begin_request(
        &req.request_id,
        &req.method,
        &req.route,
    )));
    let mut span = crate::span("serve.request")
        .field("request", &req.request_id)
        .field("method", &req.method)
        .field("route", &req.route);
    crate::set_request_phase("handler");

    const PROM_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";
    const HTML: &str = "text/html; charset=utf-8";
    let response = match (req.method.as_str(), req.route.as_str()) {
        ("GET", "/metrics") => HttpResponse {
            status: "200 OK",
            content_type: PROM_TEXT,
            body: metrics_body(),
        },
        ("GET", "/health") => HttpResponse::json("200 OK", health_body(started)),
        ("GET", "/alerts") => HttpResponse::json("200 OK", alerts_body()),
        ("GET", "/dashboard") => HttpResponse {
            status: "200 OK",
            content_type: HTML,
            body: crate::dashboard_html(),
        },
        ("GET", "/api/timeseries") => {
            let (status, body) = timeseries_body(&req.query);
            HttpResponse::json(status, body)
        }
        ("GET", "/api/requests") => HttpResponse::json("200 OK", requests_body()),
        _ => match options.handler.as_ref().and_then(|h| h.handle(&req)) {
            Some(resp) => resp,
            None if req.method == "GET" => {
                let mut routes = String::from(
                    "GET /metrics, GET /health, GET /alerts, GET /dashboard, \
                     GET /api/timeseries?metric=<name>[&window=<dur>], GET /api/requests",
                );
                if let Some(h) = options.handler.as_ref() {
                    for summary in h.route_summaries() {
                        routes.push_str(", ");
                        routes.push_str(&summary);
                    }
                }
                HttpResponse::text(
                    "404 Not Found",
                    format!("no such route: {}\nroutes: {routes}\n", req.route),
                )
            }
            None => HttpResponse::text(
                "405 Method Not Allowed",
                "method not allowed on this route\n".to_string(),
            ),
        },
    };
    crate::set_request_phase("write");
    span.record("status", response.status);
    record_red_metrics(
        &req.method,
        &req.route,
        response.status,
        received.elapsed().as_nanos() as u64,
    );
    let out = write_response(stream, &response, Some(&req.request_id));
    let session = request
        .finish()
        .and_then(|r| r.session)
        .or_else(|| session_from_route(&req.route));
    span.finish();
    log_access(
        options,
        received,
        &req.request_id,
        &req.method,
        &req.route,
        &response,
        session,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryCollector;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: qoco\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn http_post(addr: SocketAddr, path: &str, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
        write!(
            stream,
            "POST {path} HTTP/1.1\r\nHost: qoco\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn scrapes_live_global_metrics() {
        let collector = Arc::new(InMemoryCollector::new());
        let session = crate::session(collector);
        crate::counter_add("server.test_counter", 7);
        let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let response = http_get(server.local_addr(), "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"));
        assert!(response.contains("qoco_server_test_counter_total 7\n"));
        // live, not end-of-session: bump again and re-scrape
        crate::counter_add("server.test_counter", 3);
        let response = http_get(server.local_addr(), "/metrics");
        assert!(response.contains("qoco_server_test_counter_total 10\n"));
        drop(server);
        drop(session);
    }

    #[test]
    fn unknown_paths_get_404_naming_the_real_routes() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let response = http_get(server.local_addr(), "/other");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        assert!(
            response.contains("routes: GET /metrics, GET /health"),
            "404 must enumerate the routes that exist: {response}"
        );
        assert!(response.contains("no such route: /other"), "{response}");
    }

    #[test]
    fn health_reports_uptime_and_session_gauges() {
        let collector = Arc::new(InMemoryCollector::new());
        let session = crate::session(collector);
        crate::gauge_add("session.questions_asked", 5.0);
        crate::gauge_set("session.witnesses_open", 2.0);
        crate::gauge_set("sessions.active", 3.0);
        crate::gauge_set("sessions.parked", 2.0);
        let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let response = http_get(server.local_addr(), "/health");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: application/json"));
        assert!(response.contains("\"status\":\"ok\""));
        assert!(response.contains("\"session_active\":true"));
        assert!(response.contains("\"questions_asked\":5"));
        assert!(response.contains("\"witnesses_open\":2"));
        assert!(response.contains("\"sessions\":{\"active\":3,\"parked\":2}"));
        assert!(response.contains("\"uptime_s\":"));
        assert!(
            response.contains("\"parked\":2}}\n"),
            "the session gauges close the body: {response}"
        );
        drop(server);
        drop(session);
    }

    #[test]
    fn every_route_carries_its_content_type_and_connection_close() {
        // Its rejects bump global counters: keep clear of tests that
        // count them inside a telemetry session.
        let _serial = crate::SESSION_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let addr = server.local_addr();
        for (path, content_type) in [
            (
                "/metrics",
                "Content-Type: text/plain; version=0.0.4; charset=utf-8",
            ),
            ("/health", "Content-Type: application/json"),
            ("/alerts", "Content-Type: application/json"),
            ("/api/timeseries?metric=x", "Content-Type: application/json"),
            ("/api/requests", "Content-Type: application/json"),
            ("/dashboard", "Content-Type: text/html; charset=utf-8"),
            // error routes answer with headers too: the 404 route table…
            ("/nope", "Content-Type: text/plain; charset=utf-8"),
        ] {
            let response = http_get(addr, path);
            assert!(response.contains(content_type), "{path}: {response}");
            assert!(response.contains("Connection: close"), "{path}: {response}");
            assert!(response.contains("X-Request-Id: "), "{path}: {response}");
        }
        // …the 405 for an unclaimed method…
        let response = http_post(addr, "/metrics", "x");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        assert!(
            response.contains("Content-Type: text/plain; charset=utf-8"),
            "{response}"
        );
        assert!(response.contains("Connection: close"), "{response}");
        assert!(response.contains("X-Request-Id: "), "{response}");
        // …and a pre-dispatch reject (414).
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile
            .write_all(&vec![b'A'; 2 * MAX_REQUEST_LINE])
            .unwrap();
        let mut response = String::new();
        let _ = hostile.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 414"), "{response}");
        assert!(
            response.contains("Content-Type: text/plain; charset=utf-8"),
            "{response}"
        );
        assert!(response.contains("Connection: close"), "{response}");
        assert!(response.contains("X-Request-Id: "), "{response}");
    }

    #[test]
    fn inbound_request_ids_pass_through_and_absent_ones_are_generated() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let addr = server.local_addr();
        // passthrough: an explicit X-Request-Id is echoed verbatim
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /health HTTP/1.1\r\nHost: qoco\r\nX-Request-Id: trace-me-42\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("X-Request-Id: trace-me-42"), "{response}");
        // traceparent fallback: the trace-id component is honored
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /health HTTP/1.1\r\nHost: qoco\r\n\
             traceparent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.contains("X-Request-Id: 0af7651916cd43dd8448eb211c80319c"),
            "{response}"
        );
        // an X-Request-Id beats a traceparent when both are present
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /health HTTP/1.1\r\nHost: qoco\r\nX-Request-Id: winner\r\n\
             traceparent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("X-Request-Id: winner"), "{response}");
        // a hostile id is sanitized, never echoed with CR/LF intact
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /health HTTP/1.1\r\nHost: qoco\r\nX-Request-Id: a\tb evil\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("X-Request-Id: abevil"), "{response}");
        // generation: no inbound id → deterministic qr-N from the listener
        let response = http_get(addr, "/health");
        assert!(response.contains("X-Request-Id: qr-"), "{response}");
    }

    #[test]
    fn generated_ids_count_up_from_the_listener_seed() {
        let server = MetricsServer::start_with(
            "127.0.0.1:0",
            ServerOptions {
                request_id_seed: 70,
                ..ServerOptions::default()
            },
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let first = http_get(addr, "/health");
        let second = http_get(addr, "/health");
        assert!(first.contains("X-Request-Id: qr-70"), "{first}");
        assert!(second.contains("X-Request-Id: qr-71"), "{second}");
    }

    #[test]
    fn rejects_are_counted_by_reason_and_red_metrics_cover_routes() {
        let collector = Arc::new(InMemoryCollector::new());
        let session = crate::session(collector.clone());
        let server = MetricsServer::start_with(
            "127.0.0.1:0",
            ServerOptions {
                max_body_bytes: 64,
                ..ServerOptions::default()
            },
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        // body cap → serve.rejected{reason=body} and the legacy total
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /sessions HTTP/1.1\r\nHost: qoco\r\nContent-Length: 10000000\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        // request-line bound → serve.rejected{reason=uri}
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile
            .write_all(&vec![b'A'; 2 * MAX_REQUEST_LINE])
            .unwrap();
        let mut out = String::new();
        let _ = hostile.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 414"), "{out}");
        // a served route records its RED counter and latency histogram
        let response = http_get(addr, "/health");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        drop(server);
        let snap = crate::metrics().snapshot();
        drop(session);
        assert_eq!(snap.counter("serve.rejected"), 2, "legacy total");
        assert_eq!(snap.counter("serve.rejected.body"), 1);
        assert_eq!(snap.counter("serve.rejected.uri"), 1);
        assert_eq!(snap.counter("serve.requests.health.2xx"), 1);
        assert!(snap.histograms.contains_key("serve.latency_ns.health"));
        assert!(
            snap.counter("serve.requests") >= 1,
            "route-blind total for cheap dashboards"
        );
    }

    #[test]
    fn api_requests_lists_the_in_flight_inspector() {
        let collector = Arc::new(InMemoryCollector::new());
        let session = crate::session(collector);
        let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /api/requests HTTP/1.1\r\nHost: qoco\r\nX-Request-Id: watch-me\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        // the inspector request observes at least itself
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("\"request\":\"watch-me\""), "{response}");
        assert!(
            response.contains("\"route\":\"/api/requests\""),
            "{response}"
        );
        assert!(response.contains("\"phase\":\"handler\""), "{response}");
        assert!(response.contains("\"age_ns\":"), "{response}");
        drop(server);
        // nothing lingers once served
        assert!(crate::inflight_requests().is_empty());
        drop(session);
    }

    #[test]
    fn metrics_exposition_includes_build_info() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let response = http_get(server.local_addr(), "/metrics");
        assert!(
            response.contains("# TYPE qoco_build_info gauge"),
            "{response}"
        );
        let b = crate::build_info();
        assert!(
            response.contains(&format!(
                "qoco_build_info{{version=\"{}\",git=\"{}\",host_parallelism=\"{}\"}} 1",
                b.version, b.git, b.host_parallelism
            )),
            "{response}"
        );
    }

    #[test]
    fn watch_routes_serve_alerts_timeseries_and_dashboard() {
        let collector = Arc::new(InMemoryCollector::new());
        let session = crate::session(collector);
        let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let addr = server.local_addr();
        // without a watch: /alerts degrades gracefully, /api/timeseries 503s
        let response = http_get(addr, "/alerts");
        assert!(response.contains("\"watch\":false"), "{response}");
        let response = http_get(addr, "/api/timeseries?metric=crowd.faults");
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        // missing metric param is the caller's error, watch or not
        let response = http_get(addr, "/api/timeseries");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        let rules = crate::parse_rules("rule faults: rate(crowd.faults, 5s) > 1/s => warn")
            .expect("valid rule");
        let guard = crate::start_watch(rules, crate::WatchTick::Logical);
        for _ in 0..3 {
            crate::counter_add("crowd.faults", 4);
            crate::watch_tick();
        }
        let response = http_get(addr, "/alerts");
        assert!(response.contains("\"watch\":true"), "{response}");
        assert!(response.contains("\"name\":\"faults\""), "{response}");
        assert!(response.contains("\"state\":\"firing\""), "{response}");
        let response = http_get(addr, "/api/timeseries?metric=crowd.faults&window=5s");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(
            response.contains("\"metric\":\"crowd.faults\""),
            "{response}"
        );
        assert!(response.contains("\"samples\":[{\"tick\":1"), "{response}");
        assert!(response.contains("\"rate_per_s\":"), "{response}");
        let response = http_get(addr, "/api/timeseries?metric=unknown.metric");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        assert!(response.contains("\"known\":["), "{response}");
        let response = http_get(addr, "/api/timeseries?metric=crowd.faults&window=bogus");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        let response = http_get(addr, "/dashboard");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(
            response.contains("<svg"),
            "live dashboard draws sparklines: {response}"
        );
        drop(guard);
        drop(server);
        drop(session);
    }

    #[test]
    fn slow_or_malformed_clients_cannot_wedge_the_endpoint() {
        // Its rejects bump global counters: keep clear of tests that
        // count them inside a telemetry session.
        let _serial = crate::SESSION_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let addr = server.local_addr();
        // a client streaming an endless request line is cut off with 414
        // instead of being buffered until the head limit
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile
            .write_all(&vec![b'A'; 2 * MAX_REQUEST_LINE])
            .unwrap();
        let mut response = String::new();
        let _ = hostile.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 414"), "{response}");
        // a client that connects and then goes silent mid-head is dropped
        // by the read deadline rather than parking the server forever…
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"GET /metr").unwrap();
        // …so a well-formed scrape queued behind it is still served
        let response = http_get(addr, "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        drop(stalled);
    }

    #[test]
    fn slow_loris_is_cut_off_by_the_wall_clock_deadline() {
        // Its rejects bump global counters: keep clear of tests that
        // count them inside a telemetry session.
        let _serial = crate::SESSION_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        // drip bytes fast enough that no single read ever times out, but
        // never finish the head: the wall-clock deadline must fire
        let server = MetricsServer::start_with(
            "127.0.0.1:0",
            ServerOptions {
                read_deadline: Duration::from_millis(600),
                ..ServerOptions::default()
            },
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let mut loris = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        loris.write_all(b"GET /metrics HTTP/1.1\r\n").unwrap();
        // drip header bytes faster than any per-read timeout, spanning
        // most of the deadline, so only the wall clock can cut us off
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(150));
            loris.write_all(b"X").unwrap();
        }
        let mut deadline_response = String::new();
        loris.read_to_string(&mut deadline_response).unwrap();
        assert!(
            deadline_response.starts_with("HTTP/1.1 408"),
            "{deadline_response}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline must fire promptly, took {:?}",
            started.elapsed()
        );
        // the endpoint is still healthy afterwards
        let response = http_get(addr, "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    }

    #[test]
    fn oversized_bodies_get_413_before_being_read() {
        // Its rejects bump global counters: keep clear of tests that
        // count them inside a telemetry session.
        let _serial = crate::SESSION_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let server = MetricsServer::start_with(
            "127.0.0.1:0",
            ServerOptions {
                max_body_bytes: 64,
                ..ServerOptions::default()
            },
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        // advertise a huge body; never send it — the cap must trip on the
        // Content-Length header alone
        write!(
            stream,
            "POST /sessions HTTP/1.1\r\nHost: qoco\r\nContent-Length: 10000000\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        // a small body still reaches dispatch (404: no handler installed)
        let response = http_post(addr, "/sessions", "{}");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }

    /// Send `request` verbatim to a fresh server inside a telemetry
    /// session; return the response and the `serve.rejected.framing` count.
    /// Reading the response to EOF without a reset shows that the unread
    /// body was drained before the close.
    fn framing_reject(request: &str) -> (String, u64) {
        let collector = Arc::new(InMemoryCollector::new());
        let session = crate::session(collector);
        let server = MetricsServer::start_with("127.0.0.1:0", ServerOptions::default())
            .expect("bind ephemeral port");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("a clean close, not a reset");
        drop(server);
        let rejected = crate::metrics()
            .snapshot()
            .counter("serve.rejected.framing");
        drop(session);
        (response, rejected)
    }

    #[test]
    fn an_unparsable_content_length_gets_400() {
        for value in ["abc", "1e5", "+5", "", "99999999999999999999999"] {
            let (response, rejected) = framing_reject(&format!(
                "POST /sessions HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{\"example\":1}}"
            ));
            assert!(
                response.starts_with("HTTP/1.1 400"),
                "{value:?}: {response}"
            );
            assert!(response.contains("Content-Length"), "{response}");
            assert_eq!(rejected, 1, "{value:?}");
        }
    }

    #[test]
    fn a_negative_content_length_gets_400() {
        let (response, rejected) =
            framing_reject("POST /sessions HTTP/1.1\r\nContent-Length: -1\r\n\r\n{}");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert_eq!(rejected, 1);
    }

    #[test]
    fn conflicting_content_lengths_get_400() {
        let (response, rejected) = framing_reject(
            "POST /sessions HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 9\r\n\r\n{}123456!",
        );
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert_eq!(rejected, 1);
        // repeating the same length is not a conflict: the request reaches
        // dispatch (405, no handler installed)
        let (response, rejected) = framing_reject(
            "POST /sessions HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\n{}",
        );
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        assert_eq!(rejected, 0);
    }

    #[test]
    fn any_transfer_encoding_gets_501() {
        for request in [
            "POST /sessions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            "POST /sessions HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: identity\r\n\r\n{}",
        ] {
            let (response, rejected) = framing_reject(request);
            assert!(response.starts_with("HTTP/1.1 501"), "{response}");
            assert!(response.contains("Transfer-Encoding"), "{response}");
            assert_eq!(rejected, 1);
        }
    }

    #[test]
    fn a_body_dripped_in_small_writes_arrives_byte_for_byte() {
        struct Capture(std::sync::Mutex<Vec<u8>>);
        impl RouteHandler for Capture {
            fn handle(&self, req: &HttpRequest) -> Option<HttpResponse> {
                *self.0.lock().expect("capture lock") = req.body.clone();
                Some(HttpResponse::json("200 OK", "{}\n".to_string()))
            }
            fn route_summaries(&self) -> Vec<String> {
                vec!["POST /capture".to_string()]
            }
        }
        let capture = Arc::new(Capture(std::sync::Mutex::new(Vec::new())));
        let server = MetricsServer::start_with(
            "127.0.0.1:0",
            ServerOptions {
                handler: Some(capture.clone()),
                ..ServerOptions::default()
            },
        )
        .expect("bind ephemeral port");
        // ~200 KB covering every byte value, in a pattern that never
        // repeats at the write size
        let body: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        // the first body bytes ride in the same write as the head
        let mut head = format!(
            "POST /capture HTTP/1.1\r\nHost: qoco\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        head.extend_from_slice(&body[..333]);
        stream.write_all(&head).unwrap();
        for (i, piece) in body[333..].chunks(997).enumerate() {
            stream.write_all(piece).unwrap();
            if i % 10 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        let seen = capture.0.lock().unwrap();
        assert_eq!(seen.len(), body.len());
        assert!(*seen == body, "body bytes differ");
    }

    #[test]
    fn connection_cap_sheds_with_429() {
        let collector = Arc::new(InMemoryCollector::new());
        let session = crate::session(collector);
        let before = crate::metrics()
            .snapshot()
            .counters
            .get("serve.rejected")
            .copied()
            .unwrap_or(0);
        let server = MetricsServer::start_with(
            "127.0.0.1:0",
            ServerOptions {
                max_connections: 1,
                read_deadline: Duration::from_secs(2),
                ..ServerOptions::default()
            },
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        // occupy the only slot with a connection that never completes
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"GET /he").unwrap();
        // give the accept loop a moment to hand the slot over
        std::thread::sleep(Duration::from_millis(100));
        let response = http_get(addr, "/metrics");
        assert!(response.starts_with("HTTP/1.1 429"), "{response}");
        let after = crate::metrics()
            .snapshot()
            .counters
            .get("serve.rejected")
            .copied()
            .unwrap_or(0);
        assert!(after > before, "serve.rejected must count the shed");
        drop(stalled);
        drop(server);
        drop(session);
    }

    #[test]
    fn custom_route_handlers_extend_the_server() {
        struct Hello;
        impl RouteHandler for Hello {
            fn handle(&self, req: &HttpRequest) -> Option<HttpResponse> {
                match (req.method.as_str(), req.route.as_str()) {
                    ("POST", "/hello") => Some(HttpResponse::json(
                        "200 OK",
                        format!(
                            "{{\"echo\":{}}}\n",
                            String::from_utf8_lossy(&req.body).trim()
                        ),
                    )),
                    _ => None,
                }
            }
            fn route_summaries(&self) -> Vec<String> {
                vec!["POST /hello".to_string()]
            }
        }
        let server = MetricsServer::start_with(
            "127.0.0.1:0",
            ServerOptions {
                handler: Some(Arc::new(Hello)),
                ..ServerOptions::default()
            },
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let response = http_post(addr, "/hello", "42");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("{\"echo\":42}"), "{response}");
        // built-ins still win and the 404 lists the handler's routes
        let response = http_get(addr, "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        let response = http_get(addr, "/nope");
        assert!(response.contains("POST /hello"), "{response}");
        // a non-GET the handler does not claim is still a 405
        let response = http_post(addr, "/metrics", "x");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }

    #[test]
    fn shutdown_is_clean_and_port_is_released() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let addr = server.local_addr();
        drop(server);
        // the listener is gone: either refused outright or accepted by the
        // OS backlog and immediately closed without a response
        let mut ok = false;
        for _ in 0..10 {
            match TcpStream::connect(addr) {
                Err(_) => {
                    ok = true;
                    break;
                }
                Ok(mut stream) => {
                    let _ = write!(stream, "GET /metrics HTTP/1.1\r\n\r\n");
                    let mut out = String::new();
                    if stream.read_to_string(&mut out).is_err() || out.is_empty() {
                        ok = true;
                        break;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(ok, "listener still serving after drop");
    }
}
