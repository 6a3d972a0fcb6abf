//! The serve workload: a crowd client driving cleaning sessions through
//! the `/sessions` API, over loopback HTTP against a `qoco-serve serve`
//! child process, or in-process through the benchmark's `RouteHandler`
//! wrapper around `SessionRegistry`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qoco::crowd::{parse_tagged_value, tagged_value, Answer};
use qoco::data::{Fact, Tuple};
use qoco::engine::answer_set;
use qoco::telemetry::{HttpRequest, HttpResponse, RouteHandler};
use qoco_bench::json::Json;

use crate::inputs::{json_str, sorted, Job};
use crate::Outcome;

/// How a client reaches the API: returns (status code, body).
pub trait Transport {
    fn call(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), String>;
}

/// One request per connection over loopback, as the server closes each.
pub struct Http {
    pub addr: String,
}

impl Transport for Http {
    fn call(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let mut stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()))
            .map_err(|e| format!("send {path}: {e}"))?;
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| format!("receive {path}: {e}"))?;
        let raw = String::from_utf8(raw).map_err(|_| format!("{path}: response is not UTF-8"))?;
        let (head, body) = raw
            .split_once("\r\n\r\n")
            .ok_or_else(|| format!("{path}: malformed response"))?;
        let code = head
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("{path}: malformed status line"))?;
        Ok((code, body.to_string()))
    }
}

/// Which API route a request hit.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Create,
    Answer,
    Other,
}

/// One request handled in-process.
pub struct Handled {
    pub route: Route,
    pub ms: f64,
    pub bytes: usize,
}

/// The benchmark's `RouteHandler` wrapper: times every request the inner
/// handler serves.
pub struct Timed<H> {
    pub inner: H,
    pub log: Mutex<Vec<Handled>>,
}

impl<H: RouteHandler> RouteHandler for Timed<H> {
    fn handle(&self, req: &HttpRequest) -> Option<HttpResponse> {
        let started = Instant::now();
        let response = self.inner.handle(req);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let route = match (req.method.as_str(), req.route.as_str()) {
            ("POST", "/sessions") => Route::Create,
            ("POST", r) if r.ends_with("/answers") => Route::Answer,
            _ => Route::Other,
        };
        let bytes = response.as_ref().map_or(0, |r| r.body.len());
        self.log
            .lock()
            .expect("no thread panics while holding the log")
            .push(Handled { route, ms, bytes });
        response
    }

    fn route_summaries(&self) -> Vec<String> {
        self.inner.route_summaries()
    }
}

impl<H: RouteHandler> Transport for Timed<H> {
    fn call(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let req = HttpRequest {
            method: method.to_string(),
            route: path.to_string(),
            query: String::new(),
            body: body.as_bytes().to_vec(),
            request_id: "perfbench".to_string(),
        };
        let response = self
            .handle(&req)
            .ok_or_else(|| format!("{method} {path}: no route"))?;
        let code = response
            .status
            .split(' ')
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("{path}: malformed status {}", response.status))?;
        Ok((code, response.body))
    }
}

/// A `qoco-serve serve` child on an ephemeral loopback port, with its own
/// fresh session store. Dropping it kills the process and waits for it.
/// The store stays until the run removes its work directory, so deleting
/// one pass's files does not load the disk under the next pass.
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    pub fn start(bin: &Path, store: PathBuf) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--store"])
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // From here on an early return drops (and so stops) the child.
        let mut server = Server {
            child,
            stdout,
            addr: String::new(),
        };
        // The server prints its bound address, then the rehydration count.
        let mut line = String::new();
        for _ in 0..2 {
            line.clear();
            server
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading the server banner: {e}"))?;
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr.to_string();
            }
        }
        if server.addr.is_empty() {
            return Err(format!("the server did not report its address: {line:?}"));
        }
        Ok(server)
    }

    /// The server's peak resident set (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.child.id())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// VmHWM of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// What the client measured over a pass.
#[derive(Default)]
pub struct ClientSamples {
    pub outcome: Outcome,
    pub create_ms: Vec<f64>,
    pub answer_ms: Vec<f64>,
    pub answers: u64,
}

/// Run one pass: one client drives every job in order. Reports are
/// checked once the pass is done, so checking costs no client time.
/// Returns the pass wall time.
pub fn run_pass(transport: &dyn Transport, jobs: &[Job], out: &mut ClientSamples) -> Duration {
    let started = Instant::now();
    let reports: Vec<_> = jobs.iter().map(|job| drive(transport, job, out)).collect();
    let wall = started.elapsed();
    for (job, report) in jobs.iter().zip(reports) {
        let checked = report.and_then(|body| check_report(job, &body));
        out.outcome.record(&job.label, checked.err());
    }
    wall
}

fn parse(body: &str) -> Result<Json, String> {
    Json::parse(body).map_err(|e| format!("bad JSON ({e}): {body}"))
}

/// Create one session, answer every question from the transcript, and
/// fetch the report body.
fn drive(t: &dyn Transport, job: &Job, out: &mut ClientSamples) -> Result<String, String> {
    let started = Instant::now();
    let (code, body) = t.call("POST", "/sessions", &job.spec_json)?;
    out.create_ms.push(started.elapsed().as_secs_f64() * 1e3);
    if code != 201 {
        return Err(format!("create: {code}: {body}"));
    }
    let mut status = parse(&body)?;
    let id = status
        .get("session")
        .and_then(Json::as_str)
        .ok_or("create: no session id")?
        .to_string();
    let mut answered = 0;
    while status.get("state").and_then(Json::as_str) == Some("awaiting") {
        let pending = status
            .get("pending")
            .and_then(Json::as_array)
            .and_then(|p| p.first())
            .ok_or("awaiting without a pending question")?;
        let seq = pending.get("seq").and_then(Json::as_f64).ok_or("no seq")? as u64;
        let kind = pending
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("no kind")?;
        let (want, answer) = job
            .transcript
            .get((seq as usize).wrapping_sub(1))
            .ok_or_else(|| format!("question {seq} is beyond the transcript"))?;
        if want.as_str() != kind {
            return Err(format!(
                "question {seq} is {kind}, the transcript has {want}"
            ));
        }
        let payload = format!("{{\"answers\":[{}]}}", answer_item(seq, answer));
        let sent = Instant::now();
        let (code, body) = t.call("POST", &format!("/sessions/{id}/answers"), &payload)?;
        out.answer_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        out.answers += 1;
        answered += 1;
        if code != 200 {
            return Err(format!("answer {seq}: {code}: {body}"));
        }
        status = parse(&body)?;
        let applied = status
            .get("results")
            .and_then(Json::as_array)
            .and_then(|r| r.first())
            .and_then(|r| r.get("status"))
            .and_then(Json::as_str);
        if applied != Some("applied") {
            return Err(format!("answer {seq} was not applied: {body}"));
        }
    }
    if answered != job.transcript.len() {
        return Err(format!(
            "finished after {answered} answers, the transcript has {}",
            job.transcript.len()
        ));
    }
    let (code, body) = t.call("GET", &format!("/sessions/{id}/report"), "")?;
    if code != 200 {
        return Err(format!("report: {code}: {body}"));
    }
    Ok(body)
}

/// The served report must match the in-process one, and its edits must
/// take the dirty database to `Q(D') = Q(D_G)`.
fn check_report(job: &Job, body: &str) -> Result<(), String> {
    let report = parse(body)?;
    if report.get("report_text").and_then(Json::as_str) != Some(job.report.as_str()) {
        return Err("served report differs from the in-process clean_view report".to_string());
    }
    let schema = job.dirty.schema().clone();
    let mut db = (*job.dirty).clone();
    for edit in report
        .get("edits")
        .and_then(Json::as_array)
        .ok_or("report has no edits")?
    {
        let fact = edit.get("fact").ok_or("edit without a fact")?;
        let rel = fact
            .get("rel")
            .and_then(Json::as_str)
            .and_then(|r| schema.rel_id(r).ok())
            .ok_or("edit on an unknown relation")?;
        let values = fact
            .get("tuple")
            .and_then(Json::as_array)
            .ok_or("edit without a tuple")?
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or("untagged cell".to_string())
                    .and_then(parse_tagged_value)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let fact = Fact::new(rel, Tuple::new(values));
        let applied = match edit.get("op").and_then(Json::as_str) {
            Some("insert") => db.insert(fact),
            Some("delete") => db.remove(&fact),
            _ => return Err("edit without an op".to_string()),
        };
        applied.map_err(|e| e.to_string())?;
    }
    if sorted(answer_set(&job.query, &db)) != job.truth {
        return Err("Q(D') != Q(D_G)".to_string());
    }
    Ok(())
}

/// One `POST /answers` item for `answer`.
fn answer_item(seq: u64, answer: &Answer) -> String {
    let tagged = |v| json_str(&tagged_value(v));
    match answer {
        Answer::Bool(b) => format!("{{\"seq\":{seq},\"bool\":{b}}}"),
        Answer::MissingAnswer(None) => format!("{{\"seq\":{seq},\"missing\":null}}"),
        Answer::MissingAnswer(Some(t)) => {
            let cells: Vec<String> = t.values().iter().map(tagged).collect();
            format!("{{\"seq\":{seq},\"missing\":[{}]}}", cells.join(","))
        }
        Answer::Completion(None) => format!("{{\"seq\":{seq},\"completion\":null}}"),
        Answer::Completion(Some(a)) => {
            let binds: Vec<String> = a
                .iter()
                .map(|(var, value)| format!("{}:{}", json_str(var.name()), tagged(value)))
                .collect();
            format!("{{\"seq\":{seq},\"completion\":{{{}}}}}", binds.join(","))
        }
    }
}
