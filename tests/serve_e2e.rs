//! End-to-end chaos tests for `qoco-serve`: real processes, real HTTP,
//! real `SIGKILL`.
//!
//! The acceptance criterion for the serving layer: a session driven over
//! the API, killed with `kill -9` mid-session, rehydrated by a fresh
//! process over the same store, and then finished, must produce a report
//! **byte-identical** to an uninterrupted run's — and every duplicate or
//! pre-crash (stale-epoch) submission along the way must be acknowledged
//! without being applied twice.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use qoco::core::{figure1_ground, figure1_spec, SessionMachine};
use qoco::crowd::{tagged_value, Answer, Oracle, PerfectOracle};

/// A running `qoco-serve` child plus the address it bound. The stdout
/// pipe stays open for the server's lifetime — dropping it would EPIPE
/// the child's later banner prints.
struct Server {
    child: Child,
    addr: String,
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Server {
    fn start(store: &std::path::Path, extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qoco-serve"))
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--store")
            .arg(store)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn qoco-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut first = String::new();
        reader.read_line(&mut first).expect("readable stdout");
        let addr = first
            .trim_end()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {first}"))
            .to_string();
        Server {
            child,
            addr,
            _stdout: reader,
        }
    }

    /// `kill -9`: no shutdown handler runs, nothing gets flushed.
    fn kill_9(&mut self) {
        self.child.kill().expect("SIGKILL");
        self.child.wait().expect("reap");
    }

    fn http(&self, method: &str, path: &str, body: &str) -> (String, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("HTTP response");
        let status = head
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1.1 "))
            .expect("status line");
        (status.to_string(), body.to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tmp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qoco-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The correct Figure 1 answer sequence, as `POST /answers` item JSON,
/// computed from a local mirror of the deterministic session.
fn figure1_answer_items() -> Vec<String> {
    let mut m = SessionMachine::new(figure1_spec());
    let mut oracle = PerfectOracle::new(figure1_ground());
    let mut items = Vec::new();
    while let Some(p) = m.pending().cloned() {
        let answer = oracle.answer(&p.question).expect("perfect oracle");
        let item = match &answer {
            Answer::Bool(b) => format!("{{\"seq\":{},\"bool\":{b}}}", p.seq),
            Answer::MissingAnswer(None) => format!("{{\"seq\":{},\"missing\":null}}", p.seq),
            Answer::MissingAnswer(Some(t)) => {
                let cells: Vec<String> = t
                    .values()
                    .iter()
                    .map(|v| format!("\"{}\"", tagged_value(v)))
                    .collect();
                format!("{{\"seq\":{},\"missing\":[{}]}}", p.seq, cells.join(","))
            }
            other => panic!("figure 1 never asks for {other:?}"),
        };
        items.push(item);
        m.submit(p.seq, Ok(answer)).expect("mirror submission");
    }
    assert!(items.len() >= 3, "figure 1 takes a few questions");
    items
}

fn report_text(body: &str) -> String {
    // pull the `"report_text":"…"` JSON string field out by hand
    let start = body
        .find("\"report_text\":\"")
        .expect("report_text present")
        + "\"report_text\":\"".len();
    let mut out = String::new();
    let mut chars = body[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => break,
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(c) => out.push(c),
                None => break,
            },
            c => out.push(c),
        }
    }
    out
}

#[test]
fn killed_and_rehydrated_session_matches_the_uninterrupted_run_byte_for_byte() {
    let items = figure1_answer_items();

    // --- the uninterrupted baseline ---
    let store_a = tmp_store("baseline");
    let server_a = Server::start(&store_a, &[]);
    let (status, _) = server_a.http("POST", "/sessions", "{\"example\":\"figure1\"}");
    assert_eq!(status, "201 Created");
    let batch = format!("{{\"epoch\":1,\"answers\":[{}]}}", items.join(","));
    let (status, body) = server_a.http("POST", "/sessions/s1/answers", &batch);
    assert_eq!(status, "200 OK", "{body}");
    assert_eq!(body.matches("\"status\":\"applied\"").count(), items.len());
    let (status, body) = server_a.http("GET", "/sessions/s1/report", "");
    assert_eq!(status, "200 OK", "{body}");
    assert!(body.contains("\"partial\":false"), "{body}");
    let baseline = report_text(&body);
    assert!(baseline.contains("1 wrong answer(s) removed"), "{baseline}");
    drop(server_a);
    let _ = std::fs::remove_dir_all(&store_a);

    // --- the chaos run: kill -9 after the first answer ---
    let store_b = tmp_store("chaos");
    let mut server_b = Server::start(&store_b, &[]);
    let (status, _) = server_b.http("POST", "/sessions", "{\"example\":\"figure1\"}");
    assert_eq!(status, "201 Created");
    let first = format!("{{\"epoch\":1,\"answers\":[{}]}}", items[0]);
    let (status, body) = server_b.http("POST", "/sessions/s1/answers", &first);
    assert_eq!(status, "200 OK", "{body}");
    assert!(body.contains("\"status\":\"applied\""), "{body}");
    server_b.kill_9();

    // a fresh process over the same store rehydrates the parked session
    let server_c = Server::start(&store_b, &[]);
    let (status, body) = server_c.http("GET", "/sessions/s1/pending", "");
    assert_eq!(status, "200 OK", "{body}");
    assert!(
        body.contains("\"epoch\":2"),
        "restart bumps the epoch: {body}"
    );
    assert!(
        body.contains("\"seq\":2"),
        "parked on the next question: {body}"
    );

    // a pre-crash submitter retries its answer under the old epoch:
    // acknowledged as stale, not applied
    let (status, body) = server_c.http("POST", "/sessions/s1/answers", &first);
    assert_eq!(status, "200 OK", "{body}");
    assert!(body.contains("\"status\":\"stale\""), "{body}");
    assert!(body.contains("\"seq\":2"), "still parked on seq 2: {body}");

    // a duplicate of the consumed answer under the current epoch
    let dup = format!("{{\"epoch\":2,\"answers\":[{}]}}", items[0]);
    let (status, body) = server_c.http("POST", "/sessions/s1/answers", &dup);
    assert_eq!(status, "200 OK", "{body}");
    assert!(body.contains("\"status\":\"duplicate\""), "{body}");

    // finish under the new epoch and compare reports byte for byte
    let rest = format!("{{\"epoch\":2,\"answers\":[{}]}}", items[1..].join(","));
    let (status, body) = server_c.http("POST", "/sessions/s1/answers", &rest);
    assert_eq!(status, "200 OK", "{body}");
    let (status, body) = server_c.http("GET", "/sessions/s1/report", "");
    assert_eq!(status, "200 OK", "{body}");
    assert!(body.contains("\"partial\":false"), "{body}");
    assert_eq!(
        report_text(&body),
        baseline,
        "killed+rehydrated report must be byte-identical to the uninterrupted run"
    );
    drop(server_c);
    let _ = std::fs::remove_dir_all(&store_b);
}

#[test]
fn health_and_404_expose_the_session_routes() {
    let store = tmp_store("routes");
    let server = Server::start(&store, &[]);
    let (status, _) = server.http("POST", "/sessions", "{\"example\":\"figure1\"}");
    assert_eq!(status, "201 Created");
    let (status, body) = server.http("GET", "/health", "");
    assert_eq!(status, "200 OK");
    assert!(
        body.contains("\"sessions\":{\"active\":1,\"parked\":1}"),
        "{body}"
    );
    let (status, body) = server.http("GET", "/no-such-route", "");
    assert_eq!(status, "404 Not Found");
    assert!(body.contains("POST /sessions"), "{body}");
    assert!(body.contains("GET /sessions/{id}/report"), "{body}");
    drop(server);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn a_deeply_nested_body_is_rejected_and_the_server_lives_on() {
    let store = tmp_store("nesting");
    let server = Server::start(&store, &[]);
    let (status, _) = server.http("POST", "/sessions", "{\"example\":\"figure1\"}");
    assert_eq!(status, "201 Created");
    // far past the parser's nesting limit, well under the body cap
    let bomb = "[".repeat(200_000);
    for route in ["/sessions", "/sessions/s1/answers"] {
        let (status, body) = server.http("POST", route, &bomb);
        assert_eq!(status, "400 Bad Request", "{route}: {body}");
        assert!(body.contains("nesting too deep"), "{route}: {body}");
    }
    let (status, body) = server.http(
        "POST",
        "/sessions/s1/answers",
        "{\"epoch\":1,\"answers\":[{\"seq\":1,\"bool\":false}]}",
    );
    assert_eq!(status, "200 OK", "{body}");
    assert!(body.contains("\"status\":\"applied\""), "{body}");
    drop(server);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn the_reaper_expires_abandoned_sessions_into_partial_reports() {
    let store = tmp_store("reaper");
    let server = Server::start(&store, &["--deadline-ms", "50", "--reap-interval-ms", "25"]);
    let (status, _) = server.http("POST", "/sessions", "{\"example\":\"figure1\"}");
    assert_eq!(status, "201 Created");
    // abandon the session; the reaper thread must expire it
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = server.http("GET", "/sessions/s1/report", "");
        if status == "200 OK" {
            assert!(body.contains("\"partial\":true"), "{body}");
            assert!(body.contains("PARTIAL REPORT"), "{body}");
            break;
        }
        assert_eq!(status, "409 Conflict", "{body}");
        assert!(
            std::time::Instant::now() < deadline,
            "reaper never expired the session"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn serving_many_requests_keeps_the_servers_memory_flat() {
    let store = tmp_store("rss");
    let server = Server::start(&store, &[]);
    let status_path = format!("/proc/{}/status", server.child.id());
    let rss_kb = || -> u64 {
        let status = std::fs::read_to_string(&status_path).expect("child /proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmRSS line")
    };
    // an unknown session's pending question: a 404 through the registry
    let request = || {
        let (status, _) = server.http("GET", "/sessions/s9/pending", "");
        assert_eq!(status, "404 Not Found");
    };
    for _ in 0..500 {
        request();
    }
    let warm = rss_kb();
    for _ in 0..5_000 {
        request();
    }
    let grown = rss_kb().saturating_sub(warm);
    assert!(
        grown < 1024,
        "5,000 requests grew the server's RSS by {grown} kB (from {warm} kB)"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&store);
}
