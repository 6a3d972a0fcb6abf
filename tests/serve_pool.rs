//! The listener's worker pool: connections are served on reused worker
//! threads, bounded by the in-flight cap, and neither a panicking handler
//! nor a reused worker leaks state into the next request.
//!
//! Every test holds `SERIAL`: the bound check counts this process's
//! `qoco-serve-conn` threads, which only works while no other test's
//! server is running.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use qoco::telemetry::{
    self, HttpRequest, HttpResponse, InMemoryCollector, MetricsServer, RouteHandler, ServerOptions,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Send `head` (the request line and headers, without the blank line)
/// and read the whole response. Empty when the server closed the
/// connection without answering.
fn send(addr: SocketAddr, head: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("{head}\r\nHost: qoco\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    String::from_utf8_lossy(&raw).into_owned()
}

fn start(handler: Arc<dyn RouteHandler>, max_connections: usize) -> MetricsServer {
    MetricsServer::start_with(
        "127.0.0.1:0",
        ServerOptions {
            handler: Some(handler),
            max_connections,
            max_body_bytes: 64,
            read_deadline: Duration::from_secs(2),
            ..ServerOptions::default()
        },
    )
    .expect("bind ephemeral port")
}

/// The `X-Request-Id` a response echoed.
fn echoed_id(response: &str) -> &str {
    response
        .lines()
        .find_map(|l| l.strip_prefix("X-Request-Id: "))
        .unwrap_or_else(|| panic!("no X-Request-Id echoed: {response}"))
}

/// How many of this process's threads are pool workers.
fn worker_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "qoco-serve-conn")
        .count()
}

/// Wait until `done` holds, for at most two seconds.
fn eventually(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// Records which thread served each request, and the request id that
/// thread reported as current while serving it.
#[derive(Default)]
struct Recorder {
    seen: Mutex<Vec<(ThreadId, Option<String>)>>,
}

impl RouteHandler for Recorder {
    fn handle(&self, req: &HttpRequest) -> Option<HttpResponse> {
        match req.route.as_str() {
            "/boom" => panic!("handler bug on {}", req.route),
            "/who" => {
                self.seen
                    .lock()
                    .unwrap()
                    .push((std::thread::current().id(), telemetry::current_request_id()));
                Some(HttpResponse::text("200 OK", "ok\n".to_string()))
            }
            _ => None,
        }
    }
}

#[test]
fn a_panicking_handler_does_not_leak_its_connection_slot() {
    let _serial = serial();
    let session = telemetry::session(Arc::new(InMemoryCollector::new()));
    let server = start(Arc::new(Recorder::default()), 2);
    let addr = server.local_addr();
    // without the slot coming back, the third panic would already be shed
    for _ in 0..3 {
        let response = send(addr, "GET /boom HTTP/1.1");
        assert!(!response.starts_with("HTTP/1.1 429"), "{response}");
    }
    let response = send(addr, "GET /who HTTP/1.1");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    let inflight = || {
        telemetry::metrics()
            .snapshot()
            .gauges
            .get("serve.inflight")
            .copied()
    };
    assert!(
        eventually(|| inflight() == Some(0.0)),
        "serve.inflight must return to 0, reads {:?}",
        inflight()
    );
    assert!(
        telemetry::inflight_requests().is_empty(),
        "a panicked request must leave the in-flight inspector"
    );
    drop(server);
    drop(session);
}

#[test]
fn workers_are_reused_and_bounded_by_the_connection_cap() {
    let _serial = serial();
    let recorder = Arc::new(Recorder::default());
    let server = start(recorder.clone(), 64);
    for _ in 0..200 {
        let response = send(server.local_addr(), "GET /who HTTP/1.1");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    }
    let threads: HashSet<ThreadId> = recorder.seen.lock().unwrap().iter().map(|s| s.0).collect();
    assert_eq!(recorder.seen.lock().unwrap().len(), 200);
    // a sequential client needs one worker, and a second only while the
    // first is still releasing the previous connection
    assert!(
        threads.len() <= 2,
        "200 sequential requests ran on {} threads",
        threads.len()
    );
    drop(server);

    assert!(
        eventually(|| worker_threads() == 0),
        "the dropped server's workers never exited"
    );
    let cap = 3;
    let server = start(recorder, cap);
    let addr = server.local_addr();
    let stalled: Vec<TcpStream> = (0..cap)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /wh").unwrap();
            s
        })
        .collect();
    assert!(
        eventually(|| worker_threads() == cap),
        "each stalled connection gets a worker; {} exist",
        worker_threads()
    );
    let response = send(addr, "GET /who HTTP/1.1");
    assert!(response.starts_with("HTTP/1.1 429"), "{response}");
    assert!(
        worker_threads() <= cap,
        "{} workers for a cap of {cap}",
        worker_threads()
    );
    drop(stalled);
    drop(server);
}

#[test]
fn request_scoped_state_does_not_leak_across_reused_workers() {
    let _serial = serial();
    let session = telemetry::session(Arc::new(InMemoryCollector::new()));
    let recorder = Arc::new(Recorder::default());
    let server = start(recorder.clone(), 64);
    let addr = server.local_addr();

    let a = send(addr, "GET /who HTTP/1.1\r\nX-Request-Id: a");
    let b = send(addr, "GET /who HTTP/1.1");
    // over the 64-byte body cap: rejected before any handler runs
    let c = send(addr, "POST /who HTTP/1.1\r\nContent-Length: 1000");
    assert!(a.starts_with("HTTP/1.1 200 OK"), "{a}");
    assert!(b.starts_with("HTTP/1.1 200 OK"), "{b}");
    assert!(c.starts_with("HTTP/1.1 413"), "{c}");

    let (a_id, b_id, c_id) = (echoed_id(&a), echoed_id(&b), echoed_id(&c));
    assert_eq!(a_id, "a");
    assert!(b_id.starts_with("qr-"), "{b}");
    assert!(c_id.starts_with("qr-") && c_id != b_id, "{c}");
    let seen: Vec<Option<String>> = recorder
        .seen
        .lock()
        .unwrap()
        .iter()
        .map(|s| s.1.clone())
        .collect();
    assert_eq!(
        seen,
        vec![Some("a".to_string()), Some(b_id.to_string())],
        "each handler must see its own request id"
    );
    assert!(telemetry::inflight_requests().is_empty());
    drop(server);
    drop(session);
}
