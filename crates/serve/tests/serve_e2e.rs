//! End-to-end tests for the evaluation daemon: real TCP transport,
//! real client, real binary over stdio, and the persistent store's
//! warm-start guarantees from ISSUE acceptance:
//!
//! - a warm daemon answers a repeated `explore` without re-synthesis
//!   (the store's own hit counters prove it),
//! - a restarted daemon against the same on-disk store still hits,
//! - work payloads are byte-identical at `threads: 1` vs `threads: 8`,
//! - SIGTERM drains in-flight work before the process exits.

use scanguard_obs::{prom_name, PROM_CONTENT_TYPE};
use scanguard_serve::{request_line, serve_http, serve_tcp, Daemon, ServeConfig};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// A scratch directory unique to this test invocation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "scanguard-e2e-{tag}-{}-{:?}",
        std::process::id(),
        thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Server {
    addr: String,
    http_addr: Option<String>,
    term: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
    http_handle: Option<thread::JoinHandle<Result<(), String>>>,
}

impl Server {
    /// Boots a daemon on an ephemeral loopback port.
    fn start(store_dir: Option<PathBuf>) -> Server {
        Server::start_full(store_dir, false)
    }

    /// Boots a daemon with the HTTP scrape endpoint alongside NDJSON.
    fn start_with_http() -> Server {
        Server::start_full(None, true)
    }

    fn start_full(store_dir: Option<PathBuf>, http: bool) -> Server {
        let cfg = ServeConfig {
            slots: 8,
            store_dir,
            ..ServeConfig::default()
        };
        let daemon = Arc::new(Daemon::new(&cfg).expect("daemon boots"));
        let term = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let d = daemon.clone();
        let t = term.clone();
        let handle = thread::spawn(move || {
            serve_tcp(&d, "127.0.0.1:0", &t, |bound| {
                tx.send(bound).expect("report bound address");
            })
            .expect("serve_tcp runs");
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("daemon binds");
        let (http_addr, http_handle) = if http {
            let (htx, hrx) = mpsc::channel();
            let d = daemon.clone();
            let t = term.clone();
            let h = thread::spawn(move || {
                serve_http(&d, "127.0.0.1:0", &t, |bound| {
                    htx.send(bound).expect("report bound http address");
                })
            });
            let a = hrx
                .recv_timeout(Duration::from_secs(10))
                .expect("http endpoint binds");
            (Some(a.to_string()), Some(h))
        } else {
            (None, None)
        };
        Server {
            addr: addr.to_string(),
            http_addr,
            term,
            handle: Some(handle),
            http_handle,
        }
    }

    /// The bound HTTP scrape address (panics without `start_with_http`).
    fn http_addr(&self) -> &str {
        self.http_addr.as_deref().expect("http endpoint started")
    }

    /// One request, returning the raw response line.
    fn raw(&self, line: &str) -> String {
        request_line(&self.addr, line, Some(Duration::from_secs(120))).expect("request round-trip")
    }

    /// One request, asserting `ok: true` and returning `result`.
    fn ok(&self, line: &str) -> Value {
        let resp = self.raw(line);
        let v: Value = serde_json::from_str(&resp).expect("response is JSON");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{resp}");
        v.get("result").expect("ok response has result").clone()
    }

    /// Asks the daemon to drain and joins the accept loop(s). The HTTP
    /// listener is joined *before* `term` is raised: the drain barrier
    /// alone must be enough to stop it.
    fn shutdown(mut self) {
        let resp = self.raw(r#"{"id":"bye","type":"shutdown"}"#);
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        if let Some(h) = self.http_handle.take() {
            h.join()
                .expect("http thread exits")
                .expect("http listener closes cleanly");
        }
        self.term.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().expect("server thread exits");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.term.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.http_handle.take() {
            let _ = h.join();
        }
    }
}

/// One raw HTTP/1.1 GET over a fresh connection; returns the whole
/// response (head + body) as text.
fn http_get(addr: &str, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("http connect");
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: e2e\r\nAccept: */*\r\n\r\n"
    )
    .expect("http request");
    conn.flush().expect("http flush");
    let mut resp = String::new();
    conn.read_to_string(&mut resp).expect("http response");
    resp
}

/// Splits an HTTP response into (head, body).
fn http_parts(resp: &str) -> (&str, &str) {
    resp.split_once("\r\n\r\n").expect("response has a head")
}

fn error_code(resp: &str) -> Option<String> {
    let v: Value = serde_json::from_str(resp).ok()?;
    v.get("error")?.get("code")?.as_str().map(ToOwned::to_owned)
}

fn store_stats(server: &Server) -> Value {
    let status = server.ok(r#"{"id":"st","type":"status"}"#);
    status
        .get("store")
        .expect("status reports store")
        .get("stats")
        .expect("store has stats")
        .clone()
}

fn stat(stats: &Value, key: &str) -> u64 {
    stats.get(key).and_then(Value::as_u64).unwrap_or(u64::MAX)
}

#[test]
fn tcp_daemon_answers_every_request_kind() {
    let dir = scratch("kinds");
    let server = Server::start(Some(dir.clone()));

    let version = server.ok(r#"{"id":1,"type":"version"}"#);
    assert_eq!(
        version.get("version").and_then(Value::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(version.get("cache_salt").and_then(Value::as_str).is_some());

    let status = server.ok(r#"{"id":2,"type":"status"}"#);
    assert_eq!(status.get("draining"), Some(&Value::Bool(false)));
    assert!(status.get("store").and_then(|s| s.get("salt")).is_some());

    let lint = server.ok(
        r#"{"id":3,"type":"lint","design":"fifo8x8","chains":8,"code":"crc16","test_width":4}"#,
    );
    assert_eq!(lint.get("clean"), Some(&Value::Bool(true)));

    let coverage = server.ok(
        r#"{"id":4,"type":"coverage","depth":4,"width":4,"chains":4,"code":"crc16","test_width":4,"patterns":2,"max_faults":8}"#,
    );
    let wall = coverage
        .get("coverage")
        .and_then(|c| c.get("wall_ms"))
        .and_then(Value::as_f64);
    assert_eq!(wall, Some(0.0), "wall_ms must be zeroed in responses");

    let explore = server.ok(r#"{"id":5,"type":"explore","design":"fifo4x4","trials":10}"#);
    let report = explore.get("report").expect("explore returns a report");
    assert!(explore.get("prune_rules").is_some());

    let pareto_req = Value::Object(vec![
        ("id".to_owned(), Value::Str("6".to_owned())),
        ("type".to_owned(), Value::Str("pareto".to_owned())),
        ("report".to_owned(), report.clone()),
        ("recommend".to_owned(), Value::Bool(true)),
    ]);
    let pareto = server.ok(&serde_json::to_string(&pareto_req).unwrap());
    assert!(pareto
        .get("front")
        .and_then(Value::as_array)
        .is_some_and(|f| !f.is_empty()));
    assert!(pareto
        .get("recommend")
        .and_then(|r| r.get("code"))
        .is_some());

    let metrics = server.ok(r#"{"id":7,"type":"metrics"}"#);
    assert!(metrics.get("counters").is_some());

    let missing = server.raw(r#"{"id":8,"type":"cancel","target":"nope"}"#);
    assert_eq!(error_code(&missing).as_deref(), Some("unknown-target"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_store_skips_resynthesis_and_survives_restart() {
    let dir = scratch("warm");
    let explore = |threads: usize| {
        format!(
            r#"{{"id":"warm","type":"explore","design":"fifo4x4","trials":10,"threads":{threads}}}"#
        )
    };

    // Cold daemon: the first explore builds everything and writes the
    // store; the second must be answered from it without re-synthesis.
    let server = Server::start(Some(dir.clone()));
    let first = server.raw(&explore(4));
    let after_first = store_stats(&server);
    assert!(
        stat(&after_first, "writes") > 0,
        "cold run populates the store: {after_first:?}"
    );
    assert_eq!(stat(&after_first, "hits"), 0, "{after_first:?}");

    let second = server.raw(&explore(4));
    assert_eq!(first, second, "warm response must be byte-identical");
    let after_second = store_stats(&server);
    assert!(
        stat(&after_second, "hits") > 0,
        "warm run is served from the store: {after_second:?}"
    );
    assert_eq!(
        stat(&after_second, "writes"),
        stat(&after_first, "writes"),
        "warm run must not re-synthesize: {after_second:?}"
    );

    // Thread count must not leak into payload bytes, warm or cold.
    let one = server.raw(&explore(1));
    let eight = server.raw(&explore(8));
    assert_eq!(one, eight, "payloads must be thread-count-blind");
    assert_eq!(first, one, "cache temperature must not change payloads");
    server.shutdown();

    // Restart against the same on-disk store: still warm.
    let server = Server::start(Some(dir.clone()));
    let revived = server.raw(&explore(4));
    assert_eq!(first, revived, "restart must not change payloads");
    let after_restart = store_stats(&server);
    assert!(
        stat(&after_restart, "hits") > 0,
        "restarted daemon hits the persisted store: {after_restart:?}"
    );
    assert_eq!(
        stat(&after_restart, "writes"),
        0,
        "restarted daemon re-synthesizes nothing: {after_restart:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// ISSUE acceptance: the daemon `verify` request proves the exhaustive
/// upset sweep over the wire, caches the verdict in the persistent
/// store under the *netlist content hash* (so two request spellings of
/// the same design share one entry), and survives a daemon restart.
#[test]
fn verify_round_trips_caches_by_netlist_and_survives_restart() {
    let dir = scratch("verify");
    let server = Server::start(Some(dir.clone()));
    let req = r#"{"id":"v","type":"verify","design":"fifo8x8","chains":8,"code":"hamming:3","test_width":4}"#;

    let first = server.raw(req);
    let v: Value = serde_json::from_str(&first).expect("verify response is JSON");
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{first}");
    let result = v.get("result").expect("ok response has result").clone();
    assert_eq!(result.get("clean"), Some(&Value::Bool(true)), "{first}");
    let verify = result.get("verify").expect("verify section present");
    assert!(
        verify
            .get("singles_swept")
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0),
        "exhaustive single sweep reported: {verify:?}"
    );
    assert!(
        verify
            .get("failures")
            .and_then(Value::as_array)
            .is_some_and(Vec::is_empty),
        "clean design has no failing patterns: {verify:?}"
    );
    let cold = store_stats(&server);
    assert!(stat(&cold, "writes") > 0, "cold verify is stored: {cold:?}");

    // Warm: byte-identical response, answered from the store.
    let second = server.raw(req);
    assert_eq!(first, second, "warm verify must be byte-identical");
    let warm = store_stats(&server);
    assert!(stat(&warm, "hits") > 0, "{warm:?}");
    assert_eq!(stat(&warm, "writes"), stat(&cold, "writes"), "{warm:?}");

    // A different request spelling of the same netlist (all defaults
    // except the design) lands on the same content-hash entry: no new
    // store write, identical result payload.
    let spelled = server.ok(r#"{"id":"v2","type":"verify","design":"fifo8x8"}"#);
    assert_eq!(spelled, result, "same netlist, same cached verdict");
    let respelled = store_stats(&server);
    assert_eq!(stat(&respelled, "writes"), stat(&cold, "writes"));
    server.shutdown();

    // Restart against the same on-disk store: still warm.
    let server = Server::start(Some(dir.clone()));
    let revived = server.raw(req);
    assert_eq!(first, revived, "restart must not change verify payloads");
    let restarted = store_stats(&server);
    assert!(stat(&restarted, "hits") > 0, "{restarted:?}");
    assert_eq!(stat(&restarted, "writes"), 0, "{restarted:?}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// ISSUE acceptance at the binary level: `verify --json` writes
/// byte-identical documents across runs (the engine is deterministic
/// and records no wall-clock), and `--seed-bad` turns the exit code
/// nonzero with the sweep report still written.
#[test]
fn verify_json_files_are_byte_identical_and_seed_bad_fails() {
    let dir = scratch("verify-json");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_scanguard"))
            .args(args)
            .output()
            .expect("verify binary runs")
    };

    let a = run(&["verify", "fifo8x8", "--json", &out("a.json")]);
    assert!(a.status.success(), "clean verify exits 0: {a:?}");
    let b = run(&["verify", "fifo8x8", "--json", &out("b.json")]);
    assert!(b.status.success());
    let doc_a = std::fs::read(dir.join("a.json")).expect("first document");
    let doc_b = std::fs::read(dir.join("b.json")).expect("second document");
    assert_eq!(doc_a, doc_b, "verify --json must be byte-stable");

    let bad = run(&[
        "verify",
        "fifo8x8",
        "--seed-bad",
        "drop-correction",
        "--json",
        &out("bad.json"),
    ]);
    assert!(
        !bad.status.success(),
        "seeded-bad verify must exit nonzero: {bad:?}"
    );
    let doc: Value = serde_json::from_str(
        &std::fs::read_to_string(dir.join("bad.json")).expect("failing verify still writes JSON"),
    )
    .expect("document parses");
    let failures = doc
        .get("verify")
        .and_then(|v| v.get("failures"))
        .and_then(Value::as_array)
        .expect("failures recorded");
    assert!(!failures.is_empty(), "seeded bug yields failing patterns");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_aborts_an_inflight_explore() {
    let server = Server::start(None);
    let addr = server.addr.clone();
    let worker = thread::spawn(move || {
        request_line(
            &addr,
            r#"{"id":77,"type":"explore","design":"fifo32x32","trials":5000}"#,
            Some(Duration::from_secs(300)),
        )
        .expect("worker request round-trips")
    });
    // Wait until the request registers as in flight, then cancel it.
    let mut cancelled = false;
    for _ in 0..600 {
        let resp = server.raw(r#"{"id":"c","type":"cancel","target":77}"#);
        if resp.contains(r#""ok":true"#) {
            cancelled = true;
            break;
        }
        assert_eq!(error_code(&resp).as_deref(), Some("unknown-target"));
        thread::sleep(Duration::from_millis(10));
    }
    assert!(cancelled, "explore never registered as in flight");
    let resp = worker.join().expect("worker thread");
    assert_eq!(
        error_code(&resp).as_deref(),
        Some("cancelled"),
        "cancelled explore must report so: {resp}"
    );
    server.shutdown();
}

#[test]
fn stdio_binary_round_trips_and_drains_on_sigterm() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scanguard"))
        .arg("serve")
        .arg("--threads")
        .arg("4")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon binary starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);

    writeln!(stdin, r#"{{"id":1,"type":"version"}}"#).expect("send version");
    stdin.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("version response");
    assert!(line.contains(r#""ok":true"#), "{line}");
    assert!(line.contains(env!("CARGO_PKG_VERSION")), "{line}");

    // Put a long explore in flight, then SIGTERM: the drain barrier
    // must still deliver its response before the process exits.
    writeln!(
        stdin,
        r#"{{"id":2,"type":"explore","design":"fifo8x8","trials":5000}}"#
    )
    .expect("send explore");
    stdin.flush().expect("flush");
    thread::sleep(Duration::from_millis(300));
    let killed = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .expect("kill runs");
    assert!(killed.success(), "kill -TERM failed");

    let mut resp = String::new();
    reader.read_line(&mut resp).expect("drained response");
    assert!(
        resp.contains(r#""id":2"#) && resp.contains(r#""ok":true"#),
        "in-flight work must drain before exit: {resp}"
    );
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "graceful exit expected, got {status}");
}

/// ISSUE acceptance: a warm daemon's `GET /metrics` Prometheus body
/// carries the same counter values as the NDJSON `metrics` snapshot
/// taken in the same instant, and the `shutdown` drain closes the
/// HTTP listener as cleanly as the work listener.
#[test]
fn http_metrics_agree_with_ndjson_and_drain_closes_the_listener() {
    let server = Server::start_with_http();

    // Warm the daemon with real work so the counters are non-trivial.
    server.ok(
        r#"{"id":"w1","type":"lint","design":"fifo8x8","chains":8,"code":"crc16","test_width":4}"#,
    );
    server.ok(
        r#"{"id":"w2","type":"coverage","depth":4,"width":4,"chains":4,"code":"crc16","test_width":4,"patterns":4,"max_faults":16}"#,
    );

    // Same instant: the daemon is idle, so deterministic counters are
    // frozen between the NDJSON snapshot and the HTTP scrape — every
    // one of them must appear in the exposition with the same value.
    let metrics = server.ok(r#"{"id":"m","type":"metrics"}"#);
    let Some(Value::Object(counters)) = metrics.get("counters").cloned() else {
        panic!("metrics response carries a counters object: {metrics:?}");
    };
    assert!(!counters.is_empty(), "warm daemon has counters");

    let resp = http_get(server.http_addr(), "/metrics");
    let (head, body) = http_parts(&resp);
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(
        head.contains(&format!("Content-Type: {PROM_CONTENT_TYPE}")),
        "{head}"
    );
    for (name, value) in &counters {
        let value = value.as_u64().expect("counter values are integers");
        let line = format!("{}_total {value}", prom_name(name));
        assert!(
            body.lines().any(|l| l == line),
            "exposition must carry {line:?}:\n{body}"
        );
    }
    // Histogram shape: cumulative buckets capped by +Inf.
    assert!(body.contains("_bucket{le=\"+Inf\"}"), "{body}");

    // The drain barrier alone (no SIGTERM) must stop the HTTP accept
    // loop; shutdown() joins it before raising term and panics if the
    // listener errors. A post-drain scrape must find the port closed.
    let http_addr = server.http_addr().to_owned();
    server.shutdown();
    assert!(
        TcpStream::connect(&http_addr).is_err(),
        "drained daemon must close the scrape listener"
    );
}

/// `metrics` with `deterministic: true` is byte-identical across
/// worker thread counts: every wall-clock-derived section is dropped.
#[test]
fn deterministic_metrics_are_thread_count_blind() {
    let run = |threads: usize| {
        let server = Server::start(None);
        server.ok(&format!(
            r#"{{"id":"w","type":"coverage","depth":4,"width":4,"chains":4,"code":"crc16","test_width":4,"patterns":4,"max_faults":16,"threads":{threads}}}"#
        ));
        let resp = server.raw(r#"{"id":"m","type":"metrics","deterministic":true}"#);
        server.shutdown();
        resp
    };
    assert_eq!(
        run(1),
        run(8),
        "deterministic metrics must be byte-identical across thread counts"
    );
}

/// The binary with `--http` serves Prometheus text over a real socket
/// and survives SIGTERM with the listener closed cleanly.
#[test]
fn http_endpoint_in_the_binary_survives_sigterm() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scanguard"))
        .args(["serve", "--threads", "2", "--http", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon binary starts");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut err_reader = BufReader::new(stderr);
    // On the stdio transport the bound address is announced on stderr
    // (stdout carries NDJSON responses).
    let http_addr = loop {
        let mut line = String::new();
        let n = err_reader.read_line(&mut line).expect("stderr line");
        assert!(n > 0, "daemon exited before announcing the http address");
        if let Some(addr) = line.trim().strip_prefix("http listening ") {
            break addr.to_owned();
        }
    };

    let resp = http_get(&http_addr, "/metrics");
    let (head, body) = http_parts(&resp);
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(
        head.contains(&format!("Content-Type: {PROM_CONTENT_TYPE}")),
        "{head}"
    );
    assert!(body.contains("scanguard_serve_uptime_ms"), "{body}");

    // NDJSON on stdio still answers while the scrape endpoint is up.
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut out_reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    writeln!(stdin, r#"{{"id":1,"type":"version"}}"#).expect("send version");
    stdin.flush().expect("flush");
    let mut line = String::new();
    out_reader.read_line(&mut line).expect("version response");
    assert!(line.contains(r#""ok":true"#), "{line}");

    let killed = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .expect("kill runs");
    assert!(killed.success(), "kill -TERM failed");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "graceful exit expected, got {status}");
    assert!(
        TcpStream::connect(&http_addr).is_err(),
        "terminated daemon must close the scrape listener"
    );
}
