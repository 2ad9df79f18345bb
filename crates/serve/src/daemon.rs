//! The daemon: accepts NDJSON requests, runs each on its own thread,
//! and multiplexes the heavy ones onto a shared worker budget.
//!
//! One [`Daemon`] lives for the whole process. Every request gets its
//! own handler thread (so a long `explore` never blocks a `status`
//! probe), but the *worker* threads those handlers fan out to come
//! from one [`PoolBudget`] — concurrent requests share the machine
//! instead of oversubscribing it.
//!
//! Determinism contract: the `result` payload of `lint`, `verify`,
//! `coverage`, `explore` and `pareto` responses is byte-identical for
//! the same request at any thread count and any cache temperature. Wall-clock
//! fields are zeroed (`coverage.wall_ms`) and scheduling-dependent
//! observations only ever appear in `status`/`metrics` responses,
//! which are explicitly outside the contract.

use crate::job::{Job, JobCtx, Params};
use crate::protocol::{err_response, id_key, num, ok_response, ErrorCode, Request};
use scanguard_explore::{cache_salt, DiskStore, StoreLimits};
use scanguard_obs::{to_prometheus, Recorder, RecorderConfig};
use scanguard_par::{CancelToken, PoolBudget};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a [`Daemon`] is provisioned.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total worker threads shared by all concurrent requests.
    pub slots: usize,
    /// Root of the persistent content-addressed build store; `None`
    /// serves from memory only.
    pub store_dir: Option<PathBuf>,
    /// Eviction bounds for the persistent store.
    pub store_limits: StoreLimits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            slots: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            store_dir: None,
            store_limits: StoreLimits::default(),
        }
    }
}

/// A request currently being served, addressable by its client id.
struct Inflight {
    token: CancelToken,
}

/// The serving core, shared by every transport and every request
/// thread.
pub struct Daemon {
    budget: PoolBudget,
    store: Option<DiskStore>,
    rec: Recorder,
    started: Instant,
    requests_total: AtomicU64,
    inflight: Mutex<HashMap<String, Inflight>>,
    draining: AtomicBool,
}

/// Request kinds answered inline from daemon state (the work kinds,
/// [`Job::KINDS`], register for cancellation, deadlines and the drain
/// barrier).
const CONTROL_KINDS: &[&str] = &["status", "metrics", "version", "cancel", "shutdown"];

/// The parameters a control kind takes, checked like a job's keys.
fn control_keys(kind: &str) -> &'static str {
    match kind {
        "metrics" => "deterministic",
        "cancel" => "target",
        _ => "",
    }
}

impl Daemon {
    /// Builds a daemon, opening (or creating) the persistent store when
    /// one is configured.
    ///
    /// # Errors
    ///
    /// Returns a message when the store root cannot be opened.
    pub fn new(cfg: &ServeConfig) -> Result<Daemon, String> {
        let store = match &cfg.store_dir {
            Some(dir) => Some(DiskStore::open(dir, cfg.store_limits)?),
            None => None,
        };
        Ok(Daemon {
            budget: PoolBudget::new(cfg.slots),
            store,
            rec: Recorder::new(RecorderConfig {
                metrics: true,
                ..RecorderConfig::default()
            }),
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
        })
    }

    /// The daemon's recorder (always collecting metrics).
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The Prometheus text-exposition body for `GET /metrics`: every
    /// counter and histogram in the registry plus daemon gauges
    /// (uptime, in-flight requests, budget occupancy and queue depth).
    /// Rates are left to the scraper: every counter, the volatile
    /// `par.worker.NN.busy_ns`/`idle_ns` included, is exported as a
    /// running total.
    #[must_use]
    pub fn prometheus_body(&self) -> String {
        let snap = self.rec.metrics_snapshot();
        let uptime = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        let gauges: Vec<(String, f64)> = vec![
            ("serve.uptime_ms".to_owned(), uptime as f64),
            ("serve.inflight".to_owned(), self.inflight_len() as f64),
            ("serve.budget.slots".to_owned(), self.budget.slots() as f64),
            (
                "serve.budget.available".to_owned(),
                self.budget.available() as f64,
            ),
            (
                "serve.budget.waiters".to_owned(),
                self.budget.waiters() as f64,
            ),
        ];
        to_prometheus(&snap, &gauges)
    }

    /// The persistent store, when configured.
    #[must_use]
    pub fn store(&self) -> Option<&DiskStore> {
        self.store.as_ref()
    }

    /// Whether the daemon has stopped taking new work.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Stops accepting new work; in-flight requests run to completion.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Requests currently being served.
    #[must_use]
    pub fn inflight_len(&self) -> usize {
        self.inflight.lock().expect("inflight registry").len()
    }

    /// Serves one request line, returning the one response line (no
    /// trailing newline). Never panics on malformed input — protocol
    /// errors become error responses.
    pub fn handle_line(&self, line: &str) -> String {
        let req = match Request::parse(line) {
            Ok(r) => r,
            Err((code, msg)) => return err_response(&Value::Null, code, &msg),
        };
        let known =
            Job::KINDS.contains(&req.kind.as_str()) || CONTROL_KINDS.contains(&req.kind.as_str());
        if !known {
            return err_response(
                &req.id,
                ErrorCode::UnknownType,
                &format!(
                    "unknown request type {:?} (valid: {} {})",
                    req.kind,
                    Job::KINDS.join(" "),
                    CONTROL_KINDS.join(" ")
                ),
            );
        }
        let started = Instant::now();
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        self.rec.counter("serve.requests").inc();
        self.rec
            .counter(&format!("serve.requests.{}", req.kind))
            .inc();
        let result = if Job::KINDS.contains(&req.kind.as_str()) {
            self.run_work(&req)
        } else {
            self.run_control(&req)
        };
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.rec
            .histogram_volatile("serve.request_latency_us")
            .record(elapsed_us);
        match result {
            Ok(value) => ok_response(&req.id, value),
            Err((code, msg)) => err_response(&req.id, code, &msg),
        }
    }

    // ----------------------------------------------------- work requests

    /// Runs a work request under the in-flight registry: cancellable by
    /// a `cancel` request naming its id, aborted when its `timeout_ms`
    /// deadline fires, rejected outright while draining. A handler that
    /// panics answers `failed` and leaves the registry like any other.
    fn run_work(&self, req: &Request) -> Result<Value, (ErrorCode, String)> {
        if self.is_draining() {
            return Err((
                ErrorCode::Draining,
                "daemon is draining and accepts no new work".into(),
            ));
        }
        let job = Job::parse(&req.kind, &Params::Wire(&req.body))
            .map_err(|m| (ErrorCode::BadRequest, m))?;
        let token = CancelToken::new();
        let deadline = req
            .timeout_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let key = id_key(&req.id);
        self.inflight.lock().expect("inflight registry").insert(
            key.clone(),
            Inflight {
                token: token.clone(),
            },
        );
        // The job's token carries the deadline; `token` itself only
        // reports an explicit `cancel` request.
        let run_token = deadline.map_or_else(|| token.clone(), |d| token.with_deadline(d));
        let grant = job
            .workers(self.budget.slots())
            .map(|want| self.budget.acquire(want));
        let ctx = JobCtx {
            threads: grant.as_ref().map_or(1, |g| g.threads()),
            obs: Some(&self.rec),
            cancel: Some(&run_token),
            store: self.store.as_ref(),
            deterministic: true,
        };
        let result = caught(&req.kind, || job.run(&ctx));
        let returned = Instant::now();
        drop(grant);
        self.inflight
            .lock()
            .expect("inflight registry")
            .remove(&key);
        // The deadline wins over whatever the handler managed to
        // produce: a run that returned after `timeout_ms` elapsed
        // answers an error, even if an uncancellable stage completed.
        if deadline.is_some_and(|d| returned >= d) {
            let ms = req.timeout_ms.unwrap_or(0);
            return Err((ErrorCode::Timeout, format!("deadline of {ms} ms exceeded")));
        }
        // An acknowledged `cancel` wins the same way: it fired while the
        // request was still registered, so the token reads cancelled
        // here, whatever the handler returned.
        if token.is_cancelled() {
            let msg = result
                .err()
                .map_or_else(|| "request cancelled".to_owned(), |(_, m)| m);
            return Err((ErrorCode::Cancelled, msg));
        }
        result
    }

    // -------------------------------------------------- control requests

    fn run_control(&self, req: &Request) -> Result<Value, (ErrorCode, String)> {
        let p = Params::Wire(&req.body);
        p.check(&req.kind, control_keys(&req.kind))
            .map_err(|m| (ErrorCode::BadRequest, m))?;
        match req.kind.as_str() {
            "status" => Ok(self.status()),
            "metrics" => self.metrics(&p).map_err(|m| (ErrorCode::BadRequest, m)),
            "version" => Ok(self.version()),
            "cancel" => self.cancel(req),
            "shutdown" => {
                self.begin_drain();
                Ok(Value::Object(vec![(
                    "draining".to_owned(),
                    Value::Bool(true),
                )]))
            }
            other => unreachable!("non-control kind {other} dispatched as control"),
        }
    }

    /// The `metrics` control response: the registry snapshot, minus
    /// everything wall-clock-dependent when `"deterministic": true` —
    /// volatile sections dropped, so the payload is byte-identical
    /// across thread counts and cache temperatures.
    fn metrics(&self, p: &Params) -> Result<Value, String> {
        let deterministic = p.bool("deterministic")?.unwrap_or(false);
        let snap = self.rec.metrics_snapshot();
        let fields = if deterministic {
            vec![
                ("counters".to_owned(), Serialize::to_value(&snap.counters)),
                (
                    "histograms".to_owned(),
                    Serialize::to_value(&snap.histograms),
                ),
            ]
        } else {
            match snap.to_value() {
                Value::Object(fields) => fields,
                other => vec![("snapshot".to_owned(), other)],
            }
        };
        Ok(Value::Object(fields))
    }

    pub(crate) fn status(&self) -> Value {
        let store = match &self.store {
            Some(s) => Value::Object(vec![
                ("salt".to_owned(), Value::Str(s.salt().to_owned())),
                ("stats".to_owned(), s.stats().to_value()),
            ]),
            None => Value::Null,
        };
        Value::Object(vec![
            (
                "requests_total".to_owned(),
                num(self.requests_total.load(Ordering::Relaxed)),
            ),
            ("inflight".to_owned(), num(self.inflight_len() as u64)),
            ("draining".to_owned(), Value::Bool(self.is_draining())),
            (
                "budget".to_owned(),
                Value::Object(vec![
                    ("slots".to_owned(), num(self.budget.slots() as u64)),
                    ("available".to_owned(), num(self.budget.available() as u64)),
                    ("waiters".to_owned(), num(self.budget.waiters() as u64)),
                ]),
            ),
            ("store".to_owned(), store),
            (
                "uptime_ms".to_owned(),
                num(u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)),
            ),
        ])
    }

    fn version(&self) -> Value {
        let salt = self
            .store
            .as_ref()
            .map_or_else(cache_salt, |s| s.salt().to_owned());
        Value::Object(vec![
            (
                "version".to_owned(),
                Value::Str(env!("CARGO_PKG_VERSION").to_owned()),
            ),
            ("cache_salt".to_owned(), Value::Str(salt)),
        ])
    }

    fn cancel(&self, req: &Request) -> Result<Value, (ErrorCode, String)> {
        let target = match req.body.get("target") {
            None => {
                return Err((
                    ErrorCode::BadRequest,
                    "cancel needs a \"target\" id".to_owned(),
                ))
            }
            Some(Value::Array(_) | Value::Object(_)) => {
                return Err((
                    ErrorCode::BadRequest,
                    "parameter \"target\" must be a request id (a JSON scalar)".to_owned(),
                ))
            }
            Some(target) => target,
        };
        let key = id_key(target);
        let registry = self.inflight.lock().expect("inflight registry");
        match registry.get(&key) {
            Some(entry) => {
                entry.token.cancel();
                Ok(Value::Object(vec![(
                    "cancelled".to_owned(),
                    target.clone(),
                )]))
            }
            None => Err((
                ErrorCode::UnknownTarget,
                format!("no in-flight request with id {key}"),
            )),
        }
    }
}

// ------------------------------------------------------------ transports

/// Pumps request lines from `lines` into the daemon, one handler
/// thread per line, writing each response as one line under the writer
/// lock. Returns when the channel closes (EOF/disconnect), `term` goes
/// true (SIGTERM), or the daemon starts draining — after joining every
/// handler it spawned, so in-flight responses always land before the
/// transport closes.
pub fn serve_lines<W: Write + Send + 'static>(
    daemon: &Arc<Daemon>,
    lines: &Receiver<String>,
    out: &Arc<Mutex<W>>,
    term: &Arc<AtomicBool>,
) {
    let mut handles = Vec::new();
    loop {
        if term.load(Ordering::SeqCst) || daemon.is_draining() {
            break;
        }
        match lines.recv_timeout(Duration::from_millis(50)) {
            Ok(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let daemon = daemon.clone();
                let out = out.clone();
                handles.push(std::thread::spawn(move || {
                    let resp = daemon.handle_line(&line);
                    let mut w = out.lock().expect("response writer");
                    let _ = writeln!(w, "{resp}");
                    let _ = w.flush();
                }));
                handles.retain(|h| !h.is_finished());
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for h in handles {
        let _ = h.join();
    }
}

/// Serves stdin → stdout until EOF, shutdown, or `term`. The returned
/// error is currently unreachable but reserved for transport setup.
///
/// # Errors
///
/// None today; the signature matches [`serve_tcp`].
pub fn serve_stdio(daemon: &Arc<Daemon>, term: &Arc<AtomicBool>) -> Result<(), String> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let out = Arc::new(Mutex::new(std::io::stdout()));
    serve_lines(daemon, &rx, &out, term);
    Ok(())
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves connections until
/// shutdown or `term`. `on_bound` receives the actual bound address —
/// with port 0 that is how the caller learns the ephemeral port.
///
/// # Errors
///
/// Returns a message when binding or accepting fails.
pub fn serve_tcp(
    daemon: &Arc<Daemon>,
    addr: &str,
    term: &Arc<AtomicBool>,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> Result<(), String> {
    let conn = {
        let (daemon, term) = (daemon.clone(), term.clone());
        move |stream| serve_conn(&daemon, stream, &term)
    };
    accept_loop(daemon, addr, "", term, on_bound, conn)
}

/// The accept loop both TCP front-ends share: binds `addr`, reports
/// the bound address, then polls a nonblocking listener until `term`
/// goes true or the daemon drains, running `conn` on its own thread
/// per connection, and joins every connection thread before returning.
/// `kind` (`""` or `"http "`) prefixes the listener in error messages.
pub(crate) fn accept_loop(
    daemon: &Daemon,
    addr: &str,
    kind: &str,
    term: &AtomicBool,
    on_bound: impl FnOnce(std::net::SocketAddr),
    conn: impl Fn(std::net::TcpStream) + Send + Sync + 'static,
) -> Result<(), String> {
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("binding {kind}{addr}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("configuring {kind}listener: {e}"))?;
    on_bound(
        listener
            .local_addr()
            .map_err(|e| format!("resolving bound {kind}address: {e}"))?,
    );
    let conn = Arc::new(conn);
    let mut conns = Vec::new();
    while !term.load(Ordering::SeqCst) && !daemon.is_draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn = conn.clone();
                conns.push(std::thread::spawn(move || conn(stream)));
                conns.retain(|c| !c.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(format!("accepting {kind}connection: {e}")),
        }
    }
    for c in conns {
        let _ = c.join();
    }
    Ok(())
}

/// One TCP connection: a blocking reader thread feeds the shared line
/// pump; on exit the socket is shut down so the reader unblocks.
fn serve_conn(daemon: &Arc<Daemon>, stream: std::net::TcpStream, term: &Arc<AtomicBool>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let Ok(shutdown_handle) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut r = std::io::BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            match r.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if tx.send(line.trim_end().to_owned()).is_err() {
                        break;
                    }
                }
            }
        }
    });
    let out = Arc::new(Mutex::new(write_half));
    serve_lines(daemon, &rx, &out, term);
    let _ = shutdown_handle.shutdown(std::net::Shutdown::Both);
    let _ = reader.join();
}

/// Runs a job handler, turning a panic into a `failed` answer naming
/// the request kind and the panic message.
fn caught(
    kind: &str,
    run: impl FnOnce() -> Result<Value, (ErrorCode, String)>,
) -> Result<Value, (ErrorCode, String)> {
    panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("no message");
        Err((
            ErrorCode::Failed,
            format!("{kind} handler panicked: {what}"),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daemon() -> Arc<Daemon> {
        Arc::new(
            Daemon::new(&ServeConfig {
                slots: 2,
                ..ServeConfig::default()
            })
            .unwrap(),
        )
    }

    fn ok_result(resp: &str) -> Value {
        let v: Value = serde_json::from_str(resp).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{resp}");
        v.get("result").unwrap().clone()
    }

    /// The error `(code, message)` of an error response.
    fn error_of(resp: &str) -> (String, String) {
        let v: Value = serde_json::from_str(resp).unwrap();
        let field = |k: &str| {
            let e = v.get("error").and_then(|e| e.get(k));
            e.and_then(Value::as_str).unwrap_or_default().to_owned()
        };
        (field("code"), field("message"))
    }

    #[test]
    fn version_reports_crate_and_salt() {
        let d = daemon();
        let r = ok_result(&d.handle_line(r#"{"id":1,"type":"version"}"#));
        assert_eq!(
            r.get("version").and_then(Value::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert_eq!(
            r.get("cache_salt").and_then(Value::as_str),
            Some(cache_salt().as_str())
        );
    }

    #[test]
    fn unknown_type_and_bad_json_are_protocol_errors() {
        let d = daemon();
        assert_eq!(error_of(&d.handle_line("nope")).0, "bad-request");
        let unk = d.handle_line(r#"{"id":2,"type":"frobnicate"}"#);
        assert_eq!(error_of(&unk).0, "unknown-type");
        assert!(unk.starts_with(r#"{"id":2,"#), "{unk}");
    }

    #[test]
    fn lint_request_round_trips() {
        let d = daemon();
        let r = ok_result(&d.handle_line(
            r#"{"id":3,"type":"lint","design":"fifo8x8","chains":8,"code":"crc16","test_width":4}"#,
        ));
        assert_eq!(r.get("clean"), Some(&Value::Bool(true)));
        assert!(r.get("report").and_then(|v| v.get("design")).is_some());
    }

    #[test]
    fn explore_is_deterministic_across_thread_counts() {
        let d = daemon();
        let line = |threads: usize| {
            format!(
                r#"{{"id":4,"type":"explore","design":"fifo4x4","trials":10,"threads":{threads}}}"#
            )
        };
        let one = d.handle_line(&line(1));
        let eight = d.handle_line(&line(8));
        assert_eq!(one, eight, "explore payloads must be thread-count-blind");
    }

    #[test]
    fn status_reflects_draining_and_shutdown() {
        let d = daemon();
        let s = ok_result(&d.handle_line(r#"{"id":5,"type":"status"}"#));
        assert_eq!(s.get("draining"), Some(&Value::Bool(false)));
        ok_result(&d.handle_line(r#"{"id":6,"type":"shutdown"}"#));
        assert!(d.is_draining());
        let denied = d.handle_line(r#"{"id":7,"type":"explore","design":"fifo4x4","trials":10}"#);
        assert_eq!(error_of(&denied).0, "draining");
    }

    #[test]
    fn timeout_deadline_produces_a_timeout_error() {
        let d = daemon();
        let resp = d.handle_line(
            r#"{"id":8,"type":"explore","design":"fifo32x32","trials":400,"timeout_ms":1}"#,
        );
        assert_eq!(error_of(&resp).0, "timeout", "{resp}");
    }

    #[test]
    fn wrong_parameter_types_are_bad_requests() {
        let d = daemon();
        for line in [
            r#"{"id":10,"type":"lint","chains":"8"}"#,
            r#"{"id":11,"type":"explore","design":"fifo4x4","prune":1}"#,
        ] {
            let (code, message) = error_of(&d.handle_line(line));
            assert_eq!(code, "bad-request", "{line}: {message}");
        }
    }

    #[test]
    fn coverage_patterns_beyond_the_cap_are_bad_requests() {
        let d = daemon();
        let (code, message) = error_of(&d.handle_line(
            r#"{"id":17,"type":"coverage","depth":4,"width":4,"chains":4,"code":"crc16","patterns":1025}"#,
        ));
        assert_eq!(code, "bad-request", "{message}");
        assert!(
            message.contains("\"patterns\"") && message.contains("1024"),
            "{message}"
        );
        let s = ok_result(&d.handle_line(r#"{"id":18,"type":"status"}"#));
        assert_eq!(s.get("draining"), Some(&Value::Bool(false)));
    }

    #[test]
    fn explore_trials_beyond_the_cap_are_bad_requests() {
        let d = daemon();
        let (code, message) = error_of(&d.handle_line(
            r#"{"id":19,"type":"explore","design":"fifo4x4","trials":1000000000000000}"#,
        ));
        assert_eq!(code, "bad-request", "{message}");
        assert!(
            message.contains("\"trials\"") && message.contains("100000"),
            "{message}"
        );
        let s = ok_result(&d.handle_line(r#"{"id":20,"type":"status"}"#));
        assert_eq!(s.get("draining"), Some(&Value::Bool(false)));
    }

    #[test]
    fn unknown_keys_are_bad_requests_naming_the_valid_ones() {
        let d = daemon();
        let (code, message) =
            error_of(&d.handle_line(r#"{"id":12,"type":"lint","design":"fifo8x8","chain":4}"#));
        assert_eq!(code, "bad-request", "{message}");
        assert!(
            message.contains("\"chain\"") && message.contains("chains code test_width"),
            "{message}"
        );
        // The envelope is always allowed.
        ok_result(&d.handle_line(
            r#"{"id":13,"type":"lint","design":"fifo8x8","chains":8,"code":"crc16","timeout_ms":60000}"#,
        ));
    }

    #[test]
    fn import_returns_the_netlist_when_asked_with_a_boolean() {
        let d = daemon();
        let source =
            scanguard_netlist::to_verilog(&scanguard_designs::Fifo::generate(2, 2).netlist);
        let source = serde_json::to_string(&source).unwrap();
        let request =
            |netlist: &str| format!(r#"{{"type":"import","source":{source},"netlist":{netlist}}}"#);
        let with = ok_result(&d.handle_line(&request("true")));
        assert!(
            with.get("netlist").and_then(|n| n.get("cells")).is_some(),
            "{with:?}"
        );
        let without = ok_result(&d.handle_line(&request("false")));
        assert!(without.get("netlist").is_none());
        let (code, _) = error_of(&d.handle_line(&request(r#""true""#)));
        assert_eq!(code, "bad-request");
    }

    #[test]
    fn inapplicable_seed_bad_is_answered_and_leaves_nothing_in_flight() {
        let d = daemon();
        let (code, message) = error_of(&d.handle_line(
            r#"{"id":14,"type":"verify","design":"fifo8x8","code":"crc16","seed_bad":"early-store"}"#,
        ));
        assert_eq!(code, "failed", "{message}");
        assert!(message.contains("early-store does not apply"), "{message}");
        let s = ok_result(&d.handle_line(r#"{"id":15,"type":"status"}"#));
        assert_eq!(s.get("inflight"), Some(&num(0)));
    }

    #[test]
    fn formerly_panicking_requests_are_bad_requests_and_leave_nothing_in_flight() {
        let d = daemon();
        for (line, names) in [
            (
                r#"{"id":21,"type":"explore","design":"fifo4x4","trials":10,"wmin":0}"#,
                "\"wmin\" must be at least 1",
            ),
            (
                r#"{"id":22,"type":"lint","design":"regfile1x1"}"#,
                "regfile word count 1",
            ),
            (
                r#"{"id":23,"type":"explore","design":"datapath1x1","trials":10}"#,
                "datapath register count 1",
            ),
        ] {
            let (code, message) = error_of(&d.handle_line(line));
            assert_eq!(code, "bad-request", "{line}: {message}");
            assert!(message.contains(names), "{line}: {message}");
        }
        let s = ok_result(&d.handle_line(r#"{"id":24,"type":"status"}"#));
        assert_eq!(s.get("inflight"), Some(&num(0)));
    }

    #[test]
    fn a_panicking_handler_answers_failed() {
        let (code, message) = caught("explore", || panic!("division by zero")).unwrap_err();
        assert_eq!(code, ErrorCode::Failed);
        assert_eq!(message, "explore handler panicked: division by zero");
        let (_, message) = caught("lint", || panic!("{} words", 1)).unwrap_err();
        assert_eq!(message, "lint handler panicked: 1 words");
        assert_eq!(caught("status", || Ok(Value::Null)), Ok(Value::Null));
    }

    #[test]
    fn control_requests_reject_unknown_keys_and_wrong_types() {
        let d = daemon();
        for (line, valid) in [
            (
                r#"{"id":16,"type":"status","verbose":true}"#,
                "(valid: none)",
            ),
            (r#"{"id":17,"type":"version","x":1}"#, "(valid: none)"),
            (r#"{"id":18,"type":"shutdown","now":true}"#, "(valid: none)"),
            (
                r#"{"id":19,"type":"metrics","determinstic":true}"#,
                "(valid: deterministic)",
            ),
            (
                r#"{"id":22,"type":"metrics","series":true}"#,
                "(valid: deterministic)",
            ),
            (
                r#"{"id":20,"type":"cancel","target":1,"force":true}"#,
                "(valid: target)",
            ),
        ] {
            let (code, message) = error_of(&d.handle_line(line));
            assert_eq!(code, "bad-request", "{line}: {message}");
            assert!(message.starts_with("unknown parameter"), "{message}");
            assert!(message.ends_with(valid), "{line}: {message}");
        }
        for line in [
            r#"{"id":21,"type":"metrics","deterministic":"yes"}"#,
            r#"{"id":23,"type":"cancel","target":[1]}"#,
        ] {
            let (code, message) = error_of(&d.handle_line(line));
            assert_eq!(code, "bad-request", "{line}: {message}");
            assert!(message.contains("must be"), "{line}: {message}");
        }
        assert!(!d.is_draining(), "a rejected shutdown does not drain");
        // The envelope and every documented key stay valid.
        ok_result(
            &d.handle_line(r#"{"id":24,"type":"metrics","deterministic":true,"timeout_ms":100}"#),
        );
        ok_result(&d.handle_line(r#"{"type":"status"}"#));
    }

    #[test]
    fn acknowledged_cancel_makes_its_target_answer_cancelled() {
        // Holding every worker slot parks the request after it registers
        // and before it runs, so the cancel always finds it in flight.
        // Scalar coverage never polls the token: the run completes, and
        // the acknowledged cancel must still decide the answer.
        let d = daemon();
        let held = d.budget.acquire(d.budget.slots());
        let worker = {
            let d = d.clone();
            std::thread::spawn(move || {
                d.handle_line(
                    r#"{"id":1,"type":"coverage","depth":8,"width":8,"chains":8,"code":"crc16","patterns":4,"max_faults":40,"engine":"scalar"}"#,
                )
            })
        };
        loop {
            let resp = d.handle_line(r#"{"id":2,"type":"cancel","target":1}"#);
            if resp.contains(r#""ok":true"#) {
                let target = ok_result(&resp).get("cancelled").and_then(Value::as_u64);
                assert_eq!(target, Some(1));
                break;
            }
            assert_eq!(error_of(&resp).0, "unknown-target", "{resp}");
            std::thread::yield_now();
        }
        drop(held);
        let resp = worker.join().unwrap();
        assert_eq!(error_of(&resp).0, "cancelled", "{resp}");
        assert_eq!(d.inflight.lock().unwrap().len(), 0);
    }

    #[test]
    fn cancel_names_missing_targets() {
        let d = daemon();
        let resp = d.handle_line(r#"{"id":9,"type":"cancel","target":42}"#);
        assert_eq!(error_of(&resp).0, "unknown-target");
    }
}
