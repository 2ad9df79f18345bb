//! Minimal HTTP/1.1 front-end for scrapers: `GET /metrics` answers in
//! Prometheus text exposition format (0.0.4), `GET /status` mirrors
//! the NDJSON `status` control response as JSON.
//!
//! Hand-rolled on `std::net` — no HTTP dependency. The server speaks
//! just enough of the protocol for `curl`, Prometheus and a raw-TCP
//! smoke test: it reads one request head, routes on the request line,
//! writes one `Connection: close` response and shuts the socket down.
//! The accept loop is the NDJSON transport's own
//! ([`serve_tcp`](crate::daemon::serve_tcp)): a nonblocking listener
//! polled until SIGTERM or drain, then every in-flight handler joined,
//! so `shutdown` closes the scrape endpoint as cleanly as the work
//! endpoint.

use crate::daemon::{accept_loop, Daemon};
use scanguard_obs::PROM_CONTENT_TYPE;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Longest request head we will buffer before answering 431.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// Binds `addr` and serves HTTP scrape requests until `term` goes true
/// or the daemon drains. `on_bound` receives the actual bound address
/// (how the caller learns an ephemeral port).
///
/// # Errors
///
/// Returns a message when binding or accepting fails.
pub fn serve_http(
    daemon: &Arc<Daemon>,
    addr: &str,
    term: &Arc<AtomicBool>,
    on_bound: impl FnOnce(SocketAddr),
) -> Result<(), String> {
    let conn = {
        let daemon = daemon.clone();
        move |stream| handle_conn(&daemon, stream)
    };
    accept_loop(daemon, addr, "http ", term, on_bound, conn)
}

/// One scrape connection: read the head, route, answer, close.
fn handle_conn(daemon: &Arc<Daemon>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half.take(MAX_HEAD_BYTES));
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the header block; we route on the request line alone.
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) | Err(_) => break,
            Ok(_) if header.trim_end().is_empty() => break,
            Ok(_) => {}
        }
    }
    let (status, content_type, body) = route(daemon, request_line.trim_end());
    respond(stream, status, content_type, &body);
}

/// Routes one request line to `(status line, content type, body)`.
fn route(daemon: &Arc<Daemon>, request_line: &str) -> (&'static str, &'static str, String) {
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(_version)) = (parts.next(), parts.next(), parts.next())
    else {
        return (
            "400 Bad Request",
            "text/plain",
            "malformed request line\n".to_owned(),
        );
    };
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is served\n".to_owned(),
        );
    }
    daemon
        .recorder()
        .counter_volatile("serve.http.requests")
        .inc();
    match path.split('?').next().unwrap_or(path) {
        "/metrics" => ("200 OK", PROM_CONTENT_TYPE, daemon.prometheus_body()),
        "/status" => {
            let doc = serde_json::to_string(&daemon.status())
                .unwrap_or_else(|e| format!("{{\"error\":{e:?}}}"));
            ("200 OK", "application/json", format!("{doc}\n"))
        }
        _ => (
            "404 Not Found",
            "text/plain",
            "routes: /metrics /status\n".to_owned(),
        ),
    }
}

/// Writes one HTTP/1.1 response and closes the connection.
fn respond(mut stream: TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, ServeConfig};
    use std::sync::atomic::Ordering;

    fn daemon() -> Arc<Daemon> {
        Arc::new(
            Daemon::new(&ServeConfig {
                slots: 2,
                ..ServeConfig::default()
            })
            .unwrap(),
        )
    }

    fn get(daemon: &Arc<Daemon>, request_line: &str) -> (&'static str, &'static str, String) {
        route(daemon, request_line)
    }

    #[test]
    fn metrics_route_serves_prometheus_text() {
        let d = daemon();
        d.handle_line(r#"{"id":1,"type":"version"}"#);
        let (status, ctype, body) = get(&d, "GET /metrics HTTP/1.1");
        assert_eq!(status, "200 OK");
        assert_eq!(ctype, PROM_CONTENT_TYPE);
        assert!(body.contains("scanguard_serve_requests_total 1"), "{body}");
        assert!(body.contains("# TYPE scanguard_serve_uptime_ms gauge"));
        assert!(body.contains("scanguard_serve_budget_waiters 0"));
    }

    #[test]
    fn status_route_serves_json() {
        let d = daemon();
        let (status, ctype, body) = get(&d, "GET /status HTTP/1.1");
        assert_eq!(status, "200 OK");
        assert_eq!(ctype, "application/json");
        let v: serde::Value = serde_json::from_str(body.trim()).unwrap();
        assert!(v.get("uptime_ms").is_some());
        assert!(v.get("budget").and_then(|b| b.get("waiters")).is_some());
    }

    #[test]
    fn unknown_paths_404_and_non_get_405() {
        let d = daemon();
        assert_eq!(get(&d, "GET /nope HTTP/1.1").0, "404 Not Found");
        assert_eq!(
            get(&d, "POST /metrics HTTP/1.1").0,
            "405 Method Not Allowed"
        );
        assert_eq!(get(&d, "GET").0, "400 Bad Request");
    }

    #[test]
    fn query_strings_are_ignored_for_routing() {
        let d = daemon();
        assert_eq!(get(&d, "GET /metrics?window=5 HTTP/1.1").0, "200 OK");
    }

    #[test]
    fn end_to_end_over_a_real_socket() {
        let d = daemon();
        d.handle_line(r#"{"id":1,"type":"status"}"#);
        let term = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let server = {
            let d = d.clone();
            let term = term.clone();
            std::thread::spawn(move || {
                serve_http(&d, "127.0.0.1:0", &term, |a| {
                    let _ = tx.send(a);
                })
                .unwrap();
            })
        };
        let addr = rx.recv().unwrap();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains(&format!("Content-Type: {PROM_CONTENT_TYPE}")));
        assert!(resp.contains("scanguard_serve_requests_total 1"));
        term.store(true, Ordering::SeqCst);
        server.join().unwrap();
    }
}
