//! The daemon process and the NDJSON wire between it and the load
//! generator: one request line in, one response line out, on the
//! daemon's stdin/stdout (PROTOCOL.md). The benchmark is a single
//! closed-loop client, so every response answers the line just sent.

use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest one request may take before the daemon is declared hung.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest the daemon may take to exit after its stdin closes.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// Prepends `"id": id` to a request body (a JSON object without an id).
///
/// # Panics
///
/// Panics when `body` is not a non-empty JSON object text; bodies are
/// the benchmark's own constants.
#[must_use]
pub fn frame(id: u64, body: &str) -> String {
    assert!(
        body.starts_with('{') && body.len() > 2,
        "request body must be a non-empty JSON object"
    );
    format!("{{\"id\":{id},{}", &body[1..])
}

/// The response with its echoed id removed, when the id is `id`. What
/// remains (`"ok":...}`) is the part compared byte for byte.
#[must_use]
pub fn strip_id(response: &str, id: u64) -> Option<&str> {
    response.strip_prefix(&format!("{{\"id\":{id},"))
}

/// One `scanguard serve` process on the stdio transport.
pub struct DaemonProc {
    child: Child,
    stdin: Option<ChildStdin>,
    responses: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
}

/// One answered request.
pub struct Reply {
    /// The id the request carried.
    pub id: u64,
    /// The response line.
    pub line: String,
    /// From the first byte written to the response read, milliseconds.
    pub ms: f64,
}

impl DaemonProc {
    /// Starts `daemon serve --threads 2 --quiet`, with a persistent
    /// store at `store` when given. The daemon's stderr goes to `log`.
    ///
    /// # Errors
    ///
    /// Returns a message when the log cannot be opened or the process
    /// cannot start.
    pub fn spawn(daemon: &Path, store: Option<&Path>, log: &Path) -> Result<Self, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("opening {}: {e}", log.display()))?;
        let mut cmd = Command::new(daemon);
        cmd.args(["serve", "--threads", "2", "--quiet"]);
        // The daemon runs each request on a fresh thread, and glibc
        // gives a thread a new malloc arena when the previous handler
        // has not exited yet. Unpinned, peak RSS counts how many
        // handlers happened to overlap (13 to 19 MB on verify, moving
        // with host load); one arena makes it measure the heap.
        cmd.env("MALLOC_ARENA_MAX", "1");
        if let Some(dir) = store {
            cmd.arg("--store").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("starting {}: {e}", daemon.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take();
        let (tx, responses) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(DaemonProc {
            child,
            stdin,
            responses,
            reader: Some(reader),
            next_id: 1,
        })
    }

    /// Sends `body` under a fresh id and waits for the response.
    ///
    /// # Errors
    ///
    /// Returns a message when the pipe breaks, the daemon exits, or no
    /// response arrives within a minute.
    pub fn call(&mut self, body: &str) -> Result<Reply, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = frame(id, body);
        line.push('\n');
        let stdin = self.stdin.as_mut().expect("stdin stays open until finish");
        let t = Instant::now();
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing request {id}: {e}"))?;
        let response = self
            .responses
            .recv_timeout(RESPONSE_TIMEOUT)
            .map_err(|e| format!("no response to request {id}: {e}"))?;
        Ok(Reply {
            id,
            line: response,
            ms: t.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// Sends a control request and returns its `result`.
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure or an error response.
    pub fn control(&mut self, body: &str) -> Result<Value, String> {
        let reply = self.call(body)?;
        let v: Value = serde_json::from_str(&reply.line)
            .map_err(|e| format!("unparseable control response: {e}"))?;
        match v.get("result") {
            Some(r) if v.get("ok").and_then(Value::as_bool) == Some(true) => Ok(r.clone()),
            _ => Err(format!("control request failed: {}", reply.line)),
        }
    }

    /// The daemon's peak resident set (`VmHWM`), MiB.
    ///
    /// # Errors
    ///
    /// Returns a message when `/proc/<pid>/status` has no `VmHWM`.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Closes stdin and waits for the daemon to exit.
    ///
    /// # Errors
    ///
    /// Returns a message when the daemon exits unsuccessfully or has to
    /// be killed.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("daemon did not exit after stdin closed".into()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanguard_serve::{err_response, ok_response, ErrorCode, Request};
    use serde::Number;

    #[test]
    fn framed_lines_parse_with_their_id_and_params() {
        let line = frame(42, r#"{"type":"verify","code":"crc16"}"#);
        assert_eq!(line, r#"{"id":42,"type":"verify","code":"crc16"}"#);
        let req = Request::parse(&line).unwrap();
        assert_eq!(req.id, Value::Num(Number::U(42)));
        assert_eq!(req.kind, "verify");
        assert_eq!(req.str_param("code"), Some("crc16"));
    }

    #[test]
    fn strip_id_keeps_the_comparable_tail() {
        let ok = ok_response(&Value::Num(Number::U(7)), Value::Bool(true));
        assert_eq!(strip_id(&ok, 7), Some(r#""ok":true,"result":true}"#));
        assert_eq!(strip_id(&ok, 70), None, "a different id must not match");
        let err = err_response(&Value::Num(Number::U(3)), ErrorCode::Failed, "boom");
        assert!(strip_id(&err, 3).unwrap().starts_with(r#""ok":false"#));
        // Same payload under two ids: identical tails.
        let again = ok_response(&Value::Num(Number::U(8)), Value::Bool(true));
        assert_eq!(strip_id(&ok, 7), strip_id(&again, 8));
    }

    #[test]
    #[should_panic(expected = "non-empty JSON object")]
    fn frame_rejects_an_empty_body() {
        let _ = frame(1, "{}");
    }
}
