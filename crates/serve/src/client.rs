//! A minimal blocking client for the TCP transport: one connection,
//! one request line out, one response line back.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Sends one raw request line to `addr` and returns the raw response
/// line. `timeout` bounds the connect and the read; `None` waits
/// indefinitely (matching a request with no `timeout_ms`).
///
/// # Errors
///
/// Returns a message on connect/write/read failure or when the daemon
/// closes the connection without responding.
pub fn request_line(addr: &str, line: &str, timeout: Option<Duration>) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    stream
        .set_read_timeout(timeout)
        .map_err(|e| format!("configuring socket: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cloning socket: {e}"))?;
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| format!("sending request: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    match reader.read_line(&mut resp) {
        Ok(0) => Err("daemon closed the connection without responding".into()),
        Ok(_) => Ok(resp.trim_end().to_owned()),
        Err(e) => Err(format!("reading response: {e}")),
    }
}
