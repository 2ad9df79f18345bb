//! The wire protocol: newline-delimited JSON, one request or response
//! object per line, identical over stdio and TCP.
//!
//! A request is `{"id": ..., "type": "...", ...params}` where `id` is
//! any JSON scalar the client chooses (echoed verbatim on the
//! response) and `type` names the operation. A response is either
//! `{"id": ..., "ok": true, "result": {...}}` or
//! `{"id": ..., "ok": false, "error": {"code": "...", "message":
//! "..."}}`. See `PROTOCOL.md` at the repository root for the full
//! request/response catalogue and the determinism contract.
//!
//! The vendored serde has no field attributes, so requests are decoded
//! by hand from the dynamic [`Value`] tree — which is also what keeps
//! unknown-field detection and error codes explicit.

use crate::job::Params;
use serde::{Number, Value};

/// Machine-readable failure classes, stable across releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON, or not an object with a `type`.
    BadRequest,
    /// `type` named no known operation.
    UnknownType,
    /// The operation ran and failed (synthesis error, lint deny, ...).
    Failed,
    /// A `cancel` request aborted this request.
    Cancelled,
    /// The request's own `timeout_ms` deadline aborted it.
    Timeout,
    /// The daemon is draining (shutdown or SIGTERM) and takes no new
    /// work.
    Draining,
    /// `cancel` named an id that is not in flight.
    UnknownTarget,
}

impl ErrorCode {
    /// The wire name of the code.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownType => "unknown-type",
            ErrorCode::Failed => "failed",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Draining => "draining",
            ErrorCode::UnknownTarget => "unknown-target",
        }
    }
}

/// One decoded request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen id, echoed on the response (`Null` when absent).
    pub id: Value,
    /// Operation name (`lint`, `explore`, ...).
    pub kind: String,
    /// The whole request object, for parameter lookup.
    pub body: Value,
    /// Deadline in milliseconds, when the client set one.
    pub timeout_ms: Option<u64>,
}

impl Request {
    /// Decodes one NDJSON line.
    ///
    /// # Errors
    ///
    /// Returns `(code, message)` when the line is not a JSON object
    /// with a string `type`.
    pub fn parse(line: &str) -> Result<Request, (ErrorCode, String)> {
        let body: Value = serde_json::from_str(line)
            .map_err(|e| (ErrorCode::BadRequest, format!("invalid JSON: {e}")))?;
        if body.as_object().is_none() {
            return Err((ErrorCode::BadRequest, "request must be an object".into()));
        }
        let kind = body
            .get("type")
            .and_then(Value::as_str)
            .ok_or((
                ErrorCode::BadRequest,
                "request needs a string \"type\"".to_owned(),
            ))?
            .to_owned();
        let id = body.get("id").cloned().unwrap_or(Value::Null);
        let timeout_ms = body.get("timeout_ms").and_then(Value::as_u64);
        Ok(Request {
            id,
            kind,
            body,
            timeout_ms,
        })
    }

    /// A string parameter, when present.
    #[must_use]
    pub fn str_param(&self, key: &str) -> Option<&str> {
        self.body.get(key).and_then(Value::as_str)
    }

    /// An unsigned parameter with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is present but not a
    /// non-negative integer.
    pub fn u64_param(&self, key: &str, default: u64) -> Result<u64, String> {
        Ok(Params::Wire(&self.body).u64(key)?.unwrap_or(default))
    }

    /// A boolean parameter with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is present but not a boolean.
    pub fn bool_param(&self, key: &str, default: bool) -> Result<bool, String> {
        Ok(Params::Wire(&self.body).bool(key)?.unwrap_or(default))
    }
}

/// Serializes a success response line (no trailing newline).
#[must_use]
pub fn ok_response(id: &Value, result: Value) -> String {
    let doc = Value::Object(vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Value::Bool(true)),
        ("result".to_owned(), result),
    ]);
    serde_json::to_string(&doc).expect("response tree is always encodable")
}

/// Serializes an error response line (no trailing newline).
#[must_use]
pub fn err_response(id: &Value, code: ErrorCode, message: &str) -> String {
    let doc = Value::Object(vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Value::Bool(false)),
        (
            "error".to_owned(),
            Value::Object(vec![
                ("code".to_owned(), Value::Str(code.name().to_owned())),
                ("message".to_owned(), Value::Str(message.to_owned())),
            ]),
        ),
    ]);
    serde_json::to_string(&doc).expect("response tree is always encodable")
}

/// Renders a client id as a stable map key (requests are tracked by
/// the serialized form of their id, so `1` and `"1"` stay distinct).
#[must_use]
pub fn id_key(id: &Value) -> String {
    serde_json::to_string(id).unwrap_or_else(|_| "null".to_owned())
}

/// Builds a `u64` JSON value (shorthand for response assembly).
#[must_use]
pub fn num(v: u64) -> Value {
    Value::Num(Number::U(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_extracts_id_type_and_timeout() {
        let r = Request::parse(r#"{"id": 7, "type": "status", "timeout_ms": 250}"#).unwrap();
        assert_eq!(r.kind, "status");
        assert_eq!(r.id, num(7));
        assert_eq!(r.timeout_ms, Some(250));
    }

    #[test]
    fn parse_rejects_garbage_and_shapeless_lines() {
        assert_eq!(
            Request::parse("not json").unwrap_err().0,
            ErrorCode::BadRequest
        );
        assert_eq!(
            Request::parse("[1,2]").unwrap_err().0,
            ErrorCode::BadRequest
        );
        assert_eq!(
            Request::parse(r#"{"id": 1}"#).unwrap_err().0,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn responses_echo_the_id_verbatim() {
        let ok = ok_response(&Value::Str("a".into()), Value::Null);
        assert!(ok.starts_with(r#"{"id":"a","ok":true"#), "{ok}");
        let err = err_response(&num(3), ErrorCode::Timeout, "too slow");
        assert!(err.contains(r#""code":"timeout""#), "{err}");
        assert!(err.contains(r#""ok":false"#), "{err}");
    }

    #[test]
    fn id_keys_distinguish_types() {
        assert_ne!(id_key(&num(1)), id_key(&Value::Str("1".into())));
    }
}
