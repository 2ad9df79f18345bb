//! scanguard-serve: the long-running evaluation daemon.
//!
//! Where the `scanguard` CLI pays full synthesis cost on every
//! invocation, the daemon keeps the process — and the
//! content-addressed build store — warm across requests: the job
//! kinds (`lint`, `verify`, `coverage`, `import`, `explore`, `pareto`)
//! arrive as newline-delimited JSON
//! over stdio or TCP, run concurrently on their own threads, and share
//! one worker budget ([`scanguard_par::PoolBudget`]) so parallel
//! requests split the machine instead of oversubscribing it.
//!
//! The layers:
//!
//! - [`job`] — the six work kinds (`lint`, `verify`, `coverage`,
//!   `import`, `explore`, `pareto`) parsed from either surface and run
//!   once; the `scanguard` CLI and the daemon are thin callers of it.
//! - [`protocol`] — request/response framing, error codes, id echo.
//! - [`daemon`] — dispatch, cancellation, deadlines, the drain
//!   barrier, the telemetry sampler, and the stdio/TCP transports.
//! - [`http`] — the scrape front-end: `GET /metrics` in Prometheus
//!   text exposition format, `GET /status` as JSON.
//! - [`client`] — a one-request blocking TCP client (also what
//!   `scanguard client` uses).
//!
//! Determinism: work-request payloads are byte-identical for the same
//! request at any thread count and any cache temperature; see
//! `PROTOCOL.md` for the exact contract.

pub mod client;
pub mod daemon;
pub mod http;
pub mod job;
pub mod protocol;

pub use client::request_line;
pub use daemon::{serve_stdio, serve_tcp, Daemon, ServeConfig};
pub use http::serve_http;
pub use job::{parse_code, Job, JobCtx, Params, SynthSpec};
pub use protocol::{err_response, ok_response, ErrorCode, Request};
