//! # scanguard-obs
//!
//! Structured observability for the `scanguard` reproduction of *"Scan
//! Based Methodology for Reliable State Retention Power Gating
//! Designs"* (Yang et al., DATE 2010): the paper's flow is a *sequence*
//! (Fig. 3(b): encode → sleep → wake → decode/check) whose claims are
//! per-phase cycle and energy budgets, and this crate is how the rest
//! of the workspace exposes where those cycles, that energy and the
//! wall-clock actually go.
//!
//! Three pieces, no external dependencies beyond the vendored serde:
//!
//! * a **span/event API** ([`Recorder::begin`], [`Recorder::end`],
//!   [`Recorder::instant`], [`PhaseLog`]) recording onto per-thread
//!   timeline [`Lane`]s;
//! * a **counters/histograms registry** ([`Recorder::counter`],
//!   [`Recorder::histogram`]) with pre-resolved lock-free handles and a
//!   [`MetricsSnapshot`] whose deterministic sections are
//!   byte-identical across thread counts (volatile wall-clock and
//!   scheduling numbers are carried separately and excluded from `==`,
//!   the same convention as `CoverageReport::wall_ms`);
//! * three **sinks**: a leveled human log ([`Recorder::log`]), a
//!   JSON-lines event stream ([`to_jsonl`]) and Chrome trace-event JSON
//!   ([`to_chrome_trace`]) viewable in `chrome://tracing`/Perfetto with
//!   one lane per pool worker plus a controller phase-timeline lane.
//!
//! Zero-cost when disabled: there is no global state — a layer that was
//! not handed a recorder pays nothing, and disabled metric handles
//! reduce to a null check (asserted by a counting-allocator test on the
//! simulator hot path).
//!
//! # Examples
//!
//! ```
//! use scanguard_obs::{arg, Lane, Recorder, RecorderConfig};
//!
//! let rec = Recorder::new(RecorderConfig {
//!     trace: true,
//!     metrics: true,
//!     ..RecorderConfig::default()
//! });
//! let settles = rec.counter("sim.settles");
//! rec.begin(Lane::Main, "pattern", 0);
//! settles.inc();
//! rec.end(Lane::Main, "pattern", 41, vec![arg("bits", 64u64)]);
//! assert_eq!(rec.metrics_snapshot().counters["sim.settles"], 1);
//! assert!(rec.to_chrome_trace().unwrap().contains("traceEvents"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod event;
mod metrics;
mod profile;
mod prom;
mod recorder;
mod trace;

pub use event::{arg, ArgValue, Event, EventKind, Lane};
pub use metrics::{CounterHandle, HistogramHandle, HistogramSnapshot, MetricsSnapshot};
pub use profile::{LaneProfile, Profile, ProfileNode};
pub use prom::{prom_name, to_prometheus, PROM_CONTENT_TYPE};
pub use recorder::{Level, PhaseLog, Recorder, RecorderConfig};
pub use trace::{lane_name, lane_tid, to_chrome_trace, to_jsonl};
