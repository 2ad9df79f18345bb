//! # scanguard-core
//!
//! The primary contribution of *"Scan Based Methodology for Reliable
//! State Retention Power Gating Designs"* (Yang, Al-Hashimi, Flynn,
//! Khursheed — DATE 2010), reproduced as a Rust library over gate-level
//! simulation.
//!
//! Power-gated circuits keep their state in always-on retention latches;
//! wake-up rush current can corrupt those latches. The paper's
//! methodology reuses the design's scan chains to **monitor** that state
//! (parity generation before sleep) and **recover** it (syndrome
//! decoding and in-stream correction after wake-up):
//!
//! * [`attach_monitor`] / [`MonitorHardware`] — the Fig. 2 state
//!   monitoring and error correction blocks, generated as real gates
//!   (XOR parity trees, always-on parity stores, syndrome decoders,
//!   correction feedback into the scan-ins);
//! * [`ProposedController`] — the Fig. 3(b) power-gating controller with
//!   encode and decode/check sequences;
//! * [`Synthesizer`] / [`ProtectedDesign`] — the Fig. 4
//!   reliability-aware synthesis flow (scan insertion, chain padding,
//!   monitor generation, Fig. 5(b) test-mode concatenation, optional
//!   Fig. 6 injector);
//! * [`ProtectedRuntime`] — executes full sleep/wake sequences on the
//!   gate-level simulator, with a rush-current upset hook;
//! * [`measure_cost`] / [`CostRow`] — the Tables I–III measurements
//!   (area, overhead %, encode/decode power, latency, energy);
//! * [`sample_wake_upsets`] — the Monte-Carlo wake-event sampler behind
//!   the upset and residual-corruption probabilities.
//!
//! # Examples
//!
//! Protect a register bank with Hamming(7,4) and survive an upset:
//!
//! ```
//! use scanguard_core::{CodeChoice, Synthesizer};
//! use scanguard_netlist::NetlistBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("bank");
//! for i in 0..16 {
//!     let d = b.input(&format!("d[{i}]"));
//!     let (q, _) = b.dff(&format!("r{i}"), d);
//!     b.output(&format!("q[{i}]"), q);
//! }
//! let design = Synthesizer::new(b.finish()?)
//!     .chains(4)
//!     .code(CodeChoice::hamming7_4())
//!     .build()?;
//!
//! let mut rt = design.runtime();
//! rt.load_random_state(42);
//! let report = rt.sleep_wake(|sim, chains| {
//!     // Rush current flips one retention latch...
//!     sim.flip_retention(chains.chains[2].cells[1]);
//!     1
//! });
//! assert!(report.error_observed); // ...the monitor notices...
//! assert!(report.state_intact()); // ...and heals it.
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
// Bit-indexed loops are the clearer idiom for hardware generation.
#![allow(clippy::needless_range_loop)]

mod config;
mod controller;
mod cost;
mod error;
mod monitor;
mod recovery;
mod runtime;
mod sabotage;
mod synth;
mod wake;

pub use config::CodeChoice;
pub use controller::{MonOutputs, MonPhase, ProposedController, ProposedTiming};
pub use cost::{
    analytic_cost, break_even, cost_header, measure_cost, AnalyticCost, BreakEven, CostRow,
};
pub use error::CoreError;
pub use monitor::{attach_monitor, MonitorGroup, MonitorHardware};
pub use recovery::{checkpoint, restore, Checkpoint, RestoreReport};
pub use runtime::{ProtectedRuntime, SleepWakeReport};
pub use sabotage::{apply_sabotage, Sabotage};
pub use synth::{ProtectedDesign, Synthesizer};
pub use wake::sample_wake_upsets;
