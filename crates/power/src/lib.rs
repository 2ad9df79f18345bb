//! # scanguard-power
//!
//! Power-gating substrate for the `scanguard` reproduction of *"Scan
//! Based Methodology for Reliable State Retention Power Gating Designs"*
//! (Yang et al., DATE 2010).
//!
//! The paper's threat model is physical: closing a gated domain's power
//! switches draws a rush current whose shared-rail bounce can flip the
//! always-on retention latches. This crate models that chain of cause and
//! effect, plus the baseline mitigations the paper compares against:
//!
//! * [`PowerNetwork`] / [`RushTransient`] — closed-form series-RLC wake
//!   transients (the model of ref \[7\]) with peak current, `di/dt` and a
//!   first-order shared-rail bounce estimate;
//! * [`WakeStrategy`] — full-bank wake, staggered activation (ref \[7\])
//!   and slow-ramp activation (ref \[8\]), trading bounce for latency;
//! * [`UpsetModel`] — thresholded, variation-aware, **spatially
//!   clustered** retention upsets (the "closely clustered" burst errors
//!   of the paper's Sec. IV).
//!
//! The power-gating sequence itself (the Fig. 3(a) sleep/wake phases)
//! lives inside the proposed Fig. 3(b) controller in `scanguard-core`.
//!
//! # Examples
//!
//! ```
//! use scanguard_power::{PowerNetwork, UpsetModel, WakeStrategy};
//!
//! let network = PowerNetwork::default_120nm();
//! let upsets = UpsetModel::default_120nm();
//!
//! let harsh = WakeStrategy::FullBank.wake(&network);
//! let gentle = WakeStrategy::Staggered { groups: 8 }.wake(&network);
//! assert!(gentle.peak_bounce_v < harsh.peak_bounce_v);
//!
//! // ... but a gentle wake still cannot *repair* latches that flip:
//! let flips = upsets.upsets(harsh.peak_bounce_v, 1040, 42);
//! println!("{} retention latches upset", flips.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod rush;
mod upset;
mod wake;

pub use rush::{PowerNetwork, RushTransient};
pub use upset::{UpsetModel, UpsetSampler};
pub use wake::{WakeEvent, WakeStrategy};
