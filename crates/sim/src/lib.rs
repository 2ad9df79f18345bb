//! # scanguard-sim
//!
//! Levelized, cycle-accurate, 3-state gate-level simulation for the
//! `scanguard` reproduction of *"Scan Based Methodology for Reliable State
//! Retention Power Gating Designs"* (Yang et al., DATE 2010).
//!
//! The [`Simulator`] plays the role the paper's Cadence gate-level
//! simulation and Synopsys PrimeTime PX power analysis play in the
//! original flow:
//!
//! * zero-delay levelized evaluation of a validated
//!   [`Netlist`](scanguard_netlist::Netlist), one [`step`](Simulator::step)
//!   per clock cycle;
//! * **one power-gated domain** ([`gate`](Simulator::gate)) beside the
//!   always-on rest: switched off, its logic outputs X, its flip-flop
//!   masters lose state, and its retention latches ride the always-on
//!   rail (paper Fig. 1);
//! * **RETAIN control** with save-on-rise / restore-on-fall edges;
//! * **activity-based energy accounting** ([`EnergyWindow`]): every
//!   committed transition adds the library's per-toggle energy, every
//!   cycle adds clock-pin energy for powered registers — so "encoding
//!   power" and "decoding power" in the reproduced Tables I/II come from
//!   simulated switching activity, exactly as the paper measured them.
//!
//! # Two engines
//!
//! * [`Simulator`] — one machine, one [`Logic`](scanguard_netlist::Logic)
//!   per net; a settle evaluates, in topological order, only the cells
//!   with a changed input: a changed net sets its loads' bits in a
//!   pending bitset over positions, and the settle takes the set bits
//!   lowest first, so it costs bitset words plus evaluations. Each
//!   evaluation is one lookup in a per-kind truth table built from
//!   [`GateKind::eval`](scanguard_netlist::GateKind::eval). It is the
//!   only engine with power gating, RETAIN sequencing and the energy
//!   accounting that `measure_cost` reads.
//! * [`WideSimulator`] — a compiled word-block program: 64 machines per
//!   word, a block of words per net, every compiled cell evaluated once
//!   per settle. PPSFP fault simulation and the SG205/SG206 upset sweep
//!   of `scanguard-lint` both run on it, and both settle only the cells
//!   [`LiveCone::walk`] finds live while `se` is held at 1.
//!
//! The scalar engine stays as the independent oracle the wide one is
//! held to: `wide_vs_scalar.rs` and `faultsim_engine.rs` (in
//! `scanguard-dft`) compare the two byte for byte, and
//! `upset_differential.rs` (in `scanguard-core`) holds the sweep's
//! verdicts to scalar fault injection, so a wide-engine bug cannot hide
//! behind its own verdicts.
//!
//! # Examples
//!
//! ```
//! use scanguard_netlist::{CellLibrary, Logic, NetlistBuilder};
//! use scanguard_sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("toggler");
//! let d = b.net("d");
//! let (q, ff) = b.dff("t", d);
//! let nq = b.not(q);
//! b.connect(d, nq);
//! b.output("q", q);
//! let nl = b.finish()?;
//!
//! let lib = CellLibrary::st120nm();
//! let mut sim = Simulator::new(&nl, &lib);
//! sim.force_ff(ff, Logic::Zero);
//! sim.step_n(3);
//! assert_eq!(sim.ff_value(ff), Logic::One);
//! let window = sim.take_energy();
//! assert!(window.power_mw(100.0) > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
// Bit-indexed loops are the clearer idiom for scan/test pattern handling.
#![allow(clippy::needless_range_loop)]

mod cone;
mod energy;
mod simulator;
mod tables;
mod wide;

pub use cone::LiveCone;
pub use energy::EnergyWindow;
pub use simulator::Simulator;
pub use wide::WideSimulator;
