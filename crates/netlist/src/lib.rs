//! # scanguard-netlist
//!
//! Gate-level netlist substrate for the `scanguard` reproduction of
//! *"Scan Based Methodology for Reliable State Retention Power Gating
//! Designs"* (Yang et al., DATE 2010).
//!
//! This crate provides:
//!
//! * a three-valued logic type ([`Logic`]) with 0/1/X semantics;
//! * the primitive cell set ([`GateKind`]) of a small 120nm-class standard
//!   cell library, including scan and state-retention flip-flops;
//! * a flat structural [`Netlist`] with validation, levelization and an
//!   editing API used by the scan-insertion pass;
//! * an ergonomic [`NetlistBuilder`];
//! * a calibrated [`CellLibrary`] (area / switching energy / leakage) and
//!   [`AreaReport`] roll-ups, which downstream crates use to reproduce the
//!   paper's area and power tables from *constructed gates* rather than
//!   closed-form formulas.
//!
//! # Examples
//!
//! Build and inspect a tiny design:
//!
//! ```
//! use scanguard_netlist::{AreaReport, CellLibrary, NetlistBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("majority");
//! let x = b.input("x");
//! let y = b.input("y");
//! let z = b.input("z");
//! let xy = b.and2(x, y);
//! let yz = b.and2(y, z);
//! let xz = b.and2(x, z);
//! let m = b.or_tree(&[xy, yz, xz]);
//! b.output("m", m);
//! let netlist = b.finish()?;
//!
//! let report = AreaReport::of(&netlist, &CellLibrary::st120nm());
//! assert_eq!(report.cell_count, 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod builder;
mod cell;
mod error;
mod gate;
mod id;
mod io;
mod library;
mod logic;
mod netlist;
mod report;
mod timing;
mod verilog;
mod word;

pub use builder::NetlistBuilder;
pub use cell::Cell;
pub use error::NetlistError;
pub use gate::GateKind;
pub use id::{CellId, NetId};
pub use library::{CellLibrary, CellParams};
pub use logic::{Logic, LogicSet};
pub use netlist::Netlist;
pub use report::AreaReport;
pub use timing::{critical_path, TimingReport};
pub use verilog::{from_verilog, to_verilog, to_verilog_behavioral, ParseError};
pub use word::LogicWord;
