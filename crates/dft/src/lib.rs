//! # scanguard-dft
//!
//! Design-for-test passes for the `scanguard` reproduction of *"Scan Based
//! Methodology for Reliable State Retention Power Gating Designs"*
//! (Yang et al., DATE 2010).
//!
//! The paper reuses manufacturing scan chains as the data channel of its
//! state-monitoring architecture. This crate supplies the passes the
//! original flow delegates to Synopsys DFT Compiler and to RTL scripting:
//!
//! * [`insert_scan`] — replace flip-flops with (retention-)scan flops and
//!   stitch `W` balanced chains (the `W`/`l` trade-off of Tables I/II);
//! * [`configure_test_mode`] — the Fig. 5(b) concatenation muxes that let
//!   the tester see `T` long chains while the monitor sees `W` short
//!   ones, with proven test neutrality;
//! * [`attach_injector`] / [`ErrorPattern`] — the Fig. 6 row/column error
//!   injector, at gate level and as an equivalent behavioural model;
//! * [`Lfsr`] — the pattern-generation primitive the paper's injector
//!   uses.
//!
//! # Examples
//!
//! ```
//! use scanguard_dft::{insert_scan, ScanConfig};
//! use scanguard_netlist::NetlistBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("four_regs");
//! for i in 0..4 {
//!     let d = b.input(&format!("d[{i}]"));
//!     let (q, _) = b.dff(&format!("r{i}"), d);
//!     b.output(&format!("q[{i}]"), q);
//! }
//! let mut netlist = b.finish()?;
//! let chains = insert_scan(&mut netlist, &ScanConfig::with_chains(2))?;
//! assert_eq!(chains.width(), 2);
//! assert_eq!(chains.max_len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
// Bit-indexed loops are the clearer idiom for scan/test pattern handling.
#![allow(clippy::needless_range_loop)]

mod error;
mod faultsim;
mod inject;
mod lfsr;
mod recover;
mod scan;
mod testmode;
mod upsetsim;

pub use error::DftError;
pub use faultsim::{
    enumerate_faults, fault_coverage, fault_coverage_obs, CoverageReport, Fault, FaultSimConfig,
    FaultSimEngine, ScanAccess, StuckAt,
};
pub use inject::{attach_injector, ErrorPattern, Injector};
pub use lfsr::Lfsr;
pub use recover::recover_scan_chains;
pub use scan::{insert_scan, FlopStyle, ScanChain, ScanChains, ScanConfig};
pub use testmode::{configure_test_mode, TestModeConfig};
pub use upsetsim::{monitor_pass_outcomes, MonitorPassConfig, MonitorPassPorts, UpsetOutcome};
