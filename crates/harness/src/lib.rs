//! # scanguard-harness
//!
//! Experiment harness for the `scanguard` reproduction of *"Scan Based
//! Methodology for Reliable State Retention Power Gating Designs"*
//! (Yang et al., DATE 2010):
//!
//! * [`FifoTestbench`] — the paper's Fig. 8 validation testbench
//!   (protected FIFO_A, golden FIFO_B, stimulus, comparator, counters);
//! * [`fig10_curve`] / [`fig10_family`] — the Fig. 10 Monte-Carlo
//!   correction-ability sweeps;
//! * [`table1`] / [`table2`] / [`table3`] and the ablation runners —
//!   one function per paper table/figure, asserted at paper scale by
//!   `tests/paper.rs` and run by the CLI;
//! * [`render_table`] — report formatting.
//!
//! # Examples
//!
//! ```
//! use scanguard_core::CodeChoice;
//! use scanguard_harness::{FifoTestbench, InjectionMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tb = FifoTestbench::new(4, 4, 4, CodeChoice::hamming7_4())?;
//! let stats = tb.run(3, InjectionMode::Single, 1, None);
//! assert_eq!(stats.sequences_recovered, 3); // all singles corrected
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
// Bit-indexed loops are the clearer idiom for scan/test pattern handling.
#![allow(clippy::needless_range_loop)]

mod experiments;
mod monte;
pub mod paper;
mod tables;
mod testbench;

pub use experiments::{
    ablation_recovery, ablation_rush, ablation_secded, cost_sweep, table1, table2, table3,
    validation, RecoveryRow, RushRow, SecdedRow, Table3Row, ValidationRuns, PAPER_W_SWEEP,
    TABLE3_W,
};
pub use monte::{fig10_curve, fig10_family, Fig10Config, Fig10Point};
pub use tables::{print_table, render_table};
pub use testbench::{FifoTestbench, InjectionMode, ValidationStats};
