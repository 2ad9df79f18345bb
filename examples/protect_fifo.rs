//! The paper's case study end-to-end: the 32x32 FIFO with 80 scan
//! chains of 13 flops (Sec. IV), run through the Fig. 8 testbench with
//! single-error and burst injection.
//!
//! ```text
//! cargo run --release -p scanguard-harness --example protect_fifo [sequences]
//! ```

use scanguard_core::CodeChoice;
use scanguard_harness::{FifoTestbench, InjectionMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sequences: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(20);

    println!("building protected 32x32 FIFO (1040 flops, 80 chains x 13) ...");
    let tb = FifoTestbench::new(32, 32, 80, CodeChoice::hamming7_4())?;
    println!(
        "area: baseline {:.0} um^2, protected {:.0} um^2 (+{:.1}%)",
        tb.design().baseline.total_area_um2,
        tb.design().protected.total_area_um2,
        tb.design().area_overhead_pct()
    );

    println!("\nexperiment 1: one random retention upset per sequence");
    let single = tb.run(sequences, InjectionMode::Single, 0x51, None);
    println!(
        "  {} sequences: {} reported, {} corrected, {} comparator mismatches",
        single.sequences,
        single.errors_reported,
        single.sequences_recovered,
        single.comparator_mismatches
    );

    println!("\nexperiment 2: clustered burst upsets (2..=4 adjacent chains)");
    let burst = tb.run(sequences, InjectionMode::Burst { max_span: 4 }, 0xB2, None);
    println!(
        "  {} sequences: {} reported, {} corrected, {} comparator mismatches",
        burst.sequences,
        burst.errors_reported,
        burst.sequences_recovered,
        burst.comparator_mismatches
    );

    println!("\npaper Sec. IV: singles 100% corrected; bursts detected, not corrected.");
    assert_eq!(single.sequences_recovered, single.sequences);
    assert_eq!(single.comparator_mismatches, 0);
    assert!(burst.sequences_recovered < burst.sequences);
    println!("reproduced.");
    Ok(())
}
