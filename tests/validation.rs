//! Reproduction of the paper's Sec. IV functional validation (Fig. 8
//! testbench): experiment 1 (single error per sequence — all corrected,
//! zero comparator mismatches) and experiment 2 (clustered multi-errors
//! — detected but not corrected by plain Hamming; CRC-16 detects all).
//!
//! The paper ran 100M FPGA sequences; correction of singles and
//! detection of doubles are structural code properties, so the software
//! run uses a modest count (the property tests in `scanguard-codes`
//! cover the combinatorial space exhaustively for small words).

use scanguard_core::CodeChoice;
use scanguard_harness::{FifoTestbench, InjectionMode};

#[test]
fn experiment1_single_errors_all_corrected() {
    let tb = FifoTestbench::new(8, 8, 8, CodeChoice::hamming7_4()).expect("testbench");
    let stats = tb.run(12, InjectionMode::Single, 0xE1, None);
    assert_eq!(stats.sequences, 12);
    assert_eq!(stats.errors_reported, 12, "every single error reported");
    assert_eq!(
        stats.sequences_recovered, 12,
        "every single error corrected"
    );
    assert_eq!(
        stats.comparator_mismatches, 0,
        "FIFO_A output equals FIFO_B for all sequences"
    );
}

#[test]
fn experiment2_bursts_detected_not_corrected() {
    // With 4 chains there is a single monitor group, so every span-2
    // burst lands both flips in one codeword — the paper's "closely
    // clustered" failure case.
    let tb = FifoTestbench::new(8, 8, 4, CodeChoice::hamming7_4()).expect("testbench");
    let stats = tb.run(12, InjectionMode::Burst { max_span: 2 }, 0xE2, None);
    assert_eq!(stats.errors_reported, 12, "every double burst detected");
    assert_eq!(
        stats.sequences_recovered, 0,
        "no clustered burst corrected by plain Hamming"
    );
}

#[test]
fn bursts_crossing_group_boundaries_are_corrected() {
    // A finding the paper's setup obscures: when a burst straddles two
    // monitor groups, each group sees a *single* error and corrects it.
    // With 8 chains (two groups of 4), some span-2 bursts cross the
    // boundary at chains (3,4) and recover fully.
    let tb = FifoTestbench::new(8, 8, 8, CodeChoice::hamming7_4()).expect("testbench");
    let stats = tb.run(12, InjectionMode::Burst { max_span: 2 }, 0xE2, None);
    assert_eq!(stats.errors_reported, 12);
    assert!(
        stats.sequences_recovered > 0 && stats.sequences_recovered < 12,
        "boundary-crossing bursts recover, in-group bursts do not: {stats:?}"
    );
}

#[test]
fn experiment2_crc_detects_all_bursts() {
    let tb = FifoTestbench::new(8, 8, 8, CodeChoice::crc16()).expect("testbench");
    let stats = tb.run(12, InjectionMode::Burst { max_span: 4 }, 0xE3, None);
    assert_eq!(stats.errors_reported, 12, "CRC-16 detects every burst");
    assert_eq!(stats.sequences_recovered, 0, "CRC cannot correct");
}
