//! The paper's published numbers, transcribed from Tables I–III and
//! Fig. 10, so the paper-scale tests can hold the measured rows to them.
//!
//! Absolute values are not expected to match — the paper measured an ST
//! 120nm library through Synopsys/Cadence tooling, this reproduction
//! measures a calibrated library through its own gate-level simulator —
//! but the trends (who wins, by what factor, where the knees are) are
//! the reproduction target.

/// One row of the paper's Table I or II.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PaperCostRow {
    /// Chains `W`.
    pub chains: usize,
    /// Chain length `l`.
    pub chain_len: usize,
    /// Total area, um^2.
    pub area_um2: f64,
    /// Overhead, %.
    pub overhead_pct: f64,
    /// Encode power, mW.
    pub enc_power_mw: f64,
    /// Decode power, mW.
    pub dec_power_mw: f64,
    /// Latency, ns.
    pub latency_ns: f64,
    /// Encode energy, nJ.
    pub enc_energy_nj: f64,
    /// Decode energy, nJ.
    pub dec_energy_nj: f64,
}

/// Paper Table I: 32x32 FIFO, CRC-16, 120nm, 100 MHz.
pub const TABLE1: [PaperCostRow; 5] = [
    PaperCostRow {
        chains: 4,
        chain_len: 260,
        area_um2: 73658.0,
        overhead_pct: 2.8,
        enc_power_mw: 4.99,
        dec_power_mw: 4.99,
        latency_ns: 2600.0,
        enc_energy_nj: 12.97,
        dec_energy_nj: 12.97,
    },
    PaperCostRow {
        chains: 8,
        chain_len: 130,
        area_um2: 73928.0,
        overhead_pct: 3.2,
        enc_power_mw: 4.96,
        dec_power_mw: 4.97,
        latency_ns: 1300.0,
        enc_energy_nj: 6.45,
        dec_energy_nj: 6.46,
    },
    PaperCostRow {
        chains: 16,
        chain_len: 65,
        area_um2: 74614.0,
        overhead_pct: 4.2,
        enc_power_mw: 4.96,
        dec_power_mw: 4.98,
        latency_ns: 650.0,
        enc_energy_nj: 3.22,
        dec_energy_nj: 3.24,
    },
    PaperCostRow {
        chains: 40,
        chain_len: 26,
        area_um2: 75762.0,
        overhead_pct: 5.8,
        enc_power_mw: 5.13,
        dec_power_mw: 5.17,
        latency_ns: 260.0,
        enc_energy_nj: 1.33,
        dec_energy_nj: 1.34,
    },
    PaperCostRow {
        chains: 80,
        chain_len: 13,
        area_um2: 78208.0,
        overhead_pct: 9.2,
        enc_power_mw: 5.14,
        dec_power_mw: 5.25,
        latency_ns: 130.0,
        enc_energy_nj: 0.67,
        dec_energy_nj: 0.68,
    },
];

/// Paper Table II: 32x32 FIFO, Hamming(7,4), 120nm, 100 MHz.
pub const TABLE2: [PaperCostRow; 5] = [
    PaperCostRow {
        chains: 4,
        chain_len: 260,
        area_um2: 120594.0,
        overhead_pct: 68.4,
        enc_power_mw: 6.76,
        dec_power_mw: 6.72,
        latency_ns: 2600.0,
        enc_energy_nj: 17.58,
        dec_energy_nj: 17.47,
    },
    PaperCostRow {
        chains: 8,
        chain_len: 130,
        area_um2: 121552.0,
        overhead_pct: 69.7,
        enc_power_mw: 6.91,
        dec_power_mw: 6.86,
        latency_ns: 1300.0,
        enc_energy_nj: 8.98,
        dec_energy_nj: 8.92,
    },
    PaperCostRow {
        chains: 16,
        chain_len: 65,
        area_um2: 123303.0,
        overhead_pct: 72.1,
        enc_power_mw: 7.11,
        dec_power_mw: 7.00,
        latency_ns: 650.0,
        enc_energy_nj: 4.62,
        dec_energy_nj: 4.55,
    },
    PaperCostRow {
        chains: 40,
        chain_len: 26,
        area_um2: 126811.0,
        overhead_pct: 77.0,
        enc_power_mw: 7.72,
        dec_power_mw: 7.45,
        latency_ns: 260.0,
        enc_energy_nj: 2.00,
        dec_energy_nj: 1.94,
    },
    PaperCostRow {
        chains: 80,
        chain_len: 13,
        area_um2: 134141.0,
        overhead_pct: 87.3,
        enc_power_mw: 8.43,
        dec_power_mw: 8.05,
        latency_ns: 130.0,
        enc_energy_nj: 1.08,
        dec_energy_nj: 1.05,
    },
];

/// One row of the paper's Table III.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct PaperTable3Row {
    /// Code name.
    pub code: &'static str,
    /// Chains `W`.
    pub chains: usize,
    /// FIFO (baseline) area, um^2.
    pub fifo_area_um2: f64,
    /// Total area, um^2.
    pub total_area_um2: f64,
    /// Overhead, %.
    pub overhead_pct: f64,
    /// Encode power, mW.
    pub enc_power_mw: f64,
    /// Decode power, mW.
    pub dec_power_mw: f64,
    /// Correction capability, %.
    pub capability_pct: f64,
}

/// Paper Table III: Hamming family on the 32x32 FIFO.
pub const TABLE3: [PaperTable3Row; 4] = [
    PaperTable3Row {
        code: "Hamming(7,4)",
        chains: 56,
        fifo_area_um2: 71628.0,
        total_area_um2: 132338.0,
        overhead_pct: 84.8,
        enc_power_mw: 8.21,
        dec_power_mw: 7.84,
        capability_pct: 14.3,
    },
    PaperTable3Row {
        code: "Hamming(15,11)",
        chains: 55,
        fifo_area_um2: 71628.0,
        total_area_um2: 101681.0,
        overhead_pct: 42.0,
        enc_power_mw: 6.52,
        dec_power_mw: 6.34,
        capability_pct: 6.67,
    },
    PaperTable3Row {
        code: "Hamming(31,26)",
        chains: 52,
        fifo_area_um2: 71628.0,
        total_area_um2: 88311.0,
        overhead_pct: 23.2,
        enc_power_mw: 5.89,
        dec_power_mw: 5.82,
        capability_pct: 3.23,
    },
    PaperTable3Row {
        code: "Hamming(63,57)",
        chains: 57,
        fifo_area_um2: 71628.0,
        total_area_um2: 82987.0,
        overhead_pct: 15.9,
        enc_power_mw: 5.64,
        dec_power_mw: 5.62,
        capability_pct: 1.59,
    },
];

/// Fig. 10 anchor points quoted in the paper's text:
/// `(code, injected errors, corrected %)`.
pub const FIG10_ANCHORS: [(&str, usize, f64); 4] = [
    ("Hamming(7,4)", 2, 98.81),
    ("Hamming(7,4)", 10, 94.14),
    ("Hamming(63,57)", 2, 88.65),
    ("Hamming(63,57)", 10, 52.96),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcribed_tables_are_internally_consistent() {
        for (t1, t2) in TABLE1.iter().zip(&TABLE2) {
            assert_eq!(t1.chains, t2.chains);
            assert_eq!(t1.chain_len, t2.chain_len);
            // Latency = l x 10 ns at 100 MHz.
            assert!((t1.latency_ns - t1.chain_len as f64 * 10.0).abs() < 1e-9);
            // Energy ~ power x latency (paper rounds to 2 decimals).
            let e = t1.enc_power_mw * t1.latency_ns / 1000.0;
            assert!(
                (e - t1.enc_energy_nj).abs() < 0.03,
                "{e} vs {}",
                t1.enc_energy_nj
            );
        }
        // W x l = 1040 in every sweep row.
        for r in &TABLE1 {
            assert_eq!(r.chains * r.chain_len, 1040);
        }
    }

    #[test]
    fn table3_overheads_match_area_ratios() {
        for r in &TABLE3 {
            let pct = (r.total_area_um2 - r.fifo_area_um2) / r.fifo_area_um2 * 100.0;
            assert!((pct - r.overhead_pct).abs() < 0.3, "{}: {pct}", r.code);
        }
    }
}
