//! Activity-based energy accounting.
//!
//! The simulator accumulates switching energy the same way PrimeTime PX
//! does from a gate-level activity file: every committed output transition
//! of a cell contributes that cell's per-toggle energy, and every clock
//! cycle contributes the clock-pin energy of each powered sequential cell.
//! Power over a window is `energy / time`; with energies in pJ and time in
//! ns the quotient is directly in mW.

use std::fmt;

/// An energy measurement window.
///
/// Obtain one from [`Simulator::take_energy`](crate::Simulator::take_energy);
/// the simulator's internal counters reset so consecutive windows measure
/// disjoint phases (encode vs. decode, as in the paper's Tables I/II).
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct EnergyWindow {
    /// Dynamic switching + clock energy in pJ.
    pub dynamic_pj: f64,
    /// Clock cycles elapsed in the window.
    pub cycles: u64,
    /// Committed known-value output transitions in the window.
    pub toggles: u64,
}

impl EnergyWindow {
    /// Average dynamic power over the window in mW, at the given clock
    /// frequency.
    ///
    /// Returns 0 for an empty window.
    #[must_use]
    pub fn power_mw(&self, clock_mhz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let period_ns = 1000.0 / clock_mhz;
        self.dynamic_pj / (self.cycles as f64 * period_ns)
    }

    /// Energy in nJ (the unit of the paper's tables).
    #[must_use]
    pub fn energy_nj(&self) -> f64 {
        self.dynamic_pj / 1000.0
    }
}

impl fmt::Display for EnergyWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} pJ over {} cycles ({} toggles)",
            self.dynamic_pj, self.cycles, self.toggles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_energy_over_time() {
        let w = EnergyWindow {
            dynamic_pj: 500.0,
            cycles: 10,
            toggles: 100,
        };
        // 10 cycles at 100 MHz = 100 ns; 500 pJ / 100 ns = 5 mW.
        assert!((w.power_mw(100.0) - 5.0).abs() < 1e-12);
        assert!((w.energy_nj() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_zero_power() {
        assert_eq!(EnergyWindow::default().power_mw(100.0), 0.0);
    }

    #[test]
    fn display_mentions_units() {
        let s = EnergyWindow::default().to_string();
        assert!(s.contains("pJ"));
    }
}
