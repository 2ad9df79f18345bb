//! Standard-cell library model.
//!
//! The paper evaluates on an STMicroelectronics 120nm library; that library
//! is proprietary, so this module provides a *calibrated 120nm-class*
//! library: per-cell area, per-output-toggle switching energy, per-cycle
//! clock-pin energy (sequential cells), and leakage. The absolute constants
//! are chosen so the paper's baseline 32x32 FIFO lands near its reported
//! 71,628 um^2 and so that shifting ~1040 scan flip-flops with random data
//! at 100 MHz dissipates ~5 mW (paper Table I) — but every *trend* reported
//! by the benches comes from constructed gate counts and simulated
//! activity, not from these constants.

use crate::GateKind;

/// Physical parameters of one library cell.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CellParams {
    /// Placed area in square micrometres.
    pub area_um2: f64,
    /// Propagation delay input-to-output (or clock-to-q), in ps.
    pub delay_ps: f64,
    /// Energy per output toggle (internal + average local load), in pJ.
    pub toggle_energy_pj: f64,
    /// Energy drawn from the clock network every cycle, in pJ
    /// (zero for combinational cells).
    pub clock_energy_pj: f64,
    /// Subthreshold leakage while powered, in nW.
    pub leakage_nw: f64,
    /// Leakage of the always-on portion while the domain sleeps, in nW.
    /// Non-zero only for retention flip-flops (their high-Vt slave latch
    /// stays powered) — this is what power gating cannot switch off.
    pub sleep_leakage_nw: f64,
}

/// A complete cell library: one [`CellParams`] per [`GateKind`].
///
/// # Examples
///
/// ```
/// use scanguard_netlist::{CellLibrary, GateKind};
///
/// let lib = CellLibrary::st120nm();
/// assert!(lib.params(GateKind::Rsdff).area_um2 > lib.params(GateKind::Dff).area_um2);
/// assert_eq!(lib.params(GateKind::Xor2).clock_energy_pj, 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CellLibrary {
    name: String,
    /// Supply voltage in volts (used by reports only).
    pub vdd: f64,
    params: Vec<CellParams>,
}

impl CellLibrary {
    /// The calibrated 120nm-class library used throughout the reproduction.
    #[must_use]
    pub fn st120nm() -> Self {
        let mut params = vec![
            CellParams {
                area_um2: 0.0,
                delay_ps: 0.0,
                toggle_energy_pj: 0.0,
                clock_energy_pj: 0.0,
                leakage_nw: 0.0,
                sleep_leakage_nw: 0.0,
            };
            GateKind::ALL.len()
        ];
        let mut set = |k: GateKind, area, delay, tog, clk, leak, sleep| {
            params[k as usize] = CellParams {
                area_um2: area,
                delay_ps: delay,
                toggle_energy_pj: tog,
                clock_energy_pj: clk,
                leakage_nw: leak,
                sleep_leakage_nw: sleep,
            };
        };
        // Combinational cells. Areas follow typical 120nm relative sizing
        // (INV = 1x, NAND2 ~ 1.2x, XOR2 ~ 2.7x, MUX2 ~ 3x); delays are
        // typical-corner propagation times.
        set(GateKind::TieLo, 2.0, 0.0, 0.000, 0.0, 0.05, 0.0);
        set(GateKind::TieHi, 2.0, 0.0, 0.000, 0.0, 0.05, 0.0);
        set(GateKind::Buf, 4.4, 55.0, 0.008, 0.0, 0.35, 0.0);
        set(GateKind::Not, 3.6, 40.0, 0.006, 0.0, 0.30, 0.0);
        set(GateKind::And2, 5.8, 75.0, 0.010, 0.0, 0.45, 0.0);
        set(GateKind::And3, 7.2, 90.0, 0.012, 0.0, 0.55, 0.0);
        set(GateKind::Nand2, 4.4, 50.0, 0.008, 0.0, 0.40, 0.0);
        set(GateKind::Or2, 5.8, 75.0, 0.010, 0.0, 0.45, 0.0);
        set(GateKind::Or3, 7.2, 90.0, 0.012, 0.0, 0.55, 0.0);
        set(GateKind::Nor2, 4.4, 50.0, 0.008, 0.0, 0.40, 0.0);
        set(GateKind::Xor2, 9.8, 110.0, 0.016, 0.0, 0.60, 0.0);
        set(GateKind::Xor3, 14.6, 150.0, 0.022, 0.0, 0.85, 0.0);
        set(GateKind::Xnor2, 9.8, 110.0, 0.016, 0.0, 0.60, 0.0);
        set(GateKind::Mux2, 10.9, 95.0, 0.014, 0.0, 0.60, 0.0);
        // Sequential cells (delay = clock-to-q). The scan variants add
        // the scan input mux; the retention variants add the always-on
        // high-Vt slave latch (extra area, extra sleep leakage, slightly
        // higher clock load).
        set(GateKind::Dff, 41.0, 180.0, 0.045, 0.018, 2.2, 0.0);
        set(GateKind::Sdff, 47.5, 185.0, 0.047, 0.019, 2.4, 0.0);
        set(GateKind::Rdff, 50.5, 190.0, 0.046, 0.019, 2.3, 0.22);
        set(GateKind::Rsdff, 57.0, 195.0, 0.048, 0.020, 2.5, 0.22);
        CellLibrary {
            name: "st120nm-class".to_owned(),
            vdd: 1.2,
            params,
        }
    }

    /// The library name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameters of one cell kind.
    #[must_use]
    pub fn params(&self, kind: GateKind) -> CellParams {
        self.params[kind as usize]
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        CellLibrary::st120nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_parameters() {
        let lib = CellLibrary::st120nm();
        for k in GateKind::ALL {
            let p = lib.params(k);
            assert!(p.area_um2 >= 0.0, "{k:?}");
            if k.is_sequential() {
                assert!(p.clock_energy_pj > 0.0, "{k:?} must draw clock power");
            } else {
                assert_eq!(p.clock_energy_pj, 0.0, "{k:?} has no clock pin");
            }
            if k.is_retention() {
                assert!(p.sleep_leakage_nw > 0.0, "{k:?} latch leaks in sleep");
            } else {
                assert_eq!(p.sleep_leakage_nw, 0.0, "{k:?} is fully gated");
            }
        }
    }

    #[test]
    fn relative_sizing_is_sane() {
        let lib = CellLibrary::st120nm();
        let a = |k| lib.params(k).area_um2;
        assert!(a(GateKind::Not) < a(GateKind::Xor2));
        assert!(a(GateKind::Dff) < a(GateKind::Sdff));
        assert!(a(GateKind::Sdff) < a(GateKind::Rsdff));
        assert!(a(GateKind::Rdff) < a(GateKind::Rsdff));
    }
}
