//! Area and leakage reports over a netlist + library pair.

use crate::{CellLibrary, GateKind, Netlist};
use std::fmt;

/// Area and leakage roll-up of a netlist against a [`CellLibrary`].
///
/// # Examples
///
/// ```
/// use scanguard_netlist::{AreaReport, CellLibrary, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("t");
/// let a = b.input("a");
/// let (q, _) = b.dff("r", a);
/// b.output("q", q);
/// let nl = b.finish().unwrap();
/// let rep = AreaReport::of(&nl, &CellLibrary::st120nm());
/// assert!(rep.total_area_um2 > 0.0);
/// assert_eq!(rep.ff_count, 1);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AreaReport {
    /// Design name the report was taken from.
    pub design: String,
    /// Sum of cell areas, um^2.
    pub total_area_um2: f64,
    /// Number of cell instances.
    pub cell_count: usize,
    /// Number of sequential cells.
    pub ff_count: usize,
    /// Active-mode leakage, nW.
    pub leakage_nw: f64,
    /// Leakage that power gating cannot remove (always-on retention
    /// latches), nW.
    pub sleep_leakage_nw: f64,
    /// Per-kind `(kind, instance count, total area)` rows, largest area
    /// first.
    pub by_kind: Vec<(GateKind, usize, f64)>,
}

impl AreaReport {
    /// Computes the report.
    #[must_use]
    pub fn of(netlist: &Netlist, lib: &CellLibrary) -> Self {
        let mut by: Vec<(GateKind, usize, f64)> = Vec::new();
        let mut total = 0.0;
        let mut leak = 0.0;
        let mut sleep_leak = 0.0;
        for kind in GateKind::ALL {
            let count = netlist.cells().filter(|(_, c)| c.kind() == kind).count();
            if count == 0 {
                continue;
            }
            let p = lib.params(kind);
            let area = p.area_um2 * count as f64;
            total += area;
            leak += p.leakage_nw * count as f64;
            sleep_leak += p.sleep_leakage_nw * count as f64;
            by.push((kind, count, area));
        }
        by.sort_by(|a, b| b.2.total_cmp(&a.2));
        AreaReport {
            design: netlist.name().to_owned(),
            total_area_um2: total,
            cell_count: netlist.cell_count(),
            ff_count: netlist.ff_count(),
            leakage_nw: leak,
            sleep_leakage_nw: sleep_leak,
            by_kind: by,
        }
    }

    /// Area overhead of `self` relative to a `baseline` report, as a
    /// percentage of the baseline area — the quantity tabulated in the
    /// paper's Tables I–III.
    #[must_use]
    pub fn overhead_pct_vs(&self, baseline: &AreaReport) -> f64 {
        if baseline.total_area_um2 == 0.0 {
            return 0.0;
        }
        (self.total_area_um2 - baseline.total_area_um2) / baseline.total_area_um2 * 100.0
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "area report for {}: {:.0} um^2, {} cells ({} FFs)",
            self.design, self.total_area_um2, self.cell_count, self.ff_count
        )?;
        writeln!(
            f,
            "  leakage {:.1} nW active / {:.1} nW in sleep",
            self.leakage_nw, self.sleep_leakage_nw
        )?;
        for (kind, count, area) in &self.by_kind {
            writeln!(
                f,
                "  {:>6} x {:<5} {:>10.1} um^2",
                kind.cell_name(),
                count,
                area
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("s");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.xor2(a, c);
        let (q, _) = b.rsdff("r", x, a, c);
        b.output("q", q);
        b.finish().unwrap()
    }

    #[test]
    fn report_totals_match_sum_of_rows() {
        let rep = AreaReport::of(&sample(), &CellLibrary::st120nm());
        let sum: f64 = rep.by_kind.iter().map(|r| r.2).sum();
        assert!((sum - rep.total_area_um2).abs() < 1e-9);
        assert_eq!(rep.cell_count, 2);
        assert_eq!(rep.ff_count, 1);
    }

    #[test]
    fn overhead_percentage() {
        let lib = CellLibrary::st120nm();
        let base = AreaReport::of(&sample(), &lib);
        let mut bigger = base.clone();
        bigger.total_area_um2 = base.total_area_um2 * 1.10;
        assert!((bigger.overhead_pct_vs(&base) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn gating_reduction_is_high_for_retention_designs() {
        let rep = AreaReport::of(&sample(), &CellLibrary::st120nm());
        // One RSDFF: sleeps at 0.22 nW vs >2.5 nW active => >90% reduction,
        // in line with the ~95% the paper cites for ARM926EJ.
        let reduction_pct = (1.0 - rep.sleep_leakage_nw / rep.leakage_nw) * 100.0;
        assert!(reduction_pct > 85.0, "{reduction_pct}");
    }

    #[test]
    fn display_contains_design_and_rows() {
        let rep = AreaReport::of(&sample(), &CellLibrary::st120nm());
        let s = rep.to_string();
        assert!(s.contains("area report for s"));
        assert!(s.contains("RSDFF"));
    }
}
