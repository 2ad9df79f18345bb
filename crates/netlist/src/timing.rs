//! Static timing analysis (unit- and library-delay).
//!
//! A zero-slack, wire-free STA over the validated netlist: arrival times
//! propagate from launch points (primary inputs at 0, flip-flop outputs
//! at clock-to-q) through the combinational cells in topological order,
//! and are checked at capture points. The paper claims its methodology
//! has "no impact on power gated circuits' performance (critical path)"
//! because monitoring happens in scan mode — [`TimingReport`] lets that
//! claim be tested: the **functional** critical path (to each flop's `d`
//! pin) must be unchanged by monitor insertion, while the scan path
//! (`si` pin) may lengthen freely.

use crate::{CellLibrary, GateKind, Netlist};

/// Worst arrival times of a netlist, in ps.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimingReport {
    /// Worst path ending at any flip-flop's functional `d` pin.
    pub functional_ps: f64,
    /// Worst path ending at any scan pin (`si`) — only exercised in
    /// scan mode, so it does not constrain the functional clock.
    pub scan_ps: f64,
    /// Worst path ending at a primary output.
    pub output_ps: f64,
}

/// Computes worst arrival times using the library's per-cell delays.
///
/// # Panics
///
/// Panics if the netlist has pending edits (see
/// [`Netlist::revalidate`]).
///
/// # Examples
///
/// ```
/// use scanguard_netlist::{critical_path, CellLibrary, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("t");
/// let a = b.input("a");
/// let x = b.not(a);
/// let y = b.xor2(x, a);
/// let (q, _) = b.dff("r", y);
/// b.output("q", q);
/// let nl = b.finish().unwrap();
/// let t = critical_path(&nl, &CellLibrary::st120nm());
/// // NOT (40) + XOR2 (110) into the d pin.
/// assert!((t.functional_ps - 150.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn critical_path(netlist: &Netlist, lib: &CellLibrary) -> TimingReport {
    // Arrival time at each net.
    let mut arrival = vec![0.0f64; netlist.net_count()];
    // Launch points: flip-flop outputs arrive at clock-to-q.
    for (_, cell) in netlist.ff_cells() {
        arrival[cell.output().index()] = lib.params(cell.kind()).delay_ps;
    }
    // Propagate through combinational cells in topological order.
    for &id in netlist.topo_order() {
        let cell = netlist.cell(id);
        let worst_in = cell
            .inputs()
            .iter()
            .map(|n| arrival[n.index()])
            .fold(0.0f64, f64::max);
        arrival[cell.output().index()] = worst_in + lib.params(cell.kind()).delay_ps;
    }
    // Check capture points.
    let mut functional = 0.0f64;
    let mut scan = 0.0f64;
    for (_, cell) in netlist.ff_cells() {
        functional = functional.max(arrival[cell.inputs()[0].index()]);
        if matches!(cell.kind(), GateKind::Sdff | GateKind::Rsdff) {
            scan = scan.max(arrival[cell.inputs()[1].index()]);
        }
    }
    let mut output = 0.0f64;
    for (_, net) in netlist.output_ports() {
        output = output.max(arrival[net.index()]);
    }
    TimingReport {
        functional_ps: functional,
        scan_ps: scan,
        output_ps: output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn chain_of_gates_accumulates_delay() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let mut x = a;
        for _ in 0..5 {
            x = b.not(x);
        }
        b.output("y", x);
        let nl = b.finish().unwrap();
        let t = critical_path(&nl, &CellLibrary::st120nm());
        assert!((t.output_ps - 200.0).abs() < 1e-9, "{t:?}");
        assert_eq!(t.functional_ps, 0.0, "no flops");
    }

    #[test]
    fn ff_to_ff_path_includes_clock_to_q() {
        let mut b = NetlistBuilder::new("t");
        let d0 = b.input("d");
        let (q0, _) = b.dff("a", d0);
        let inv = b.not(q0);
        let (q1, _) = b.dff("b", inv);
        b.output("q", q1);
        let nl = b.finish().unwrap();
        let t = critical_path(&nl, &CellLibrary::st120nm());
        // DFF c2q (180) + NOT (40) at the next d pin.
        assert!((t.functional_ps - 220.0).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn scan_and_functional_paths_are_separated() {
        let mut b = NetlistBuilder::new("t");
        let d = b.input("d");
        let si = b.input("si");
        let se = b.input("se");
        // A long chain only on the scan input.
        let mut s = si;
        for _ in 0..10 {
            s = b.buf(s);
        }
        let (q, _) = b.sdff("r", d, s, se);
        b.output("q", q);
        let nl = b.finish().unwrap();
        let t = critical_path(&nl, &CellLibrary::st120nm());
        assert_eq!(t.functional_ps, 0.0, "d comes straight from a port");
        assert!((t.scan_ps - 550.0).abs() < 1e-9, "{t:?}");
    }
}
