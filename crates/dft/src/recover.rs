//! Scan-chain recovery from a bare netlist.
//!
//! [`insert_scan`](crate::insert_scan) returns a [`ScanChains`]
//! handle alongside the rewritten netlist, but that metadata does not
//! survive serialization: a design imported from structural Verilog
//! (`scanguard_netlist::from_verilog`) arrives as nets and cells only.
//! [`recover_scan_chains`] reconstructs the handle from the netlist
//! itself by walking the scan-path wiring:
//!
//! 1. the scan-enable net is the `se` input port;
//! 2. each `si[k]` input port is traced through its combinational
//!    fanout cone (tolerating the Fig. 5(b) test-mode concatenation
//!    muxes) to the unique scan flop whose `SI` pin it reaches;
//! 3. the chain is followed flop-to-flop via direct `Q -> SI` wiring;
//! 4. the tail's `Q` must be exported as the `so[k]` output port.
//!
//! Every scan flop must land on exactly one chain and sample the shared
//! scan-enable net; anything else is a [`DftError::Recover`].

use std::collections::{HashMap, HashSet};

use scanguard_netlist::{CellId, NetId, Netlist};

use crate::error::DftError;
use crate::scan::{ScanChain, ScanChains, SE_PORT, SI_PREFIX, SO_PREFIX};

/// Recovers the scan-chain structure of `netlist` from the
/// `se`/`si[k]`/`so[k]` ports [`insert_scan`](crate::insert_scan)
/// creates.
///
/// The result is equivalent to the [`ScanChains`] that
/// [`insert_scan`](crate::insert_scan) originally returned for the
/// design, which makes imported netlists first-class citizens for fault
/// simulation (`ScanAccess::Direct`).
///
/// # Errors
///
/// [`DftError::Recover`] if the ports are missing, a scan-in does not
/// reach a unique scan flop, the chain wiring is broken, a scan-out
/// port disagrees with the chain tail, a flop samples the wrong
/// scan-enable, or some scan flop is on no chain at all.
///
/// # Examples
///
/// ```
/// use scanguard_dft::{insert_scan, recover_scan_chains, ScanConfig};
/// use scanguard_netlist::NetlistBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("regs");
/// for i in 0..6 {
///     let d = b.input(&format!("d[{i}]"));
///     let (q, _) = b.dff(&format!("r{i}"), d);
///     b.output(&format!("q[{i}]"), q);
/// }
/// let mut netlist = b.finish()?;
/// let inserted = insert_scan(&mut netlist, &ScanConfig::with_chains(2))?;
///
/// // Round-trip the netlist through structural Verilog: the handle is
/// // lost, but recovery rebuilds it exactly.
/// let text = scanguard_netlist::to_verilog(&netlist);
/// let back = scanguard_netlist::from_verilog(&text)?;
/// let recovered = recover_scan_chains(&back)?;
/// assert_eq!(recovered.width(), inserted.width());
/// assert_eq!(recovered.chains[0].cells, inserted.chains[0].cells);
/// # Ok(())
/// # }
/// ```
pub fn recover_scan_chains(netlist: &Netlist) -> Result<ScanChains, DftError> {
    let err = |msg: String| DftError::Recover(msg);
    let se = netlist
        .port(SE_PORT)
        .map_err(|_| err(format!("no scan-enable input port `{SE_PORT}`")))?;

    // Scan flops indexed by the net on their SI pin (pin order D, SI, SE).
    let scan_flops: Vec<CellId> = netlist
        .cells()
        .filter(|(_, c)| c.kind().is_scan())
        .map(|(id, _)| id)
        .collect();
    let mut by_si: HashMap<NetId, CellId> = HashMap::new();
    for &id in &scan_flops {
        let si = netlist.cell(id).inputs()[1];
        if by_si.insert(si, id).is_some() {
            return Err(err(format!(
                "net {si} feeds the SI pin of more than one scan flop"
            )));
        }
    }

    // Combinational fanout: net -> (consuming cell, pin index).
    let mut fanout: HashMap<NetId, Vec<(CellId, usize)>> = HashMap::new();
    for (id, cell) in netlist.cells() {
        for (pin, &input) in cell.inputs().iter().enumerate() {
            fanout.entry(input).or_default().push((id, pin));
        }
    }

    let mut chains = Vec::new();
    let mut claimed: HashSet<CellId> = HashSet::new();
    for k in 0.. {
        let si_name = format!("{SI_PREFIX}[{k}]");
        let Ok(si) = netlist.port(&si_name) else {
            break;
        };
        let head = trace_head(netlist, &fanout, si, &si_name)?;

        // Follow direct Q -> SI links to the end of the chain.
        let mut cells = vec![head];
        let mut cursor = head;
        loop {
            let q = netlist.cell(cursor).output();
            match by_si.get(&q) {
                Some(&next) => {
                    if claimed.contains(&next) || cells.contains(&next) {
                        return Err(err(format!(
                            "scan chain {k} loops back onto an already-chained flop"
                        )));
                    }
                    cells.push(next);
                    cursor = next;
                }
                None => break,
            }
        }

        let so = netlist.cell(cursor).output();
        let so_name = format!("{SO_PREFIX}[{k}]");
        let so_port = netlist
            .port(&so_name)
            .map_err(|_| err(format!("no scan-out output port `{so_name}` for chain {k}")))?;
        if so_port != so {
            return Err(err(format!(
                "output port `{so_name}` is not driven by the tail of scan chain {k}"
            )));
        }

        for &id in &cells {
            let cell = netlist.cell(id);
            if cell.inputs()[2] != se {
                return Err(err(format!(
                    "flop {id} on chain {k} does not sample scan-enable `{SE_PORT}`"
                )));
            }
            claimed.insert(id);
        }
        chains.push(ScanChain { si, so, cells });
    }

    if chains.is_empty() {
        return Err(err(format!(
            "no `{SI_PREFIX}[0]` scan-in port: design has no recoverable scan chains"
        )));
    }
    if claimed.len() != scan_flops.len() {
        return Err(err(format!(
            "{} of {} scan flops are not on any recovered chain",
            scan_flops.len() - claimed.len(),
            scan_flops.len()
        )));
    }
    Ok(ScanChains {
        se,
        chains,
        se_port: SE_PORT.to_owned(),
    })
}

/// Traces `si` through combinational cells to the unique scan flop
/// whose SI pin it reaches.
///
/// A plain stitched design reaches the head flop directly; a design
/// that went through [`configure_test_mode`](crate::configure_test_mode)
/// reaches it through the concatenation mux in front of the chain. The
/// trace refuses to cross sequential cells, and demands exactly one SI
/// landing site.
fn trace_head(
    netlist: &Netlist,
    fanout: &HashMap<NetId, Vec<(CellId, usize)>>,
    si: NetId,
    si_name: &str,
) -> Result<CellId, DftError> {
    let mut frontier = vec![si];
    let mut seen: HashSet<NetId> = frontier.iter().copied().collect();
    let mut heads: Vec<CellId> = Vec::new();
    while let Some(net) = frontier.pop() {
        for &(cell, pin) in fanout.get(&net).map_or(&[][..], |v| v) {
            let kind = netlist.cell(cell).kind();
            if kind.is_scan() && pin == 1 {
                if !heads.contains(&cell) {
                    heads.push(cell);
                }
            } else if !kind.is_sequential() {
                let out = netlist.cell(cell).output();
                if seen.insert(out) {
                    frontier.push(out);
                }
            }
        }
    }
    match heads.as_slice() {
        [head] => Ok(*head),
        [] => Err(DftError::Recover(format!(
            "scan-in port `{si_name}` does not reach any scan flop SI pin"
        ))),
        _ => Err(DftError::Recover(format!(
            "scan-in port `{si_name}` reaches {} scan flop SI pins (ambiguous chain head)",
            heads.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{insert_scan, ScanConfig};
    use crate::testmode::configure_test_mode;
    use scanguard_netlist::{from_verilog, to_verilog, NetlistBuilder};

    fn flops(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("regs");
        for i in 0..n {
            let d = b.input(&format!("d[{i}]"));
            let (q, _) = b.dff(&format!("r{i}"), d);
            b.output(&format!("q[{i}]"), q);
        }
        b.finish().unwrap()
    }

    fn assert_chains_eq(a: &ScanChains, b: &ScanChains) {
        assert_eq!(a.se, b.se);
        assert_eq!(a.se_port, b.se_port);
        assert_eq!(a.width(), b.width());
        for (ca, cb) in a.chains.iter().zip(&b.chains) {
            assert_eq!(ca.si, cb.si);
            assert_eq!(ca.so, cb.so);
            assert_eq!(ca.cells, cb.cells);
        }
    }

    #[test]
    fn recovers_inserted_chains_exactly() {
        for w in [1, 2, 3] {
            let mut nl = flops(8);
            let inserted = insert_scan(&mut nl, &ScanConfig::with_chains(w)).unwrap();
            let recovered = recover_scan_chains(&nl).unwrap();
            assert_chains_eq(&inserted, &recovered);
        }
    }

    #[test]
    fn recovers_retention_chains() {
        let mut nl = flops(5);
        let inserted = insert_scan(&mut nl, &ScanConfig::retention_with_chains(2)).unwrap();
        let recovered = recover_scan_chains(&nl).unwrap();
        assert_chains_eq(&inserted, &recovered);
    }

    #[test]
    fn recovery_survives_verilog_round_trip() {
        let mut nl = flops(9);
        let inserted = insert_scan(&mut nl, &ScanConfig::with_chains(3)).unwrap();
        let back = from_verilog(&to_verilog(&nl)).unwrap();
        let recovered = recover_scan_chains(&back).unwrap();
        assert_chains_eq(&inserted, &recovered);
    }

    #[test]
    fn recovery_tolerates_test_mode_muxes() {
        let mut nl = flops(8);
        let inserted = insert_scan(&mut nl, &ScanConfig::with_chains(4)).unwrap();
        configure_test_mode(&mut nl, &inserted, 2).unwrap();
        let recovered = recover_scan_chains(&nl).unwrap();
        assert_chains_eq(&inserted, &recovered);
    }

    #[test]
    fn missing_ports_are_reported() {
        let nl = flops(4);
        let e = recover_scan_chains(&nl).unwrap_err();
        assert!(
            e.to_string().contains("no scan-enable input port `se`"),
            "{e}"
        );
    }

    #[test]
    fn unchained_scan_flops_are_reported() {
        // A design with scan ports but one extra scan flop hanging off
        // its own enable: recovery must refuse to silently drop it.
        let mut b = NetlistBuilder::new("extra");
        let d = b.input("d");
        let si = b.input_bus("si", 1);
        let se = b.input("se");
        let (q, _) = b.sdff("s0", d, si[0], se);
        b.output_bus("so", &[q]);
        let other_se = b.input("se2");
        let (q2, _) = b.sdff("orphan", d, d, other_se);
        b.output("o2", q2);
        let nl = b.finish().unwrap();
        let e = recover_scan_chains(&nl).unwrap_err();
        assert!(
            e.to_string().contains("not on any recovered chain")
                || e.to_string().contains("scan-enable"),
            "{e}"
        );
    }

    #[test]
    fn wrong_scan_enable_is_reported() {
        let mut b = NetlistBuilder::new("badse");
        let d = b.input("d");
        let si = b.input_bus("si", 1);
        b.input("se");
        let not_se = b.input("mode");
        let (q, _) = b.sdff("s0", d, si[0], not_se);
        b.output_bus("so", &[q]);
        let nl = b.finish().unwrap();
        let e = recover_scan_chains(&nl).unwrap_err();
        assert!(e.to_string().contains("does not sample scan-enable"), "{e}");
    }
}
