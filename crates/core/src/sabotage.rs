//! Seeded-bad surgeries for the upset verifier's regression fixtures.
//!
//! Each function plants one realistic integration bug in an otherwise
//! correct [`ProtectedDesign`] — the kind of wiring mistake the
//! exhaustive SG205/SG206 proofs exist to catch and that sampled fault
//! injection can miss. They are used by the lint fixture tests, the
//! `scanguard verify --seed-bad` smoke flow and CI's expected-failure
//! gate.

use crate::{CoreError, ProtectedDesign};
use scanguard_netlist::GateKind;
use std::fmt;
use std::str::FromStr;

/// Which integration bug to plant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Replace chain 0's correction-feedback XOR with a plain buffer of
    /// its scan-out: upsets in that chain are still *detected* (the
    /// syndrome logic is untouched) but never restored. SG205 reports
    /// `MissedCorrect` for every depth of chain 0. Only meaningful for
    /// correcting codes — detection-only monitors already feed back a
    /// buffer.
    DropCorrection,
    /// Swap the scan-in feedback of the first chains of two different
    /// parity groups (or of chains 0 and 1 under a single group): the
    /// circulating streams land in the wrong chains, so even the golden
    /// pass no longer restores the retained state. SG205 reports
    /// golden-pass failures and SG206 marks its burst verdicts unsound.
    SwapGroups,
    /// Tie the parity-store shift enable high, as if `mon_en` reached
    /// the store one cycle early: the store rotates during the
    /// decode-clear cycle, misaligning every stored parity by one
    /// position and raising `mon_err` on the *clean* pass.
    EarlyStore,
}

impl Sabotage {
    /// Every surgery, in `--seed-bad` listing order.
    #[must_use]
    pub fn all() -> [Sabotage; 3] {
        [
            Sabotage::DropCorrection,
            Sabotage::SwapGroups,
            Sabotage::EarlyStore,
        ]
    }

    /// The `--seed-bad` spelling.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Sabotage::DropCorrection => "drop-correction",
            Sabotage::SwapGroups => "swap-groups",
            Sabotage::EarlyStore => "early-store",
        }
    }
}

impl fmt::Display for Sabotage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Sabotage {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Sabotage::all()
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown sabotage {s:?} (valid: {})",
                    Sabotage::all().map(|k| k.name()).join(", ")
                )
            })
    }
}

/// Plants `kind` in `design`, mutating its netlist in place.
///
/// # Errors
///
/// * [`CoreError::SabotageNotApplicable`] when the design has an empty
///   or no scan chain, for [`Sabotage::SwapGroups`] on a single chain, or for
///   [`Sabotage::EarlyStore`] on a CRC monitor (which has no
///   parity-store rows to mis-enable); the design is left untouched;
/// * [`CoreError::Netlist`] when the edited netlist fails revalidation
///   (it never should — the surgeries keep every net driven).
pub fn apply_sabotage(design: &mut ProtectedDesign, kind: Sabotage) -> Result<(), CoreError> {
    let nl = &mut design.netlist;
    let chains = &design.chains;
    let refuse = |reason| {
        Err(CoreError::SabotageNotApplicable {
            sabotage: kind.name(),
            reason,
        })
    };
    if chains.width() == 0 || chains.chains.iter().any(|c| c.cells.is_empty()) {
        return refuse("it needs non-empty scan chains");
    }
    match kind {
        Sabotage::DropCorrection => {
            let first = chains.chains[0].cells[0];
            let so = chains.chains[0].so;
            let (buf, _) = nl.add_cell(GateKind::Buf, vec![so], Some("sab_drop_corr"));
            nl.set_cell_input(first, 1, buf);
        }
        Sabotage::SwapGroups => {
            if chains.width() < 2 {
                return refuse("it needs two scan chains to swap");
            }
            let stride = design.monitor.groups.get(1).map_or(1, |g| g.first_chain);
            let a = chains.chains[0].cells[0];
            let b = chains.chains[stride.min(chains.width() - 1).max(1)].cells[0];
            let si_a = nl.cell(a).inputs()[1];
            let si_b = nl.cell(b).inputs()[1];
            nl.set_cell_input(a, 1, si_b);
            nl.set_cell_input(b, 1, si_a);
        }
        Sabotage::EarlyStore => {
            let stores: Vec<_> = design
                .monitor
                .cells
                .iter()
                .copied()
                .filter(|&id| {
                    nl.cell(id).kind() == GateKind::Sdff
                        && nl.cell(id).name().is_some_and(|n| n.starts_with("pst"))
                })
                .collect();
            if stores.is_empty() {
                return refuse("the monitor has no parity-store rows (CRC monitors have none)");
            }
            let (hi, _) = nl.add_cell(GateKind::TieHi, vec![], Some("sab_early_en"));
            for id in stores {
                nl.set_cell_input(id, 2, hi);
            }
        }
    }
    nl.revalidate().map_err(CoreError::Netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodeChoice, Synthesizer};
    use scanguard_netlist::NetlistBuilder;

    fn bank(flops: usize) -> scanguard_netlist::Netlist {
        let mut b = NetlistBuilder::new("bank");
        for i in 0..flops {
            let d = b.input(&format!("d[{i}]"));
            let (q, _) = b.dff(&format!("r{i}"), d);
            b.output(&format!("q[{i}]"), q);
        }
        b.finish().unwrap()
    }

    #[test]
    fn names_round_trip() {
        for k in Sabotage::all() {
            assert_eq!(k.name().parse::<Sabotage>().unwrap(), k);
        }
        assert!("nope".parse::<Sabotage>().is_err());
    }

    #[test]
    fn inapplicable_surgeries_are_errors_not_panics() {
        let mut design = Synthesizer::new(bank(16))
            .chains(4)
            .code(CodeChoice::Crc16)
            .build()
            .unwrap();
        let before = design.netlist.to_json().unwrap();
        let err = apply_sabotage(&mut design, Sabotage::EarlyStore).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::SabotageNotApplicable {
                    sabotage: "early-store",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("parity-store rows"), "{err}");
        assert_eq!(
            design.netlist.to_json().unwrap(),
            before,
            "a refused surgery edits nothing"
        );
    }

    #[test]
    fn surgeries_keep_the_netlist_valid() {
        for k in Sabotage::all() {
            let mut design = Synthesizer::new(bank(16))
                .chains(4)
                .code(CodeChoice::hamming7_4())
                .build()
                .unwrap();
            apply_sabotage(&mut design, k).unwrap();
        }
    }
}
