//! Error injection — the paper's Fig. 6 circuit and Fig. 7 patterns.
//!
//! The paper validates the methodology by deliberately corrupting scan
//! data: a *column injector* (an LFSR-fed shift register advancing in step
//! with the scan chains) arms one shift **cycle**, and a *row injector*
//! selects which **chains** get their scan-in bit flipped (through an
//! XOR/AND pair per chain) during that cycle.
//!
//! Two fidelities are provided and tested to agree:
//!
//! * [`attach_injector`] builds the XOR/AND overlay into the netlist and
//!   returns the [`Injector`] port handle — the paper's actual circuit;
//! * [`ErrorPattern::flip_positions`] computes the equivalent direct
//!   `(chain, depth)` flips for behavioural (fast Monte-Carlo) use.

use crate::{Lfsr, ScanChains};
use scanguard_netlist::{GateKind, Logic, NetId, Netlist, NetlistError};
use scanguard_sim::Simulator;

/// Port handle of the gate-level injector overlay.
///
/// The overlay rewires each chain's first flop: its scan input becomes
/// `si XOR (inj_col AND inj_row[k])`. Driving `inj_col` high during scan
/// cycle `c` with `inj_row[k]` high flips the bit captured by chain `k`
/// in that cycle — exactly the paper's Fig. 6 semantics, with the column
/// injector realised by *when* the testbench raises `inj_col`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Injector {
    /// The column-active input net.
    pub col: NetId,
    /// Per-chain row-select input nets.
    pub rows: Vec<NetId>,
}

impl Injector {
    /// Disarms the injector (col low, all rows low).
    pub fn disarm(&self, sim: &mut Simulator<'_>) {
        sim.set_net(self.col, Logic::Zero);
        for &r in &self.rows {
            sim.set_net(r, Logic::Zero);
        }
    }

    /// Arms the given rows (chains); the flip happens on chains whose row
    /// is armed while `col` is high.
    pub fn arm_rows(&self, sim: &mut Simulator<'_>, rows: &[bool]) {
        assert_eq!(rows.len(), self.rows.len(), "one row flag per chain");
        for (&net, &on) in self.rows.iter().zip(rows) {
            sim.set_net(net, Logic::from(on));
        }
    }

    /// Drives the column-active input.
    pub fn set_col(&self, sim: &mut Simulator<'_>, active: bool) {
        sim.set_net(self.col, Logic::from(active));
    }
}

/// Builds the injector overlay into a scanned netlist.
///
/// Adds input ports `inj_col` and `inj_row[k]` and an XOR/AND pair per
/// chain between the scan-in port and the first flop. Call before
/// building a simulator; the netlist is revalidated.
///
/// # Errors
///
/// Returns a [`NetlistError`] if the injector port names clash.
pub fn attach_injector(
    netlist: &mut Netlist,
    chains: &ScanChains,
) -> Result<Injector, NetlistError> {
    let col = netlist.add_input_port("inj_col")?;
    let mut rows = Vec::with_capacity(chains.width());
    for (k, chain) in chains.chains.iter().enumerate() {
        let row = netlist.add_input_port(&format!("inj_row[{k}]"))?;
        rows.push(row);
        // Wrap whatever currently feeds the first flop's scan pin (the
        // raw si port, or a monitor feedback path attached earlier).
        let first = chain.cells[0];
        let current = netlist.cell(first).inputs()[1];
        let (armed, _) = netlist.add_cell(GateKind::And2, vec![col, row], None);
        let (flipped, _) = netlist.add_cell(GateKind::Xor2, vec![current, armed], None);
        netlist.set_cell_input(first, 1, flipped);
    }
    netlist.revalidate()?;
    Ok(Injector { col, rows })
}

/// An abstract error pattern over a `W x l` scan grid (paper Fig. 7).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ErrorPattern {
    /// One flipped bit (Fig. 7(a)).
    Single {
        /// Target chain (row).
        chain: usize,
        /// Target depth within the chain.
        depth: usize,
    },
    /// A clustered burst (Fig. 7(b)): a contiguous run of chains upset at
    /// the same depth — the shape real rush-current events take, because
    /// neighbouring retention latches share the bounce of the same switch
    /// bank segment.
    Burst {
        /// First upset chain.
        first_chain: usize,
        /// Number of consecutive chains upset.
        span: usize,
        /// Depth within the chains.
        depth: usize,
    },
}

impl ErrorPattern {
    /// Draws a random single-error pattern.
    pub fn random_single(lfsr: &mut Lfsr, width: usize, len: usize) -> Self {
        ErrorPattern::Single {
            chain: lfsr.next_below(width as u64) as usize,
            depth: lfsr.next_below(len as u64) as usize,
        }
    }

    /// The `(chain, depth)` positions this pattern flips.
    #[must_use]
    pub fn flip_positions(&self) -> Vec<(usize, usize)> {
        match *self {
            ErrorPattern::Single { chain, depth } => vec![(chain, depth)],
            ErrorPattern::Burst {
                first_chain,
                span,
                depth,
            } => (first_chain..first_chain + span)
                .map(|c| (c, depth))
                .collect(),
        }
    }

    /// Number of bit flips.
    #[must_use]
    pub fn error_count(&self) -> usize {
        match *self {
            ErrorPattern::Single { .. } => 1,
            ErrorPattern::Burst { span, .. } => span,
        }
    }

    /// Applies the pattern directly to flip-flop state (the behavioural
    /// fast path, equivalent to one armed circulation through the
    /// gate-level injector).
    pub fn apply_direct(&self, sim: &mut Simulator<'_>, chains: &ScanChains) {
        for (chain, depth) in self.flip_positions() {
            let cell = chains.chains[chain].cells[depth];
            let v = sim.ff_value(cell);
            sim.force_ff(cell, !v);
        }
    }

    /// The scan cycle at which the gate-level injector must arm its
    /// column input so a full `l`-cycle circulation lands the flip at the
    /// pattern's depth: a bit flipped on entry at cycle `t` is shifted
    /// `l - 1 - t` more times, ending at depth `l - 1 - t`.
    #[must_use]
    pub fn arm_cycle(&self, chain_len: usize) -> usize {
        let depth = match *self {
            ErrorPattern::Single { depth, .. } | ErrorPattern::Burst { depth, .. } => depth,
        };
        chain_len - 1 - depth
    }

    /// Row flags (one per chain) for the gate-level injector.
    #[must_use]
    pub fn row_flags(&self, width: usize) -> Vec<bool> {
        let mut rows = vec![false; width];
        for (chain, _) in self.flip_positions() {
            rows[chain] = true;
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{insert_scan, ScanConfig};
    use scanguard_netlist::{CellLibrary, NetlistBuilder};

    fn scanned_design(ffs: usize, chains: usize) -> (Netlist, ScanChains) {
        let mut b = NetlistBuilder::new("regs");
        for i in 0..ffs {
            let d = b.input(&format!("d[{i}]"));
            let (q, _) = b.dff(&format!("r{i}"), d);
            b.output(&format!("q[{i}]"), q);
        }
        let mut nl = b.finish().unwrap();
        let sc = insert_scan(&mut nl, &ScanConfig::with_chains(chains)).unwrap();
        (nl, sc)
    }

    fn init_pattern(w: usize, l: usize) -> Vec<Vec<Logic>> {
        (0..w)
            .map(|k| {
                (0..l)
                    .map(|i| Logic::from((k * 3 + i * 5) % 2 == 0))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn single_pattern_flips_one_position() {
        let p = ErrorPattern::Single { chain: 2, depth: 3 };
        assert_eq!(p.flip_positions(), vec![(2, 3)]);
        assert_eq!(p.error_count(), 1);
        assert_eq!(p.arm_cycle(13), 9);
    }

    #[test]
    fn burst_pattern_is_contiguous() {
        let p = ErrorPattern::Burst {
            first_chain: 4,
            span: 3,
            depth: 7,
        };
        assert_eq!(p.flip_positions(), vec![(4, 7), (5, 7), (6, 7)]);
        assert_eq!(p.error_count(), 3);
        let rows = p.row_flags(10);
        assert_eq!(rows.iter().filter(|&&r| r).count(), 3);
        assert!(rows[4] && rows[5] && rows[6]);
    }

    #[test]
    fn random_patterns_stay_in_bounds() {
        let mut lfsr = Lfsr::maximal(16, 0x55AA);
        for _ in 0..200 {
            let p = ErrorPattern::random_single(&mut lfsr, 8, 13);
            let (c, d) = p.flip_positions()[0];
            assert!(c < 8 && d < 13);
        }
    }

    #[test]
    fn gate_level_injector_matches_direct_flip() {
        // Circulate a 2x4 scan grid through the armed injector; the final
        // state must equal a direct flip of the same positions.
        let (mut nl, sc) = scanned_design(8, 2);
        let inj = attach_injector(&mut nl, &sc).unwrap();
        let lib = CellLibrary::st120nm();
        let l = sc.max_len();
        let w = sc.width();
        let pattern = ErrorPattern::Burst {
            first_chain: 0,
            span: 2,
            depth: 1,
        };

        // Run A: gate-level injection during circulation.
        let mut sim = Simulator::new(&nl, &lib);
        for i in 0..8 {
            sim.set_port_bool(&format!("d[{i}]"), false).unwrap();
        }
        sc.set_scan_enable(&mut sim, true);
        inj.disarm(&mut sim);
        let init = init_pattern(w, l);
        sc.load(&mut sim, &init);
        inj.arm_rows(&mut sim, &pattern.row_flags(w));
        for t in 0..l {
            inj.set_col(&mut sim, t == pattern.arm_cycle(l));
            let fb: Vec<Logic> = sc.chains.iter().map(|c| sim.value(c.so)).collect();
            sc.shift(&mut sim, &fb);
        }
        let gate_level = sc.snapshot(&sim);

        // Run B: direct behavioural flip.
        let mut sim2 = Simulator::new(&nl, &lib);
        for i in 0..8 {
            sim2.set_port_bool(&format!("d[{i}]"), false).unwrap();
        }
        sc.set_scan_enable(&mut sim2, true);
        inj.disarm(&mut sim2);
        sc.load(&mut sim2, &init);
        pattern.apply_direct(&mut sim2, &sc);
        let direct = sc.snapshot(&sim2);

        assert_eq!(gate_level, direct, "overlay and direct flips must agree");
    }

    #[test]
    fn disarmed_injector_is_transparent() {
        let (mut nl, sc) = scanned_design(8, 2);
        let inj = attach_injector(&mut nl, &sc).unwrap();
        let lib = CellLibrary::st120nm();
        let l = sc.max_len();
        let mut sim = Simulator::new(&nl, &lib);
        for i in 0..8 {
            sim.set_port_bool(&format!("d[{i}]"), false).unwrap();
        }
        sc.set_scan_enable(&mut sim, true);
        inj.disarm(&mut sim);
        let init = init_pattern(sc.width(), l);
        sc.load(&mut sim, &init);
        for _ in 0..l {
            let fb: Vec<Logic> = sc.chains.iter().map(|c| sim.value(c.so)).collect();
            sc.shift(&mut sim, &fb);
        }
        assert_eq!(sc.snapshot(&sim), init, "disarmed circulation is lossless");
    }
}
