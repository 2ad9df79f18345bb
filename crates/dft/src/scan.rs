//! Scan insertion — the netlist transform DFT Compiler performs in the
//! paper's flow (Fig. 4, step "scan chains insertion").
//!
//! Every flip-flop is replaced by its scan-enabled equivalent, the flops
//! are stitched into `W` balanced chains, and `si[..]`/`so[..]` ports plus
//! a shared scan-enable port are created. Replacing flops and stitching
//! chains does not touch the functional `d` connections, so the design's
//! normal-mode behaviour (and critical path) is unchanged — the property
//! the paper leans on in Sec. II-A.

use crate::DftError;
use scanguard_netlist::{CellId, GateKind, Logic, NetId, Netlist};
use scanguard_sim::Simulator;

/// How flip-flops are upgraded during scan insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum FlopStyle {
    /// Plain scan flops (`Dff -> Sdff`); retention flops keep retention.
    #[default]
    Scan,
    /// Retention scan flops (`Dff -> Rsdff`): the style required for a
    /// power-gated block that must retain state through sleep.
    RetentionScan,
}

/// Name of the shared scan-enable input port.
pub(crate) const SE_PORT: &str = "se";
/// Prefix of the per-chain scan-in ports (`si[k]`).
pub(crate) const SI_PREFIX: &str = "si";
/// Prefix of the per-chain scan-out ports (`so[k]`).
pub(crate) const SO_PREFIX: &str = "so";

/// Configuration of the scan insertion pass.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ScanConfig {
    /// Number of chains `W` (paper Table I sweeps 4..=80).
    pub chains: usize,
    /// Flip-flop upgrade style.
    pub style: FlopStyle,
}

impl ScanConfig {
    /// A configuration with `chains` chains of plain scan flops.
    #[must_use]
    pub fn with_chains(chains: usize) -> Self {
        ScanConfig {
            chains,
            style: FlopStyle::Scan,
        }
    }

    /// Same, with retention-scan flops (power-gating style).
    #[must_use]
    pub fn retention_with_chains(chains: usize) -> Self {
        ScanConfig {
            chains,
            style: FlopStyle::RetentionScan,
        }
    }
}

/// One stitched scan chain: cells ordered from scan-in to scan-out.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ScanChain {
    /// The chain's scan-in port net.
    pub si: NetId,
    /// The chain's scan-out net (q of the last flop), exported as a port.
    pub so: NetId,
    /// Flops in shift order: `cells[0]` captures from `si`.
    pub cells: Vec<CellId>,
}

impl ScanChain {
    /// Chain length `l`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` for an empty chain (never produced by the pass).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// The result of scan insertion: chain topology plus the control nets.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ScanChains {
    /// The shared scan-enable net.
    pub se: NetId,
    /// The chains, index = chain number.
    pub chains: Vec<ScanChain>,
    /// Name of the scan-enable port (kept for simulators).
    pub se_port: String,
}

impl ScanChains {
    /// Number of chains `W`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.chains.len()
    }

    /// Maximum chain length `l` (the encode/decode latency in cycles —
    /// paper Sec. III: latency = `l x T`).
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.chains.iter().map(ScanChain::len).max().unwrap_or(0)
    }

    /// Total flip-flops across chains.
    #[must_use]
    pub fn ff_count(&self) -> usize {
        self.chains.iter().map(ScanChain::len).sum()
    }

    /// All scanned cells, chain-major.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.chains.iter().flat_map(|c| c.cells.iter().copied())
    }

    /// Drives the scan-enable port.
    pub fn set_scan_enable(&self, sim: &mut Simulator<'_>, enable: bool) {
        sim.set_net(self.se, Logic::from(enable));
    }

    /// Performs one scan-shift cycle: presents `inputs[k]` on each chain's
    /// scan-in, returns the bits that each chain's scan-out delivered
    /// during the cycle (the values consumed by a monitor), then clocks.
    ///
    /// Scan-enable must already be high.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.width()`.
    pub fn shift(&self, sim: &mut Simulator<'_>, inputs: &[Logic]) -> Vec<Logic> {
        assert_eq!(inputs.len(), self.width(), "one input bit per chain");
        for (chain, &bit) in self.chains.iter().zip(inputs) {
            sim.set_net(chain.si, bit);
        }
        sim.settle();
        let outs: Vec<Logic> = self.chains.iter().map(|c| sim.value(c.so)).collect();
        sim.step();
        outs
    }

    /// Reads the current state of every chain directly (no clocks):
    /// `result[k][i]` is the value of chain `k`'s flop at depth `i`
    /// (depth 0 nearest scan-in).
    #[must_use]
    pub fn snapshot(&self, sim: &Simulator<'_>) -> Vec<Vec<Logic>> {
        self.chains
            .iter()
            .map(|c| c.cells.iter().map(|&f| sim.ff_value(f)).collect())
            .collect()
    }

    /// Forces the state of every chain directly (no clocks); shape must
    /// match [`snapshot`](Self::snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from the chain topology.
    pub fn load(&self, sim: &mut Simulator<'_>, state: &[Vec<Logic>]) {
        assert_eq!(state.len(), self.width(), "one row per chain");
        for (chain, row) in self.chains.iter().zip(state) {
            assert_eq!(row.len(), chain.len(), "row length must equal chain length");
            for (&cell, &v) in chain.cells.iter().zip(row) {
                sim.force_ff(cell, v);
            }
        }
    }
}

/// Inserts scan into `netlist` per `config`.
///
/// Flip-flops are taken in cell order and split into `config.chains`
/// balanced contiguous chains (lengths differ by at most one). New ports:
/// `se`, `si[k]`, `so[k]`. The names are fixed:
/// [`recover_scan_chains`](crate::recover_scan_chains) finds the chains
/// of an imported netlist by them.
///
/// # Errors
///
/// * [`DftError::ZeroChains`] / [`DftError::TooManyChains`] /
///   [`DftError::NoFlipFlops`] for bad configurations;
/// * [`DftError::Netlist`] if port names clash with the design.
pub fn insert_scan(netlist: &mut Netlist, config: &ScanConfig) -> Result<ScanChains, DftError> {
    if config.chains == 0 {
        return Err(DftError::ZeroChains);
    }
    let ffs: Vec<CellId> = netlist.ff_cells().map(|(id, _)| id).collect();
    if ffs.is_empty() {
        return Err(DftError::NoFlipFlops);
    }
    if config.chains > ffs.len() {
        return Err(DftError::TooManyChains {
            chains: config.chains,
            ffs: ffs.len(),
        });
    }

    let se = netlist.add_input_port(SE_PORT)?;

    let w = config.chains;
    let base = ffs.len() / w;
    let extra = ffs.len() % w;
    let mut chains = Vec::with_capacity(w);
    let mut cursor = 0usize;
    for k in 0..w {
        let len = base + usize::from(k < extra);
        let cells: Vec<CellId> = ffs[cursor..cursor + len].to_vec();
        cursor += len;
        let si = netlist.add_input_port(&format!("{SI_PREFIX}[{k}]"))?;
        // Stitch: each flop's si pin is the previous stage's q.
        let mut prev = si;
        for &cell in &cells {
            let c = netlist.cell(cell);
            let d = c.inputs()[0];
            let kind = c.kind();
            let new_kind = match (kind, config.style) {
                (GateKind::Dff, FlopStyle::Scan) => GateKind::Sdff,
                (GateKind::Dff | GateKind::Rdff, FlopStyle::RetentionScan) => GateKind::Rsdff,
                (GateKind::Rdff, FlopStyle::Scan) => GateKind::Rsdff,
                // Already scan-capable: keep kind, rewire scan pins.
                (GateKind::Sdff, FlopStyle::RetentionScan) => GateKind::Rsdff,
                (k @ (GateKind::Sdff | GateKind::Rsdff), _) => k,
                (k, _) => k, // unreachable for sequential kinds
            };
            netlist.morph_cell(cell, new_kind, vec![d, prev, se]);
            prev = netlist.cell(cell).output();
        }
        let so = prev;
        netlist.add_output_port(&format!("{SO_PREFIX}[{k}]"), so)?;
        chains.push(ScanChain { si, so, cells });
    }
    netlist.revalidate().map_err(DftError::Netlist)?;
    Ok(ScanChains {
        se,
        chains,
        se_port: SE_PORT.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanguard_netlist::{CellLibrary, NetlistBuilder};

    /// An 8-bit register file slice: 8 independent flops fed by inputs.
    fn eight_flops() -> Netlist {
        let mut b = NetlistBuilder::new("regs8");
        for i in 0..8 {
            let d = b.input(&format!("d[{i}]"));
            let (q, _) = b.dff(&format!("r{i}"), d);
            b.output(&format!("q[{i}]"), q);
        }
        b.finish().unwrap()
    }

    #[test]
    fn chains_are_balanced() {
        let mut nl = eight_flops();
        let sc = insert_scan(&mut nl, &ScanConfig::with_chains(3)).unwrap();
        let lens: Vec<usize> = sc.chains.iter().map(ScanChain::len).collect();
        assert_eq!(lens, vec![3, 3, 2]);
        assert_eq!(sc.ff_count(), 8);
        assert_eq!(sc.max_len(), 3);
    }

    #[test]
    fn flops_are_upgraded_per_style() {
        let mut nl = eight_flops();
        let _ = insert_scan(&mut nl, &ScanConfig::retention_with_chains(2)).unwrap();
        for (_, c) in nl.ff_cells() {
            assert_eq!(c.kind(), GateKind::Rsdff);
        }
        let mut nl = eight_flops();
        let _ = insert_scan(&mut nl, &ScanConfig::with_chains(2)).unwrap();
        for (_, c) in nl.ff_cells() {
            assert_eq!(c.kind(), GateKind::Sdff);
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut nl = eight_flops();
        assert!(matches!(
            insert_scan(&mut nl, &ScanConfig::with_chains(0)),
            Err(DftError::ZeroChains)
        ));
        let mut nl = eight_flops();
        assert!(matches!(
            insert_scan(&mut nl, &ScanConfig::with_chains(9)),
            Err(DftError::TooManyChains { .. })
        ));
        let mut b = NetlistBuilder::new("comb");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let mut nl = b.finish().unwrap();
        assert!(matches!(
            insert_scan(&mut nl, &ScanConfig::with_chains(1)),
            Err(DftError::NoFlipFlops)
        ));
    }

    #[test]
    fn functional_behaviour_is_preserved() {
        // With se=0 the scanned design must behave like the original.
        let mut nl = eight_flops();
        let sc = insert_scan(&mut nl, &ScanConfig::with_chains(4)).unwrap();
        let lib = CellLibrary::st120nm();
        let mut sim = Simulator::new(&nl, &lib);
        sc.set_scan_enable(&mut sim, false);
        for i in 0..8 {
            sim.set_port_bool(&format!("d[{i}]"), i % 2 == 0).unwrap();
            sim.set_port_bool(&format!("si[{}]", i % 4), false).unwrap();
        }
        sim.step();
        for i in 0..8 {
            assert_eq!(
                sim.port_value(&format!("q[{i}]")).unwrap(),
                Logic::from(i % 2 == 0)
            );
        }
    }

    #[test]
    fn shift_moves_one_position_per_cycle() {
        let mut nl = eight_flops();
        let sc = insert_scan(&mut nl, &ScanConfig::with_chains(2)).unwrap();
        let lib = CellLibrary::st120nm();
        let mut sim = Simulator::new(&nl, &lib);
        // Zero everything via 4 shifts of zeros.
        sc.set_scan_enable(&mut sim, true);
        for i in 0..8 {
            sim.set_port_bool(&format!("d[{i}]"), false).unwrap();
        }
        for _ in 0..4 {
            sc.shift(&mut sim, &[Logic::Zero, Logic::Zero]);
        }
        // Shift in a one on chain 0 only.
        sc.shift(&mut sim, &[Logic::One, Logic::Zero]);
        let snap = sc.snapshot(&sim);
        assert_eq!(snap[0][0], Logic::One);
        assert!(snap[0][1..].iter().all(|&v| v == Logic::Zero));
        assert!(snap[1].iter().all(|&v| v == Logic::Zero));
        // After 3 more shifts of zeros it emerges on so.
        sc.shift(&mut sim, &[Logic::Zero, Logic::Zero]);
        sc.shift(&mut sim, &[Logic::Zero, Logic::Zero]);
        sc.shift(&mut sim, &[Logic::Zero, Logic::Zero]);
        let outs = sc.shift(&mut sim, &[Logic::Zero, Logic::Zero]);
        assert_eq!(outs[0], Logic::One, "bit reaches scan-out after l cycles");
    }

    #[test]
    fn full_chain_roundtrip_preserves_pattern() {
        let mut nl = eight_flops();
        let sc = insert_scan(&mut nl, &ScanConfig::with_chains(2)).unwrap();
        let lib = CellLibrary::st120nm();
        let mut sim = Simulator::new(&nl, &lib);
        sc.set_scan_enable(&mut sim, true);
        for i in 0..8 {
            sim.set_port_bool(&format!("d[{i}]"), false).unwrap();
        }
        let pattern = [
            vec![Logic::One, Logic::Zero, Logic::One, Logic::One],
            vec![Logic::Zero, Logic::Zero, Logic::One, Logic::Zero],
        ];
        sc.load(&mut sim, &pattern);
        assert_eq!(sc.snapshot(&sim), pattern);
        // Circulate so -> si for l cycles: the state must return intact.
        let l = sc.max_len();
        for _ in 0..l {
            let snap: Vec<Logic> = sc.chains.iter().map(|c| sim.value(c.so)).collect();
            sc.shift(&mut sim, &snap);
        }
        assert_eq!(sc.snapshot(&sim), pattern, "circulation is lossless");
    }

    #[test]
    fn load_shape_mismatch_panics() {
        let mut nl = eight_flops();
        let sc = insert_scan(&mut nl, &ScanConfig::with_chains(2)).unwrap();
        let lib = CellLibrary::st120nm();
        let mut sim = Simulator::new(&nl, &lib);
        let bad = vec![vec![Logic::Zero; 3]; 2];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sc.load(&mut sim, &bad);
        }));
        assert!(result.is_err());
    }
}
