//! The reliability-aware synthesis flow — paper Fig. 4.
//!
//! Input: a conventional design netlist plus a configuration (chain
//! count, code choice, optional manufacturing-test width). The
//! [`Synthesizer`] then (1) inserts retention-scan chains, (2) pads them
//! to equal length, (3) generates the state monitoring and error
//! correction logic, (4) adds the Fig. 5(b) test-mode concatenation and
//! (5) optionally the Fig. 6 error injector — producing a
//! [`ProtectedDesign`] ready for simulation and cost measurement.

use crate::{attach_monitor, CodeChoice, CoreError, MonitorHardware, ProtectedRuntime};
use scanguard_dft::{
    attach_injector, configure_test_mode, insert_scan, Injector, ScanChains, ScanConfig,
    TestModeConfig,
};
use scanguard_lint::{lint_design, DesignView, LintReport, MonitorKind, MonitorView, RuleSet};
use scanguard_netlist::{critical_path, AreaReport, CellLibrary, GateKind, Netlist, TimingReport};
use scanguard_obs::Recorder;

/// A design processed by the reliability-aware synthesizer.
#[derive(Debug, Clone)]
pub struct ProtectedDesign {
    /// The full netlist: power-gated circuit + always-on monitor.
    pub netlist: Netlist,
    /// The scan chain topology (after padding).
    pub chains: ScanChains,
    /// The monitor hardware handle.
    pub monitor: MonitorHardware,
    /// Manufacturing-test concatenation, when configured.
    pub test_mode: Option<TestModeConfig>,
    /// Gate-level error injector, when configured.
    pub injector: Option<Injector>,
    /// Cells with index below this belong to the power-gated domain;
    /// cells at or above it (monitor, overlays) are always-on.
    pub gated_watermark: usize,
    /// Area/leakage of the scanned design *before* monitor insertion —
    /// the baseline of the paper's overhead percentages.
    pub baseline: AreaReport,
    /// Critical-path report of the scanned design *before* monitor
    /// insertion — the reference for the paper's "no impact on the
    /// functional critical path" claim (lint rule SG301).
    pub baseline_timing: TimingReport,
    /// Area/leakage *after* monitor and test-mode insertion (the
    /// injector, a testbench artefact, is excluded).
    pub protected: AreaReport,
    /// The cell library costs are measured against.
    pub library: CellLibrary,
    /// Clock frequency used for latency/power figures, MHz.
    pub clock_mhz: f64,
}

impl ProtectedDesign {
    /// Monitor area overhead in percent — the `%` column of the paper's
    /// Tables I–III.
    #[must_use]
    pub fn area_overhead_pct(&self) -> f64 {
        self.protected.overhead_pct_vs(&self.baseline)
    }

    /// Chain length `l` after padding.
    #[must_use]
    pub fn chain_len(&self) -> usize {
        self.chains.max_len()
    }

    /// Encode/decode latency `l x T` in ns — the `t(ns)` column of
    /// Tables I/II.
    #[must_use]
    pub fn latency_ns(&self) -> f64 {
        self.chain_len() as f64 * 1000.0 / self.clock_mhz
    }

    /// Builds a runtime (simulator + proposed controller) over this
    /// design.
    #[must_use]
    pub fn runtime(&self) -> ProtectedRuntime<'_> {
        ProtectedRuntime::new(self)
    }

    /// The design metadata the linter's scan/power/claim rules need —
    /// chains, monitor cells, the domain watermark and the pre-monitor
    /// timing baseline.
    #[must_use]
    pub fn lint_view(&self) -> DesignView<'_> {
        let mh = &self.monitor;
        let kind = match mh.code {
            CodeChoice::Hamming { .. } => MonitorKind::Hamming { extended: false },
            CodeChoice::ExtendedHamming { .. } => MonitorKind::Hamming { extended: true },
            CodeChoice::Parity { .. } => MonitorKind::Parity,
            CodeChoice::Crc16 => MonitorKind::Crc16,
        };
        let monitor = (!mh.groups.is_empty()).then(|| MonitorView {
            kind,
            groups: mh.groups.len(),
            group_stride: if mh.groups.len() > 1 {
                mh.groups[1].first_chain - mh.groups[0].first_chain
            } else {
                self.chains.width()
            },
            group_data_chains: mh.groups[0].width,
            mon_en: mh.mon_en,
            mon_decode: mh.mon_decode,
            mon_clear: mh.mon_clear,
            sig_cap: mh.sig_cap,
            err: mh.err,
            done: mh.done,
            chain_len: mh.chain_len,
        });
        DesignView {
            chains: &self.chains,
            test_mode: self.test_mode.as_ref(),
            monitor_cells: &self.monitor.cells,
            monitor,
            gated_watermark: self.gated_watermark,
            baseline_functional_ps: Some(self.baseline_timing.functional_ps),
        }
    }

    /// Runs the given lint rules over this design (structural and
    /// design-level families).
    #[must_use]
    pub fn lint(&self, rules: &RuleSet, rec: Option<&Recorder>) -> LintReport {
        lint_design(&self.netlist, &self.library, self.lint_view(), rules, rec)
    }
}

/// Builder for the synthesis flow.
///
/// # Examples
///
/// ```
/// use scanguard_core::{CodeChoice, Synthesizer};
/// use scanguard_designs::Fifo;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fifo = Fifo::generate(8, 8);
/// let design = Synthesizer::new(fifo.netlist)
///     .chains(8)
///     .code(CodeChoice::hamming7_4())
///     .build()?;
/// assert!(design.area_overhead_pct() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Synthesizer {
    netlist: Netlist,
    chains: usize,
    code: CodeChoice,
    test_width: Option<usize>,
    injector: bool,
}

/// The paper's clock, MHz: latency and power figures are taken at it.
const CLOCK_MHZ: f64 = 100.0;

impl Synthesizer {
    /// Starts a flow over a conventional design netlist.
    #[must_use]
    pub fn new(netlist: Netlist) -> Self {
        Synthesizer {
            netlist,
            chains: 4,
            code: CodeChoice::crc16(),
            test_width: None,
            injector: false,
        }
    }

    /// Sets the scan chain count `W`.
    #[must_use]
    pub fn chains(mut self, chains: usize) -> Self {
        self.chains = chains;
        self
    }

    /// Sets the monitoring code.
    #[must_use]
    pub fn code(mut self, code: CodeChoice) -> Self {
        self.code = code;
        self
    }

    /// Enables the Fig. 5(b) manufacturing-test concatenation with the
    /// given test I/O width.
    #[must_use]
    pub fn test_width(mut self, width: usize) -> Self {
        self.test_width = Some(width);
        self
    }

    /// Attaches the Fig. 6 gate-level error injector (testbench use).
    #[must_use]
    pub fn with_injector(mut self, yes: bool) -> Self {
        self.injector = yes;
        self
    }

    /// Runs the flow.
    ///
    /// # Errors
    ///
    /// Propagates scan-insertion, grouping, code and netlist errors as
    /// [`CoreError`].
    pub fn build(self) -> Result<ProtectedDesign, CoreError> {
        let Synthesizer {
            mut netlist,
            chains,
            code,
            test_width,
            injector,
        } = self;
        let library = CellLibrary::st120nm();

        // (1) Scan insertion with retention-scan flops.
        let mut scan = insert_scan(&mut netlist, &ScanConfig::retention_with_chains(chains))?;

        // (2) Pad shorter chains with dummy retention-scan flops at the
        // scan-in end so every chain has length l (real flows balance or
        // pad chains the same way; the dummies live in the gated domain).
        let l = scan.max_len();
        let mut tie = None;
        for (k, chain) in scan.chains.iter_mut().enumerate() {
            let missing = l - chain.len();
            if missing == 0 {
                continue;
            }
            let tie = *tie.get_or_insert_with(|| netlist.add_cell(GateKind::TieLo, vec![], None).0);
            let first_real = chain.cells[0];
            let mut prev = chain.si;
            let mut pads = Vec::with_capacity(missing);
            for p in 0..missing {
                let (q, id) = netlist.add_cell(
                    GateKind::Rsdff,
                    vec![tie, prev, scan.se],
                    Some(&format!("pad{k}_{p}")),
                );
                pads.push(id);
                prev = q;
            }
            netlist.set_cell_input(first_real, 1, prev);
            pads.extend_from_slice(&chain.cells);
            chain.cells = pads;
        }
        netlist.revalidate()?;

        // (3) Baseline snapshot (area *and* timing — the critical-path
        // reference the lint claim rules compare against), then monitor
        // generation.
        let gated_watermark = netlist.cell_count();
        let baseline = AreaReport::of(&netlist, &library);
        let baseline_timing = critical_path(&netlist, &library);
        let monitor = attach_monitor(&mut netlist, &scan, code)?;

        // (4) Manufacturing-test concatenation.
        let test_mode = match test_width {
            Some(w) => Some(configure_test_mode(&mut netlist, &scan, w)?),
            None => None,
        };
        let protected = AreaReport::of(&netlist, &library);

        // (5) Error injector (excluded from cost reports).
        let injector = if injector {
            Some(attach_injector(&mut netlist, &scan)?)
        } else {
            None
        };

        Ok(ProtectedDesign {
            netlist,
            chains: scan,
            monitor,
            test_mode,
            injector,
            gated_watermark,
            baseline,
            baseline_timing,
            protected,
            library,
            clock_mhz: CLOCK_MHZ,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanguard_designs::Fifo;
    use scanguard_netlist::NetlistBuilder;

    fn regs(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("regs");
        for i in 0..n {
            let d = b.input(&format!("d[{i}]"));
            let (q, _) = b.dff(&format!("r{i}"), d);
            b.output(&format!("q[{i}]"), q);
        }
        b.finish().unwrap()
    }

    #[test]
    fn padding_equalizes_chain_lengths() {
        // 10 flops in 4 chains: balanced split is 3,3,2,2 -> pad to 3.
        let d = Synthesizer::new(regs(10))
            .chains(4)
            .code(CodeChoice::hamming7_4())
            .build()
            .unwrap();
        assert!(d.chains.chains.iter().all(|c| c.len() == 3));
        assert_eq!(d.chain_len(), 3);
        // 10 real flops + 2 pads + parity store + the block sequencer's
        // ceil(log2(l+1)) = 2 counter bits.
        assert_eq!(d.netlist.ff_count(), 12 + d.monitor.store_bits + 2);
    }

    #[test]
    fn overhead_is_positive_and_latency_matches_l() {
        let d = Synthesizer::new(regs(16))
            .chains(4)
            .code(CodeChoice::hamming7_4())
            .build()
            .unwrap();
        assert!(d.area_overhead_pct() > 0.0);
        assert_eq!(d.chain_len(), 4);
        assert!((d.latency_ns() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn ungroupable_chain_count_is_rejected() {
        let err = Synthesizer::new(regs(16))
            .chains(6)
            .code(CodeChoice::hamming7_4())
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::ChainsNotGroupable { .. }));
    }

    #[test]
    fn overlays_attach_in_order() {
        let d = Synthesizer::new(regs(16))
            .chains(8)
            .code(CodeChoice::crc16())
            .test_width(4)
            .with_injector(true)
            .build()
            .unwrap();
        assert!(d.test_mode.is_some());
        assert!(d.injector.is_some());
        // Injector ports exist but its gates are not in the cost reports.
        assert!(d.netlist.port("inj_col").is_ok());
        assert!(d.protected.cell_count < d.netlist.cell_count());
    }

    #[test]
    fn fifo_hamming_overhead_is_dominated_by_parity_store() {
        // (7,4) parity store = 3/4 of the flop count; the overhead must
        // exceed 25% of baseline by construction.
        let fifo = Fifo::generate(16, 16);
        let d = Synthesizer::new(fifo.netlist)
            .chains(4)
            .code(CodeChoice::hamming7_4())
            .build()
            .unwrap();
        assert!(
            d.area_overhead_pct() > 25.0,
            "got {:.1}%",
            d.area_overhead_pct()
        );
        // CRC on the same design costs far less (its storage is two
        // 16-bit registers per block instead of 3/4 of the state).
        let fifo = Fifo::generate(16, 16);
        let dc = Synthesizer::new(fifo.netlist)
            .chains(4)
            .code(CodeChoice::crc16())
            .build()
            .unwrap();
        assert!(dc.area_overhead_pct() < d.area_overhead_pct() / 2.0);
    }

    #[test]
    fn gated_watermark_splits_pgc_from_monitor() {
        let d = Synthesizer::new(regs(8))
            .chains(4)
            .code(CodeChoice::hamming7_4())
            .build()
            .unwrap();
        for &cell in &d.monitor.cells {
            assert!(cell.index() >= d.gated_watermark);
        }
        for chain in &d.chains.chains {
            for &cell in &chain.cells {
                assert!(cell.index() < d.gated_watermark);
            }
        }
    }
}
