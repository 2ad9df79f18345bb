//! Shared graph analyses computed once per lint run.
//!
//! The context deliberately trusts nothing cached on the netlist: its
//! [`NetIndex`] is derived straight from the cell array and it runs
//! [`levelize`] itself, so rules work on *broken* inputs (multi-driven
//! nets, combinational loops, stale `topo_order`) — the very netlists a
//! linter exists for.

use crate::upset::{sweep, SweepCells, UpsetError, UpsetReport};
use scanguard_dft::{ScanChains, TestModeConfig};
use scanguard_netlist::{arrival_times, levelize, CellId, CellLibrary, NetId, NetIndex, Netlist};
use std::cell::OnceCell;
use std::collections::HashSet;

/// Which checker code family the monitor implements — the shape the
/// upset engine needs to pick its fault space and sampling points,
/// decoupled from `scanguard-core`'s `CodeChoice`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorKind {
    /// Hamming SEC (`extended: false`) or extended Hamming SEC-DED
    /// (`extended: true`): per-group parity store, corrects singles.
    Hamming {
        /// `true` for the SEC-DED variant with an overall parity row.
        extended: bool,
    },
    /// One parity bit per word per group: detect-only, odd weights.
    Parity,
    /// CRC-16 signature over all chains: detect-only, checked once at
    /// the end of the decode pass rather than streamed per cycle.
    Crc16,
}

impl MonitorKind {
    /// `true` when the monitor corrects (not merely detects) singles.
    #[must_use]
    pub fn corrects(self) -> bool {
        matches!(self, MonitorKind::Hamming { .. })
    }

    /// `true` when `mon_err` is valid on every decode cycle (streamed);
    /// `false` when it is only valid at the final signature check.
    #[must_use]
    pub fn streaming_check(self) -> bool {
        !matches!(self, MonitorKind::Crc16)
    }
}

/// The monitor-hardware facts the sequential upset engine drives:
/// control/status ports and the group geometry. Groups are uniform by
/// construction (`attach_monitor` slices `W` chains into equal groups),
/// so geometry is three numbers rather than a list.
#[derive(Debug, Clone, Copy)]
pub struct MonitorView {
    /// Code family.
    pub kind: MonitorKind,
    /// Number of monitor blocks.
    pub groups: usize,
    /// Chain-index stride between consecutive groups.
    pub group_stride: usize,
    /// Data chains each block watches (`k` for Hamming, the configured
    /// group width for parity, all of `W` for CRC).
    pub group_data_chains: usize,
    /// `mon_en` input net (shift/update enable).
    pub mon_en: NetId,
    /// `mon_decode` input net (0 = encode, 1 = decode/correct).
    pub mon_decode: NetId,
    /// `mon_clear` input net (sequencer / CRC re-init).
    pub mon_clear: NetId,
    /// `mon_sig_cap` input net (CRC monitors only).
    pub sig_cap: Option<NetId>,
    /// `mon_err` output net.
    pub err: NetId,
    /// `mon_done` output net.
    pub done: NetId,
    /// Chain length `l` the blocks are sized for.
    pub chain_len: usize,
}

/// Design-level metadata for the scan/retention/claim rules.
///
/// Structural rules need only a netlist; the `SG1xx`–`SG3xx` families
/// also need to know where the chains, the monitor and the power-domain
/// boundary are. [`DesignView`] carries exactly that, decoupled from
/// `scanguard-core` so the linter has no dependency cycle with the
/// synthesizer that calls it.
#[derive(Debug, Clone, Copy)]
pub struct DesignView<'a> {
    /// Scan chain topology (post-padding).
    pub chains: &'a ScanChains,
    /// Fig. 5(b) test-mode concatenation metadata, when configured.
    pub test_mode: Option<&'a TestModeConfig>,
    /// Cells generated by the monitor pass (parity trees, store rows,
    /// syndrome/correction logic, sequencers).
    pub monitor_cells: &'a [CellId],
    /// Cells with index below this are in the power-gated domain; at or
    /// above it, always-on.
    pub gated_watermark: usize,
    /// Functional critical path of the scanned design *before* monitor
    /// insertion, in ps — the baseline for the paper's "no impact on
    /// critical path" claim. `None` skips the timing rule.
    pub baseline_functional_ps: Option<f64>,
    /// Monitor ports and group geometry for the sequential upset rules
    /// (SG205/SG206). `None` skips them.
    pub monitor: Option<MonitorView>,
}

/// The transitive combinational fan-in of a net.
#[derive(Debug, Clone, Default)]
pub struct Cone {
    /// Sequential cells whose outputs feed the cone.
    pub seq_sources: Vec<CellId>,
    /// Primary-input nets feeding the cone.
    pub ports: Vec<NetId>,
    /// Combinational cells traversed.
    pub comb_cells: Vec<CellId>,
}

/// Everything a [`Rule`](crate::Rule) can ask about the design under
/// lint.
#[derive(Debug)]
pub struct LintContext<'a> {
    netlist: &'a Netlist,
    library: &'a CellLibrary,
    design: Option<DesignView<'a>>,
    /// Every net's drivers and loads, recomputed from the cell array.
    index: NetIndex,
    input_port: Vec<bool>,
    output_port: Vec<bool>,
    /// `Ok` = combinational cells in topological order; `Err` = cells
    /// stuck on combinational cycles.
    topo: Result<Vec<CellId>, Vec<CellId>>,
    /// Once-per-context cache of the exhaustive upset sweep, shared by
    /// SG205 and SG206 (and the obs prune counters) so the sequential
    /// engine runs at most once per lint run — with the size of the
    /// cone it evaluated, for the obs counters.
    upset: OnceCell<(Result<UpsetReport, UpsetError>, Option<SweepCells>)>,
}

impl<'a> LintContext<'a> {
    /// Builds a context for a bare netlist (structural rules only).
    #[must_use]
    pub fn new(netlist: &'a Netlist, library: &'a CellLibrary) -> Self {
        Self::build(netlist, library, None)
    }

    /// Builds a context with design metadata, enabling every rule.
    #[must_use]
    pub fn with_design(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        design: DesignView<'a>,
    ) -> Self {
        Self::build(netlist, library, Some(design))
    }

    fn build(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        design: Option<DesignView<'a>>,
    ) -> Self {
        let nets = netlist.net_count();
        let mut input_port = vec![false; nets];
        for (_, net) in netlist.input_ports() {
            input_port[net.index()] = true;
        }
        let mut output_port = vec![false; nets];
        for (_, net) in netlist.output_ports() {
            output_port[net.index()] = true;
        }
        let index = NetIndex::new(netlist);
        let topo = levelize(netlist, &index);
        LintContext {
            netlist,
            library,
            design,
            index,
            input_port,
            output_port,
            topo,
            upset: OnceCell::new(),
        }
    }

    /// The netlist under lint.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The cell library (for the timing rule).
    #[must_use]
    pub fn library(&self) -> &'a CellLibrary {
        self.library
    }

    /// Design metadata, when provided.
    #[must_use]
    pub fn design(&self) -> Option<&DesignView<'a>> {
        self.design.as_ref()
    }

    /// Every net's drivers and loads.
    #[must_use]
    pub fn index(&self) -> &NetIndex {
        &self.index
    }

    /// All cells driving `net` (0 = floating, 2+ = contention).
    #[must_use]
    pub fn drivers(&self, net: NetId) -> &[CellId] {
        self.index.drivers(net)
    }

    /// All `(cell, pin)` pairs reading `net`.
    #[must_use]
    pub fn consumers(&self, net: NetId) -> &[(CellId, u32)] {
        self.index.loads(net)
    }

    /// `true` when `net` is a primary input port.
    #[must_use]
    pub fn is_input_port(&self, net: NetId) -> bool {
        self.input_port[net.index()]
    }

    /// `true` when `net` is exported as a primary output port.
    #[must_use]
    pub fn is_output_port(&self, net: NetId) -> bool {
        self.output_port[net.index()]
    }

    /// Combinational cells caught on cycles, or `None` when the netlist
    /// levelizes.
    #[must_use]
    pub fn loop_cells(&self) -> Option<&[CellId]> {
        self.topo.as_ref().err().map(Vec::as_slice)
    }

    /// Combinational cells in topological order, or `None` when the
    /// netlist has combinational cycles (SG004's finding) — the
    /// evaluation order the sequential upset engine settles over.
    #[must_use]
    pub fn comb_topo(&self) -> Option<&[CellId]> {
        self.topo.as_ref().ok().map(Vec::as_slice)
    }

    /// The exhaustive upset sweep (SG205/SG206's shared evidence),
    /// computed on first call and cached for the life of the context.
    /// `None` when the context has no design view or no monitor view.
    pub fn upset_report(&self) -> Option<&Result<UpsetReport, UpsetError>> {
        let view = self.design?;
        view.monitor?;
        let (report, _) = self.upset.get_or_init(|| match sweep(self, &view) {
            Ok((report, cells)) => (Ok(report), Some(cells)),
            Err(e) => (Err(e), None),
        });
        Some(report)
    }

    /// The cached upset sweep, without triggering a run — for the obs
    /// layer to pull prune statistics after the rules executed.
    #[must_use]
    pub fn upset_report_if_run(&self) -> Option<&Result<UpsetReport, UpsetError>> {
        self.upset.get().map(|(report, _)| report)
    }

    /// The cached sweep's cone size, without triggering a run.
    pub(crate) fn upset_cells_if_run(&self) -> Option<SweepCells> {
        self.upset.get().and_then(|&(_, cells)| cells)
    }

    /// A `n<idx> (<name>)` label for diagnostics.
    #[must_use]
    pub fn net_label(&self, net: NetId) -> String {
        match self.netlist.net_name(net) {
            Some(name) => format!("{net} ({name})"),
            None => format!("{net}"),
        }
    }

    /// A `c<idx> (<name>|kind)` label for diagnostics.
    #[must_use]
    pub fn cell_label(&self, cell: CellId) -> String {
        let c = self.netlist.cell(cell);
        match c.name() {
            Some(name) => format!("{cell} ({name})"),
            None => format!("{cell} [{:?}]", c.kind()),
        }
    }

    /// Walks the combinational fan-in of `net` backwards, stopping at
    /// sequential cells and primary inputs — the static mux-by-mux trace
    /// the scan-DRC rules are built on. Robust against cycles.
    #[must_use]
    pub fn comb_cone(&self, net: NetId) -> Cone {
        let mut cone = Cone::default();
        let mut seen_nets: HashSet<u32> = HashSet::new();
        let mut stack = vec![net];
        while let Some(n) = stack.pop() {
            if !seen_nets.insert(n.index() as u32) {
                continue;
            }
            if self.input_port[n.index()] {
                cone.ports.push(n);
                continue;
            }
            let Some(&d) = self.drivers(n).first() else {
                continue; // floating; SG001 reports it
            };
            let cell = self.netlist.cell(d);
            if cell.kind().is_sequential() {
                cone.seq_sources.push(d);
            } else {
                cone.comb_cells.push(d);
                stack.extend_from_slice(cell.inputs());
            }
        }
        cone
    }

    /// Per-net flag: `true` when the net is combinationally reachable
    /// from the output of any always-on cell (index >= watermark).
    /// Propagation stops at sequential cells, so a flagged net on a
    /// flop's functional `d` pin means monitor logic sits on a
    /// functional path.
    #[must_use]
    pub fn alwayson_reach(&self, watermark: usize) -> Vec<bool> {
        let mut reach = vec![false; self.netlist.net_count()];
        let mut stack: Vec<NetId> = Vec::new();
        for (id, cell) in self.netlist.cells() {
            if id.index() >= watermark && !reach[cell.output().index()] {
                reach[cell.output().index()] = true;
                stack.push(cell.output());
            }
        }
        while let Some(n) = stack.pop() {
            for &(c, _) in self.consumers(n) {
                let cell = self.netlist.cell(c);
                if cell.kind().is_sequential() {
                    continue;
                }
                if !reach[cell.output().index()] {
                    reach[cell.output().index()] = true;
                    stack.push(cell.output());
                }
            }
        }
        reach
    }

    /// Per-net worst arrival times in ps (library delays, FF outputs
    /// launch at clock-to-q), or `None` when combinational loops make
    /// levelization impossible.
    #[must_use]
    pub fn arrivals(&self) -> Option<Vec<f64>> {
        let order = self.topo.as_ref().ok()?;
        Some(arrival_times(self.netlist, order, self.library))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanguard_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn own_driver_map_sees_through_stale_caches() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.and2(a, x);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let lib = CellLibrary::st120nm();
        let ctx = LintContext::new(&nl, &lib);
        assert_eq!(ctx.drivers(y).len(), 1);
        assert_eq!(ctx.consumers(a).len(), 2);
        assert!(ctx.is_input_port(a));
        assert!(ctx.is_output_port(y));
        assert!(ctx.loop_cells().is_none());
    }

    #[test]
    fn cone_stops_at_flops_and_ports() {
        let mut b = NetlistBuilder::new("t");
        let d = b.input("d");
        let (q, ff) = b.dff("r", d);
        let a = b.input("a");
        let x = b.xor2(q, a);
        let y = b.not(x);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let lib = CellLibrary::st120nm();
        let ctx = LintContext::new(&nl, &lib);
        let cone = ctx.comb_cone(y);
        assert_eq!(cone.seq_sources, vec![ff]);
        assert_eq!(cone.ports, vec![a]);
        assert_eq!(cone.comb_cells.len(), 2);
    }

    #[test]
    fn loop_cells_are_classified_not_panicked() {
        // Build a valid netlist, then rewire an AND input into a cycle
        // with the editing API — exactly the broken state a linter has
        // to survive (revalidate() would refuse it).
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let (x, and_cell) = b.named_cell("g_and", GateKind::And2, vec![a, a]);
        let (y, _) = b.named_cell("g_not", GateKind::Not, vec![x]);
        b.output("y", y);
        let mut nl = b.finish().unwrap();
        nl.set_cell_input(and_cell, 1, y);
        let lib = CellLibrary::st120nm();
        let ctx = LintContext::new(&nl, &lib);
        let stuck = ctx.loop_cells().expect("cycle must be detected");
        assert_eq!(stuck.len(), 2, "both gates are on the loop");
        assert!(ctx.arrivals().is_none(), "no timing on cyclic netlists");
    }

    #[test]
    fn arrivals_match_library_delays() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.not(x);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let lib = CellLibrary::st120nm();
        let ctx = LintContext::new(&nl, &lib);
        let arr = ctx.arrivals().unwrap();
        let not_delay = lib.params(GateKind::Not).delay_ps;
        assert!((arr[y.index()] - 2.0 * not_delay).abs() < 1e-9);
    }
}
