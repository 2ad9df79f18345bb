//! The live cone of the monitor pass: the cells that can influence an
//! observation of the sweep.
//!
//! The sweep holds `se` at 1 for the whole pass and every functional
//! input at 0, so most of the design — the functional logic feeding
//! the scan flops' `d` pins — can never reach a chain latch, `mon_err`
//! or `mon_done`. [`sweep_cone`] hands those levels and roots to the
//! simulator crate's [`LiveCone::walk`], the same walk fault
//! simulation uses for its shift cycles:
//!
//! * input ports are `{0}`, `se` is `{1}`, and the monitor controls are
//!   unknown (`{0, 1, X}`);
//! * the roots are `mon_err`, `mon_done` and every chain latch.

use crate::context::MonitorView;
use crate::LintContext;
use scanguard_dft::ScanChains;
use scanguard_netlist::{CellId, LogicSet};
use scanguard_sim::LiveCone;

/// The cells that can influence `mon_err`, `mon_done` or a chain latch
/// during the monitor pass.
pub(crate) fn sweep_cone(
    ctx: &LintContext<'_>,
    topo: &[CellId],
    mv: &MonitorView,
    chains: &ScanChains,
) -> LiveCone {
    let nl = ctx.netlist();
    let controls = [
        Some(mv.mon_en),
        Some(mv.mon_decode),
        Some(mv.mon_clear),
        mv.sig_cap,
    ];
    let level = |net| {
        if controls.contains(&Some(net)) {
            LogicSet::ANY
        } else if net == chains.se {
            LogicSet::ONE
        } else {
            LogicSet::ZERO
        }
    };
    let latches = chains
        .chains
        .iter()
        .flat_map(|chain| &chain.cells)
        .map(|&cell| nl.cell(cell).output());
    let roots = [mv.err, mv.done].into_iter().chain(latches);
    LiveCone::walk(nl, ctx.index(), topo, level, &[], roots)
}
