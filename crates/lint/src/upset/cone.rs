//! The live cone of the monitor pass: the cells that can influence an
//! observation of the sweep.
//!
//! The sweep holds `se` at 1 for the whole pass and every functional
//! input at 0, so most of the design — the functional logic feeding
//! the scan flops' `d` pins — can never reach a chain latch, `mon_err`
//! or `mon_done`. [`LiveCone::sweep`] finds the cells that can, in two
//! passes over the netlist:
//!
//! * *forward*, one [`GateKind::eval_set`] sweep in topological order
//!   under the schedule's fixed inputs: input ports are `{0}`, `se` is
//!   `{1}`, and the monitor controls, every flop output and every
//!   undriven net are unknown (`{0, 1, X}`);
//! * *backward*, from `mon_err`, `mon_done` and every chain latch,
//!   following only the pins that the constant inputs do not jointly
//!   mask ([`GateKind::masked_pins`]) and marking *every* driver of a
//!   live net, so contended nets keep their last-writer semantics.
//!
//! A masked pin still feeds its cell's evaluation, but by construction
//! its level never changes the result, so the simulator may read any
//! value there.

use crate::context::MonitorView;
use crate::LintContext;
use scanguard_dft::ScanChains;
use scanguard_netlist::{CellId, LogicSet, NetId};

/// The cells the sweep's [`WideSimulator`](scanguard_sim::WideSimulator)
/// compiles: the live cone of the sweep, or every cell for a
/// counterexample replay.
pub(crate) struct LiveCone {
    /// Combinational cells to settle, in topological order.
    pub(crate) comb: Vec<CellId>,
    /// Sequential cells to clock, in cell order.
    pub(crate) seq: Vec<CellId>,
}

impl LiveCone {
    /// Every cell of the netlist — what the counterexample replay
    /// needs, since its witness walks them all.
    pub(crate) fn full(ctx: &LintContext<'_>, topo: &[CellId]) -> LiveCone {
        let nl = ctx.netlist();
        LiveCone {
            comb: topo.to_vec(),
            seq: nl
                .cells()
                .filter(|(_, c)| c.kind().is_sequential())
                .map(|(id, _)| id)
                .collect(),
        }
    }

    /// The cells that can influence `mon_err`, `mon_done` or a chain
    /// latch during the monitor pass.
    pub(crate) fn sweep(
        ctx: &LintContext<'_>,
        topo: &[CellId],
        mv: &MonitorView,
        chains: &ScanChains,
    ) -> LiveCone {
        let nl = ctx.netlist();
        let sets = fixed_levels(ctx, topo, mv, chains.se);

        let mut live_net = vec![false; nl.net_count()];
        let mut live_cell = vec![false; nl.cell_count()];
        let mut stack: Vec<NetId> = Vec::new();
        let mut mark = |net: NetId, stack: &mut Vec<NetId>| {
            if !live_net[net.index()] {
                live_net[net.index()] = true;
                stack.push(net);
            }
        };
        mark(mv.err, &mut stack);
        mark(mv.done, &mut stack);
        for chain in &chains.chains {
            for &cell in &chain.cells {
                mark(nl.cell(cell).output(), &mut stack);
            }
        }
        let mut pins: Vec<LogicSet> = Vec::with_capacity(3);
        while let Some(net) = stack.pop() {
            for &id in ctx.drivers(net) {
                if std::mem::replace(&mut live_cell[id.index()], true) {
                    continue;
                }
                let cell = nl.cell(id);
                pins.clear();
                pins.extend(cell.inputs().iter().map(|n| sets[n.index()]));
                let masked = cell.kind().masked_pins(&pins);
                for (k, &inp) in cell.inputs().iter().enumerate() {
                    if masked & (1 << k) == 0 {
                        mark(inp, &mut stack);
                    }
                }
            }
        }

        LiveCone {
            comb: topo
                .iter()
                .copied()
                .filter(|id| live_cell[id.index()])
                .collect(),
            seq: nl
                .cells()
                .filter(|&(id, c)| c.kind().is_sequential() && live_cell[id.index()])
                .map(|(id, _)| id)
                .collect(),
        }
    }

    /// Cells the simulator evaluates (settled plus clocked).
    pub(crate) fn cells(&self) -> usize {
        self.comb.len() + self.seq.len()
    }
}

/// The levels each net can take at any settle point of the pass.
fn fixed_levels(
    ctx: &LintContext<'_>,
    topo: &[CellId],
    mv: &MonitorView,
    se: NetId,
) -> Vec<LogicSet> {
    let nl = ctx.netlist();
    let controls = [
        Some(mv.mon_en),
        Some(mv.mon_decode),
        Some(mv.mon_clear),
        mv.sig_cap,
    ];
    let mut sets: Vec<LogicSet> = (0..nl.net_count())
        .map(|i| {
            let net = NetId::from_index(i);
            if !ctx.drivers(net).is_empty() || controls.contains(&Some(net)) {
                LogicSet::ANY
            } else if net == se {
                LogicSet::ONE
            } else if ctx.is_input_port(net) {
                LogicSet::ZERO
            } else {
                LogicSet::ANY
            }
        })
        .collect();
    // A net with one combinational driver holds that cell's value at
    // every settle point; flop outputs and contended nets stay unknown.
    let mut pins: Vec<LogicSet> = Vec::with_capacity(3);
    for &id in topo {
        let cell = nl.cell(id);
        let out = cell.output();
        if ctx.drivers(out).len() == 1 {
            pins.clear();
            pins.extend(cell.inputs().iter().map(|n| sets[n.index()]));
            sets[out.index()] = cell.kind().eval_set(&pins);
        }
    }
    sets
}
