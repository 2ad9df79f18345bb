//! The live cone: the cells that can influence a set of observed nets
//! while some input ports hold fixed levels.
//!
//! A caller that pins part of its inputs for a whole phase — `se` at 1
//! while the chains shift — only needs to settle the cells whose value
//! can reach what it observes in that phase. [`LiveCone::walk`] finds
//! them in two passes over the netlist:
//!
//! * *forward*, one [`GateKind::eval_set`] sweep in topological order:
//!   each undriven input port takes the levels the caller gives it, a
//!   net with one combinational driver takes that cell's set, and flop
//!   outputs, contended nets and other undriven nets can take any level.
//!   A *widened* net also takes one extra level wherever it appears —
//!   a stuck-at fault's level, which the lanes carrying the fault see
//!   whatever the net's driver computes;
//! * *backward*, from the roots, following only the pins that the
//!   fixed levels do not jointly mask ([`GateKind::masked_pins`]) and
//!   marking *every* driver of a live net, so contended nets keep their
//!   last-writer semantics.
//!
//! A masked pin still feeds its cell's evaluation, but its level never
//! changes the result, so a simulator that settles only the cone may
//! leave that pin's driver stale.
//!
//! [`GateKind::eval_set`]: scanguard_netlist::GateKind::eval_set
//! [`GateKind::masked_pins`]: scanguard_netlist::GateKind::masked_pins

use scanguard_netlist::{CellId, Logic, LogicSet, NetId, NetIndex, Netlist};

/// The cells that can influence a set of root nets under fixed input
/// levels, with the levels each net can take.
///
/// # Examples
///
/// ```
/// use scanguard_netlist::{LogicSet, NetIndex, NetlistBuilder};
/// use scanguard_sim::LiveCone;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("scan");
/// let (d, si, se) = (b.input("d"), b.input("si"), b.input("se"));
/// let nd = b.not(d);
/// let (q, _) = b.sdff("r", nd, si, se);
/// b.output("q", q);
/// let nl = b.finish()?;
///
/// // While `se` is 1 the flop reads `si`: the inverter on `d` is dead.
/// let se_net = nl.port("se")?;
/// let level = |n| if n == se_net { LogicSet::ONE } else { LogicSet::ANY };
/// let shift = LiveCone::walk(&nl, &NetIndex::new(&nl), nl.topo_order(), level, &[], [q]);
/// assert!(shift.comb().is_empty());
/// assert_eq!(shift.seq().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LiveCone {
    comb: Vec<CellId>,
    seq: Vec<CellId>,
    /// The levels each net can take, widened nets included.
    levels: Vec<LogicSet>,
}

impl LiveCone {
    /// Walks the cone of `roots`. `index` is the netlist's
    /// [`NetIndex`]; `topo` lists the combinational cells in
    /// topological order; `port_level` gives the levels each
    /// undriven input port can take; each `widen` entry adds a level to
    /// a net.
    #[must_use]
    pub fn walk(
        netlist: &Netlist,
        index: &NetIndex,
        topo: &[CellId],
        port_level: impl Fn(NetId) -> LogicSet,
        widen: &[(NetId, Logic)],
        roots: impl IntoIterator<Item = NetId>,
    ) -> LiveCone {
        let nl = netlist;
        let mut extra = vec![LogicSet::EMPTY; nl.net_count()];
        for &(net, level) in widen {
            extra[net.index()] = extra[net.index()].union(LogicSet::singleton(level));
        }
        let mut levels = vec![LogicSet::ANY; nl.net_count()];
        for &(_, net) in nl.input_ports() {
            if index.drivers(net).is_empty() {
                levels[net.index()] = port_level(net);
            }
        }
        for (level, &e) in levels.iter_mut().zip(&extra) {
            *level = level.union(e);
        }
        // A net with one combinational driver holds that cell's value at
        // every settle point; flop outputs and contended nets stay
        // unknown.
        let mut pins: Vec<LogicSet> = Vec::with_capacity(3);
        for &id in topo {
            let cell = nl.cell(id);
            let out = cell.output().index();
            if index.drivers(cell.output()).len() == 1 {
                pins.clear();
                pins.extend(cell.inputs().iter().map(|n| levels[n.index()]));
                levels[out] = cell.kind().eval_set(&pins).union(extra[out]);
            }
        }

        let mut live_net = vec![false; nl.net_count()];
        let mut live_cell = vec![false; nl.cell_count()];
        let mut stack: Vec<NetId> = Vec::new();
        let mut mark = |net: NetId, stack: &mut Vec<NetId>| {
            if !std::mem::replace(&mut live_net[net.index()], true) {
                stack.push(net);
            }
        };
        for net in roots {
            mark(net, &mut stack);
        }
        while let Some(net) = stack.pop() {
            for &id in index.drivers(net) {
                if std::mem::replace(&mut live_cell[id.index()], true) {
                    continue;
                }
                let cell = nl.cell(id);
                pins.clear();
                pins.extend(cell.inputs().iter().map(|n| levels[n.index()]));
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
                .ff_cells()
                .map(|(id, _)| id)
                .filter(|id| live_cell[id.index()])
                .collect(),
            levels,
        }
    }

    /// Combinational cells of the cone, in topological order.
    #[must_use]
    pub fn comb(&self) -> &[CellId] {
        &self.comb
    }

    /// Sequential cells of the cone, in cell order.
    #[must_use]
    pub fn seq(&self) -> &[CellId] {
        &self.seq
    }

    /// The levels `net` can take at any settle point of the phase.
    #[must_use]
    pub fn level(&self, net: NetId) -> LogicSet {
        self.levels[net.index()]
    }

    /// Cells in the cone (settled plus clocked).
    #[must_use]
    pub fn cells(&self) -> usize {
        self.comb.len() + self.seq.len()
    }
}
