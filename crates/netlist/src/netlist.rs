//! The flat gate-level netlist container.

use crate::{levelize, Cell, CellId, GateKind, NetId, NetIndex, NetlistError};
use std::collections::HashMap;

/// Per-net bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub(crate) struct NetInfo {
    pub(crate) name: Option<String>,
    /// The cell driving this net, or `None` for primary inputs.
    pub(crate) driver: Option<CellId>,
    /// `true` if the net is a primary input port.
    pub(crate) is_input: bool,
}

/// A flat, structural, gate-level netlist.
///
/// A netlist owns its nets and cells and knows its primary input/output
/// ports. After construction (via [`NetlistBuilder`](crate::NetlistBuilder))
/// or after a batch of edits followed by [`Netlist::revalidate`], the
/// netlist is *consistent*: every net has exactly one driver or is a
/// primary input, and the combinational cells have a valid topological
/// order used by simulators.
///
/// # Examples
///
/// ```
/// use scanguard_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("half_adder");
/// let a = b.input("a");
/// let c = b.input("b");
/// let sum = b.xor2(a, c);
/// let carry = b.and2(a, c);
/// b.output("sum", sum);
/// b.output("carry", carry);
/// let nl = b.finish().unwrap();
/// assert_eq!(nl.cell_count(), 2);
/// assert_eq!(nl.input_ports().len(), 2);
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Netlist {
    name: String,
    pub(crate) nets: Vec<NetInfo>,
    pub(crate) cells: Vec<Cell>,
    inputs: Vec<(String, NetId)>,
    outputs: Vec<(String, NetId)>,
    port_index: HashMap<String, NetId>,
    /// Topological order of combinational cells; `None` after edits until
    /// [`Netlist::revalidate`] runs.
    topo: Option<Vec<CellId>>,
}

impl Netlist {
    pub(crate) fn new_raw(name: String) -> Self {
        Netlist {
            name,
            nets: Vec::new(),
            cells: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            port_index: HashMap::new(),
            topo: None,
        }
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets (including port nets).
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of cell instances.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of sequential cells (all flip-flop flavours).
    #[must_use]
    pub fn ff_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.kind().is_sequential())
            .count()
    }

    /// Primary input ports as `(name, net)` pairs, in declaration order.
    #[must_use]
    pub fn input_ports(&self) -> &[(String, NetId)] {
        &self.inputs
    }

    /// Primary output ports as `(name, net)` pairs, in declaration order.
    #[must_use]
    pub fn output_ports(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Looks up a port (input or output) by name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] if no port has that name.
    pub fn port(&self, name: &str) -> Result<NetId, NetlistError> {
        self.port_index
            .get(name)
            .copied()
            .ok_or_else(|| NetlistError::UnknownPort { name: name.into() })
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this netlist.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Iterates over `(CellId, &Cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::from_index(i), c))
    }

    /// Iterates over the sequential cells only.
    pub fn ff_cells(&self) -> impl Iterator<Item = (CellId, &Cell)> + '_ {
        self.cells().filter(|(_, c)| c.kind().is_sequential())
    }

    /// The cell driving `net`, or `None` if `net` is a primary input.
    #[must_use]
    pub fn driver(&self, net: NetId) -> Option<CellId> {
        self.nets[net.index()].driver
    }

    /// The optional name of `net`.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> Option<&str> {
        self.nets[net.index()].name.as_deref()
    }

    /// Returns a histogram of cell kinds.
    #[must_use]
    pub fn kind_histogram(&self) -> HashMap<GateKind, usize> {
        let mut h = HashMap::new();
        for c in &self.cells {
            *h.entry(c.kind()).or_insert(0) += 1;
        }
        h
    }

    /// Finds a cell by instance name (linear scan; intended for tests and
    /// small lookups, not inner loops).
    #[must_use]
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        self.cells()
            .find(|(_, c)| c.name() == Some(name))
            .map(|(id, _)| id)
    }

    /// The topological order of combinational cells (sources first).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has been edited since the last successful
    /// [`Netlist::revalidate`] (or [`NetlistBuilder::finish`]); call
    /// `revalidate` after a batch of edits.
    ///
    /// [`NetlistBuilder::finish`]: crate::NetlistBuilder::finish
    #[must_use]
    pub fn topo_order(&self) -> &[CellId] {
        self.topo
            .as_deref()
            .expect("netlist edited without revalidate(); call Netlist::revalidate first")
    }

    /// Returns `true` when the cached topological order is valid.
    #[must_use]
    pub fn is_validated(&self) -> bool {
        self.topo.is_some()
    }

    // ------------------------------------------------------------------
    // Editing API (used by the DFT pass and monitor generators).
    // ------------------------------------------------------------------

    /// Adds a fresh, undriven net. The caller must drive it (or declare it
    /// an input) before the next [`Netlist::revalidate`].
    pub fn add_net(&mut self, name: Option<&str>) -> NetId {
        self.topo = None;
        let id = NetId::from_index(self.nets.len());
        self.nets.push(NetInfo {
            name: name.map(str::to_owned),
            driver: None,
            is_input: false,
        });
        id
    }

    /// Adds a primary input port and returns its net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicatePort`] if the name is taken.
    pub fn add_input_port(&mut self, name: &str) -> Result<NetId, NetlistError> {
        if self.port_index.contains_key(name) {
            return Err(NetlistError::DuplicatePort { name: name.into() });
        }
        self.topo = None;
        let net = self.add_net(Some(name));
        self.nets[net.index()].is_input = true;
        self.inputs.push((name.to_owned(), net));
        self.port_index.insert(name.to_owned(), net);
        Ok(net)
    }

    /// Declares an *existing* net as a primary input port — the Verilog
    /// importer's path, where nets are allocated in wire-declaration
    /// order before port directions are applied. Restores the net's name
    /// when it was allocated anonymously (port nets are always named).
    pub(crate) fn add_input_port_net(
        &mut self,
        name: &str,
        net: NetId,
    ) -> Result<(), NetlistError> {
        if self.port_index.contains_key(name) {
            return Err(NetlistError::DuplicatePort { name: name.into() });
        }
        if let Some(cell) = self.nets[net.index()].driver {
            return Err(NetlistError::MultipleDrivers {
                net,
                name: self.nets[net.index()].name.clone(),
                cell,
            });
        }
        self.topo = None;
        let info = &mut self.nets[net.index()];
        info.is_input = true;
        if info.name.is_none() {
            info.name = Some(name.to_owned());
        }
        self.inputs.push((name.to_owned(), net));
        self.port_index.insert(name.to_owned(), net);
        Ok(())
    }

    /// Declares an existing net as a primary output port.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicatePort`] if the name is taken.
    pub fn add_output_port(&mut self, name: &str, net: NetId) -> Result<(), NetlistError> {
        if self.port_index.contains_key(name) {
            return Err(NetlistError::DuplicatePort { name: name.into() });
        }
        self.outputs.push((name.to_owned(), net));
        self.port_index.insert(name.to_owned(), net);
        Ok(())
    }

    /// Instantiates a cell, creating its output net. Returns
    /// `(output_net, cell_id)`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] via `revalidate` later if
    /// connections conflict; arity mismatches panic immediately.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the arity of `kind`.
    pub fn add_cell(
        &mut self,
        kind: GateKind,
        inputs: Vec<NetId>,
        name: Option<&str>,
    ) -> (NetId, CellId) {
        assert_eq!(
            inputs.len(),
            kind.input_count(),
            "{kind:?} expects {} inputs",
            kind.input_count()
        );
        self.topo = None;
        let out = self.add_net(name);
        let id = CellId::from_index(self.cells.len());
        self.cells
            .push(Cell::new(kind, inputs, out, name.map(str::to_owned)));
        self.nets[out.index()].driver = Some(id);
        (out, id)
    }

    /// Instantiates a cell whose output is an *existing* (so far undriven)
    /// net — the way feedback nets declared ahead of their driver are
    /// closed. Returns the new cell's id.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the arity of `kind`, or if
    /// `out` already has a driver or is a primary input. Use
    /// [`Netlist::try_add_cell_driving`] to get an error instead of a
    /// panic on a driver conflict.
    pub fn add_cell_driving(
        &mut self,
        kind: GateKind,
        inputs: Vec<NetId>,
        out: NetId,
        name: Option<&str>,
    ) -> CellId {
        match self.try_add_cell_driving(kind, inputs, out, name) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Netlist::add_cell_driving`]: instead of
    /// panicking when `out` is already driven (or is a primary input), it
    /// reports the conflict as a [`NetlistError::MultipleDrivers`] naming
    /// the net, without modifying the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] when `out` already has a
    /// driver or is a primary input.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the arity of `kind` —
    /// that is a caller bug, not a wiring conflict.
    pub fn try_add_cell_driving(
        &mut self,
        kind: GateKind,
        inputs: Vec<NetId>,
        out: NetId,
        name: Option<&str>,
    ) -> Result<CellId, NetlistError> {
        assert_eq!(
            inputs.len(),
            kind.input_count(),
            "{kind:?} expects {} inputs",
            kind.input_count()
        );
        let info = &self.nets[out.index()];
        if info.driver.is_some() || info.is_input {
            return Err(NetlistError::MultipleDrivers {
                net: out,
                name: info.name.clone(),
                cell: info
                    .driver
                    .unwrap_or_else(|| CellId::from_index(self.cells.len())),
            });
        }
        self.topo = None;
        let id = CellId::from_index(self.cells.len());
        self.cells
            .push(Cell::new(kind, inputs, out, name.map(str::to_owned)));
        self.nets[out.index()].driver = Some(id);
        Ok(id)
    }

    /// Changes the kind and input connections of an existing cell while
    /// keeping its output net — the core operation of scan replacement
    /// (`Dff` -> `Sdff`, `Rdff` -> `Rsdff`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the arity of `kind`.
    pub fn morph_cell(&mut self, id: CellId, kind: GateKind, inputs: Vec<NetId>) {
        self.topo = None;
        self.cells[id.index()].morph(kind, inputs);
    }

    /// Reconnects one input pin of a cell.
    pub fn set_cell_input(&mut self, id: CellId, pin: usize, net: NetId) {
        self.topo = None;
        self.cells[id.index()].replace_input(pin, net);
    }

    /// Re-checks structural consistency and rebuilds the cached
    /// topological order.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found: undriven nets, multiple
    /// drivers, or a combinational loop.
    pub fn revalidate(&mut self) -> Result<(), NetlistError> {
        let index = NetIndex::new(self);
        // Driver consistency: the first cell, in cell order, whose
        // output is a port or was driven by an earlier cell.
        for (id, cell) in self.cells() {
            let out = cell.output();
            if self.nets[out.index()].is_input || index.drivers(out)[0] != id {
                return Err(NetlistError::MultipleDrivers {
                    net: out,
                    name: self.nets[out.index()].name.clone(),
                    cell: id,
                });
            }
        }
        for (i, info) in self.nets.iter().enumerate() {
            let net = NetId::from_index(i);
            if index.drivers(net).is_empty() && !info.is_input {
                return Err(NetlistError::UndrivenNet {
                    net,
                    name: info.name.clone(),
                });
            }
        }
        // Keep the cached driver field in sync with reality.
        for (i, info) in self.nets.iter_mut().enumerate() {
            info.driver = index.drivers(NetId::from_index(i)).first().copied();
        }
        let order = levelize(self, &index)
            .map_err(|stuck| NetlistError::CombinationalLoop { cell: stuck[0] })?;
        self.topo = Some(order);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn two_gate_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and2(a, c);
        let y = b.not(x);
        b.output("y", y);
        b.finish().unwrap()
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let nl = two_gate_netlist();
        let order = nl.topo_order();
        assert_eq!(order.len(), 2);
        // AND must come before NOT.
        let pos = |kind: GateKind| {
            order
                .iter()
                .position(|&c| nl.cell(c).kind() == kind)
                .unwrap()
        };
        assert!(pos(GateKind::And2) < pos(GateKind::Not));
    }

    #[test]
    fn undriven_net_is_rejected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let floating = b.net("float");
        let y = b.and2(a, floating);
        b.output("y", y);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::UndrivenNet { .. }), "{err}");
    }

    #[test]
    fn combinational_loop_is_rejected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let fb = b.net("fb");
        let x = b.and2(a, fb);
        let y = b.not(x);
        b.connect(fb, y);
        b.output("y", y);
        let err = b.finish().unwrap_err();
        assert!(
            matches!(err, NetlistError::CombinationalLoop { .. }),
            "{err}"
        );
    }

    #[test]
    fn sequential_loop_is_allowed() {
        // A FF feeding itself through an inverter (toggle register) is legal.
        let mut b = NetlistBuilder::new("t");
        let d = b.net("d");
        let (q, _) = b.dff("reg", d);
        let nq = b.not(q);
        b.connect(d, nq);
        b.output("q", q);
        let nl = b.finish().unwrap();
        assert_eq!(nl.ff_count(), 1);
    }

    #[test]
    fn duplicate_port_rejected() {
        let mut b = NetlistBuilder::new("t");
        let _a = b.input("a");
        let mut nl_err = None;
        // Builder panics route through Result in Netlist API; use the raw API.
        let mut nl = Netlist::new_raw("x".into());
        nl.add_input_port("p").unwrap();
        if let Err(e) = nl.add_input_port("p") {
            nl_err = Some(e);
        }
        assert!(matches!(nl_err, Some(NetlistError::DuplicatePort { .. })));
    }

    #[test]
    fn edit_then_revalidate_restores_topo() {
        let mut nl = two_gate_netlist();
        let extra_in = nl.add_input_port("c").unwrap();
        let y = nl.port("y").unwrap();
        let (new_out, _) = nl.add_cell(GateKind::Or2, vec![y, extra_in], None);
        nl.add_output_port("y2", new_out).unwrap();
        assert!(!nl.is_validated());
        nl.revalidate().unwrap();
        assert_eq!(nl.topo_order().len(), 3);
    }

    #[test]
    #[should_panic(expected = "revalidate")]
    fn topo_panics_after_edit() {
        let mut nl = two_gate_netlist();
        let _ = nl.add_net(None);
        let _ = nl.topo_order();
    }

    #[test]
    fn kind_histogram_counts() {
        let nl = two_gate_netlist();
        let h = nl.kind_histogram();
        assert_eq!(h[&GateKind::And2], 1);
        assert_eq!(h[&GateKind::Not], 1);
    }

    #[test]
    fn port_lookup() {
        let nl = two_gate_netlist();
        assert!(nl.port("a").is_ok());
        assert!(nl.port("nope").is_err());
    }
}
