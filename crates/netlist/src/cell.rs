//! Cell instances: one gate or register plus its net connections.

use crate::{GateKind, NetId};

/// One instantiated gate or register inside a [`Netlist`](crate::Netlist).
///
/// A cell has exactly one output net; pin order of `inputs` follows the
/// convention documented on [`GateKind`].
///
/// # Examples
///
/// ```
/// use scanguard_netlist::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("t");
/// let a = b.input("a");
/// let b_in = b.input("b");
/// let y = b.xor2(a, b_in);
/// let nl = b.finish().unwrap();
/// let cell = nl.driver(y).unwrap();
/// assert_eq!(nl.cell(cell).kind(), GateKind::Xor2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct Cell {
    kind: GateKind,
    inputs: Vec<NetId>,
    output: NetId,
    name: Option<String>,
}

impl Cell {
    pub(crate) fn new(
        kind: GateKind,
        inputs: Vec<NetId>,
        output: NetId,
        name: Option<String>,
    ) -> Self {
        debug_assert_eq!(inputs.len(), kind.input_count());
        Cell {
            kind,
            inputs,
            output,
            name,
        }
    }

    /// The primitive this cell instantiates.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Input nets, in the pin order defined by [`GateKind`].
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The single output net.
    #[must_use]
    pub fn output(&self) -> NetId {
        self.output
    }

    /// Optional instance name (registers created by the design generators
    /// and the DFT pass are always named; glue gates usually are not).
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    pub(crate) fn replace_input(&mut self, pin: usize, net: NetId) {
        self.inputs[pin] = net;
    }

    pub(crate) fn morph(&mut self, kind: GateKind, inputs: Vec<NetId>) {
        assert_eq!(inputs.len(), kind.input_count());
        self.kind = kind;
        self.inputs = inputs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn cell_accessors() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let (q, ff) = b.dff("reg", a);
        let nl = b.finish().unwrap();
        let cell = nl.cell(ff);
        assert_eq!(cell.kind(), GateKind::Dff);
        assert_eq!(cell.inputs(), &[a]);
        assert_eq!(cell.output(), q);
        assert_eq!(cell.name(), Some("reg"));
    }
}
