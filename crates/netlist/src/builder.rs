//! Ergonomic construction of netlists.

use crate::{CellId, GateKind, NetId, Netlist, NetlistError};

/// Builder for [`Netlist`] values.
///
/// The builder wraps the netlist editing API with short, gate-shaped
/// methods ([`and2`](Self::and2), [`xor2`](Self::xor2), …) and tree
/// helpers, then validates and levelizes the result in
/// [`finish`](Self::finish).
///
/// Feedback (a net consumed before its driver exists) is expressed by
/// declaring the net with [`net`](Self::net) and closing the loop later
/// with [`connect`](Self::connect) or [`drive`](Self::drive).
///
/// # Examples
///
/// Build a 2-bit toggle counter:
///
/// ```
/// use scanguard_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("counter2");
/// let d0 = b.net("d0");
/// let (q0, _) = b.dff("b0", d0);
/// let nq0 = b.not(q0);
/// b.connect(d0, nq0);
///
/// let d1 = b.net("d1");
/// let (q1, _) = b.dff("b1", d1);
/// let t = b.xor2(q1, q0);
/// b.connect(d1, t);
///
/// b.output("q0", q0);
/// b.output("q1", q1);
/// let nl = b.finish().unwrap();
/// assert_eq!(nl.ff_count(), 2);
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    nl: Netlist,
}

impl NetlistBuilder {
    /// Starts a new, empty netlist with the given design name.
    #[must_use]
    pub fn new(name: &str) -> Self {
        NetlistBuilder {
            nl: Netlist::new_raw(name.to_owned()),
        }
    }

    /// Declares a primary input port.
    ///
    /// # Panics
    ///
    /// Panics if the port name is already taken (builder inputs are always
    /// programmatic; a duplicate is a construction bug).
    pub fn input(&mut self, name: &str) -> NetId {
        self.nl
            .add_input_port(name)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Declares a bus of input ports `name[0..width]`, LSB first.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.input(&format!("{name}[{i}]")))
            .collect()
    }

    /// Declares an internal net without a driver yet (for feedback).
    pub fn net(&mut self, name: &str) -> NetId {
        self.nl.add_net(Some(name))
    }

    /// Declares an anonymous internal net without a driver yet.
    pub fn anon_net(&mut self) -> NetId {
        self.nl.add_net(None)
    }

    /// Declares a primary output port for an existing net.
    ///
    /// # Panics
    ///
    /// Panics if the port name is already taken.
    pub fn output(&mut self, name: &str, net: NetId) {
        self.nl
            .add_output_port(name, net)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Declares a bus of output ports `name[0..width]`, LSB first.
    pub fn output_bus(&mut self, name: &str, nets: &[NetId]) {
        for (i, &n) in nets.iter().enumerate() {
            self.output(&format!("{name}[{i}]"), n);
        }
    }

    /// Instantiates an arbitrary cell; returns its output net.
    pub fn cell(&mut self, kind: GateKind, inputs: Vec<NetId>) -> NetId {
        self.nl.add_cell(kind, inputs, None).0
    }

    /// Instantiates a named cell; returns `(output_net, cell_id)`.
    pub fn named_cell(
        &mut self,
        name: &str,
        kind: GateKind,
        inputs: Vec<NetId>,
    ) -> (NetId, CellId) {
        self.nl.add_cell(kind, inputs, Some(name))
    }

    /// Drives the pre-declared net `target` with a new cell of `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is already driven; use
    /// [`try_drive`](Self::try_drive) for a recoverable error naming the
    /// net.
    pub fn drive(&mut self, target: NetId, kind: GateKind, inputs: Vec<NetId>) -> CellId {
        self.nl.add_cell_driving(kind, inputs, target, None)
    }

    /// Fallible variant of [`drive`](Self::drive): a second driver for
    /// `target` is reported as [`NetlistError::MultipleDrivers`] naming the
    /// contended net at build time, instead of panicking (or silently
    /// rewiring).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] when `target` already has
    /// a driver or is a primary input.
    pub fn try_drive(
        &mut self,
        target: NetId,
        kind: GateKind,
        inputs: Vec<NetId>,
    ) -> Result<CellId, NetlistError> {
        self.nl.try_add_cell_driving(kind, inputs, target, None)
    }

    /// Closes a feedback loop: drives `target` from `src` through a buffer.
    pub fn connect(&mut self, target: NetId, src: NetId) -> CellId {
        self.drive(target, GateKind::Buf, vec![src])
    }

    // --- combinational conveniences -----------------------------------

    /// Constant 0.
    pub fn tie_lo(&mut self) -> NetId {
        self.cell(GateKind::TieLo, vec![])
    }

    /// Constant 1.
    pub fn tie_hi(&mut self) -> NetId {
        self.cell(GateKind::TieHi, vec![])
    }

    /// Buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.cell(GateKind::Buf, vec![a])
    }

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.cell(GateKind::Not, vec![a])
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.cell(GateKind::And2, vec![a, b])
    }

    /// 3-input AND.
    pub fn and3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.cell(GateKind::And3, vec![a, b, c])
    }

    /// 2-input NAND.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        self.cell(GateKind::Nand2, vec![a, b])
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.cell(GateKind::Or2, vec![a, b])
    }

    /// 3-input OR.
    pub fn or3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.cell(GateKind::Or3, vec![a, b, c])
    }

    /// 2-input NOR.
    pub fn nor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.cell(GateKind::Nor2, vec![a, b])
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.cell(GateKind::Xor2, vec![a, b])
    }

    /// 3-input XOR.
    pub fn xor3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.cell(GateKind::Xor3, vec![a, b, c])
    }

    /// 2-input XNOR.
    pub fn xnor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.cell(GateKind::Xnor2, vec![a, b])
    }

    /// 2:1 mux: output is `a` when `sel=0`, `b` when `sel=1`.
    pub fn mux2(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        self.cell(GateKind::Mux2, vec![sel, a, b])
    }

    // --- sequential conveniences ---------------------------------------

    /// Plain D flip-flop; returns `(q, cell_id)`.
    pub fn dff(&mut self, name: &str, d: NetId) -> (NetId, CellId) {
        self.named_cell(name, GateKind::Dff, vec![d])
    }

    /// Scan D flip-flop; returns `(q, cell_id)`.
    pub fn sdff(&mut self, name: &str, d: NetId, si: NetId, se: NetId) -> (NetId, CellId) {
        self.named_cell(name, GateKind::Sdff, vec![d, si, se])
    }

    /// Retention D flip-flop; returns `(q, cell_id)`.
    pub fn rdff(&mut self, name: &str, d: NetId) -> (NetId, CellId) {
        self.named_cell(name, GateKind::Rdff, vec![d])
    }

    /// Retention scan D flip-flop; returns `(q, cell_id)`.
    pub fn rsdff(&mut self, name: &str, d: NetId, si: NetId, se: NetId) -> (NetId, CellId) {
        self.named_cell(name, GateKind::Rsdff, vec![d, si, se])
    }

    // --- tree helpers ---------------------------------------------------

    /// Balanced XOR reduction of `nets` (parity). Uses 3-input XORs where
    /// possible. An empty slice yields constant 0; a single net is passed
    /// through unchanged.
    pub fn xor_tree(&mut self, nets: &[NetId]) -> NetId {
        self.reduce_tree(nets, GateKind::Xor2, GateKind::Xor3, false)
    }

    /// Balanced AND reduction; empty slice yields constant 1.
    pub fn and_tree(&mut self, nets: &[NetId]) -> NetId {
        self.reduce_tree(nets, GateKind::And2, GateKind::And3, true)
    }

    /// Balanced OR reduction; empty slice yields constant 0.
    pub fn or_tree(&mut self, nets: &[NetId]) -> NetId {
        self.reduce_tree(nets, GateKind::Or2, GateKind::Or3, false)
    }

    fn reduce_tree(
        &mut self,
        nets: &[NetId],
        two: GateKind,
        three: GateKind,
        empty_is_one: bool,
    ) -> NetId {
        match nets.len() {
            0 => {
                if empty_is_one {
                    self.tie_hi()
                } else {
                    self.tie_lo()
                }
            }
            1 => nets[0],
            _ => {
                let mut level: Vec<NetId> = nets.to_vec();
                while level.len() > 1 {
                    let mut next = Vec::with_capacity(level.len() / 2 + 1);
                    let mut chunks = level.chunks_exact(3);
                    for c in &mut chunks {
                        next.push(self.cell(three, vec![c[0], c[1], c[2]]));
                    }
                    match chunks.remainder() {
                        [a] => next.push(*a),
                        [a, b] => next.push(self.cell(two, vec![*a, *b])),
                        _ => {}
                    }
                    level = next;
                }
                level[0]
            }
        }
    }

    /// Number of cells created so far.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.nl.cell_count()
    }

    /// Validates the netlist and computes its topological order.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] for undriven nets, multiple drivers, or
    /// combinational loops.
    pub fn finish(mut self) -> Result<Netlist, NetlistError> {
        self.nl.revalidate()?;
        Ok(self.nl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_tree_structures() {
        let mut b = NetlistBuilder::new("t");
        let ins = b.input_bus("i", 9);
        let y = b.xor_tree(&ins);
        b.output("y", y);
        let nl = b.finish().unwrap();
        // 9 inputs -> 3 XOR3 + 1 XOR3 = 4 cells.
        assert_eq!(nl.cell_count(), 4);
    }

    #[test]
    fn xor_tree_small_cases() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        assert_eq!(b.xor_tree(&[a]), a);
        let z = b.xor_tree(&[]);
        b.output("z", z);
        b.output("a_out", a);
        let nl = b.finish().unwrap();
        assert_eq!(nl.cell_count(), 1); // just the TIE0
    }

    #[test]
    fn and_tree_empty_is_one() {
        let mut b = NetlistBuilder::new("t");
        let y = b.and_tree(&[]);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let (_, c) = nl.cells().next().unwrap();
        assert_eq!(c.kind(), GateKind::TieHi);
    }

    #[test]
    fn two_input_tree_uses_single_gate() {
        let mut b = NetlistBuilder::new("t");
        let ins = b.input_bus("i", 2);
        let y = b.or_tree(&ins);
        b.output("y", y);
        let nl = b.finish().unwrap();
        assert_eq!(nl.cell_count(), 1);
        let (_, c) = nl.cells().next().unwrap();
        assert_eq!(c.kind(), GateKind::Or2);
    }

    #[test]
    fn bus_helpers_name_ports_lsb_first() {
        let mut b = NetlistBuilder::new("t");
        let ins = b.input_bus("d", 3);
        b.output_bus("q", &ins);
        let nl = b.finish().unwrap();
        assert_eq!(nl.input_ports()[0].0, "d[0]");
        assert_eq!(nl.output_ports()[2].0, "q[2]");
        assert_eq!(nl.port("d[1]").unwrap(), ins[1]);
    }

    #[test]
    #[should_panic(expected = "duplicate port")]
    fn duplicate_input_panics() {
        let mut b = NetlistBuilder::new("t");
        let _ = b.input("a");
        let _ = b.input("a");
    }

    #[test]
    fn try_drive_names_the_contended_net() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let fb = b.net("fb");
        b.connect(fb, a);
        let err = b.try_drive(fb, GateKind::Not, vec![a]).unwrap_err();
        match err {
            NetlistError::MultipleDrivers { net, name, .. } => {
                assert_eq!(net, fb);
                assert_eq!(name.as_deref(), Some("fb"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The netlist is untouched by the rejected edit: only the buffer.
        assert_eq!(b.cell_count(), 1);
    }

    #[test]
    fn try_drive_rejects_primary_inputs() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let z = b.tie_lo();
        assert!(matches!(
            b.try_drive(a, GateKind::Buf, vec![z]),
            Err(NetlistError::MultipleDrivers { name: Some(n), .. }) if n == "a"
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate port")]
    fn duplicate_output_port_panics() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        b.output("y", a);
    }

    #[test]
    #[should_panic(expected = "duplicate port")]
    fn output_port_may_not_shadow_an_input_port() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.not(a);
        b.output("a", y);
    }

    #[test]
    fn combinational_self_loop_is_rejected() {
        // A net driven by a gate reading that same net: structurally
        // well-formed (exactly one driver) but unorderable, so it must
        // surface at `finish` as a loop, not validate or panic.
        let mut b = NetlistBuilder::new("t");
        let x = b.net("x");
        let cell = b.drive(x, GateKind::Not, vec![x]);
        b.output("y", x);
        match b.finish() {
            Err(NetlistError::CombinationalLoop { cell: c }) => assert_eq!(c, cell),
            other => panic!("self-driving net accepted: {other:?}"),
        }
    }

    #[test]
    fn sequential_self_loop_is_legal() {
        // The same shape through a flop is ordinary feedback (a toggle
        // bit), and the flop breaks the combinational cycle.
        let mut b = NetlistBuilder::new("t");
        let q = b.net("q");
        let nq = b.not(q);
        b.drive(q, GateKind::Dff, vec![nq]);
        b.output("q", q);
        let nl = b.finish().unwrap();
        assert_eq!(nl.ff_count(), 1);
    }

    #[test]
    fn finish_names_the_undriven_net() {
        let mut b = NetlistBuilder::new("t");
        let dangling = b.net("dangling");
        b.output("y", dangling);
        match b.finish() {
            Err(NetlistError::UndrivenNet { net, name }) => {
                assert_eq!(net, dangling);
                assert_eq!(name.as_deref(), Some("dangling"));
            }
            other => panic!("undriven net accepted: {other:?}"),
        }
    }

    #[test]
    fn drive_closes_feedback() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let fb = b.net("fb");
        let (q, _) = b.dff("r", fb);
        let d = b.xor2(a, q);
        b.drive(fb, GateKind::Buf, vec![d]);
        b.output("q", q);
        assert!(b.finish().is_ok());
    }
}
