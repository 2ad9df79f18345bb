//! Elaboration: parsed module → validated [`Netlist`].
//!
//! Net ids are allocated in `wire`-declaration order first (this is
//! what makes the canonical exporter invertible: it declares every net
//! in net-id order), then input ports not already declared as wires,
//! then any remaining identifier at first use in item order. Cells are
//! built in item order. The result is passed through
//! [`Netlist::revalidate`] before it is returned, so an `Ok` import is
//! always a structurally sound netlist.
//!
//! The identifiers `clk` and `retain` are *reserved*: the exporters
//! treat clocking and retention control as implicit (no clock nets
//! exist in the model), so the importer drops `input clk;` /
//! `input retain;` declarations and rejects any data use of the two
//! names with a located error.

use super::alias::{our_cell, pins, resolve_alias, AliasDef, Resolved, GLOBAL_IGNORE};
use super::error::ParseError;
use super::parse::{parse, Conns, Expr, Ident, Item, SourceModule};
use crate::{GateKind, NetId, Netlist, NetlistError};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Names the exporters use for implicit infrastructure ports.
const RESERVED: &[&str] = &["clk", "retain"];

/// Parses and elaborates a flat structural-Verilog module.
///
/// Accepts instances of our own cell library (`INV`, `SDFF`, ...),
/// Verilog gate primitives (`and`, `nand`, ...), `assign`-style
/// netlists, and foreign cells via the built-in alias table (sky130
/// `sdfsbp`-style scan cells, `cv32e40p_clock_gate` wrappers — see
/// the `alias` module). The returned netlist is validated.
///
/// This is the exact inverse of [`crate::to_verilog`]: for any
/// validated netlist `n`, `from_verilog(&to_verilog(&n))` reconstructs
/// the same nets, cells, names and ports in the same order.
///
/// # Errors
///
/// Returns a [`ParseError`] carrying line, column and a source snippet
/// for lexical, syntactic and elaboration failures (unknown cells or
/// pins, driver conflicts, undriven nets, combinational loops,
/// behavioural constructs). The function never panics on malformed
/// input.
///
/// # Examples
///
/// ```
/// use scanguard_netlist::from_verilog;
///
/// let nl = from_verilog(
///     "module inv_chain (a, y);\n\
///      input a;\n\
///      output y;\n\
///      wire n1;\n\
///      INV g0 (.Y(n1), .A(a));\n\
///      INV g1 (.Y(y), .A(n1));\n\
///      endmodule\n",
/// )
/// .unwrap();
/// assert_eq!(nl.cell_count(), 2);
/// assert_eq!(nl.input_ports().len(), 1);
/// ```
pub fn from_verilog(src: &str) -> Result<Netlist, ParseError> {
    let module = parse(src)?;
    Elaborator::new(src, &module).run()
}

/// One input-pin reference of a resolved cell.
#[derive(Clone, Copy)]
enum InPin<'a> {
    Net(Ident<'a>),
    /// Explicitly or implicitly unconnected: tied to a shared constant 0.
    Unconnected,
    /// The output net of the previous cell in the same instance group
    /// (used for synthesized `Q_N` inverters).
    Prev,
}

/// The most input pins any [`GateKind`] has.
const MAX_INS: usize = 3;

/// A cell after master/pin resolution, before net allocation.
struct RCell<'a> {
    kind: GateKind,
    /// The first `kind.input_count()` entries are the input pins.
    ins: [InPin<'a>; MAX_INS],
    out: Option<Ident<'a>>,
    name: Option<Ident<'a>>,
    pos: u32,
}

impl<'a> RCell<'a> {
    fn new(kind: GateKind, out: Option<Ident<'a>>, name: Option<Ident<'a>>, pos: u32) -> Self {
        RCell {
            kind,
            ins: [InPin::Unconnected; MAX_INS],
            out,
            name,
            pos,
        }
    }

    fn ins(&self) -> &[InPin<'a>] {
        &self.ins[..self.kind.input_count()]
    }

    /// The nets on the input pins.
    fn net_refs(&self) -> impl Iterator<Item = &Ident<'a>> {
        self.ins().iter().filter_map(|pin| match pin {
            InPin::Net(id) => Some(id),
            _ => None,
        })
    }
}

/// A source item resolved to a range of [`Resolution::cells`].
enum RItem {
    Cells(Range<usize>),
    Assign {
        cell: usize,
        /// `true` when the right-hand side is a bare identifier — the
        /// shape that can be an output-port alias.
        bare: bool,
    },
}

/// Every source item resolved, in item order; the cells of all items
/// share one buffer.
struct Resolution<'a> {
    items: Vec<RItem>,
    cells: Vec<RCell<'a>>,
}

struct Elaborator<'a> {
    src: &'a str,
    module: &'a SourceModule<'a>,
    nl: Netlist,
    net_ids: HashMap<&'a str, NetId>,
    tie0: Option<NetId>,
}

impl<'a> Elaborator<'a> {
    fn new(src: &'a str, module: &'a SourceModule<'a>) -> Self {
        Elaborator {
            src,
            module,
            nl: Netlist::new_raw(module.name.text.to_owned()),
            net_ids: HashMap::with_capacity(module.wires.len() + module.inputs.len()),
            tie0: None,
        }
    }

    fn err(&self, pos: u32, message: String) -> ParseError {
        ParseError::at_offset(self.src, pos as usize, message)
    }

    fn err_at(&self, id: &Ident<'a>, message: String) -> ParseError {
        self.err(id.pos, message)
    }

    fn run(mut self) -> Result<Netlist, ParseError> {
        self.check_header()?;
        self.declare_wires()?;
        self.declare_inputs()?;
        let res = self.resolve_items()?;
        let aliases = self.alias_set(&res);
        let mut alias_nets: HashMap<&'a str, NetId> = HashMap::new();
        for item in &res.items {
            match *item {
                RItem::Cells(ref range) => self.build_cells(&res.cells[range.clone()])?,
                RItem::Assign { cell, bare } => {
                    let cell = &res.cells[cell];
                    let lhs = cell.out.expect("an assign drives its left-hand side");
                    if bare && aliases.contains(lhs.text) {
                        let rhs = match cell.ins[0] {
                            InPin::Net(id) => id,
                            _ => unreachable!("bare assign always has a net operand"),
                        };
                        let net = self.get_or_alloc(&rhs)?;
                        alias_nets.insert(lhs.text, net);
                    } else {
                        self.build_cells(std::slice::from_ref(cell))?;
                    }
                }
            }
        }
        self.declare_outputs(&alias_nets)?;
        if let Err(e) = self.nl.revalidate() {
            return Err(self.err(self.module.pos, e.to_string()));
        }
        Ok(self.nl)
    }

    /// Header ports must be unique, declared, and cover every declared
    /// port.
    fn check_header(&self) -> Result<(), ParseError> {
        let mut header: HashSet<&str> = HashSet::new();
        for p in &self.module.header_ports {
            if !header.insert(p.text) {
                return Err(self.err_at(p, format!("duplicate port `{}`", p.text)));
            }
        }
        let mut declared: HashSet<&str> = HashSet::new();
        for d in self.module.inputs.iter().chain(&self.module.outputs) {
            declared.insert(d.text);
            if !header.contains(d.text) {
                return Err(self.err_at(
                    d,
                    format!("port `{}` is missing from the module port list", d.text),
                ));
            }
        }
        for p in &self.module.header_ports {
            if !declared.contains(p.text) {
                return Err(
                    self.err_at(p, format!("port `{}` has no direction declaration", p.text))
                );
            }
        }
        Ok(())
    }

    fn check_reserved(&self, id: &Ident<'a>) -> Result<(), ParseError> {
        if RESERVED.contains(&id.text) {
            return Err(self.err_at(
                id,
                format!(
                    "identifier `{}` is reserved for the implicit {} \
                     and cannot name a net",
                    id.text,
                    if id.text == "clk" {
                        "clock"
                    } else {
                        "retention control"
                    }
                ),
            ));
        }
        Ok(())
    }

    /// `wire` declarations allocate net ids in declaration order.
    fn declare_wires(&mut self) -> Result<(), ParseError> {
        for w in &self.module.wires {
            self.check_reserved(w)?;
            let index = self.nl.net_count();
            match self.net_ids.entry(w.text) {
                Entry::Occupied(_) => {
                    return Err(self.err_at(w, format!("net `{}` declared twice", w.text)));
                }
                Entry::Vacant(slot) => {
                    slot.insert(self.nl.add_net(stored_name(w, "n", index)));
                }
            }
        }
        Ok(())
    }

    fn declare_inputs(&mut self) -> Result<(), ParseError> {
        let mut seen: HashSet<&str> = HashSet::new();
        for inp in &self.module.inputs {
            if !seen.insert(inp.text) {
                return Err(self.err_at(inp, format!("duplicate port `{}`", inp.text)));
            }
            if RESERVED.contains(&inp.text) {
                continue; // implicit clock / retention control
            }
            let net = match self.net_ids.get(inp.text) {
                Some(&n) => n,
                None => {
                    let n = self.nl.add_net(Some(inp.text));
                    self.net_ids.insert(inp.text, n);
                    n
                }
            };
            if let Err(e) = self.nl.add_input_port_net(inp.text, net) {
                return Err(self.err_at(inp, e.to_string()));
            }
        }
        Ok(())
    }

    fn declare_outputs(&mut self, alias_nets: &HashMap<&'a str, NetId>) -> Result<(), ParseError> {
        for out in &self.module.outputs {
            self.check_reserved(out)?;
            let net = match self.net_ids.get(out.text) {
                Some(&n) => n,
                None => match alias_nets.get(out.text) {
                    Some(&n) => n,
                    None => {
                        return Err(
                            self.err_at(out, format!("output port `{}` is never driven", out.text))
                        );
                    }
                },
            };
            if let Err(e) = self.nl.add_output_port(out.text, net) {
                return Err(self.err_at(out, e.to_string()));
            }
        }
        Ok(())
    }

    fn get_or_alloc(&mut self, id: &Ident<'a>) -> Result<NetId, ParseError> {
        self.check_reserved(id)?;
        let index = self.nl.net_count();
        Ok(match self.net_ids.entry(id.text) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => *slot.insert(self.nl.add_net(stored_name(id, "n", index))),
        })
    }

    fn tie0_net(&mut self) -> NetId {
        match self.tie0 {
            Some(n) => n,
            None => {
                let (n, _) = self.nl.add_cell(GateKind::TieLo, Vec::new(), None);
                self.tie0 = Some(n);
                n
            }
        }
    }

    fn build_cells(&mut self, cells: &[RCell<'a>]) -> Result<(), ParseError> {
        let mut prev_out: Option<NetId> = None;
        for cell in cells {
            let mut ins = Vec::with_capacity(cell.kind.input_count());
            for pin in cell.ins() {
                ins.push(match pin {
                    InPin::Net(id) => self.get_or_alloc(id)?,
                    InPin::Unconnected => self.tie0_net(),
                    InPin::Prev => prev_out.expect("Prev pin always follows a cell in the group"),
                });
            }
            let out = match &cell.out {
                Some(id) => self.get_or_alloc(id)?,
                None => self.nl.add_net(None),
            };
            let index = self.nl.cell_count();
            let name = cell
                .name
                .as_ref()
                .and_then(|id| stored_name(id, "g", index));
            match self.nl.try_add_cell_driving(cell.kind, ins, out, name) {
                Ok(_) => {}
                Err(NetlistError::MultipleDrivers { net, name, .. }) => {
                    let is_input = self.nl.driver(net).is_none();
                    let label = name.unwrap_or_else(|| format!("{net}"));
                    return Err(self.err(
                        cell.pos,
                        if is_input {
                            format!("cell output drives the input port `{label}`")
                        } else {
                            format!("net `{label}` has more than one driver")
                        },
                    ));
                }
                Err(e) => return Err(self.err(cell.pos, e.to_string())),
            }
            prev_out = Some(out);
        }
        Ok(())
    }

    /// Resolves every source item to cells (masters looked up, pins
    /// mapped) without allocating nets.
    fn resolve_items(&self) -> Result<Resolution<'a>, ParseError> {
        let mut res = Resolution {
            items: Vec::with_capacity(self.module.items.len()),
            cells: Vec::with_capacity(self.module.items.len()),
        };
        for item in &self.module.items {
            match item {
                Item::Assign { lhs, rhs, pos } => {
                    let net = |id: &Ident<'a>| InPin::Net(*id);
                    let none = InPin::Unconnected;
                    let (kind, ins, bare) = match rhs {
                        Expr::Const(false) => (GateKind::TieLo, [none; MAX_INS], false),
                        Expr::Const(true) => (GateKind::TieHi, [none; MAX_INS], false),
                        Expr::Net(a) => (GateKind::Buf, [net(a), none, none], true),
                        Expr::Inv(a) => (GateKind::Not, [net(a), none, none], false),
                        Expr::Bin { op, terms } => {
                            let kind = match (op, terms.len()) {
                                ('&', 2) => GateKind::And2,
                                ('&', 3) => GateKind::And3,
                                ('|', 2) => GateKind::Or2,
                                ('|', 3) => GateKind::Or3,
                                ('^', 2) => GateKind::Xor2,
                                ('^', 3) => GateKind::Xor3,
                                _ => unreachable!("parser limits terms to 2..=3"),
                            };
                            let mut ins = [none; MAX_INS];
                            for (slot, t) in ins.iter_mut().zip(terms) {
                                *slot = net(t);
                            }
                            (kind, ins, false)
                        }
                        Expr::NegBin { op, a, b } => {
                            let kind = match op {
                                '&' => GateKind::Nand2,
                                '|' => GateKind::Nor2,
                                _ => GateKind::Xnor2,
                            };
                            (kind, [net(a), net(b), none], false)
                        }
                        Expr::Mux { sel, t, f } => {
                            (GateKind::Mux2, [net(sel), net(f), net(t)], false)
                        }
                    };
                    res.items.push(RItem::Assign {
                        cell: res.cells.len(),
                        bare,
                    });
                    res.cells.push(RCell {
                        ins,
                        ..RCell::new(kind, Some(*lhs), None, *pos)
                    });
                }
                Item::Instance {
                    master,
                    inst,
                    conns,
                } => {
                    let start = res.cells.len();
                    match conns {
                        Conns::Positional(range) => {
                            let nets = &self.module.positional[range.clone()];
                            res.cells.push(self.resolve_primitive(master, *inst, nets)?);
                        }
                        Conns::Named(range) => {
                            let pairs = &self.module.named[range.clone()];
                            self.resolve_named(master, *inst, pairs, &mut res.cells)?;
                        }
                    }
                    res.items.push(RItem::Cells(start..res.cells.len()));
                }
            }
        }
        Ok(res)
    }

    fn resolve_primitive(
        &self,
        master: &Ident<'a>,
        inst: Option<Ident<'a>>,
        nets: &[Ident<'a>],
    ) -> Result<RCell<'a>, ParseError> {
        let n_ins = nets.len().saturating_sub(1);
        let kind = match (master.text, n_ins) {
            ("buf", 1) => GateKind::Buf,
            ("not", 1) => GateKind::Not,
            ("and", 2) => GateKind::And2,
            ("and", 3) => GateKind::And3,
            ("nand", 2) => GateKind::Nand2,
            ("or", 2) => GateKind::Or2,
            ("or", 3) => GateKind::Or3,
            ("nor", 2) => GateKind::Nor2,
            ("xor", 2) => GateKind::Xor2,
            ("xor", 3) => GateKind::Xor3,
            ("xnor", 2) => GateKind::Xnor2,
            (name, n) => {
                return Err(self.err_at(
                    master,
                    format!("`{name}` with {n} inputs is not in the cell library"),
                ));
            }
        };
        let mut cell = RCell::new(kind, Some(nets[0]), inst, master.pos);
        for (slot, n) in cell.ins.iter_mut().zip(&nets[1..]) {
            *slot = InPin::Net(*n);
        }
        Ok(cell)
    }

    /// Resolves a named-connection instance, appending its cells to
    /// `cells`.
    fn resolve_named(
        &self,
        master: &Ident<'a>,
        inst: Option<Ident<'a>>,
        pairs: &[(Ident<'a>, Option<Ident<'a>>)],
        cells: &mut Vec<RCell<'a>>,
    ) -> Result<(), ParseError> {
        if let Some(kind) = our_cell(master.text) {
            let (ins, out) = pins(kind);
            let def = AliasDef {
                kind,
                ins,
                out,
                out_n: None,
                ignore: &[],
            };
            return self.resolve_def(master, inst, &def, pairs, cells);
        }
        match resolve_alias(master.text) {
            Some(Resolved::Gate(def)) => self.resolve_def(master, inst, def, pairs, cells),
            Some(Resolved::ClockGate) => {
                let def = AliasDef {
                    kind: GateKind::Or2,
                    ins: &["en_i", "scan_cg_en_i"],
                    out: "clk_o",
                    out_n: None,
                    ignore: &["clk_i"],
                };
                self.resolve_def(master, inst, &def, pairs, cells)
            }
            Some(Resolved::Conb) => {
                let mut first = true;
                for (pin, net) in pairs {
                    let kind = match pin.text {
                        "HI" => GateKind::TieHi,
                        "LO" => GateKind::TieLo,
                        p if GLOBAL_IGNORE.contains(&p) => continue,
                        p => {
                            return Err(self.err_at(
                                pin,
                                format!("cell `{}` has no pin `{p}` (pins: HI, LO)", master.text),
                            ));
                        }
                    };
                    if let Some(net) = net {
                        let name = if first { inst } else { None };
                        cells.push(RCell::new(kind, Some(*net), name, master.pos));
                        first = false;
                    }
                }
                Ok(())
            }
            Some(Resolved::Skip) => Ok(()),
            None => Err(self.err_at(
                master,
                format!(
                    "unknown cell `{}` (not in the cell library or alias table)",
                    master.text
                ),
            )),
        }
    }

    fn resolve_def(
        &self,
        master: &Ident<'a>,
        inst: Option<Ident<'a>>,
        def: &AliasDef,
        pairs: &[(Ident<'a>, Option<Ident<'a>>)],
        cells: &mut Vec<RCell<'a>>,
    ) -> Result<(), ParseError> {
        let mut cell = RCell::new(def.kind, None, inst, master.pos);
        let mut out_n: Option<Ident<'a>> = None;
        for (i, (pin, net)) in pairs.iter().enumerate() {
            // An instance has a handful of pins: a scan beats a set.
            if pairs[..i].iter().any(|(seen, _)| seen.text == pin.text) {
                return Err(self.err_at(pin, format!("pin `{}` connected twice", pin.text)));
            }
            if let Some(i) = def.ins.iter().position(|p| *p == pin.text) {
                if let Some(net) = net {
                    cell.ins[i] = InPin::Net(*net);
                }
            } else if pin.text == def.out {
                cell.out = *net;
            } else if def.out_n == Some(pin.text) {
                out_n = *net;
            } else if def.ignore.contains(&pin.text) || GLOBAL_IGNORE.contains(&pin.text) {
                // clock / set / power pin: implicit in the model
            } else {
                let mut expected: Vec<&str> = def.ins.to_vec();
                expected.push(def.out);
                return Err(self.err_at(
                    pin,
                    format!(
                        "cell `{}` has no pin `{}` (pins: {})",
                        master.text,
                        pin.text,
                        expected.join(", ")
                    ),
                ));
            }
        }
        cells.push(cell);
        if let Some(qn) = out_n {
            let mut inv = RCell::new(GateKind::Not, Some(qn), None, master.pos);
            inv.ins[0] = InPin::Prev;
            cells.push(inv);
        }
        Ok(())
    }

    /// Output-port names that resolve to pure aliases: assigned exactly
    /// once from a bare net, never declared as a wire or input, and
    /// never referenced by any cell.
    ///
    /// Only the candidates — bare assigns to undeclared output ports —
    /// are hashed into a map; one pass then drops every candidate a
    /// cell references and counts the assigns to the rest. Without a
    /// candidate there is no pass.
    fn alias_set(&self, res: &Resolution<'a>) -> HashSet<&'a str> {
        let module = self.module;
        let outputs: HashSet<&str> = module.outputs.iter().map(|o| o.text).collect();
        let inputs: HashSet<&str> = module.inputs.iter().map(|i| i.text).collect();
        // Candidate name -> number of assigns driving it (any shape).
        let mut candidates: HashMap<&'a str, usize> = HashMap::new();
        for item in &res.items {
            if let RItem::Assign { cell, bare: true } = *item {
                let lhs = res.cells[cell]
                    .out
                    .expect("an assign drives its left-hand side");
                // `net_ids` holds every wire and every non-reserved input.
                if outputs.contains(lhs.text)
                    && !inputs.contains(lhs.text)
                    && !self.net_ids.contains_key(lhs.text)
                {
                    candidates.insert(lhs.text, 0);
                }
            }
        }
        if candidates.is_empty() {
            return HashSet::new();
        }
        for item in &res.items {
            let (cells, assign) = match *item {
                RItem::Cells(ref range) => (&res.cells[range.clone()], false),
                RItem::Assign { cell, .. } => (std::slice::from_ref(&res.cells[cell]), true),
            };
            for cell in cells {
                // An assign's left-hand side is not a reference.
                let out = cell.out.as_ref().filter(|_| !assign);
                for id in cell.net_refs().chain(out) {
                    candidates.remove(id.text);
                }
                if let (true, Some(lhs)) = (assign, &cell.out) {
                    if let Some(count) = candidates.get_mut(lhs.text) {
                        *count += 1;
                    }
                }
            }
        }
        candidates
            .into_iter()
            .filter(|&(_, count)| count == 1)
            .map(|(name, _)| name)
            .collect()
    }
}

/// `Some(name)` to store on the net/cell, or `None` when the bare
/// identifier is the anonymous pattern (`n{index}` / `g{index}`) for
/// its own index. Escaped identifiers always keep their name — that is
/// how the exporter marks a real name that collides with the pattern.
fn stored_name<'a>(id: &Ident<'a>, prefix: &str, index: usize) -> Option<&'a str> {
    if !id.escaped && is_pattern(id.text, prefix, index) {
        return None;
    }
    Some(id.text)
}

/// `text == format!("{prefix}{index}")`, without formatting: the digits
/// after `prefix` are compared in place. Leading zeros never print
/// (`n05` is a real name).
fn is_pattern(text: &str, prefix: &str, index: usize) -> bool {
    text.strip_prefix(prefix).is_some_and(|digits| {
        digits.bytes().all(|b| b.is_ascii_digit())
            && !(digits.len() > 1 && digits.starts_with('0'))
            && digits.parse() == Ok(index)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored<'a>(text: &'a str, escaped: bool, prefix: &str, index: usize) -> Option<&'a str> {
        stored_name(
            &Ident {
                text,
                escaped,
                pos: 0,
            },
            prefix,
            index,
        )
    }

    #[test]
    fn own_pattern_is_anonymous() {
        assert_eq!(stored("n5", false, "n", 5), None);
        assert_eq!(stored("n0", false, "n", 0), None);
        assert_eq!(stored("g12", false, "g", 12), None);
        let max = format!("n{}", usize::MAX);
        assert_eq!(stored(&max, false, "n", usize::MAX), None);
    }

    #[test]
    fn anything_else_keeps_its_name() {
        assert_eq!(stored("n05", false, "n", 5), Some("n05"));
        assert_eq!(stored("n5", false, "n", 6), Some("n5"));
        assert_eq!(stored("n5", true, "n", 5), Some("n5"), "escaped `\\n5 `");
        assert_eq!(
            stored("g5", false, "n", 5),
            Some("g5"),
            "a cell pattern on a net"
        );
        let long = format!("n{}", "9".repeat(25));
        assert_eq!(stored(&long, false, "n", 5), Some(long.as_str()));
        let wrapped = format!("n{}", u128::from(u64::MAX) + 1 + 5);
        assert_eq!(stored(&wrapped, false, "n", 5), Some(wrapped.as_str()));
        assert_eq!(stored("n", false, "n", 0), Some("n"));
        assert_eq!(stored("n5x", false, "n", 5), Some("n5x"));
        assert_eq!(stored("n+5", false, "n", 5), Some("n+5"));
    }
}
