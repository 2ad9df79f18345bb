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
use std::collections::{HashMap, HashSet};

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

/// A cell after master/pin resolution, before net allocation.
struct RCell<'a> {
    kind: GateKind,
    ins: Vec<InPin<'a>>,
    out: Option<Ident<'a>>,
    name: Option<Ident<'a>>,
    line: usize,
    col: usize,
}

enum RItem<'a> {
    Cells(Vec<RCell<'a>>),
    Assign {
        lhs: Ident<'a>,
        cell: RCell<'a>,
        /// `true` when the right-hand side is a bare identifier — the
        /// shape that can be an output-port alias.
        bare: bool,
    },
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
            net_ids: HashMap::new(),
            tie0: None,
        }
    }

    fn err(&self, line: usize, col: usize, message: String) -> ParseError {
        ParseError::at(self.src, line, col, message)
    }

    fn err_at(&self, id: &Ident<'a>, message: String) -> ParseError {
        self.err(id.line, id.col, message)
    }

    fn run(mut self) -> Result<Netlist, ParseError> {
        self.check_header()?;
        self.declare_wires()?;
        self.declare_inputs()?;
        let ritems = self.resolve_items()?;
        let aliases = alias_set(&ritems, self.module);
        let mut alias_nets: HashMap<&'a str, NetId> = HashMap::new();
        for item in &ritems {
            match item {
                RItem::Cells(cells) => self.build_cells(cells)?,
                RItem::Assign { lhs, cell, bare } => {
                    if *bare && aliases.contains(lhs.text) {
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
            return Err(self.err(self.module.line, self.module.col, e.to_string()));
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
            if self.net_ids.contains_key(w.text) {
                return Err(self.err_at(w, format!("net `{}` declared twice", w.text)));
            }
            let index = self.nl.net_count();
            let name = stored_name(w, "n", index);
            self.nl.add_net(name.as_deref());
            self.net_ids.insert(w.text, NetId::from_index(index));
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
        if let Some(&n) = self.net_ids.get(id.text) {
            return Ok(n);
        }
        let index = self.nl.net_count();
        let name = stored_name(id, "n", index);
        let n = self.nl.add_net(name.as_deref());
        self.net_ids.insert(id.text, n);
        Ok(n)
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
            let mut ins = Vec::with_capacity(cell.ins.len());
            for pin in &cell.ins {
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
            match self
                .nl
                .try_add_cell_driving(cell.kind, ins, out, name.as_deref())
            {
                Ok(_) => {}
                Err(NetlistError::MultipleDrivers { net, name, .. }) => {
                    let is_input = self.nl.driver(net).is_none();
                    let label = name.unwrap_or_else(|| format!("{net}"));
                    return Err(self.err(
                        cell.line,
                        cell.col,
                        if is_input {
                            format!("cell output drives the input port `{label}`")
                        } else {
                            format!("net `{label}` has more than one driver")
                        },
                    ));
                }
                Err(e) => return Err(self.err(cell.line, cell.col, e.to_string())),
            }
            prev_out = Some(out);
        }
        Ok(())
    }

    /// Resolves every source item to cells (masters looked up, pins
    /// mapped) without allocating nets.
    fn resolve_items(&self) -> Result<Vec<RItem<'a>>, ParseError> {
        let mut out = Vec::with_capacity(self.module.items.len());
        for item in &self.module.items {
            match item {
                Item::Assign {
                    lhs,
                    rhs,
                    line,
                    col,
                } => {
                    let (kind, ins, bare) = match rhs {
                        Expr::Const(false) => (GateKind::TieLo, Vec::new(), false),
                        Expr::Const(true) => (GateKind::TieHi, Vec::new(), false),
                        Expr::Net(a) => (GateKind::Buf, vec![InPin::Net(*a)], true),
                        Expr::Inv(a) => (GateKind::Not, vec![InPin::Net(*a)], false),
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
                            (kind, terms.iter().map(|t| InPin::Net(*t)).collect(), false)
                        }
                        Expr::NegBin { op, a, b } => {
                            let kind = match op {
                                '&' => GateKind::Nand2,
                                '|' => GateKind::Nor2,
                                _ => GateKind::Xnor2,
                            };
                            (kind, vec![InPin::Net(*a), InPin::Net(*b)], false)
                        }
                        Expr::Mux { sel, t, f } => (
                            GateKind::Mux2,
                            vec![InPin::Net(*sel), InPin::Net(*f), InPin::Net(*t)],
                            false,
                        ),
                    };
                    out.push(RItem::Assign {
                        lhs: *lhs,
                        cell: RCell {
                            kind,
                            ins,
                            out: Some(*lhs),
                            name: None,
                            line: *line,
                            col: *col,
                        },
                        bare,
                    });
                }
                Item::Instance {
                    master,
                    inst,
                    conns,
                    line,
                    col,
                } => {
                    let cells = match conns {
                        Conns::Positional(nets) => {
                            vec![self.resolve_primitive(master, *inst, nets, *line, *col)?]
                        }
                        Conns::Named(pairs) => {
                            self.resolve_named(master, *inst, pairs, *line, *col)?
                        }
                    };
                    out.push(RItem::Cells(cells));
                }
            }
        }
        Ok(out)
    }

    fn resolve_primitive(
        &self,
        master: &Ident<'a>,
        inst: Option<Ident<'a>>,
        nets: &[Ident<'a>],
        line: usize,
        col: usize,
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
                return Err(self.err(
                    line,
                    col,
                    format!("`{name}` with {n} inputs is not in the cell library"),
                ));
            }
        };
        Ok(RCell {
            kind,
            ins: nets[1..].iter().map(|n| InPin::Net(*n)).collect(),
            out: Some(nets[0]),
            name: inst,
            line,
            col,
        })
    }

    fn resolve_named(
        &self,
        master: &Ident<'a>,
        inst: Option<Ident<'a>>,
        pairs: &[(Ident<'a>, Option<Ident<'a>>)],
        line: usize,
        col: usize,
    ) -> Result<Vec<RCell<'a>>, ParseError> {
        if let Some(kind) = our_cell(master.text) {
            let (ins, out) = pins(kind);
            let def = AliasDef {
                kind,
                ins,
                out,
                out_n: None,
                ignore: &[],
            };
            return self.resolve_def(master, inst, &def, pairs, line, col);
        }
        match resolve_alias(master.text) {
            Some(Resolved::Gate(def)) => self.resolve_def(master, inst, def, pairs, line, col),
            Some(Resolved::ClockGate) => {
                let def = AliasDef {
                    kind: GateKind::Or2,
                    ins: &["en_i", "scan_cg_en_i"],
                    out: "clk_o",
                    out_n: None,
                    ignore: &["clk_i"],
                };
                self.resolve_def(master, inst, &def, pairs, line, col)
            }
            Some(Resolved::Conb) => {
                let mut cells = Vec::new();
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
                        cells.push(RCell {
                            kind,
                            ins: Vec::new(),
                            out: Some(*net),
                            name: if cells.is_empty() { inst } else { None },
                            line,
                            col,
                        });
                    }
                }
                Ok(cells)
            }
            Some(Resolved::Skip) => Ok(Vec::new()),
            None => Err(self.err(
                line,
                col,
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
        line: usize,
        col: usize,
    ) -> Result<Vec<RCell<'a>>, ParseError> {
        let mut ins: Vec<InPin<'a>> = vec![InPin::Unconnected; def.ins.len()];
        let mut out: Option<Ident<'a>> = None;
        let mut out_n: Option<Ident<'a>> = None;
        let mut seen: HashSet<&str> = HashSet::new();
        for (pin, net) in pairs {
            if !seen.insert(pin.text) {
                return Err(self.err_at(pin, format!("pin `{}` connected twice", pin.text)));
            }
            if let Some(i) = def.ins.iter().position(|p| *p == pin.text) {
                if let Some(net) = net {
                    ins[i] = InPin::Net(*net);
                }
            } else if pin.text == def.out {
                out = *net;
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
        let mut cells = vec![RCell {
            kind: def.kind,
            ins,
            out,
            name: inst,
            line,
            col,
        }];
        if let Some(qn) = out_n {
            cells.push(RCell {
                kind: GateKind::Not,
                ins: vec![InPin::Prev],
                out: Some(qn),
                name: None,
                line,
                col,
            });
        }
        Ok(cells)
    }
}

/// `Some(name)` to store on the net/cell, or `None` when the bare
/// identifier is the anonymous pattern (`n{index}` / `g{index}`) for
/// its own index. Escaped identifiers always keep their name — that is
/// how the exporter marks a real name that collides with the pattern.
fn stored_name(id: &Ident<'_>, prefix: &str, index: usize) -> Option<String> {
    if !id.escaped && id.text == format!("{prefix}{index}") {
        return None;
    }
    Some(id.text.to_owned())
}

/// Output-port names that resolve to pure aliases: assigned exactly
/// once from a bare net, never declared as a wire or input, and never
/// referenced by any cell.
fn alias_set<'a>(ritems: &[RItem<'a>], module: &SourceModule<'a>) -> HashSet<&'a str> {
    fn count_cell<'a>(refs: &mut HashSet<&'a str>, cell: &RCell<'a>, include_out: bool) {
        for pin in &cell.ins {
            if let InPin::Net(id) = pin {
                refs.insert(id.text);
            }
        }
        if include_out {
            if let Some(out) = &cell.out {
                refs.insert(out.text);
            }
        }
    }
    let mut refs: HashSet<&str> = HashSet::new();
    let mut lhs_count: HashMap<&str, usize> = HashMap::new();
    for item in ritems {
        match item {
            RItem::Cells(cells) => {
                for c in cells {
                    count_cell(&mut refs, c, true);
                }
            }
            RItem::Assign { lhs, cell, .. } => {
                count_cell(&mut refs, cell, false);
                *lhs_count.entry(lhs.text).or_insert(0) += 1;
            }
        }
    }
    let inputs: HashSet<&str> = module.inputs.iter().map(|i| i.text).collect();
    let wires: HashSet<&str> = module.wires.iter().map(|w| w.text).collect();
    let outputs: HashSet<&str> = module.outputs.iter().map(|o| o.text).collect();
    let mut aliases = HashSet::new();
    for item in ritems {
        if let RItem::Assign {
            lhs, bare: true, ..
        } = item
        {
            if outputs.contains(lhs.text)
                && !wires.contains(lhs.text)
                && !inputs.contains(lhs.text)
                && !refs.contains(lhs.text)
                && lhs_count.get(lhs.text) == Some(&1)
            {
                aliases.insert(lhs.text);
            }
        }
    }
    aliases
}
