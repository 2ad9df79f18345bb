//! Recursive-descent parser for the flat structural-Verilog subset.
//!
//! Grammar (one module per file):
//!
//! ```text
//! module   := "module" ident "(" [ident {"," ident}] ")" ";" {stmt} "endmodule"
//! stmt     := decl | assign | instance
//! decl     := ("input"|"output"|"wire") ident {"," ident} ";"
//! assign   := "assign" ident "=" expr ";"
//! expr     := const1 | ident | "~" ident | "~(" ident op ident ")"
//!           | ident op ident [op ident] | ident "?" ident ":" ident
//! instance := primitive [ident] "(" ident {"," ident} ")" ";"
//!           | ident [ident] "(" named {"," named} ")" ";"
//! named    := "." ident "(" [ident] ")"
//! ```
//!
//! Behavioural constructs (`always`, `reg`, `initial`), vector ranges,
//! parameters and a second `module` are rejected with located errors —
//! the importer refuses to mis-elaborate what it cannot represent.

use super::error::ParseError;
use super::lexer::{tokenize, Tok, TokKind};
use std::ops::Range;

/// An identifier occurrence in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Ident<'a> {
    pub text: &'a str,
    pub escaped: bool,
    /// Byte offset of the identifier (its backslash, when escaped).
    pub pos: u32,
}

/// A parsed (not yet elaborated) module.
#[derive(Debug)]
pub(super) struct SourceModule<'a> {
    pub name: Ident<'a>,
    pub header_ports: Vec<Ident<'a>>,
    pub inputs: Vec<Ident<'a>>,
    pub outputs: Vec<Ident<'a>>,
    pub wires: Vec<Ident<'a>>,
    pub items: Vec<Item<'a>>,
    /// Every instance's `.PIN(net)` pairs, back to back; an instance
    /// holds its range. `None` nets are explicitly unconnected pins.
    pub named: Vec<(Ident<'a>, Option<Ident<'a>>)>,
    /// Every primitive instance's positional nets, back to back.
    pub positional: Vec<Ident<'a>>,
    /// Byte offset of the `module` keyword.
    pub pos: u32,
}

#[derive(Debug)]
pub(super) enum Item<'a> {
    Assign {
        lhs: Ident<'a>,
        rhs: Expr<'a>,
        pos: u32,
    },
    Instance {
        master: Ident<'a>,
        inst: Option<Ident<'a>>,
        conns: Conns,
    },
}

#[derive(Debug)]
pub(super) enum Conns {
    /// A range of [`SourceModule::named`].
    Named(Range<usize>),
    /// A range of [`SourceModule::positional`] (gate primitives only):
    /// output first.
    Positional(Range<usize>),
}

#[derive(Debug)]
pub(super) enum Expr<'a> {
    /// `1'b0` / `1'b1`.
    Const(bool),
    /// A bare net (port alias or buffer).
    Net(Ident<'a>),
    /// `~a`.
    Inv(Ident<'a>),
    /// `a op b [op c]` with a single operator `&`, `|` or `^`.
    Bin { op: char, terms: Vec<Ident<'a>> },
    /// `~(a op b)`.
    NegBin {
        op: char,
        a: Ident<'a>,
        b: Ident<'a>,
    },
    /// `sel ? t : f`.
    Mux {
        sel: Ident<'a>,
        t: Ident<'a>,
        f: Ident<'a>,
    },
}

/// Verilog gate primitives accepted with positional connections.
pub(super) const PRIMITIVES: &[&str] = &["and", "nand", "or", "nor", "xor", "xnor", "buf", "not"];

const BEHAVIORAL: &[&str] = &[
    "always", "initial", "reg", "integer", "real", "time", "task", "function", "generate",
    "specify",
];
const UNSUPPORTED_DECLS: &[&str] = &[
    "parameter",
    "localparam",
    "defparam",
    "supply0",
    "supply1",
    "tri",
    "inout",
    "genvar",
];

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Tok>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok {
        self.toks[self.pos]
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, tok: Tok, message: String) -> ParseError {
        ParseError::at_offset(self.src, tok.start as usize, message)
    }

    /// The identifier `tok` holds, if it is one.
    fn ident(&self, tok: Tok) -> Option<Ident<'a>> {
        let escaped = match tok.kind {
            TokKind::Ident => false,
            TokKind::Escaped => true,
            _ => return None,
        };
        Some(Ident {
            text: tok.text(self.src),
            escaped,
            pos: tok.start,
        })
    }

    /// The text of `tok` when it is a simple (unescaped) identifier.
    fn keyword(&self, tok: Tok) -> Option<&'a str> {
        (tok.kind == TokKind::Ident).then(|| tok.text(self.src))
    }

    fn expect_sym(&mut self, sym: u8, what: &str) -> Result<(), ParseError> {
        let t = self.next();
        match t.kind {
            TokKind::Sym(c) if c == sym => Ok(()),
            _ => Err(self.err(
                t,
                format!(
                    "expected `{}` {what}, found {}",
                    sym as char,
                    t.describe(self.src)
                ),
            )),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<Ident<'a>, ParseError> {
        let t = self.next();
        self.ident(t).ok_or_else(|| {
            self.err(
                t,
                format!("expected {what}, found {}", t.describe(self.src)),
            )
        })
    }

    fn at_sym(&self, sym: u8) -> bool {
        self.peek().kind == TokKind::Sym(sym)
    }

    fn at_keyword(&self, kw: &str) -> bool {
        self.keyword(self.peek()) == Some(kw)
    }

    /// `ident {"," ident}` until (but not consuming) `;` or `)`,
    /// appended to `out`.
    fn ident_list(&mut self, what: &str, out: &mut Vec<Ident<'a>>) -> Result<(), ParseError> {
        out.push(self.named_ident(what)?);
        while self.at_sym(b',') {
            self.next();
            out.push(self.named_ident(what)?);
        }
        Ok(())
    }

    /// An identifier in declaration position; a `[` here means a vector
    /// range, which the flat importer rejects with a targeted message.
    fn named_ident(&mut self, what: &str) -> Result<Ident<'a>, ParseError> {
        if self.at_sym(b'[') {
            let t = self.peek();
            return Err(self.err(
                t,
                "vector ranges are not supported; bit-blast the design first".into(),
            ));
        }
        self.expect_ident(what)
    }

    fn parse_module(&mut self) -> Result<SourceModule<'a>, ParseError> {
        let t = self.peek();
        if !self.at_keyword("module") {
            return Err(self.err(
                t,
                format!("expected `module`, found {}", t.describe(self.src)),
            ));
        }
        self.next();
        let name = self.expect_ident("a module name")?;
        let mut header_ports = Vec::new();
        self.expect_sym(b'(', "after the module name")?;
        if !self.at_sym(b')') {
            self.ident_list("a port name", &mut header_ports)?;
        }
        self.expect_sym(b')', "to close the port list")?;
        self.expect_sym(b';', "after the module header")?;

        let mut module = SourceModule {
            name,
            header_ports,
            inputs: Vec::new(),
            outputs: Vec::new(),
            wires: Vec::new(),
            items: Vec::new(),
            named: Vec::new(),
            positional: Vec::new(),
            pos: t.start,
        };

        loop {
            let t = self.peek();
            if t.kind == TokKind::Eof {
                return Err(self.err(t, "missing `endmodule`".into()));
            }
            if self.keyword(t) == Some("endmodule") {
                self.next();
                break;
            }
            self.parse_stmt(&mut module)?;
        }

        // Anything after `endmodule` (a second module, stray text) is out
        // of scope for the flat importer.
        let t = self.peek();
        if t.kind != TokKind::Eof {
            return Err(self.err(
                t,
                "only a single flat module is supported; flatten the design first".into(),
            ));
        }
        Ok(module)
    }

    fn parse_stmt(&mut self, module: &mut SourceModule<'a>) -> Result<(), ParseError> {
        let t = self.peek();
        let kw = match t.kind {
            TokKind::Ident => t.text(self.src),
            TokKind::Escaped => "",
            _ => {
                return Err(self.err(
                    t,
                    format!("expected a statement, found {}", t.describe(self.src)),
                ));
            }
        };
        if BEHAVIORAL.contains(&kw) {
            return Err(self.err(
                t,
                format!(
                    "behavioural construct `{kw}` is not supported; \
                     import the structural export instead"
                ),
            ));
        }
        if UNSUPPORTED_DECLS.contains(&kw) {
            return Err(self.err(t, format!("unsupported declaration `{kw}`")));
        }
        match kw {
            "input" => {
                self.next();
                self.ident_list("an input port name", &mut module.inputs)?;
                self.expect_sym(b';', "after the input declaration")?;
            }
            "output" => {
                self.next();
                self.ident_list("an output port name", &mut module.outputs)?;
                self.expect_sym(b';', "after the output declaration")?;
            }
            "wire" => {
                self.next();
                self.ident_list("a wire name", &mut module.wires)?;
                self.expect_sym(b';', "after the wire declaration")?;
            }
            "assign" => {
                self.next();
                let lhs = self.named_ident("a net name")?;
                self.expect_sym(b'=', "in the assignment")?;
                let rhs = self.parse_expr()?;
                self.expect_sym(b';', "after the assignment")?;
                module.items.push(Item::Assign {
                    lhs,
                    rhs,
                    pos: t.start,
                });
            }
            _ => self.parse_instance(module)?,
        }
        Ok(())
    }

    fn parse_instance(&mut self, module: &mut SourceModule<'a>) -> Result<(), ParseError> {
        let master = self.expect_ident("a cell name")?;
        let primitive = !master.escaped && PRIMITIVES.contains(&master.text);
        let inst = if self.at_sym(b'(') {
            None
        } else {
            Some(self.expect_ident("an instance name")?)
        };
        self.expect_sym(b'(', "to open the connection list")?;
        let conns = if primitive {
            let start = module.positional.len();
            self.ident_list("a net", &mut module.positional)?;
            Conns::Positional(start..module.positional.len())
        } else {
            let t = self.peek();
            if !self.at_sym(b'.') {
                return Err(self.err(
                    t,
                    format!(
                        "cell `{}` needs named connections (`.PIN(net)`); \
                         positional connections are only supported for gate primitives",
                        master.text
                    ),
                ));
            }
            let start = module.named.len();
            loop {
                self.expect_sym(b'.', "before the pin name")?;
                let pin = self.expect_ident("a pin name")?;
                self.expect_sym(b'(', "after the pin name")?;
                let net = if self.at_sym(b')') {
                    None
                } else {
                    Some(self.named_ident("a net")?)
                };
                self.expect_sym(b')', "to close the pin connection")?;
                module.named.push((pin, net));
                if self.at_sym(b',') {
                    self.next();
                } else {
                    break;
                }
            }
            Conns::Named(start..module.named.len())
        };
        self.expect_sym(b')', "to close the connection list")?;
        self.expect_sym(b';', "after the instance")?;
        module.items.push(Item::Instance {
            master,
            inst,
            conns,
        });
        Ok(())
    }

    fn parse_expr(&mut self) -> Result<Expr<'a>, ParseError> {
        let t = self.peek();
        match t.kind {
            TokKind::Number => {
                self.next();
                match t.text(self.src) {
                    "1'b0" | "1'h0" | "1'd0" => Ok(Expr::Const(false)),
                    "1'b1" | "1'h1" | "1'd1" => Ok(Expr::Const(true)),
                    n => Err(self.err(t, format!("unsupported literal `{n}` (only 1'b0 / 1'b1)"))),
                }
            }
            TokKind::Sym(b'~') => {
                self.next();
                if self.at_sym(b'(') {
                    self.next();
                    let a = self.expect_ident("a net")?;
                    let op = self.binop()?;
                    let b = self.expect_ident("a net")?;
                    self.expect_sym(b')', "to close the inverted expression")?;
                    Ok(Expr::NegBin { op, a, b })
                } else {
                    Ok(Expr::Inv(self.expect_ident("a net")?))
                }
            }
            TokKind::Ident | TokKind::Escaped => {
                let first = self.expect_ident("a net")?;
                let t = self.peek();
                match t.kind {
                    TokKind::Sym(op @ (b'&' | b'|' | b'^')) => {
                        self.next();
                        let second = self.expect_ident("a net")?;
                        let mut terms = vec![first, second];
                        while let TokKind::Sym(next_op @ (b'&' | b'|' | b'^')) = self.peek().kind {
                            let t2 = self.peek();
                            if next_op != op {
                                return Err(self.err(
                                    t2,
                                    "mixed operators in one expression are not supported".into(),
                                ));
                            }
                            self.next();
                            terms.push(self.expect_ident("a net")?);
                        }
                        if terms.len() > 3 {
                            return Err(self.err(
                                t,
                                format!(
                                    "expressions with {} terms are not supported (max 3)",
                                    terms.len()
                                ),
                            ));
                        }
                        Ok(Expr::Bin {
                            op: op as char,
                            terms,
                        })
                    }
                    TokKind::Sym(b'?') => {
                        self.next();
                        let tt = self.expect_ident("a net")?;
                        self.expect_sym(b':', "in the conditional expression")?;
                        let ff = self.expect_ident("a net")?;
                        Ok(Expr::Mux {
                            sel: first,
                            t: tt,
                            f: ff,
                        })
                    }
                    _ => Ok(Expr::Net(first)),
                }
            }
            _ => Err(self.err(
                t,
                format!("expected an expression, found {}", t.describe(self.src)),
            )),
        }
    }

    fn binop(&mut self) -> Result<char, ParseError> {
        let t = self.next();
        match t.kind {
            TokKind::Sym(op @ (b'&' | b'|' | b'^')) => Ok(op as char),
            _ => Err(self.err(
                t,
                format!("expected `&`, `|` or `^`, found {}", t.describe(self.src)),
            )),
        }
    }
}

/// Parses one flat module from `src`.
pub(super) fn parse(src: &str) -> Result<SourceModule<'_>, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser { src, toks, pos: 0 };
    p.parse_module()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_module() {
        let m = parse("module m (a, y);\ninput a;\noutput y;\nassign y = a;\nendmodule\n").unwrap();
        assert_eq!(m.name.text, "m");
        assert_eq!(m.header_ports.len(), 2);
        assert_eq!(m.inputs.len(), 1);
        assert_eq!(m.outputs.len(), 1);
        assert_eq!(m.items.len(), 1);
    }

    #[test]
    fn parses_named_instance_with_unconnected_pin() {
        let m = parse("module m (); SDFF r0 (.Q(q), .D(d), .SI(), .SE(se)); endmodule").unwrap();
        match &m.items[0] {
            Item::Instance {
                master,
                inst,
                conns,
                ..
            } => {
                assert_eq!(master.text, "SDFF");
                assert_eq!(inst.unwrap().text, "r0");
                match conns {
                    Conns::Named(range) => {
                        let pairs = &m.named[range.clone()];
                        assert_eq!(pairs.len(), 4);
                        assert!(pairs[2].1.is_none(), "SI is unconnected");
                    }
                    Conns::Positional(_) => panic!("named expected"),
                }
            }
            Item::Assign { .. } => panic!("instance expected"),
        }
    }

    #[test]
    fn parses_primitive_positional() {
        let m = parse("module m (); nand g1 (y, a, b); endmodule").unwrap();
        match &m.items[0] {
            Item::Instance { master, conns, .. } => {
                assert_eq!(master.text, "nand");
                match conns {
                    Conns::Positional(range) => assert_eq!(range.len(), 3),
                    Conns::Named(_) => panic!("positional expected"),
                }
            }
            Item::Assign { .. } => panic!("instance expected"),
        }
    }

    #[test]
    fn rejects_behavioral_with_location() {
        let e =
            parse("module m (a);\ninput a;\nalways @(posedge a) x <= 1;\nendmodule").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("behavioural"), "{}", e.message);
    }

    #[test]
    fn rejects_vector_ranges() {
        let e = parse("module m (d);\ninput [7:0] d;\nendmodule").unwrap_err();
        assert!(e.message.contains("bit-blast"), "{}", e.message);
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_second_module() {
        let e = parse("module a (); endmodule\nmodule b (); endmodule").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("single flat module"), "{}", e.message);
    }

    #[test]
    fn rejects_positional_on_library_cell() {
        let e = parse("module m (); AND2 g0 (y, a, b); endmodule").unwrap_err();
        assert!(e.message.contains("named connections"), "{}", e.message);
    }

    #[test]
    fn rejects_mixed_operators() {
        let e = parse("module m (); assign y = a & b | c; endmodule").unwrap_err();
        assert!(e.message.contains("mixed operators"), "{}", e.message);
    }

    #[test]
    fn missing_semicolon_is_located() {
        let e = parse("module m (a);\ninput a\nwire w;\nendmodule").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("expected `;`"), "{}", e.message);
    }

    #[test]
    fn eof_inside_module_reports_missing_endmodule() {
        let e = parse("module m (a);\ninput a;\n").unwrap_err();
        assert!(e.message.contains("endmodule"), "{}", e.message);
    }
}
