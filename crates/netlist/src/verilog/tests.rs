//! Round-trip, golden-fixture and fuzz tests for the Verilog importer.
//!
//! The centrepiece is the round-trip property: for any validated
//! netlist `n`, `from_verilog(&to_verilog(&n))` reconstructs the same
//! nets, cells, names and ports with the same ids — checked field by
//! field by [`assert_same`] over hand-built designs, all gate kinds,
//! and randomly generated DAG netlists. Fuzz properties mutate and
//! truncate valid source and require a located [`ParseError`], never a
//! panic.

use super::{from_verilog, to_verilog, ParseError};
use crate::{GateKind, NetId, Netlist, NetlistBuilder};
use proptest::prelude::*;

/// Field-by-field structural identity (ids, names, ports, wiring).
fn assert_same(a: &Netlist, b: &Netlist) {
    assert_eq!(a.name(), b.name(), "module name");
    assert_eq!(a.net_count(), b.net_count(), "net count");
    for i in 0..a.net_count() {
        let n = NetId::from_index(i);
        assert_eq!(a.net_name(n), b.net_name(n), "net {i} name");
        assert_eq!(a.nets[i].is_input, b.nets[i].is_input, "net {i} input flag");
        assert_eq!(a.nets[i].driver, b.nets[i].driver, "net {i} driver");
    }
    assert_eq!(a.cell_count(), b.cell_count(), "cell count");
    for (id, ca) in a.cells() {
        let cb = b.cell(id);
        assert_eq!(ca.kind(), cb.kind(), "cell {id} kind");
        assert_eq!(ca.inputs(), cb.inputs(), "cell {id} inputs");
        assert_eq!(ca.output(), cb.output(), "cell {id} output");
        assert_eq!(ca.name(), cb.name(), "cell {id} name");
    }
    assert_eq!(a.input_ports(), b.input_ports(), "input ports");
    assert_eq!(a.output_ports(), b.output_ports(), "output ports");
}

fn round_trip(nl: &Netlist) {
    let src = to_verilog(nl);
    let back = from_verilog(&src).unwrap_or_else(|e| panic!("re-import failed: {e}\n{src}"));
    assert_same(nl, &back);
    // And the canonical form is a fixed point: exporting the re-import
    // reproduces the source byte for byte.
    assert_eq!(src, to_verilog(&back), "canonical export is a fixed point");
}

// ---------------------------------------------------------------- round trip

#[test]
fn round_trips_scan_sample() {
    let mut b = NetlistBuilder::new("samp");
    let a = b.input("a");
    let c = b.input("b");
    let x = b.xor2(a, c);
    let si = b.input("si");
    let se = b.input("se");
    let (q, _) = b.rsdff("r0", x, si, se);
    let m = b.mux2(se, q, x);
    b.output("y", m);
    round_trip(&b.finish().unwrap());
}

#[test]
fn round_trips_every_gate_kind() {
    let mut b = NetlistBuilder::new("kinds");
    let a = b.input("a");
    let c = b.input("b");
    let t0 = b.tie_lo();
    let t1 = b.tie_hi();
    let f = b.buf(a);
    let g = b.not(c);
    let h = b.and2(a, c);
    let i = b.and3(a, c, f);
    let j = b.nand2(g, h);
    let k = b.or2(i, j);
    let l = b.or3(a, k, t0);
    let m = b.nor2(l, t1);
    let n = b.xor2(m, a);
    let o = b.xor3(n, c, f);
    let p = b.xnor2(o, g);
    let q = b.mux2(a, p, c);
    let (d0, _) = b.dff("d0", q);
    let (r0, _) = b.rdff("ret0", d0);
    let si = b.input("si");
    let se = b.input("se");
    let (s0, _) = b.sdff("s0", r0, si, se);
    let (r1, _) = b.rsdff("rs0", s0, si, se);
    b.output("y", r1);
    round_trip(&b.finish().unwrap());
}

#[test]
fn round_trips_escaped_and_pattern_names() {
    round_trip(&tricky_netlist());
}

/// Escaped bus names and nets named like anonymous-id patterns.
fn tricky_netlist() -> Netlist {
    let mut b = NetlistBuilder::new("tricky");
    let d = b.input_bus("d", 3); // escaped names d[0]..d[2]
    let x = b.xor2(d[0], d[1]);
    // A net named like an anonymous pattern (forces escaping).
    let (n_pat, _) = b.named_cell("n5", GateKind::Buf, vec![x]);
    // A net named like a *different* index's pattern (kept bare).
    let (g_pat, _) = b.named_cell("n99", GateKind::Not, vec![n_pat]);
    let y = b.and2(g_pat, d[2]);
    b.output_bus("q", &[y, x]);
    b.output("plain", g_pat);
    b.finish().unwrap()
}

#[test]
fn round_trips_feedback_and_port_aliases() {
    let mut b = NetlistBuilder::new("fb");
    let a = b.input("a");
    let fb = b.net("loop");
    let x = b.xor2(a, fb);
    let (q, _) = b.dff("state", x);
    b.connect(fb, q); // anonymous Buf closing the loop
    b.output("q_out", q); // alias: port name differs from net name
    b.output("state", q); // port name equals the net name: no alias
    round_trip(&b.finish().unwrap());
}

#[test]
fn round_trips_multiple_outputs_on_one_net() {
    let mut b = NetlistBuilder::new("fanout");
    let a = b.input("a");
    let y = b.not(a);
    b.output("y0", y);
    b.output("y1", y);
    round_trip(&b.finish().unwrap());
}

#[test]
fn round_trips_pure_combinational() {
    let mut b = NetlistBuilder::new("comb");
    let a = b.input("a");
    let c = b.input("b");
    let y = b.nand2(a, c);
    b.output("y", y);
    let nl = b.finish().unwrap();
    let src = to_verilog(&nl);
    assert!(!src.contains("clk"), "no implicit clock on comb designs");
    round_trip(&nl);
}

/// Deterministic random DAG netlists: inputs, a soup of gates over
/// already-created nets, flops, feedback buffers and a few outputs.
fn random_netlist(seed: u64) -> Netlist {
    let mut state = seed | 1;
    let mut rnd = move |bound: u64| -> usize {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound.max(1)) as usize
    };
    let mut b = NetlistBuilder::new("rand");
    let mut nets: Vec<NetId> = Vec::new();
    let n_inputs = 2 + rnd(3);
    for i in 0..n_inputs {
        nets.push(b.input(&format!("i{i}")));
    }
    let si = b.input("si");
    let se = b.input("se");
    let n_ops = 4 + rnd(28);
    for k in 0..n_ops {
        let pick = |nets: &[NetId], rnd: &mut dyn FnMut(u64) -> usize| nets[rnd(nets.len() as u64)];
        let a = pick(&nets, &mut rnd);
        let c = pick(&nets, &mut rnd);
        let d = pick(&nets, &mut rnd);
        let out = match rnd(12) {
            0 => b.and2(a, c),
            1 => b.or2(a, c),
            2 => b.xor2(a, c),
            3 => b.nand2(a, c),
            4 => b.not(a),
            5 => b.mux2(a, c, d),
            6 => b.xor3(a, c, d),
            7 => b.named_cell(&format!("w{k}"), GateKind::Nor2, vec![a, c]).0,
            8 => b.dff(&format!("ff{k}"), a).0,
            9 => b.sdff(&format!("sf{k}"), a, si, se).0,
            10 => b.rsdff(&format!("rf{k}"), a, si, se).0,
            _ => {
                // Feedback: a pre-declared net closed from a flop.
                let f = b.net(&format!("fb{k}"));
                let (q, _) = b.dff(&format!("fq{k}"), a);
                b.connect(f, q);
                f
            }
        };
        nets.push(out);
    }
    let n_outs = 1 + rnd(3);
    for i in 0..n_outs {
        let n = nets[nets.len() - 1 - i.min(nets.len() - 1)];
        b.output(&format!("o{i}"), n);
    }
    b.finish()
        .expect("random netlists are DAGs by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn round_trips_random_netlists(seed in any::<u64>()) {
        round_trip(&random_netlist(seed));
    }
}

// ------------------------------------------------------------- golden input

const GOLDEN: &str = "\
// hand-written golden fixture
module golden (clk, a, b, si, se, y, zn);
  input clk;
  input a;
  input b;
  input si;
  input se;
  output y;
  output zn;
  wire x;
  wire q;
  wire zn_inner;
  XOR2 gx (.Y(x), .A(a), .B(b));
  SDFF q (.Q(q), .D(x), .SI(si), .SE(se));
  NR2 gz (.Y(zn_inner), .A(q), .B(x));
  assign y = q;
  assign zn = zn_inner;
endmodule
";

#[test]
fn golden_fixture_elaborates_exactly() {
    let nl = from_verilog(GOLDEN).unwrap();
    assert_eq!(nl.name(), "golden");
    assert_eq!(
        nl.input_ports()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>(),
        ["a", "b", "si", "se"],
        "clk is implicit and dropped"
    );
    assert_eq!(nl.output_ports().len(), 2);
    assert_eq!(nl.net_count(), 7, "4 inputs + 3 wires");
    assert_eq!(nl.cell_count(), 3);
    let kinds: Vec<GateKind> = nl.cells().map(|(_, c)| c.kind()).collect();
    assert_eq!(kinds, [GateKind::Xor2, GateKind::Sdff, GateKind::Nor2]);
    // Output y aliases the q net directly (no extra cell).
    let y = nl.output_ports()[0].1;
    assert_eq!(nl.net_name(y), Some("q"));
    // And the whole thing survives its own round trip.
    round_trip(&nl);
}

#[test]
fn golden_fixture_wire_order_fixes_net_ids() {
    let nl = from_verilog(GOLDEN).unwrap();
    // Net ids follow `wire` declaration order (x, q, zn_inner); inputs
    // not declared as wires are appended afterwards. This is what lets
    // the canonical form — which declares every net as a wire — pin
    // every id on re-import.
    assert_eq!(nl.net_name(NetId::from_index(0)), Some("x"));
    assert_eq!(nl.net_name(NetId::from_index(1)), Some("q"));
    assert_eq!(nl.net_name(NetId::from_index(2)), Some("zn_inner"));
    assert_eq!(nl.net_name(NetId::from_index(3)), Some("a"));
    assert_eq!(nl.net_name(NetId::from_index(6)), Some("se"));
}

// ------------------------------------------------------------ port aliases

/// Cell kinds and `(output port, net index)` pairs of an import.
fn alias_shape(src: &str) -> (Vec<GateKind>, Vec<(String, usize)>) {
    let nl = from_verilog(src).unwrap_or_else(|e| panic!("{e}"));
    let kinds = nl.cells().map(|(_, c)| c.kind()).collect();
    let outs = nl
        .output_ports()
        .iter()
        .map(|(name, net)| (name.clone(), net.index()))
        .collect();
    (kinds, outs)
}

#[test]
fn output_aliases_need_one_unreferenced_bare_assign() {
    let port = |name: &str, net| (name.to_owned(), net);
    // `y` feeds a cell, so its assign is a buffer.
    let (kinds, outs) = alias_shape(
        "module m (a, y, z);\ninput a;\noutput y;\noutput z;\n\
         assign y = a;\nINV g0 (.Y(z), .A(y));\nendmodule\n",
    );
    assert_eq!(kinds, [GateKind::Buf, GateKind::Not]);
    assert_eq!(outs, [port("y", 1), port("z", 2)]);
    // `y` feeds `w`'s assign: a buffer; `w` aliases the net `y`.
    let (kinds, outs) = alias_shape(
        "module m (a, y, w);\ninput a;\noutput y;\noutput w;\n\
         assign y = a;\nassign w = y;\nendmodule\n",
    );
    assert_eq!(kinds, [GateKind::Buf]);
    assert_eq!(outs, [port("y", 1), port("w", 1)]);
    // A non-bare assign is never an alias, but a bare one reading it is.
    let (kinds, outs) = alias_shape(
        "module m (a, y, z);\ninput a;\noutput y;\noutput z;\n\
         assign y = ~a;\nassign z = y;\nendmodule\n",
    );
    assert_eq!(kinds, [GateKind::Not]);
    assert_eq!(outs, [port("y", 1), port("z", 1)]);
    // A reference after the assign still counts.
    let (kinds, outs) = alias_shape(
        "module m (a, y, w);\ninput a;\noutput y;\noutput w;\n\
         assign w = y;\nassign y = a;\nBUF b1 (.Y(n7), .A(w));\nendmodule\n",
    );
    assert_eq!(kinds, [GateKind::Buf, GateKind::Buf, GateKind::Buf]);
    assert_eq!(outs, [port("y", 1), port("w", 2)]);
    // An output also declared as a wire is a buffered net.
    let (kinds, outs) =
        alias_shape("module m (a, y);\ninput a;\noutput y;\nwire y;\nassign y = a;\nendmodule\n");
    assert_eq!(kinds, [GateKind::Buf]);
    assert_eq!(outs, [port("y", 0)]);
}

// ------------------------------------------------------------ sky130 input

const SKY130: &str = "\
`timescale 1ns/1ps
module scan_block (clk, en, scan_en, scan_in, d1, set_b, q2_n, q2b, nx);
  input clk;
  input en;
  input scan_en;
  input scan_in;
  input d1;
  input set_b;
  output q2_n;
  output q2b;
  output nx;
  wire gclk;
  wire q1;
  wire q2;
  wire q2n_w;
  wire hi_unused;
  cv32e40p_clock_gate cg (.clk_i(clk), .en_i(en), .scan_cg_en_i(scan_en), .clk_o(gclk));
  sky130_fd_sc_hd__sdfsbp_1 ff1 (.D(d1), .Q(q1), .Q_N(), .SCD(scan_in), .SCE(scan_en),
                                 .SET_B(set_b), .CLK(clk));
  sky130_fd_sc_hd__sdfsbp_1 ff2 (.D(q1), .Q(q2), .Q_N(q2n_w), .SCD(q1), .SCE(scan_en),
                                 .SET_B(set_b), .CLK(clk));
  sky130_fd_sc_hd__diode_2 ANTENNA_1 (.DI(q1));
  sky130_fd_sc_hd__conb_1 tie (.HI(hi_unused), .LO());
  sky130_fd_sc_hd__buf_2 b1 (.A(q2), .X(q2b));
  sky130_fd_sc_hd__nand2_1 g9 (.A(q1), .Y(nx));
  assign q2_n = q2n_w;
endmodule
";

#[test]
fn sky130_fixture_maps_aliases() {
    let nl = from_verilog(SKY130).unwrap();
    assert_eq!(nl.name(), "scan_block");
    let kinds: Vec<GateKind> = nl.cells().map(|(_, c)| c.kind()).collect();
    assert_eq!(
        kinds,
        [
            GateKind::Or2,   // clock gate model
            GateKind::Sdff,  // ff1
            GateKind::Sdff,  // ff2
            GateKind::Not,   // ff2 Q_N
            GateKind::TieHi, // conb HI (LO unconnected: dropped)
            GateKind::Buf,   // buf_2
            GateKind::TieLo, // g9's unconnected B pin
            GateKind::Nand2, // g9
        ],
        "{kinds:?}"
    );
    assert_eq!(nl.ff_count(), 2);
    // ff1 keeps its instance name; the synthesized inverter is anonymous.
    assert!(nl.find_cell("ff1").is_some());
    assert!(nl.find_cell("ff2").is_some());
    // The scan stitch survives: ff2's SI input is ff1's Q net.
    let ff1 = nl.cell(nl.find_cell("ff1").unwrap());
    let ff2 = nl.cell(nl.find_cell("ff2").unwrap());
    assert_eq!(ff2.inputs()[1], ff1.output(), "SCD -> SI stitching");
    // clk / set_b handling: clk dropped, set_b an ordinary (unused) input.
    assert!(nl.port("clk").is_err());
    assert!(nl.port("set_b").is_ok());
    // Re-export in canonical form and round-trip again.
    round_trip(&nl);
}

// ------------------------------------------------------------- golden errors

const ERR_UNKNOWN_CELL: &str =
    "module m (a, y);\ninput a;\noutput y;\nwire y;\nAND9 g0 (.Y(y), .A(a));\nendmodule";
const ERR_UNKNOWN_PIN: &str =
    "module m (a, y);\ninput a;\noutput y;\nwire y;\nINV g0 (.Z(y), .A(a));\nendmodule";
const ERR_MULTIPLE_DRIVERS: &str =
    "module m (a, y);\ninput a;\noutput y;\nwire y;\nINV g0 (.Y(y), .A(a));\nBUF g1 (.Y(y), .A(a));\nendmodule";
const ERR_DRIVES_INPUT_PORT: &str =
    "module m (a, y);\ninput a;\noutput y;\nwire y;\nINV g0 (.Y(a), .A(y));\nendmodule";
const ERR_UNDRIVEN_OUTPUT: &str = "module m (a, y);\ninput a;\noutput y;\nendmodule";
const ERR_UNDRIVEN_WIRE: &str =
    "module m (a, y);\ninput a;\noutput y;\nwire w;\nwire y;\nAND2 g0 (.Y(y), .A(a), .B(w));\nendmodule";
const ERR_COMBINATIONAL_LOOP: &str =
    "module m (y);\noutput y;\nwire x;\nwire y;\nINV g0 (.Y(x), .A(y));\nINV g1 (.Y(y), .A(x));\nendmodule";
const ERR_RESERVED_IDENTIFIER: &str =
    "module m (a, y);\ninput a;\noutput y;\nwire clk;\nBUF g0 (.Y(clk), .A(a));\nBUF g1 (.Y(y), .A(clk));\nendmodule";
const ERR_DUPLICATE_WIRE: &str = "module m (a);\ninput a;\nwire w;\nwire w;\nendmodule";
const ERR_PIN_CONNECTED_TWICE: &str =
    "module m (a, y);\ninput a;\noutput y;\nwire y;\nINV g0 (.A(a), .A(a), .Y(y));\nendmodule";
const ERR_UNDECLARED_HEADER_PORT: &str = "module m (a, ghost);\ninput a;\nendmodule";
const ERR_PORT_MISSING_FROM_HEADER: &str = "module m (a);\ninput a;\ninput b;\nendmodule";
const ERR_DUPLICATE_PORT: &str = "module m (a, a);\ninput a;\nendmodule";

/// Every golden-error source, in test order.
const GOLDEN_ERRORS: &[(&str, &str)] = &[
    ("unknown_cell", ERR_UNKNOWN_CELL),
    ("unknown_pin", ERR_UNKNOWN_PIN),
    ("multiple_drivers", ERR_MULTIPLE_DRIVERS),
    ("drives_input_port", ERR_DRIVES_INPUT_PORT),
    ("undriven_output", ERR_UNDRIVEN_OUTPUT),
    ("undriven_wire", ERR_UNDRIVEN_WIRE),
    ("combinational_loop", ERR_COMBINATIONAL_LOOP),
    ("reserved_identifier", ERR_RESERVED_IDENTIFIER),
    ("duplicate_wire", ERR_DUPLICATE_WIRE),
    ("pin_connected_twice", ERR_PIN_CONNECTED_TWICE),
    ("undeclared_header_port", ERR_UNDECLARED_HEADER_PORT),
    ("port_missing_from_header", ERR_PORT_MISSING_FROM_HEADER),
    ("duplicate_port", ERR_DUPLICATE_PORT),
];

/// Asserts `src` fails with a message containing `needle` at `line`.
fn assert_error(src: &str, needle: &str, line: usize) {
    let e = from_verilog(src).unwrap_err();
    assert!(
        e.message.contains(needle),
        "expected {needle:?} in {:?}",
        e.message
    );
    assert_eq!(e.line, line, "wrong line for {needle:?}: {e}");
    assert!(e.col >= 1);
}

#[test]
fn golden_error_unknown_cell() {
    assert_error(ERR_UNKNOWN_CELL, "unknown cell `AND9`", 5);
}

#[test]
fn golden_error_unknown_pin() {
    assert_error(ERR_UNKNOWN_PIN, "has no pin `Z`", 5);
}

#[test]
fn golden_error_multiple_drivers() {
    assert_error(ERR_MULTIPLE_DRIVERS, "more than one driver", 6);
}

#[test]
fn golden_error_drives_input_port() {
    assert_error(ERR_DRIVES_INPUT_PORT, "drives the input port", 5);
}

#[test]
fn golden_error_undriven_output() {
    assert_error(ERR_UNDRIVEN_OUTPUT, "output port `y` is never driven", 3);
}

#[test]
fn golden_error_undriven_wire() {
    // The floating wire is caught by revalidate and reported at the
    // module declaration.
    assert_error(ERR_UNDRIVEN_WIRE, "has no driver", 1);
}

#[test]
fn golden_error_combinational_loop() {
    assert_error(ERR_COMBINATIONAL_LOOP, "combinational loop", 1);
}

#[test]
fn golden_error_reserved_identifier() {
    assert_error(
        ERR_RESERVED_IDENTIFIER,
        "reserved for the implicit clock",
        4,
    );
}

#[test]
fn golden_error_duplicate_wire() {
    assert_error(ERR_DUPLICATE_WIRE, "declared twice", 4);
}

#[test]
fn golden_error_pin_connected_twice() {
    assert_error(ERR_PIN_CONNECTED_TWICE, "pin `A` connected twice", 5);
}

#[test]
fn golden_error_undeclared_header_port() {
    assert_error(ERR_UNDECLARED_HEADER_PORT, "no direction declaration", 1);
}

#[test]
fn golden_error_port_missing_from_header() {
    assert_error(
        ERR_PORT_MISSING_FROM_HEADER,
        "missing from the module port list",
        3,
    );
}

#[test]
fn golden_error_duplicate_port() {
    assert_error(ERR_DUPLICATE_PORT, "duplicate port `a`", 1);
}

// --------------------------------------------------------------------- fuzz

/// A healthy base source for mutation fuzzing.
fn fuzz_base() -> String {
    let mut b = NetlistBuilder::new("fuzz");
    let a = b.input("a");
    let c = b.input("b");
    let si = b.input("si");
    let se = b.input("se");
    let x = b.xor2(a, c);
    let (q, _) = b.sdff("q0", x, si, se);
    let m = b.mux2(se, q, x);
    b.output("y", m);
    to_verilog(&b.finish().unwrap())
}

/// The parser must return `Ok` or a located error — never panic — and
/// any `Ok` result is a validated netlist.
fn check_result(src: &str, result: Result<Netlist, ParseError>) {
    match result {
        Ok(nl) => assert!(nl.is_validated()),
        Err(e) => {
            assert!(e.line >= 1, "lines are 1-based");
            assert!(e.col >= 1, "columns are 1-based");
            let lines = src.lines().count();
            assert!(
                e.line <= lines + 1,
                "error line {} beyond source ({} lines)",
                e.line,
                lines
            );
            assert!(!e.message.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fuzz_deletion_never_panics(start in any::<u64>(), len in 1usize..40) {
        let base = fuzz_base();
        let start = (start as usize) % base.len();
        let end = (start + len).min(base.len());
        let mut mutated = String::with_capacity(base.len());
        mutated.push_str(&base[..start.min(base.len())]);
        // Snap to char boundaries (source is ASCII, but stay safe).
        if base.is_char_boundary(start) && base.is_char_boundary(end) {
            mutated.clear();
            mutated.push_str(&base[..start]);
            mutated.push_str(&base[end..]);
        }
        check_result(&mutated, from_verilog(&mutated));
    }

    #[test]
    fn fuzz_duplication_never_panics(start in any::<u64>(), len in 1usize..60) {
        let base = fuzz_base();
        let start = (start as usize) % base.len();
        let end = (start + len).min(base.len());
        if base.is_char_boundary(start) && base.is_char_boundary(end) {
            let mut mutated = String::with_capacity(base.len() + len);
            mutated.push_str(&base[..end]);
            mutated.push_str(&base[start..]);
            check_result(&mutated, from_verilog(&mutated));
        }
    }

    #[test]
    fn fuzz_mangling_never_panics(pos in any::<u64>(), byte in any::<u8>()) {
        let base = fuzz_base();
        let pos = (pos as usize) % base.len();
        let mut bytes = base.into_bytes();
        bytes[pos] = byte % 0x7F; // stay ASCII
        if let Ok(mutated) = String::from_utf8(bytes) {
            check_result(&mutated, from_verilog(&mutated));
        }
    }
}

#[test]
fn every_truncation_yields_ok_or_located_error() {
    let base = fuzz_base();
    for end in 0..base.len() {
        if !base.is_char_boundary(end) {
            continue;
        }
        let prefix = &base[..end];
        check_result(prefix, from_verilog(prefix));
    }
}

#[test]
fn identifier_mangling_keeps_errors_located() {
    // Renaming one identifier occurrence must either still elaborate or
    // produce a located error (e.g. undriven net, unknown port).
    let base = fuzz_base();
    let mutated = base.replacen("si", "sx", 1);
    check_result(&mutated, from_verilog(&mutated));
    let mutated = base.replacen("XOR2", "XYZ2", 1);
    let e = from_verilog(&mutated).unwrap_err();
    assert!(e.message.contains("unknown cell"), "{e}");
}

// ------------------------------------------------------------- error corpus

/// Hand-written inputs that pin how positions are counted: a lexical
/// error on line 5 must beat a syntax error on line 2 (the whole file
/// is tokenized before parsing), columns count bytes (a tab or a
/// multi-byte character is one column per byte), `\r` is an ordinary
/// column, and an error at end of input past the last line has an empty
/// snippet.
const ERROR_CORPUS_EXTRA: &[(&str, &str)] = &[
    (
        "lexical_beats_syntax",
        "module m (a);\ninput a wire b;\nwire c;\nwire d;\nwire e % f;\nendmodule\n",
    ),
    (
        "crlf_tab_non_ascii",
        "module m (a);\r\n\tinput a;\r\n\twire \u{e9};\r\nendmodule\r\n",
    ),
    (
        "unterminated_block_comment",
        "module m (a);\ninput a;\n  /* never\n   closed\n",
    ),
    ("eof_after_last_line", "module m (a);\ninput a;\n"),
    (
        "bare_backslash",
        "module m (a);\n\tinput \\ a;\nendmodule\n",
    ),
    (
        "escaped_error_position",
        "module m (a);\ninput a;\nwire \\clk ;\n  \\AND9  \\g0  (.Y(\\clk ), .A(a));\nendmodule\n",
    ),
];

/// Every input of the error corpus, labelled: each 37th-byte truncation
/// of four valid sources, the golden-error sources and
/// [`ERROR_CORPUS_EXTRA`].
fn error_corpus() -> Vec<(String, String)> {
    let chain4 = include_str!("../../../../tests/fixtures/scan_chain4.v");
    let bases = [
        ("scan_chain4.v", chain4.to_owned()),
        ("sky130", SKY130.to_owned()),
        ("fuzz_base", fuzz_base()),
        ("tricky", to_verilog(&tricky_netlist())),
    ];
    let mut corpus = Vec::new();
    for (label, text) in &bases {
        for end in (0..text.len()).step_by(37) {
            corpus.push((format!("{label}[..{end}]"), text[..end].to_owned()));
        }
    }
    for (label, src) in GOLDEN_ERRORS.iter().chain(ERROR_CORPUS_EXTRA) {
        corpus.push(((*label).to_owned(), (*src).to_owned()));
    }
    corpus
}

/// The corpus rendered as the fixture stores it: a `=== label` line,
/// then the full [`ParseError`] display (or a one-line `ok` summary).
fn render_error_corpus() -> String {
    let mut out = String::new();
    for (label, src) in error_corpus() {
        out.push_str(&format!("=== {label}\n"));
        match from_verilog(&src) {
            Ok(nl) => out.push_str(&format!(
                "ok: {} nets, {} cells\n",
                nl.net_count(),
                nl.cell_count()
            )),
            Err(e) => out.push_str(&format!("{e}\n")),
        }
    }
    out
}

fn error_corpus_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/import_errors.txt")
}

/// Pins every error's message, line, column and snippet byte for byte.
#[test]
fn error_corpus_matches_the_fixture() {
    let want = std::fs::read_to_string(error_corpus_path()).expect("fixture is readable");
    let got = render_error_corpus();
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "error corpus differs from the fixture at line {}:\n  got:  {:?}\n  want: {:?}",
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first)
        );
    }
}

/// Re-records the fixture. Run only on an importer whose errors are
/// already trusted: `cargo test -p scanguard-netlist record_error_corpus
/// -- --ignored`.
#[test]
#[ignore = "re-records the error corpus; run only on a trusted importer"]
fn record_error_corpus() {
    std::fs::write(error_corpus_path(), render_error_corpus()).expect("fixture is writable");
}
