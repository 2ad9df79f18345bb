//! Differential harness for the static X-propagation analysis: the
//! static verdict must be *conservative* with respect to the dynamic
//! 3-state simulator. For random always-on cones over a collapsed
//! power domain, any net the simulator can drive to X is also flagged
//! as possibly-X statically, and any always-on flop whose dynamic
//! capture value is X has X in its static capture set — so a "clean"
//! SG204 verdict can never hide a dynamically reachable corruption.
//!
//! A second, exhaustive test pins the ternary eval helpers to `Logic`'s
//! `&`/`|`/`^`/`!` truth tables.

use proptest::prelude::*;
use scanguard_lint::{LintContext, XPropContext};
use scanguard_netlist::{
    CellId, CellLibrary, GateKind, Logic, LogicSet, NetId, Netlist, NetlistBuilder,
};
use scanguard_sim::Simulator;

/// Combinational kinds a random cone may instantiate.
const COMB: [GateKind; 14] = [
    GateKind::TieLo,
    GateKind::TieHi,
    GateKind::Buf,
    GateKind::Not,
    GateKind::And2,
    GateKind::And3,
    GateKind::Nand2,
    GateKind::Or2,
    GateKind::Or3,
    GateKind::Nor2,
    GateKind::Xor2,
    GateKind::Xor3,
    GateKind::Xnor2,
    GateKind::Mux2,
];

/// Builds a random netlist: `n_gated` flops first (the power-gated
/// domain, watermark = `n_gated`), then an always-on cone of `ops`
/// combinational gates over ports/gated-state/earlier gates, then
/// `n_aff` always-on flops reading the cone.
fn build_cone(
    n_ports: usize,
    n_gated: usize,
    ops: &[(u8, u16, u16, u16)],
    n_aff: usize,
) -> (Netlist, usize) {
    let mut b = NetlistBuilder::new("cone");
    let ports: Vec<NetId> = (0..n_ports).map(|i| b.input(&format!("p{i}"))).collect();
    let mut pool: Vec<NetId> = ports.clone();
    for i in 0..n_gated {
        let (q, _) = b.dff(&format!("g{i}"), ports[i % n_ports]);
        pool.push(q);
    }
    for (j, &(k, a, bb, c)) in ops.iter().enumerate() {
        let kind = COMB[(k as usize) % COMB.len()];
        let pick = |x: u16| pool[(x as usize) % pool.len()];
        let ins: Vec<NetId> = match kind.input_count() {
            0 => Vec::new(),
            1 => vec![pick(a)],
            2 => vec![pick(a), pick(bb)],
            _ => vec![pick(a), pick(bb), pick(c)],
        };
        let (q, _) = b.named_cell(&format!("u{j}"), kind, ins);
        pool.push(q);
    }
    for i in 0..n_aff {
        let d = pool[(i * 7 + 3) % pool.len()];
        let (q, _) = b.dff(&format!("a{i}"), d);
        pool.push(q);
    }
    let last = *pool.last().unwrap();
    b.output("y", last);
    (b.finish().expect("generated cone is well-formed"), n_gated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn static_xprop_is_conservative_vs_the_simulator(
        n_ports in 1usize..4,
        n_gated in 1usize..4,
        n_aff in 0usize..3,
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u16>()),
            1..30,
        ),
        port_bits in any::<u64>(),
        ff_bits in any::<u64>(),
    ) {
        let (nl, watermark) = build_cone(n_ports, n_gated, &ops, n_aff);
        let lib = CellLibrary::st120nm();
        let ctx = LintContext::new(&nl, &lib);
        let xp = XPropContext::build(&ctx, watermark);

        // Dynamic side: concrete known inputs and state, then collapse
        // the gated domain and settle.
        let mut sim = Simulator::new(&nl, &lib);
        sim.gate((0..watermark).map(CellId::from_index));
        for (i, (_, net)) in nl.input_ports().iter().enumerate() {
            sim.set_net(*net, Logic::from(port_bits >> (i % 64) & 1 == 1));
        }
        let mut k = 0usize;
        for (id, cell) in nl.cells() {
            if cell.kind().is_sequential() {
                sim.force_ff(id, Logic::from(ff_bits >> (k % 64) & 1 == 1));
                k += 1;
            }
        }
        sim.settle();
        sim.set_power(false);
        sim.settle();

        // Conservativeness on every driven net: dynamic X ⇒ static X.
        for (_, cell) in nl.cells() {
            let net = cell.output();
            if sim.value(net) == Logic::X {
                prop_assert!(
                    xp.net_set(net).may_be_x(),
                    "net {net} is X dynamically but statically {}",
                    xp.net_set(net),
                );
            }
        }
        // Capture conservativeness for always-on flops: if the value a
        // flop would latch at the next edge is X, SG204's capture set
        // must contain X (no false "clean" verdicts).
        for (id, cell) in nl.cells() {
            if id.index() < watermark || !cell.kind().is_sequential() {
                continue;
            }
            let ins: Vec<Logic> = cell.inputs().iter().map(|&n| sim.value(n)).collect();
            if cell.kind().eval(&ins) == Logic::X {
                prop_assert!(
                    xp.capture_set(&ctx, id).may_be_x(),
                    "flop {id} captures X dynamically but statically {}",
                    xp.capture_set(&ctx, id),
                );
            }
        }
    }
}

#[test]
fn ternary_eval_helpers_agree_with_logic_tables() {
    for a in Logic::ALL {
        assert_eq!(GateKind::Not.eval(&[a]), !a);
        assert_eq!(GateKind::Buf.eval(&[a]), a);
        assert_eq!(GateKind::Not.eval_set(&[a.into()]), LogicSet::singleton(!a));
        for b in Logic::ALL {
            assert_eq!(GateKind::And2.eval(&[a, b]), a & b);
            assert_eq!(GateKind::Or2.eval(&[a, b]), a | b);
            assert_eq!(GateKind::Xor2.eval(&[a, b]), a ^ b);
            assert_eq!(GateKind::Nand2.eval(&[a, b]), !(a & b));
            assert_eq!(GateKind::Nor2.eval(&[a, b]), !(a | b));
            assert_eq!(GateKind::Xnor2.eval(&[a, b]), !(a ^ b));
            assert_eq!(
                GateKind::And2.eval_set(&[a.into(), b.into()]),
                LogicSet::singleton(a & b)
            );
            assert_eq!(
                GateKind::Or2.eval_set(&[a.into(), b.into()]),
                LogicSet::singleton(a | b)
            );
            assert_eq!(
                GateKind::Xor2.eval_set(&[a.into(), b.into()]),
                LogicSet::singleton(a ^ b)
            );
            for c in Logic::ALL {
                assert_eq!(GateKind::Mux2.eval(&[a, b, c]), Logic::mux(a, b, c));
                assert_eq!(GateKind::Xor3.eval(&[a, b, c]), a ^ b ^ c);
            }
        }
    }
}
