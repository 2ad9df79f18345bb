//! Fuzz properties for the JSON netlist decoders: a document with
//! mutated net ids, pin counts, kinds or ports, garbled cache keys from
//! the format that stored drivers and the topological order, or cut
//! short, must give a typed error or a usable netlist, never a panic.
//!
//! - An `Ok` from `Netlist::from_json_unvalidated` is what `lint --in`
//!   reads, so it must survive `NetIndex::new` and every lint rule.
//! - An `Ok` from `Netlist::from_json` is what the simulating commands
//!   read, so it must re-encode to the bytes of its unvalidated decode,
//!   decode again to the same bytes, and give a topological order that
//!   lists each combinational cell once, after its combinational fanin.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scanguard_lint::{lint_netlist, RuleSet};
use scanguard_netlist::{CellLibrary, GateKind, NetIndex, Netlist, NetlistBuilder};
use serde::{Number, Serialize, Value};

/// A small scan design: every flop flavour, a mux and a tie cell.
fn base() -> String {
    let mut b = NetlistBuilder::new("fuzz");
    let a = b.input("a");
    let c = b.input("b");
    let si = b.input("si");
    let se = b.input("se");
    let x = b.xor2(a, c);
    let (q0, _) = b.sdff("q0", x, si, se);
    let (q1, _) = b.rsdff("q1", q0, q0, se);
    let m = b.mux2(se, q1, x);
    let (q2, _) = b.dff("q2", m);
    let (q3, _) = b.rdff("q3", q2);
    let one = b.tie_hi();
    let y = b.and3(q3, one, m);
    b.output("y", y);
    b.output("so", q1);
    b.finish().unwrap().to_json().unwrap()
}

fn num(n: i64) -> Value {
    if n < 0 {
        Value::Num(Number::I(n))
    } else {
        Value::Num(Number::U(n as u64))
    }
}

/// A net id: mostly in range, sometimes at or past the net count,
/// negative, fractional or not a number.
fn any_id(rng: &mut SmallRng, nets: i64) -> Value {
    match rng.gen_range(0..10) {
        0 => num(nets + rng.gen_range(0..3)),
        1 => num(-1 - rng.gen_range(0..3)),
        2 => Value::Num(Number::F(0.5)),
        3 => Value::Str("n0".into()),
        _ => num(rng.gen_range(0..nets)),
    }
}

/// Garbage of any JSON type, for the cache keys.
fn junk(rng: &mut SmallRng, nets: i64) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => any_id(rng, nets),
        3 => (0..rng.gen_range(0..6))
            .map(|_| any_id(rng, nets))
            .collect::<Vec<_>>()
            .to_value(),
        4 => Value::Object(vec![("a".into(), any_id(rng, nets))]),
        _ => Value::Str("topo".into()),
    }
}

/// Applies one random edit to the document.
fn mutate(doc: &mut Value, rng: &mut SmallRng) {
    let nets = doc["nets"].as_array().map_or(1, |n| n.len().max(1)) as i64;
    let cells = doc["cells"].as_array().map_or(0, Vec::len);
    let cell = rng.gen_range(0..cells.max(1));
    match rng.gen_range(0..9) {
        // A cell's output or one of its pins.
        0 if cells > 0 => doc["cells"][cell]["output"] = any_id(rng, nets),
        1 if cells > 0 => {
            if let Some(pins) = doc["cells"][cell]["inputs"].as_array_mut() {
                if !pins.is_empty() {
                    let pin = rng.gen_range(0..pins.len());
                    pins[pin] = any_id(rng, nets);
                }
            }
        }
        // One pin more or fewer than the kind takes.
        2 if cells > 0 => {
            if let Some(pins) = doc["cells"][cell]["inputs"].as_array_mut() {
                if rng.gen() || pins.is_empty() {
                    pins.push(num(0));
                } else {
                    pins.pop();
                }
            }
        }
        // Another kind (keeping the pins), or no kind at all.
        3 if cells > 0 => {
            let kinds = GateKind::ALL;
            doc["cells"][cell]["kind"] = match rng.gen_range(0..kinds.len() + 1) {
                k if k < kinds.len() => kinds[k].to_value(),
                _ => Value::Str("Nand4".into()),
            };
        }
        // A port net past the count, or a port name used twice.
        4 => {
            let list = if rng.gen() { "inputs" } else { "outputs" };
            let ports = doc[list].as_array().map_or(0, Vec::len);
            if ports > 0 {
                let port = rng.gen_range(0..ports);
                if rng.gen() {
                    doc[list][port][1] = any_id(rng, nets);
                } else if let Some(first) = doc["inputs"].as_array().and_then(|p| p.first()) {
                    let name = first[0].clone();
                    doc[list][port][0] = name;
                }
            }
        }
        // The cache keys of the format that stored analyses.
        5 => doc["topo"] = junk(rng, nets),
        6 => doc["port_index"] = junk(rng, nets),
        7 => {
            if let Some(list) = doc["nets"].as_array_mut().filter(|l| !l.is_empty()) {
                let net = rng.gen_range(0..list.len());
                let entry = &mut list[net];
                let name = std::mem::replace(entry, Value::Null);
                *entry = Value::Object(vec![
                    ("name".into(), name),
                    ("driver".into(), junk(rng, nets)),
                    ("is_input".into(), junk(rng, nets)),
                ]);
            }
        }
        // A net renamed to a non-string.
        _ => {
            if let Some(list) = doc["nets"].as_array_mut() {
                if let Some(entry) = list.first_mut() {
                    *entry = junk(rng, nets);
                }
            }
        }
    }
}

/// A validated netlist's order lists each combinational cell once,
/// after every combinational cell that drives one of its pins.
fn assert_usable_order(nl: &Netlist) {
    let order = nl.topo_order();
    let mut position = vec![None; nl.cell_count()];
    for (at, id) in order.iter().enumerate() {
        assert!(position[id.index()].is_none(), "{id} listed twice");
        position[id.index()] = Some(at);
    }
    for (id, cell) in nl.cells() {
        if cell.kind().is_sequential() {
            assert!(position[id.index()].is_none(), "flop {id} in the order");
            continue;
        }
        let at = position[id.index()].unwrap_or_else(|| panic!("{id} missing"));
        for &net in cell.inputs() {
            if let Some(driver) = nl.driver(net) {
                if !nl.cell(driver).kind().is_sequential() {
                    assert!(position[driver.index()] < Some(at), "{driver} after {id}");
                }
            }
        }
    }
}

fn check(json: &str) {
    let as_is = Netlist::from_json_unvalidated(json);
    if let Ok(nl) = &as_is {
        let _ = NetIndex::new(nl);
        let _ = lint_netlist(nl, &CellLibrary::st120nm(), &RuleSet::all(), None);
    }
    if let Ok(nl) = Netlist::from_json(json) {
        let doc = nl.to_json().unwrap();
        let as_is = as_is.expect("a validated decode is a decode");
        assert_eq!(
            doc,
            as_is.to_json().unwrap(),
            "validation changed the model"
        );
        let again = Netlist::from_json(&doc).expect("a re-encoding decodes");
        assert_eq!(
            again.to_json().unwrap(),
            doc,
            "re-encoding is not a fixed point"
        );
        assert_usable_order(&nl);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_documents_never_panic(seed in any::<u64>(), edits in 1usize..4) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut doc: Value = serde_json::from_str(&base()).unwrap();
        for _ in 0..edits {
            mutate(&mut doc, &mut rng);
        }
        check(&serde_json::to_string(&doc).unwrap());
    }

    #[test]
    fn truncated_documents_never_panic(cut in any::<u64>()) {
        let json = base();
        let cut = (cut as usize) % json.len();
        check(&json[..cut]);
    }
}

#[test]
fn the_untouched_document_decodes_both_ways() {
    let json = base();
    check(&json);
    assert!(Netlist::from_json(&json).is_ok());
}
