//! The JSON netlist document.
//!
//! A document holds the model and nothing derived from it:
//! `{name, nets, cells, inputs, outputs}`, where `nets` lists each
//! net's name (or `null`), a cell is `{kind, inputs, output, name}` and
//! a port is a `[name, net]` pair. Each net's driver, the input flags
//! and the port index are rebuilt on decode from the cells and ports,
//! and the topological order by revalidation, so a document cannot
//! carry an analysis result that disagrees with its circuit. Unknown
//! keys are ignored: documents written with those caches still decode,
//! and the caches are dropped.
//!
//! [`Netlist::from_json_unvalidated`] and [`Netlist::from_json`] share
//! one decoder; only the second revalidates.

use crate::netlist::NetInfo;
use crate::{Cell, CellId, GateKind, NetId, Netlist, NetlistError};
use serde::{Deserialize, Serialize, Value};

impl Serialize for Netlist {
    fn to_value(&self) -> Value {
        let nets = self.nets.iter().map(|net| net.name.to_value()).collect();
        Value::Object(vec![
            ("name".to_owned(), self.name().to_value()),
            ("nets".to_owned(), Value::Array(nets)),
            ("cells".to_owned(), self.cells.to_value()),
            ("inputs".to_owned(), self.input_ports().to_value()),
            ("outputs".to_owned(), self.output_ports().to_value()),
        ])
    }
}

impl Netlist {
    /// Serializes the netlist's model (nets, cells and ports) to
    /// compact JSON.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Serialize`] if encoding fails (practically
    /// unreachable for this data model).
    pub fn to_json(&self) -> Result<String, NetlistError> {
        serde_json::to_string(self).map_err(|e| NetlistError::Serialize {
            message: e.to_string(),
        })
    }

    /// Decodes a netlist from JSON as written: every net id is checked
    /// against the net count, every cell's pin count against its kind,
    /// and port names for duplicates, but driver conflicts, floating
    /// nets and combinational loops are kept, so the linter can report
    /// them. The result is not validated: [`Netlist::topo_order`] needs
    /// a successful [`Netlist::revalidate`] first.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Serialize`] for malformed JSON,
    /// [`NetlistError::Document`] for a document that does not describe
    /// a netlist, or [`NetlistError::DuplicatePort`].
    pub fn from_json_unvalidated(json: &str) -> Result<Self, NetlistError> {
        decode(json)
    }

    /// Decodes a netlist from JSON and revalidates it, so a tampered or
    /// hand-edited document cannot smuggle in an inconsistent structure.
    ///
    /// # Errors
    ///
    /// The errors of [`Netlist::from_json_unvalidated`], or the usual
    /// validation errors for structurally broken netlists.
    pub fn from_json(json: &str) -> Result<Self, NetlistError> {
        let mut nl = decode(json)?;
        nl.revalidate()?;
        Ok(nl)
    }
}

/// The one decoder: reads the model and rebuilds drivers (each net's
/// first driving cell), input flags and the port index from it.
fn decode(json: &str) -> Result<Netlist, NetlistError> {
    let doc: Value = serde_json::from_str(json).map_err(|e| NetlistError::Serialize {
        message: e.to_string(),
    })?;
    let name = doc["name"]
        .as_str()
        .ok_or_else(|| bad("name", "expected a string"))?;
    let mut nl = Netlist::new_raw(name.to_owned());
    for (i, net) in list(&doc, "nets")?.iter().enumerate() {
        // A document written with the net caches holds
        // `{name, driver, is_input}` objects: only the name is read.
        let net = if net.as_object().is_some() {
            &net["name"]
        } else {
            net
        };
        let name = optional_string(net)
            .ok_or_else(|| bad(format!("nets[{i}]"), "expected a name or null"))?;
        nl.nets.push(NetInfo {
            name,
            driver: None,
            is_input: false,
        });
    }
    let net_count = nl.net_count();
    let net = |value: &Value, at: &dyn Fn() -> String| match value.as_u64() {
        Some(n) if n < net_count as u64 => Ok(NetId::from_index(n as usize)),
        Some(n) => Err(bad(
            at(),
            format!("net {n} is out of range ({net_count} nets)"),
        )),
        None => Err(bad(at(), "expected a net id")),
    };
    for (i, cell) in list(&doc, "cells")?.iter().enumerate() {
        let kind = GateKind::from_value(&cell["kind"])
            .map_err(|e| bad(format!("cells[{i}].kind"), e.to_string()))?;
        let pins = cell["inputs"]
            .as_array()
            .ok_or_else(|| bad(format!("cells[{i}].inputs"), "expected an array"))?;
        if pins.len() != kind.input_count() {
            return Err(bad(
                format!("cells[{i}].inputs"),
                format!(
                    "{kind:?} takes {} inputs, got {}",
                    kind.input_count(),
                    pins.len()
                ),
            ));
        }
        let inputs = pins
            .iter()
            .enumerate()
            .map(|(pin, v)| net(v, &|| format!("cells[{i}].inputs[{pin}]")))
            .collect::<Result<_, _>>()?;
        let output = net(&cell["output"], &|| format!("cells[{i}].output"))?;
        let name = optional_string(&cell["name"])
            .ok_or_else(|| bad(format!("cells[{i}].name"), "expected a string or null"))?;
        nl.nets[output.index()]
            .driver
            .get_or_insert(CellId::from_index(i));
        nl.cells.push(Cell::new(kind, inputs, output, name));
    }
    for (key, input) in [("inputs", true), ("outputs", false)] {
        for (i, port) in list(&doc, key)?.iter().enumerate() {
            let at = || format!("{key}[{i}]");
            let Some([name, id]) = port.as_array().map(Vec::as_slice) else {
                return Err(bad(at(), "expected a [name, net] pair"));
            };
            let name = name
                .as_str()
                .ok_or_else(|| bad(at(), "expected a port name"))?;
            nl.declare_port(name, net(id, &at)?, input)?;
        }
    }
    Ok(nl)
}

/// The array member `key` of the document.
fn list<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], NetlistError> {
    doc[key]
        .as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| bad(key, "expected an array"))
}

/// `Some(name)` for a string or `Some(None)` for `null`; `None` for
/// anything else.
fn optional_string(value: &Value) -> Option<Option<String>> {
    match value {
        Value::Null => Some(None),
        Value::Str(s) => Some(Some(s.clone())),
        _ => None,
    }
}

fn bad(at: impl Into<String>, message: impl Into<String>) -> NetlistError {
    NetlistError::Document {
        at: at.into(),
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("io");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.xor2(a, c);
        let (q, _) = b.sdff("r", x, a, c);
        b.output("q", q);
        b.finish().unwrap()
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let nl = sample();
        let json = nl.to_json().unwrap();
        let back = Netlist::from_json(&json).unwrap();
        assert_eq!(back.name(), nl.name());
        assert_eq!(back.cell_count(), nl.cell_count());
        assert_eq!(back.net_count(), nl.net_count());
        assert_eq!(back.input_ports(), nl.input_ports());
        assert_eq!(back.output_ports(), nl.output_ports());
        assert_eq!(back.topo_order(), nl.topo_order());
    }

    #[test]
    fn malformed_json_is_rejected() {
        let err = Netlist::from_json("{not json").unwrap_err();
        assert!(matches!(err, NetlistError::Serialize { .. }), "{err}");
    }

    #[test]
    fn structurally_broken_json_is_rejected() {
        // Serialize, then surgically orphan a net by giving a cell a
        // duplicate output (decode succeeds, revalidation must fail).
        let nl = sample();
        let mut v: serde_json::Value = serde_json::from_str(&nl.to_json().unwrap()).unwrap();
        // Point the second cell's output at the first cell's output net.
        let cells = v["cells"].as_array_mut().unwrap();
        if cells.len() >= 2 {
            let first_out = cells[0]["output"].clone();
            cells[1]["output"] = first_out;
        }
        let doctored = serde_json::to_string(&v).unwrap();
        assert!(Netlist::from_json(&doctored).is_err());
        assert!(Netlist::from_json_unvalidated(&doctored).is_ok());
    }

    #[test]
    fn the_document_holds_the_model_only() {
        let doc: Value = serde_json::from_str(&sample().to_json().unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["name", "nets", "cells", "inputs", "outputs"]);
        assert_eq!(doc["nets"][0], Value::Str("a".into()));
    }

    #[test]
    fn cached_analyses_in_a_document_are_ignored() {
        // The shape written before the model-only format: nets as
        // `{name, driver, is_input}` objects plus `port_index` and
        // `topo`, here all wrong. The decode rebuilds them.
        let nl = sample();
        let json = nl.to_json().unwrap();
        let mut doc: Value = serde_json::from_str(&json).unwrap();
        for net in doc["nets"].as_array_mut().unwrap() {
            let name = std::mem::replace(net, Value::Null);
            *net = Value::Object(vec![
                ("name".into(), name),
                ("driver".into(), 7u32.to_value()),
                ("is_input".into(), Value::Bool(true)),
            ]);
        }
        doc["port_index"] = Value::Object(vec![]);
        doc["topo"] = vec![1u32, 0].to_value();
        let back = Netlist::from_json(&serde_json::to_string(&doc).unwrap()).unwrap();
        assert_eq!(back.to_json().unwrap(), json);
        assert_eq!(back.topo_order(), nl.topo_order());
        assert_eq!(back.port("q").unwrap(), nl.port("q").unwrap());
        for (id, cell) in nl.cells() {
            assert_eq!(back.driver(cell.output()), Some(id));
        }
        assert_eq!(back.driver(nl.port("a").unwrap()), None);
    }

    #[test]
    fn ids_arities_and_ports_are_checked_on_decode() {
        let json = sample().to_json().unwrap();
        let edit = |f: &dyn Fn(&mut Value)| {
            let mut doc: Value = serde_json::from_str(&json).unwrap();
            f(&mut doc);
            Netlist::from_json_unvalidated(&serde_json::to_string(&doc).unwrap()).unwrap_err()
        };
        let err = edit(&|d| d["cells"][0]["output"] = 999_999u32.to_value());
        assert_eq!(
            err.to_string(),
            "invalid netlist document at cells[0].output: net 999999 is out of range (4 nets)"
        );
        let err = edit(&|d| d["cells"][1]["inputs"][2] = (-1i64).to_value());
        assert_eq!(
            err.to_string(),
            "invalid netlist document at cells[1].inputs[2]: expected a net id"
        );
        let err = edit(&|d| {
            d["cells"][0]["inputs"].as_array_mut().unwrap().pop();
        });
        assert_eq!(
            err.to_string(),
            "invalid netlist document at cells[0].inputs: Xor2 takes 2 inputs, got 1"
        );
        let err = edit(&|d| {
            let first = d["inputs"][0].clone();
            d["outputs"].as_array_mut().unwrap().push(first);
        });
        assert_eq!(err, NetlistError::DuplicatePort { name: "a".into() });
        let err = edit(&|d| d["outputs"][0][1] = 5u32.to_value());
        assert!(err.to_string().contains("at outputs[0]: net 5"), "{err}");
    }
}
