//! A JSON netlist is trusted for its model only. The document used to
//! carry each net's driver and input flag, the port index and the
//! topological order, and the CLI simulated with whatever order and
//! port index the file held. These tests edit those keys the way a
//! stale or hand-edited file would and require the coverage report of
//! the untouched document, byte for byte. A net id past the net count
//! must be a typed error on every command that reads the file, not a
//! panic.
//!
//! The design is mesh4x4 with one chain, CRC-16 and test width 1,
//! exported by `verilog` and turned into JSON by `import --json`.

use scanguard_netlist::{NetId, Netlist};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scanguard(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scanguard"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "scanguard-json-trust-{}-{tag}.{ext}",
        std::process::id()
    ))
}

fn run_ok(args: &[&str]) {
    let run = scanguard(args);
    assert!(
        run.status.success(),
        "scanguard {args:?}:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
}

/// The mesh4x4 document as `import --json` writes it (`tag` keeps the
/// tests' files apart).
fn exported(tag: &str) -> String {
    let v = path(tag, "v");
    let json = path(tag, "json");
    let (v_arg, json_arg) = (v.to_str().unwrap(), json.to_str().unwrap());
    run_ok(&[
        "verilog",
        "--design",
        "mesh4x4",
        "--chains",
        "1",
        "--code",
        "crc16",
        "--test-width",
        "1",
        "--out",
        v_arg,
    ]);
    run_ok(&["import", v_arg, "--json", json_arg]);
    let doc = std::fs::read_to_string(&json).expect("import wrote the document");
    let _ = std::fs::remove_file(&v);
    let _ = std::fs::remove_file(&json);
    doc
}

/// The same netlist in the shape written before the document held the
/// model only: nets as `{name, driver, is_input}`, plus `port_index`
/// and `topo`, all correct.
fn with_caches(doc: &str) -> Value {
    let nl = Netlist::from_json(doc).expect("the export decodes");
    let mut v: Value = serde_json::from_str(doc).unwrap();
    let nets = v["nets"].as_array_mut().unwrap();
    for (i, net) in nets.iter_mut().enumerate() {
        let id = NetId::from_index(i);
        let name = std::mem::replace(net, Value::Null);
        *net = Value::Object(vec![
            ("name".into(), name),
            ("driver".into(), nl.driver(id).to_value()),
            (
                "is_input".into(),
                Value::Bool(nl.input_ports().iter().any(|(_, n)| *n == id)),
            ),
        ]);
    }
    let ports = nl.input_ports().iter().chain(nl.output_ports());
    v["port_index"] = Value::Object(ports.map(|(p, n)| (p.clone(), n.to_value())).collect());
    v["topo"] = nl.topo_order().to_value();
    v
}

/// `coverage --in FILE` as in the probe: its deterministic JSON report.
fn coverage(doc: &str, tag: &str) -> Vec<u8> {
    let input = path(tag, "json");
    let report = path(&format!("{tag}-cov"), "json");
    std::fs::write(&input, doc).unwrap();
    run_ok(&[
        "coverage",
        "--in",
        input.to_str().unwrap(),
        "--patterns",
        "8",
        "--max-faults",
        "200",
        "--deterministic",
        "--quiet",
        "--json",
        report.to_str().unwrap(),
    ]);
    let bytes = std::fs::read(&report).expect("coverage wrote its report");
    cleanup(&[&input, &report]);
    bytes
}

fn cleanup(paths: &[&Path]) {
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn cached_analyses_in_the_file_do_not_change_coverage() {
    let doc = exported("caches");
    let untouched = coverage(&doc, "untouched");
    let report: Value = serde_json::from_str(std::str::from_utf8(&untouched).unwrap()).unwrap();
    assert!(
        report["coverage"]["detected"].as_u64() > Some(0),
        "the probe detects nothing"
    );
    type Edit = fn(&mut Value);
    let edits: [(&str, Edit); 5] = [
        ("as-written", |_| {}),
        ("topo-reversed", |v| {
            v["topo"].as_array_mut().unwrap().reverse();
        }),
        ("topo-one-cell", |v| {
            v["topo"].as_array_mut().unwrap().truncate(1);
        }),
        ("topo-null", |v| v["topo"] = Value::Null),
        ("port-index-empty", |v| {
            v["port_index"] = Value::Object(vec![])
        }),
    ];
    for (tag, edit) in edits {
        let mut v = with_caches(&doc);
        edit(&mut v);
        let edited = coverage(&serde_json::to_string(&v).unwrap(), tag);
        assert!(
            edited == untouched,
            "{tag}: coverage differs from the untouched document:\n{}",
            String::from_utf8_lossy(&edited)
        );
    }
}

#[test]
fn a_net_id_past_the_net_count_is_a_netlist_error() {
    let mut v: Value = serde_json::from_str(&exported("bad-id")).unwrap();
    v["cells"][0]["output"] = 999_999u32.to_value();
    let input = path("bad-id", "json");
    std::fs::write(&input, serde_json::to_string(&v).unwrap()).unwrap();
    let input_arg = input.to_str().unwrap();
    for args in [
        &["lint", "--in", input_arg][..],
        &["coverage", "--in", input_arg, "--patterns", "8"][..],
    ] {
        let run = scanguard(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "scanguard {args:?}:\n{stderr}");
        assert!(
            stderr.contains(
                "invalid netlist document at cells[0].output: net 999999 is out of range"
            ),
            "scanguard {args:?}:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "scanguard {args:?}:\n{stderr}"
        );
    }
    cleanup(&[&input]);
}
