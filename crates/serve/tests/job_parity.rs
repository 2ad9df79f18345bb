//! The CLI and the daemon run one job layer: the same keys sent to the
//! `scanguard` binary (as `--flags`) and to the daemon (as a request
//! object) produce the same result. The CLI's `--json` / `--out` file
//! parses to exactly the daemon's `result` (or the part of it the file
//! carries), for generated designs and for an imported netlist given as
//! `--in FILE` on one side and inline `source` text on the other.

use scanguard_serve::{Daemon, Job, Params, ServeConfig};
use serde::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/scan_chain4.v")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "scanguard-parity-{tag}-{}.json",
        std::process::id()
    ))
}

/// Runs `scanguard <args> <out_flag> FILE` and returns the parsed file.
/// The exit status is not asserted: lint and verify exit nonzero on
/// findings and still write their file.
fn cli(tag: &str, args: &[&str], out_flag: &str) -> Value {
    let out = scratch(tag);
    let run = Command::new(env!("CARGO_BIN_EXE_scanguard"))
        .args(args)
        .arg(out_flag)
        .arg(&out)
        .args(["--deterministic", "--quiet"])
        .output()
        .expect("binary runs");
    let doc = std::fs::read_to_string(&out).unwrap_or_else(|e| {
        panic!(
            "{args:?} wrote no {out_flag} file ({e}); stderr: {}",
            String::from_utf8_lossy(&run.stderr)
        )
    });
    let _ = std::fs::remove_file(&out);
    serde_json::from_str(&doc).expect("the file is JSON")
}

/// Sends one request to an in-process daemon and returns its `result`.
fn daemon(request: Value) -> Value {
    let d = Daemon::new(&ServeConfig {
        slots: 2,
        ..ServeConfig::default()
    })
    .expect("daemon boots");
    let line = serde_json::to_string(&request).expect("request encodes");
    let resp: Value = serde_json::from_str(&d.handle_line(&line)).expect("response is JSON");
    assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "{resp:?}");
    resp.get("result")
        .expect("ok response has a result")
        .clone()
}

/// A request object: `type` plus `params`.
fn request(kind: &str, params: &[(&str, Value)]) -> Value {
    let mut fields = vec![("type".to_owned(), Value::Str(kind.to_owned()))];
    fields.extend(params.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
    Value::Object(fields)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_owned())
}

fn n(v: u64) -> Value {
    Value::Num(serde::Number::U(v))
}

fn source() -> Value {
    s(&std::fs::read_to_string(fixture()).expect("fixture reads"))
}

#[test]
fn lint_matches_on_a_generated_design() {
    let file = cli(
        "lint",
        &[
            "lint", "fifo8x8", "--chains", "8", "--code", "crc16", "--deny", "warn",
        ],
        "--json",
    );
    let result = daemon(request(
        "lint",
        &[
            ("design", s("fifo8x8")),
            ("chains", n(8)),
            ("code", s("crc16")),
            ("deny", s("warn")),
        ],
    ));
    assert_eq!(file, result);
    assert!(result.get("clean").is_some() && result.get("worst").is_some());
}

#[test]
fn verify_matches_on_a_generated_design() {
    let file = cli(
        "verify",
        &["verify", "fifo8x8", "--code", "hamming:3"],
        "--json",
    );
    let result = daemon(request(
        "verify",
        &[("design", s("fifo8x8")), ("code", s("hamming:3"))],
    ));
    assert_eq!(file, result);
    assert_eq!(result.get("clean"), Some(&Value::Bool(true)));
}

#[test]
fn coverage_matches_on_a_generated_design() {
    let file = cli(
        "coverage",
        &[
            "coverage",
            "--depth",
            "8",
            "--width",
            "8",
            "--chains",
            "8",
            "--test-width",
            "4",
            "--patterns",
            "4",
            "--max-faults",
            "40",
            "--threads",
            "2",
        ],
        "--json",
    );
    let result = daemon(request(
        "coverage",
        &[
            ("depth", n(8)),
            ("width", n(8)),
            ("chains", n(8)),
            ("test_width", n(4)),
            ("patterns", n(4)),
            ("max_faults", n(40)),
        ],
    ));
    assert_eq!(file, result);
}

#[test]
fn lint_and_coverage_match_on_an_imported_netlist() {
    let path = fixture();
    let path = path.to_str().expect("utf-8 path");
    let file = cli("lint-in", &["lint", "--in", path], "--json");
    let result = daemon(request("lint", &[("source", source())]));
    assert_eq!(file, result);

    let file = cli(
        "coverage-in",
        &["coverage", "--in", path, "--patterns", "4"],
        "--json",
    );
    let result = daemon(request(
        "coverage",
        &[("source", source()), ("patterns", n(4))],
    ));
    assert_eq!(file, result);
}

#[test]
fn explore_out_is_the_daemon_report() {
    let file = cli(
        "explore",
        &[
            "explore",
            "--design",
            "fifo8x8",
            "--trials",
            "5",
            "--threads",
            "2",
        ],
        "--out",
    );
    let result = daemon(request(
        "explore",
        &[("design", s("fifo8x8")), ("trials", n(5))],
    ));
    assert_eq!(Some(&file), result.get("report"));
}

#[test]
fn import_json_is_the_daemon_netlist() {
    let path = fixture();
    let file = cli(
        "import",
        &["import", path.to_str().expect("utf-8 path")],
        "--json",
    );
    let result = daemon(request(
        "import",
        &[("source", source()), ("netlist", Value::Bool(true))],
    ));
    assert_eq!(Some(&file), result.get("netlist"));
}

fn argv(pairs: &[(&str, &str)]) -> HashMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

#[test]
fn both_surfaces_read_the_same_keys() {
    let wire: Value = serde_json::from_str(
        r#"{"id":1,"type":"explore","design":"fifo8x8","test_width":3,"prune":false,"trials":7}"#,
    )
    .unwrap();
    let opts = argv(&[
        ("design", "fifo8x8"),
        ("test-width", "3"),
        ("no-prune", "true"),
        ("trials", "7"),
    ]);
    for p in [Params::Wire(&wire), Params::Argv(&opts, &[])] {
        let Job::Explore(job) = Job::parse("explore", &p).unwrap() else {
            panic!("explore parses as explore");
        };
        let spec = job.space().unwrap();
        assert_eq!(spec.test_width, Some(3));
        assert!(!spec.prune);
        assert_eq!(spec.trials, 7);
    }
}

#[test]
fn unknown_keys_and_wrong_types_are_rejected_per_surface() {
    let wire: Value = serde_json::from_str(r#"{"type":"lint","chain":4}"#).unwrap();
    let e = Job::parse("lint", &Params::Wire(&wire)).err().unwrap();
    assert!(e.contains("\"chain\"") && e.contains("chains"), "{e}");
    let opts = argv(&[("chain", "4"), ("json", "out.json")]);
    let e = Job::parse("lint", &Params::Argv(&opts, &["json"]))
        .err()
        .unwrap();
    assert!(e.contains("--chain ") && e.contains("--test-width"), "{e}");

    let wire: Value = serde_json::from_str(r#"{"type":"lint","chains":"8"}"#).unwrap();
    let e = Job::parse("lint", &Params::Wire(&wire)).err().unwrap();
    assert!(e.contains("non-negative integer"), "{e}");
    let opts = argv(&[("chains", "eight")]);
    let e = Job::parse("lint", &Params::Argv(&opts, &[])).err().unwrap();
    assert!(e.contains("--chains"), "{e}");
}

#[test]
fn hold_low_needs_an_imported_netlist() {
    let wire: Value = serde_json::from_str(r#"{"type":"coverage","hold_low":"rst"}"#).unwrap();
    let e = Job::parse("coverage", &Params::Wire(&wire)).err().unwrap();
    assert!(e.contains("\"source\""), "{e}");
}
