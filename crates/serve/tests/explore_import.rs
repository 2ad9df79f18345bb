//! `explore` on an imported netlist. The design is resolved from each
//! request's own source text: the CLI's `--out` file equals the
//! daemon's `result.report`, a repeated request answers byte for byte
//! as the first, and every label is the hash of the source text.

use scanguard_serve::{Daemon, ServeConfig};
use serde::Value;
use std::path::PathBuf;
use std::process::Command;

/// Eight plain flops (`d[i] -> q[i]`), no scan: explore protects it.
fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/regs8.v")
}

/// The label `explore` gives the fixture: `import` + its FNV-1a hash.
const LABEL: &str = "importb19b22d649f0f0dc";

fn explore_request(id: u64, source: &str) -> String {
    let request = Value::Object(vec![
        ("id".to_owned(), Value::Num(serde::Number::U(id))),
        ("type".to_owned(), Value::Str("explore".to_owned())),
        ("source".to_owned(), Value::Str(source.to_owned())),
    ]);
    serde_json::to_string(&request).expect("request encodes")
}

/// The `result.report` of an ok response.
fn report_of(resp: &str) -> Value {
    let v: Value = serde_json::from_str(resp).expect("response is JSON");
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{resp}");
    v.get("result")
        .and_then(|r| r.get("report"))
        .expect("explore answers a report")
        .clone()
}

#[test]
fn explore_on_an_imported_source_matches_across_surfaces_and_requests() {
    let source = std::fs::read_to_string(fixture()).expect("fixture reads");
    let out = std::env::temp_dir().join(format!(
        "scanguard-explore-import-{}.json",
        std::process::id()
    ));
    let run = Command::new(env!("CARGO_BIN_EXE_scanguard"))
        .args(["explore", "--in"])
        .arg(fixture())
        .arg("--out")
        .arg(&out)
        .args(["--threads", "2", "--deterministic", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let file: Value =
        serde_json::from_str(&std::fs::read_to_string(&out).expect("--out written")).unwrap();
    let _ = std::fs::remove_file(&out);

    let daemon = Daemon::new(&ServeConfig {
        slots: 2,
        log_level: scanguard_obs::Level::Off,
        ..ServeConfig::default()
    })
    .expect("daemon boots");
    let first = daemon.handle_line(&explore_request(1, &source));
    let second = daemon.handle_line(&explore_request(2, &source));
    assert_eq!(
        first.replacen(r#""id":1"#, r#""id":2"#, 1),
        second,
        "a repeated import answers identically"
    );
    let report = report_of(&first);
    assert_eq!(report, file, "CLI --out is the daemon's report");

    assert_eq!(report.get("design").and_then(Value::as_str), Some(LABEL));
    assert_eq!(report.get("ff_count").and_then(Value::as_u64), Some(8));
    let points = report
        .get("points")
        .and_then(Value::as_array)
        .expect("points");
    assert_eq!(points.len(), 21);
    assert!(points
        .iter()
        .all(|p| p.get("design").and_then(Value::as_str) == Some(LABEL)));
}
