//! The byte-identity pins. Each test runs the `scanguard` binary and
//! compares what it writes with a committed fixture under
//! `tests/fixtures/`, or the two sides of a pair with each other:
//!
//! * Tables I/II (`sweep --json`), the Fig. 8 testbench
//!   (`validate --sequences 10`), the W=80 Hamming `cost` report, the
//!   wake sampler's `rush --trials 200` and `--trials 1000` and the
//!   datapath explore report at one and at four workers, against their
//!   fixtures;
//! * the scalar and wide fault-simulation engines on the 8x8 FIFO, on
//!   its `--scope all` fault list and on `scan_chain4.v`, against each
//!   other;
//! * two `verify fifo8x8` runs, and the `verilog` → `import` round trip;
//! * the scalar simulator's work counts on `validate --sequences 5`.
//!
//! A mismatch names the command and the first differing line. Do not
//! re-record a fixture to make a change pass: a pinned report that moves
//! means the change altered what the paper's numbers are made of.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `scanguard` with `cmdline`'s words and returns the command as
/// run and its stdout; panics on failure. A word `{tmp}/NAME` becomes the
/// scratch path [`tmp`]`(NAME)`, and `{fixtures}/NAME` a path under
/// `tests/fixtures/`.
fn scanguard(cmdline: &str) -> (String, Vec<u8>) {
    let args: Vec<String> = cmdline
        .split_whitespace()
        .map(|word| {
            if let Some(name) = word.strip_prefix("{tmp}/") {
                tmp(name).display().to_string()
            } else if let Some(name) = word.strip_prefix("{fixtures}/") {
                fixture(name).display().to_string()
            } else {
                word.to_string()
            }
        })
        .collect();
    let cmd = format!("scanguard {}", args.join(" "));
    let run = Command::new(env!("CARGO_BIN_EXE_scanguard"))
        .args(&args)
        .output()
        .expect("binary runs");
    assert!(
        run.status.success(),
        "{cmd}: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    (cmd, run.stdout)
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// Unique-per-process scratch file path.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("scanguard-pins-{}-{name}", std::process::id()))
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Reads and removes the scratch file `name`.
fn take(name: &str) -> Vec<u8> {
    let bytes = read(&tmp(name));
    let _ = std::fs::remove_file(tmp(name));
    bytes
}

/// Panics with the first differing line unless `got == want`.
fn assert_same(what: &str, got: &[u8], want: &[u8]) {
    if got == want {
        return;
    }
    let got = String::from_utf8_lossy(got);
    let want = String::from_utf8_lossy(want);
    let (mut g, mut w) = (got.lines(), want.lines());
    for line in 1.. {
        let (gl, wl) = (g.next(), w.next());
        if gl != wl {
            panic!(
                "{what}: first difference at line {line}\n  got:  {}\n  want: {}",
                gl.unwrap_or("<end of output>"),
                wl.unwrap_or("<end of output>")
            );
        }
        if gl.is_none() {
            break;
        }
    }
    panic!("{what}: outputs differ only in line endings");
}

/// `cmdline`'s stdout equals `tests/fixtures/NAME`.
fn pin_stdout(cmdline: &str, name: &str) {
    let (cmd, got) = scanguard(cmdline);
    assert_same(
        &format!("{cmd} vs tests/fixtures/{name}"),
        &got,
        &read(&fixture(name)),
    );
}

/// What `cmdline` writes to `{tmp}/NAME` equals `tests/fixtures/NAME`.
fn pin_file(cmdline: &str, name: &str) {
    let (cmd, _) = scanguard(cmdline);
    assert_same(
        &format!("{cmd} vs tests/fixtures/{name}"),
        &take(name),
        &read(&fixture(name)),
    );
}

#[test]
fn table1_matches_the_fixture() {
    pin_file("sweep --code crc16 --json {tmp}/table1.json", "table1.json");
}

#[test]
fn table2_matches_the_fixture() {
    pin_file(
        "sweep --code hamming:3 --json {tmp}/table2.json",
        "table2.json",
    );
}

#[test]
fn validate10_matches_the_fixture() {
    pin_stdout("validate --sequences 10 --quiet", "validate10.txt");
}

#[test]
fn cost_w80_hamming_matches_the_fixture() {
    pin_stdout(
        "cost --depth 32 --width 32 --chains 80 --code hamming:3",
        "cost_w80_hamming.txt",
    );
}

#[test]
fn rush200_matches_the_fixture() {
    pin_stdout("rush --trials 200", "rush200.txt");
}

/// Five times `rush200.txt`'s stream: the monitored full-bank row runs
/// the codec's recovery on 1,000 upset events instead of 200, so a
/// recovery that differs only on rare bursts shows here.
#[test]
fn rush1000_matches_the_fixture() {
    pin_stdout("rush --trials 1000", "rush1000.txt");
}

#[test]
fn datapath_explore_matches_the_fixture_at_one_and_four_threads() {
    for threads in [1, 4] {
        pin_file(
            &format!(
                "explore --design datapath8x16 --trials 40 --threads {threads} \
                 --out {{tmp}}/explore_datapath8x16.json"
            ),
            "explore_datapath8x16.json",
        );
    }
}

/// `coverage ARGS` writes the same deterministic report on both engines.
fn engines_agree(name: &str, args: &str) {
    let run = |engine: &str| {
        let (cmd, _) = scanguard(&format!(
            "coverage {args} --deterministic --quiet --engine {engine} \
             --json {{tmp}}/{name}-{engine}.json"
        ));
        (cmd, take(&format!("{name}-{engine}.json")))
    };
    let (scalar_cmd, scalar) = run("scalar");
    let (wide_cmd, wide) = run("wide");
    assert_same(&format!("{wide_cmd} vs {scalar_cmd}"), &wide, &scalar);
}

const FIFO8: &str =
    "--depth 8 --width 8 --chains 8 --code hamming:3 --test-width 4 --patterns 6 --threads 2";

#[test]
fn coverage_engines_agree_on_fifo8x8() {
    engines_agree("cov8", &format!("{FIFO8} --max-faults 40"));
}

#[test]
fn coverage_engines_agree_on_every_fifo8x8_fault() {
    engines_agree("cov8-all", &format!("{FIFO8} --max-faults 400 --scope all"));
}

#[test]
fn coverage_engines_agree_on_scan_chain4() {
    engines_agree("sc4", "--in {fixtures}/scan_chain4.v --patterns 4");
}

#[test]
fn verify_is_byte_identical_across_runs() {
    let (cmd, _) = scanguard("verify fifo8x8 --code hamming:3 --json {tmp}/verify1.json");
    scanguard("verify fifo8x8 --code hamming:3 --json {tmp}/verify2.json");
    assert_same(
        &format!("{cmd}, run twice"),
        &take("verify2.json"),
        &take("verify1.json"),
    );
}

#[test]
fn verilog_import_round_trip_is_a_fixed_point() {
    scanguard("verilog --design fifo32x32 --out {tmp}/rt1.v");
    let (cmd, _) = scanguard("import {tmp}/rt1.v --verilog {tmp}/rt2.v");
    assert_same(&cmd, &take("rt2.v"), &take("rt1.v"));
}

/// The scalar simulator's work on the Fig. 8 testbench: a settle change
/// that evaluates one cell more or less than the topological walk over
/// the cells with a changed input shows here.
#[test]
fn validate5_scalar_work_counts() {
    let (cmd, out) = scanguard("validate --sequences 5 --metrics --deterministic");
    let out = String::from_utf8(out).expect("utf-8 stdout");
    let json = &out[out.find('{').expect("metrics JSON on stdout")..];
    let metrics: Value = serde_json::from_str(json).expect("metrics are JSON");
    for (name, want) in [
        ("sim.cell_evals", 1_200_010),
        ("sim.cycles", 1_052),
        ("sim.settles", 2_960),
    ] {
        let got = metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64);
        assert_eq!(got, Some(want), "{cmd}: {name}");
    }
}
