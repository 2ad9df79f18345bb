//! One configuration, one cost row: `scanguard cost`, `scanguard sweep
//! --json` and the full-bank point of `scanguard explore --out` report
//! the same area, overhead, power, latency, energy and break-even for
//! the same `(design, W, code)`, because all three measure it through
//! explore's `build_metrics`.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// fifo8x8 has 74 flops, so W = 37 gives equal chains of 2.
const DEPTH: &str = "8";
const WIDTH: &str = "8";
const CHAINS: &str = "37";

fn scanguard(args: &[&str]) -> String {
    let run = Command::new(env!("CARGO_BIN_EXE_scanguard"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        run.status.success(),
        "scanguard {args:?}: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    String::from_utf8(run.stdout).expect("utf-8 stdout")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("scanguard-{name}-{}.json", std::process::id()))
}

fn read_json(path: &Path) -> Value {
    let doc = std::fs::read_to_string(path).expect("output file written");
    let _ = std::fs::remove_file(path);
    serde_json::from_str(&doc).expect("output is JSON")
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing number {key}"))
}

#[test]
fn cost_sweep_and_explore_report_one_row_per_configuration() {
    let sweep_out = temp_path("cost-surfaces-sweep");
    scanguard(&[
        "sweep",
        "--depth",
        DEPTH,
        "--width",
        WIDTH,
        "--code",
        "crc16",
        "--chains",
        CHAINS,
        "--json",
        sweep_out.to_str().unwrap(),
    ]);
    let sweep = read_json(&sweep_out);
    let sweep = &sweep.as_array().expect("sweep rows")[0];

    let explore_out = temp_path("cost-surfaces-explore");
    scanguard(&[
        "explore",
        "--design",
        &format!("fifo{DEPTH}x{WIDTH}"),
        "--wmin",
        CHAINS,
        "--wmax",
        CHAINS,
        "--trials",
        "10",
        "--threads",
        "1",
        "--out",
        explore_out.to_str().unwrap(),
    ]);
    let report = read_json(&explore_out);
    let point = report
        .get("points")
        .and_then(Value::as_array)
        .expect("explore points")
        .iter()
        .find(|p| {
            p.get("code").and_then(Value::as_str) == Some("CRC-16")
                && p.get("chains").and_then(Value::as_u64) == Some(37)
                && p.get("wake").and_then(Value::as_str) == Some("full-bank")
        })
        .expect("the CRC-16 W=37 full-bank point");

    // sweep --json and explore --out carry the full-precision row.
    for (row_key, point_key) in [
        ("area_um2", "area_um2"),
        ("overhead_pct", "area_overhead_pct"),
        ("enc_power_mw", "enc_power_mw"),
        ("dec_power_mw", "dec_power_mw"),
        ("latency_ns", "latency_ns"),
        ("enc_energy_nj", "enc_energy_nj"),
        ("dec_energy_nj", "dec_energy_nj"),
    ] {
        assert_eq!(
            num(sweep, row_key),
            num(point, point_key),
            "sweep {row_key} vs explore {point_key}"
        );
    }

    // cost prints the same row (and break-even) at table precision.
    let cost = scanguard(&[
        "cost", "--depth", DEPTH, "--width", WIDTH, "--chains", CHAINS, "--code", "crc16",
    ]);
    let row = cost
        .lines()
        .find(|l| l.split_whitespace().next() == Some(CHAINS))
        .unwrap_or_else(|| panic!("no W={CHAINS} row in:\n{cost}"));
    let expected = format!(
        "{:>3} {:>5} {:>9.0} {:>6.1} {:>6.2} {:>6.2} {:>8.0} {:>7.2} {:>7.2}",
        CHAINS,
        num(point, "chain_len"),
        num(point, "area_um2"),
        num(point, "area_overhead_pct"),
        num(point, "enc_power_mw"),
        num(point, "dec_power_mw"),
        num(point, "latency_ns"),
        num(point, "enc_energy_nj"),
        num(point, "dec_energy_nj"),
    );
    assert_eq!(row, expected, "cost row vs explore point");
    let break_even = format!("must last >= {:.1} us", num(point, "min_sleep_us"));
    assert!(
        cost.contains(&break_even),
        "cost break-even vs explore point ({break_even}):\n{cost}"
    );
}

/// A chain count the build gate rejects is an error on `sweep` as on
/// `cost`: exit 1 with the gate's message, not a worker panic.
#[test]
fn sweep_answers_a_rejected_configuration_with_the_gate_message() {
    let run = Command::new(env!("CARGO_BIN_EXE_scanguard"))
        .args(["sweep", "--code", "hamming:3", "--chains", "6"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains(
            "fifo32x32/W6/Hamming(7,4): chain count 6 is not a multiple of the code group width 4"
        ),
        "stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}
