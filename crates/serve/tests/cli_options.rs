//! The CLI's option errors: an unknown option is named as unknown
//! whether or not a value follows it, and a known option without its
//! value is named as missing one. A zero sample count or `--wmin 0` is
//! refused, not run. Also: a run whose stdout reader goes away ends
//! without a panic.

use std::process::{Command, Stdio};

/// Runs the binary, expecting exit 1; returns its stderr.
fn failing(args: &[&str]) -> String {
    let run = Command::new(env!("CARGO_BIN_EXE_scanguard"))
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
    assert_eq!(run.status.code(), Some(1), "scanguard {args:?}:\n{stderr}");
    stderr
}

#[test]
fn an_unknown_option_without_a_value_is_named_unknown() {
    let stderr = failing(&["rush", "--trials", "10", "--bogus"]);
    assert!(
        stderr.contains("unknown option --bogus for rush"),
        "stderr:\n{stderr}"
    );
    // Job commands check their own key sets the same way.
    let stderr = failing(&["lint", "fifo8x8", "--bogus"]);
    assert!(
        stderr.contains("unknown option --bogus for lint"),
        "stderr:\n{stderr}"
    );
}

#[test]
fn a_known_option_without_a_value_is_named_missing() {
    let stderr = failing(&["lint", "fifo8x8", "--deny"]);
    assert!(
        stderr.contains("missing value for --deny"),
        "stderr:\n{stderr}"
    );
    let stderr = failing(&["rush", "--trials"]);
    assert!(
        stderr.contains("missing value for --trials"),
        "stderr:\n{stderr}"
    );
}

#[test]
fn validate_has_no_mode_option() {
    let stderr = failing(&["validate", "--sequences", "1", "--mode", "burst"]);
    assert!(
        stderr.contains("unknown option --mode for validate"),
        "stderr:\n{stderr}"
    );
}

#[test]
fn a_closed_stdout_ends_the_run_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scanguard"))
        .args(["verilog", "--design", "fifo32x32"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The reader goes away before the first line is written.
    drop(child.stdout.take());
    let run = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert_ne!(run.status.code(), Some(101), "stderr:\n{stderr}");
}

#[test]
fn a_zero_sample_count_is_refused_by_name() {
    for (args, names) in [
        (
            &["fig10", "--sequences", "0"][..],
            "--sequences must be at least 1",
        ),
        (
            &["rush", "--trials", "0"][..],
            "--trials must be at least 1",
        ),
        (
            &["explore", "--design", "fifo4x4", "--trials", "0"][..],
            "--trials must be at least 1",
        ),
    ] {
        let stderr = failing(args);
        assert!(stderr.contains(names), "scanguard {args:?}:\n{stderr}");
    }
}

#[test]
fn explore_refuses_a_zero_wmin_without_a_panic() {
    let stderr = failing(&[
        "explore", "--design", "fifo4x4", "--trials", "10", "--wmin", "0",
    ]);
    assert!(
        stderr.contains("--wmin must be at least 1"),
        "stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}
