//! Known-bad fixtures: every shipped rule has a fixture that *triggers*
//! it. Each test selects only the rule under scrutiny, breaks a healthy
//! design in precisely the way the rule exists to catch, and asserts
//! the diagnostic fires (and that the healthy design was clean first —
//! so the trigger is attributable to the sabotage, not a false
//! positive).

use scanguard_core::{CodeChoice, ProtectedDesign, Synthesizer};
use scanguard_designs::Fifo;
use scanguard_lint::{lint_design, lint_netlist, DesignView, LintReport, RuleSet, Severity};
use scanguard_netlist::{CellId, CellLibrary, GateKind, Netlist, NetlistBuilder};

fn protected() -> ProtectedDesign {
    Synthesizer::new(Fifo::generate(8, 8).netlist)
        .chains(8)
        .code(CodeChoice::hamming7_4())
        .test_width(4)
        .build()
        .expect("fifo8x8 synthesizes")
}

fn only(rule: &str) -> RuleSet {
    RuleSet::select(&[rule]).expect("known rule id")
}

/// Lints `design`'s netlist under a possibly doctored view.
fn lint_with(design: &ProtectedDesign, view: DesignView<'_>, rule: &str) -> LintReport {
    lint_design(&design.netlist, &design.library, view, &only(rule), None)
}

fn assert_fires(report: &LintReport, rule: &str) {
    assert!(
        report.diagnostics.iter().any(|d| d.rule == rule),
        "{rule} did not fire:\n{report}"
    );
}

#[test]
fn sg001_fires_on_a_floating_consumed_net() {
    let mut b = NetlistBuilder::new("t");
    let a = b.input("a");
    let (x, gate) = b.named_cell("g", GateKind::And2, vec![a, a]);
    b.output("y", x);
    let mut nl = b.finish().unwrap();
    // Sabotage: repoint the gate's second input at a driverless net.
    let orphan = nl.add_net(Some("orphan"));
    nl.set_cell_input(gate, 1, orphan);
    let report = lint_netlist(&nl, &CellLibrary::st120nm(), &only("SG001"), None);
    assert_fires(&report, "SG001");
    assert_eq!(report.error_count(), 1);
    assert!(report.diagnostics[0].message.contains("orphan"));
}

#[test]
fn sg002_fires_on_a_multi_driven_net() {
    // The builder refuses contention, so smuggle it in through raw
    // JSON (the linter must not trust validated-construction paths).
    let mut b = NetlistBuilder::new("t");
    let a = b.input("a");
    let x = b.not(a);
    let y = b.not(a);
    let z = b.and2(x, y);
    b.output("z", z);
    let nl = b.finish().unwrap();
    let mut v: serde_json::Value = serde_json::from_str(&nl.to_json().unwrap()).unwrap();
    let cells = v["cells"].as_array_mut().unwrap();
    let first_out = cells[0]["output"].clone();
    cells[1]["output"] = first_out;
    let doctored = Netlist::from_json_unvalidated(&serde_json::to_string(&v).unwrap()).unwrap();
    let report = lint_netlist(&doctored, &CellLibrary::st120nm(), &only("SG002"), None);
    assert_fires(&report, "SG002");
    assert!(report.diagnostics[0].message.contains("2 cells"));
}

#[test]
fn sg003_fires_on_a_dead_cell() {
    let mut b = NetlistBuilder::new("t");
    let a = b.input("a");
    let x = b.not(a);
    let _dead = b.not(x);
    b.output("y", x);
    let nl = b.finish().unwrap();
    let report = lint_netlist(&nl, &CellLibrary::st120nm(), &only("SG003"), None);
    assert_fires(&report, "SG003");
    assert_eq!(report.count(Severity::Warn), 1);
}

#[test]
fn sg004_fires_on_a_combinational_loop() {
    let mut b = NetlistBuilder::new("t");
    let a = b.input("a");
    let (x, and_cell) = b.named_cell("g_and", GateKind::And2, vec![a, a]);
    let (y, _) = b.named_cell("g_not", GateKind::Not, vec![x]);
    b.output("y", y);
    let mut nl = b.finish().unwrap();
    nl.set_cell_input(and_cell, 1, y); // close the cycle
    let report = lint_netlist(&nl, &CellLibrary::st120nm(), &only("SG004"), None);
    assert_fires(&report, "SG004");
    assert!(report.diagnostics[0].message.contains("2 cell(s)"));
}

#[test]
fn sg005_fires_on_an_unused_input_port() {
    let mut b = NetlistBuilder::new("t");
    let a = b.input("a");
    let _unused = b.input("nc");
    let x = b.not(a);
    b.output("y", x);
    let nl = b.finish().unwrap();
    let report = lint_netlist(&nl, &CellLibrary::st120nm(), &only("SG005"), None);
    assert_fires(&report, "SG005");
    assert!(report.diagnostics[0].message.contains("nc"));
}

#[test]
fn sg101_fires_when_a_retention_flop_falls_off_its_chain() {
    let design = protected();
    assert_eq!(
        lint_with(&design, design.lint_view(), "SG101").error_count(),
        0
    );
    // Sabotage: drop the first flop from chain 0's metadata.
    let mut chains = design.chains.clone();
    chains.chains[0].cells.remove(0);
    let view = DesignView {
        chains: &chains,
        ..design.lint_view()
    };
    let report = lint_with(&design, view, "SG101");
    assert_fires(&report, "SG101");
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.message.contains("on no scan chain")));
}

#[test]
fn sg102_fires_when_a_chain_stitch_is_cut() {
    let design = protected();
    assert_eq!(
        lint_with(&design, design.lint_view(), "SG102").error_count(),
        0
    );
    // Sabotage the netlist: rewire flop 2's scan pin to the scan-enable
    // net — a classic botched-ECO mispatch.
    let mut nl = design.netlist.clone();
    let victim = design.chains.chains[0].cells[2];
    nl.set_cell_input(victim, 1, design.chains.se);
    let report = lint_design(
        &nl,
        &design.library,
        design.lint_view(),
        &only("SG102"),
        None,
    );
    assert_fires(&report, "SG102");
    assert!(report.diagnostics[0].message.contains("position 2"));
}

#[test]
fn sg103_fires_on_unbalanced_chains() {
    let design = protected();
    assert_eq!(
        lint_with(&design, design.lint_view(), "SG103").count(Severity::Warn),
        0
    );
    let mut chains = design.chains.clone();
    chains.chains[0].cells.pop();
    let view = DesignView {
        chains: &chains,
        ..design.lint_view()
    };
    let report = lint_with(&design, view, "SG103");
    assert_fires(&report, "SG103");
    assert!(report.diagnostics[0].message.contains("unbalanced"));
}

#[test]
fn sg104_fires_on_stale_test_chain_metadata() {
    let design = protected();
    assert_eq!(
        lint_with(&design, design.lint_view(), "SG104").error_count(),
        0
    );
    let mut tm = design.test_mode.clone().expect("test mode configured");
    tm.test_chain_lens[0] += 1;
    let view = DesignView {
        test_mode: Some(&tm),
        ..design.lint_view()
    };
    let report = lint_with(&design, view, "SG104");
    assert_fires(&report, "SG104");
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.message.contains("does not match")));
}

#[test]
fn sg104_fires_when_test_width_does_not_divide_chains() {
    let design = protected();
    let mut tm = design.test_mode.clone().expect("test mode configured");
    tm.test_width = 3; // 8 chains % 3 != 0
    let view = DesignView {
        test_mode: Some(&tm),
        ..design.lint_view()
    };
    let report = lint_with(&design, view, "SG104");
    assert_fires(&report, "SG104");
    assert!(report.diagnostics[0].message.contains("does not divide"));
}

#[test]
fn sg201_fires_on_an_unisolated_domain_crossing() {
    let design = protected();
    assert_eq!(
        lint_with(&design, design.lint_view(), "SG201").error_count(),
        0
    );
    let wm = design.gated_watermark;
    // A gated combinational net...
    let gated_net = design
        .netlist
        .cells()
        .find(|(id, c)| id.index() < wm && !c.kind().is_sequential())
        .map(|(_, c)| c.output())
        .expect("fifo has gated gates");
    // ...wired straight into an always-on monitor gate.
    let victim = design
        .netlist
        .cells()
        .find(|(id, c)| id.index() >= wm && !c.inputs().is_empty())
        .map(|(id, _)| id)
        .expect("monitor has gates with inputs");
    let mut nl = design.netlist.clone();
    nl.set_cell_input(victim, 0, gated_net);
    let report = lint_design(
        &nl,
        &design.library,
        design.lint_view(),
        &only("SG201"),
        None,
    );
    assert_fires(&report, "SG201");
    assert!(report.diagnostics[0].message.contains("reads gated net"));
}

#[test]
fn sg202_fires_when_monitor_cells_sit_below_the_watermark() {
    let design = protected();
    assert_eq!(
        lint_with(&design, design.lint_view(), "SG202").error_count(),
        0
    );
    // Sabotage: claim the whole netlist is power-gated.
    let view = DesignView {
        gated_watermark: design.netlist.cell_count(),
        ..design.lint_view()
    };
    let report = lint_with(&design, view, "SG202");
    assert_fires(&report, "SG202");
    assert_eq!(report.error_count(), design.monitor.cells.len());
}

#[test]
fn sg203_fires_when_a_chain_bypasses_the_monitor() {
    let design = protected();
    assert_eq!(
        lint_with(&design, design.lint_view(), "SG203").error_count(),
        0
    );
    // Sabotage: rewire chain 0's first scan pin back to the raw si
    // port, bypassing the correction feedback.
    let mut nl = design.netlist.clone();
    let chain = &design.chains.chains[0];
    nl.set_cell_input(chain.cells[0], 1, chain.si);
    let report = lint_design(
        &nl,
        &design.library,
        design.lint_view(),
        &only("SG203"),
        None,
    );
    assert_fires(&report, "SG203");
    assert!(report.diagnostics[0].message.contains("chain 0"));
}

/// A gated flop's q and an always-on parity-store row (store rows are
/// the only always-on `Sdff`s in a Hamming monitor).
fn gated_q_and_store_row(design: &ProtectedDesign) -> (scanguard_netlist::NetId, String, CellId) {
    let wm = design.gated_watermark;
    let (gated_q, gated_name) = design
        .netlist
        .cells()
        .find(|(id, c)| id.index() < wm && c.kind().is_sequential())
        .map(|(_, c)| (c.output(), c.name().unwrap_or("?").to_owned()))
        .expect("fifo has gated flops");
    let store = design
        .netlist
        .cells()
        .find(|(id, c)| id.index() >= wm && c.kind() == GateKind::Sdff)
        .map(|(id, _)| id)
        .expect("monitor has store rows");
    (gated_q, gated_name, store)
}

#[test]
fn sg204_fires_on_a_gated_bypass_into_the_parity_store() {
    let design = protected();
    assert_eq!(
        lint_with(&design, design.lint_view(), "SG204").error_count(),
        0
    );
    // Sabotage: wire a gated flop's q straight onto a store row's d pin
    // — the bypass path the always-on store must never have.
    let (gated_q, gated_name, store) = gated_q_and_store_row(&design);
    let mut nl = design.netlist.clone();
    nl.set_cell_input(store, 0, gated_q);
    let report = lint_design(
        &nl,
        &design.library,
        design.lint_view(),
        &only("SG204"),
        None,
    );
    assert_fires(&report, "SG204");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "SG204")
        .unwrap();
    assert!(d.message.contains("capture X"));
    // The witness runs gated source → corrupted store bit.
    assert!(d.path.len() >= 2, "path must name source and sink: {d}");
    assert!(
        d.path[0].contains(&gated_name),
        "path starts at the gated flop: {d}"
    );
    assert_eq!(d.path.last(), d.cell.as_ref(), "path ends at the store bit");
}

#[test]
fn sg204_fires_when_a_store_scan_enable_comes_from_the_gated_domain() {
    let design = protected();
    // Sabotage: rewire a store row's se pin (the select of its internal
    // capture mux) from mon_en to a gated flop's q. With an X select
    // and disagreeing arms the capture goes X — the
    // mux-select-from-gated-domain variant.
    let (gated_q, gated_name, store) = gated_q_and_store_row(&design);
    let mut nl = design.netlist.clone();
    nl.set_cell_input(store, 2, gated_q);
    let report = lint_design(
        &nl,
        &design.library,
        design.lint_view(),
        &only("SG204"),
        None,
    );
    assert_fires(&report, "SG204");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "SG204")
        .unwrap();
    assert!(
        d.path.iter().any(|p| p.contains(&gated_name)),
        "witness names the gated select source: {d}"
    );
    assert_eq!(d.path.last(), d.cell.as_ref(), "path ends at the store bit");
}

#[test]
fn sg301_fires_when_arrivals_exceed_the_recorded_baseline() {
    let design = protected();
    assert_eq!(
        lint_with(&design, design.lint_view(), "SG301").error_count(),
        0
    );
    // Sabotage the baseline instead of the netlist: any real path now
    // "exceeds" it, which is exactly what a regressed design looks like.
    let view = DesignView {
        baseline_functional_ps: Some(0.001),
        ..design.lint_view()
    };
    let report = lint_with(&design, view, "SG301");
    assert_fires(&report, "SG301");
    assert!(report.diagnostics[0].message.contains("critical path grew"));
}

#[test]
fn sg302_fires_when_monitor_logic_feeds_a_functional_d_pin() {
    let design = protected();
    assert_eq!(
        lint_with(&design, design.lint_view(), "SG302").error_count(),
        0
    );
    let wm = design.gated_watermark;
    let mon_net = design
        .netlist
        .cells()
        .find(|(id, c)| id.index() >= wm && !c.kind().is_sequential())
        .map(|(_, c)| c.output())
        .expect("monitor has combinational gates");
    let victim = design
        .netlist
        .cells()
        .find(|(id, c)| id.index() < wm && c.kind().is_sequential())
        .map(|(id, _)| id)
        .expect("fifo has gated flops");
    let mut nl = design.netlist.clone();
    nl.set_cell_input(victim, 0, mon_net);
    let report = lint_design(
        &nl,
        &design.library,
        design.lint_view(),
        &only("SG302"),
        None,
    );
    assert_fires(&report, "SG302");
    assert!(report.diagnostics[0].message.contains("functional d pin"));
}
