//! Clean-pass coverage: every built-in design — raw and synthesized
//! with each code family — must lint without Error-severity findings,
//! and the raw generators without Warn-severity ones either (no dead
//! logic in the shipped circuit generators).

use scanguard_core::{CodeChoice, Synthesizer};
use scanguard_designs::{
    counter_bank, lfsr_netlist, register_file, shift_register, Datapath, Fifo,
};
use scanguard_lint::{lint_netlist, RuleSet, Severity};
use scanguard_netlist::{CellLibrary, Netlist};

fn raw_designs() -> Vec<(&'static str, Netlist)> {
    vec![
        ("fifo8x8", Fifo::generate(8, 8).netlist),
        ("fifo32x32", Fifo::generate(32, 32).netlist),
        ("datapath4x8", Datapath::generate(4, 8).netlist),
        ("shift64", shift_register(64)),
        ("counters4x8", counter_bank(4, 8)),
        ("regfile8x8", register_file(8, 8)),
        ("lfsr16", lfsr_netlist(16, 0b1101_0000_0000_1000).0),
    ]
}

#[test]
fn raw_generators_are_error_and_warn_clean() {
    let lib = CellLibrary::st120nm();
    for (name, nl) in raw_designs() {
        let report = lint_netlist(&nl, &lib, &RuleSet::all(), None);
        assert_eq!(report.error_count(), 0, "{name} has lint errors:\n{report}");
        assert_eq!(
            report.count(Severity::Warn),
            0,
            "{name} has lint warnings (dead logic?):\n{report}"
        );
    }
}

#[test]
fn protected_designs_are_error_clean_for_every_code_family() {
    let codes: Vec<(&str, CodeChoice, usize)> = vec![
        ("hamming7_4", CodeChoice::hamming7_4(), 8),
        ("secded", CodeChoice::ExtendedHamming { m: 3 }, 8),
        ("crc16", CodeChoice::crc16(), 8),
        ("parity", CodeChoice::Parity { group_width: 4 }, 8),
    ];
    for (code_name, code, chains) in codes {
        let fifo = Fifo::generate(8, 8);
        let design = Synthesizer::new(fifo.netlist)
            .chains(chains)
            .code(code)
            .test_width(4)
            .build()
            .unwrap_or_else(|e| panic!("{code_name}: build failed: {e}"));
        let report = design.lint(&RuleSet::all(), None);
        assert_eq!(
            report.error_count(),
            0,
            "{code_name} protected fifo8x8 has lint errors:\n{report}"
        );
        assert_eq!(
            report.count(Severity::Warn),
            0,
            "{code_name} protected fifo8x8 has lint warnings:\n{report}"
        );
        // The raw per-chain si ports replaced by monitor feedback are
        // expected Info findings, nothing else is.
        for d in &report.diagnostics {
            assert_eq!(d.rule, "SG005", "unexpected info finding: {d}");
        }
    }
}

#[test]
fn sg204_is_clean_on_every_built_in_design_and_code_family() {
    // The X-propagation rule must prove every shipped monitor immune to
    // gated-domain collapse: all built-in generators × all four code
    // families, no SG204 finding anywhere.
    let codes: Vec<(&str, CodeChoice)> = vec![
        ("hamming7_4", CodeChoice::hamming7_4()),
        ("secded", CodeChoice::ExtendedHamming { m: 3 }),
        ("crc16", CodeChoice::crc16()),
        ("parity", CodeChoice::Parity { group_width: 4 }),
    ];
    let rules = RuleSet::select(&["SG204"]).expect("SG204 is registered");
    for (name, nl) in raw_designs() {
        for (code_name, code) in &codes {
            let design = Synthesizer::new(nl.clone())
                .chains(8)
                .code(*code)
                .test_width(4)
                .build()
                .unwrap_or_else(|e| panic!("{name}/{code_name}: build failed: {e}"));
            let report = design.lint(&rules, None);
            assert_eq!(
                report.error_count(),
                0,
                "{name}/{code_name} leaks X into always-on state:\n{report}"
            );
        }
    }
}

/// The gate explore's `build_metrics` applies: a test-mode build of
/// each built-in design lints without Error-severity findings.
#[test]
fn build_linted_accepts_all_built_in_protected_designs() {
    for (name, nl) in [
        ("fifo8x8", Fifo::generate(8, 8).netlist),
        ("datapath4x8", Datapath::generate(4, 8).netlist),
        ("regfile8x8", register_file(8, 8)),
    ] {
        let design = Synthesizer::new(nl)
            .chains(8)
            .code(CodeChoice::hamming7_4())
            .test_width(4)
            .build()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = design.lint(&RuleSet::all(), None);
        assert_eq!(report.error_count(), 0, "{name} has lint errors:\n{report}");
        assert!(design.baseline_timing.functional_ps > 0.0);
    }
}

#[test]
fn injector_overlay_stays_error_clean() {
    let fifo = Fifo::generate(8, 8);
    let design = Synthesizer::new(fifo.netlist)
        .chains(8)
        .code(CodeChoice::hamming7_4())
        .test_width(4)
        .with_injector(true)
        .build()
        .unwrap();
    let report = design.lint(&RuleSet::all(), None);
    assert_eq!(report.error_count(), 0, "injector build:\n{report}");
}
