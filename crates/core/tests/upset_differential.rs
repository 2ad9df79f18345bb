//! Differential oracle: the symbolic SG205/SG206 verdicts must agree
//! bit-for-bit with gate-level fault injection on the scalar simulator
//! (real clock-domain gating) for every sampled upset. The prover is only trusted because it never
//! disagrees with simulation.

use proptest::prelude::*;
use scanguard_core::{apply_sabotage, CodeChoice, ProtectedDesign, Sabotage, Synthesizer};
use scanguard_dft::{
    monitor_pass_outcomes, ErrorPattern, MonitorPassConfig, MonitorPassPorts, UpsetOutcome,
};
use scanguard_lint::upset::{retained_state, FailKind, UpsetReport};
use scanguard_lint::LintContext;
use scanguard_netlist::NetlistBuilder;
use std::sync::OnceLock;

fn bank(flops: usize, chains: usize, code: CodeChoice) -> ProtectedDesign {
    let mut b = NetlistBuilder::new("bank");
    for i in 0..flops {
        let d = b.input(&format!("d[{i}]"));
        let (q, _) = b.dff(&format!("r{i}"), d);
        b.output(&format!("q[{i}]"), q);
    }
    Synthesizer::new(b.finish().expect("valid netlist"))
        .chains(chains)
        .code(code)
        .build()
        .expect("synthesis")
}

/// One shared design per code family (synthesis dominates runtime).
fn design(idx: usize) -> &'static ProtectedDesign {
    static CELLS: [OnceLock<ProtectedDesign>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    let codes = [
        CodeChoice::hamming7_4(),
        CodeChoice::ExtendedHamming { m: 3 },
        CodeChoice::Parity { group_width: 4 },
        CodeChoice::Crc16,
    ];
    CELLS[idx].get_or_init(|| bank(48, 8, codes[idx]))
}

fn symbolic(design: &ProtectedDesign) -> UpsetReport {
    let ctx = LintContext::with_design(&design.netlist, &design.library, design.lint_view());
    ctx.upset_report()
        .expect("monitor view present")
        .as_ref()
        .expect("engine runs")
        .clone()
}

fn oracle(design: &ProtectedDesign, faults: &[ErrorPattern]) -> Vec<UpsetOutcome> {
    let mh = &design.monitor;
    let ports = MonitorPassPorts {
        mon_en: mh.mon_en,
        mon_decode: mh.mon_decode,
        mon_clear: mh.mon_clear,
        sig_cap: mh.sig_cap,
        err: mh.err,
        done: mh.done,
    };
    let cfg = MonitorPassConfig {
        streaming_err: mh.code.streaming_check(),
        decode_high: mh.code.streaming_check(),
    };
    let state = retained_state(design.chains.width(), design.chain_len());
    monitor_pass_outcomes(
        &design.netlist,
        &design.library,
        &design.chains,
        &ports,
        &cfg,
        &state,
        faults,
    )
}

/// What the symbolic report predicts for one fault: detection, and —
/// only under a correcting code, where SG205 claims it — correction.
fn predicted(rep: &UpsetReport, fault: &ErrorPattern) -> (bool, Option<bool>) {
    let kind = rep
        .failures
        .iter()
        .find(|f| f.pattern == *fault)
        .map(|f| f.kind);
    assert_ne!(kind, Some(FailKind::XAtSample), "verdicts must be sound");
    let detected = kind != Some(FailKind::MissedDetect);
    let corrected = if rep.corrects && matches!(fault, ErrorPattern::Single { .. }) {
        Some(kind != Some(FailKind::MissedCorrect))
    } else {
        None
    };
    (detected, corrected)
}

fn check_agreement(design: &ProtectedDesign, rep: &UpsetReport, faults: &[ErrorPattern]) {
    let simulated = oracle(design, faults);
    for (f, got) in faults.iter().zip(&simulated) {
        let (det, corr) = predicted(rep, f);
        assert_eq!(
            got.detected, det,
            "{}: symbolic and simulated detection disagree for {f:?}",
            rep.code
        );
        if let Some(corr) = corr {
            assert_eq!(
                got.corrected, corr,
                "{}: symbolic and simulated correction disagree for {f:?}",
                rep.code
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random single upsets on every clean code family: the exhaustive
    /// symbolic sweep and the injecting simulator must agree.
    #[test]
    fn clean_singles_match_simulation(
        code in 0usize..4,
        picks in proptest::collection::vec((0usize..8, 0usize..6), 1..8),
    ) {
        let d = design(code);
        let rep = symbolic(d);
        prop_assert!(rep.is_clean(), "shared designs verify clean");
        let faults: Vec<ErrorPattern> = picks
            .into_iter()
            .map(|(chain, depth)| ErrorPattern::Single { chain, depth })
            .collect();
        check_agreement(d, &rep, &faults);
    }

    /// Random claimed bursts (span 2, in-group) under the correcting
    /// codes: symbolic burst detection matches injection.
    #[test]
    fn clean_bursts_match_simulation(
        code in 0usize..2,
        group in 0usize..2,
        first in 0usize..3,
        depth in 0usize..6,
    ) {
        let d = design(code);
        let rep = symbolic(d);
        let faults = [ErrorPattern::Burst {
            first_chain: group * 4 + first,
            span: 2,
            depth,
        }];
        check_agreement(d, &rep, &faults);
    }
}

/// The seeded missed-correct bug: symbolic says exactly chain 0 goes
/// uncorrected; injection must paint the same boundary,
/// fault for fault, over the *entire* single-upset space.
#[test]
fn dropped_correction_boundary_matches_simulation_exhaustively() {
    let mut d = bank(32, 4, CodeChoice::hamming7_4());
    apply_sabotage(&mut d, Sabotage::DropCorrection).unwrap();
    let rep = symbolic(&d);
    assert!(rep.clean_failures.is_empty());
    assert!(!rep.failures.is_empty());
    let l = d.chain_len();
    let all_singles: Vec<ErrorPattern> = (0..4)
        .flat_map(|chain| (0..l).map(move |depth| ErrorPattern::Single { chain, depth }))
        .collect();
    check_agreement(&d, &rep, &all_singles);
    // And the boundary is exactly chain 0.
    for f in rep.failures {
        assert!(matches!(f.pattern, ErrorPattern::Single { chain: 0, .. }));
        assert_eq!(f.kind, FailKind::MissedCorrect);
    }
}
