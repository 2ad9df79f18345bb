//! Fig. 6/7 regression: the paper's error-injection experiment on the
//! 32x32 FIFO case study (Fig. 6's LFSR-driven row/column injector,
//! Fig. 7's single and row-burst patterns), plus the dynamic
//! complement of the static SG204 X-propagation verdict — a design the
//! rule proves clean must keep every always-on flop at a known value
//! while the gated domain is collapsed and `mon_en` is low.

use scanguard_core::{CodeChoice, Synthesizer};
use scanguard_designs::Fifo;
use scanguard_dft::{ErrorPattern, Lfsr};
use scanguard_lint::RuleSet;
use scanguard_netlist::{CellId, Logic};
use scanguard_sim::Simulator;

#[test]
fn fig67_lfsr_injection_on_the_paper_fifo() {
    // Sec. IV configuration: 80 chains of 13, Hamming(7,4) over groups
    // of four chains.
    let fifo = Fifo::generate(32, 32);
    let design = Synthesizer::new(fifo.netlist)
        .chains(80)
        .code(CodeChoice::hamming7_4())
        .build()
        .expect("paper configuration must synthesize");
    let width = design.chains.width();
    let len = design.chain_len();
    let mut rt = design.runtime();
    rt.load_random_state(0xF166);

    // Fig. 7(a): LFSR-selected single-bit upsets, one per sleep
    // episode. Hamming(7,4) must report and fully correct each.
    let mut lfsr = Lfsr::maximal(24, 0xF167);
    for episode in 0..3 {
        let pattern = ErrorPattern::random_single(&mut lfsr, width, len);
        let report = rt.sleep_wake(|sim, chains| {
            for (c, d) in pattern.flip_positions() {
                sim.flip_retention(chains.chains[c].cells[d]);
            }
            pattern.error_count()
        });
        assert_eq!(report.upsets, 1, "episode {episode}");
        assert!(
            report.error_observed,
            "episode {episode}: single upset {pattern:?} not reported"
        );
        assert!(
            report.state_intact(),
            "episode {episode}: single upset {pattern:?} not corrected"
        );
    }

    // Fig. 7(b): a two-chain burst inside one Hamming group (chains 0
    // and 1 share group 0) is a double error in a single codeword —
    // detected, but beyond the code's correction radius.
    let burst = ErrorPattern::Burst {
        first_chain: 0,
        span: 2,
        depth: 5,
    };
    let report = rt.sleep_wake(|sim, chains| {
        for (c, d) in burst.flip_positions() {
            sim.flip_retention(chains.chains[c].cells[d]);
        }
        burst.error_count()
    });
    assert_eq!(report.upsets, 2);
    assert!(report.error_observed, "in-group burst must be reported");
    assert!(
        !report.state_intact(),
        "a double error per codeword must defeat Hamming(7,4)"
    );
}

#[test]
fn sg204_clean_design_is_dynamically_x_free_while_mon_en_low() {
    let fifo = Fifo::generate(8, 8);
    let design = Synthesizer::new(fifo.netlist)
        .chains(8)
        .code(CodeChoice::hamming7_4())
        .build()
        .expect("synthesis");

    // Static side: SG204 proves no X from the collapsed domain reaches
    // always-on state while the monitor enables are low.
    let rules = RuleSet::select(&["SG204"]).expect("SG204 is registered");
    let report = design.lint(&rules, None);
    assert_eq!(report.error_count(), 0, "statically unclean:\n{report}");

    // Dynamic side: collapse the gated domain with every input port
    // (mon_en, mon_clear, se included) quiesced low and clock the
    // design for several chain lengths — the parity store, signature
    // and sequencer flops must never capture X.
    let mut sim = Simulator::new(&design.netlist, &design.library);
    sim.gate((0..design.gated_watermark).map(CellId::from_index));
    for (_, net) in design.netlist.input_ports() {
        sim.set_net(*net, Logic::Zero);
    }
    let seq: Vec<CellId> = design
        .netlist
        .cells()
        .filter(|(_, c)| c.kind().is_sequential())
        .map(|(id, _)| id)
        .collect();
    for &id in &seq {
        sim.force_ff(id, Logic::Zero);
    }
    sim.settle();
    sim.set_power(false);
    sim.settle();
    assert!(
        seq.iter()
            .any(|&id| id.index() < design.gated_watermark && sim.ff_value(id) == Logic::X),
        "power collapse should X the gated flops (fixture sanity)"
    );
    for cycle in 0..3 * design.chain_len() {
        sim.step();
        for &id in &seq {
            if id.index() < design.gated_watermark {
                continue;
            }
            assert!(
                sim.ff_value(id).is_known(),
                "cycle {cycle}: always-on flop {id} went X — SG204's \
                 static verdict disagrees with the simulator"
            );
        }
    }
}
