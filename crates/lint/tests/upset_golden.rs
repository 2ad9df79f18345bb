//! Byte-identity goldens for the SG205/SG206 sweep.
//!
//! Each case synthesizes a design with the `verify` defaults (W = 8,
//! T = 4; W = 4 for the ring), optionally plants a seeded-bad surgery,
//! and compares the
//! sweep's `UpsetReport` JSON with a recorded fixture byte for byte.
//! Seeded cases also compare the counterexample VCD that
//! `scanguard verify --trace-out` writes: the golden-pass replay when
//! the clean pass broke, else the first failing upset.
//!
//! The fixtures under `tests/golden/upset/` were recorded from the
//! full-netlist engine, before the sweep settled only the live cone, so
//! they pin that pruning changes no verdict, cycle, witness or wave.
//! Re-record only from an engine already trusted to be correct:
//!
//! ```text
//! cargo test -p scanguard-lint --test upset_golden -- --ignored record
//! ```

use scanguard_core::{apply_sabotage, CodeChoice, ProtectedDesign, Sabotage, Synthesizer};
use scanguard_designs::Fifo;
use scanguard_lint::upset::counterexample;
use scanguard_lint::{LintContext, RuleSet};
use scanguard_netlist::{Netlist, NetlistBuilder};
use scanguard_obs::{Recorder, RecorderConfig};
use std::path::PathBuf;

/// The codes `verify` is benchmarked on, with their wire spellings.
const CODES: [(&str, CodeChoice); 4] = [
    ("hamming3", CodeChoice::Hamming { m: 3 }),
    ("secded3", CodeChoice::ExtendedHamming { m: 3 }),
    ("parity4", CodeChoice::Parity { group_width: 4 }),
    ("crc16", CodeChoice::Crc16),
];

struct Case {
    name: String,
    base: Base,
    code: CodeChoice,
    sabotage: Option<Sabotage>,
}

#[derive(Clone, Copy)]
enum Base {
    /// A `depth` x `width` FIFO.
    Fifo(usize, usize),
    /// Eight flops in a ring, each `d` the previous flop's output: the
    /// flops read each other in a cycle, so none can commit in place.
    Ring,
}

impl Base {
    fn netlist(self) -> Netlist {
        match self {
            Base::Fifo(depth, width) => Fifo::generate(depth, width).netlist,
            Base::Ring => {
                let mut b = NetlistBuilder::new("ring");
                let d = b.input("d");
                let (mut q, first) = b.dff("r0", d);
                for i in 1..8 {
                    q = b.dff(&format!("r{i}"), q).0;
                }
                b.output("q", q);
                let mut nl = b.finish().expect("valid netlist");
                nl.set_cell_input(first, 0, q);
                nl.revalidate().expect("the ring stays valid");
                nl
            }
        }
    }

    fn chains(self) -> usize {
        match self {
            Base::Fifo(..) => 8,
            Base::Ring => 4,
        }
    }
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (code_name, code) in CODES {
        let mut seeds = vec![
            None,
            Some(Sabotage::DropCorrection),
            Some(Sabotage::SwapGroups),
        ];
        // CRC monitors have no parity-store rows to mis-enable.
        if code != CodeChoice::Crc16 {
            seeds.push(Some(Sabotage::EarlyStore));
        }
        for sabotage in seeds {
            let seed = sabotage.map_or("clean", |s| s.name());
            out.push(Case {
                name: format!("fifo8x8-{code_name}-{seed}"),
                base: Base::Fifo(8, 8),
                code,
                sabotage,
            });
        }
    }
    for (code_name, code) in CODES {
        out.push(Case {
            name: format!("fifo32x32-{code_name}-clean"),
            base: Base::Fifo(32, 32),
            code,
            sabotage: None,
        });
    }
    for (code_name, code) in [CODES[0], CODES[3]] {
        for sabotage in [None, Some(Sabotage::DropCorrection)] {
            let seed = sabotage.map_or("clean", |s| s.name());
            out.push(Case {
                name: format!("ring8-{code_name}-{seed}"),
                base: Base::Ring,
                code,
                sabotage,
            });
        }
    }
    out
}

fn build(case: &Case) -> ProtectedDesign {
    let mut design = Synthesizer::new(case.base.netlist())
        .chains(case.base.chains())
        .code(case.code)
        .test_width(4)
        .build()
        .expect("synthesis");
    if let Some(s) = case.sabotage {
        apply_sabotage(&mut design, s).expect("surgery applies");
    }
    design
}

/// The report JSON and, for seeded cases, the counterexample VCD.
fn render(case: &Case) -> (String, Option<String>) {
    let design = build(case);
    let view = design.lint_view();
    let ctx = LintContext::with_design(&design.netlist, &design.library, view);
    let rep = ctx
        .upset_report()
        .expect("monitor view")
        .as_ref()
        .expect("engine runs");
    let json = serde_json::to_string_pretty(rep).expect("report serializes");
    let vcd = case.sabotage.and_then(|_| {
        let pattern = if rep.clean_failures.is_empty() {
            Some(&rep.failures.first()?.pattern)
        } else {
            None
        };
        Some(
            counterexample(&ctx, &view, pattern)
                .expect("replayable")
                .to_vcd(),
        )
    });
    (json, vcd)
}

fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/upset")
}

#[test]
fn sweep_reports_and_counterexamples_match_the_recorded_goldens() {
    let mut vcds = 0;
    for case in cases() {
        let (json, vcd) = render(&case);
        let want = std::fs::read_to_string(dir().join(format!("{}.json", case.name)))
            .unwrap_or_else(|e| panic!("{}: missing golden report: {e}", case.name));
        assert!(json == want, "{}: UpsetReport JSON drifted", case.name);
        let path = dir().join(format!("{}.vcd", case.name));
        match vcd {
            Some(vcd) => {
                let want = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("{}: missing golden VCD: {e}", case.name));
                assert!(vcd == want, "{}: counterexample VCD drifted", case.name);
                vcds += 1;
            }
            None => assert!(!path.exists(), "{}: stale golden VCD", case.name),
        }
    }
    assert_eq!(
        vcds, 10,
        "every failing seeded case replays a counterexample"
    );
}

#[test]
fn sweep_counts_its_live_cone() {
    let design = build(&Case {
        name: String::new(),
        base: Base::Fifo(8, 8),
        code: CodeChoice::Crc16,
        sabotage: None,
    });
    let ctx = LintContext::with_design(&design.netlist, &design.library, design.lint_view());
    let rec = Recorder::new(RecorderConfig {
        metrics: true,
        ..RecorderConfig::default()
    });
    let rules = RuleSet::select(&["SG205", "SG206"]).expect("deep rules exist");
    let _ = scanguard_lint::run(&ctx, &rules, Some(&rec));
    let counters = rec.metrics_snapshot().counters;
    let (live, all) = (
        counters["lint.upset.live_cells"],
        counters["lint.upset.cells"],
    );
    assert_eq!(all, design.netlist.cell_count() as u64);
    let latches = (8 * design.chain_len()) as u64;
    assert!(
        latches <= live && live < all,
        "the cone keeps every chain latch and drops the functional logic: {live} of {all}"
    );
}

#[test]
#[ignore = "re-records the goldens; run only on a trusted engine"]
fn record() {
    std::fs::create_dir_all(dir()).expect("golden dir");
    for case in cases() {
        let (json, vcd) = render(&case);
        std::fs::write(dir().join(format!("{}.json", case.name)), json).expect("write");
        if let Some(vcd) = vcd {
            std::fs::write(dir().join(format!("{}.vcd", case.name)), vcd).expect("write");
        }
    }
}
