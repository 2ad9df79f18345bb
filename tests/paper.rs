//! The paper's claims at paper scale, one test per experiment of
//! DESIGN.md's index: Tables I–III, Figs. 9 and 10, the Sec. IV
//! validation (E1–E6) and the ablations E7–E10 plus constructed vs
//! analytic cost. Each test asserts the shape the paper reports, with
//! a message naming the row that broke it.
//!
//! Run one claim with e.g.
//! `cargo test -q -p scanguard-harness --test paper table1_crc16`.

use scanguard_core::{analytic_cost, CodeChoice, CostRow, Synthesizer};
use scanguard_designs::Fifo;
use scanguard_harness::paper::{PaperCostRow, FIG10_ANCHORS, TABLE1, TABLE2, TABLE3};
use scanguard_harness::{self as harness, cost_sweep, Fig10Config, PAPER_W_SWEEP};
use std::sync::OnceLock;

/// Table I's CRC-16 sweep, measured once per test binary.
fn crc_sweep() -> &'static [CostRow] {
    static ROWS: OnceLock<Vec<CostRow>> = OnceLock::new();
    ROWS.get_or_init(harness::table1)
}

/// Table II's Hamming(7,4) sweep, measured once per test binary.
fn hamming_sweep() -> &'static [CostRow] {
    static ROWS: OnceLock<Vec<CostRow>> = OnceLock::new();
    ROWS.get_or_init(harness::table2)
}

/// Checks the qualitative *shape* agreement between a measured sweep and
/// the paper's sweep: the exact `l x T` latency per W, and monotonicity
/// of latency/energy/area overhead in W. Returns a list of
/// human-readable violations (empty = shape holds).
fn check_sweep_shape(paper: &[PaperCostRow], ours: &[CostRow]) -> Vec<String> {
    let mut violations = Vec::new();
    if paper.len() != ours.len() {
        violations.push(format!(
            "row count mismatch: paper {} vs ours {}",
            paper.len(),
            ours.len()
        ));
        return violations;
    }
    for (p, o) in paper.iter().zip(ours) {
        if p.chains != o.chains {
            violations.push(format!("W mismatch: {} vs {}", p.chains, o.chains));
        }
        if (p.latency_ns - o.latency_ns).abs() > 1e-6 {
            violations.push(format!(
                "W={}: latency {} != paper {} (l x T is exact)",
                p.chains, o.latency_ns, p.latency_ns
            ));
        }
    }
    for w in ours.windows(2) {
        let at = format!("W={} -> W={}", w[0].chains, w[1].chains);
        if w[1].latency_ns >= w[0].latency_ns {
            violations.push(format!("{at}: latency must fall with W"));
        }
        if w[1].enc_energy_nj >= w[0].enc_energy_nj {
            violations.push(format!("{at}: encode energy must fall with W"));
        }
        if w[1].overhead_pct <= w[0].overhead_pct {
            violations.push(format!("{at}: area overhead must grow with W"));
        }
    }
    violations
}

fn fake_sweep(paper: &[PaperCostRow]) -> Vec<CostRow> {
    paper
        .iter()
        .map(|p| CostRow {
            code: "CRC-16".into(),
            chains: p.chains,
            chain_len: p.chain_len,
            area_um2: 80_000.0,
            overhead_pct: p.overhead_pct,
            enc_power_mw: 5.0,
            dec_power_mw: 5.0,
            latency_ns: p.latency_ns,
            enc_energy_nj: p.enc_energy_nj,
            dec_energy_nj: p.enc_energy_nj,
        })
        .collect()
}

#[test]
fn shape_checker_accepts_paper_like_sweeps() {
    assert!(check_sweep_shape(&TABLE1, &fake_sweep(&TABLE1)).is_empty());
}

#[test]
fn shape_checker_flags_inverted_trends() {
    let mut ours = fake_sweep(&TABLE1);
    ours[4].enc_energy_nj = 99.0;
    assert!(!check_sweep_shape(&TABLE1, &ours).is_empty());
}

/// E1, Table I: CRC-16 on the 32x32 FIFO, W in {4, 8, 16, 40, 80}.
#[test]
fn table1_crc16() {
    let rows = crc_sweep();
    let violations = check_sweep_shape(&TABLE1, rows);
    assert!(violations.is_empty(), "Table I shape: {violations:#?}");
    for w in rows.windows(2) {
        assert!(
            w[1].area_um2 > w[0].area_um2,
            "Table I: area must grow from W={} to W={}",
            w[0].chains,
            w[1].chains
        );
    }
}

/// E2, Table II: the same sweep with Hamming(7,4), and the cross-table
/// relation the paper highlights: Hamming costs more area than CRC-16
/// and more power (scan switching is the common dominant term).
#[test]
fn table2_hamming74() {
    let rows = hamming_sweep();
    let violations = check_sweep_shape(&TABLE2, rows);
    assert!(violations.is_empty(), "Table II shape: {violations:#?}");
    for (h, c) in rows.iter().zip(crc_sweep()) {
        assert!(
            h.overhead_pct > c.overhead_pct,
            "W={}: Hamming overhead {:.1}% must exceed CRC-16 {:.1}%",
            h.chains,
            h.overhead_pct,
            c.overhead_pct
        );
        assert!(
            h.enc_power_mw > c.enc_power_mw,
            "W={}: Hamming encode power {:.2} mW must exceed CRC-16 {:.2} mW",
            h.chains,
            h.enc_power_mw,
            c.enc_power_mw
        );
    }
}

/// E3, Table III: the Hamming family (7,4)..(63,57) at its matched W.
#[test]
fn table3_hamming_family() {
    let rows = harness::table3();
    for w in rows.windows(2) {
        assert!(
            w[1].overhead_pct < w[0].overhead_pct,
            "Table III: overhead must fall from {} to {}",
            w[0].code,
            w[1].code
        );
        assert!(
            w[1].enc_power_mw < w[0].enc_power_mw,
            "Table III: encode power must fall from {} to {}",
            w[0].code,
            w[1].code
        );
    }
    for (p, o) in TABLE3.iter().zip(&rows) {
        assert!(
            (p.capability_pct - o.capability_pct).abs() <= 0.05,
            "{}: capability {} vs paper {}",
            p.code,
            o.capability_pct,
            p.capability_pct
        );
    }
    assert!(
        rows[0].overhead_pct > 2.0 * rows[3].overhead_pct,
        "{} overhead {:.1}% must be over twice {} {:.1}%",
        rows[0].code,
        rows[0].overhead_pct,
        rows[3].code,
        rows[3].overhead_pct
    );
}

/// E4, Fig. 9: latency depends only on chain length (equal for both
/// codes, and exactly x20 from W=4 to W=80); Hamming coding energy
/// exceeds CRC-16's at every W.
#[test]
fn fig9_tradeoffs() {
    let (crc, ham) = (crc_sweep(), hamming_sweep());
    for (c, h) in crc.iter().zip(ham) {
        assert!(
            (c.latency_ns - h.latency_ns).abs() <= 1e-9,
            "W={}: latency {} (CRC-16) vs {} (Hamming) must depend only on chain length",
            c.chains,
            c.latency_ns,
            h.latency_ns
        );
        assert!(
            h.enc_energy_nj > c.enc_energy_nj,
            "W={}: Hamming coding energy {:.2} nJ must exceed CRC-16 {:.2} nJ",
            c.chains,
            h.enc_energy_nj,
            c.enc_energy_nj
        );
    }
    let drop = crc[0].latency_ns / crc[crc.len() - 1].latency_ns;
    assert!(
        (drop - 20.0).abs() <= 1e-6,
        "latency drop W=4 -> W=80 is x{drop}, paper x20"
    );
}

/// E5, Fig. 10: correction ability of the four Hamming codes with 1..=10
/// errors per 1000-bit sequence. 2,000 sequences per point keep the
/// debug build fast; the paper-scale 50,000 run is pinned byte for byte
/// against `tests/fixtures/fig10_50k.txt` by CI.
#[test]
fn fig10_correction() {
    let family = harness::fig10_family(&Fig10Config {
        sequences: 2_000,
        ..Fig10Config::default()
    });
    // The paper's injection details (burstiness, counting) are
    // under-specified, so its anchors are matched to 12 points; the
    // ordering matters more than the magnitude.
    for (code, injected, paper_pct) in FIG10_ANCHORS {
        let ours = family
            .iter()
            .find(|(n, _)| n == code)
            .and_then(|(_, pts)| pts.iter().find(|p| p.injected == injected))
            .expect("anchor point measured")
            .corrected_pct;
        assert!(
            (ours - paper_pct).abs() <= 12.0,
            "{code} @ {injected} errors: {ours:.2}% vs paper {paper_pct:.2}%"
        );
    }
    for k in 0..10 {
        let col: Vec<f64> = family.iter().map(|(_, pts)| pts[k].corrected_pct).collect();
        assert!(
            col.windows(2).all(|c| c[0] >= c[1]),
            "family ordering violated at {} errors: {col:?}",
            k + 1
        );
    }
    for (name, pts) in &family {
        assert!(
            pts[0].corrected_pct >= 99.999,
            "{name} must correct 100% of single errors, got {:.3}%",
            pts[0].corrected_pct
        );
        assert!(
            pts[9].corrected_pct <= pts[1].corrected_pct,
            "{name}: correction must degrade with error count ({:.2}% at 10 vs {:.2}% at 2)",
            pts[9].corrected_pct,
            pts[1].corrected_pct
        );
    }
    let (first, last) = (&family[0], &family[family.len() - 1]);
    assert!(
        first.1[0].corrected_pct >= first.1[9].corrected_pct,
        "{}: 1 error must correct at least as well as 10",
        first.0
    );
    assert!(
        first.1[9].corrected_pct > last.1[9].corrected_pct,
        "{} must beat {} at 10 errors",
        first.0,
        last.0
    );
}

/// E6, Sec. IV: the Fig. 8 testbench on the 32x32 FIFO, 80 chains of 13,
/// 40 sequences per experiment. Experiment 1: every single error
/// detected and corrected, no comparator mismatch. Experiment 2: bursts
/// defeat plain Hamming; CRC-16 detects every burst and corrects none.
#[test]
fn validation_sec4() {
    let runs = harness::validation(40, None);
    let s = &runs.hamming_single;
    assert!(
        s.errors_reported == s.sequences && s.sequences_recovered == s.sequences,
        "experiment 1 (Hamming, single error) must detect and correct all: {s:?}"
    );
    assert_eq!(
        s.comparator_mismatches, 0,
        "experiment 1 (Hamming, single error): comparator must never fire"
    );
    let b = &runs.hamming_burst;
    assert!(
        b.sequences_recovered < b.sequences / 2,
        "experiment 2 (Hamming, burst): bursts must defeat plain Hamming: {b:?}"
    );
    let c = &runs.crc_burst;
    assert_eq!(
        c.errors_reported, c.sequences,
        "experiment 2b (CRC-16, burst): CRC-16 must detect every burst"
    );
    assert_eq!(
        c.sequences_recovered, 0,
        "experiment 2b (CRC-16, burst): detection alone recovers nothing"
    );
}

/// E7: rush-current reduction (paper refs [7], [8]) vs the proposed
/// monitoring over 2,000 wake events on the 80x13 retention array, the
/// rows `scanguard rush --trials 2000` prints.
#[test]
fn ablation_rush() {
    let rows = harness::ablation_rush(2_000);
    assert_eq!(rows.len(), 6, "six wake strategies");
    let by = |n: &str| {
        rows.iter()
            .find(|r| r.strategy.starts_with(n))
            .unwrap_or_else(|| panic!("missing row {n}"))
    };
    let full = by("full-bank");
    let stag8 = by("staggered x8 [");
    let proposed = by("full-bank + monitor");
    assert!(
        stag8.peak_bounce_v < full.peak_bounce_v,
        "{}: staggering must reduce bounce",
        stag8.strategy
    );
    assert!(
        proposed.residual_prob < full.residual_prob,
        "{}: monitoring must reduce residual corruption ({} vs {})",
        proposed.strategy,
        proposed.residual_prob,
        full.residual_prob
    );
    assert!(
        (full.residual_prob - full.upset_prob).abs() <= 1e-12,
        "{}: without monitoring, every upset stays",
        full.strategy
    );
    assert!(
        proposed.wake_cycles > full.wake_cycles,
        "{}: monitoring must cost decode latency",
        proposed.strategy
    );
}

/// E8: plain vs extended Hamming under 100,000 same-word double errors.
#[test]
fn ablation_secded() {
    let rows = harness::ablation_secded(100_000, 0xE8);
    let (plain, ext) = (&rows[0], &rows[1]);
    assert_eq!(
        ext.miscorrection_rate, 0.0,
        "{}: SEC-DED must never miscorrect a double",
        ext.code
    );
    assert!(
        plain.miscorrection_rate > 0.2,
        "{}: plain Hamming should miscorrect a large share of doubles, got {}",
        plain.code,
        plain.miscorrection_rate
    );
    assert!(
        ext.avg_residual_bits <= 2.0,
        "{}: SEC-DED leaves exactly the injected bits, got {}",
        ext.code,
        ext.avg_residual_bits
    );
}

/// E9: hardware correction vs CRC-16 with software reload through the
/// test pins (paper Sec. V's closing alternative).
#[test]
fn ablation_recovery() {
    let rows = harness::ablation_recovery(32, 32, 80, 4);
    let (hw, sw) = (&rows[0], &rows[1]);
    for r in [hw, sw] {
        assert!(r.recovered, "{}: must recover a single upset", r.scheme);
    }
    assert!(
        hw.monitor_overhead_pct > sw.monitor_overhead_pct,
        "{} must cost more area than {}",
        hw.scheme,
        sw.scheme
    );
    assert!(
        sw.recovery_cycles > hw.recovery_cycles,
        "{} must cost more latency than {}",
        sw.scheme,
        hw.scheme
    );
}

/// E10: even parity vs CRC-16 detection. Parity stores one bit per word
/// per block, so its overhead is flat in W; CRC-16's store is fixed and
/// only its XOR network grows with W.
#[test]
fn ablation_detection() {
    let parity = CodeChoice::Parity { group_width: 4 };
    let overheads: Vec<f64> = cost_sweep(32, 32, parity, &PAPER_W_SWEEP)
        .iter()
        .map(|r| r.overhead_pct)
        .collect();
    let span = overheads.iter().fold(f64::MIN, |a, &b| a.max(b))
        - overheads.iter().fold(f64::MAX, |a, &b| a.min(b));
    assert!(
        span <= 8.0,
        "parity store is W-invariant; overhead span {span:.1} too wide"
    );
    for w in crc_sweep().windows(2) {
        assert!(
            w[1].overhead_pct > w[0].overhead_pct,
            "CRC-16 overhead must grow from W={} to W={}",
            w[0].chains,
            w[1].chains
        );
    }
}

/// Constructed-gate monitor area vs the closed-form analytic model: the
/// formula must track construction within 2x for both paper codes.
#[test]
fn ablation_analytic() {
    for code in [CodeChoice::crc16(), CodeChoice::hamming7_4()] {
        for &w in &PAPER_W_SWEEP {
            let design = Synthesizer::new(Fifo::generate(32, 32).netlist)
                .chains(w)
                .code(code)
                .build()
                .expect("synthesis");
            let constructed = design.protected.total_area_um2 - design.baseline.total_area_um2;
            let analytic = analytic_cost(1040, w, code, &design.library, 100.0);
            let ratio = analytic.monitor_area_um2 / constructed;
            assert!(
                ratio.max(1.0 / ratio) < 2.0,
                "{} W={w}: analytic {:.0} um^2 vs constructed {constructed:.0} um^2 (x{ratio:.2})",
                code.name(),
                analytic.monitor_area_um2
            );
        }
    }
}
