//! Experiment runners — one per paper table/figure (see DESIGN.md's
//! per-experiment index). The paper-scale tests in `tests/paper.rs` and
//! the CLI's `sweep`, `validate`, `fig10` and `rush` commands call
//! these functions. Every cost figure comes from
//! [`scanguard_explore::build_metrics`], so a configuration's row is
//! the same here, in `scanguard cost` and in an explore report.

use crate::{FifoTestbench, InjectionMode, ValidationStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scanguard_codes::{BlockCode, Hamming, SequenceCodec};
use scanguard_core::{sample_wake_upsets, CodeChoice, CostRow};
use scanguard_explore::{build_design, build_metrics, DesignSpec};
use scanguard_power::{PowerNetwork, WakeStrategy};

/// The chain-count sweep of the paper's Tables I and II.
pub const PAPER_W_SWEEP: [usize; 5] = [4, 8, 16, 40, 80];

/// The chain counts the paper pairs with each Hamming code in Table III
/// (multiples of each code's data width).
pub const TABLE3_W: [usize; 4] = [56, 55, 52, 57];

/// Measures cost rows for `code` across a chain-count sweep on a
/// `depth x width` FIFO. Rows are measured in parallel (one design per
/// thread) and come back in sweep order.
///
/// # Errors
///
/// The build gate's reason for the first (in sweep order) chain count
/// it rejects, e.g. one that is not a multiple of the code's group
/// width.
pub fn cost_sweep(
    depth: usize,
    width: usize,
    code: CodeChoice,
    sweep: &[usize],
) -> Result<Vec<CostRow>, String> {
    let design = DesignSpec::Fifo { depth, width };
    scanguard_par::run_pool_obs(sweep.len(), sweep.len(), None, |_, i| {
        build_metrics(&design, sweep[i], code, None)
            .map(|m| m.row)
            .map_err(|r| r.detail().to_owned())
    })
    .into_iter()
    .collect()
}

/// **Table I**: CRC-16 cost sweep on the 32x32 FIFO.
///
/// # Panics
///
/// Panics if the build gate rejects a paper configuration (a
/// build-gate bug).
#[must_use]
pub fn table1() -> Vec<CostRow> {
    cost_sweep(32, 32, CodeChoice::crc16(), &PAPER_W_SWEEP).expect("Table I configurations build")
}

/// **Table II**: Hamming(7,4) cost sweep on the 32x32 FIFO.
///
/// # Panics
///
/// Panics if the build gate rejects a paper configuration (a
/// build-gate bug).
#[must_use]
pub fn table2() -> Vec<CostRow> {
    cost_sweep(32, 32, CodeChoice::hamming7_4(), &PAPER_W_SWEEP)
        .expect("Table II configurations build")
}

/// One row of the reproduced Table III.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Table3Row {
    /// Code name.
    pub code: String,
    /// Overhead, %.
    pub overhead_pct: f64,
    /// Encoding power, mW.
    pub enc_power_mw: f64,
    /// Maximum correction capability, % of codeword bits.
    pub capability_pct: f64,
}

/// **Table III**: the Hamming code family on the 32x32 FIFO, each with
/// its paper-matched chain count.
#[must_use]
pub fn table3() -> Vec<Table3Row> {
    let fifo = DesignSpec::Fifo {
        depth: 32,
        width: 32,
    };
    scanguard_par::run_pool_obs(TABLE3_W.len(), TABLE3_W.len(), None, |_, i| {
        let (m, w) = (3 + i as u32, TABLE3_W[i]);
        let row = build_metrics(&fifo, w, CodeChoice::Hamming { m }, None)
            .unwrap_or_else(|r| panic!("{}", r.detail()))
            .row;
        let code = Hamming::new(m).expect("family order");
        Table3Row {
            code: BlockCode::name(&code),
            overhead_pct: row.overhead_pct,
            enc_power_mw: row.enc_power_mw,
            capability_pct: code.correction_capability_pct(),
        }
    })
}

/// **Sec. IV validation**, experiment 1 and 2: single-error injection
/// (all corrected) and burst injection (all detected, none corrected by
/// plain Hamming) on the paper's protected 32x32 FIFO with 80 chains.
/// With a recorder, the three runs' sleep/wake traversals share its
/// controller lane and metric registry; the stats are unchanged by
/// observation.
///
/// # Panics
///
/// Panics if the testbench cannot be synthesized (a configuration bug).
#[must_use]
pub fn validation(
    sequences: u64,
    obs: Option<&std::sync::Arc<scanguard_obs::Recorder>>,
) -> ValidationRuns {
    let hamming = FifoTestbench::new(32, 32, 80, CodeChoice::hamming7_4()).expect("hamming tb");
    let single = hamming.run(sequences, InjectionMode::Single, 0x51, obs);
    let burst = hamming.run(sequences, InjectionMode::Burst { max_span: 4 }, 0xB5, obs);
    let crc = FifoTestbench::new(32, 32, 80, CodeChoice::crc16()).expect("crc tb");
    let crc_burst = crc.run(sequences, InjectionMode::Burst { max_span: 4 }, 0xC5, obs);
    ValidationRuns {
        hamming_single: single,
        hamming_burst: burst,
        crc_burst,
    }
}

/// The three Sec. IV validation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ValidationRuns {
    /// Hamming(7,4), one error per sequence.
    pub hamming_single: ValidationStats,
    /// Hamming(7,4), clustered multi-error per sequence.
    pub hamming_burst: ValidationStats,
    /// CRC-16, clustered multi-error per sequence (detection only).
    pub crc_burst: ValidationStats,
}

/// The one seed of the E7 wake-event draws (`tests/fixtures/rush200.txt`
/// pins its stream).
const RUSH_SEED: u64 = 0xC11;

/// One row of the rush-current ablation (E7): what each wake strategy
/// and the proposed monitoring buy, measured over Monte-Carlo wake
/// events.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RushRow {
    /// Strategy label.
    pub strategy: String,
    /// Peak shared-rail bounce, V.
    pub peak_bounce_v: f64,
    /// Wake latency in cycles at 100 MHz (plus decode latency when
    /// monitoring is on).
    pub wake_cycles: u64,
    /// Fraction of wake events with at least one retention upset.
    pub upset_prob: f64,
    /// Fraction of wake events that end with corrupted state (after
    /// correction, when monitoring is on).
    pub residual_prob: f64,
}

/// **E7 ablation**: rush-current reduction (refs \[7,8\]) vs. the proposed
/// monitoring over `trials` wake events on the paper FIFO's 80 x 13
/// retention array, drawn from seed `0xC11`.
///
/// Physical upsets cluster along the latch array (chain-major layout);
/// the monitor's codewords run *across* chains at equal depth, so the
/// scan order acts as an interleaver: a burst confined to one chain
/// lands every flip in a different codeword and is fully corrected,
/// while a wide burst hits same-depth pairs and defeats plain Hamming.
#[must_use]
pub fn ablation_rush(trials: u64) -> Vec<RushRow> {
    let (chains, chain_len) = (80, 13);
    let network = PowerNetwork::default_120nm();
    let code = Hamming::h7_4();
    let codec = SequenceCodec::new(Box::new(code));
    let strategies: Vec<(String, WakeStrategy, bool)> = vec![
        ("full-bank".into(), WakeStrategy::FullBank, false),
        (
            "staggered x2 [7]".into(),
            WakeStrategy::Staggered { groups: 2 },
            false,
        ),
        (
            "staggered x8 [7]".into(),
            WakeStrategy::Staggered { groups: 8 },
            false,
        ),
        (
            "slow-ramp x20 [8]".into(),
            WakeStrategy::SlowRamp { ramp_factor: 20.0 },
            false,
        ),
        (
            "full-bank + monitor (proposed)".into(),
            WakeStrategy::FullBank,
            true,
        ),
        (
            "staggered x8 + monitor".into(),
            WakeStrategy::Staggered { groups: 8 },
            true,
        ),
    ];
    strategies
        .into_iter()
        .map(|(name, strategy, monitored)| {
            let event = strategy.wake(&network);
            let (upset_events, residual_events) = sample_wake_upsets(
                chains,
                chain_len,
                event.peak_bounce_v,
                monitored.then_some(&codec),
                trials,
                RUSH_SEED,
            );
            let decode_cycles = if monitored { chain_len as u64 + 2 } else { 0 };
            RushRow {
                strategy: name,
                peak_bounce_v: event.peak_bounce_v,
                wake_cycles: event.wake_cycles(100.0) + decode_cycles,
                upset_prob: upset_events as f64 / trials as f64,
                residual_prob: residual_events as f64 / trials as f64,
            }
        })
        .collect()
}

/// One row of the recovery-scheme ablation (E9): hardware in-stream
/// correction vs. CRC detection with software reload (paper Sec. V's
/// closing alternative).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryRow {
    /// Scheme label.
    pub scheme: String,
    /// Monitor area overhead, %.
    pub monitor_overhead_pct: f64,
    /// Cycles from wake to recovered state (detection + repair).
    pub recovery_cycles: u64,
    /// Energy of the repair path, nJ.
    pub recovery_energy_nj: f64,
    /// Whether the corrupted state was fully recovered.
    pub recovered: bool,
    /// Break-even sleep duration for a net energy win, microseconds.
    pub break_even_us: f64,
}

/// **E9 ablation**: hardware correction (Hamming monitor) vs. software
/// recovery (CRC monitor + checkpoint reload through the test pins) on
/// a `depth x width` FIFO with `chains` chains and `test_width` pins.
///
/// # Panics
///
/// Panics if the configurations cannot be synthesized.
#[must_use]
pub fn ablation_recovery(
    depth: usize,
    width: usize,
    chains: usize,
    test_width: usize,
) -> Vec<RecoveryRow> {
    use scanguard_core::{checkpoint, restore};
    // The recovery run needs the design itself; the cost and break-even
    // columns are the same build's metrics.
    let build = |code: CodeChoice| {
        build_design(
            &DesignSpec::Fifo { depth, width },
            chains,
            code,
            Some(test_width),
        )
        .unwrap_or_else(|r| panic!("{}", r.detail()))
    };
    let mut rows = Vec::new();

    // Hardware correction.
    let (hw, hw_cost) = build(CodeChoice::hamming7_4());
    let mut rt = hw.runtime();
    rt.load_random_state(0xE9);
    let rep = rt.sleep_wake(|sim, ch| {
        sim.flip_retention(ch.chains[1].cells[2]);
        1
    });
    rows.push(RecoveryRow {
        scheme: "Hamming(7,4) hardware correction".into(),
        monitor_overhead_pct: hw_cost.row.overhead_pct,
        recovery_cycles: rep.decode.cycles,
        recovery_energy_nj: rep.decode.energy_nj(),
        recovered: rep.state_intact(),
        break_even_us: hw_cost.break_even.min_sleep_us,
    });

    // Software recovery.
    let (sw, sw_cost) = build(CodeChoice::crc16());
    let mut rt = sw.runtime();
    rt.load_random_state(0xEA);
    let cp = checkpoint(&mut rt);
    let rep = rt.sleep_wake(|sim, ch| {
        sim.flip_retention(ch.chains[1].cells[2]);
        1
    });
    let detected = rep.error_observed;
    let reload = restore(&mut rt, &cp);
    let recovered = detected && sw.chains.snapshot(rt.sim()) == cp.state();
    rows.push(RecoveryRow {
        scheme: "CRC-16 + software reload".into(),
        monitor_overhead_pct: sw_cost.row.overhead_pct,
        recovery_cycles: rep.decode.cycles + reload.cycles,
        recovery_energy_nj: rep.decode.energy_nj() + reload.energy.energy_nj(),
        recovered,
        break_even_us: sw_cost.break_even.min_sleep_us,
    });
    rows
}

/// One row of the SEC-DED ablation (E8).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SecdedRow {
    /// Code name.
    pub code: String,
    /// Average wrong bits left after decoding a same-word double error.
    pub avg_residual_bits: f64,
    /// Fraction of double errors that were *miscorrected* (a third bit
    /// flipped on top).
    pub miscorrection_rate: f64,
}

/// **E8 ablation**: plain vs. extended Hamming under same-word double
/// errors (the failure mode of the paper's Sec. IV experiment 2).
#[must_use]
pub fn ablation_secded(trials: u64, seed: u64) -> Vec<SecdedRow> {
    use scanguard_codes::ExtendedHamming;
    let codes: Vec<(String, Box<dyn BlockCode>)> = vec![
        ("Hamming(7,4)".into(), Box::new(Hamming::h7_4())),
        (
            "ExtHamming(8,4)".into(),
            Box::new(ExtendedHamming::new(Hamming::h7_4())),
        ),
    ];
    codes
        .into_iter()
        .map(|(name, code)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let k = code.k();
            let mut residual_sum = 0u64;
            let mut miscorrections = 0u64;
            for _ in 0..trials {
                let data: u64 = rng.gen::<u64>() & ((1 << k) - 1);
                let b1 = rng.gen_range(0..k);
                let b2 = (b1 + 1 + rng.gen_range(0..k - 1)) % k;
                let parity = code.encode(data);
                let corrupt = data ^ (1 << b1) ^ (1 << b2);
                let (fixed, _) = code.correct(corrupt, parity);
                let residual = (fixed ^ data).count_ones();
                residual_sum += u64::from(residual);
                if residual > 2 {
                    miscorrections += 1;
                }
            }
            SecdedRow {
                code: name,
                avg_residual_bits: residual_sum as f64 / trials as f64,
                miscorrection_rate: miscorrections as f64 / trials as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cost_sweep_has_paper_shape() {
        // 8x8 FIFO, W in {4, 8}: latency halves, area grows.
        let rows = cost_sweep(8, 8, CodeChoice::crc16(), &[4, 8]).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[1].latency_ns < rows[0].latency_ns);
        assert!(rows[1].area_um2 >= rows[0].area_um2);
        assert!(rows[1].enc_energy_nj < rows[0].enc_energy_nj);
    }

    #[test]
    fn rush_ablation_tells_the_papers_story() {
        let rows = ablation_rush(60);
        let by = |n: &str| {
            rows.iter()
                .find(|r| r.strategy.starts_with(n))
                .unwrap_or_else(|| panic!("missing {n}"))
        };
        let full = by("full-bank");
        let stag = by("staggered x8 [");
        let monitored = by("full-bank + monitor");
        // Reduction techniques reduce upsets but whatever slips through
        // stays; monitoring corrects most of it.
        assert!(stag.peak_bounce_v < full.peak_bounce_v);
        assert!(stag.upset_prob <= full.upset_prob);
        assert!(monitored.residual_prob < full.residual_prob);
        assert_eq!(full.residual_prob, full.upset_prob, "no correction");
    }

    /// The E7 rows at the paper's 80 x 13 array, pinned to the values
    /// recorded before the wake loop moved into `sample_wake_upsets`.
    #[test]
    fn rush_ablation_rows_are_pinned() {
        let row = |strategy: &str, peak_bounce_v, wake_cycles, upset_prob, residual_prob| RushRow {
            strategy: strategy.to_owned(),
            peak_bounce_v,
            wake_cycles,
            upset_prob,
            residual_prob,
        };
        let (full, x2, x8, ramp) = (
            0.208_312_474_367_261_1,
            0.150_258_880_410_607_14,
            0.058_927_318_557_535_42,
            0.028_681_020_695_970_47,
        );
        assert_eq!(
            ablation_rush(200),
            [
                row("full-bank", full, 1, 1.0, 1.0),
                row("staggered x2 [7]", x2, 2, 0.23, 0.23),
                row("staggered x8 [7]", x8, 6, 0.0, 0.0),
                row("slow-ramp x20 [8]", ramp, 5, 0.0, 0.0),
                row("full-bank + monitor (proposed)", full, 16, 1.0, 0.415),
                row("staggered x8 + monitor", x8, 21, 0.0, 0.0),
            ]
        );
    }

    #[test]
    fn recovery_ablation_trades_area_for_latency() {
        let rows = ablation_recovery(8, 8, 8, 4);
        let hw = &rows[0];
        let sw = &rows[1];
        assert!(hw.recovered && sw.recovered, "both schemes must recover");
        assert!(
            hw.monitor_overhead_pct > sw.monitor_overhead_pct,
            "hardware correction costs area: {hw:?} vs {sw:?}"
        );
        assert!(
            sw.recovery_cycles > hw.recovery_cycles,
            "software reload costs latency: {hw:?} vs {sw:?}"
        );
    }

    #[test]
    fn secded_ablation_shows_no_miscorrection_for_extended() {
        let rows = ablation_secded(500, 9);
        let plain = &rows[0];
        let ext = &rows[1];
        assert!(plain.miscorrection_rate > 0.3, "{plain:?}");
        assert_eq!(ext.miscorrection_rate, 0.0, "{ext:?}");
        assert!(ext.avg_residual_bits <= 2.0 + 1e-9);
        assert!(plain.avg_residual_bits > ext.avg_residual_bits);
    }
}
