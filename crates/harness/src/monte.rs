//! The Fig. 10 Monte-Carlo experiment: error-correction ability of the
//! four Hamming codes as a function of injected error count.
//!
//! The paper injects 1..=10 random errors into 1000-bit test sequences
//! (one million sequences) and passes each sequence through the four
//! Hamming implementations, reporting the percentage of errors
//! corrected. This module reproduces that experiment, in both the
//! paper's uniform-random injection and the clustered *burst* injection
//! the physical upset model produces (where correction is strictly
//! harder).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scanguard_codes::{Hamming, SequenceCodec};

/// Configuration of a Fig. 10 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Fig10Config {
    /// Sequence length in bits (the paper uses 1000).
    pub bits: usize,
    /// Error counts to sweep (1..=`max_errors`).
    pub max_errors: usize,
    /// Sequences per point (the paper uses 1e6 in total).
    pub sequences: u64,
    /// `false` = uniform random positions (the paper's Fig. 10 setup);
    /// `true` = clustered bursts (adjacent positions), the shape real
    /// rush-current upsets take.
    pub burst: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Fig10Config {
            bits: 1000,
            max_errors: 10,
            sequences: 10_000,
            burst: false,
            seed: 0x000F_1610,
        }
    }
}

/// One point of a Fig. 10 curve.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig10Point {
    /// Errors injected per sequence.
    pub injected: usize,
    /// Percentage of injected errors corrected (miscorrections count
    /// against, exactly as residual wrong bits).
    pub corrected_pct: f64,
    /// Percentage of sequences in which at least one word reported an
    /// error (detection coverage).
    pub detected_pct: f64,
}

/// Runs the Fig. 10 experiment for one code, returning one point per
/// error count `1..=max_errors`.
///
/// A sequence's corrected fraction is
/// `max(0, injected - residual_wrong_bits) / injected`, so a
/// miscorrection that adds a third wrong bit is penalised — matching the
/// hardware outcome where the restored state simply has wrong bits.
#[must_use]
pub fn fig10_curve(code: &Hamming, cfg: &Fig10Config) -> Vec<Fig10Point> {
    let codec = SequenceCodec::new(Box::new(code.clone()));
    let mut points = Vec::with_capacity(cfg.max_errors);
    for injected in 1..=cfg.max_errors {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (injected as u64).wrapping_mul(0x9E37));
        let mut corrected_sum = 0.0f64;
        let mut detected = 0u64;
        for _ in 0..cfg.sequences {
            let original: Vec<bool> = (0..cfg.bits).map(|_| rng.gen()).collect();
            let parities = codec.protect(&original);
            let mut corrupted = original.clone();
            for &pos in &draw_positions(&mut rng, cfg.bits, injected, cfg.burst) {
                corrupted[pos] = !corrupted[pos];
            }
            let report = codec.recover(&mut corrupted, &parities);
            if report.any_error() {
                detected += 1;
            }
            let residual = corrupted
                .iter()
                .zip(&original)
                .filter(|(a, b)| a != b)
                .count();
            let fixed = injected.saturating_sub(residual);
            corrected_sum += fixed as f64 / injected as f64;
        }
        points.push(Fig10Point {
            injected,
            corrected_pct: corrected_sum / cfg.sequences as f64 * 100.0,
            detected_pct: detected as f64 / cfg.sequences as f64 * 100.0,
        });
    }
    points
}

/// Runs the experiment for the paper's whole code family, in parallel
/// (one thread per code).
#[must_use]
pub fn fig10_family(cfg: &Fig10Config) -> Vec<(String, Vec<Fig10Point>)> {
    let codes = Hamming::paper_family();
    scanguard_par::run_pool_obs(codes.len(), codes.len(), None, |_, i| {
        (
            scanguard_codes::BlockCode::name(&codes[i]),
            fig10_curve(&codes[i], cfg),
        )
    })
}

fn draw_positions(rng: &mut SmallRng, bits: usize, count: usize, burst: bool) -> Vec<usize> {
    if burst {
        // A contiguous cluster at a random offset.
        let start = rng.gen_range(0..bits - count + 1);
        (start..start + count).collect()
    } else {
        // Distinct uniform positions.
        let mut positions = Vec::with_capacity(count);
        while positions.len() < count {
            let p = rng.gen_range(0..bits);
            if !positions.contains(&p) {
                positions.push(p);
            }
        }
        positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(burst: bool) -> Fig10Config {
        Fig10Config {
            bits: 1000,
            max_errors: 10,
            sequences: 400,
            burst,
            seed: 99,
        }
    }

    #[test]
    fn single_errors_are_always_fully_corrected() {
        for code in Hamming::paper_family() {
            let pts = fig10_curve(&code, &small_cfg(false));
            assert!((pts[0].corrected_pct - 100.0).abs() < 1e-9, "{pts:?}");
            assert!((pts[0].detected_pct - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn correction_degrades_with_error_count() {
        let pts = fig10_curve(&Hamming::h63_57(), &small_cfg(false));
        assert!(pts.first().unwrap().corrected_pct > pts.last().unwrap().corrected_pct);
    }

    #[test]
    fn smaller_codes_correct_better_fig10_ordering() {
        // Fig. 10's headline: (7,4) best, (63,57) worst, at high error
        // counts.
        let family = fig10_family(&small_cfg(false));
        let at10: Vec<f64> = family.iter().map(|(_, pts)| pts[9].corrected_pct).collect();
        assert!(
            at10[0] > at10[1] && at10[1] > at10[2] && at10[2] > at10[3],
            "{at10:?}"
        );
        // Magnitudes in the paper's ballpark: (7,4) >= 90%, (63,57) ~50-75%.
        assert!(at10[0] > 90.0, "(7,4) at 10 errors: {}", at10[0]);
        assert!(at10[3] < 80.0, "(63,57) at 10 errors: {}", at10[3]);
    }

    #[test]
    fn double_error_rates_match_the_words_collision_model() {
        // With uniform doubles, failure requires both errors in one
        // k-bit word: probability ~ (k-1)/(bits-1).
        let code = Hamming::h7_4();
        let pts = fig10_curve(
            &code,
            &Fig10Config {
                sequences: 4000,
                ..small_cfg(false)
            },
        );
        let p_fail = 1.0 - pts[1].corrected_pct / 100.0;
        // Expected ~3/999 = 0.3%; with miscorrection penalty ~1.5x.
        assert!(p_fail < 0.03, "double-error failure rate {p_fail}");
    }

    #[test]
    fn bursts_are_much_harder_than_uniform() {
        let code = Hamming::h7_4();
        let uniform = fig10_curve(&code, &small_cfg(false));
        let burst = fig10_curve(&code, &small_cfg(true));
        // At 4 injected errors a burst almost always shares words.
        assert!(
            burst[3].corrected_pct < uniform[3].corrected_pct - 20.0,
            "burst {:.1}% vs uniform {:.1}%",
            burst[3].corrected_pct,
            uniform[3].corrected_pct
        );
    }

    #[test]
    fn singles_and_doubles_are_always_detected() {
        // A single or double error always leaves a nonzero syndrome in
        // some word (minimum distance 3).
        for burst in [false, true] {
            let pts = fig10_curve(&Hamming::h7_4(), &small_cfg(burst));
            for p in &pts[..2] {
                assert!(
                    p.detected_pct > 99.9,
                    "injected={} detected={:.2}% burst={burst}",
                    p.injected,
                    p.detected_pct
                );
            }
        }
    }

    #[test]
    fn triple_bursts_can_evade_hamming_but_never_crc16() {
        // Three adjacent flips at word offset 0 of a (7,4) word occupy
        // codeword positions {3,5,6}, whose XOR is 0: plain Hamming sees
        // a clean syndrome. This is why the paper's monitoring block uses
        // BOTH Hamming (correction) and CRC (detection).
        use scanguard_codes::Crc;
        let code = Hamming::h7_4();
        let codec = SequenceCodec::new(Box::new(code));
        let crc = Crc::crc16_ccitt();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut hamming_misses = 0u32;
        for _ in 0..200 {
            let original: Vec<bool> = (0..1000).map(|_| rng.gen()).collect();
            let parities = codec.protect(&original);
            let signature = crc.checksum_bits(&original);
            let start = rng.gen_range(0..250) * 4; // word-aligned triple
            let mut corrupted = original.clone();
            for p in start..start + 3 {
                corrupted[p] = !corrupted[p];
            }
            let report = codec.check(&corrupted, &parities);
            if !report.any_error() {
                hamming_misses += 1;
            }
            assert_ne!(
                crc.checksum_bits(&corrupted),
                signature,
                "CRC-16 must catch every burst of 3"
            );
        }
        assert!(
            hamming_misses > 150,
            "word-aligned triples should evade plain Hamming ({hamming_misses}/200)"
        );
    }
}
