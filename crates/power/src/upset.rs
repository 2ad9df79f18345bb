//! Retention-latch upset model.
//!
//! Converts a wake-up's shared-rail bounce into bit flips in the
//! retention latch array. Two physically-motivated properties shape the
//! model, both of which the paper's Sec. IV observations depend on:
//!
//! 1. **Thresholding with variation** — a latch flips when the local
//!    bounce exceeds its static noise margin; margins vary latch-to-latch
//!    (process variation), so upsets appear probabilistically near the
//!    threshold.
//! 2. **Spatial clustering** — bounce is strongest near the switch bank
//!    and decays along the rail, so when multiple latches flip they are
//!    *closely clustered* ("burst errors ... closely clustered",
//!    Sec. IV) — exactly the error shape that defeats plain Hamming
//!    correction.
//!
//! Margins are drawn by Box-Muller with the first uniform kept at or
//! above [`MIN_U1`], so no margin falls below the floor
//! `μ − σ·√(−2 ln MIN_U1)` (0.18 − 0.02·7.43 ≈ 0.031 V for the 120 nm
//! latch). A latch whose local bounce cannot reach that floor can never
//! flip, so [`UpsetModel::upsets`] evaluates only the window of latches
//! around the epicentre where it can, and skips the others' draws.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Smallest first uniform of the Box-Muller margin draw: it keeps the
/// `ln` finite and bounds every drawn margin from below.
const MIN_U1: f64 = 1e-12;

/// Relative slack taken off the margin floor, so floating-point
/// rounding in the floor, the draw or the window can only widen the
/// window, never drop a latch that could flip.
const FLOOR_SLACK: f64 = 1e-9;

/// Parameters of the upset model.
///
/// # Examples
///
/// ```
/// use scanguard_power::UpsetModel;
///
/// let model = UpsetModel::default_120nm();
/// // A mild bounce far below margin upsets nothing.
/// assert!(model.upsets(0.05, 1040, 7).is_empty());
/// // A violent bounce upsets a *cluster* of latches.
/// let hits = model.upsets(0.9, 1040, 7);
/// if hits.len() >= 2 {
///     let spread = hits.iter().max().unwrap() - hits.iter().min().unwrap();
///     assert!(spread < 1040 / 4, "upsets cluster near the epicentre");
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UpsetModel {
    /// Mean static noise margin of a retention latch, V.
    pub noise_margin_v: f64,
    /// Latch-to-latch margin standard deviation, V.
    pub margin_sigma_v: f64,
    /// Spatial decay length of the bounce along the latch array, as a
    /// fraction of the array length.
    pub decay_lambda: f64,
}

impl UpsetModel {
    /// Margins of a 120nm retention latch *during the wake-up window*
    /// (the latch holds data with its keeper weakly biased, so its
    /// dynamic margin is far below the static noise margin): 0.18 V
    /// mean, 0.02 V sigma, bounce decaying over ~3% of the array.
    #[must_use]
    pub fn default_120nm() -> Self {
        UpsetModel {
            noise_margin_v: 0.18,
            margin_sigma_v: 0.02,
            decay_lambda: 0.03,
        }
    }

    /// Computes which latch indices (0..`latches`) flip for a wake-up
    /// with the given peak bounce. The epicentre (the latch nearest the
    /// conducting switch group) is drawn from the seeded RNG, as is the
    /// per-latch margin variation; the same seed reproduces the same
    /// event.
    ///
    /// Each latch takes two draws in index order. Only latches within
    /// `λ·ln(bounce/floor)` (plus one) of the epicentre are evaluated,
    /// where `floor` is the lowest margin any draw can give; the draws
    /// of the latches before that window are skipped unevaluated, so the
    /// flips are exactly those of evaluating every latch. A bounce at or
    /// below the floor flips nothing and draws nothing past the
    /// epicentre.
    #[must_use]
    pub fn upsets(&self, peak_bounce_v: f64, latches: usize, seed: u64) -> Vec<usize> {
        if latches == 0 || peak_bounce_v.is_nan() || peak_bounce_v <= 0.0 {
            return Vec::new();
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let epicentre = rng.gen_range(0..latches);
        let lambda = (self.decay_lambda * latches as f64).max(1.0);
        let Some((lo, hi)) = self.window(peak_bounce_v, lambda, latches, epicentre) else {
            return Vec::new();
        };
        for _ in 0..2 * lo {
            rng.next_u64();
        }
        let mut flips = Vec::new();
        for i in lo..hi {
            let d = (i as isize - epicentre as isize).unsigned_abs() as f64;
            let local = peak_bounce_v * (-d / lambda).exp();
            // Gaussian margin via Box-Muller on two uniforms.
            let (u1, u2): (f64, f64) = (rng.gen_range(MIN_U1..1.0), rng.gen());
            let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let margin = self.noise_margin_v + self.margin_sigma_v * gauss;
            if local > margin {
                flips.push(i);
            }
        }
        flips
    }

    /// The lowest margin any draw can give, less [`FLOOR_SLACK`] of the
    /// terms it is made of.
    fn margin_floor(&self) -> f64 {
        let tail = self.margin_sigma_v.abs() * (-2.0 * MIN_U1.ln()).sqrt();
        self.noise_margin_v - tail - FLOOR_SLACK * (self.noise_margin_v.abs() + tail)
    }

    /// The latches `[lo, hi)` whose local bounce can exceed
    /// [`margin_floor`](Self::margin_floor), or `None` when none can.
    /// A floor at or below zero (or NaN) bounds nothing, so the window
    /// is then the whole array.
    fn window(
        &self,
        peak_bounce_v: f64,
        lambda: f64,
        latches: usize,
        epicentre: usize,
    ) -> Option<(usize, usize)> {
        let floor = self.margin_floor();
        if floor.is_nan() || floor <= 0.0 {
            return Some((0, latches));
        }
        if peak_bounce_v <= floor {
            return None;
        }
        // Beyond `d = λ·ln(bounce/floor)` the local bounce is below the
        // floor; one latch more absorbs rounding. A NaN or infinite
        // reach (infinite bounce or λ) saturates to the whole array.
        let reach = lambda * (peak_bounce_v / floor).ln();
        let reach = if reach < latches as f64 {
            reach as usize + 1
        } else {
            latches
        };
        Some((
            epicentre.saturating_sub(reach),
            (epicentre + reach + 1).min(latches),
        ))
    }
}

impl Default for UpsetModel {
    fn default() -> Self {
        UpsetModel::default_120nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The straight loop `upsets` replaces: every latch drawn and
    /// evaluated, no window. The windowed model must match it exactly.
    fn upsets_reference(
        m: &UpsetModel,
        peak_bounce_v: f64,
        latches: usize,
        seed: u64,
    ) -> Vec<usize> {
        if latches == 0 || peak_bounce_v <= 0.0 {
            return Vec::new();
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let epicentre = rng.gen_range(0..latches);
        let lambda = (m.decay_lambda * latches as f64).max(1.0);
        let mut flips = Vec::new();
        for i in 0..latches {
            let d = (i as isize - epicentre as isize).unsigned_abs() as f64;
            let local = peak_bounce_v * (-d / lambda).exp();
            let (u1, u2): (f64, f64) = (rng.gen_range(MIN_U1..1.0), rng.gen());
            let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let margin = m.noise_margin_v + m.margin_sigma_v * gauss;
            if local > margin {
                flips.push(i);
            }
        }
        flips
    }

    /// The lowest margin a draw can give, computed as the draw does
    /// (`u1 = MIN_U1`, `cos = -1`), without the window's slack.
    fn lowest_margin(m: &UpsetModel) -> f64 {
        m.noise_margin_v - m.margin_sigma_v.abs() * (-2.0 * MIN_U1.ln()).sqrt()
    }

    fn model() -> impl Strategy<Value = UpsetModel> {
        let default = UpsetModel::default_120nm();
        prop_oneof![
            Just(default),
            // Margins so spread that the floor is negative: no window.
            Just(UpsetModel {
                margin_sigma_v: 0.05,
                ..default
            }),
            // A decay so short that `λ` clamps to one latch.
            Just(UpsetModel {
                decay_lambda: 1e-6,
                ..default
            }),
            (0u32..=500, 0u32..=100, 0u32..=200).prop_map(|(mu, sigma, decay)| UpsetModel {
                noise_margin_v: f64::from(mu) * 1e-3,
                margin_sigma_v: f64::from(sigma) * 1e-3,
                decay_lambda: f64::from(decay) * 1e-3,
            }),
        ]
    }

    /// Bounces in [-0.1, 3] V plus the edge values: zero, NaN, +inf and
    /// the model's own floor and floor ± 1e-12 (`pick` chooses).
    fn bounce(m: &UpsetModel, pick: u32, millivolts: u32) -> f64 {
        let floor = lowest_margin(m);
        match pick {
            0 => 0.0,
            1 => f64::NAN,
            2 => f64::INFINITY,
            3 => floor - 1e-12,
            4 => floor + 1e-12,
            5 => floor,
            _ => f64::from(millivolts) * 1e-3 - 0.1,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        #[test]
        fn windowed_upsets_match_the_full_loop(
            m in model(),
            pick in 0u32..12,
            millivolts in 0u32..=3100,
            latches in 0usize..5000,
            seed in any::<u64>(),
        ) {
            let b = bounce(&m, pick, millivolts);
            prop_assert_eq!(
                m.upsets(b, latches, seed),
                upsets_reference(&m, b, latches, seed),
                "model {:?} bounce {} latches {} seed {}", m, b, latches, seed
            );
        }

        #[test]
        fn latches_outside_the_window_cannot_flip(
            m in model(),
            pick in 0u32..12,
            millivolts in 0u32..=3100,
            latches in 1usize..5000,
            e in any::<u64>(),
        ) {
            let b = bounce(&m, pick, millivolts);
            prop_assume!(b > 0.0);
            let epicentre = (e % latches as u64) as usize;
            let lambda = (m.decay_lambda * latches as f64).max(1.0);
            let floor = lowest_margin(&m);
            let outside = match m.window(b, lambda, latches, epicentre) {
                None => vec![epicentre],
                Some((lo, hi)) => [lo.checked_sub(1), (hi < latches).then_some(hi)]
                    .into_iter()
                    .flatten()
                    .collect(),
            };
            for i in outside {
                let d = (i as isize - epicentre as isize).unsigned_abs() as f64;
                let local = b * (-d / lambda).exp();
                prop_assert!(local <= floor, "latch {} local {} floor {}", i, local, floor);
            }
        }
    }

    #[test]
    fn no_bounce_no_upsets() {
        let m = UpsetModel::default_120nm();
        assert!(m.upsets(0.0, 1000, 1).is_empty());
        assert!(m.upsets(-1.0, 1000, 1).is_empty());
        assert!(m.upsets(1.0, 0, 1).is_empty());
    }

    #[test]
    fn severe_bounce_upsets_many() {
        let m = UpsetModel::default_120nm();
        // Bounce at 2x margin: epicentre region must flip.
        let hits = m.upsets(0.9, 1000, 42);
        assert!(!hits.is_empty());
    }

    #[test]
    fn upsets_are_clustered() {
        let m = UpsetModel::default_120nm();
        let mut multi_events = 0;
        let mut clustered = 0;
        for seed in 0..200 {
            let hits = m.upsets(0.8, 1040, seed);
            if hits.len() >= 2 {
                multi_events += 1;
                let spread = hits.iter().max().unwrap() - hits.iter().min().unwrap();
                if spread <= (1040_f64 * m.decay_lambda * 6.0) as usize {
                    clustered += 1;
                }
            }
        }
        assert!(
            multi_events > 20,
            "0.8 V should often upset several latches"
        );
        assert!(
            clustered as f64 > 0.95 * multi_events as f64,
            "multi-upsets must be spatially clustered ({clustered}/{multi_events})"
        );
    }

    #[test]
    fn probability_is_monotone_in_bounce() {
        let m = UpsetModel::default_120nm();
        let p = |bounce: f64| {
            let hits = (0..300u64)
                .filter(|&t| !m.upsets(bounce, 1040, 9 + t).is_empty())
                .count();
            hits as f64 / 300.0
        };
        let (lo, mid, hi) = (p(0.30), p(0.45), p(0.70));
        assert!(lo <= mid && mid <= hi, "{lo} {mid} {hi}");
        assert!(hi > 0.5);
    }

    #[test]
    fn same_seed_reproduces_event() {
        let m = UpsetModel::default_120nm();
        assert_eq!(m.upsets(0.6, 500, 123), m.upsets(0.6, 500, 123));
    }

    #[test]
    fn different_seeds_move_the_epicentre() {
        let m = UpsetModel::default_120nm();
        let a = m.upsets(0.9, 2000, 1);
        let b = m.upsets(0.9, 2000, 2);
        assert_ne!(a, b);
    }
}
