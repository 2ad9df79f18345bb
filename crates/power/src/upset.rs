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
//! flip, so an [`UpsetSampler`] evaluates only the window of latches
//! around the epicentre where it can, and skips the others' draws.
//! Within the window the same bound, taken per draw, skips every latch
//! whose first uniform is too large for any second uniform to bring its
//! margin under the local bounce: only the rest pay for `ln`, `sqrt`
//! and `cos`.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::ops::Range;

/// Smallest first uniform of the Box-Muller margin draw: it keeps the
/// `ln` finite and bounds every drawn margin from below.
const MIN_U1: f64 = 1e-12;

/// Relative slack taken off the margin floor and off each skip
/// threshold's gap, so floating-point rounding in the floor, the
/// thresholds or the draw can only widen the window or send a latch to
/// the exact comparison, never drop a latch that could flip.
const FLOOR_SLACK: f64 = 1e-9;

/// Absolute slack added to a skip threshold on the first uniform, a
/// few units of rounding of the `exp` it comes from, so a threshold
/// that rounded down cannot skip a latch the exact draw would flip.
const U1_SLACK: f64 = 4.0 * f64::EPSILON;

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
    /// This is `self.sampler(peak_bounce_v, latches).upsets(seed)`: a
    /// caller drawing many events of one bounce builds the
    /// [`UpsetSampler`] once instead.
    #[must_use]
    pub fn upsets(&self, peak_bounce_v: f64, latches: usize, seed: u64) -> Vec<usize> {
        self.sampler(peak_bounce_v, latches).upsets(seed)
    }

    /// Tabulates, per distance from the epicentre, what every event of
    /// a `peak_bounce_v` bounce on `latches` latches needs: the local
    /// bounce and the first uniform at and above which no margin draw
    /// can flip the latch. Only distances within `λ·ln(bounce/floor)`
    /// (plus one) are kept, where `floor` is the lowest margin any draw
    /// can give; a bounce at or below the floor (or not positive) keeps
    /// none.
    #[must_use]
    pub fn sampler(&self, peak_bounce_v: f64, latches: usize) -> UpsetSampler {
        let mut sampler = UpsetSampler {
            model: *self,
            latches,
            local: Vec::new(),
            skip_u1: Vec::new(),
        };
        if latches == 0 || peak_bounce_v.is_nan() || peak_bounce_v <= 0.0 {
            return sampler;
        }
        let lambda = (self.decay_lambda * latches as f64).max(1.0);
        let Some(reach) = self.reach(peak_bounce_v, lambda, latches) else {
            return sampler;
        };
        for d in 0..=reach.min(latches - 1) {
            let local = peak_bounce_v * (-(d as f64) / lambda).exp();
            sampler.local.push(local);
            sampler.skip_u1.push(self.skip_u1(local));
        }
        sampler
    }

    /// A latch's margin from its two uniforms: a Gaussian by Box-Muller.
    fn margin(&self, u1: f64, u2: f64) -> f64 {
        let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.noise_margin_v + self.margin_sigma_v * gauss
    }

    /// The lowest margin any draw can give, less [`FLOOR_SLACK`] of the
    /// terms it is made of.
    fn margin_floor(&self) -> f64 {
        let tail = self.margin_sigma_v.abs() * (-2.0 * MIN_U1.ln()).sqrt();
        self.noise_margin_v - tail - FLOOR_SLACK * (self.noise_margin_v.abs() + tail)
    }

    /// How far from the epicentre a latch's local bounce can exceed
    /// [`margin_floor`](Self::margin_floor), or `None` when no latch's
    /// can. A floor at or below zero (or NaN) bounds nothing, so the
    /// reach is then the whole array.
    fn reach(&self, peak_bounce_v: f64, lambda: f64, latches: usize) -> Option<usize> {
        let floor = self.margin_floor();
        if floor.is_nan() || floor <= 0.0 {
            return Some(latches);
        }
        if peak_bounce_v <= floor {
            return None;
        }
        // Beyond `d = λ·ln(bounce/floor)` the local bounce is below the
        // floor; one latch more absorbs rounding. A NaN or infinite
        // reach (infinite bounce or λ) saturates to the whole array.
        let reach = lambda * (peak_bounce_v / floor).ln();
        Some(if reach < latches as f64 {
            reach as usize + 1
        } else {
            latches
        })
    }

    /// The first uniform at and above which a latch under `local` bounce
    /// cannot flip. Since `cos ≥ −1`, a draw's margin is at least
    /// `μ − |σ|·√(−2 ln u1)`, which stays above `local` while
    /// `u1 ≥ exp(−a²/2)` with `a = (μ − local)/|σ|`. The gap `μ − local`
    /// loses [`FLOOR_SLACK`] of its terms and the threshold gains
    /// [`U1_SLACK`], so rounding in the threshold or the draw can only
    /// send a latch to the exact comparison. With no positive gap every
    /// draw is compared.
    fn skip_u1(&self, local: f64) -> f64 {
        let mu = self.noise_margin_v;
        let gap = mu - local - FLOOR_SLACK * (mu.abs() + local.abs());
        let a = gap / self.margin_sigma_v.abs();
        if a > 0.0 {
            (-0.5 * a * a).exp() + U1_SLACK
        } else {
            f64::INFINITY
        }
    }
}

/// An [`UpsetModel`] fixed to one peak bounce and array length: the
/// per-distance tables every event of that wake shares.
///
/// # Examples
///
/// ```
/// use scanguard_power::UpsetModel;
///
/// let model = UpsetModel::default_120nm();
/// let sampler = model.sampler(0.9, 1040);
/// for seed in 0..4 {
///     assert_eq!(sampler.upsets(seed), model.upsets(0.9, 1040, seed));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct UpsetSampler {
    model: UpsetModel,
    latches: usize,
    /// Local bounce at each distance from the epicentre, V.
    local: Vec<f64>,
    /// First uniform at and above which the latch at each distance
    /// cannot flip.
    skip_u1: Vec<f64>,
}

impl UpsetSampler {
    /// The latches around `epicentre` that the tables cover; empty when
    /// no latch can flip.
    fn window(&self, epicentre: usize) -> Range<usize> {
        match self.local.len() {
            0 => epicentre..epicentre,
            n => epicentre.saturating_sub(n - 1)..(epicentre + n).min(self.latches),
        }
    }

    /// The latch indices that flip in the wake event drawn from `seed`.
    ///
    /// Each latch takes two uniform draws in index order. Latches before
    /// the window are skipped unevaluated, and a latch whose first
    /// uniform reaches its distance's threshold is not evaluated either;
    /// the others run the Box-Muller margin draw and flip when their
    /// local bounce exceeds it. The flips are exactly those of
    /// evaluating every latch, and nothing is drawn when no latch can
    /// flip.
    #[must_use]
    pub fn upsets(&self, seed: u64) -> Vec<usize> {
        if self.local.is_empty() {
            return Vec::new();
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let epicentre = rng.gen_range(0..self.latches);
        let window = self.window(epicentre);
        for _ in 0..2 * window.start {
            rng.next_u64();
        }
        let mut flips = Vec::new();
        for i in window {
            let d = i.abs_diff(epicentre);
            let (u1, u2): (f64, f64) = (rng.gen_range(MIN_U1..1.0), rng.gen());
            if u1 >= self.skip_u1[d] {
                continue;
            }
            if self.local[d] > self.model.margin(u1, u2) {
                flips.push(i);
            }
        }
        flips
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
    /// evaluated, no window and no skip threshold. The sampler must
    /// match it exactly.
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
            if local > m.margin(u1, u2) {
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

    /// Bounces in [-0.1, 3] V plus the edge values: zero, NaN, +inf,
    /// the model's own floor and floor ± 1e-12, and bounces a hair below
    /// the mean margin, where the epicentre's skip threshold sits at its
    /// edge (`pick` chooses).
    fn bounce(m: &UpsetModel, pick: u32, millivolts: u32) -> f64 {
        let floor = lowest_margin(m);
        match pick {
            0 => 0.0,
            1 => f64::NAN,
            2 => f64::INFINITY,
            3 => floor - 1e-12,
            4 => floor + 1e-12,
            5 => floor,
            6 => m.noise_margin_v * (1.0 - 1e-12),
            7 if m.noise_margin_v > 0.0 => f64::from_bits(m.noise_margin_v.to_bits() - 1),
            _ => f64::from(millivolts) * 1e-3 - 0.1,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        #[test]
        fn windowed_upsets_match_the_full_loop(
            m in model(),
            pick in 0u32..16,
            millivolts in 0u32..=3100,
            latches in 0usize..5000,
            seeds in proptest::collection::vec(any::<u64>(), 1..5),
        ) {
            let b = bounce(&m, pick, millivolts);
            let sampler = m.sampler(b, latches);
            for &seed in &seeds {
                let want = upsets_reference(&m, b, latches, seed);
                prop_assert_eq!(
                    sampler.upsets(seed),
                    want.clone(),
                    "model {:?} bounce {} latches {} seed {}", m, b, latches, seed
                );
                prop_assert_eq!(m.upsets(b, latches, seed), want);
            }
        }

        #[test]
        fn latches_outside_the_window_cannot_flip(
            m in model(),
            pick in 0u32..16,
            millivolts in 0u32..=3100,
            latches in 1usize..5000,
            e in any::<u64>(),
        ) {
            let b = bounce(&m, pick, millivolts);
            prop_assume!(b > 0.0);
            let epicentre = (e % latches as u64) as usize;
            let lambda = (m.decay_lambda * latches as f64).max(1.0);
            let floor = lowest_margin(&m);
            let window = m.sampler(b, latches).window(epicentre);
            let outside: Vec<usize> = if window.is_empty() {
                vec![epicentre]
            } else {
                [window.start.checked_sub(1), (window.end < latches).then_some(window.end)]
                    .into_iter()
                    .flatten()
                    .collect()
            };
            for i in outside {
                let d = (i as isize - epicentre as isize).unsigned_abs() as f64;
                let local = b * (-d / lambda).exp();
                prop_assert!(local <= floor, "latch {} local {} floor {}", i, local, floor);
            }
        }
    }

    /// Every skip threshold at its edge: a first uniform at, or one step
    /// above, the threshold, with the second uniform that gives the
    /// lowest margin (`cos = −1`), must leave the latch unflipped. The
    /// bounces put the epicentre's gap `μ − local` at 10^-12 σ to 10 σ,
    /// and the decay spreads the other distances' gaps between.
    #[test]
    fn skipped_draws_cannot_flip() {
        let default = UpsetModel::default_120nm();
        let models = [
            default,
            UpsetModel {
                margin_sigma_v: 0.05,
                ..default
            },
            UpsetModel {
                margin_sigma_v: 0.5,
                ..default
            },
            UpsetModel {
                noise_margin_v: 0.5,
                margin_sigma_v: 0.001,
                ..default
            },
        ];
        let mut checked = 0;
        for m in models {
            for tenths in -120..=10 {
                let gap = m.margin_sigma_v * 10f64.powf(f64::from(tenths) / 10.0);
                let sampler = m.sampler(m.noise_margin_v - gap, 200);
                for (&local, &t) in sampler.local.iter().zip(&sampler.skip_u1) {
                    let t = t.max(MIN_U1);
                    let edge = [t, f64::from_bits(t.to_bits() + 1)];
                    for u1 in edge.into_iter().filter(|&u1| u1 < 1.0) {
                        let margin = m.margin(u1, 0.5);
                        assert!(
                            local <= margin,
                            "model {m:?} local {local} u1 {u1} margin {margin}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 10_000, "only {checked} edges checked");
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
