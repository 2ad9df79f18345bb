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

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
    #[must_use]
    pub fn upsets(&self, peak_bounce_v: f64, latches: usize, seed: u64) -> Vec<usize> {
        if latches == 0 || peak_bounce_v <= 0.0 {
            return Vec::new();
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let epicentre = rng.gen_range(0..latches);
        let lambda = (self.decay_lambda * latches as f64).max(1.0);
        let mut flips = Vec::new();
        for i in 0..latches {
            let d = (i as isize - epicentre as isize).unsigned_abs() as f64;
            let local = peak_bounce_v * (-d / lambda).exp();
            // Gaussian margin via Box-Muller on two uniforms.
            let (u1, u2): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen());
            let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let margin = self.noise_margin_v + self.margin_sigma_v * gauss;
            if local > margin {
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
