//! Exact multi-objective Pareto analysis over evaluated points.
//!
//! All objectives are cost-like (smaller is better); reliability is
//! expressed as residual upset probability so that it minimizes too.
//! Fronts are computed by exact `O(n^2)` pairwise dominance — the
//! spaces here are hundreds of points, where the simple algorithm is
//! both fast and obviously correct (the property tests in
//! `tests/pareto_props.rs` lean on that).

use crate::report::PointResult;

/// A minimizable objective extracted from a [`PointResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Objective {
    /// Monitor area overhead over the scanned baseline, %.
    AreaOverheadPct,
    /// Encode/decode latency `l x T`, ns.
    LatencyNs,
    /// Encode + decode energy per sleep episode, nJ.
    EnergyNj,
    /// Wake-to-usable latency (power-network settle + decode), cycles.
    WakeCycles,
    /// Peak shared-rail bounce on wake, V.
    PeakBounceV,
    /// Probability a wake event ends with corrupted state.
    ResidualUpsetProb,
    /// Break-even sleep duration, us.
    MinSleepUs,
}

impl Objective {
    /// Parses one objective name (short or field-style spelling).
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name.trim() {
            "area" | "area_overhead_pct" | "overhead" => Ok(Objective::AreaOverheadPct),
            "latency" | "latency_ns" => Ok(Objective::LatencyNs),
            "energy" | "energy_nj" => Ok(Objective::EnergyNj),
            "wake" | "wake_cycles" => Ok(Objective::WakeCycles),
            "bounce" | "peak_bounce_v" => Ok(Objective::PeakBounceV),
            "residual" | "residual_upset_prob" => Ok(Objective::ResidualUpsetProb),
            "sleep" | "min_sleep_us" => Ok(Objective::MinSleepUs),
            other => Err(format!(
                "unknown objective {other:?} (area | latency | energy | wake | bounce | residual | sleep)"
            )),
        }
    }

    /// Parses a comma-separated objective list.
    ///
    /// # Errors
    ///
    /// Returns the first bad name, or a message for an empty list.
    pub fn parse_list(list: &str) -> Result<Vec<Self>, String> {
        let objs: Vec<Self> = list
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(Self::parse)
            .collect::<Result<_, _>>()?;
        if objs.is_empty() {
            return Err("empty objective list".into());
        }
        Ok(objs)
    }

    /// Short name (the first spelling [`Objective::parse`] accepts).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Objective::AreaOverheadPct => "area",
            Objective::LatencyNs => "latency",
            Objective::EnergyNj => "energy",
            Objective::WakeCycles => "wake",
            Objective::PeakBounceV => "bounce",
            Objective::ResidualUpsetProb => "residual",
            Objective::MinSleepUs => "sleep",
        }
    }

    /// Extracts this objective's (minimizable) value from a point.
    #[must_use]
    pub fn value(&self, p: &PointResult) -> f64 {
        match self {
            Objective::AreaOverheadPct => p.area_overhead_pct,
            Objective::LatencyNs => p.latency_ns,
            Objective::EnergyNj => p.enc_energy_nj + p.dec_energy_nj,
            Objective::WakeCycles => p.wake_cycles as f64,
            Objective::PeakBounceV => p.peak_bounce_v,
            Objective::ResidualUpsetProb => p.residual_upset_prob,
            Objective::MinSleepUs => p.min_sleep_us,
        }
    }
}

/// `true` when `a` dominates `b`: no worse everywhere, strictly better
/// somewhere (all objectives minimized).
#[must_use]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Indices of the exact Pareto front of `vectors` (ascending order).
/// A point equal to a front member on every objective is also on the
/// front (it is not strictly beaten anywhere).
#[must_use]
pub fn pareto_front(vectors: &[Vec<f64>]) -> Vec<usize> {
    (0..vectors.len())
        .filter(|&i| !vectors.iter().any(|other| dominates(other, &vectors[i])))
        .collect()
}

/// Projects `points` onto `objectives` (one vector per point).
#[must_use]
pub fn objective_vectors(points: &[PointResult], objectives: &[Objective]) -> Vec<Vec<f64>> {
    points
        .iter()
        .map(|p| objectives.iter().map(|o| o.value(p)).collect())
        .collect()
}

/// Indices of the Pareto-optimal points under `objectives`.
#[must_use]
pub fn front_of(points: &[PointResult], objectives: &[Objective]) -> Vec<usize> {
    pareto_front(&objective_vectors(points, objectives))
}

/// Picks the knee point of a front: each objective is min-max
/// normalized over the front, and the point minimizing the weighted sum
/// wins. `weights` pairs with `objectives` (missing tail entries weigh
/// 1.0). Returns `None` for an empty front.
#[must_use]
pub fn knee_point(
    points: &[PointResult],
    front: &[usize],
    objectives: &[Objective],
    weights: &[f64],
) -> Option<usize> {
    if front.is_empty() {
        return None;
    }
    let vectors = objective_vectors(points, objectives);
    let dims = objectives.len();
    let mut lo = vec![f64::INFINITY; dims];
    let mut hi = vec![f64::NEG_INFINITY; dims];
    for &i in front {
        for d in 0..dims {
            lo[d] = lo[d].min(vectors[i][d]);
            hi[d] = hi[d].max(vectors[i][d]);
        }
    }
    let score = |i: usize| -> f64 {
        (0..dims)
            .map(|d| {
                let span = hi[d] - lo[d];
                let norm = if span > 0.0 {
                    (vectors[i][d] - lo[d]) / span
                } else {
                    0.0
                };
                norm * weights.get(d).copied().unwrap_or(1.0)
            })
            .sum()
    };
    // Ties break toward the lower id: stable output.
    front
        .iter()
        .copied()
        .min_by(|&a, &b| score(a).total_cmp(&score(b)).then(a.cmp(&b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[1.0, 2.0]));
        assert!(
            !dominates(&[1.0, 2.0], &[1.0, 2.0]),
            "equal never dominates"
        );
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]), "trade-off");
    }

    #[test]
    fn front_of_a_chain_is_its_minimum() {
        // Totally ordered points: only the best survives.
        let vs: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i), f64::from(i)]).collect();
        assert_eq!(pareto_front(&vs), vec![0]);
    }

    #[test]
    fn anti_chain_survives_whole() {
        let vs: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![f64::from(i), f64::from(10 - i)])
            .collect();
        assert_eq!(pareto_front(&vs), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn duplicates_of_a_front_point_stay() {
        let vs = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        assert_eq!(pareto_front(&vs), vec![0, 1]);
    }

    #[test]
    fn objective_names_round_trip() {
        for o in [
            Objective::AreaOverheadPct,
            Objective::LatencyNs,
            Objective::EnergyNj,
            Objective::WakeCycles,
            Objective::PeakBounceV,
            Objective::ResidualUpsetProb,
            Objective::MinSleepUs,
        ] {
            assert_eq!(Objective::parse(o.name()).unwrap(), o);
        }
        assert!(Objective::parse("speed").is_err());
        assert_eq!(
            Objective::parse_list("area, latency").unwrap(),
            vec![Objective::AreaOverheadPct, Objective::LatencyNs]
        );
        assert!(Objective::parse_list("").is_err());
    }

    #[test]
    fn knee_prefers_the_balanced_corner() {
        let mk = |area: f64, lat: f64| PointResult {
            area_overhead_pct: area,
            latency_ns: lat,
            ..PointResult::zeroed()
        };
        let points = vec![mk(0.0, 100.0), mk(10.0, 10.0), mk(100.0, 0.0)];
        let objectives = [Objective::AreaOverheadPct, Objective::LatencyNs];
        let front = front_of(&points, &objectives);
        assert_eq!(front, vec![0, 1, 2]);
        let knee = knee_point(&points, &front, &objectives, &[1.0, 1.0]).unwrap();
        assert_eq!(knee, 1, "the 10/10 corner beats the extremes");
    }
}
