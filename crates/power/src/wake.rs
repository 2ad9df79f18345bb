//! Wake-up strategies: the full-bank baseline and the rush-current
//! reduction techniques of the paper's references [7] (staggered /
//! gate-voltage-controlled turn-on) and [8] (pump-capacitor slow
//! activation with a voltage monitor).
//!
//! The paper's position (Sec. I) is that these techniques *reduce* the
//! probability of retention upsets but cannot *correct* any state that is
//! corrupted anyway; the `ablation_rush` paper test quantifies exactly that
//! trade-off using these models.

use crate::PowerNetwork;

/// How the switch bank is activated on wake-up.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WakeStrategy {
    /// All switches close at once: fastest wake, worst bounce.
    FullBank,
    /// Switches close in `groups` equal steps, each step settling before
    /// the next (ref \[7\]): the first (small) group charges the domain
    /// through a high resistance, later groups see no voltage deficit.
    Staggered {
        /// Number of activation steps (>= 2).
        groups: usize,
    },
    /// The gate voltage ramps over `ramp_factor` characteristic times
    /// (ref \[8\], pump-capacitor activation): modelled as the full bank
    /// conducting a small effective fraction during the charge.
    SlowRamp {
        /// How much longer than a full-bank wake the ramp takes (> 1).
        ramp_factor: f64,
    },
}

/// Outcome of one wake-up under a strategy.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WakeEvent {
    /// Worst shared-rail bounce over all steps, V.
    pub peak_bounce_v: f64,
    /// Total wake time until the rail is stable, s.
    pub wake_time_s: f64,
}

impl WakeEvent {
    /// Wake latency in clock cycles at `clock_mhz` (rounded up, min 1).
    #[must_use]
    pub fn wake_cycles(&self, clock_mhz: f64) -> u64 {
        let period_s = 1.0e-6 / clock_mhz;
        ((self.wake_time_s / period_s).ceil() as u64).max(1)
    }
}

impl WakeStrategy {
    /// Stable display label: `full-bank`, `staggered-<groups>`,
    /// `slow-ramp-<factor>` (also explore's serialized `wake` field).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            WakeStrategy::FullBank => "full-bank".into(),
            WakeStrategy::Staggered { groups } => format!("staggered-{groups}"),
            WakeStrategy::SlowRamp { ramp_factor } => format!("slow-ramp-{ramp_factor:.0}"),
        }
    }

    /// Simulates a wake-up of a fully discharged domain over `network`.
    ///
    /// # Panics
    ///
    /// Panics for degenerate parameters (`groups < 2`,
    /// `ramp_factor <= 1`).
    #[must_use]
    pub fn wake(&self, network: &PowerNetwork) -> WakeEvent {
        match *self {
            WakeStrategy::FullBank => {
                let t = network.transient(1.0);
                WakeEvent {
                    peak_bounce_v: t.peak_bounce_v,
                    wake_time_s: t.settle_time_s,
                }
            }
            WakeStrategy::Staggered { groups } => {
                assert!(groups >= 2, "staggering needs at least 2 groups");
                let mut peak: f64 = 0.0;
                let mut total_time = 0.0;
                // Step g closes groups (g+1)/groups of the bank; the
                // voltage deficit is carried by the first step (each step
                // settles before the next, so later steps see ~0 deficit,
                // apart from a small droop we model as 3% re-charge).
                for g in 0..groups {
                    let fraction = (g + 1) as f64 / groups as f64;
                    let deficit = if g == 0 { 1.0 } else { 0.03 };
                    let t = network.transient_from(fraction, deficit);
                    peak = peak.max(t.peak_bounce_v);
                    total_time += t.settle_time_s;
                }
                WakeEvent {
                    peak_bounce_v: peak,
                    wake_time_s: total_time,
                }
            }
            WakeStrategy::SlowRamp { ramp_factor } => {
                assert!(ramp_factor > 1.0, "ramp factor must exceed 1");
                // An effective conducting fraction of 1/ramp_factor
                // stretches the charge over ~ramp_factor characteristic
                // times while capping the current.
                let t = network.transient(1.0 / ramp_factor);
                WakeEvent {
                    peak_bounce_v: t.peak_bounce_v,
                    wake_time_s: t.settle_time_s,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_techniques_reduce_bounce_but_cost_latency() {
        let net = PowerNetwork::default_120nm();
        let full = WakeStrategy::FullBank.wake(&net);
        let stag = WakeStrategy::Staggered { groups: 8 }.wake(&net);
        let ramp = WakeStrategy::SlowRamp { ramp_factor: 20.0 }.wake(&net);
        assert!(stag.peak_bounce_v < full.peak_bounce_v);
        assert!(ramp.peak_bounce_v < full.peak_bounce_v);
        assert!(stag.wake_time_s > full.wake_time_s);
        assert!(ramp.wake_time_s > full.wake_time_s);
    }

    #[test]
    fn more_groups_bounce_less() {
        let net = PowerNetwork::default_120nm();
        let few = WakeStrategy::Staggered { groups: 2 }.wake(&net);
        let many = WakeStrategy::Staggered { groups: 16 }.wake(&net);
        assert!(many.peak_bounce_v < few.peak_bounce_v);
    }

    #[test]
    fn wake_cycles_round_up() {
        let net = PowerNetwork::default_120nm();
        let e = WakeStrategy::FullBank.wake(&net);
        assert!(e.wake_cycles(100.0) >= 1);
    }

    #[test]
    #[should_panic(expected = "at least 2 groups")]
    fn single_group_stagger_panics() {
        let _ = WakeStrategy::Staggered { groups: 1 }.wake(&PowerNetwork::default_120nm());
    }
}
