//! Rush-current transients — the physical mechanism the paper protects
//! against.
//!
//! When a gated domain's power switches close, the discharged internal
//! capacitance charges through the switch resistance and the supply
//! loop inductance: a series RLC step response (the model of the paper's
//! reference [7], Kim et al., ISLPED'03). The resulting current spike
//! drops voltage across the shared rail impedance — *ground bounce* —
//! which can flip the always-on retention latches hanging off that rail.
//!
//! [`PowerNetwork::transient`] solves the step response in closed form
//! (underdamped, critically damped and overdamped cases), samples the
//! waveform, and reports the peak current and a first-order bounce
//! estimate `V_bounce = R_shared * I_peak + L_shared * (dI/dt)_char`.

/// Electrical model of one power-gated domain's supply network.
///
/// # Examples
///
/// ```
/// use scanguard_power::PowerNetwork;
///
/// let net = PowerNetwork::default_120nm();
/// let full = net.transient(1.0);
/// let soft = net.transient(0.05);
/// assert!(full.peak_current_a > soft.peak_current_a);
/// assert!(full.peak_bounce_v > soft.peak_bounce_v);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PowerNetwork {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// On-resistance of the *full* switch bank in ohms (scales as
    /// `r / fraction` when only a fraction of switches conduct).
    pub full_bank_resistance: f64,
    /// Supply loop inductance in henries (package + grid).
    pub loop_inductance: f64,
    /// Domain capacitance to charge in farads (circuit + decap).
    pub domain_capacitance: f64,
    /// Shared-rail resistance in ohms, through which the rush current
    /// couples into the always-on (retention) rail.
    pub shared_resistance: f64,
    /// Shared-rail inductance in henries.
    pub shared_inductance: f64,
    /// Response time constant of a retention latch in seconds: bounce
    /// spikes much shorter than this cannot flip a latch, so the
    /// reported peak bounce is the raw waveform low-pass filtered at
    /// this constant.
    pub latch_response_s: f64,
}

impl PowerNetwork {
    /// A plausible 120nm-class network for a block of ~1k flip-flops:
    /// 1.2 V, 2 ohm full bank, 1 nH loop, 400 pF domain capacitance,
    /// 0.5 ohm / 0.5 nH shared rail, 0.5 ns latch response.
    #[must_use]
    pub fn default_120nm() -> Self {
        PowerNetwork {
            vdd: 1.2,
            full_bank_resistance: 2.0,
            loop_inductance: 1.0e-9,
            domain_capacitance: 400.0e-12,
            shared_resistance: 0.5,
            shared_inductance: 0.5e-9,
            latch_response_s: 0.5e-9,
        }
    }

    /// Solves the wake transient when `switch_fraction` of the bank
    /// conducts (`0 < fraction <= 1`) and the domain rail starts
    /// `voltage_deficit` volts below `vdd` (1.0 = fully discharged).
    ///
    /// # Panics
    ///
    /// Panics if `switch_fraction` is not in `(0, 1]` or
    /// `voltage_deficit` not in `[0, 1]`.
    #[must_use]
    pub fn transient_from(&self, switch_fraction: f64, voltage_deficit: f64) -> RushTransient {
        assert!(
            switch_fraction > 0.0 && switch_fraction <= 1.0,
            "switch fraction must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&voltage_deficit),
            "voltage deficit must be in [0, 1]"
        );
        let r = self.full_bank_resistance / switch_fraction + self.shared_resistance;
        let l = self.loop_inductance + self.shared_inductance;
        let c = self.domain_capacitance;
        let v = self.vdd * voltage_deficit;

        let alpha = r / (2.0 * l);
        let w0_sq = 1.0 / (l * c);
        let disc = alpha * alpha - w0_sq;

        // Sample i(t) over ~8 characteristic time constants.
        let t_char = if disc > 0.0 {
            // Overdamped: slowest pole dominates.
            let s_slow = -alpha + disc.sqrt(); // closest to zero (negative)
            1.0 / s_slow.abs()
        } else {
            1.0 / alpha
        };
        let t_end = 8.0 * t_char;
        let n = 2000usize;
        let dt = t_end / n as f64;
        let current_at: Box<dyn Fn(f64) -> f64> = if disc > 1e-24 {
            let s1 = -alpha + disc.sqrt();
            let s2 = -alpha - disc.sqrt();
            let k = v / (l * (s1 - s2));
            Box::new(move |t: f64| k * ((s1 * t).exp() - (s2 * t).exp()))
        } else if disc < -1e-24 {
            let wd = (-disc).sqrt();
            let k = v / (l * wd);
            Box::new(move |t: f64| k * (-alpha * t).exp() * (wd * t).sin())
        } else {
            let k = v / l;
            Box::new(move |t: f64| k * t * (-alpha * t).exp())
        };

        let mut samples = Vec::with_capacity(n + 1);
        let mut peak_i: f64 = 0.0;
        let mut peak_didt: f64 = 0.0;
        let mut prev_i = 0.0;
        let mut settle_time = t_end;
        // Shared-rail bounce waveform, low-pass filtered at the latch
        // response constant: only bounce sustained long enough to move a
        // latch counts.
        let alpha_f = (dt / self.latch_response_s).min(1.0);
        let mut bounce_filt = 0.0f64;
        let mut peak_bounce: f64 = 0.0;
        for step in 0..=n {
            let t = step as f64 * dt;
            let i = current_at(t);
            peak_i = peak_i.max(i.abs());
            let didt = if step > 0 { (i - prev_i) / dt } else { 0.0 };
            peak_didt = peak_didt.max(didt.abs());
            let bounce_raw = (self.shared_resistance * i + self.shared_inductance * didt).abs();
            bounce_filt += alpha_f * (bounce_raw - bounce_filt);
            peak_bounce = peak_bounce.max(bounce_filt);
            samples.push(Sample {
                t_s: t,
                current_a: i,
            });
            prev_i = i;
        }
        // Settle: last time |i| exceeded 5% of peak.
        for s in samples.iter().rev() {
            if s.current_a.abs() > 0.05 * peak_i {
                settle_time = s.t_s;
                break;
            }
        }
        RushTransient {
            peak_current_a: peak_i,
            peak_di_dt: peak_didt,
            peak_bounce_v: peak_bounce,
            settle_time_s: settle_time,
            underdamped: disc < 0.0,
            samples,
        }
    }

    /// Full-deficit wake transient (the common case: domain fully
    /// discharged during sleep).
    ///
    /// # Panics
    ///
    /// Panics if `switch_fraction` is not in `(0, 1]`.
    #[must_use]
    pub fn transient(&self, switch_fraction: f64) -> RushTransient {
        self.transient_from(switch_fraction, 1.0)
    }
}

/// One waveform sample.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Sample {
    /// Time since switch closure, seconds.
    pub t_s: f64,
    /// Instantaneous rush current, amperes.
    pub current_a: f64,
}

/// Result of solving one wake transient.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RushTransient {
    /// Peak rush current, A.
    pub peak_current_a: f64,
    /// Peak current slope, A/s.
    pub peak_di_dt: f64,
    /// First-order shared-rail bounce estimate, V.
    pub peak_bounce_v: f64,
    /// Time for the current to decay below 5% of peak, s.
    pub settle_time_s: f64,
    /// `true` when the response rings (underdamped).
    pub underdamped: bool,
    /// Sampled waveform.
    pub samples: Vec<Sample>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_bank_wake_rings_and_bounces_hard() {
        let net = PowerNetwork::default_120nm();
        let t = net.transient(1.0);
        assert!(t.underdamped, "low-R wake should ring");
        assert!(t.peak_current_a > 0.1, "rush current should be substantial");
        assert!(t.peak_bounce_v > 0.05);
    }

    #[test]
    fn small_switch_fraction_damps_the_transient() {
        let net = PowerNetwork::default_120nm();
        let soft = net.transient(0.02);
        let hard = net.transient(1.0);
        assert!(!soft.underdamped, "high-R wake should be overdamped");
        assert!(soft.peak_current_a < 0.2 * hard.peak_current_a);
        assert!(soft.peak_bounce_v < 0.5 * hard.peak_bounce_v);
    }

    #[test]
    fn bounce_is_monotone_in_switch_fraction() {
        let net = PowerNetwork::default_120nm();
        let fractions = [0.05, 0.1, 0.25, 0.5, 1.0];
        let bounces: Vec<f64> = fractions
            .iter()
            .map(|&f| net.transient(f).peak_bounce_v)
            .collect();
        for w in bounces.windows(2) {
            assert!(w[0] < w[1], "bounce must grow with conducting fraction");
        }
    }

    #[test]
    fn zero_deficit_means_no_rush() {
        let net = PowerNetwork::default_120nm();
        let t = net.transient_from(1.0, 0.0);
        assert!(t.peak_current_a < 1e-12);
        assert!(t.peak_bounce_v < 1e-12);
    }

    #[test]
    #[should_panic(expected = "switch fraction")]
    fn zero_fraction_panics() {
        let _ = PowerNetwork::default_120nm().transient(0.0);
    }

    #[test]
    fn waveform_starts_at_zero_current() {
        let net = PowerNetwork::default_120nm();
        let t = net.transient(0.5);
        assert!(t.samples[0].current_a.abs() < 1e-15);
        assert!(t.samples.len() > 100);
    }
}
