//! The proposed power-gating controller — paper Fig. 3(b).
//!
//! It is the conventional sleep/wake sequence of Fig. 3(a) (`Save`,
//! `PowerDown`, `Sleep`, `PowerUp`, `Restore`) with an **encode
//! sequence** before sleep and a **decode/check sequence** after
//! wake-up, driving the monitor hardware's control ports cycle by cycle.
//! It is the only model of either sequence.

use serde::{Deserialize, Serialize};

/// Phases of the proposed controller, in traversal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MonPhase {
    /// Normal operation.
    Active,
    /// One cycle: reset monitor sequencers (and CRC registers).
    EncodeClear,
    /// `l` cycles: circulate the state through the monitors, storing
    /// parity.
    Encode,
    /// One cycle: capture the CRC signature (no-op for Hamming).
    EncodeCapture,
    /// RETAIN raised; masters saved.
    Save,
    /// Switches opening.
    PowerDown,
    /// Gated off.
    Sleep,
    /// Switches closed; rail settling (the rush-current window).
    PowerUp,
    /// RETAIN dropped; state restored (possibly corrupted).
    Restore,
    /// One cycle: reset monitor sequencers / CRC for decoding.
    DecodeClear,
    /// `l` cycles: re-circulate, compare, and (Hamming) correct.
    Decode,
    /// One cycle: final error sampling (CRC compare is valid here).
    Check,
}

impl MonPhase {
    /// The phase name as it appears on the observability timeline.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MonPhase::Active => "Active",
            MonPhase::EncodeClear => "EncodeClear",
            MonPhase::Encode => "Encode",
            MonPhase::EncodeCapture => "EncodeCapture",
            MonPhase::Save => "Save",
            MonPhase::PowerDown => "PowerDown",
            MonPhase::Sleep => "Sleep",
            MonPhase::PowerUp => "PowerUp",
            MonPhase::Restore => "Restore",
            MonPhase::DecodeClear => "DecodeClear",
            MonPhase::Decode => "Decode",
            MonPhase::Check => "Check",
        }
    }
}

/// Per-cycle control outputs of the proposed controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonOutputs {
    /// Scan-enable level.
    pub se: bool,
    /// Monitor shift/update enable.
    pub mon_en: bool,
    /// Monitor mode (1 = decode/correct).
    pub mon_decode: bool,
    /// Monitor sequencer / CRC clear strobe.
    pub mon_clear: bool,
    /// CRC signature capture strobe.
    pub sig_cap: bool,
    /// RETAIN level.
    pub retain: bool,
    /// Domain power switch level.
    pub power_on: bool,
    /// `true` during cycles when `mon_err` is meaningful and should be
    /// accumulated (decode cycles for Hamming; the final check for CRC).
    pub sample_err: bool,
    /// Clock enable of the power-gated domain: the functional clock runs
    /// only while active and during scan circulation, so the circuit
    /// cannot drift between encode and save or between restore and
    /// decode.
    pub pgc_clock: bool,
    /// `true` only in [`MonPhase::Active`].
    pub state_valid: bool,
}

/// Timing knobs of the proposed controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProposedTiming {
    /// Scan-chain length `l`: cycles of [`MonPhase::Encode`] and
    /// [`MonPhase::Decode`].
    pub chain_len: u64,
    /// Cycles of [`MonPhase::Save`].
    pub save_cycles: u64,
    /// Cycles of [`MonPhase::PowerUp`] (rail settling).
    pub wake_settle_cycles: u64,
    /// `true` when the monitor's error output is valid on every decode
    /// cycle (Hamming syndromes, parity mismatches): `mon_err` is sampled
    /// through the whole decode; a CRC signature compare is sampled only
    /// at the final check.
    pub sample_during_decode: bool,
}

/// The Fig. 3(b) FSM.
///
/// # Examples
///
/// ```
/// use scanguard_core::{MonPhase, ProposedController, ProposedTiming};
///
/// let mut pg = ProposedController::new(ProposedTiming {
///     chain_len: 13,
///     save_cycles: 1,
///     wake_settle_cycles: 4,
///     sample_during_decode: true,
/// });
/// assert_eq!(pg.phase(), MonPhase::Active);
/// pg.tick(true);
/// assert_eq!(pg.phase(), MonPhase::EncodeClear, "sleep first encodes");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProposedController {
    phase: MonPhase,
    counter: u64,
    timing: ProposedTiming,
}

impl ProposedController {
    /// Builds the controller in [`MonPhase::Active`].
    #[must_use]
    pub fn new(timing: ProposedTiming) -> Self {
        ProposedController {
            phase: MonPhase::Active,
            counter: 0,
            timing,
        }
    }

    /// Current phase.
    #[must_use]
    pub fn phase(&self) -> MonPhase {
        self.phase
    }

    /// Advances one cycle and returns the control levels of the new
    /// cycle.
    pub fn tick(&mut self, sleep: bool) -> MonOutputs {
        use MonPhase::{
            Active, Check, Decode, DecodeClear, Encode, EncodeCapture, EncodeClear, PowerDown,
            PowerUp, Restore, Save, Sleep,
        };
        let t = self.timing;
        self.phase = match self.phase {
            Active => {
                if sleep {
                    self.counter = 0;
                    EncodeClear
                } else {
                    Active
                }
            }
            EncodeClear => {
                self.counter = 0;
                Encode
            }
            Encode => {
                self.counter += 1;
                if self.counter >= t.chain_len {
                    EncodeCapture
                } else {
                    Encode
                }
            }
            EncodeCapture => {
                self.counter = 0;
                Save
            }
            Save => {
                self.counter += 1;
                if self.counter >= t.save_cycles {
                    PowerDown
                } else {
                    Save
                }
            }
            PowerDown => Sleep,
            Sleep => {
                if sleep {
                    Sleep
                } else {
                    self.counter = 0;
                    PowerUp
                }
            }
            PowerUp => {
                self.counter += 1;
                if self.counter >= t.wake_settle_cycles {
                    Restore
                } else {
                    PowerUp
                }
            }
            Restore => DecodeClear,
            DecodeClear => {
                self.counter = 0;
                Decode
            }
            Decode => {
                self.counter += 1;
                if self.counter >= t.chain_len {
                    Check
                } else {
                    Decode
                }
            }
            Check => Active,
        };
        self.outputs()
    }

    /// Control levels of the current phase.
    #[must_use]
    pub fn outputs(&self) -> MonOutputs {
        let t = self.timing;
        let off = MonOutputs {
            se: false,
            mon_en: false,
            mon_decode: false,
            mon_clear: false,
            sig_cap: false,
            retain: false,
            power_on: true,
            sample_err: false,
            pgc_clock: false,
            state_valid: false,
        };
        match self.phase {
            MonPhase::Active => MonOutputs {
                state_valid: true,
                pgc_clock: true,
                ..off
            },
            MonPhase::EncodeClear => MonOutputs {
                mon_clear: true,
                ..off
            },
            MonPhase::Encode => MonOutputs {
                se: true,
                mon_en: true,
                pgc_clock: true,
                ..off
            },
            MonPhase::EncodeCapture => MonOutputs {
                sig_cap: true,
                ..off
            },
            MonPhase::Save => MonOutputs {
                retain: true,
                ..off
            },
            MonPhase::PowerDown | MonPhase::Sleep => MonOutputs {
                retain: true,
                power_on: false,
                ..off
            },
            MonPhase::PowerUp => MonOutputs {
                retain: true,
                ..off
            },
            MonPhase::Restore => off,
            MonPhase::DecodeClear => MonOutputs {
                mon_clear: true,
                mon_decode: true,
                ..off
            },
            MonPhase::Decode => MonOutputs {
                se: true,
                mon_en: true,
                mon_decode: true,
                sample_err: t.sample_during_decode,
                pgc_clock: true,
                ..off
            },
            MonPhase::Check => MonOutputs {
                mon_decode: true,
                sample_err: true,
                ..off
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> ProposedTiming {
        ProposedTiming {
            chain_len: 3,
            save_cycles: 1,
            wake_settle_cycles: 2,
            sample_during_decode: true,
        }
    }

    #[test]
    fn phase_order_matches_fig3b() {
        use MonPhase::{
            Active, Check, Decode, DecodeClear, Encode, EncodeCapture, EncodeClear, PowerDown,
            PowerUp, Restore, Save, Sleep,
        };
        let mut pg = ProposedController::new(timing());
        let mut trace = vec![pg.phase()];
        let mut sleep = true;
        for cycle in 0..40 {
            if cycle > 12 {
                sleep = false;
            }
            pg.tick(sleep);
            if trace.last() != Some(&pg.phase()) {
                trace.push(pg.phase());
            }
            if pg.phase() == Active && cycle > 1 {
                break;
            }
        }
        assert_eq!(
            trace,
            vec![
                Active,
                EncodeClear,
                Encode,
                EncodeCapture,
                Save,
                PowerDown,
                Sleep,
                PowerUp,
                Restore,
                DecodeClear,
                Decode,
                Check,
                Active
            ],
            "encoding precedes sleep and decoding follows wake-up"
        );
    }

    #[test]
    fn encode_and_decode_last_exactly_l_cycles() {
        let mut pg = ProposedController::new(timing());
        let mut encode = 0;
        let mut decode = 0;
        let mut sleep = true;
        for cycle in 0..60 {
            if cycle > 15 {
                sleep = false;
            }
            pg.tick(sleep);
            match pg.phase() {
                MonPhase::Encode => encode += 1,
                MonPhase::Decode => decode += 1,
                _ => {}
            }
            if pg.phase() == MonPhase::Active && cycle > 1 {
                break;
            }
        }
        assert_eq!(encode, 3);
        assert_eq!(decode, 3);
    }

    #[test]
    fn retain_covers_power_gap_and_monitor_runs_powered() {
        let mut pg = ProposedController::new(timing());
        let mut sleep = true;
        for cycle in 0..60 {
            if cycle > 15 {
                sleep = false;
            }
            let out = pg.tick(sleep);
            if !out.power_on {
                assert!(out.retain, "gap must be covered by RETAIN");
            }
            if out.mon_en {
                assert!(out.power_on, "scan circulation needs the domain powered");
                assert!(out.se, "circulation runs in scan mode");
            }
            if pg.phase() == MonPhase::Active && cycle > 1 {
                break;
            }
        }
    }

    #[test]
    fn crc_samples_error_only_at_check() {
        let mut t = timing();
        t.sample_during_decode = false;
        let mut pg = ProposedController::new(t);
        let mut sleep = true;
        let mut sampled_phases = Vec::new();
        for cycle in 0..60 {
            if cycle > 15 {
                sleep = false;
            }
            let out = pg.tick(sleep);
            if out.sample_err {
                sampled_phases.push(pg.phase());
            }
            if pg.phase() == MonPhase::Active && cycle > 1 {
                break;
            }
        }
        assert_eq!(sampled_phases, vec![MonPhase::Check]);
    }

    #[test]
    fn wake_settle_is_respected() {
        // Fig. 3(a): PowerUp holds RETAIN with the switches closed for
        // exactly `wake_settle_cycles` before the state is restored.
        let mut t = timing();
        t.wake_settle_cycles = 5;
        let mut pg = ProposedController::new(t);
        for _ in 0..20 {
            pg.tick(true);
        }
        assert_eq!(pg.phase(), MonPhase::Sleep);
        let mut settle = 0;
        while pg.phase() != MonPhase::Restore {
            let out = pg.tick(false);
            if pg.phase() == MonPhase::PowerUp {
                settle += 1;
                assert!(out.power_on && out.retain);
            }
            assert!(settle < 20);
        }
        assert_eq!(settle, 5);
    }

    #[test]
    fn active_is_the_only_state_valid_phase() {
        let mut pg = ProposedController::new(timing());
        assert!(pg.outputs().state_valid);
        let mut sleep = true;
        for cycle in 0..60 {
            if cycle > 15 {
                sleep = false;
            }
            let out = pg.tick(sleep);
            assert_eq!(
                out.state_valid,
                pg.phase() == MonPhase::Active,
                "{:?}",
                pg.phase()
            );
            if pg.phase() == MonPhase::Active && cycle > 1 {
                break;
            }
        }
        assert_eq!(pg.phase(), MonPhase::Active, "the sequence closes");
    }

    #[test]
    fn stays_asleep_until_released() {
        let mut pg = ProposedController::new(timing());
        for _ in 0..20 {
            pg.tick(true);
        }
        assert_eq!(pg.phase(), MonPhase::Sleep);
    }
}
