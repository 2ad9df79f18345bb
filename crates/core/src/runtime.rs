//! Executing the protected design: simulator + proposed controller.
//!
//! [`ProtectedRuntime`] owns a gate-level [`Simulator`] over a
//! [`ProtectedDesign`] and drives one full Fig. 3(b) sleep/wake sequence
//! per [`sleep_wake`](ProtectedRuntime::sleep_wake) call: encode, save,
//! gate off, sleep, wake (where the caller's upset hook models the rush
//! current), restore, decode/correct, check. It returns what the paper's
//! testbench counters record — error observations, residual corruption
//! and the per-phase energy that Tables I/II tabulate.

use crate::{MonOutputs, MonPhase, ProposedController, ProposedTiming, ProtectedDesign};
use scanguard_dft::{Lfsr, ScanChains};
use scanguard_netlist::Logic;
use scanguard_obs::{arg, ArgValue, Lane, PhaseLog, Recorder};
use scanguard_sim::{EnergyWindow, Simulator};
use std::sync::Arc;

/// Result of one sleep/wake traversal.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SleepWakeReport {
    /// Retention-latch flips the upset hook injected.
    pub upsets: usize,
    /// `true` if the monitor raised `mon_err` during any sampled cycle.
    pub error_observed: bool,
    /// `true` if every monitor sequencer reached its terminal count.
    pub done_observed: bool,
    /// Bits that still differ from the pre-sleep state after decoding
    /// (0 = fully recovered).
    pub residual_errors: usize,
    /// Energy of the encode sequence (clear + `l` shifts + capture).
    pub encode: EnergyWindow,
    /// Energy of the decode sequence (clear + `l` shifts + check).
    pub decode: EnergyWindow,
    /// Total cycles spent outside `Active`.
    pub total_cycles: u64,
}

impl SleepWakeReport {
    /// `true` when the post-wake state equals the pre-sleep state.
    #[must_use]
    pub fn state_intact(&self) -> bool {
        self.residual_errors == 0
    }
}

/// A simulation harness for a [`ProtectedDesign`].
///
/// # Examples
///
/// ```
/// use scanguard_core::{CodeChoice, Synthesizer};
/// use scanguard_netlist::NetlistBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("regs");
/// for i in 0..8 {
///     let d = b.input(&format!("d[{i}]"));
///     let (q, _) = b.dff(&format!("r{i}"), d);
///     b.output(&format!("q[{i}]"), q);
/// }
/// let design = Synthesizer::new(b.finish()?)
///     .chains(4)
///     .code(CodeChoice::hamming7_4())
///     .build()?;
/// let mut rt = design.runtime();
/// rt.load_random_state(7);
/// let report = rt.sleep_wake(|_, _| 0); // quiet wake-up
/// assert!(report.state_intact());
/// assert!(!report.error_observed);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProtectedRuntime<'a> {
    design: &'a ProtectedDesign,
    sim: Simulator<'a>,
    ctrl: ProposedController,
    sleep_cycles: u64,
    obs: Option<Arc<Recorder>>,
}

impl<'a> ProtectedRuntime<'a> {
    /// Builds the runtime: simulator, power domain assignment, controller
    /// in `Active`, all input ports quiesced low.
    #[must_use]
    pub fn new(design: &'a ProtectedDesign) -> Self {
        let mut sim = Simulator::new(&design.netlist, &design.library);
        sim.gate((0..design.gated_watermark).map(scanguard_netlist::CellId::from_index));
        // Quiesce every primary input.
        let ports: Vec<_> = design
            .netlist
            .input_ports()
            .iter()
            .map(|(_, net)| *net)
            .collect();
        for net in ports {
            sim.set_net(net, Logic::Zero);
        }
        let ctrl = ProposedController::new(ProposedTiming {
            chain_len: design.chain_len() as u64,
            save_cycles: 1,
            wake_settle_cycles: 4,
            sample_during_decode: design.monitor.code.streaming_check(),
        });
        let mut rt = ProtectedRuntime {
            design,
            sim,
            ctrl,
            sleep_cycles: 4,
            obs: None,
        };
        rt.apply(rt.ctrl.outputs());
        rt.sim.settle();
        rt
    }

    /// Starts recording onto `rec`: every
    /// [`sleep_wake`](Self::sleep_wake) emits the Fig. 3(b) phase
    /// sequence as spans on [`Lane::Controller`] — each span closed with
    /// its cycle count, switching energy and toggle count — plus an
    /// instant mark at the rush-current upset, and the underlying
    /// simulator streams its incremental-settle metrics (see
    /// [`Simulator::attach_obs`]). The report is unchanged: observation
    /// never perturbs simulation.
    pub fn attach_obs(&mut self, rec: Arc<Recorder>) {
        self.sim.attach_obs(&rec);
        self.obs = Some(rec);
    }

    /// Access to the underlying simulator (drive functional ports, read
    /// outputs, force state).
    pub fn sim_mut(&mut self) -> &mut Simulator<'a> {
        &mut self.sim
    }

    /// Read access to the underlying simulator.
    #[must_use]
    pub fn sim(&self) -> &Simulator<'a> {
        &self.sim
    }

    /// The scan chains (for upset hooks and state inspection).
    #[must_use]
    pub fn chains(&self) -> &ScanChains {
        &self.design.chains
    }

    /// The protected design this runtime executes.
    #[must_use]
    pub fn design(&self) -> &'a ProtectedDesign {
        self.design
    }

    /// The controller's current phase.
    #[must_use]
    pub fn phase(&self) -> MonPhase {
        self.ctrl.phase()
    }

    /// Sets how many cycles the design stays in `Sleep` per
    /// [`sleep_wake`](Self::sleep_wake) (default 4).
    pub fn set_sleep_cycles(&mut self, cycles: u64) {
        self.sleep_cycles = cycles.max(1);
    }

    /// One functional clock cycle (controller must be in `Active`).
    ///
    /// # Panics
    ///
    /// Panics if called outside the `Active` phase.
    pub fn functional_step(&mut self) {
        assert_eq!(
            self.ctrl.phase(),
            MonPhase::Active,
            "functional stepping only in Active"
        );
        self.sim.step();
    }

    /// Fills every scan flop with reproducible pseudo-random state — the
    /// generic "circuit has been computing" precondition the cost
    /// measurements use.
    pub fn load_random_state(&mut self, seed: u64) {
        let mut lfsr = Lfsr::maximal(24, seed);
        let state: Vec<Vec<Logic>> = self
            .design
            .chains
            .chains
            .iter()
            .map(|c| (0..c.len()).map(|_| Logic::from(lfsr.next_bit())).collect())
            .collect();
        self.design.chains.load(&mut self.sim, &state);
        self.sim.settle();
    }

    fn apply(&mut self, out: MonOutputs) {
        let d = self.design;
        self.sim.set_net(d.chains.se, Logic::from(out.se));
        self.sim.set_net(d.monitor.mon_en, Logic::from(out.mon_en));
        self.sim
            .set_net(d.monitor.mon_decode, Logic::from(out.mon_decode));
        self.sim
            .set_net(d.monitor.mon_clear, Logic::from(out.mon_clear));
        if let Some(cap) = d.monitor.sig_cap {
            self.sim.set_net(cap, Logic::from(out.sig_cap));
        }
        self.sim.set_retain(out.retain);
        self.sim.set_power(out.power_on);
        self.sim.set_clock_enable(out.pgc_clock);
    }

    /// Runs one full sleep/wake sequence. `upset` is invoked once, at the
    /// instant the power switches close (the rush-current window), with
    /// the simulator and chain topology; it should flip retention latches
    /// (e.g. via [`Simulator::flip_retention`]) and return how many bits
    /// it flipped.
    ///
    /// # Panics
    ///
    /// Panics if called outside the `Active` phase, or if the controller
    /// fails to return to `Active` (an FSM bug).
    pub fn sleep_wake<F>(&mut self, mut upset: F) -> SleepWakeReport
    where
        F: FnMut(&mut Simulator<'_>, &ScanChains) -> usize,
    {
        assert_eq!(self.ctrl.phase(), MonPhase::Active, "must start Active");
        let snapshot = self.design.chains.snapshot(&self.sim);
        let _ = self.sim.take_energy();

        let mut report = SleepWakeReport {
            upsets: 0,
            error_observed: false,
            done_observed: false,
            residual_errors: 0,
            encode: EnergyWindow::default(),
            decode: EnergyWindow::default(),
            total_cycles: 0,
        };
        let mut slept = 0u64;
        let mut last = MonPhase::Active;
        let mut plog = PhaseLog::new(Lane::Controller);
        let budget = 20 * self.design.chain_len() as u64 + self.sleep_cycles + 200;
        for _ in 0..budget {
            let sleep_req = slept < self.sleep_cycles;
            let out = self.ctrl.tick(sleep_req);
            let phase = self.ctrl.phase();
            // Energy window boundaries: taking the window at *every*
            // phase change partitions the run per phase; the encode and
            // decode windows still span exactly the `l` shift cycles,
            // matching the paper's definition of encoding/decoding
            // power (the clear/capture bookkeeping cycles land in their
            // own windows, as before).
            if phase != last {
                let window = self.sim.take_energy();
                match last {
                    MonPhase::Encode => report.encode = window,
                    MonPhase::Decode => report.decode = window,
                    _ => {}
                }
                if let Some(rec) = &self.obs {
                    plog.transition(rec, phase.name(), report.total_cycles, energy_args(&window));
                }
            }
            self.apply(out);
            if last == MonPhase::Sleep && phase == MonPhase::PowerUp {
                report.upsets = upset(&mut self.sim, &self.design.chains);
                if let Some(rec) = &self.obs {
                    rec.instant(
                        Lane::Controller,
                        "rush_upset",
                        report.total_cycles,
                        vec![arg("flips", report.upsets)],
                    );
                }
            }
            if phase == MonPhase::Sleep {
                slept += 1;
            }
            self.sim.settle();
            if out.sample_err && self.sim.value(self.design.monitor.err) == Logic::One {
                report.error_observed = true;
            }
            if phase == MonPhase::Check && self.sim.value(self.design.monitor.done) == Logic::One {
                report.done_observed = true;
            }
            self.sim.step();
            report.total_cycles += 1;
            last = phase;
            if phase == MonPhase::Check {
                // Next tick returns to Active; close out there.
                let out = self.ctrl.tick(false);
                assert_eq!(self.ctrl.phase(), MonPhase::Active, "FSM must close");
                let window = self.sim.take_energy();
                self.apply(out);
                self.sim.settle();
                let after = self.design.chains.snapshot(&self.sim);
                report.residual_errors = snapshot
                    .iter()
                    .flatten()
                    .zip(after.iter().flatten())
                    .filter(|(a, b)| a != b)
                    .count();
                if let Some(rec) = &self.obs {
                    plog.finish(rec, report.total_cycles, energy_args(&window));
                    rec.instant(
                        Lane::Controller,
                        "sleep_wake.done",
                        report.total_cycles,
                        vec![
                            arg("upsets", report.upsets),
                            arg("residual_errors", report.residual_errors),
                            arg("error_observed", u64::from(report.error_observed)),
                        ],
                    );
                }
                return report;
            }
        }
        panic!("controller failed to return to Active within {budget} cycles");
    }
}

/// The closing arguments of one phase span: what the window of cycles
/// spent in it cost (the span's `cycles` count is attached by the
/// phase log itself).
fn energy_args(window: &EnergyWindow) -> Vec<(String, ArgValue)> {
    vec![
        arg("energy_pj", window.dynamic_pj),
        arg("toggles", window.toggles),
    ]
}

#[cfg(test)]
mod tests {

    use crate::{CodeChoice, Synthesizer};
    use scanguard_netlist::{Netlist, NetlistBuilder};

    fn regs(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("regs");
        for i in 0..n {
            let d = b.input(&format!("d[{i}]"));
            let (q, _) = b.dff(&format!("r{i}"), d);
            b.output(&format!("q[{i}]"), q);
        }
        b.finish().unwrap()
    }

    fn hamming_design(ffs: usize, chains: usize) -> crate::ProtectedDesign {
        Synthesizer::new(regs(ffs))
            .chains(chains)
            .code(CodeChoice::hamming7_4())
            .build()
            .unwrap()
    }

    #[test]
    fn quiet_wake_preserves_state() {
        let d = hamming_design(16, 4);
        let mut rt = d.runtime();
        rt.load_random_state(3);
        let rep = rt.sleep_wake(|_, _| 0);
        assert!(rep.state_intact());
        assert!(!rep.error_observed);
        assert!(rep.done_observed, "sequencers must reach terminal count");
        assert!(rep.encode.cycles > 0 && rep.decode.cycles > 0);
    }

    #[test]
    fn single_upset_is_corrected_and_reported() {
        let d = hamming_design(16, 4);
        let mut rt = d.runtime();
        rt.load_random_state(11);
        let rep = rt.sleep_wake(|sim, chains| {
            sim.flip_retention(chains.chains[1].cells[2]);
            1
        });
        assert_eq!(rep.upsets, 1);
        assert!(rep.error_observed, "the error must be reported");
        assert!(rep.state_intact(), "and corrected");
    }

    #[test]
    fn each_chain_and_depth_corrects_under_hamming() {
        let d = hamming_design(16, 4);
        let mut rt = d.runtime();
        for chain in 0..4 {
            for depth in 0..4 {
                rt.load_random_state(100 + (chain * 4 + depth) as u64);
                let rep = rt.sleep_wake(|sim, chains| {
                    sim.flip_retention(chains.chains[chain].cells[depth]);
                    1
                });
                assert!(rep.error_observed, "({chain},{depth}) not reported");
                assert!(rep.state_intact(), "({chain},{depth}) not corrected");
            }
        }
    }

    #[test]
    fn crc_detects_but_does_not_correct() {
        let d = Synthesizer::new(regs(16))
            .chains(4)
            .code(CodeChoice::crc16())
            .build()
            .unwrap();
        let mut rt = d.runtime();
        rt.load_random_state(5);
        let rep = rt.sleep_wake(|sim, chains| {
            sim.flip_retention(chains.chains[0].cells[1]);
            1
        });
        assert!(rep.error_observed, "CRC must detect the upset");
        assert_eq!(rep.residual_errors, 1, "detection-only leaves the flip");
    }

    #[test]
    fn burst_defeats_plain_hamming_but_is_noticed() {
        // Two upsets in the same word (same depth, chains 0 and 1 of the
        // same group) — the paper's Sec. IV second experiment.
        let d = hamming_design(16, 4);
        let mut rt = d.runtime();
        rt.load_random_state(9);
        let rep = rt.sleep_wake(|sim, chains| {
            sim.flip_retention(chains.chains[0].cells[1]);
            sim.flip_retention(chains.chains[1].cells[1]);
            2
        });
        assert!(rep.error_observed, "the burst must at least be detected");
        assert!(
            !rep.state_intact(),
            "plain Hamming cannot heal a double error in one word"
        );
    }

    #[test]
    fn secded_never_miscorrects_doubles() {
        let d = Synthesizer::new(regs(16))
            .chains(4)
            .code(CodeChoice::ExtendedHamming { m: 3 })
            .build()
            .unwrap();
        let mut rt = d.runtime();
        rt.load_random_state(13);
        let rep = rt.sleep_wake(|sim, chains| {
            sim.flip_retention(chains.chains[2].cells[0]);
            sim.flip_retention(chains.chains[3].cells[0]);
            2
        });
        assert!(rep.error_observed);
        assert_eq!(
            rep.residual_errors, 2,
            "SEC-DED leaves exactly the two flips (no third miscorrected bit)"
        );
    }

    #[test]
    fn functional_step_requires_active() {
        let d = hamming_design(8, 4);
        let mut rt = d.runtime();
        rt.functional_step(); // fine in Active
        let rep = rt.sleep_wake(|_, _| 0);
        assert!(rep.state_intact());
        rt.functional_step(); // fine again after the cycle closes
    }
}
