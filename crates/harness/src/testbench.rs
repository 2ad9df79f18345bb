//! The paper's Fig. 8 testbench: a protected FIFO_A, a golden software
//! FIFO_B, a stimulus generator, a comparator and event counters.
//!
//! Each *test sequence* follows the paper's five stages: (1) reset both
//! FIFOs, (2) write the same random data to both, (3) send FIFO_A to
//! sleep, (4) wake it (injecting errors in the rush-current window),
//! (5) read both FIFOs and compare. The counters record what the paper's
//! Sec. IV experiments report: errors reported by FIFO_A's monitor and
//! mismatches flagged by the comparator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scanguard_core::{CodeChoice, CoreError, ProtectedDesign, Synthesizer};
use scanguard_designs::{Fifo, FifoModel};
use scanguard_dft::ScanChains;
use scanguard_netlist::Logic;
use scanguard_sim::Simulator;

/// How errors are injected into FIFO_A's retention latches at wake-up.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum InjectionMode {
    /// No injection (sanity runs).
    None,
    /// One random retention bit per sequence (paper experiment 1).
    Single,
    /// A clustered burst of 2..=`max_span` adjacent chains at one depth
    /// (paper experiment 2 / Fig. 7(b)).
    Burst {
        /// Maximum chains in the burst.
        max_span: usize,
    },
}

/// Counters produced by a validation run — the "Counter" block of
/// Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ValidationStats {
    /// Test sequences executed.
    pub sequences: u64,
    /// Total retention bits flipped by the injector.
    pub injected_bits: u64,
    /// Sequences in which FIFO_A's monitor raised an error.
    pub errors_reported: u64,
    /// Sequences whose post-wake state fully matched the pre-sleep state
    /// (correction succeeded or nothing was injected).
    pub sequences_recovered: u64,
    /// Sequences where the comparator found FIFO_A != FIFO_B.
    pub comparator_mismatches: u64,
}

/// The Fig. 8 testbench around a protected FIFO.
#[derive(Debug)]
pub struct FifoTestbench {
    design: ProtectedDesign,
    depth: usize,
    width: usize,
}

impl FifoTestbench {
    /// Builds a protected `depth x width` FIFO with the given chain
    /// count and code.
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors ([`CoreError`]).
    pub fn new(
        depth: usize,
        width: usize,
        chains: usize,
        code: CodeChoice,
    ) -> Result<Self, CoreError> {
        let fifo = Fifo::generate(depth, width);
        let design = Synthesizer::new(fifo.netlist)
            .chains(chains)
            .code(code)
            .build()?;
        Ok(FifoTestbench {
            design,
            depth,
            width,
        })
    }

    /// The protected design under test.
    #[must_use]
    pub fn design(&self) -> &ProtectedDesign {
        &self.design
    }

    /// Runs `sequences` test sequences with the given injection mode.
    ///
    /// Matches the paper's Sec. IV setup (which ran 100 million FPGA
    /// sequences); software runs use fewer since single-error correction
    /// and multi-error detection are structural properties, not
    /// statistical tails. With a recorder, each sequence's sleep/wake
    /// traversal lands on its controller lane (the Fig. 3(b) phase
    /// timeline) and the simulator's settle metrics accumulate; the
    /// stats are unchanged by observation.
    #[must_use]
    pub fn run(
        &self,
        sequences: u64,
        mode: InjectionMode,
        seed: u64,
        obs: Option<&std::sync::Arc<scanguard_obs::Recorder>>,
    ) -> ValidationStats {
        let mut stats = ValidationStats::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rt = self.design.runtime();
        if let Some(rec) = obs {
            rt.attach_obs(rec.clone());
        }
        // Scan-initialise every flop (including never-written storage
        // rows) so no X values flow through the monitor — on silicon
        // this is the standard post-power-on scan flush.
        let zeros: Vec<Vec<Logic>> = self
            .design
            .chains
            .chains
            .iter()
            .map(|c| vec![Logic::Zero; c.len()])
            .collect();
        self.design.chains.load(rt.sim_mut(), &zeros);
        for _ in 0..sequences {
            stats.sequences += 1;
            // Stage 1: reset FIFO_A and FIFO_B.
            let mut model = FifoModel::new(self.depth, self.width);
            Self::pulse_reset(&mut rt);
            // Stage 2: write the same random data to both.
            let burst_len = rng.gen_range(1..=self.depth);
            for _ in 0..burst_len {
                let data = rng.gen::<u64>() & Self::mask(self.width);
                self.write(&mut rt, data);
                model.tick(false, true, false, data);
            }
            // Stages 3 & 4: sleep, then wake with injection.
            let w = self.design.chains.width();
            let l = self.design.chain_len();
            let plan: Vec<(usize, usize)> = match mode {
                InjectionMode::None => Vec::new(),
                InjectionMode::Single => {
                    vec![(rng.gen_range(0..w), rng.gen_range(0..l))]
                }
                InjectionMode::Burst { max_span } => {
                    let span = rng.gen_range(2..=max_span.clamp(2, w));
                    let first = rng.gen_range(0..=w - span);
                    let depth = rng.gen_range(0..l);
                    (first..first + span).map(|c| (c, depth)).collect()
                }
            };
            let report = rt.sleep_wake(|sim: &mut Simulator<'_>, chains: &ScanChains| {
                for &(c, d) in &plan {
                    sim.flip_retention(chains.chains[c].cells[d]);
                }
                plan.len()
            });
            stats.injected_bits += report.upsets as u64;
            if report.error_observed {
                stats.errors_reported += 1;
            }
            if report.state_intact() {
                stats.sequences_recovered += 1;
            }
            // Stage 5: read both FIFOs and compare.
            let mut mismatch = false;
            while !model.is_empty() {
                let expect = model.tick(false, false, true, 0).expect("model not empty");
                let got = self.read(&mut rt);
                if got != Some(expect) {
                    mismatch = true;
                }
            }
            if self.flag(&mut rt, "empty") != Some(true) {
                mismatch = true;
            }
            if mismatch {
                stats.comparator_mismatches += 1;
            }
        }
        stats
    }

    fn mask(width: usize) -> u64 {
        if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }
    }

    fn pulse_reset(rt: &mut scanguard_core::ProtectedRuntime<'_>) {
        let sim = rt.sim_mut();
        sim.set_port("rst", Logic::One).expect("fifo has rst");
        sim.set_port("wr_en", Logic::Zero).expect("fifo has wr_en");
        sim.set_port("rd_en", Logic::Zero).expect("fifo has rd_en");
        rt.functional_step();
        rt.sim_mut()
            .set_port("rst", Logic::Zero)
            .expect("fifo has rst");
    }

    fn write(&self, rt: &mut scanguard_core::ProtectedRuntime<'_>, data: u64) {
        let sim = rt.sim_mut();
        sim.set_port_bool("wr_en", true).expect("wr_en");
        sim.set_port_bool("rd_en", false).expect("rd_en");
        for i in 0..self.width {
            sim.set_port_bool(&format!("din[{i}]"), (data >> i) & 1 == 1)
                .expect("din");
        }
        rt.functional_step();
        rt.sim_mut().set_port_bool("wr_en", false).expect("wr_en");
    }

    /// Reads one entry; `None` when the head is X-corrupted.
    fn read(&self, rt: &mut scanguard_core::ProtectedRuntime<'_>) -> Option<u64> {
        let sim = rt.sim_mut();
        sim.set_port_bool("rd_en", true).expect("rd_en");
        sim.settle();
        let mut v = 0u64;
        for i in 0..self.width {
            match sim
                .port_value(&format!("dout[{i}]"))
                .expect("dout")
                .to_bool()
            {
                Some(true) => v |= 1 << i,
                Some(false) => {}
                None => return None,
            }
        }
        rt.functional_step();
        rt.sim_mut().set_port_bool("rd_en", false).expect("rd_en");
        Some(v)
    }

    fn flag(&self, rt: &mut scanguard_core::ProtectedRuntime<'_>, name: &str) -> Option<bool> {
        let sim = rt.sim_mut();
        sim.settle();
        sim.port_value(name).expect("flag port").to_bool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sequences_match_golden_model() {
        let tb = FifoTestbench::new(4, 4, 4, CodeChoice::hamming7_4()).unwrap();
        let stats = tb.run(5, InjectionMode::None, 42, None);
        assert_eq!(stats.sequences, 5);
        assert_eq!(stats.injected_bits, 0);
        assert_eq!(stats.errors_reported, 0);
        assert_eq!(stats.comparator_mismatches, 0);
        assert_eq!(stats.sequences_recovered, 5);
    }

    #[test]
    fn single_errors_are_corrected_with_no_mismatch() {
        let tb = FifoTestbench::new(4, 4, 4, CodeChoice::hamming7_4()).unwrap();
        let stats = tb.run(8, InjectionMode::Single, 7, None);
        assert_eq!(stats.errors_reported, 8, "every injection reported");
        assert_eq!(stats.sequences_recovered, 8, "every injection corrected");
        assert_eq!(stats.comparator_mismatches, 0, "FIFO_A == FIFO_B");
    }

    #[test]
    fn double_bursts_are_detected_never_corrected() {
        // Distance-3 codes detect every double error, so span-2 bursts
        // are always reported — and never healed.
        let tb = FifoTestbench::new(4, 4, 4, CodeChoice::hamming7_4()).unwrap();
        let stats = tb.run(8, InjectionMode::Burst { max_span: 2 }, 11, None);
        assert_eq!(stats.errors_reported, 8, "every double burst detected");
        assert_eq!(
            stats.sequences_recovered, 0,
            "plain Hamming cannot correct same-word doubles"
        );
    }

    #[test]
    fn wide_bursts_can_even_evade_hamming_detection() {
        // A span-3 burst at word offset 0 aliases to syndrome zero
        // (positions 3^5^6 = 0): plain Hamming misses it — the reason
        // the paper's monitor pairs Hamming with CRC. CRC-16 catches
        // every such burst (asserted in the monte module).
        let tb = FifoTestbench::new(4, 4, 4, CodeChoice::hamming7_4()).unwrap();
        let stats = tb.run(12, InjectionMode::Burst { max_span: 4 }, 11, None);
        assert!(stats.errors_reported >= 6, "{stats:?}");
        assert!(
            stats.sequences_recovered < 3,
            "bursts must defeat correction: {stats:?}"
        );
    }

    #[test]
    fn crc_detects_but_comparator_sees_corruption() {
        let tb = FifoTestbench::new(4, 4, 4, CodeChoice::crc16()).unwrap();
        let stats = tb.run(6, InjectionMode::Single, 3, None);
        assert_eq!(stats.errors_reported, 6);
        assert_eq!(stats.sequences_recovered, 0, "CRC cannot correct");
    }
}
