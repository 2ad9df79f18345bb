//! Simulation oracle for the monitor-pass upset obligations.
//!
//! The lint crate's symbolic upset engine (`scanguard-lint`'s SG205/
//! SG206) proves detection and correction by unrolling the netlist
//! through the monitor-pass schedule. This module runs the *same*
//! schedule on the scalar [`Simulator`] with a real clock-gated chain
//! domain — independent of the word-block engine the sweep runs on —
//! and reports, per injected [`ErrorPattern`], whether the pass
//! detected the upset and whether it restored the retained state.
//! Differential tests hold the symbolic verdicts to these outcomes
//! bit-for-bit: the prover is only trusted because it never disagrees
//! with simulation.

use crate::{ErrorPattern, ScanChains};
use scanguard_netlist::{CellLibrary, Logic, NetId, Netlist};
use scanguard_sim::Simulator;

/// The monitor-pass control and status nets, as port-level handles (this
/// crate cannot see the monitor generator; callers pass the nets down).
#[derive(Debug, Clone, Copy)]
pub struct MonitorPassPorts {
    /// Sequencer/store shift enable.
    pub mon_en: NetId,
    /// Decode-phase select (enables correction feedback).
    pub mon_decode: NetId,
    /// Sequencer clear.
    pub mon_clear: NetId,
    /// CRC signature capture strobe, when the monitor has one.
    pub sig_cap: Option<NetId>,
    /// Error flag output.
    pub err: NetId,
    /// Sequencer terminal count output.
    pub done: NetId,
}

/// Code-dependent schedule knobs.
#[derive(Debug, Clone, Copy)]
pub struct MonitorPassConfig {
    /// `true` when `err` is valid on every decode cycle (Hamming,
    /// parity); `false` when it is a final-signature compare (CRC).
    pub streaming_err: bool,
    /// Level of `mon_decode` during the decode pass: high for codes
    /// whose decode path differs from encode (correction feedback,
    /// store recirculation), low for CRC (same pass both times).
    pub decode_high: bool,
}

/// What one injected pattern did to one monitor pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpsetOutcome {
    /// `mon_err` went high at a valid sample point.
    pub detected: bool,
    /// The chains hold the retained state again after the pass.
    pub corrected: bool,
}

/// Runs the monitor pass (encode → inject → decode → check) once per
/// pattern in `faults` and reports detection/correction outcomes, in
/// order, one scalar run per pattern.
///
/// # Panics
///
/// Panics if the chains are ragged, a state row does not match the
/// chain length, or a pattern indexes outside the chains.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn monitor_pass_outcomes(
    netlist: &Netlist,
    lib: &CellLibrary,
    chains: &ScanChains,
    ports: &MonitorPassPorts,
    cfg: &MonitorPassConfig,
    state: &[Vec<Logic>],
    faults: &[ErrorPattern],
) -> Vec<UpsetOutcome> {
    let l = chains.max_len();
    assert!(
        chains.chains.iter().all(|c| c.len() == l),
        "monitor pass requires equal-length chains"
    );
    assert_eq!(state.len(), chains.width(), "one state row per chain");
    faults
        .iter()
        .map(|f| scalar_pass(netlist, lib, chains, ports, cfg, state, f))
        .collect()
}

fn quiesce(netlist: &Netlist) -> Vec<NetId> {
    netlist.input_ports().iter().map(|&(_, n)| n).collect()
}

/// One scalar monitor pass with a real clock-gated chain domain; the
/// reference semantics the symbolic engine is held to.
fn scalar_pass(
    netlist: &Netlist,
    lib: &CellLibrary,
    chains: &ScanChains,
    ports: &MonitorPassPorts,
    cfg: &MonitorPassConfig,
    state: &[Vec<Logic>],
    fault: &ErrorPattern,
) -> UpsetOutcome {
    let l = chains.max_len();
    let mut sim = Simulator::new(netlist, lib);
    for n in quiesce(netlist) {
        sim.set_net(n, Logic::Zero);
    }
    sim.gate(chains.cells());
    chains.set_scan_enable(&mut sim, true);
    chains.load(&mut sim, state);

    let drive = |sim: &mut Simulator<'_>, en: bool, dec: bool, clr: bool| {
        sim.set_net(ports.mon_en, Logic::from(en));
        sim.set_net(ports.mon_decode, Logic::from(dec));
        sim.set_net(ports.mon_clear, Logic::from(clr));
    };
    if let Some(cap) = ports.sig_cap {
        sim.set_net(cap, Logic::Zero);
    }

    // Encode: clear the sequencer (chains frozen), then l shifts.
    sim.set_clock_enable(false);
    drive(&mut sim, false, false, true);
    sim.step();
    sim.set_clock_enable(true);
    drive(&mut sim, true, false, false);
    sim.step_n(l);

    // CRC only: capture the signature with the chains frozen.
    sim.set_clock_enable(false);
    drive(&mut sim, false, false, false);
    if let Some(cap) = ports.sig_cap {
        sim.set_net(cap, Logic::One);
        sim.step();
        sim.set_net(cap, Logic::Zero);
    }

    fault.apply_direct(&mut sim, chains);

    // Decode: clear (chains frozen), l shifts sampling err, final check.
    let dh = cfg.decode_high;
    drive(&mut sim, false, dh, true);
    sim.step();
    sim.set_clock_enable(true);
    drive(&mut sim, true, dh, false);
    let mut detected = false;
    for _ in 0..l {
        sim.settle();
        if cfg.streaming_err && sim.value(ports.err) == Logic::One {
            detected = true;
        }
        sim.step();
    }
    sim.set_clock_enable(false);
    drive(&mut sim, false, dh, false);
    sim.settle();
    if sim.value(ports.err) == Logic::One {
        detected = true;
    }
    let corrected = chains.snapshot(&sim) == state;
    UpsetOutcome {
        detected,
        corrected,
    }
}
