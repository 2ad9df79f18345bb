//! Bounded sequential symbolic upset verification — the engine behind
//! SG205/SG206.
//!
//! SG204's `XPropContext` proves X-freedom of the *idle* design with a
//! single static fixpoint. This module grows that idea into a bounded
//! *sequential* engine: it unrolls the netlist through the full monitor
//! pass (clear → encode shift → signature capture → clear → decode
//! shift → check, with the real `mon_en`/`mon_decode`/`mon_clear`
//! sequencing), so X-freedom and the detect/correct obligations are
//! proven *during* the pass, not just at rest.
//!
//! Instead of sampling upsets with an LFSR the way `crates/dft` does,
//! the engine sweeps the **complete** fault space — every single
//! retention-latch upset (all `W x l` positions) and every claimable
//! in-group burst — as lanes of [`LogicWord`] difference sets: lane 0
//! of every word carries the golden (upset-free) machine and lanes
//! 1..64 each carry one faulted machine, all settled together in one
//! bit-parallel pass per cycle. Exact ternary (Kleene) semantics per
//! lane come from [`GateKind::eval_word`](scanguard_netlist::GateKind),
//! so an `X` escaping into a check signal is detected, never masked.
//!
//! Only the *live cone* is simulated (`cone.rs`): the cells that can
//! reach `mon_err`, `mon_done` or a chain latch while the pass holds
//! `se` at 1 and the functional inputs at 0. The functional logic
//! behind the scan flops' `d` pins drops out, and the reports are
//! byte-identical to a full-netlist settle (pinned by
//! `tests/upset_golden.rs`). The cone is compiled into the simulator
//! crate's word-block engine, [`WideSimulator`], which evaluates each
//! live cell once per settle over the whole block of words.
//!
//! The fault space is pruned only where the code family makes no claim
//! (e.g. even-weight bursts under parity are invisible by definition);
//! every prune is counted and surfaced in the report so "verified"
//! always means "verified or explicitly out of claim", never "silently
//! skipped".

mod cone;
mod trace;

pub use trace::{counterexample, Counterexample, CycleSample};

use crate::context::{DesignView, MonitorKind, MonitorView};
use crate::LintContext;
use cone::sweep_cone;
use scanguard_dft::{ErrorPattern, ScanChains};
use scanguard_netlist::{CellId, Logic, LogicWord, Netlist};
use scanguard_sim::WideSimulator;
use std::fmt;

/// Hard cap on simulator words (63 faults each) — a backstop against
/// configurations far beyond what a lint pass should chew on.
pub const MAX_WORDS: usize = 4096;

/// Fault lanes packed per simulator word (lane 0 is golden).
const LANES_PER_WORD: usize = 63;

/// Widest in-group burst to sweep. Spans beyond the cap (or beyond the
/// code's detection claim) are pruned *and counted*.
const MAX_BURST_SPAN: usize = 4;

/// Why the engine could not run at all (distinct from a design that
/// runs and *fails* its obligations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpsetError {
    /// The netlist has combinational cycles (SG004's finding); no
    /// evaluation order exists.
    CombinationalLoop,
    /// Chains are not all the same length; the monitor-pass schedule is
    /// only defined over the synthesizer's padded, equal-length chains.
    RaggedChains,
    /// The fault space exceeds [`MAX_WORDS`] simulator words.
    TooLarge {
        /// Fault lanes the sweep would need.
        lanes: usize,
        /// The lane capacity implied by [`MAX_WORDS`].
        cap: usize,
    },
}

impl fmt::Display for UpsetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpsetError::CombinationalLoop => {
                write!(f, "netlist has combinational cycles (see SG004)")
            }
            UpsetError::RaggedChains => {
                write!(
                    f,
                    "scan chains are not equal length (monitor pass undefined)"
                )
            }
            UpsetError::TooLarge { lanes, cap } => {
                write!(f, "fault space of {lanes} lanes exceeds the {cap}-lane cap")
            }
        }
    }
}

impl std::error::Error for UpsetError {}

/// One pruned slice of the fault space: how many patterns were skipped
/// and the claim-level reason.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct PruneStat {
    /// Stable kebab-case reason slug (also used as an obs counter
    /// suffix: `lint.upset.pruned.<reason>`).
    pub reason: String,
    /// Burst patterns skipped under this reason.
    pub skipped: usize,
}

/// What a swept fault failed to satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum FailKind {
    /// `mon_err` never fired for this upset at any sampled cycle.
    MissedDetect,
    /// Detected, but the correction feedback did not restore the
    /// retained state (only claimed for singles under correcting codes).
    MissedCorrect,
    /// A check signal (`mon_err`/`mon_done`) was `X` at a sample point
    /// in this lane — the verdict is unsound, which is itself a failure.
    XAtSample,
}

impl fmt::Display for FailKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailKind::MissedDetect => "missed-detect",
            FailKind::MissedCorrect => "missed-correct",
            FailKind::XAtSample => "x-at-sample",
        })
    }
}

/// One fault that violated its obligation.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct FaultFailure {
    /// The upset pattern.
    pub pattern: ErrorPattern,
    /// Which obligation it broke.
    pub kind: FailKind,
    /// Global schedule cycle at which `mon_err` first fired for this
    /// lane, when it fired at all.
    pub first_err_cycle: Option<usize>,
}

/// The result of one exhaustive sweep.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct UpsetReport {
    /// Design name.
    pub design: String,
    /// Code family the monitor implements.
    pub code: String,
    /// Scan chain count `W`.
    pub chains: usize,
    /// Chain length `l`.
    pub chain_len: usize,
    /// `true` when the code claims correction (Hamming families).
    pub corrects: bool,
    /// Single upsets swept (always `W x l` — never pruned).
    pub singles_swept: usize,
    /// In-group bursts swept.
    pub bursts_swept: usize,
    /// Simulator words the sweep packed its lanes into.
    pub words: usize,
    /// Clock cycles the schedule unrolled.
    pub cycles: usize,
    /// Pruned burst slices, with claim-level reasons.
    pub pruned: Vec<PruneStat>,
    /// Golden-run obligations that failed (lossless encode, no spurious
    /// or unknown `mon_err`, `mon_done` high at check, state restored).
    pub clean_failures: Vec<String>,
    /// Swept faults that violated detect/correct/X-freedom.
    pub failures: Vec<FaultFailure>,
}

impl UpsetReport {
    /// `true` when every obligation held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.clean_failures.is_empty() && self.failures.is_empty()
    }

    /// Total burst patterns pruned.
    #[must_use]
    pub fn pruned_total(&self) -> usize {
        self.pruned.iter().map(|p| p.skipped).sum()
    }

    /// Failures of single-upset obligations (SG205's slice).
    pub fn single_failures(&self) -> impl Iterator<Item = &FaultFailure> {
        self.failures
            .iter()
            .filter(|f| matches!(f.pattern, ErrorPattern::Single { .. }))
    }

    /// Failures of burst obligations (SG206's slice).
    pub fn burst_failures(&self) -> impl Iterator<Item = &FaultFailure> {
        self.failures
            .iter()
            .filter(|f| matches!(f.pattern, ErrorPattern::Burst { .. }))
    }
}

/// The deterministic retained pattern every sweep (and the differential
/// oracle in `crates/dft`) loads into the chains: `bit(c, d) =
/// ((7c + 13d) mod 3 == 0)`. The monitors are XOR-linear, so the golden
/// syndrome is identically zero for *any* data — one data point plus
/// linearity covers the data space; this one mixes both phases of every
/// parity tree.
#[must_use]
pub fn retained_state(width: usize, len: usize) -> Vec<Vec<Logic>> {
    (0..width)
        .map(|c| {
            (0..len)
                .map(|d| {
                    if (c * 7 + d * 13) % 3 == 0 {
                        Logic::One
                    } else {
                        Logic::Zero
                    }
                })
                .collect()
        })
        .collect()
}

/// How much of the netlist a sweep evaluated: the `lint.upset.cells`
/// and `lint.upset.live_cells` counters, kept out of the report so its
/// bytes do not depend on the pruning.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepCells {
    /// Cells the sweep settled or clocked (the live cone).
    pub(crate) live: usize,
    /// Cells in the netlist.
    pub(crate) total: usize,
}

/// Runs the exhaustive sweep for a design context and reports the size
/// of the cone it evaluated.
///
/// # Errors
///
/// [`UpsetError`] when the engine cannot run at all: combinational
/// cycles, ragged chains, or a fault space beyond [`MAX_WORDS`].
pub(crate) fn sweep(
    ctx: &LintContext<'_>,
    view: &DesignView<'_>,
) -> Result<(UpsetReport, SweepCells), UpsetError> {
    let mv = view
        .monitor
        .expect("caller checks for a monitor view before sweeping");
    let topo = ctx.comb_topo().ok_or(UpsetError::CombinationalLoop)?;
    let chains = view.chains;
    let w = chains.width();
    let l = mv.chain_len;
    if chains.chains.iter().any(|c| c.len() != l) {
        return Err(UpsetError::RaggedChains);
    }
    let state = retained_state(w, l);
    let (faults, pruned) = enumerate_faults(&mv, w, l);
    let lanes = faults.len();
    let words = lanes.div_ceil(LANES_PER_WORD).max(1);
    if words > MAX_WORDS {
        return Err(UpsetError::TooLarge {
            lanes,
            cap: MAX_WORDS * LANES_PER_WORD,
        });
    }
    let singles_swept = w * l;
    let bursts_swept = lanes - singles_swept;

    let cone = sweep_cone(ctx, topo, &mv, chains);
    let mut driver = PassDriver::new(
        ctx.netlist(),
        cone.comb(),
        cone.seq(),
        &mv,
        chains,
        view.gated_watermark,
        words,
    );

    // Per-word lane masks/accumulators over the fault lanes in use.
    let active: Vec<u64> = (0..words)
        .map(|wd| {
            let used = (lanes - wd * LANES_PER_WORD).min(LANES_PER_WORD);
            ((1u64 << used) - 1) << 1
        })
        .collect();
    let mut detected = vec![0u64; words];
    let mut xseen = vec![0u64; words];
    let mut not_corrected = vec![0u64; words];
    let mut first_err: Vec<Option<usize>> = vec![None; lanes];
    let mut clean_failures: Vec<String> = Vec::new();

    let nl = ctx.netlist();
    let streaming = mv.kind.streaming_check();
    let err_net = mv.err;
    let done_net = mv.done;
    driver.run(&state, &faults, |point, cycle, sim| {
        let sampled = match point {
            Point::Decode(_) => streaming,
            Point::Check => true,
            _ => false,
        };
        if sampled {
            for wd in 0..words {
                let e = sim.word(err_net, wd);
                match e.lane(0) {
                    Logic::One => clean_failures.push(format!(
                        "spurious mon_err on the upset-free pass at cycle {cycle}"
                    )),
                    Logic::X => clean_failures.push(format!(
                        "mon_err is X on the upset-free pass at cycle {cycle}"
                    )),
                    Logic::Zero => {}
                }
                let newly = e.ones & active[wd] & !detected[wd];
                if newly != 0 {
                    let mut bits = newly;
                    while bits != 0 {
                        let ln = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        first_err[wd * LANES_PER_WORD + ln - 1] = Some(cycle);
                    }
                }
                detected[wd] |= newly;
                xseen[wd] |= e.xs & active[wd];
            }
        }
        if matches!(point, Point::Check) {
            for wd in 0..words {
                let d = sim.word(done_net, wd);
                match d.lane(0) {
                    Logic::One => {}
                    Logic::Zero => clean_failures
                        .push("mon_done low at the final check of the upset-free pass".into()),
                    Logic::X => clean_failures
                        .push("mon_done is X at the final check of the upset-free pass".into()),
                }
                xseen[wd] |= d.xs & active[wd];
            }
        }
        if matches!(point, Point::AfterEncode) {
            // Lossless-encode obligation: one full circulation must
            // return the golden chains to the retained pattern (no
            // faults are injected yet, so lane 0 speaks for all).
            for (c, chain) in chains.chains.iter().enumerate() {
                for (d, &cell) in chain.cells.iter().enumerate() {
                    let q = nl.cell(cell).output();
                    let got = sim.word(q, 0).lane(0);
                    if got != state[c][d] {
                        clean_failures.push(format!(
                            "encode circulation corrupted chain {c} depth {d} ({} -> {got})",
                            state[c][d]
                        ));
                    }
                }
            }
        }
        if matches!(point, Point::Check) {
            // Restoration obligation: compare every chain latch, in
            // every lane, against the retained pattern.
            for (c, chain) in chains.chains.iter().enumerate() {
                for (d, &cell) in chain.cells.iter().enumerate() {
                    let q = nl.cell(cell).output();
                    let target = if state[c][d] == Logic::One { !0u64 } else { 0 };
                    for wd in 0..words {
                        let v = sim.word(q, wd);
                        let bad = (v.ones ^ target) | v.xs;
                        if bad & 1 != 0 {
                            clean_failures.push(format!(
                                "upset-free pass left chain {c} depth {d} at {} (want {})",
                                v.lane(0),
                                state[c][d]
                            ));
                        }
                        not_corrected[wd] |= bad & active[wd];
                    }
                }
            }
        }
    });

    clean_failures.dedup();
    clean_failures.truncate(64);

    let mut failures = Vec::new();
    for (idx, pattern) in faults.iter().enumerate() {
        let (wd, ln) = (idx / LANES_PER_WORD, 1 + idx % LANES_PER_WORD);
        let det = (detected[wd] >> ln) & 1 != 0;
        let x = (xseen[wd] >> ln) & 1 != 0;
        let uncorr = (not_corrected[wd] >> ln) & 1 != 0;
        let single = matches!(pattern, ErrorPattern::Single { .. });
        let kind = if x {
            Some(FailKind::XAtSample)
        } else if !det {
            Some(FailKind::MissedDetect)
        } else if single && mv.kind.corrects() && uncorr {
            Some(FailKind::MissedCorrect)
        } else {
            None
        };
        if let Some(kind) = kind {
            failures.push(FaultFailure {
                pattern: pattern.clone(),
                kind,
                first_err_cycle: first_err[idx],
            });
        }
    }

    let cells = SweepCells {
        live: cone.cells(),
        total: ctx.netlist().cell_count(),
    };
    let report = UpsetReport {
        design: ctx.netlist().name().to_owned(),
        code: code_name(mv.kind).to_owned(),
        chains: w,
        chain_len: l,
        corrects: mv.kind.corrects(),
        singles_swept,
        bursts_swept,
        words,
        cycles: driver.cycles(),
        pruned,
        clean_failures,
        failures,
    };
    Ok((report, cells))
}

fn code_name(kind: MonitorKind) -> &'static str {
    match kind {
        MonitorKind::Hamming { extended: false } => "hamming",
        MonitorKind::Hamming { extended: true } => "secded",
        MonitorKind::Parity => "parity",
        MonitorKind::Crc16 => "crc16",
    }
}

/// Enumerates every single upset plus every *claimable* in-group burst,
/// counting what claim-level pruning skips.
///
/// Burst claims per family (spans are contiguous chains of one group,
/// upset at one depth — the serial order the monitor absorbs them in):
///
/// * **Hamming/SEC-DED**: span 2 only — the single-correct /
///   double-detect claim. Wider spans can alias onto a valid syndrome.
/// * **Parity**: every odd span (even weights are parity-invisible by
///   definition), capped by [`MAX_BURST_SPAN`] for runtime.
/// * **CRC-16**: spans up to the polynomial degree (16) — the classic
///   burst guarantee — capped by [`MAX_BURST_SPAN`].
fn enumerate_faults(
    mv: &MonitorView,
    width: usize,
    len: usize,
) -> (Vec<ErrorPattern>, Vec<PruneStat>) {
    let mut faults = Vec::with_capacity(width * len);
    for chain in 0..width {
        for depth in 0..len {
            faults.push(ErrorPattern::Single { chain, depth });
        }
    }

    let data = mv.group_data_chains;
    let burst_count = |span: usize| {
        if span > data {
            0
        } else {
            mv.groups * (data - span + 1) * len
        }
    };
    let push_span = |faults: &mut Vec<ErrorPattern>, span: usize| {
        for g in 0..mv.groups {
            let base = g * mv.group_stride;
            for first in 0..=(data - span) {
                for depth in 0..len {
                    faults.push(ErrorPattern::Burst {
                        first_chain: base + first,
                        span,
                        depth,
                    });
                }
            }
        }
    };
    let mut pruned: Vec<PruneStat> = Vec::new();
    let mut prune = |reason: &str, skipped: usize| {
        if skipped == 0 {
            return;
        }
        match pruned.iter_mut().find(|p| p.reason == reason) {
            Some(p) => p.skipped += skipped,
            None => pruned.push(PruneStat {
                reason: reason.to_owned(),
                skipped,
            }),
        }
    };

    match mv.kind {
        MonitorKind::Hamming { .. } => {
            if data >= 2 {
                push_span(&mut faults, 2);
            }
            for span in 3..=data.max(2) {
                prune("hamming-span-gt-2", burst_count(span));
            }
        }
        MonitorKind::Parity => {
            for span in 2..=data.max(1) {
                if span % 2 == 0 {
                    prune("parity-even-span", burst_count(span));
                } else if span > MAX_BURST_SPAN {
                    prune("span-cap", burst_count(span));
                } else {
                    push_span(&mut faults, span);
                }
            }
        }
        MonitorKind::Crc16 => {
            for span in 2..=data.max(1) {
                if span > 16 {
                    prune("crc-span-gt-degree", burst_count(span));
                } else if span > MAX_BURST_SPAN {
                    prune("span-cap", burst_count(span));
                } else {
                    push_span(&mut faults, span);
                }
            }
        }
    }
    (faults, pruned)
}

/// Observation points of the monitor-pass schedule, in order. The
/// driver settles the netlist, calls the observer, then (for clocked
/// points) commits one clock edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Point {
    /// Sequencer-clear cycle before encode (chains frozen).
    EncodeClear,
    /// One of `l` encode shift cycles.
    Encode(usize),
    /// Settle-only: after the encode circulation returned.
    AfterEncode,
    /// CRC signature capture cycle (chains frozen; CRC monitors only).
    SigCapture,
    /// Settle-only: after the upsets were injected into the latches.
    AfterInject,
    /// Sequencer-clear cycle before decode (chains frozen).
    DecodeClear,
    /// One of `l` decode shift cycles (streaming `mon_err` samples).
    Decode(usize),
    /// Settle-only: the final check (signature compare, `mon_done`).
    Check,
}

impl Point {
    /// Phase label for traces.
    pub(crate) fn label(self) -> String {
        match self {
            Point::EncodeClear => "encode-clear".into(),
            Point::Encode(c) => format!("encode[{c}]"),
            Point::AfterEncode => "after-encode".into(),
            Point::SigCapture => "sig-capture".into(),
            Point::AfterInject => "after-inject".into(),
            Point::DecodeClear => "decode-clear".into(),
            Point::Decode(c) => format!("decode[{c}]"),
            Point::Check => "check".into(),
        }
    }
}

/// Drives one full monitor pass over a [`WideSimulator`], calling an
/// observer after every settle — the single schedule implementation
/// shared by the sweep and the counterexample tracer, so they can never
/// drift.
pub(crate) struct PassDriver<'a> {
    pub(crate) sim: WideSimulator<'a>,
    mv: MonitorView,
    chains: &'a ScanChains,
    l: usize,
}

impl<'a> PassDriver<'a> {
    /// Compiles `comb` (in topological order) and `seq` (in cell order)
    /// over `nwords` words; the sequential cells below `watermark` hold
    /// while the chains are frozen.
    pub(crate) fn new(
        nl: &'a Netlist,
        comb: &[CellId],
        seq: &[CellId],
        mv: &MonitorView,
        chains: &'a ScanChains,
        watermark: usize,
        nwords: usize,
    ) -> Self {
        PassDriver {
            sim: WideSimulator::compile(nl, comb, seq, nwords, watermark),
            mv: *mv,
            chains,
            l: mv.chain_len,
        }
    }

    /// Clock edges committed so far.
    pub(crate) fn cycles(&self) -> usize {
        self.sim.cycles() as usize
    }

    fn drive(&mut self, en: bool, dec: bool, clr: bool) {
        self.sim.set_net(self.mv.mon_en, Logic::from(en));
        self.sim.set_net(self.mv.mon_decode, Logic::from(dec));
        self.sim.set_net(self.mv.mon_clear, Logic::from(clr));
    }

    /// Runs the schedule: quiesce → load → clear → encode → (capture) →
    /// inject → clear → decode → check. Fault `i` lives in word `i/63`,
    /// lane `1 + i%63`.
    pub(crate) fn run<F: FnMut(Point, usize, &WideSimulator<'a>)>(
        &mut self,
        state: &[Vec<Logic>],
        faults: &[ErrorPattern],
        mut observe: F,
    ) {
        // Quiesce every primary input, then raise scan-enable; the
        // monitor ports are driven per phase below.
        let nl = self.sim.netlist();
        let ports: Vec<_> = nl.input_ports().iter().map(|(_, n)| *n).collect();
        for net in ports {
            self.sim.set_net(net, Logic::Zero);
        }
        self.sim.set_net(self.chains.se, Logic::One);
        // Load the retained pattern into every lane of every chain
        // latch; monitor state starts at X (the clear cycles must prove
        // they re-initialize it).
        for (chain, row) in self.chains.chains.iter().zip(state) {
            for (&cell, &bit) in chain.cells.iter().zip(row) {
                self.sim.force_ff_word(cell, LogicWord::splat(bit));
            }
        }

        // The decode level differs per family: correcting/parity stores
        // recirculate under mon_decode=1; the CRC pass re-runs encode.
        let dec = self.mv.kind.streaming_check();

        // Encode: one frozen clear cycle, then l shift cycles.
        self.sim.set_frozen(true);
        self.drive(false, false, true);
        self.point(Point::EncodeClear, true, &mut observe);
        self.sim.set_frozen(false);
        self.drive(true, false, false);
        for c in 0..self.l {
            self.point(Point::Encode(c), true, &mut observe);
        }
        self.sim.set_frozen(true);
        self.drive(false, false, false);
        self.point(Point::AfterEncode, false, &mut observe);

        // CRC monitors: capture the signature with the chains frozen.
        if let Some(cap) = self.mv.sig_cap {
            self.sim.set_net(cap, Logic::One);
            self.point(Point::SigCapture, true, &mut observe);
            self.sim.set_net(cap, Logic::Zero);
        }

        // Inject: flip each fault's latch positions in its own lane.
        for (idx, fault) in faults.iter().enumerate() {
            let (wd, ln) = (idx / LANES_PER_WORD, 1 + idx % LANES_PER_WORD);
            for (c, d) in fault.flip_positions() {
                let cell = self.chains.chains[c].cells[d];
                self.sim.force_ff_lane(cell, wd, ln, !state[c][d]);
            }
        }
        self.point(Point::AfterInject, false, &mut observe);

        // Decode: clear, l shift cycles (streaming mon_err samples),
        // then the frozen final check.
        self.drive(false, dec, true);
        self.point(Point::DecodeClear, true, &mut observe);
        self.sim.set_frozen(false);
        self.drive(true, dec, false);
        for c in 0..self.l {
            self.point(Point::Decode(c), true, &mut observe);
        }
        self.sim.set_frozen(true);
        self.drive(false, dec, false);
        self.point(Point::Check, false, &mut observe);
    }

    fn point<F: FnMut(Point, usize, &WideSimulator<'a>)>(
        &mut self,
        p: Point,
        clocked: bool,
        observe: &mut F,
    ) {
        self.sim.settle();
        observe(p, self.cycles(), &self.sim);
        if clocked {
            self.sim.tick();
        }
    }
}
