//! Stuck-at fault simulation — the manufacturing-test job the scan
//! chains exist for in the first place.
//!
//! The paper's Sec. III argues its monitor reuses the chains "without
//! affecting manufacturing test"; this module lets that claim be checked
//! *quantitatively*: run the classic scan test (shift in a random
//! pattern, pulse one functional capture, shift out and compare) against
//! every single stuck-at fault and report coverage. The
//! `test_neutrality` integration tests compare PGC fault coverage before
//! and after monitor insertion.
//!
//! Fault-dropping, parallel fault simulation: the golden responses are
//! computed once and shared read-only across workers; each fault is then
//! simulated cycle by cycle and *dropped* at the first observed bit that
//! differs from golden — the rest of the failing pattern, the remaining
//! patterns and the final flush are never simulated.
//! Faults are fanned out over a [`scanguard_par::run_pool_obs`] and the
//! per-fault outcomes are merged in index order, so the
//! [`CoverageReport`] is byte-identical at any
//! [`thread count`](FaultSimConfig::threads).
//!
//! Two engines implement that contract ([`FaultSimEngine`]): the scalar
//! engine simulates one fault per [`Simulator`]; the bit-parallel
//! [`FaultSimEngine::Wide`] engine (classic PPSFP, transposed to
//! fault-parallel) packs a golden machine and up to 63 faulty machines
//! into the 64 lanes of a [`WideSimulator`], so one settle pass
//! advances the whole group and an XOR against lane 0 observes every
//! fault at once. Fault dropping becomes clearing a lane bit out of the
//! group's active mask. Both engines produce byte-identical reports —
//! same detections, same per-fault cycle accounting — at any thread
//! count and any lane packing, pinned by differential tests.
//!
//! The wide engine settles the whole design only on capture cycles. On
//! a shift or flush cycle `se` is 1, no scan flop reads its `d` pin, and
//! only the scan path and the scan-outs can change what the tester
//! sees, so the group settles the simulator's cone program: the
//! [`LiveCone`] of the scan-outs and flop outputs under the shift
//! levels (on the paper FIFO, 92 of 4,048 combinational cells). A fault
//! whose stuck level lies outside its net's shift levels — a tie cell
//! stuck at its opposite level, a buffer on `se` stuck at 0 — widens
//! its group's cone by that level, so every lane's unmasked reads stay
//! inside the cells the group settles.

use crate::{DftError, Lfsr, ScanChains, TestModeConfig};
use scanguard_netlist::{
    CellId, CellLibrary, GateKind, Logic, LogicSet, LogicWord, NetId, NetIndex, Netlist,
};
use scanguard_obs::{arg, HistogramHandle, Lane, Recorder};
use scanguard_par::run_pool_obs;
use scanguard_sim::{LiveCone, Simulator, WideSimulator};
use std::collections::HashSet;
use std::time::Instant;

/// Stuck-at polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum StuckAt {
    /// Output stuck at logic 0.
    Zero,
    /// Output stuck at logic 1.
    One,
}

impl StuckAt {
    fn level(self) -> Logic {
        match self {
            StuckAt::Zero => Logic::Zero,
            StuckAt::One => Logic::One,
        }
    }
}

/// One single stuck-at fault on a cell's output net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Fault {
    /// The faulty cell.
    pub cell: CellId,
    /// The stuck polarity.
    pub stuck: StuckAt,
}

/// Which simulation engine evaluates the faulty machines.
///
/// Both engines produce byte-identical [`CoverageReport`]s (enforced by
/// differential tests); they differ only in wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultSimEngine {
    /// One scalar [`Simulator`] per fault, fault-dropped: the oracle the
    /// wide engine is tested against.
    Scalar,
    /// Bit-parallel PPSFP: one [`WideSimulator`] per group of up to 63
    /// faults — lane 0 golden, lanes 1..64 faulty, XOR against lane 0
    /// giving detection for free. The default, being the faster.
    #[default]
    Wide,
}

impl FaultSimEngine {
    /// The wire/CLI name (`scalar` / `wide`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSimEngine::Scalar => "scalar",
            FaultSimEngine::Wide => "wide",
        }
    }

    /// Parses an engine name as used by the CLI (`scalar` / `wide`).
    #[must_use]
    pub fn parse(name: &str) -> Option<FaultSimEngine> {
        match name {
            "scalar" => Some(FaultSimEngine::Scalar),
            "wide" => Some(FaultSimEngine::Wide),
            _ => None,
        }
    }
}

// Hand-written (the vendored mini-serde derive has no `#[serde(...)]`
// attributes): lowercase wire names, and an absent field — `Null` in the
// value model — falls back to the default engine.
impl serde::Serialize for FaultSimEngine {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_owned())
    }
}

impl serde::Deserialize for FaultSimEngine {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(FaultSimEngine::default()),
            _ => v
                .as_str()
                .and_then(FaultSimEngine::parse)
                .ok_or_else(|| serde::Error::custom("engine must be \"scalar\" or \"wide\"")),
        }
    }
}

/// Configuration of a fault-simulation run.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultSimConfig {
    /// Random scan patterns to apply.
    pub patterns: usize,
    /// RNG seed for pattern generation.
    pub seed: u64,
    /// Cap on the number of faults simulated (random sample when the
    /// enumerated list is larger); `None` = all.
    pub max_faults: Option<usize>,
    /// Input ports held at 0 instead of receiving random stimulus
    /// (monitor/injector controls of a protected design).
    pub hold_low: Vec<String>,
    /// Worker threads to fan the fault list over (clamped to at least
    /// 1). The report is identical at any thread count.
    pub threads: usize,
    /// The simulation engine. The report is identical for either choice;
    /// [`FaultSimEngine::Wide`] simulates 63 faults per settle pass.
    /// Defaults to wide when absent from a serialized config.
    pub engine: FaultSimEngine,
}

impl Default for FaultSimConfig {
    fn default() -> Self {
        FaultSimConfig {
            patterns: 16,
            seed: 0xFA_17,
            max_faults: None,
            hold_low: Vec::new(),
            threads: 1,
            engine: FaultSimEngine::default(),
        }
    }
}

/// Result of a fault-simulation run.
///
/// Everything except [`wall_ms`](Self::wall_ms) is a pure function of
/// the netlist, access structure and config — thread count changes
/// wall-clock time, nothing else (and `wall_ms` is excluded from
/// equality for exactly that reason).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CoverageReport {
    /// Faults simulated.
    pub faults: usize,
    /// Faults whose effect reached a scan-out or primary output.
    pub detected: usize,
    /// A sample of undetected faults (at most 16), for diagnosis.
    pub undetected_sample: Vec<Fault>,
    /// Histogram of first detections: `detected_at_pattern[p]` counts
    /// the faults first detected while comparing pattern `p`'s response;
    /// the final bucket (`[patterns]`) is the post-test flush.
    pub detected_at_pattern: Vec<usize>,
    /// Total clock cycles spent simulating faulty machines (the golden
    /// run is excluded).
    pub simulated_cycles: u64,
    /// Cycles fault dropping avoided, relative to running every fault
    /// against the full pattern set plus flush.
    pub dropped_cycles: u64,
    /// Wall-clock time of the whole run, milliseconds. Measurement
    /// noise: ignored by `==`.
    pub wall_ms: f64,
}

impl PartialEq for CoverageReport {
    fn eq(&self, other: &Self) -> bool {
        // wall_ms is timing noise, not part of the result's identity.
        self.faults == other.faults
            && self.detected == other.detected
            && self.undetected_sample == other.undetected_sample
            && self.detected_at_pattern == other.detected_at_pattern
            && self.simulated_cycles == other.simulated_cycles
            && self.dropped_cycles == other.dropped_cycles
    }
}

impl CoverageReport {
    /// Coverage percentage, or `None` when no faults were simulated —
    /// an empty fault list is "nothing measured", not 100% coverage.
    #[must_use]
    pub fn coverage_pct(&self) -> Option<f64> {
        (self.faults > 0).then(|| self.detected as f64 / self.faults as f64 * 100.0)
    }
}

/// Enumerates the single stuck-at faults of a netlist: two per cell
/// output, skipping the trivially undetectable polarity of tie cells.
#[must_use]
pub fn enumerate_faults(netlist: &Netlist) -> Vec<Fault> {
    let mut faults = Vec::with_capacity(netlist.cell_count() * 2);
    for (id, cell) in netlist.cells() {
        match cell.kind() {
            GateKind::TieLo => faults.push(Fault {
                cell: id,
                stuck: StuckAt::One,
            }),
            GateKind::TieHi => faults.push(Fault {
                cell: id,
                stuck: StuckAt::Zero,
            }),
            _ => {
                faults.push(Fault {
                    cell: id,
                    stuck: StuckAt::Zero,
                });
                faults.push(Fault {
                    cell: id,
                    stuck: StuckAt::One,
                });
            }
        }
    }
    faults
}

/// How the tester reaches the chains.
#[derive(Debug, Clone, Copy)]
pub enum ScanAccess<'a> {
    /// Directly through the per-chain `si`/`so` ports (a plain scanned
    /// design, before any monitor overlay).
    Direct(&'a ScanChains),
    /// Through the Fig. 5(b) concatenated test chains (a protected
    /// design).
    TestMode(&'a ScanChains, &'a TestModeConfig),
}

impl<'a> ScanAccess<'a> {
    fn width(&self) -> usize {
        match self {
            ScanAccess::Direct(c) => c.width(),
            ScanAccess::TestMode(_, tm) => tm.test_width,
        }
    }

    fn length(&self) -> usize {
        match self {
            ScanAccess::Direct(c) => c.max_len(),
            ScanAccess::TestMode(_, tm) => tm.test_chain_len,
        }
    }

    fn se(&self) -> NetId {
        match self {
            ScanAccess::Direct(c) | ScanAccess::TestMode(c, _) => c.se,
        }
    }

    fn enter(&self, sim: &mut Simulator<'_>) {
        if let ScanAccess::TestMode(_, tm) = self {
            tm.set_test_mode(sim, true);
        }
    }

    fn shift(&self, sim: &mut Simulator<'_>, inputs: &[Logic]) -> Vec<Logic> {
        match self {
            ScanAccess::Direct(c) => c.shift(sim, inputs),
            ScanAccess::TestMode(_, tm) => tm.shift(sim, inputs),
        }
    }

    /// The scan-in nets a tester drives, one per pin, in pin order.
    fn si_nets(&self) -> Vec<NetId> {
        match self {
            ScanAccess::Direct(c) => c.chains.iter().map(|ch| ch.si).collect(),
            ScanAccess::TestMode(_, tm) => tm.test_si.clone(),
        }
    }

    /// The scan-out nets a tester observes, aligned with
    /// [`si_nets`](Self::si_nets) and with the observation order of
    /// [`shift`](Self::shift).
    fn so_nets(&self) -> Vec<NetId> {
        match self {
            ScanAccess::Direct(c) => c.chains.iter().map(|ch| ch.so).collect(),
            ScanAccess::TestMode(_, tm) => tm.test_so.clone(),
        }
    }

    fn enter_wide(&self, sim: &mut WideSimulator<'_>) {
        if let ScanAccess::TestMode(_, tm) = self {
            sim.set_net(tm.test_mode, Logic::One);
        }
    }
}

/// One pre-generated test pattern.
#[derive(Debug, Clone)]
struct Pattern {
    /// Scan stimulus, `[cycle][pin]`.
    scan_in: Vec<Vec<Logic>>,
    /// Primary-input stimulus for the capture cycle, aligned with the
    /// free (non-held, non-scan) input list.
    pi: Vec<Logic>,
}

/// The response signature of one pattern: everything a tester observes.
type Response = Vec<Logic>;

/// A mismatch a tester would log: both values known and different.
fn differs(golden: &[Logic], observed: &[Logic]) -> bool {
    golden
        .iter()
        .zip(observed)
        .any(|(&g, &f)| g.is_known() && f.is_known() && g != f)
}

/// The word-parallel form of [`differs`] for one observed net: lane 0
/// carries the golden machine, and the returned mask has a bit per lane
/// whose value is known and differs from a *known* lane 0 — exactly the
/// scalar "both values known and different" rule, 64 lanes at a time.
fn mismatch_word(w: LogicWord) -> u64 {
    if w.xs & 1 != 0 {
        // Golden value unknown: a tester masks this bit for every lane.
        return 0;
    }
    let golden = if w.ones & 1 != 0 { !0u64 } else { 0 };
    (w.ones ^ golden) & !w.xs
}

/// Drops the lanes in `mism`: records the detecting pattern and the
/// analytic cycle count, exactly what the scalar engine's `sim.cycles()`
/// reads at its early return. Lane `k` carries fault `k - 1`.
fn record_drops(
    mism: u64,
    pattern: usize,
    cycles_now: u64,
    active: &mut u64,
    detected_at: &mut [Option<usize>],
    cycles: &mut [u64],
) {
    let mut m = mism;
    while m != 0 {
        let lane = m.trailing_zeros() as usize;
        m &= m - 1;
        detected_at[lane - 1] = Some(pattern);
        cycles[lane - 1] = cycles_now;
    }
    *active &= !mism;
}

/// What one fault's (possibly dropped) simulation produced.
struct FaultOutcome {
    /// Index of the pattern whose response first exposed the fault
    /// (`patterns.len()` = the final flush); `None` = undetected.
    detected_at: Option<usize>,
    /// Clock cycles this fault's simulation ran before dropping.
    cycles: u64,
}

/// The shared, read-only context every worker simulates against.
struct Tester<'a> {
    netlist: &'a Netlist,
    /// The netlist's drivers and loads, for every shift-cone walk.
    index: NetIndex,
    lib: &'a CellLibrary,
    access: ScanAccess<'a>,
    free_pi: Vec<NetId>,
    patterns: Vec<Pattern>,
    width: usize,
    length: usize,
    obs: Option<&'a Recorder>,
}

impl Tester<'_> {
    /// A zero-driven simulator, optionally with one stuck-at injected.
    fn fresh_sim(&self, fault: Option<Fault>) -> Simulator<'_> {
        let mut sim = Simulator::new(self.netlist, self.lib);
        if let Some(rec) = self.obs {
            // Settle and evaluation counts are commutative sums over the
            // (deterministic) per-fault runs, so they stay
            // thread-count-blind.
            sim.attach_obs(rec);
        }
        for (_, net) in self.netlist.input_ports() {
            sim.set_net(*net, Logic::Zero);
        }
        if let Some(f) = fault {
            sim.set_stuck(self.netlist.cell(f.cell).output(), f.stuck.level());
        }
        self.access.enter(&mut sim);
        sim
    }

    /// Applies one pattern: shift in over the full chain length
    /// (observing the previous contents as they emerge), drive random
    /// primary inputs, capture one functional cycle, observe POs.
    fn apply_pattern(&self, sim: &mut Simulator<'_>, p: &Pattern) -> Response {
        let mut observed = Vec::new();
        sim.set_net(self.access.se(), Logic::One);
        for ins in &p.scan_in {
            observed.extend(self.access.shift(sim, ins));
        }
        sim.set_net(self.access.se(), Logic::Zero);
        for (&net, &v) in self.free_pi.iter().zip(&p.pi) {
            sim.set_net(net, v);
        }
        sim.settle();
        for (_, net) in self.netlist.output_ports() {
            observed.push(sim.value(*net));
        }
        sim.step();
        observed
    }

    /// [`apply_pattern`](Self::apply_pattern) against a golden response:
    /// every observed bit is compared the cycle it emerges, and the rest
    /// of the pattern is abandoned at the first mismatch — a tester
    /// would log the failing cycle, and a dropped fault needs nothing
    /// more. Returns `true` on a mismatch.
    fn apply_pattern_vs(&self, sim: &mut Simulator<'_>, p: &Pattern, golden: &[Logic]) -> bool {
        let mut at = 0usize;
        sim.set_net(self.access.se(), Logic::One);
        for ins in &p.scan_in {
            let outs = self.access.shift(sim, ins);
            if differs(&golden[at..at + outs.len()], &outs) {
                return true;
            }
            at += outs.len();
        }
        sim.set_net(self.access.se(), Logic::Zero);
        for (&net, &v) in self.free_pi.iter().zip(&p.pi) {
            sim.set_net(net, v);
        }
        sim.settle();
        for (_, net) in self.netlist.output_ports() {
            let g = golden[at];
            let f = sim.value(*net);
            if g.is_known() && f.is_known() && g != f {
                return true;
            }
            at += 1;
        }
        sim.step();
        false
    }

    /// The final flush, so the last capture is observed too.
    fn flush(&self, sim: &mut Simulator<'_>) -> Response {
        sim.set_net(self.access.se(), Logic::One);
        let zeros = vec![Logic::Zero; self.width];
        let mut flushed = Vec::new();
        for _ in 0..self.length {
            flushed.extend(self.access.shift(sim, &zeros));
        }
        flushed
    }

    /// [`flush`](Self::flush) against the golden flush, stopping at the
    /// first mismatching bit. Returns `true` on a mismatch.
    fn flush_vs(&self, sim: &mut Simulator<'_>, golden: &[Logic]) -> bool {
        sim.set_net(self.access.se(), Logic::One);
        let zeros = vec![Logic::Zero; self.width];
        let mut at = 0usize;
        for _ in 0..self.length {
            let outs = self.access.shift(sim, &zeros);
            if differs(&golden[at..at + outs.len()], &outs) {
                return true;
            }
            at += outs.len();
        }
        false
    }

    /// The fault-free run: one response per pattern plus the flush, and
    /// the cycle count of the full (never-dropped) test.
    fn golden(&self) -> (Vec<Response>, u64) {
        if let Some(rec) = self.obs {
            rec.begin(Lane::Controller, "golden", 0);
        }
        let mut sim = self.fresh_sim(None);
        let mut responses: Vec<Response> = self
            .patterns
            .iter()
            .map(|p| self.apply_pattern(&mut sim, p))
            .collect();
        responses.push(self.flush(&mut sim));
        let cycles = sim.cycles();
        if let Some(rec) = self.obs {
            rec.end(
                Lane::Controller,
                "golden",
                cycles,
                vec![
                    arg("cycles", cycles),
                    arg("patterns", self.patterns.len() as u64),
                ],
            );
        }
        (responses, cycles)
    }

    /// Simulates one fault with dropping: every observed bit is checked
    /// against the golden response the cycle it emerges, and the run
    /// stops — mid-pattern — at the first mismatch.
    fn simulate_fault(&self, fault: Fault, golden: &[Response]) -> FaultOutcome {
        let mut sim = self.fresh_sim(Some(fault));
        for (p, pattern) in self.patterns.iter().enumerate() {
            if self.apply_pattern_vs(&mut sim, pattern, &golden[p]) {
                return FaultOutcome {
                    detected_at: Some(p),
                    cycles: sim.cycles(),
                };
            }
        }
        let detected_at = self
            .flush_vs(&mut sim, &golden[self.patterns.len()])
            .then_some(self.patterns.len());
        FaultOutcome {
            detected_at,
            cycles: sim.cycles(),
        }
    }

    /// The cells a shift or flush settle must evaluate: the live cone of
    /// the scan-outs and of every flop output under the tester's shift
    /// levels. `se` and, under test-mode access, `test_mode` are `{1}`;
    /// the driven scan-ins and the free primary inputs can take any
    /// level; every other input port (the held-low controls, and the
    /// per-chain `si` ports under test mode) only ever sees the initial
    /// 0. Each `widen` entry adds a stuck-at level to its net.
    fn shift_cone(&self, widen: &[(NetId, Logic)]) -> LiveCone {
        let se = self.access.se();
        let test_mode = match self.access {
            ScanAccess::Direct(_) => None,
            ScanAccess::TestMode(_, tm) => Some(tm.test_mode),
        };
        let driven: HashSet<NetId> = self
            .access
            .si_nets()
            .into_iter()
            .chain(self.free_pi.iter().copied())
            .collect();
        let level = |net| {
            if net == se || Some(net) == test_mode {
                LogicSet::ONE
            } else if driven.contains(&net) {
                LogicSet::ANY
            } else {
                LogicSet::ZERO
            }
        };
        let flops = self.netlist.ff_cells().map(|(_, c)| c.output());
        let roots = self.access.so_nets().into_iter().chain(flops);
        LiveCone::walk(
            self.netlist,
            &self.index,
            self.netlist.topo_order(),
            level,
            widen,
            roots,
        )
    }

    /// Simulates up to 63 faults at once on a [`WideSimulator`]: lane 0
    /// runs the golden machine, lane `k + 1` carries `faults[k]`, and
    /// every observed net is XOR-compared against lane 0 the cycle it
    /// emerges. Detected lanes are masked out of `active` (word-level
    /// fault dropping) and the group exits as soon as every fault lane
    /// has dropped.
    ///
    /// The per-fault outcome is *defined* to match the scalar engine:
    /// the same observation points in the same order give the same
    /// `detected_at`, and the analytic cycle counts reproduce what the
    /// scalar run's `sim.cycles()` reads when it drops — `full_cycles`
    /// for a fault the whole test never exposes.
    ///
    /// Shift and flush cycles settle only `shift_cone`, the fault-free
    /// [`shift_cone`](Self::shift_cone); capture cycles settle every
    /// cell. A lane can leave the cone's levels only through its own
    /// stuck net, so when a fault's level lies outside its net's set
    /// the group settles a cone recomputed with each such net widened
    /// by its stuck level: a widened net on the scan path pulls in the
    /// logic it unmasks, and no lane reads a stale value through an
    /// unmasked pin.
    fn simulate_group(
        &self,
        faults: &[Fault],
        full_cycles: u64,
        shift_cone: &LiveCone,
    ) -> Vec<FaultOutcome> {
        let lanes = faults.len();
        debug_assert!((1..=63).contains(&lanes), "group of {lanes} fault lanes");
        let mut sim = WideSimulator::new(self.netlist);
        let widen: Vec<(NetId, Logic)> = faults
            .iter()
            .map(|f| (self.netlist.cell(f.cell).output(), f.stuck.level()))
            .filter(|&(net, level)| !shift_cone.level(net).contains(level))
            .collect();
        if widen.is_empty() {
            sim.compile_cone(shift_cone.comb());
        } else {
            sim.compile_cone(self.shift_cone(&widen).comb());
        }
        if let Some(rec) = self.obs {
            sim.attach_obs(rec);
        }
        for (_, net) in self.netlist.input_ports() {
            sim.set_net(*net, Logic::Zero);
        }
        for (k, f) in faults.iter().enumerate() {
            sim.set_stuck_lane(self.netlist.cell(f.cell).output(), k + 1, f.stuck.level());
        }
        self.access.enter_wide(&mut sim);
        let si = self.access.si_nets();
        let so = self.access.so_nets();
        let se = self.access.se();
        let per_pattern = self.length as u64 + 1;

        // Every observation below settles the new inputs first, so each
        // clock edge is a bare `tick`: a settle around it would evaluate
        // the cells once more for nothing.
        // Bits 1..=lanes are live fault lanes; lane 0 (golden) never drops.
        let mut active: u64 = (!0u64 >> (63 - lanes)) & !1;
        let mut detected_at: Vec<Option<usize>> = vec![None; lanes];
        let mut cycles: Vec<u64> = vec![full_cycles; lanes];

        'test: {
            for (p, pattern) in self.patterns.iter().enumerate() {
                sim.set_net(se, Logic::One);
                for (c, ins) in pattern.scan_in.iter().enumerate() {
                    for (&net, &bit) in si.iter().zip(ins) {
                        sim.set_net(net, bit);
                    }
                    sim.settle_cone();
                    let mut mism = 0u64;
                    for &net in &so {
                        mism |= mismatch_word(sim.value(net));
                    }
                    mism &= active;
                    if mism != 0 {
                        // The scalar engine counts the detecting shift's
                        // clock (it steps inside `shift` before comparing).
                        let now = p as u64 * per_pattern + c as u64 + 1;
                        record_drops(mism, p, now, &mut active, &mut detected_at, &mut cycles);
                        if active == 0 {
                            break 'test;
                        }
                    }
                    sim.tick();
                }
                sim.set_net(se, Logic::Zero);
                for (&net, &v) in self.free_pi.iter().zip(&pattern.pi) {
                    sim.set_net(net, v);
                }
                sim.settle();
                let mut mism = 0u64;
                for (_, net) in self.netlist.output_ports() {
                    mism |= mismatch_word(sim.value(*net));
                }
                mism &= active;
                if mism != 0 {
                    // POs are compared after l shifts, before the capture
                    // clock.
                    let now = p as u64 * per_pattern + self.length as u64;
                    record_drops(mism, p, now, &mut active, &mut detected_at, &mut cycles);
                    if active == 0 {
                        break 'test;
                    }
                }
                sim.tick();
            }
            // The final flush exposes the last capture.
            sim.set_net(se, Logic::One);
            let base = self.patterns.len() as u64 * per_pattern;
            for c in 0..self.length {
                for &net in &si {
                    sim.set_net(net, Logic::Zero);
                }
                sim.settle_cone();
                let mut mism = 0u64;
                for &net in &so {
                    mism |= mismatch_word(sim.value(net));
                }
                mism &= active;
                if mism != 0 {
                    let now = base + c as u64 + 1;
                    record_drops(
                        mism,
                        self.patterns.len(),
                        now,
                        &mut active,
                        &mut detected_at,
                        &mut cycles,
                    );
                    if active == 0 {
                        break 'test;
                    }
                }
                sim.tick();
            }
        }

        detected_at
            .into_iter()
            .zip(cycles)
            .map(|(detected_at, cycles)| FaultOutcome {
                detected_at,
                cycles,
            })
            .collect()
    }
}

/// Runs stuck-at fault simulation and reports coverage.
///
/// The golden responses are computed once; each fault is then simulated
/// until its first detection (fault dropping) on
/// [`threads`](FaultSimConfig::threads) workers. A fault is detected
/// when any observed bit (scan-out streams or primary outputs at
/// capture) differs from the golden run with both values known.
///
/// # Errors
///
/// Returns [`DftError::Netlist`] naming the port when a
/// [`hold_low`](FaultSimConfig::hold_low) entry is not a port of the
/// netlist — a misspelled monitor control would otherwise silently
/// receive random stimulus and corrupt the coverage number.
///
/// # Panics
///
/// Panics if the netlist's ports disagree with the access structure
/// (internal wiring bug).
pub fn fault_coverage(
    netlist: &Netlist,
    access: ScanAccess<'_>,
    lib: &CellLibrary,
    faults: &[Fault],
    cfg: &FaultSimConfig,
) -> Result<CoverageReport, DftError> {
    fault_coverage_obs(netlist, access, lib, faults, cfg, None)
}

/// [`fault_coverage`] with observability: when a [`Recorder`] is
/// supplied, the run is traced and measured —
///
/// * the golden run becomes a `golden` span on the controller lane and
///   each fault an instant on its worker's lane (cell, polarity, where
///   it was first detected, cycles before dropping);
/// * deterministic metrics `dft.faults`, `dft.faults.detected`,
///   `dft.cycles.simulated`, `dft.cycles.dropped` and histograms
///   `dft.fault_cycles` (cycles per fault before dropping) and
///   `dft.detect_pattern` (first-detection pattern index) accumulate
///   into the recorder's registry, together with the simulator's settle
///   metrics — all commutative sums, so the deterministic snapshot is
///   byte-identical at any thread count.
///
/// The report itself is byte-identical with and without a recorder.
///
/// # Errors
///
/// As [`fault_coverage`].
///
/// # Panics
///
/// As [`fault_coverage`].
pub fn fault_coverage_obs(
    netlist: &Netlist,
    access: ScanAccess<'_>,
    lib: &CellLibrary,
    faults: &[Fault],
    cfg: &FaultSimConfig,
    obs: Option<&Recorder>,
) -> Result<CoverageReport, DftError> {
    fault_coverage_impl(netlist, access, lib, faults, cfg, obs, WIDE_GROUP)
}

/// Fault lanes per [`WideSimulator`] group: 64 machine lanes minus the
/// golden lane.
const WIDE_GROUP: usize = 63;

/// The engine-dispatching implementation. `group_lanes` is the wide
/// engine's lane packing (production always passes [`WIDE_GROUP`]; tests
/// pin that the report is identical at any packing).
fn fault_coverage_impl(
    netlist: &Netlist,
    access: ScanAccess<'_>,
    lib: &CellLibrary,
    faults: &[Fault],
    cfg: &FaultSimConfig,
    obs: Option<&Recorder>,
    group_lanes: usize,
) -> Result<CoverageReport, DftError> {
    let start = Instant::now();
    // Sample the fault list if requested.
    let mut lfsr = Lfsr::maximal(32, cfg.seed | 1);
    let sampled: Vec<Fault> = match cfg.max_faults {
        Some(cap) if faults.len() > cap => {
            let mut picked = Vec::with_capacity(cap);
            let mut taken = vec![false; faults.len()];
            while picked.len() < cap {
                let i = lfsr.next_below(faults.len() as u64) as usize;
                if !taken[i] {
                    taken[i] = true;
                    picked.push(faults[i]);
                }
            }
            picked
        }
        _ => faults.to_vec(),
    };

    // Free primary inputs = ports that are not scan pins, not scan
    // enable, not explicitly held low.
    let scan_pins: HashSet<NetId> = {
        let mut v = Vec::new();
        match access {
            ScanAccess::Direct(c) => v.extend(c.chains.iter().map(|ch| ch.si)),
            ScanAccess::TestMode(c, tm) => {
                v.extend(c.chains.iter().map(|ch| ch.si));
                v.extend(tm.test_si.iter().copied());
                v.push(tm.test_mode);
            }
        }
        v.push(access.se());
        v.into_iter().collect()
    };
    let held: HashSet<NetId> = cfg
        .hold_low
        .iter()
        .map(|name| netlist.port(name).map_err(DftError::from))
        .collect::<Result<_, _>>()?;
    let free_pi: Vec<NetId> = netlist
        .input_ports()
        .iter()
        .map(|(_, n)| *n)
        .filter(|n| !scan_pins.contains(n) && !held.contains(n))
        .collect();

    // Pre-generate patterns.
    let w = access.width();
    let l = access.length();
    let patterns: Vec<Pattern> = (0..cfg.patterns)
        .map(|_| Pattern {
            scan_in: (0..l)
                .map(|_| (0..w).map(|_| Logic::from(lfsr.next_bit())).collect())
                .collect(),
            pi: (0..free_pi.len())
                .map(|_| Logic::from(lfsr.next_bit()))
                .collect(),
        })
        .collect();

    let tester = Tester {
        netlist,
        index: NetIndex::new(netlist),
        lib,
        access,
        free_pi,
        patterns,
        width: w,
        length: l,
        obs,
    };

    // Fan the faults out; outcomes come back in index order, so the
    // merge below (and thus the whole report) is thread-count-blind.
    let (outcomes, full_cycles) = match cfg.engine {
        FaultSimEngine::Scalar => {
            let (golden, full_cycles) = tester.golden();
            let outcomes = run_pool_obs(sampled.len(), cfg.threads, obs, |worker, i| {
                let fault = sampled[i];
                let outcome = tester.simulate_fault(fault, &golden);
                if let Some(rec) = obs {
                    emit_fault_instant(rec, worker, cfg.patterns, fault, &outcome);
                }
                outcome
            });
            (outcomes, full_cycles)
        }
        FaultSimEngine::Wide => {
            // No golden run: lane 0 of every group is the golden machine,
            // and the never-dropped test length is analytic — l shifts
            // plus a capture per pattern, then the l-cycle flush.
            let full_cycles = cfg.patterns as u64 * (l as u64 + 1) + l as u64;
            let groups: Vec<&[Fault]> = sampled.chunks(group_lanes.clamp(1, WIDE_GROUP)).collect();
            let shift_cone = tester.shift_cone(&[]);
            let group_outcomes = run_pool_obs(groups.len(), cfg.threads, obs, |worker, g| {
                let outcomes = tester.simulate_group(groups[g], full_cycles, &shift_cone);
                if let Some(rec) = obs {
                    for (&fault, outcome) in groups[g].iter().zip(&outcomes) {
                        emit_fault_instant(rec, worker, cfg.patterns, fault, outcome);
                    }
                }
                outcomes
            });
            let outcomes: Vec<FaultOutcome> = group_outcomes.into_iter().flatten().collect();
            (outcomes, full_cycles)
        }
    };

    let (fault_cycles, detect_pattern) = match obs {
        Some(rec) => (
            rec.histogram("dft.fault_cycles"),
            rec.histogram("dft.detect_pattern"),
        ),
        None => (HistogramHandle::disabled(), HistogramHandle::disabled()),
    };
    let mut detected = 0usize;
    let mut undetected_sample = Vec::new();
    let mut detected_at_pattern = vec![0usize; cfg.patterns + 1];
    let mut simulated_cycles = 0u64;
    for (fault, outcome) in sampled.iter().zip(&outcomes) {
        simulated_cycles += outcome.cycles;
        fault_cycles.record(outcome.cycles);
        match outcome.detected_at {
            Some(p) => {
                detected += 1;
                detected_at_pattern[p] += 1;
                detect_pattern.record(p as u64);
            }
            None => {
                if undetected_sample.len() < 16 {
                    undetected_sample.push(*fault);
                }
            }
        }
    }
    let dropped_cycles = (full_cycles * sampled.len() as u64).saturating_sub(simulated_cycles);
    if let Some(rec) = obs {
        rec.counter("dft.faults").add(sampled.len() as u64);
        rec.counter("dft.faults.detected").add(detected as u64);
        rec.counter("dft.patterns").add(cfg.patterns as u64);
        rec.counter("dft.cycles.simulated").add(simulated_cycles);
        rec.counter("dft.cycles.dropped").add(dropped_cycles);
    }
    Ok(CoverageReport {
        faults: sampled.len(),
        detected,
        undetected_sample,
        detected_at_pattern,
        simulated_cycles,
        dropped_cycles,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

/// One trace instant per simulated fault, identical for both engines.
fn emit_fault_instant(
    rec: &Recorder,
    worker: usize,
    patterns: usize,
    fault: Fault,
    outcome: &FaultOutcome,
) {
    let detected = match outcome.detected_at {
        Some(p) if p == patterns => "flush".to_owned(),
        Some(p) => format!("p{p}"),
        None => "undetected".to_owned(),
    };
    rec.instant(
        Lane::Worker(worker as u32),
        "fault",
        outcome.cycles,
        vec![
            arg("cell", fault.cell.index() as u64),
            arg("stuck", matches!(fault.stuck, StuckAt::One) as u64),
            arg("detected", detected.as_str()),
            arg("cycles", outcome.cycles),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{configure_test_mode, insert_scan, ScanConfig};
    use scanguard_netlist::NetlistBuilder;

    /// A scanned 8-flop design with a little combinational logic.
    fn scanned() -> (Netlist, ScanChains) {
        let mut b = NetlistBuilder::new("dut");
        let mut qs = Vec::new();
        for i in 0..8 {
            let d = b.input(&format!("d[{i}]"));
            let (q, _) = b.dff(&format!("r{i}"), d);
            qs.push(q);
        }
        let parity = b.xor_tree(&qs);
        b.output("parity", parity);
        let anded = b.and_tree(&qs[..4]);
        b.output("all4", anded);
        let mut nl = b.finish().unwrap();
        let sc = insert_scan(&mut nl, &ScanConfig::with_chains(2)).unwrap();
        (nl, sc)
    }

    #[test]
    fn enumeration_skips_trivial_tie_faults() {
        let mut b = NetlistBuilder::new("t");
        let z = b.tie_lo();
        let o = b.tie_hi();
        let y = b.and2(z, o);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let faults = enumerate_faults(&nl);
        // TieLo: only s-a-1; TieHi: only s-a-0; And2: both.
        assert_eq!(faults.len(), 4);
    }

    #[test]
    fn scan_test_achieves_high_coverage_on_a_scanned_design() {
        let (nl, sc) = scanned();
        let lib = CellLibrary::st120nm();
        let faults = enumerate_faults(&nl);
        let report = fault_coverage(
            &nl,
            ScanAccess::Direct(&sc),
            &lib,
            &faults,
            &FaultSimConfig {
                patterns: 12,
                ..FaultSimConfig::default()
            },
        )
        .unwrap();
        let pct = report.coverage_pct().expect("faults were simulated");
        assert!(
            pct > 90.0,
            "scan test should catch most stuck-ats: {:.1}% ({:?})",
            pct,
            report.undetected_sample
        );
    }

    #[test]
    fn a_blatant_fault_is_always_detected() {
        let (nl, sc) = scanned();
        let lib = CellLibrary::st120nm();
        // Stick a scan flop's output: breaks the shift path itself.
        let victim = sc.chains[0].cells[1];
        let faults = vec![
            Fault {
                cell: victim,
                stuck: StuckAt::Zero,
            },
            Fault {
                cell: victim,
                stuck: StuckAt::One,
            },
        ];
        let report = fault_coverage(
            &nl,
            ScanAccess::Direct(&sc),
            &lib,
            &faults,
            &FaultSimConfig {
                patterns: 4,
                ..FaultSimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.detected, 2);
        assert_eq!(report.coverage_pct(), Some(100.0));
    }

    #[test]
    fn test_mode_access_reaches_the_same_faults() {
        let (mut nl, sc) = scanned();
        let tm = configure_test_mode(&mut nl, &sc, 1).unwrap();
        let lib = CellLibrary::st120nm();
        let faults: Vec<Fault> = sc
            .cells()
            .map(|cell| Fault {
                cell,
                stuck: StuckAt::Zero,
            })
            .collect();
        let report = fault_coverage(
            &nl,
            ScanAccess::TestMode(&sc, &tm),
            &lib,
            &faults,
            &FaultSimConfig {
                patterns: 6,
                hold_low: vec![],
                ..FaultSimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            report.detected, report.faults,
            "every flop fault visible through the concatenated chain: {report:?}"
        );
    }

    #[test]
    fn fault_sampling_caps_the_run() {
        let (nl, sc) = scanned();
        let lib = CellLibrary::st120nm();
        let faults = enumerate_faults(&nl);
        let report = fault_coverage(
            &nl,
            ScanAccess::Direct(&sc),
            &lib,
            &faults,
            &FaultSimConfig {
                patterns: 4,
                max_faults: Some(10),
                ..FaultSimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.faults, 10);
    }

    #[test]
    fn empty_fault_list_is_not_perfect_coverage() {
        let (nl, sc) = scanned();
        let lib = CellLibrary::st120nm();
        let report = fault_coverage(
            &nl,
            ScanAccess::Direct(&sc),
            &lib,
            &[],
            &FaultSimConfig {
                patterns: 2,
                ..FaultSimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.faults, 0);
        assert_eq!(report.coverage_pct(), None);
    }

    #[test]
    fn unknown_hold_low_port_is_an_error() {
        let (nl, sc) = scanned();
        let lib = CellLibrary::st120nm();
        let faults = enumerate_faults(&nl);
        let err = fault_coverage(
            &nl,
            ScanAccess::Direct(&sc),
            &lib,
            &faults,
            &FaultSimConfig {
                patterns: 2,
                hold_low: vec!["mon_enn".into()],
                ..FaultSimConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("mon_enn"),
            "the error must name the bad port: {err}"
        );
    }

    #[test]
    fn fault_dropping_stops_at_first_detection() {
        let (nl, sc) = scanned();
        let lib = CellLibrary::st120nm();
        let victim = sc.chains[0].cells[1];
        let faults = vec![Fault {
            cell: victim,
            stuck: StuckAt::One,
        }];
        let patterns = 8;
        let report = fault_coverage(
            &nl,
            ScanAccess::Direct(&sc),
            &lib,
            &faults,
            &FaultSimConfig {
                patterns,
                ..FaultSimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.detected, 1);
        let p = report
            .detected_at_pattern
            .iter()
            .position(|&n| n == 1)
            .expect("one detection in the histogram");
        assert!(p < patterns, "a broken shift path is caught before flush");
        // One pattern costs chain-length shift cycles plus the capture
        // cycle; the run must stop within the detecting pattern — at
        // most `p+1` full patterns are simulated and pattern `p+1` is
        // never entered (and since detection is mid-shift here, not
        // even pattern `p` completes).
        let per_pattern = (sc.max_len() + 1) as u64;
        assert!(report.simulated_cycles > p as u64 * per_pattern);
        assert!(report.simulated_cycles < (p as u64 + 1) * per_pattern);
        assert!(report.dropped_cycles > 0, "dropping must save cycles");
    }

    /// `wall_ms` normalized out, everything else byte-for-byte.
    fn canonical_json(mut r: CoverageReport) -> String {
        r.wall_ms = 0.0;
        serde_json::to_string(&r).unwrap()
    }

    #[test]
    fn wide_engine_matches_scalar_byte_for_byte() {
        let (nl, sc) = scanned();
        let lib = CellLibrary::st120nm();
        let faults = enumerate_faults(&nl);
        let run = |engine: FaultSimEngine, threads: usize| {
            fault_coverage(
                &nl,
                ScanAccess::Direct(&sc),
                &lib,
                &faults,
                &FaultSimConfig {
                    patterns: 8,
                    threads,
                    engine,
                    ..FaultSimConfig::default()
                },
            )
            .unwrap()
        };
        let scalar = run(FaultSimEngine::Scalar, 1);
        assert!(scalar.detected > 0, "fixture must detect something");
        for threads in [1, 8] {
            let wide = run(FaultSimEngine::Wide, threads);
            assert_eq!(
                canonical_json(scalar.clone()),
                canonical_json(wide),
                "wide engine diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn wide_engine_matches_scalar_through_test_mode() {
        let (mut nl, sc) = scanned();
        let tm = configure_test_mode(&mut nl, &sc, 1).unwrap();
        let lib = CellLibrary::st120nm();
        let faults = enumerate_faults(&nl);
        let run = |engine: FaultSimEngine| {
            fault_coverage(
                &nl,
                ScanAccess::TestMode(&sc, &tm),
                &lib,
                &faults,
                &FaultSimConfig {
                    patterns: 6,
                    engine,
                    ..FaultSimConfig::default()
                },
            )
            .unwrap()
        };
        assert_eq!(
            canonical_json(run(FaultSimEngine::Scalar)),
            canonical_json(run(FaultSimEngine::Wide)),
            "wide engine diverged through the concatenated test chains"
        );
    }

    /// A scanned design whose shift levels two faults break: `se`
    /// reaches the last two flops through a buffer, and a `TieHi`
    /// selects the scan path into the third flop. Buffer stuck-at-0
    /// makes those flops capture their `d` logic while shifting; tie
    /// stuck-at-0 switches the mux to its functional arm. Both pull in
    /// logic the fault-free shift cone leaves out.
    fn shift_breaking() -> (Netlist, ScanChains, Vec<Fault>) {
        let mut b = NetlistBuilder::new("shift_breaking");
        let d = b.input_bus("d", 4);
        let si = b.input("si");
        let se = b.input("se");
        let se_buf = b.buf(se);
        let tie = b.tie_hi();
        let q3 = b.net("q3");
        let d0 = b.xor2(d[0], q3);
        let (q0, r0) = b.sdff("r0", d0, si, se);
        let d1 = b.and2(d[1], q0);
        let (q1, r1) = b.sdff("r1", d1, q0, se);
        let arm = b.xor2(d[2], q0);
        let scan_in2 = b.mux2(tie, arm, q1);
        let d2 = b.or2(d[2], q1);
        let (q2, r2) = b.sdff("r2", d2, scan_in2, se_buf);
        let d3 = b.xnor2(d[3], q2);
        let r3 = b.drive(q3, GateKind::Sdff, vec![d3, q2, se_buf]);
        b.output("so", q3);
        let y = b.and2(q1, q2);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let sc = ScanChains {
            se,
            chains: vec![crate::ScanChain {
                si,
                so: q3,
                cells: vec![r0, r1, r2, r3],
            }],
            se_port: "se".into(),
        };
        let faults = enumerate_faults(&nl);
        for net in [se_buf, tie] {
            let breaking = Fault {
                cell: nl.driver(net).unwrap(),
                stuck: StuckAt::Zero,
            };
            assert!(faults.contains(&breaking));
        }
        (nl, sc, faults)
    }

    /// The per-group cone widening: a group holding faults that leave
    /// the shift levels must settle the logic they unmask, or its lanes
    /// read stale values while shifting.
    #[test]
    fn faults_that_break_the_shift_levels_match_scalar() {
        let (nl, sc, faults) = shift_breaking();
        let lib = CellLibrary::st120nm();
        let run = |engine: FaultSimEngine, threads: usize| {
            let cfg = FaultSimConfig {
                patterns: 6,
                threads,
                engine,
                ..FaultSimConfig::default()
            };
            fault_coverage(&nl, ScanAccess::Direct(&sc), &lib, &faults, &cfg).unwrap()
        };
        let scalar = run(FaultSimEngine::Scalar, 1);
        assert!(scalar.detected > 0, "fixture must detect something");
        for threads in [1, 3] {
            assert_eq!(
                canonical_json(scalar.clone()),
                canonical_json(run(FaultSimEngine::Wide, threads)),
                "wide engine diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn lane_packing_does_not_change_the_report() {
        // 1 fault lane per group degenerates to serial golden-vs-faulty
        // pairs; 7 leaves the last group partial; 63 is production. All
        // must be byte-identical (and identical to scalar).
        let (nl, sc) = scanned();
        let lib = CellLibrary::st120nm();
        let faults = enumerate_faults(&nl);
        let cfg = FaultSimConfig {
            patterns: 8,
            threads: 2,
            engine: FaultSimEngine::Wide,
            ..FaultSimConfig::default()
        };
        let scalar = fault_coverage(
            &nl,
            ScanAccess::Direct(&sc),
            &lib,
            &faults,
            &FaultSimConfig {
                engine: FaultSimEngine::Scalar,
                ..cfg.clone()
            },
        )
        .unwrap();
        for lanes in [1usize, 7, 63] {
            let wide = fault_coverage_impl(
                &nl,
                ScanAccess::Direct(&sc),
                &lib,
                &faults,
                &cfg,
                None,
                lanes,
            )
            .unwrap();
            assert_eq!(
                canonical_json(scalar.clone()),
                canonical_json(wide),
                "report changed at {lanes} fault lanes per group"
            );
        }
    }

    #[test]
    fn wide_metrics_snapshot_is_thread_count_blind() {
        use scanguard_obs::RecorderConfig;
        let (nl, sc) = scanned();
        let lib = CellLibrary::st120nm();
        let faults = enumerate_faults(&nl);
        let run = |threads: usize| {
            let rec = Recorder::new(RecorderConfig {
                metrics: true,
                ..RecorderConfig::default()
            });
            let report = fault_coverage_obs(
                &nl,
                ScanAccess::Direct(&sc),
                &lib,
                &faults,
                &FaultSimConfig {
                    patterns: 8,
                    threads,
                    engine: FaultSimEngine::Wide,
                    ..FaultSimConfig::default()
                },
                Some(&rec),
            )
            .unwrap();
            (report, rec.metrics_snapshot())
        };
        let (serial_report, serial) = run(1);
        let (parallel_report, parallel) = run(8);
        assert_eq!(serial_report, parallel_report);
        assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
        assert!(
            serial.counters["sim.wide.settles"] > 0,
            "wide settle metrics flow in"
        );
        assert!(serial.counters["sim.wide.cell_evals"] > 0);
    }

    #[test]
    fn engine_names_round_trip_serde_and_parse() {
        assert_eq!(FaultSimEngine::parse("wide"), Some(FaultSimEngine::Wide),);
        assert_eq!(
            FaultSimEngine::parse("scalar"),
            Some(FaultSimEngine::Scalar)
        );
        assert_eq!(FaultSimEngine::parse("vector"), None);
        assert_eq!(
            serde_json::to_string(&FaultSimEngine::Wide).unwrap(),
            "\"wide\""
        );
        let cfg: FaultSimConfig = serde_json::from_str(
            "{\"patterns\":4,\"seed\":1,\"max_faults\":null,\"hold_low\":[],\"threads\":1}",
        )
        .unwrap();
        assert_eq!(cfg.engine, FaultSimEngine::Wide, "engine defaults in");
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let (nl, sc) = scanned();
        let lib = CellLibrary::st120nm();
        let faults = enumerate_faults(&nl);
        let run = |threads: usize| {
            fault_coverage(
                &nl,
                ScanAccess::Direct(&sc),
                &lib,
                &faults,
                &FaultSimConfig {
                    patterns: 8,
                    threads,
                    ..FaultSimConfig::default()
                },
            )
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial, parallel, "structural mismatch across thread counts");
        // Byte-identical once the wall-clock noise field is normalized.
        let normalize = |mut r: CoverageReport| {
            r.wall_ms = 0.0;
            serde_json::to_string(&r).unwrap()
        };
        assert_eq!(normalize(serial), normalize(parallel));
    }

    #[test]
    fn thread_count_does_not_change_the_metrics_snapshot() {
        use scanguard_obs::RecorderConfig;
        let (nl, sc) = scanned();
        let lib = CellLibrary::st120nm();
        let faults = enumerate_faults(&nl);
        let run = |threads: usize| {
            let rec = Recorder::new(RecorderConfig {
                metrics: true,
                ..RecorderConfig::default()
            });
            let report = fault_coverage_obs(
                &nl,
                ScanAccess::Direct(&sc),
                &lib,
                &faults,
                &FaultSimConfig {
                    patterns: 8,
                    threads,
                    // The scalar engine's golden run and `sim.*` counters.
                    engine: FaultSimEngine::Scalar,
                    ..FaultSimConfig::default()
                },
                Some(&rec),
            )
            .unwrap();
            (report, rec.metrics_snapshot())
        };
        let (serial_report, serial) = run(1);
        let (parallel_report, parallel) = run(8);
        assert_eq!(serial_report, parallel_report);
        assert_eq!(
            serial, parallel,
            "deterministic metrics must be thread-count-blind"
        );
        assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
        assert_eq!(serial.counters["dft.faults"], faults.len() as u64);
        assert_eq!(
            serial.counters["dft.faults.detected"],
            serial_report.detected as u64
        );
        assert_eq!(
            serial.histograms["dft.fault_cycles"].count,
            faults.len() as u64
        );
        assert!(serial.counters["sim.cell_evals"] > 0, "sim metrics flow in");
    }

    #[test]
    fn observed_run_reports_the_same_coverage() {
        use scanguard_obs::{EventKind, RecorderConfig};
        let (nl, sc) = scanned();
        let lib = CellLibrary::st120nm();
        let faults = enumerate_faults(&nl);
        let cfg = FaultSimConfig {
            patterns: 8,
            threads: 2,
            // The scalar engine's `golden` span.
            engine: FaultSimEngine::Scalar,
            ..FaultSimConfig::default()
        };
        let rec = Recorder::new(RecorderConfig {
            trace: true,
            ..RecorderConfig::default()
        });
        let plain = fault_coverage(&nl, ScanAccess::Direct(&sc), &lib, &faults, &cfg).unwrap();
        let observed = fault_coverage_obs(
            &nl,
            ScanAccess::Direct(&sc),
            &lib,
            &faults,
            &cfg,
            Some(&rec),
        )
        .unwrap();
        assert_eq!(plain, observed, "tracing must not change the report");
        let events = rec.events();
        assert!(events
            .iter()
            .any(|e| e.lane == Lane::Controller && e.name == "golden"));
        let fault_marks = events
            .iter()
            .filter(|e| e.kind == EventKind::Instant && e.name == "fault")
            .count();
        assert_eq!(fault_marks, faults.len(), "one instant per fault");
    }
}
