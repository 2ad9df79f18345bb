//! The levelized cycle simulator.

use crate::tables::SimTables;
use crate::EnergyWindow;
use scanguard_netlist::{CellId, CellLibrary, Logic, NetId, Netlist, NetlistError};

/// A cycle-accurate, zero-delay, 3-state simulator over a validated
/// [`Netlist`], with one power-gated domain, retention flip-flops and
/// activity-based energy accounting.
///
/// One [`step`](Simulator::step) models one clock cycle: combinational
/// settling, flip-flop capture (respecting scan muxes and the gated
/// domain's power and clock), commit, and a post-edge settle. Energy is
/// accumulated per committed transition using the [`CellLibrary`]'s
/// per-cell figures; see [`take_energy`](Simulator::take_energy).
///
/// # Examples
///
/// ```
/// use scanguard_netlist::{CellLibrary, Logic, NetlistBuilder};
/// use scanguard_sim::Simulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A 1-bit register.
/// let mut b = NetlistBuilder::new("reg");
/// let d = b.input("d");
/// let (q, ff) = b.dff("r", d);
/// b.output("q", q);
/// let nl = b.finish()?;
///
/// let lib = CellLibrary::st120nm();
/// let mut sim = Simulator::new(&nl, &lib);
/// sim.set_port("d", Logic::One)?;
/// sim.step();
/// assert_eq!(sim.ff_value(ff), Logic::One);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    values: Vec<Logic>,
    /// Retention-latch contents, indexed by cell (meaningful only for
    /// retention flip-flops).
    retention: Vec<Logic>,
    /// Staging buffer for flip-flop capture.
    next_ff: Vec<Logic>,
    /// Pending bitset over combinational positions, one `u64` per 64
    /// positions: a position's bit is set when one of its input nets
    /// changed since it was last evaluated, through the load CSR of
    /// [`SimTables`]. A sparse settle evaluates the set bits lowest
    /// first; loads sit later in topological order than their drivers,
    /// so that is exactly the topological walk over the cells with a
    /// changed input, and it leaves the bitset empty.
    pending: Vec<u64>,
    /// Lowest word of `pending` that may hold a set bit;
    /// `pending.len()` when none does, so a settle with nothing pending
    /// returns without scanning.
    pending_lo: usize,
    /// Escape hatch for events that change cell outputs without touching
    /// any input net (the gated domain's power flips): forces the next
    /// settle to evaluate everything.
    all_dirty: bool,
    /// Test hook: every settle makes the full pass, the reference the
    /// sparse settle is held to.
    #[cfg(test)]
    full_settle: bool,
    /// Flattened struct-of-arrays cell metadata (padded input pins,
    /// truth-table bases, output nets, load CSR, energy figures) —
    /// everything the settle, capture and commit loops read, laid out
    /// contiguously so the hot path never chases `Netlist` cell
    /// pointers.
    tables: SimTables,
    /// Per combinational position: the cell sits in the gated domain.
    c_gated: Vec<bool>,
    /// Per sequential position: the flop sits in the gated domain.
    s_gated: Vec<bool>,
    /// The gated domain's power switches are on.
    powered: bool,
    /// The RETAIN control of the gated domain's retention flip-flops.
    retain: bool,
    /// The gated domain's clock tree runs; with it stopped, powered
    /// gated registers hold their state and draw no clock energy.
    clock_en: bool,
    /// Nets forced to a constant (stuck-at fault injection). Kept as a
    /// tiny list — fault simulation activates one or two at a time.
    stuck: Vec<(NetId, Logic)>,
    dynamic_pj: f64,
    cycles: u64,
    toggles: u64,
    /// Pre-resolved metric handles (see
    /// [`attach_obs`](Simulator::attach_obs)); `None` costs one branch
    /// per settle and nothing per cell.
    obs: Option<SimObs>,
}

/// Incremental-settle statistics, resolved once at attach time so the
/// settle loop never touches the recorder's registry (lock-free,
/// allocation-free relaxed atomics on the hot path).
#[derive(Debug)]
struct SimObs {
    /// Settle calls.
    settles: scanguard_obs::CounterHandle,
    /// Combinational cells evaluated across all settles.
    cell_evals: scanguard_obs::CounterHandle,
    /// Clock cycles stepped (a scraper derives cycles/s from this).
    cycles: scanguard_obs::CounterHandle,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator. All nets start at [`Logic::X`]; initialize
    /// registers via [`force_ff`](Self::force_ff), a reset sequence, or a
    /// scan load.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has pending edits (see
    /// [`Netlist::revalidate`]).
    #[must_use]
    pub fn new(netlist: &'a Netlist, lib: &'a CellLibrary) -> Self {
        let tables = SimTables::new(netlist, lib); // asserts validated
        let words = tables.comb_len().div_ceil(64);
        Simulator {
            netlist,
            values: vec![Logic::X; netlist.net_count()],
            retention: vec![Logic::X; netlist.cell_count()],
            next_ff: vec![Logic::X; netlist.cell_count()],
            pending: vec![0; words],
            pending_lo: words,
            all_dirty: true,
            #[cfg(test)]
            full_settle: false,
            c_gated: vec![false; tables.comb_len()],
            s_gated: vec![false; tables.seq_len()],
            tables,
            powered: true,
            retain: false,
            clock_en: true,
            stuck: Vec::new(),
            dynamic_pj: 0.0,
            cycles: 0,
            toggles: 0,
            obs: None,
        }
    }

    /// Starts recording incremental-settle statistics into `rec`'s
    /// metrics registry: `sim.settles` (settle calls), `sim.cell_evals`
    /// (combinational evaluations) and `sim.cycles` (clock steps).
    /// Handles are resolved here, once — the per-settle cost
    /// is a couple of relaxed atomic adds, with no allocation
    /// (asserted by the `zero_alloc` integration test), and simulation
    /// semantics are untouched.
    pub fn attach_obs(&mut self, rec: &scanguard_obs::Recorder) {
        self.obs = Some(SimObs {
            settles: rec.counter("sim.settles"),
            cell_evals: rec.counter("sim.cell_evals"),
            cycles: rec.counter("sim.cycles"),
        });
    }

    // ------------------------------------------------------------------
    // Fault injection (manufacturing-test fault simulation)
    // ------------------------------------------------------------------

    /// Forces a net to a constant level — the classic stuck-at fault
    /// model. The net's driver still evaluates (and burns energy), but
    /// downstream logic sees the stuck level. Multiple faults may be
    /// active for the simulator's lifetime.
    pub fn set_stuck(&mut self, net: NetId, level: Logic) {
        self.stuck.retain(|&(n, _)| n != net);
        self.stuck.push((net, level));
        self.write_net(net, level);
    }

    fn stuck_level(&self, net: NetId) -> Option<Logic> {
        self.stuck.iter().find(|&&(n, _)| n == net).map(|&(_, v)| v)
    }

    /// The simulated netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    // ------------------------------------------------------------------
    // The gated domain
    // ------------------------------------------------------------------

    /// Moves `cells` into the power-gated domain (the paper's PGC); every
    /// other cell stays always-on.
    ///
    /// # Panics
    ///
    /// Panics if the domain is switched off.
    pub fn gate<I: IntoIterator<Item = CellId>>(&mut self, cells: I) {
        assert!(self.powered, "gate cells while the domain is powered");
        let mut gated = vec![false; self.netlist.cell_count()];
        for c in cells {
            gated[c.index()] = true;
        }
        for (flag, &cell) in self.c_gated.iter_mut().zip(self.netlist.topo_order()) {
            *flag |= gated[cell.index()];
        }
        for (flag, &cell) in self.s_gated.iter_mut().zip(&self.tables.s_cell) {
            *flag |= gated[cell as usize];
        }
    }

    /// Switches the gated domain's power. Powering **off** immediately
    /// corrupts the master stage of every gated flip-flop to [`Logic::X`]
    /// (retention latches are unaffected — they sit in the always-on
    /// rail). Powering **on** leaves masters at `X` until the retention
    /// state is restored via [`set_retain`](Self::set_retain).
    pub fn set_power(&mut self, on: bool) {
        if self.powered == on {
            return;
        }
        self.powered = on;
        // Gated combinational cells change output (to or from X) with no
        // input-net change, so the incremental settle must visit
        // everything once.
        self.all_dirty = true;
        if !on {
            for s in 0..self.tables.seq_len() {
                if self.s_gated[s] {
                    self.values[self.tables.s_out[s] as usize] = Logic::X;
                }
            }
        }
    }

    /// Gates or ungates the gated domain's clock tree. With the clock
    /// gated, its powered registers hold their state and draw no clock
    /// energy — how a real power-gating controller freezes the circuit
    /// around the save/restore sequences.
    pub fn set_clock_enable(&mut self, enable: bool) {
        self.clock_en = enable;
    }

    /// Drives the RETAIN control of the gated domain's retention
    /// flip-flops (paper Fig. 1):
    ///
    /// * a `0 -> 1` transition saves each master into its slave latch;
    /// * a `1 -> 0` transition restores each slave into its master
    ///   (only meaningful while the domain is powered).
    pub fn set_retain(&mut self, retain: bool) {
        if self.retain == retain {
            return;
        }
        self.retain = retain;
        for s in 0..self.tables.seq_len() {
            if !self.s_gated[s] || !self.tables.s_kind[s].is_retention() {
                continue;
            }
            let idx = self.tables.s_cell[s] as usize;
            let out = self.tables.s_out[s] as usize;
            if retain {
                // Save master -> slave.
                self.retention[idx] = self.values[out];
            } else if self.powered {
                // Restore slave -> master.
                self.write_net(NetId::from_index(out), self.retention[idx]);
            }
        }
    }

    // ------------------------------------------------------------------
    // Value access
    // ------------------------------------------------------------------

    /// Sets a primary input net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is driven by a cell (not a primary input).
    pub fn set_net(&mut self, net: NetId, value: Logic) {
        assert!(
            self.netlist.driver(net).is_none(),
            "net {net} is cell-driven; only primary inputs can be set"
        );
        self.write_net(net, value);
    }

    /// Writes a net value, marking its loads for the incremental settle
    /// when it actually changed.
    fn write_net(&mut self, net: NetId, value: Logic) {
        let i = net.index();
        if self.values[i] != value {
            self.values[i] = value;
            self.mark_loads(i);
        }
    }

    /// Sets the pending bits of the combinational cells that read `net`.
    #[inline]
    fn mark_loads(&mut self, net: usize) {
        let loads = self.tables.loads(net);
        if let Some(&first) = loads.first() {
            self.pending_lo = self.pending_lo.min(first as usize / 64);
        }
        for &pos in loads {
            self.pending[pos as usize / 64] |= 1 << (pos % 64);
        }
    }

    /// Sets a primary input port by name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] for unknown names.
    pub fn set_port(&mut self, name: &str, value: Logic) -> Result<(), NetlistError> {
        let net = self.netlist.port(name)?;
        self.set_net(net, value);
        Ok(())
    }

    /// Convenience boolean variant of [`set_port`](Self::set_port).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] for unknown names.
    pub fn set_port_bool(&mut self, name: &str, value: bool) -> Result<(), NetlistError> {
        self.set_port(name, Logic::from(value))
    }

    /// Current value of a net (meaningful after
    /// [`settle`](Self::settle) or [`step`](Self::step)).
    #[must_use]
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Current value of a port by name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] for unknown names.
    pub fn port_value(&self, name: &str) -> Result<Logic, NetlistError> {
        Ok(self.value(self.netlist.port(name)?))
    }

    /// Output (master stage) value of a flip-flop.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not sequential.
    #[must_use]
    pub fn ff_value(&self, cell: CellId) -> Logic {
        let c = self.netlist.cell(cell);
        assert!(c.kind().is_sequential(), "cell {cell} is not a flip-flop");
        self.values[c.output().index()]
    }

    /// Forces a flip-flop's master output (initialization, fault
    /// injection).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not sequential.
    pub fn force_ff(&mut self, cell: CellId, value: Logic) {
        let c = self.netlist.cell(cell);
        assert!(c.kind().is_sequential(), "cell {cell} is not a flip-flop");
        self.write_net(c.output(), value);
    }

    /// Inverts a retention latch (an upset). `X` stays `X`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not a retention flip-flop.
    pub fn flip_retention(&mut self, cell: CellId) {
        assert!(
            self.netlist.cell(cell).kind().is_retention(),
            "cell {cell} has no retention latch"
        );
        self.retention[cell.index()] = !self.retention[cell.index()];
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Settles the combinational logic for the current inputs and
    /// register values, accumulating switching energy for every net that
    /// changes.
    ///
    /// The pass is incremental: it evaluates, in topological order, only
    /// the cells with an input net that changed since the last settle
    /// (every evaluation is a pure function of the inputs, so an
    /// unchanged cone cannot produce a new output). Power switching
    /// invalidates outputs without touching inputs, so it forces one
    /// full pass.
    pub fn settle(&mut self) {
        if let Some(o) = &self.obs {
            o.settles.inc();
        }
        #[cfg(test)]
        let full = self.all_dirty || self.full_settle;
        #[cfg(not(test))]
        let full = self.all_dirty;
        let mut evals = 0u64;
        if full {
            for pos in 0..self.tables.comb_len() {
                self.eval_pos(pos);
            }
            evals = self.tables.comb_len() as u64;
            self.pending.fill(0);
            self.all_dirty = false;
        } else {
            for w in self.pending_lo..self.pending.len() {
                // Re-read the word after each evaluation: it may have
                // set the bits of later positions in the same word.
                let mut bits = self.pending[w];
                while bits != 0 {
                    self.pending[w] = bits & (bits - 1);
                    self.eval_pos(w * 64 + bits.trailing_zeros() as usize);
                    evals += 1;
                    bits = self.pending[w];
                }
            }
        }
        self.pending_lo = self.pending.len();
        if let Some(o) = &self.obs {
            o.cell_evals.add(evals);
        }
    }

    /// Evaluates one combinational cell by its topological position with
    /// one truth-table lookup, and marks its loads when its output
    /// changed. All metadata comes from the struct-of-arrays tables — no
    /// `Netlist` access on this path.
    #[inline]
    fn eval_pos(&mut self, pos: usize) {
        let t = &self.tables;
        let mut new = if self.powered || !self.c_gated[pos] {
            t.eval(t.c_base[pos], t.c_pins[pos], &self.values)
        } else {
            Logic::X
        };
        let out = t.c_out[pos] as usize;
        if !self.stuck.is_empty() {
            if let Some(level) = self.stuck_level(NetId::from_index(out)) {
                new = level;
            }
        }
        let old = self.values[out];
        if old == new {
            return;
        }
        if old.is_known() && new.is_known() {
            self.toggles += 1;
            self.dynamic_pj += self.tables.c_toggle_pj[pos];
        }
        self.values[out] = new;
        self.mark_loads(out);
    }

    /// Advances one clock cycle: settle, capture, commit, settle.
    pub fn step(&mut self) {
        self.settle();
        // Capture.
        for s in 0..self.tables.seq_len() {
            let idx = self.tables.s_cell[s] as usize;
            let gated = self.s_gated[s];
            let next = if gated && !self.powered {
                Logic::X
            } else if gated && !self.clock_en {
                // Clock gated: hold.
                self.values[self.tables.s_out[s] as usize]
            } else {
                let t = &self.tables;
                t.eval(t.s_base[s], t.s_pins[s], &self.values)
            };
            self.next_ff[idx] = next;
        }
        // Commit + clock energy.
        for s in 0..self.tables.seq_len() {
            let idx = self.tables.s_cell[s] as usize;
            if !self.s_gated[s] || (self.powered && self.clock_en) {
                self.dynamic_pj += self.tables.s_clock_pj[s];
            }
            let out = self.tables.s_out[s] as usize;
            let old = self.values[out];
            let mut new = self.next_ff[idx];
            if !self.stuck.is_empty() {
                if let Some(level) = self.stuck_level(NetId::from_index(out)) {
                    new = level;
                }
            }
            if old != new {
                if old.is_known() && new.is_known() {
                    self.toggles += 1;
                    self.dynamic_pj += self.tables.s_toggle_pj[s];
                }
                self.values[out] = new;
                self.mark_loads(out);
            }
        }
        self.cycles += 1;
        if let Some(o) = &self.obs {
            o.cycles.inc();
        }
        self.settle();
    }

    /// Advances `n` clock cycles.
    pub fn step_n(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    // ------------------------------------------------------------------
    // Energy
    // ------------------------------------------------------------------

    /// Total clock cycles simulated so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Returns the energy window accumulated since the last call (or
    /// construction) and resets the counters — use one window per
    /// controller phase to split encode/decode energy as Tables I/II do.
    pub fn take_energy(&mut self) -> EnergyWindow {
        let w = EnergyWindow {
            dynamic_pj: self.dynamic_pj,
            cycles: self.cycles,
            toggles: self.toggles,
        };
        self.dynamic_pj = 0.0;
        self.cycles = 0;
        self.toggles = 0;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use scanguard_netlist::{GateKind, NetlistBuilder};

    fn lib() -> CellLibrary {
        CellLibrary::st120nm()
    }

    /// 2-bit shift register with an XOR output.
    fn shifter() -> (Netlist, CellId, CellId) {
        let mut b = NetlistBuilder::new("shift2");
        let d = b.input("d");
        let (q0, f0) = b.dff("s0", d);
        let (q1, f1) = b.dff("s1", q0);
        let y = b.xor2(q0, q1);
        b.output("y", y);
        b.output("q1", q1);
        (b.finish().unwrap(), f0, f1)
    }

    #[test]
    fn shift_register_moves_data() {
        let (nl, f0, f1) = shifter();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.force_ff(f0, Logic::Zero);
        sim.force_ff(f1, Logic::Zero);
        sim.set_port("d", Logic::One).unwrap();
        sim.step();
        assert_eq!(sim.ff_value(f0), Logic::One);
        assert_eq!(sim.ff_value(f1), Logic::Zero);
        sim.set_port("d", Logic::Zero).unwrap();
        sim.step();
        assert_eq!(sim.ff_value(f0), Logic::Zero);
        assert_eq!(sim.ff_value(f1), Logic::One);
        assert_eq!(sim.port_value("y").unwrap(), Logic::One);
    }

    #[test]
    fn energy_accumulates_and_resets() {
        let (nl, f0, f1) = shifter();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.force_ff(f0, Logic::Zero);
        sim.force_ff(f1, Logic::Zero);
        sim.set_port("d", Logic::One).unwrap();
        sim.step_n(4);
        let w = sim.take_energy();
        assert_eq!(w.cycles, 4);
        assert!(w.dynamic_pj > 0.0);
        assert!(w.toggles > 0);
        let w2 = sim.take_energy();
        assert_eq!(w2.cycles, 0);
        assert_eq!(w2.dynamic_pj, 0.0);
    }

    #[test]
    fn unknown_initial_state_propagates_x() {
        let (nl, f0, _f1) = shifter();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.set_port("d", Logic::One).unwrap();
        sim.settle();
        assert_eq!(sim.port_value("y").unwrap(), Logic::X);
        sim.step();
        assert_eq!(sim.ff_value(f0), Logic::One);
    }

    fn retention_reg() -> (Netlist, CellId) {
        let mut b = NetlistBuilder::new("ret");
        let d = b.input("d");
        let (q, ff) = b.rdff("r", d);
        b.output("q", q);
        (b.finish().unwrap(), ff)
    }

    #[test]
    fn power_gating_save_sleep_restore() {
        let (nl, ff) = retention_reg();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.gate([ff]);

        sim.set_port("d", Logic::One).unwrap();
        sim.step();
        assert_eq!(sim.ff_value(ff), Logic::One);

        // Sleep sequence: RETAIN=1, power off.
        sim.set_retain(true);
        sim.set_power(false);
        assert_eq!(sim.ff_value(ff), Logic::X, "master lost");

        // Clocking while asleep keeps master at X.
        sim.set_port("d", Logic::Zero).unwrap();
        sim.step();
        assert_eq!(sim.ff_value(ff), Logic::X);

        // Wake: power on, RETAIN=0 restores.
        sim.set_power(true);
        assert_eq!(sim.ff_value(ff), Logic::X, "not yet restored");
        sim.set_retain(false);
        assert_eq!(sim.ff_value(ff), Logic::One, "restored from latch");
    }

    #[test]
    fn retention_upset_corrupts_restored_state() {
        let (nl, ff) = retention_reg();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.gate([ff]);
        sim.set_port("d", Logic::One).unwrap();
        sim.step();
        sim.set_retain(true);
        sim.set_power(false);
        // Wake-up rush current flips the latch.
        sim.flip_retention(ff);
        sim.set_power(true);
        sim.set_retain(false);
        assert_eq!(sim.ff_value(ff), Logic::Zero, "corrupted state restored");
    }

    #[test]
    fn gated_domain_outputs_x() {
        // Only the XOR is gated: powering off turns its output X while
        // the always-on flops keep their state.
        let (nl, f0, f1) = shifter();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        let y = nl.port("y").unwrap();
        sim.gate(nl.driver(y));
        sim.force_ff(f0, Logic::One);
        sim.force_ff(f1, Logic::Zero);
        sim.settle();
        assert_eq!(sim.value(y), Logic::One);
        sim.set_power(false);
        sim.settle();
        assert_eq!(sim.value(y), Logic::X, "gated logic outputs X");
        assert_eq!(sim.ff_value(f0), Logic::One, "always-on flop keeps state");
        assert_eq!(sim.ff_value(f1), Logic::Zero, "always-on flop keeps state");
        sim.set_power(true);
        sim.settle();
        assert_eq!(sim.value(y), Logic::One, "repowered logic re-evaluates");
    }

    #[test]
    fn no_clock_energy_while_gated() {
        let (nl, ff) = retention_reg();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.gate([ff]);
        sim.set_power(false);
        let _ = sim.take_energy();
        sim.step_n(10);
        let w = sim.take_energy();
        assert_eq!(w.dynamic_pj, 0.0, "gated domain draws no dynamic power");
    }

    #[test]
    fn clock_gating_holds_state_and_saves_energy() {
        // Only f0 is gated: while its clock is stopped it holds, and the
        // always-on f1 keeps shifting (the split `scalar_pass` relies on
        // between the frozen chains and the clocked monitor).
        let (nl, f0, f1) = shifter();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.gate([f0]);
        sim.force_ff(f0, Logic::One);
        sim.force_ff(f1, Logic::Zero);
        sim.set_port("d", Logic::Zero).unwrap();
        sim.set_clock_enable(false);
        sim.settle();
        let _ = sim.take_energy();
        sim.step();
        assert_eq!(sim.ff_value(f0), Logic::One, "gated clock holds state");
        assert_eq!(sim.ff_value(f1), Logic::One, "always-on flop shifts");
        sim.step_n(4);
        assert_eq!(sim.ff_value(f0), Logic::One, "gated clock holds state");
        let w = sim.take_energy();
        // Five clock edges of f1 alone, f1's one toggle and the XOR's.
        let dff = l.params(GateKind::Dff);
        let expect = 5.0 * dff.clock_energy_pj
            + dff.toggle_energy_pj
            + l.params(GateKind::Xor2).toggle_energy_pj;
        assert!(
            (w.dynamic_pj - expect).abs() < 1e-9,
            "gated f0 draws no clock energy: {} pJ vs {expect} pJ",
            w.dynamic_pj
        );
        sim.set_clock_enable(true);
        sim.step();
        assert_eq!(sim.ff_value(f0), Logic::Zero, "clock resumes");
        assert_eq!(sim.ff_value(f1), Logic::One, "f1 captures the held 1");
    }

    #[test]
    fn scan_flop_capture_in_sim() {
        let mut b = NetlistBuilder::new("scan1");
        let d = b.input("d");
        let si = b.input("si");
        let se = b.input("se");
        let (q, ff) = b.sdff("r", d, si, se);
        b.output("q", q);
        let nl = b.finish().unwrap();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.set_port("d", Logic::Zero).unwrap();
        sim.set_port("si", Logic::One).unwrap();
        sim.set_port("se", Logic::One).unwrap();
        sim.step();
        assert_eq!(sim.ff_value(ff), Logic::One, "scan path captures si");
        sim.set_port("se", Logic::Zero).unwrap();
        sim.step();
        assert_eq!(sim.ff_value(ff), Logic::Zero, "functional path captures d");
    }

    #[test]
    #[should_panic(expected = "cell-driven")]
    fn setting_driven_net_panics() {
        let (nl, _f0, _f1) = shifter();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        let y = nl.port("y").unwrap();
        sim.set_net(y, Logic::One);
    }

    #[test]
    fn stuck_at_overrides_driver() {
        let (nl, f0, f1) = shifter();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.force_ff(f0, Logic::Zero);
        sim.force_ff(f1, Logic::Zero);
        sim.set_port("d", Logic::One).unwrap();
        // Stick f0's output at 0: the 1 on d never propagates.
        let q0 = nl.cell(f0).output();
        sim.set_stuck(q0, Logic::Zero);
        sim.step_n(3);
        assert_eq!(sim.ff_value(f0), Logic::Zero, "stuck output holds");
        assert_eq!(sim.ff_value(f1), Logic::Zero, "downstream sees the fault");
    }

    #[test]
    fn stuck_at_on_comb_output() {
        let (nl, f0, f1) = shifter();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.force_ff(f0, Logic::One);
        sim.force_ff(f1, Logic::Zero);
        let y = nl.port("y").unwrap();
        sim.set_stuck(y, Logic::One);
        sim.force_ff(f0, Logic::Zero);
        sim.settle();
        assert_eq!(sim.value(y), Logic::One, "xor output stuck high");
    }

    #[test]
    fn incremental_settle_matches_direct_evaluation() {
        // After an arbitrary mix of stimulus, stuck forcing and power
        // events, every powered combinational cell's output must equal a
        // direct evaluation of its current inputs — i.e. the dirty-flag
        // bookkeeping never skips a cell that needed re-evaluation.
        let (nl, f0, f1) = shifter();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.gate([f0, f1]);
        let check = |sim: &Simulator| {
            for (_, cell) in nl.cells() {
                if cell.kind().is_sequential() {
                    continue;
                }
                let ins: Vec<Logic> = cell.inputs().iter().map(|&n| sim.value(n)).collect();
                assert_eq!(
                    sim.value(cell.output()),
                    cell.kind().eval(&ins),
                    "stale output on {:?}",
                    cell.kind()
                );
            }
        };
        sim.force_ff(f0, Logic::One);
        sim.force_ff(f1, Logic::Zero);
        for i in 0..6 {
            sim.set_port("d", Logic::from(i % 2 == 0)).unwrap();
            sim.step();
            check(&sim);
        }
        let q0 = nl.cell(f0).output();
        sim.set_stuck(q0, Logic::One);
        sim.step();
        sim.set_port("d", Logic::Zero).unwrap();
        sim.settle();
        check(&sim);
        sim.set_retain(true);
        sim.set_power(false);
        sim.step();
        sim.set_power(true);
        sim.set_retain(false);
        sim.settle();
        check(&sim);
    }

    #[test]
    fn mixed_po_and_seq_loads_survive_the_incremental_settle() {
        // A combinational cell whose output feeds BOTH a primary output
        // and a sequential cell has no combinational load, so nothing
        // in the settle re-evaluates anything for it. That is correct —
        // eval writes the value plane immediately, and both the PO read
        // and the capture loop read the value plane directly — and this
        // pins it: single-net changes each cycle, checking the PO and
        // the captured flop value every cycle.
        let mut b = NetlistBuilder::new("shared_load");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.xor2(a, c);
        b.output("g", g); // primary-output load
        let (q, ff) = b.dff("r", g); // sequential load of the same net
        b.output("q", q);
        let nl = b.finish().unwrap();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.set_port("a", Logic::Zero).unwrap();
        sim.set_port("c", Logic::Zero).unwrap();
        sim.step(); // flush the initial all-dirty full pass
        for i in 0..8 {
            // Exactly one input flips per cycle.
            let level = Logic::from(i % 2 == 0);
            if i % 2 == 0 {
                sim.set_port("a", level).unwrap();
            } else {
                sim.set_port("c", level).unwrap();
            }
            let expect = sim.port_value("a").unwrap() ^ sim.port_value("c").unwrap();
            sim.settle();
            assert_eq!(
                sim.port_value("g").unwrap(),
                expect,
                "PO stale after settle, cycle {i}"
            );
            sim.step();
            assert_eq!(
                sim.ff_value(ff),
                expect,
                "flop captured a stale value, cycle {i}"
            );
        }
    }

    #[test]
    fn settle_is_idempotent_for_energy() {
        let (nl, f0, f1) = shifter();
        let l = lib();
        let mut sim = Simulator::new(&nl, &l);
        sim.force_ff(f0, Logic::One);
        sim.force_ff(f1, Logic::Zero);
        sim.settle();
        let _ = sim.take_energy();
        sim.settle();
        sim.settle();
        let w = sim.take_energy();
        assert_eq!(w.toggles, 0, "re-settling without change is free");
    }

    /// A seeded random design: an 8-flop scan chain whose first four
    /// retention scan flops sit in the gated domain, fed by 60 random
    /// cells of every combinational kind, a random third of them gated
    /// too. Returns the netlist and the gated cells.
    fn random_scan_design(seed: u64) -> (Netlist, Vec<CellId>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new("scan_diff");
        let se = b.input("se");
        let mut si = b.input("si");
        let mut pool: Vec<NetId> = (0..4).map(|i| b.input(&format!("d{i}"))).collect();
        pool.push(se);
        let mut ds = Vec::new();
        let mut gated = Vec::new();
        for i in 0..8 {
            let d = b.net(&format!("n{i}"));
            let q = if i < 4 {
                let (q, ff) = b.rsdff(&format!("r{i}"), d, si, se);
                gated.push(ff);
                q
            } else {
                b.sdff(&format!("s{i}"), d, si, se).0
            };
            ds.push(d);
            pool.push(q);
            si = q;
        }
        b.output("so", si);
        let kinds: Vec<GateKind> = GateKind::ALL
            .into_iter()
            .filter(|k| !k.is_sequential())
            .collect();
        for _ in 0..60 {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let ins = (0..kind.input_count())
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let out = b.cell(kind, ins);
            pool.push(out);
        }
        for d in ds {
            let src = pool[rng.gen_range(0..pool.len())];
            b.connect(d, src);
        }
        b.output("y", pool[pool.len() - 1]);
        let nl = b.finish().unwrap();
        for (id, cell) in nl.cells() {
            if !cell.kind().is_sequential() && rng.gen_range(0..3) == 0 {
                gated.push(id);
            }
        }
        (nl, gated)
    }

    #[test]
    fn sparse_settle_matches_a_full_pass_every_cycle() {
        let l = lib();
        for seed in 0..8 {
            let (nl, gated) = random_scan_design(seed);
            let mut sparse = Simulator::new(&nl, &l);
            let mut full = Simulator::new(&nl, &l);
            full.full_settle = true;
            sparse.gate(gated.iter().copied());
            full.gate(gated.iter().copied());
            let ports = ["se", "si", "d0", "d1", "d2", "d3"];
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
            for cycle in 0..300 {
                // Both simulators replay the same stimulus stream.
                let draw: u64 = rng.gen();
                for sim in [&mut sparse, &mut full] {
                    let mut r = SmallRng::seed_from_u64(draw);
                    for port in ports {
                        if r.gen_range(0..3) == 0 {
                            let level = Logic::ALL[r.gen_range(0..3)];
                            sim.set_port(port, level).unwrap();
                        }
                    }
                    match r.gen_range(0..40) {
                        // Sleep: save, then switch off.
                        0 => {
                            sim.set_retain(true);
                            sim.set_power(false);
                        }
                        // Wake: switch on, then restore.
                        1 => {
                            sim.set_power(true);
                            sim.set_retain(false);
                        }
                        2 => sim.set_clock_enable(!sim.clock_en),
                        3 => {
                            let ff = gated[r.gen_range(0..4)];
                            sim.flip_retention(ff);
                        }
                        4 if cycle > 150 => {
                            let net = NetId::from_index(r.gen_range(0..nl.net_count()));
                            sim.set_stuck(net, Logic::ALL[r.gen_range(0..2)]);
                        }
                        _ => {}
                    }
                    if r.gen_range(0..4) == 0 {
                        sim.settle();
                    }
                    sim.step();
                }
                assert_eq!(
                    sparse.values, full.values,
                    "seed {seed} cycle {cycle}: values"
                );
                assert_eq!(
                    sparse.toggles, full.toggles,
                    "seed {seed} cycle {cycle}: toggles"
                );
                assert_eq!(
                    sparse.dynamic_pj.to_bits(),
                    full.dynamic_pj.to_bits(),
                    "seed {seed} cycle {cycle}: energy"
                );
            }
        }
    }
}
