//! The compiled word-block simulator.
//!
//! [`WideSimulator`] runs 64 independent simulation machines per word
//! over one netlist: every net holds a [`LogicWord`] (two `u64`
//! bit-planes, value + unknown), and one settle evaluates each gate
//! with [`GateKind::eval_word`] bitwise operations instead of 64 scalar
//! evaluations. A simulator may hold a block of several words per net,
//! so one settle serves `64 x words` machines.
//!
//! The netlist is compiled once into a program: the combinational cells
//! in topological order, the flops in commit order, and one row of
//! words per net the program touches. Each settle evaluates every
//! compiled cell, matching its gate kind once per row and looping over
//! the words. [`new`](WideSimulator::new) compiles the whole netlist at
//! one word, which is what PPSFP fault simulation and the wide upset
//! pass run: lane 0 carries the golden circuit, lanes 1..64 carry
//! per-lane stuck-at faults ([`set_stuck_lane`](WideSimulator::set_stuck_lane)),
//! and XOR-ing an observed word against its lane-0 bit yields detection
//! for all lanes in two instructions. [`compile`](WideSimulator::compile)
//! takes a subset of the cells and a block width instead; the lint
//! upset sweep hands it the live cone of its monitor pass.
//!
//! A program can carry a second op list over the same rows, the *cone
//! program* ([`compile_cone`](WideSimulator::compile_cone)), which
//! [`settle_cone`](WideSimulator::settle_cone) evaluates instead of every
//! compiled cell. PPSFP fault simulation settles it on shift and flush
//! cycles: while `se` is 1 only the scan path and the scan-outs matter,
//! and [`LiveCone`] finds those cells. Nets outside the cone keep their
//! last value, which a cone cell reads only through a masked pin.
//!
//! Per-lane semantics are exactly the scalar [`Simulator`]'s for the
//! always-on, clock-enabled case: all cells powered, no clock gating,
//! no RETAIN sequencing, no energy accounting. That is precisely the
//! configuration manufacturing-test fault simulation runs in, and it is
//! pinned by lockstep differential tests against the scalar engine. The
//! one power-gating feature is a clock hold: while
//! [`set_frozen`](WideSimulator::set_frozen) is on, the flops below the
//! gated-domain watermark keep their state on clock edges.
//!
//! [`Simulator`]: crate::Simulator
//! [`LiveCone`]: crate::LiveCone

use scanguard_netlist::{CellId, GateKind, Logic, LogicWord, NetId, Netlist};
use std::cell::Cell;

/// A bit-parallel cycle simulator: 64 machines per word, a block of
/// words per net, over a compiled program of a [`Netlist`]'s cells.
///
/// # Examples
///
/// ```
/// use scanguard_netlist::{Logic, NetlistBuilder};
/// use scanguard_sim::WideSimulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("reg");
/// let d = b.input("d");
/// let (q, _) = b.dff("r", d);
/// b.output("q", q);
/// let nl = b.finish()?;
///
/// let mut sim = WideSimulator::new(&nl);
/// sim.set_net(nl.port("d")?, Logic::One);
/// // Lane 3 sees q stuck at 0, every other lane is healthy.
/// sim.set_stuck_lane(q, 3, Logic::Zero);
/// sim.step();
/// assert_eq!(sim.value(q).lane(0), Logic::One);
/// assert_eq!(sim.value(q).lane(3), Logic::Zero);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WideSimulator<'a> {
    netlist: &'a Netlist,
    /// Words per net row.
    nwords: usize,
    /// First `vals` index of each net's row. Row 0 is the shared row of
    /// every net the program does not touch, and stays all `X`.
    row: Vec<usize>,
    /// One row per net, then one capture row per staged flop.
    vals: Vec<LogicWord>,
    /// Combinational cells, in topological order.
    comb: Vec<Op>,
    /// A second op list over the same rows: the cone
    /// [`settle_cone`](Self::settle_cone) evaluates, in topological
    /// order.
    cone: Vec<Op>,
    /// Flops that commit in place, each before every flop whose output
    /// it reads, so none reads a value already clocked.
    in_place: Vec<Flop>,
    /// Flops that capture before any flop commits and commit last, in
    /// cell order: drivers of contended nets, and flops whose reads of
    /// each other form a cycle.
    staged: Vec<Flop>,
    /// When `true`, the gated flops hold on clock edges.
    frozen: bool,
    /// Per-word stuck-at forces, index-aligned with `vals`; empty while
    /// no lane is forced.
    stuck: Vec<Stuck>,
    cycles: u64,
    obs: Option<WideObs>,
}

/// One cell compiled for the word loop: its kind and the first `vals`
/// index of its output row and of each input pin's row.
#[derive(Debug)]
struct Op {
    kind: GateKind,
    out: usize,
    ins: [usize; 3],
}

/// A clocked cell: its capture op and the row of the net it drives.
#[derive(Debug)]
struct Flop {
    /// Writes the captured value: straight into `q` for a flop that
    /// commits in place, into a private capture row for a staged one.
    capture: Op,
    q: usize,
    /// Below the watermark: holds while the simulator is frozen.
    gated: bool,
}

/// The stuck-at force on one word: `mask` selects the forced lanes,
/// `ones` the level each forced lane is held at.
#[derive(Debug, Clone, Copy, Default)]
struct Stuck {
    mask: u64,
    ones: u64,
}

/// Pre-resolved metric handles for the wide-settle counters.
#[derive(Debug)]
struct WideObs {
    /// Wide settle passes run.
    settles: scanguard_obs::CounterHandle,
    /// Word-level gate evaluations across all settles (each one serves
    /// 64 lanes).
    cell_evals: scanguard_obs::CounterHandle,
    /// Clock cycles stepped (all lanes advance together, so one step is
    /// one cycle here, not 64).
    cycles: scanguard_obs::CounterHandle,
}

impl<'a> WideSimulator<'a> {
    /// Compiles the whole netlist at one word. All nets start at
    /// [`Logic::X`] in every lane.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has pending edits (see
    /// [`Netlist::revalidate`]).
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        let seq: Vec<CellId> = netlist.ff_cells().map(|(id, _)| id).collect();
        Self::compile(netlist, netlist.topo_order(), &seq, 1, 0)
    }

    /// Compiles a subset of the netlist's cells over blocks of `nwords`
    /// words. `comb` must be in topological order; `seq` lists the flops
    /// to clock, in cell order. The program keeps a row for every net a
    /// listed cell drives and for every input port; any other net reads
    /// as all `X`. Sequential cells with an index below
    /// `watermark` form the gated domain that
    /// [`set_frozen`](Self::set_frozen) holds.
    ///
    /// # Panics
    ///
    /// Panics if `nwords` is zero.
    #[must_use]
    pub fn compile(
        netlist: &'a Netlist,
        comb: &[CellId],
        seq: &[CellId],
        nwords: usize,
        watermark: usize,
    ) -> Self {
        assert!(nwords > 0, "a word block holds at least one word");
        let nl = netlist;
        // A net outside the program never changes from X, so only the
        // nets the program drives and the inputs a caller sets need rows.
        let mut live = vec![false; nl.net_count()];
        for (_, n) in nl.input_ports() {
            live[n.index()] = true;
        }
        for &id in comb.iter().chain(seq) {
            live[nl.cell(id).output().index()] = true;
        }
        let mut row = vec![0usize; nl.net_count()];
        let mut rows = 1;
        for (r, live) in row.iter_mut().zip(&live) {
            if *live {
                *r = rows * nwords;
                rows += 1;
            }
        }
        let comb_ops = comb.iter().map(|&id| Op::settle(nl, &row, id)).collect();

        let (order, staged) = commit_order(nl, comb, seq);
        let flop = |i: usize, capture_row: Option<usize>| {
            let id = seq[i];
            let q = row[nl.cell(id).output().index()];
            Flop {
                capture: Op::compile(nl, &row, id, capture_row.unwrap_or(q)),
                q,
                gated: id.index() < watermark,
            }
        };
        let in_place = order.iter().map(|&i| flop(i, None)).collect();
        let staged: Vec<Flop> = staged
            .iter()
            .enumerate()
            .map(|(k, &i)| flop(i, Some((rows + k) * nwords)))
            .collect();
        WideSimulator {
            netlist,
            nwords,
            vals: vec![LogicWord::ALL_X; (rows + staged.len()) * nwords],
            row,
            comb: comb_ops,
            cone: Vec::new(),
            in_place,
            staged,
            frozen: false,
            stuck: Vec::new(),
            cycles: 0,
            obs: None,
        }
    }

    /// The simulated netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Starts recording wide-settle statistics into `rec`'s metrics
    /// registry: `sim.wide.settles` (settle passes),
    /// `sim.wide.cell_evals` (word-level gate evaluations, settled
    /// cells x words per settle — each one serves 64 lanes) and
    /// `sim.wide.cycles` (clock steps). All are commutative sums over
    /// deterministic runs, so snapshots stay thread-count-blind when
    /// wide simulations are fanned out over a pool.
    pub fn attach_obs(&mut self, rec: &scanguard_obs::Recorder) {
        self.obs = Some(WideObs {
            settles: rec.counter("sim.wide.settles"),
            cell_evals: rec.counter("sim.wide.cell_evals"),
            cycles: rec.counter("sim.wide.cycles"),
        });
    }

    /// Total clock cycles simulated so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Holds (`true`) or releases the gated flops — those below the
    /// watermark given to [`compile`](Self::compile) — on later clock
    /// edges: the controller's clock gating of the retention chains.
    pub fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    /// The `vals` range of a net's row; empty for a net outside the
    /// program.
    fn row_range(&self, net: NetId) -> std::ops::Range<usize> {
        match self.row[net.index()] {
            0 => 0..0,
            at => at..at + self.nwords,
        }
    }

    /// Forces one lane of a net, in every word of its row, to a constant
    /// known level — the per-lane stuck-at fault model. The net's driver
    /// still evaluates; the lane sees the forced level. Distinct lanes of
    /// the same net may be forced to different levels. A net outside the
    /// program is left alone.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or `level` is [`Logic::X`].
    pub fn set_stuck_lane(&mut self, net: NetId, lane: usize, level: Logic) {
        assert!(lane < 64, "lane {lane} out of range");
        assert!(level.is_known(), "a stuck-at level must be known");
        if self.stuck.is_empty() {
            self.stuck.resize(self.vals.len(), Stuck::default());
        }
        let bit = 1u64 << lane;
        let range = self.row_range(net);
        for s in &mut self.stuck[range.clone()] {
            s.mask |= bit;
            if level == Logic::One {
                s.ones |= bit;
            } else {
                s.ones &= !bit;
            }
        }
        // Mirror the scalar `set_stuck`: the forced level is visible
        // immediately, before any settle.
        for w in &mut self.vals[range] {
            w.set_lane(lane, level);
        }
    }

    /// Broadcasts one level to every lane of a primary input net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is driven by a cell (not a primary input).
    pub fn set_net(&mut self, net: NetId, value: Logic) {
        self.set_net_word(net, LogicWord::splat(value));
    }

    /// Sets a primary input net with per-lane values, the same in every
    /// word of the block.
    ///
    /// # Panics
    ///
    /// Panics if `net` is driven by a cell (not a primary input).
    pub fn set_net_word(&mut self, net: NetId, value: LogicWord) {
        assert!(
            self.netlist.driver(net).is_none(),
            "net {net} is cell-driven; only primary inputs can be set"
        );
        let range = self.row_range(net);
        self.vals[range].fill(value);
    }

    /// The output row of a sequential cell.
    fn ff_range(&self, cell: CellId) -> std::ops::Range<usize> {
        let c = self.netlist.cell(cell);
        assert!(
            c.kind().is_sequential(),
            "forcing targets flip-flops; {cell} is {:?}",
            c.kind()
        );
        self.row_range(c.output())
    }

    /// Overwrites the state of a sequential cell in every word of the
    /// block — the wide equivalent of the scalar simulator's
    /// retention-flip hook. Used to load retained state, to inject upsets
    /// (flip selected lanes of a retention latch) and to emulate clock
    /// domains (restore a frozen domain's registers after a
    /// [`step`](Self::step) that should not have clocked them). The next
    /// [`settle`](Self::settle) propagates the forced word.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not sequential.
    pub fn force_ff_word(&mut self, cell: CellId, word: LogicWord) {
        let range = self.ff_range(cell);
        self.vals[range].fill(word);
    }

    /// Overwrites one lane of one word of a sequential cell's state.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not sequential, or `word` or `lane` is
    /// outside the block.
    pub fn force_ff_lane(&mut self, cell: CellId, word: usize, lane: usize, level: Logic) {
        let range = self.ff_range(cell);
        if !range.is_empty() {
            self.vals[range][word].set_lane(lane, level);
        }
    }

    /// Current word 0 of a net (meaningful after
    /// [`settle`](Self::settle) or [`step`](Self::step)).
    #[must_use]
    pub fn value(&self, net: NetId) -> LogicWord {
        self.word(net, 0)
    }

    /// Current word `wd` of a net's block.
    ///
    /// # Panics
    ///
    /// Panics if `wd` is outside the block.
    #[must_use]
    pub fn word(&self, net: NetId, wd: usize) -> LogicWord {
        assert!(
            wd < self.nwords,
            "word {wd} outside a {}-word block",
            self.nwords
        );
        self.vals[self.row[net.index()] + wd]
    }

    /// Compiles the second op list, over the same rows: the
    /// combinational cells [`settle_cone`](Self::settle_cone) evaluates,
    /// in topological order. Replaces any earlier cone.
    ///
    /// A caller that settles only a cone must keep every net a cone
    /// cell reads through an unmasked pin inside the cone (see
    /// [`LiveCone`](crate::LiveCone)): the other nets keep whatever
    /// value the last full [`settle`](Self::settle) left.
    ///
    /// # Panics
    ///
    /// Panics if a cell's output has no row in the program.
    pub fn compile_cone(&mut self, cone: &[CellId]) {
        self.cone = cone
            .iter()
            .map(|&id| {
                let op = Op::settle(self.netlist, &self.row, id);
                assert!(op.out != 0, "cone cell {id} is outside the program");
                op
            })
            .collect();
    }

    /// Settles the combinational logic for the current inputs and
    /// register words: every compiled cell is evaluated once, in
    /// topological order, over the whole word block.
    pub fn settle(&mut self) {
        run_ops(
            &mut self.vals,
            &self.stuck,
            self.nwords,
            &self.comb,
            self.obs.as_ref(),
        );
    }

    /// Settles only the cone compiled by
    /// [`compile_cone`](Self::compile_cone): each of its cells is
    /// evaluated once, in topological order, and every other net keeps
    /// its value.
    pub fn settle_cone(&mut self) {
        run_ops(
            &mut self.vals,
            &self.stuck,
            self.nwords,
            &self.cone,
            self.obs.as_ref(),
        );
    }

    /// Commits one clock edge from the settled values, without settling
    /// before or after: every flop captures its input (frozen gated
    /// flops hold), as if all outputs committed at once.
    pub fn tick(&mut self) {
        let nw = self.nwords;
        let frozen = self.frozen;
        for f in &self.staged {
            if frozen && f.gated {
                self.vals.copy_within(f.q..f.q + nw, f.capture.out);
            } else {
                eval_rows(&mut self.vals, nw, &f.capture);
            }
        }
        for f in self.in_place.iter().filter(|f| !(frozen && f.gated)) {
            eval_rows(&mut self.vals, nw, &f.capture);
            apply_stuck(&mut self.vals, &self.stuck, f.q, nw);
        }
        for f in &self.staged {
            let cap = f.capture.out;
            self.vals.copy_within(cap..cap + nw, f.q);
            apply_stuck(&mut self.vals, &self.stuck, f.q, nw);
        }
        self.cycles += 1;
        if let Some(o) = &self.obs {
            o.cycles.inc();
        }
    }

    /// Advances one clock cycle in every lane: settle, clock edge,
    /// settle.
    pub fn step(&mut self) {
        self.settle();
        self.tick();
        self.settle();
    }
}

impl Op {
    /// Compiles cell `id` to write the row at `out`, reading each input
    /// pin's row from `row`.
    fn compile(nl: &Netlist, row: &[usize], id: CellId, out: usize) -> Op {
        let cell = nl.cell(id);
        let mut ins = [0; 3];
        for (slot, n) in ins.iter_mut().zip(cell.inputs()) {
            *slot = row[n.index()];
        }
        Op {
            kind: cell.kind(),
            out,
            ins,
        }
    }

    /// Compiles combinational cell `id` to write its output net's row.
    fn settle(nl: &Netlist, row: &[usize], id: CellId) -> Op {
        Op::compile(nl, row, id, row[nl.cell(id).output().index()])
    }
}

/// Evaluates `ops` in order over a block of `nw` words, holding stuck
/// lanes, and counts one settle.
fn run_ops(vals: &mut [LogicWord], stuck: &[Stuck], nw: usize, ops: &[Op], obs: Option<&WideObs>) {
    for op in ops {
        eval_rows(vals, nw, op);
        apply_stuck(vals, stuck, op.out, nw);
    }
    if let Some(o) = obs {
        o.settles.inc();
        o.cell_evals.add((ops.len() * nw) as u64);
    }
}

/// Splits the flops (indices into `seq`) into those that commit in
/// place, in update order, and the staged rest, in cell order.
///
/// A flop that is its net's only driver may overwrite its output once
/// every flop reading that output has clocked: Kahn order over the
/// flop-reads-flop edges. Drivers of contended nets keep the
/// last-writer order of a two-phase commit, and flops whose reads form
/// a cycle need one, so both are staged.
fn commit_order(nl: &Netlist, comb: &[CellId], seq: &[CellId]) -> (Vec<usize>, Vec<usize>) {
    let mut drivers = vec![0u32; nl.net_count()];
    for &id in comb.iter().chain(seq) {
        drivers[nl.cell(id).output().index()] += 1;
    }
    let mut flop_of = vec![usize::MAX; nl.net_count()];
    for (i, &id) in seq.iter().enumerate() {
        let q = nl.cell(id).output().index();
        if drivers[q] == 1 {
            flop_of[q] = i;
        }
    }
    let sole = |i: usize| flop_of[nl.cell(seq[i]).output().index()] == i;
    let mut reads: Vec<Vec<usize>> = vec![Vec::new(); seq.len()];
    let mut readers = vec![0u32; seq.len()];
    for i in (0..seq.len()).filter(|&i| sole(i)) {
        for n in nl.cell(seq[i]).inputs() {
            let g = flop_of[n.index()];
            if g != usize::MAX && g != i {
                reads[i].push(g);
                readers[g] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..seq.len())
        .filter(|&i| sole(i) && readers[i] == 0)
        .collect();
    let mut order = Vec::with_capacity(seq.len());
    let mut placed = vec![false; seq.len()];
    while let Some(f) = ready.pop() {
        order.push(f);
        placed[f] = true;
        for &g in &reads[f] {
            readers[g] -= 1;
            if readers[g] == 0 {
                ready.push(g);
            }
        }
    }
    let staged = (0..seq.len()).filter(|&i| !placed[i]).collect();
    (order, staged)
}

/// Holds the forced lanes of the row at `at` at their stuck levels.
/// `stuck` is empty while no lane is forced.
#[inline]
fn apply_stuck(vals: &mut [LogicWord], stuck: &[Stuck], at: usize, nw: usize) {
    if stuck.is_empty() {
        return;
    }
    for (v, s) in vals[at..at + nw].iter_mut().zip(&stuck[at..at + nw]) {
        v.ones = (v.ones & !s.mask) | (s.ones & s.mask);
        v.xs &= !s.mask;
    }
}

/// Evaluates `op` over a block of `nw` words: the kind is matched once,
/// then [`GateKind::eval_word`] runs in a loop specialized to it.
fn eval_rows(vals: &mut [LogicWord], nw: usize, op: &Op) {
    // The rows share one buffer, so they are read and written as cells.
    // An output row is either disjoint from every input row or, for a
    // flop reading its own output in place, the same row: each word is
    // read before it is written.
    let vals = Cell::from_mut(vals).as_slice_of_cells();
    let row = |at: usize| &vals[at..at + nw];
    let out = row(op.out);
    fn rows<const N: usize>(
        out: &[Cell<LogicWord>],
        ins: [&[Cell<LogicWord>]; N],
        eval: impl Fn(&[LogicWord; N]) -> LogicWord,
    ) {
        assert!(ins.iter().all(|r| r.len() == out.len()));
        for (wd, o) in out.iter().enumerate() {
            o.set(eval(&std::array::from_fn(|k| ins[k][wd].get())));
        }
    }
    macro_rules! dispatch {
        ($($kind:ident / $n:literal)*) => {
            match op.kind {
                $(GateKind::$kind => rows::<$n>(
                    out,
                    std::array::from_fn(|k| row(op.ins[k])),
                    |x| GateKind::$kind.eval_word(x),
                ),)*
            }
        };
    }
    dispatch!(
        TieLo/0 TieHi/0 Buf/1 Not/1 And2/2 And3/3 Nand2/2 Or2/2 Or3/3 Nor2/2
        Xor2/2 Xor3/3 Xnor2/2 Mux2/3 Dff/1 Sdff/3 Rdff/1 Rsdff/3
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use scanguard_netlist::{CellLibrary, NetlistBuilder};

    fn lib() -> CellLibrary {
        CellLibrary::st120nm()
    }

    /// A small design exercising every combinational kind plus scan
    /// flops: two scan registers feeding a mix of gates.
    fn mixed() -> (Netlist, Vec<CellId>) {
        let mut b = NetlistBuilder::new("mixed");
        let d0 = b.input("d0");
        let d1 = b.input("d1");
        let si = b.input("si");
        let se = b.input("se");
        let (q0, f0) = b.sdff("r0", d0, si, se);
        let (q1, f1) = b.sdff("r1", d1, q0, se);
        let a = b.and2(q0, q1);
        let o = b.or2(q0, d0);
        let x = b.xor2(a, o);
        let na = b.nand2(q1, x);
        let no = b.nor2(a, d1);
        let xn = b.xnor2(na, no);
        let m = b.mux2(q0, xn, x);
        let a3 = b.and3(q0, q1, x);
        let o3 = b.or3(na, no, m);
        let x3 = b.xor3(a3, o3, q0);
        let inv = b.not(x3);
        let buf = b.buf(inv);
        b.output("y", buf);
        b.output("so", q1);
        (b.finish().unwrap(), vec![f0, f1])
    }

    /// Four flops in a ring that read each other's outputs directly, so
    /// none can commit in place: r0 -> r1 -> r2 -> r3 -> r0, where the
    /// scan flops r0 and r2 read their predecessor through `si`.
    fn ring() -> (Netlist, Vec<CellId>) {
        let mut b = NetlistBuilder::new("ring");
        let a = b.input("a");
        let se = b.input("se");
        let q3 = b.net("q3");
        let n3 = b.not(q3);
        let d0 = b.and2(a, n3);
        let (q0, f0) = b.sdff("r0", d0, q3, se);
        let (q1, f1) = b.dff("r1", q0);
        let x = b.xor2(q1, a);
        let (q2, f2) = b.sdff("r2", x, q1, se);
        let f3 = b.drive(q3, GateKind::Dff, vec![q2]);
        let y = b.or2(q0, q2);
        b.output("y", y);
        b.output("so", q3);
        (b.finish().unwrap(), vec![f0, f1, f2, f3])
    }

    /// The test designs, each with the stuck-at faults the lockstep
    /// tests put on lanes 1, 2 and 3.
    fn cases() -> Vec<(Netlist, Vec<(NetId, Logic)>)> {
        let (m, ffs) = mixed();
        let (q0, q1) = (m.cell(ffs[0]).output(), m.cell(ffs[1]).output());
        let mixed_faults = vec![(q0, Logic::Zero), (q0, Logic::One), (q1, Logic::Zero)];
        // The ring: a flop output and the combinational net r2 reads.
        let (r, ffs) = ring();
        assert!(
            WideSimulator::new(&r).in_place.is_empty(),
            "every ring flop commits staged"
        );
        let q1 = r.cell(ffs[1]).output();
        let x = r.cell(ffs[2]).inputs()[0];
        let ring_faults = vec![(q1, Logic::One), (x, Logic::Zero), (x, Logic::One)];
        vec![(m, mixed_faults), (r, ring_faults)]
    }

    /// Drives the same deterministic stimulus through the scalar and
    /// wide simulators and checks every net in every lane each cycle.
    #[test]
    fn all_lanes_match_the_scalar_simulator_in_lockstep() {
        let l = lib();
        for (nl, _) in cases() {
            let mut scalar = Simulator::new(&nl, &l);
            let mut wide = WideSimulator::new(&nl);
            for cycle in 0..24u32 {
                for (k, (_, net)) in nl.input_ports().iter().enumerate() {
                    // A mix of 0/1/X stimulus, different per port and cycle.
                    let v = match (cycle as usize + k) % 5 {
                        0 | 2 => Logic::Zero,
                        1 | 3 => Logic::One,
                        _ => Logic::X,
                    };
                    scalar.set_net(*net, v);
                    wide.set_net(*net, v);
                }
                scalar.step();
                wide.step();
                for net in 0..nl.net_count() {
                    let id = NetId::from_index(net);
                    let w = wide.value(id);
                    assert_eq!(w.ones & w.xs, 0, "non-canonical word on {id}");
                    for lane in [0, 1, 31, 63] {
                        assert_eq!(
                            w.lane(lane),
                            scalar.value(id),
                            "{}: cycle {cycle}, net {id}, lane {lane}",
                            nl.name()
                        );
                    }
                }
            }
        }
    }

    /// Per-lane stuck-at forces must reproduce the scalar simulator's
    /// stuck-at behaviour lane by lane, with lane 0 left golden.
    #[test]
    fn stuck_lanes_match_scalar_stuck_at_runs() {
        let l = lib();
        for (nl, faults) in cases() {
            let mut wide = WideSimulator::new(&nl);
            for (k, &(net, level)) in faults.iter().enumerate() {
                wide.set_stuck_lane(net, k + 1, level);
            }
            let mut golden = Simulator::new(&nl, &l);
            let mut faulty: Vec<Simulator> = faults
                .iter()
                .map(|&(net, level)| {
                    let mut s = Simulator::new(&nl, &l);
                    s.set_stuck(net, level);
                    s
                })
                .collect();

            for cycle in 0..16u32 {
                for (k, (_, net)) in nl.input_ports().iter().enumerate() {
                    let v = Logic::from((cycle as usize + k) % 3 == 0);
                    wide.set_net(*net, v);
                    golden.set_net(*net, v);
                    for f in &mut faulty {
                        f.set_net(*net, v);
                    }
                }
                wide.step();
                golden.step();
                for f in &mut faulty {
                    f.step();
                }
                for net in 0..nl.net_count() {
                    let id = NetId::from_index(net);
                    let w = wide.value(id);
                    assert_eq!(w.lane(0), golden.value(id), "golden lane, net {id}");
                    for (k, f) in faulty.iter().enumerate() {
                        assert_eq!(
                            w.lane(k + 1),
                            f.value(id),
                            "{}: cycle {cycle}, fault {k}, net {id}",
                            nl.name()
                        );
                    }
                }
            }
        }
    }

    /// A block of `n` words runs `n` independent one-word machines: word
    /// `k` of the block equals a one-word run started from word `k`'s
    /// state, lane for lane, stuck lanes and staged commits included.
    #[test]
    fn a_word_block_equals_one_word_runs() {
        const N: usize = 3;
        for (nl, faults) in cases() {
            let seq: Vec<CellId> = nl.ff_cells().map(|(id, _)| id).collect();
            let mut block = WideSimulator::compile(&nl, nl.topo_order(), &seq, N, 0);
            let mut single: Vec<WideSimulator> = (0..N).map(|_| WideSimulator::new(&nl)).collect();
            for (k, &(net, level)) in faults.iter().enumerate() {
                block.set_stuck_lane(net, k + 1, level);
                for s in &mut single {
                    s.set_stuck_lane(net, k + 1, level);
                }
            }
            // Each word starts from its own per-lane flop state.
            for (wd, s) in single.iter_mut().enumerate() {
                for (f, &cell) in seq.iter().enumerate() {
                    for lane in 0..64 {
                        let level = Logic::from((lane + f * 5) % (wd + 2) == 0);
                        block.force_ff_lane(cell, wd, lane, level);
                        s.force_ff_lane(cell, 0, lane, level);
                    }
                }
            }
            let mut words_differ = false;
            for cycle in 0..16usize {
                for (k, (_, net)) in nl.input_ports().iter().enumerate() {
                    let mut v = LogicWord::ALL_X;
                    for lane in 0..64 {
                        v.set_lane(lane, Logic::from((cycle + k + lane) % 3 == 0));
                    }
                    block.set_net_word(*net, v);
                    for s in &mut single {
                        s.set_net_word(*net, v);
                    }
                }
                block.step();
                for s in &mut single {
                    s.step();
                }
                for net in 0..nl.net_count() {
                    let id = NetId::from_index(net);
                    for (wd, s) in single.iter().enumerate() {
                        assert_eq!(
                            block.word(id, wd),
                            s.value(id),
                            "{}: cycle {cycle}, net {id}, word {wd}",
                            nl.name()
                        );
                    }
                    words_differ |= block.word(id, 0) != block.word(id, 1);
                }
            }
            assert!(words_differ, "{}: the words never diverged", nl.name());
        }
    }

    #[test]
    fn force_ff_word_overrides_state_per_lane() {
        let (nl, ffs) = mixed();
        let l = lib();
        let mut wide = WideSimulator::new(&nl);
        for name in ["d0", "d1", "si"] {
            wide.set_net(nl.port(name).unwrap(), Logic::One);
        }
        wide.set_net(nl.port("se").unwrap(), Logic::Zero);
        wide.step();
        let q0 = nl.cell(ffs[0]).output();
        assert_eq!(wide.value(q0).lane(7), Logic::One);
        let mut w = wide.value(q0);
        w.set_lane(7, Logic::Zero);
        wide.force_ff_word(ffs[0], w);
        wide.settle();
        assert_eq!(wide.value(q0).lane(7), Logic::Zero, "forced lane");
        assert_eq!(wide.value(q0).lane(0), Logic::One, "other lanes keep state");
        // The forced word propagates through downstream logic.
        let a = wide.value(nl.port("y").unwrap());
        assert_eq!(a.ones & (1 << 7) != 0, {
            let mut s = Simulator::new(&nl, &l);
            for name in ["d0", "d1", "si"] {
                s.set_net(nl.port(name).unwrap(), Logic::One);
            }
            s.set_net(nl.port("se").unwrap(), Logic::Zero);
            s.step();
            s.force_ff(ffs[0], Logic::Zero);
            s.settle();
            s.value(nl.port("y").unwrap()) == Logic::One
        });
    }

    #[test]
    #[should_panic(expected = "cell-driven")]
    fn setting_driven_net_panics() {
        let (nl, _) = mixed();
        let mut wide = WideSimulator::new(&nl);
        let y = nl.port("y").unwrap();
        wide.set_net(y, Logic::One);
    }
}
