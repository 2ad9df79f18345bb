//! Struct-of-arrays netlist tables for the scalar simulator only; the
//! wide simulator compiles its own program (`wide.rs`).
//!
//! [`Netlist`] stores cells as individual structs with heap-allocated
//! input lists — fine for editing, hostile to the simulator hot loop,
//! which chases two pointers per evaluated cell. [`SimTables`] flattens
//! everything the settle/capture/commit loops touch into contiguous
//! parallel arrays, split into the value plane's two populations:
//! combinational cells in topological order and sequential cells in
//! cell-id order.
//!
//! Evaluation is one table lookup. Every [`GateKind`] has at most three
//! pins, so each cell stores its input nets as a padded `[u32; 3]` and a
//! base index into [`SimTables::lut`], one 27-entry truth table per kind
//! built from [`GateKind::eval`] (which stays the single definition of
//! gate behaviour). A missing pin points at the cell's own output net:
//! the kind's table ignores it.
//!
//! The settle walks the combinational arrays by *position*, so cells
//! are evaluated in topological order and every value and every f64
//! energy sum follows that one fixed order. The load CSR
//! ([`SimTables::c_load_off`]/[`SimTables::c_loads`]) tells it which
//! positions read a net that changed.

use scanguard_netlist::{Cell, CellLibrary, GateKind, Logic, Netlist};

/// Truth-table entries per gate kind: one per combination of three
/// ternary pins, at `a + 3·b + 9·c` with each level's index in
/// [`Logic::ALL`].
const COMBOS: usize = 27;

/// Flattened per-cell metadata for the simulator hot loops.
///
/// `c_*` arrays hold the combinational cells in topological order
/// (matching `Netlist::topo_order`); `s_*` arrays hold the sequential
/// cells in cell-id order.
#[derive(Debug)]
pub(crate) struct SimTables {
    /// Truth tables of every kind, [`COMBOS`] entries each, indexed by
    /// the kind's discriminant: `kind.eval` over the kind's pins, the
    /// next-state capture value for sequential kinds.
    pub lut: Vec<Logic>,
    /// Combinational input nets, padded to three pins.
    pub c_pins: Vec<[u32; 3]>,
    /// Base index of each combinational cell's kind in [`Self::lut`].
    pub c_base: Vec<u32>,
    /// Combinational output net indices.
    pub c_out: Vec<u32>,
    /// Per-cell toggle energy, pJ.
    pub c_toggle_pj: Vec<f64>,
    /// CSR offsets into [`Self::c_loads`], one range per net (length
    /// `net_count + 1`).
    pub c_load_off: Vec<u32>,
    /// The combinational positions that read each net, ascending and
    /// de-duplicated.
    pub c_loads: Vec<u32>,
    /// Sequential cell kinds, cell-id order.
    pub s_kind: Vec<GateKind>,
    /// Sequential input nets, padded to three pins.
    pub s_pins: Vec<[u32; 3]>,
    /// Base index of each sequential cell's kind in [`Self::lut`].
    pub s_base: Vec<u32>,
    /// Sequential output net indices.
    pub s_out: Vec<u32>,
    /// Original cell indices (retention/staging slots).
    pub s_cell: Vec<u32>,
    /// Per-flop toggle energy, pJ.
    pub s_toggle_pj: Vec<f64>,
    /// Per-flop clock-pin energy, pJ.
    pub s_clock_pj: Vec<f64>,
}

fn index(i: usize) -> u32 {
    u32::try_from(i).expect("index fits u32")
}

/// The cell's input nets padded with its own output net to three pins.
fn pins(cell: &Cell) -> [u32; 3] {
    let mut pins = [index(cell.output().index()); 3];
    for (pin, &inp) in pins.iter_mut().zip(cell.inputs()) {
        *pin = index(inp.index());
    }
    pins
}

fn base(kind: GateKind) -> u32 {
    index(kind as usize * COMBOS)
}

impl SimTables {
    /// Flattens a validated netlist. Panics if the netlist has pending
    /// edits, like `Simulator::new` always has.
    pub(crate) fn new(netlist: &Netlist, lib: &CellLibrary) -> Self {
        let order = netlist.topo_order(); // asserts validated
        let mut lut = vec![Logic::X; GateKind::ALL.len() * COMBOS];
        for kind in GateKind::ALL {
            let n = kind.input_count();
            for combo in 0..COMBOS {
                let levels = [
                    Logic::ALL[combo % 3],
                    Logic::ALL[combo / 3 % 3],
                    Logic::ALL[combo / 9],
                ];
                lut[base(kind) as usize + combo] = kind.eval(&levels[..n]);
            }
        }

        let n_comb = order.len();
        let mut t = SimTables {
            lut,
            c_pins: Vec::with_capacity(n_comb),
            c_base: Vec::with_capacity(n_comb),
            c_out: Vec::with_capacity(n_comb),
            c_toggle_pj: Vec::with_capacity(n_comb),
            c_load_off: vec![0; netlist.net_count() + 1],
            c_loads: Vec::new(),
            s_kind: Vec::new(),
            s_pins: Vec::new(),
            s_base: Vec::new(),
            s_out: Vec::new(),
            s_cell: Vec::new(),
            s_toggle_pj: Vec::new(),
            s_clock_pj: Vec::new(),
        };
        for &cell_id in order {
            let cell = netlist.cell(cell_id);
            t.c_pins.push(pins(cell));
            t.c_base.push(base(cell.kind()));
            t.c_out.push(index(cell.output().index()));
            t.c_toggle_pj.push(lib.params(cell.kind()).toggle_energy_pj);
        }
        // Load CSR: every (net, reading position) pair once, sorted by
        // net and then position.
        let mut loads: Vec<(usize, u32)> = order
            .iter()
            .enumerate()
            .flat_map(|(pos, &id)| {
                let ins = netlist.cell(id).inputs();
                ins.iter().map(move |net| (net.index(), index(pos)))
            })
            .collect();
        loads.sort_unstable();
        loads.dedup();
        for &(net, _) in &loads {
            t.c_load_off[net + 1] += 1;
        }
        for net in 0..netlist.net_count() {
            t.c_load_off[net + 1] += t.c_load_off[net];
        }
        t.c_loads = loads.into_iter().map(|(_, pos)| pos).collect();
        for (cell_id, cell) in netlist.cells() {
            if !cell.kind().is_sequential() {
                continue;
            }
            let params = lib.params(cell.kind());
            t.s_kind.push(cell.kind());
            t.s_pins.push(pins(cell));
            t.s_base.push(base(cell.kind()));
            t.s_out.push(index(cell.output().index()));
            t.s_cell.push(index(cell_id.index()));
            t.s_toggle_pj.push(params.toggle_energy_pj);
            t.s_clock_pj.push(params.clock_energy_pj);
        }
        t
    }

    /// Number of combinational cells.
    pub(crate) fn comb_len(&self) -> usize {
        self.c_out.len()
    }

    /// Number of sequential cells.
    pub(crate) fn seq_len(&self) -> usize {
        self.s_kind.len()
    }

    /// The combinational positions that read `net`, ascending.
    #[inline]
    pub(crate) fn loads(&self, net: usize) -> &[u32] {
        &self.c_loads[self.c_load_off[net] as usize..self.c_load_off[net + 1] as usize]
    }

    /// Looks up the kind at `base` over the current levels of `pins`.
    #[inline]
    pub(crate) fn eval(&self, base: u32, pins: [u32; 3], values: &[Logic]) -> Logic {
        let [a, b, c] = pins.map(|net| values[net as usize] as usize);
        self.lut[base as usize + a + 3 * b + 9 * c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value plane of these tests: net `i` holds `Logic::ALL[i]`, so
    /// pin nets 0..3 select levels.
    const VALUES: [Logic; 3] = Logic::ALL;

    fn empty_tables() -> SimTables {
        let nl = scanguard_netlist::NetlistBuilder::new("empty")
            .finish()
            .unwrap();
        SimTables::new(&nl, &CellLibrary::st120nm())
    }

    #[test]
    fn truth_table_matches_eval_for_every_kind_and_combination() {
        let t = empty_tables();
        for kind in GateKind::ALL {
            let n = kind.input_count();
            for combo in 0..3u32.pow(n as u32) {
                let nets = [combo % 3, combo / 3 % 3, combo / 9];
                let ins: Vec<Logic> = nets[..n].iter().map(|&i| VALUES[i as usize]).collect();
                assert_eq!(
                    t.eval(base(kind), nets, &VALUES),
                    kind.eval(&ins),
                    "{kind:?} on {ins:?}"
                );
            }
        }
    }

    #[test]
    fn padded_pins_never_change_an_output() {
        let t = empty_tables();
        for kind in GateKind::ALL {
            let n = kind.input_count();
            for combo in 0..COMBOS as u32 {
                let mut nets = [combo % 3, combo / 3 % 3, combo / 9];
                let expect = t.eval(base(kind), nets, &VALUES);
                for pad in &mut nets[n..] {
                    *pad = 0;
                }
                assert_eq!(
                    t.eval(base(kind), nets, &VALUES),
                    expect,
                    "{kind:?}: a padded pin changed the output"
                );
            }
        }
    }
}
