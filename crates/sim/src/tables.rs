//! Struct-of-arrays netlist tables for the scalar simulator only; the
//! wide simulator compiles its own program (`wide.rs`).
//!
//! [`Netlist`] stores cells as individual structs with heap-allocated
//! input lists — fine for editing, hostile to the simulator hot loop,
//! which chases two pointers per evaluated cell. [`SimTables`] flattens
//! everything the settle/capture/commit loops touch into contiguous
//! parallel arrays (kind, output net, flattened input nets, per-cell
//! energy figures), split into the value plane's two populations:
//! combinational cells in topological order and sequential cells in
//! cell-id order. The settle walks the combinational arrays by
//! *position*, so cells are evaluated in topological order and every
//! value and every f64 energy sum follows that one fixed order.

use scanguard_netlist::{CellLibrary, GateKind, Netlist};

/// Flattened per-cell metadata for the simulator hot loops.
///
/// `c_*` arrays hold the combinational cells in topological order
/// (matching `Netlist::topo_order`); `s_*` arrays hold the sequential
/// cells in cell-id order (matching the old precomputed `seq` list).
/// Input nets are flattened into one array with a CSR-style offset
/// table: cell `pos`'s inputs are `ins[in_off[pos]..in_off[pos + 1]]`.
#[derive(Debug)]
pub(crate) struct SimTables {
    /// Widest fan-in across all cells (sizes the gather buffers).
    pub max_fanin: usize,
    /// Combinational cell kinds, topo order.
    pub c_kind: Vec<GateKind>,
    /// Combinational output net indices.
    pub c_out: Vec<u32>,
    /// CSR offsets into [`Self::c_ins`] (length `c_kind.len() + 1`).
    pub c_in_off: Vec<u32>,
    /// Flattened combinational input net indices.
    pub c_ins: Vec<u32>,
    /// Per-cell toggle energy, pJ.
    pub c_toggle_pj: Vec<f64>,
    /// Sequential cell kinds, cell-id order.
    pub s_kind: Vec<GateKind>,
    /// Sequential output net indices.
    pub s_out: Vec<u32>,
    /// CSR offsets into [`Self::s_ins`] (length `s_kind.len() + 1`).
    pub s_in_off: Vec<u32>,
    /// Flattened sequential input net indices.
    pub s_ins: Vec<u32>,
    /// Original cell indices (retention/staging slots).
    pub s_cell: Vec<u32>,
    /// Per-flop toggle energy, pJ.
    pub s_toggle_pj: Vec<f64>,
    /// Per-flop clock-pin energy, pJ.
    pub s_clock_pj: Vec<f64>,
}

impl SimTables {
    /// Flattens a validated netlist. Panics if the netlist has pending
    /// edits, like `Simulator::new` always has.
    pub(crate) fn new(netlist: &Netlist, lib: &CellLibrary) -> Self {
        let order = netlist.topo_order(); // asserts validated
        let max_fanin = netlist
            .cells()
            .map(|(_, c)| c.inputs().len())
            .max()
            .unwrap_or(0);

        let n_comb = order.len();
        let mut t = SimTables {
            max_fanin,
            c_kind: Vec::with_capacity(n_comb),
            c_out: Vec::with_capacity(n_comb),
            c_in_off: Vec::with_capacity(n_comb + 1),
            c_ins: Vec::new(),
            c_toggle_pj: Vec::with_capacity(n_comb),
            s_kind: Vec::new(),
            s_out: Vec::new(),
            s_in_off: vec![0],
            s_ins: Vec::new(),
            s_cell: Vec::new(),
            s_toggle_pj: Vec::new(),
            s_clock_pj: Vec::new(),
        };
        t.c_in_off.push(0);
        for &cell_id in order {
            let cell = netlist.cell(cell_id);
            let params = lib.params(cell.kind());
            t.c_kind.push(cell.kind());
            t.c_out
                .push(u32::try_from(cell.output().index()).expect("net index fits u32"));
            t.c_toggle_pj.push(params.toggle_energy_pj);
            for &inp in cell.inputs() {
                t.c_ins
                    .push(u32::try_from(inp.index()).expect("net index fits u32"));
            }
            t.c_in_off
                .push(u32::try_from(t.c_ins.len()).expect("input count fits u32"));
        }
        for (cell_id, cell) in netlist.cells() {
            if !cell.kind().is_sequential() {
                continue;
            }
            let params = lib.params(cell.kind());
            t.s_kind.push(cell.kind());
            t.s_out
                .push(u32::try_from(cell.output().index()).expect("net index fits u32"));
            t.s_cell
                .push(u32::try_from(cell_id.index()).expect("cell index fits u32"));
            t.s_toggle_pj.push(params.toggle_energy_pj);
            t.s_clock_pj.push(params.clock_energy_pj);
            for &inp in cell.inputs() {
                t.s_ins
                    .push(u32::try_from(inp.index()).expect("net index fits u32"));
            }
            t.s_in_off
                .push(u32::try_from(t.s_ins.len()).expect("input count fits u32"));
        }
        t
    }

    /// Number of combinational cells.
    pub(crate) fn comb_len(&self) -> usize {
        self.c_kind.len()
    }

    /// Number of sequential cells.
    pub(crate) fn seq_len(&self) -> usize {
        self.s_kind.len()
    }

    /// Input-net range of combinational cell `pos`.
    #[inline]
    pub(crate) fn c_inputs(&self, pos: usize) -> std::ops::Range<usize> {
        self.c_in_off[pos] as usize..self.c_in_off[pos + 1] as usize
    }

    /// Input-net range of sequential cell `pos`.
    #[inline]
    pub(crate) fn s_inputs(&self, pos: usize) -> std::ops::Range<usize> {
        self.s_in_off[pos] as usize..self.s_in_off[pos + 1] as usize
    }
}
