//! The paper's case-study circuit: a `depth x width` synchronous FIFO.
//!
//! The paper validates on a 32x32-bit FIFO "because it has high density
//! of flip-flops and no error masking": 1024 storage flops plus two
//! pointers and an occupancy counter — 1040 flip-flops, matching the
//! 80-chains-of-13 configuration of Sec. IV.
//!
//! The generator emits a flat gate-level netlist: registered circular
//! buffer, one-hot write-row decode, a read mux tree, and `full`/`empty`
//! derived from the counter. A cycle-exact software [`FifoModel`] golden
//! reference is provided for testbenches (the role FIFO_B plays in the
//! paper's Fig. 8).

use crate::arith::{decrementer, equals_const, incrementer, is_zero, mux_bus, mux_tree};
use scanguard_netlist::{CellId, NetId, Netlist, NetlistBuilder};
use std::collections::VecDeque;

/// A generated FIFO netlist plus its interesting cell groups.
///
/// Ports: `rst`, `wr_en`, `rd_en`, `din[width]` inputs; `dout[width]`,
/// `full`, `empty` outputs. Writes and reads are gated internally against
/// `full`/`empty`, and `dout` combinationally shows the head entry.
///
/// # Examples
///
/// ```
/// use scanguard_designs::Fifo;
///
/// let fifo = Fifo::generate(32, 32);
/// assert_eq!(fifo.netlist.ff_count(), 1040); // the paper's flop count
/// ```
#[derive(Debug, Clone)]
pub struct Fifo {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Number of entries (power of two).
    pub depth: usize,
    /// Bits per entry.
    pub width: usize,
    /// Storage flops, row-major (`storage[r * width + c]`).
    pub storage_cells: Vec<CellId>,
    /// Pointer and counter flops (write ptr, read ptr, count; LSB first
    /// within each group).
    pub control_cells: Vec<CellId>,
}

impl Fifo {
    /// Generates a `depth x width` FIFO.
    ///
    /// # Panics
    ///
    /// Panics unless `depth` is a power of two `>= 2` and `width >= 1`.
    #[must_use]
    pub fn generate(depth: usize, width: usize) -> Self {
        assert!(
            depth.is_power_of_two() && depth >= 2,
            "depth must be a power of two >= 2"
        );
        assert!(width >= 1, "width must be at least 1");
        let ptr_bits = depth.trailing_zeros() as usize;
        let cnt_bits = ptr_bits + 1;

        let mut b = NetlistBuilder::new(&format!("fifo{depth}x{width}"));
        let rst = b.input("rst");
        let wr_en = b.input("wr_en");
        let rd_en = b.input("rd_en");
        let din = b.input_bus("din", width);

        // State registers with pre-declared d nets (closed below).
        let reg_group = |b: &mut NetlistBuilder, name: &str, bits: usize| {
            let mut ds = Vec::with_capacity(bits);
            let mut qs = Vec::with_capacity(bits);
            let mut cells = Vec::with_capacity(bits);
            for i in 0..bits {
                let d = b.net(&format!("{name}_d{i}"));
                let (q, cell) = b.dff(&format!("{name}{i}"), d);
                ds.push(d);
                qs.push(q);
                cells.push(cell);
            }
            (ds, qs, cells)
        };
        let (wr_ds, wr_qs, wr_cells) = reg_group(&mut b, "wr_ptr", ptr_bits);
        let (rd_ds, rd_qs, rd_cells) = reg_group(&mut b, "rd_ptr", ptr_bits);
        let (cnt_ds, cnt_qs, cnt_cells) = reg_group(&mut b, "count", cnt_bits);

        let mut storage_cells = Vec::with_capacity(depth * width);
        let mut storage_qs = vec![Vec::with_capacity(width); depth];
        let mut storage_ds = vec![Vec::with_capacity(width); depth];
        for r in 0..depth {
            for c in 0..width {
                let d = b.net(&format!("mem{r}_{c}_d"));
                let (q, cell) = b.dff(&format!("mem{r}_{c}"), d);
                storage_ds[r].push(d);
                storage_qs[r].push(q);
                storage_cells.push(cell);
            }
        }

        // Status flags.
        let full = equals_const(&mut b, &cnt_qs, depth);
        let empty = is_zero(&mut b, &cnt_qs);
        let not_full = b.not(full);
        let not_empty = b.not(empty);
        let do_write = b.and2(wr_en, not_full);
        let do_read = b.and2(rd_en, not_empty);

        // Pointer updates: rst ? 0 : (advance ? ptr+1 : ptr).
        let zero = b.tie_lo();
        let ptr_update = |b: &mut NetlistBuilder, qs: &[NetId], adv: NetId, ds: &[NetId]| {
            let inc = incrementer(b, qs);
            let stepped = mux_bus(b, adv, qs, &inc);
            let zeros = vec![zero; qs.len()];
            let next = mux_bus(b, rst, &stepped, &zeros);
            for (&d, &n) in ds.iter().zip(&next) {
                b.connect(d, n);
            }
        };
        ptr_update(&mut b, &wr_qs, do_write, &wr_ds);
        ptr_update(&mut b, &rd_qs, do_read, &rd_ds);

        // Count update: +1 on write-only, -1 on read-only, else hold.
        let n_read = b.not(do_read);
        let n_write = b.not(do_write);
        let wr_only = b.and2(do_write, n_read);
        let rd_only = b.and2(do_read, n_write);
        let cnt_inc = incrementer(&mut b, &cnt_qs);
        let cnt_dec = decrementer(&mut b, &cnt_qs);
        let after_rd = mux_bus(&mut b, rd_only, &cnt_qs, &cnt_dec);
        let after_wr = mux_bus(&mut b, wr_only, &after_rd, &cnt_inc);
        let cnt_zeros = vec![zero; cnt_bits];
        let cnt_next = mux_bus(&mut b, rst, &after_wr, &cnt_zeros);
        for (&d, &n) in cnt_ds.iter().zip(&cnt_next) {
            b.connect(d, n);
        }

        // Storage: write-row decode + per-cell hold/load mux.
        for r in 0..depth {
            let sel = equals_const(&mut b, &wr_qs, r);
            let row_wr = b.and2(do_write, sel);
            for c in 0..width {
                let next = b.mux2(row_wr, storage_qs[r][c], din[c]);
                b.connect(storage_ds[r][c], next);
            }
        }

        // Read port: width mux trees over the rows.
        let mut dout = Vec::with_capacity(width);
        for c in 0..width {
            let column: Vec<NetId> = (0..depth).map(|r| storage_qs[r][c]).collect();
            dout.push(mux_tree(&mut b, &rd_qs, &column));
        }

        b.output_bus("dout", &dout);
        b.output("full", full);
        b.output("empty", empty);

        let netlist = b.finish().expect("generated FIFO must be well-formed");
        let control_cells = wr_cells
            .into_iter()
            .chain(rd_cells)
            .chain(cnt_cells)
            .collect();
        Fifo {
            netlist,
            depth,
            width,
            storage_cells,
            control_cells,
        }
    }
}

/// Cycle-exact golden model of [`Fifo`] — the error-free reference FIFO_B
/// of the paper's testbench (Fig. 8).
///
/// # Examples
///
/// ```
/// use scanguard_designs::FifoModel;
///
/// let mut m = FifoModel::new(4, 8);
/// m.tick(false, true, false, 0xAB);
/// assert_eq!(m.dout(), Some(0xAB));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoModel {
    depth: usize,
    width: usize,
    entries: VecDeque<u64>,
}

impl FifoModel {
    /// An empty model FIFO.
    ///
    /// # Panics
    ///
    /// Panics unless `depth >= 2` and `1 <= width <= 64`.
    #[must_use]
    pub fn new(depth: usize, width: usize) -> Self {
        assert!(depth >= 2, "depth must be at least 2");
        assert!((1..=64).contains(&width), "width must be 1..=64");
        FifoModel {
            depth,
            width,
            entries: VecDeque::new(),
        }
    }

    /// `true` when no entries are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The head entry (what `dout` shows), or `None` when empty.
    #[must_use]
    pub fn dout(&self) -> Option<u64> {
        self.entries.front().copied()
    }

    /// Advances one clock with the given controls. Returns the value a
    /// simultaneous read consumed, if any. Writes beyond full and reads
    /// beyond empty are ignored, matching the netlist's internal gating.
    pub fn tick(&mut self, rst: bool, wr_en: bool, rd_en: bool, din: u64) -> Option<u64> {
        if rst {
            self.entries.clear();
            return None;
        }
        let read = if rd_en && !self.is_empty() {
            self.entries.pop_front()
        } else {
            None
        };
        // Note: netlist semantics evaluate full/empty *before* the edge;
        // a simultaneous read frees a slot only for the *next* cycle, so
        // write gating uses the pre-edge occupancy.
        let was_full = self.entries.len() + usize::from(read.is_some()) == self.depth;
        if wr_en && !was_full {
            let mask = if self.width == 64 {
                u64::MAX
            } else {
                (1u64 << self.width) - 1
            };
            self.entries.push_back(din & mask);
        }
        read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanguard_netlist::{CellLibrary, Logic};
    use scanguard_sim::Simulator;

    /// Harness: drive the netlist FIFO and the golden model together.
    struct Tb<'a> {
        sim: Simulator<'a>,
        width: usize,
    }

    impl<'a> Tb<'a> {
        fn new(nl: &'a Netlist, lib: &'a CellLibrary, width: usize) -> Self {
            let mut sim = Simulator::new(nl, lib);
            sim.set_port("rst", Logic::One).unwrap();
            sim.set_port("wr_en", Logic::Zero).unwrap();
            sim.set_port("rd_en", Logic::Zero).unwrap();
            for i in 0..width {
                sim.set_port(&format!("din[{i}]"), Logic::Zero).unwrap();
            }
            sim.step(); // reset pointers/count
                        // Zero the storage for a deterministic start (real silicon
                        // would come up random; the golden model assumes zeros never
                        // matter because reads are gated by occupancy).
            sim.set_port("rst", Logic::Zero).unwrap();
            Tb { sim, width }
        }

        fn tick(&mut self, wr: bool, rd: bool, din: u64) {
            self.sim.set_port_bool("wr_en", wr).unwrap();
            self.sim.set_port_bool("rd_en", rd).unwrap();
            for i in 0..self.width {
                self.sim
                    .set_port_bool(&format!("din[{i}]"), (din >> i) & 1 == 1)
                    .unwrap();
            }
            self.sim.step();
        }

        fn dout(&mut self) -> u64 {
            self.sim.settle();
            let mut v = 0u64;
            for i in 0..self.width {
                if self.sim.port_value(&format!("dout[{i}]")).unwrap() == Logic::One {
                    v |= 1 << i;
                }
            }
            v
        }

        fn flag(&mut self, name: &str) -> bool {
            self.sim.settle();
            self.sim.port_value(name).unwrap() == Logic::One
        }
    }

    #[test]
    fn flop_budget_matches_paper() {
        let f = Fifo::generate(32, 32);
        assert_eq!(f.netlist.ff_count(), 1040);
        assert_eq!(f.storage_cells.len(), 1024);
        assert_eq!(f.control_cells.len(), 16);
    }

    #[test]
    fn small_fifo_write_then_read() {
        let f = Fifo::generate(4, 8);
        let lib = CellLibrary::st120nm();
        let mut tb = Tb::new(&f.netlist, &lib, 8);
        assert!(tb.flag("empty"));
        assert!(!tb.flag("full"));
        tb.tick(true, false, 0xA5);
        assert!(!tb.flag("empty"));
        assert_eq!(tb.dout(), 0xA5);
        tb.tick(true, false, 0x3C);
        assert_eq!(tb.dout(), 0xA5, "head unchanged by second write");
        tb.tick(false, true, 0);
        assert_eq!(tb.dout(), 0x3C, "head advances after read");
        tb.tick(false, true, 0);
        assert!(tb.flag("empty"));
    }

    #[test]
    fn full_flag_blocks_writes() {
        let f = Fifo::generate(4, 4);
        let lib = CellLibrary::st120nm();
        let mut tb = Tb::new(&f.netlist, &lib, 4);
        for i in 0..4 {
            assert!(!tb.flag("full"));
            tb.tick(true, false, i);
        }
        assert!(tb.flag("full"));
        tb.tick(true, false, 0xF); // must be dropped
        assert_eq!(tb.dout(), 0, "head is the first value written");
        for expect in 0..4 {
            assert_eq!(tb.dout(), expect);
            tb.tick(false, true, 0);
        }
        assert!(tb.flag("empty"));
    }

    #[test]
    fn netlist_matches_golden_model_under_random_traffic() {
        let f = Fifo::generate(8, 8);
        let lib = CellLibrary::st120nm();
        let mut tb = Tb::new(&f.netlist, &lib, 8);
        let mut model = FifoModel::new(8, 8);
        let mut state = 0x12345678u64;
        for step in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let wr = (state >> 60) & 1 == 1;
            let rd = (state >> 61) & 1 == 1;
            let din = (state >> 8) & 0xFF;
            // Compare pre-edge observables.
            assert_eq!(tb.flag("empty"), model.is_empty(), "empty @ {step}");
            assert_eq!(tb.flag("full"), model.len() == 8, "full @ {step}");
            if !model.is_empty() {
                assert_eq!(tb.dout(), model.dout().unwrap(), "dout @ {step}");
            }
            tb.tick(wr, rd, din);
            model.tick(false, wr, rd, din);
        }
    }

    #[test]
    fn model_rejects_overflow_and_underflow() {
        let mut m = FifoModel::new(2, 4);
        assert_eq!(m.tick(false, false, true, 0), None, "read while empty");
        m.tick(false, true, false, 1);
        m.tick(false, true, false, 2);
        assert_eq!(m.len(), 2, "full");
        m.tick(false, true, false, 3); // dropped
        assert_eq!(m.tick(false, false, true, 0), Some(1));
        assert_eq!(m.tick(false, false, true, 0), Some(2));
        assert!(m.is_empty());
    }

    #[test]
    fn simultaneous_read_write_when_full_keeps_occupancy() {
        let mut m = FifoModel::new(2, 4);
        m.tick(false, true, false, 1);
        m.tick(false, true, false, 2);
        assert_eq!(m.len(), 2, "full");
        // Read+write while full: the read drains one, but the write is
        // gated on the pre-edge full flag (hardware semantics).
        let got = m.tick(false, true, true, 3);
        assert_eq!(got, Some(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.dout(), Some(2));
    }

    #[test]
    fn reset_clears_model() {
        let mut m = FifoModel::new(4, 4);
        m.tick(false, true, false, 7);
        m.tick(true, false, false, 0);
        assert!(m.is_empty());
    }
}
