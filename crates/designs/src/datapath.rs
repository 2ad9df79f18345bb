//! A small accumulator datapath — a benchmark with *computational* state
//! (the FIFO is pure storage). Protecting a datapath is the harder case
//! the paper's introduction motivates: an upset here corrupts ongoing
//! computation, not just buffered data.
//!
//! Architecture: an accumulator `acc`, a `regs x width` register file,
//! and an ALU executing one of four operations per cycle against a
//! selected register:
//!
//! | `op[1:0]` | effect |
//! |---|---|
//! | 00 | `acc <- acc` (nop) |
//! | 01 | `acc <- acc + rf[addr]` |
//! | 10 | `acc <- acc ^ rf[addr]` |
//! | 11 | `acc <- rf[addr]` (load) |
//!
//! `we` writes `acc` back into `rf[addr]` the same cycle; `li` loads the
//! immediate bus `din` into `acc` (overriding the ALU); `rst` clears the
//! accumulator.

use crate::arith::{equals_const, mux_bus};
use scanguard_netlist::{CellId, NetId, Netlist, NetlistBuilder};

/// A generated datapath plus its register groups.
#[derive(Debug, Clone)]
pub struct Datapath {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Number of general registers.
    pub regs: usize,
    /// Bit width of the accumulator and registers.
    pub width: usize,
    /// Accumulator flops, LSB first.
    pub acc_cells: Vec<CellId>,
    /// Register-file flops, register-major.
    pub reg_cells: Vec<CellId>,
}

impl Datapath {
    /// Generates a datapath with `regs` registers of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics unless `regs` is a power of two `>= 2` and `width >= 1`.
    #[must_use]
    pub fn generate(regs: usize, width: usize) -> Self {
        assert!(
            regs.is_power_of_two() && regs >= 2,
            "regs must be a power of two >= 2"
        );
        assert!(width >= 1, "width must be at least 1");
        let abits = regs.trailing_zeros() as usize;
        let mut b = NetlistBuilder::new(&format!("datapath{regs}x{width}"));
        let rst = b.input("rst");
        let we = b.input("we");
        let li = b.input("li");
        let op = b.input_bus("op", 2);
        let addr = b.input_bus("addr", abits);
        let din = b.input_bus("din", width);

        // Accumulator flops with pre-declared d nets.
        let mut acc_ds = Vec::with_capacity(width);
        let mut acc_qs = Vec::with_capacity(width);
        let mut acc_cells = Vec::with_capacity(width);
        for i in 0..width {
            let d = b.net(&format!("acc_d{i}"));
            let (q, cell) = b.dff(&format!("acc{i}"), d);
            acc_ds.push(d);
            acc_qs.push(q);
            acc_cells.push(cell);
        }

        // Register file flops.
        let mut rf_qs: Vec<Vec<NetId>> = Vec::with_capacity(regs);
        let mut rf_ds: Vec<Vec<NetId>> = Vec::with_capacity(regs);
        let mut reg_cells = Vec::with_capacity(regs * width);
        for r in 0..regs {
            let mut qs = Vec::with_capacity(width);
            let mut ds = Vec::with_capacity(width);
            for c in 0..width {
                let d = b.net(&format!("rf{r}_{c}_d"));
                let (q, cell) = b.dff(&format!("rf{r}_{c}"), d);
                ds.push(d);
                qs.push(q);
                reg_cells.push(cell);
            }
            rf_qs.push(qs);
            rf_ds.push(ds);
        }

        // Operand read: rf[addr], one mux tree per bit.
        let operand: Vec<NetId> = (0..width)
            .map(|c| {
                let column: Vec<NetId> = (0..regs).map(|r| rf_qs[r][c]).collect();
                crate::arith::mux_tree(&mut b, &addr, &column)
            })
            .collect();

        // ALU: ripple adder acc + operand, plus xor and load.
        let mut carry = b.tie_lo();
        let mut sum = Vec::with_capacity(width);
        for i in 0..width {
            let axb = b.xor2(acc_qs[i], operand[i]);
            sum.push(b.xor2(axb, carry));
            // The final carry-out is discarded (wrapping add), so don't
            // generate it.
            if i + 1 < width {
                let ab = b.and2(acc_qs[i], operand[i]);
                let cc = b.and2(axb, carry);
                carry = b.or2(ab, cc);
            }
        }
        let xorred: Vec<NetId> = (0..width).map(|i| b.xor2(acc_qs[i], operand[i])).collect();

        // op decode: 00 hold, 01 add, 10 xor, 11 load.
        let after_lo = mux_bus(&mut b, op[0], &acc_qs, &sum); // op0 selects add
        let after_lo_hi = mux_bus(&mut b, op[0], &xorred, &operand); // when op1 set
        let alu_out = mux_bus(&mut b, op[1], &after_lo, &after_lo_hi);
        let next_acc = mux_bus(&mut b, li, &alu_out, &din);
        let zero = b.tie_lo();
        let zeros = vec![zero; width];
        let acc_next = mux_bus(&mut b, rst, &next_acc, &zeros);
        for (&d, &n) in acc_ds.iter().zip(&acc_next) {
            b.connect(d, n);
        }

        // Write-back: rf[addr] <- acc when we.
        for r in 0..regs {
            let sel = equals_const(&mut b, &addr, r);
            let row_we = b.and2(we, sel);
            for c in 0..width {
                let next = b.mux2(row_we, rf_qs[r][c], acc_qs[c]);
                b.connect(rf_ds[r][c], next);
            }
        }

        b.output_bus("acc", &acc_qs);
        let netlist = b.finish().expect("generated datapath must be well-formed");
        Datapath {
            netlist,
            regs,
            width,
            acc_cells,
            reg_cells,
        }
    }
}

/// Cycle-exact golden model of [`Datapath`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatapathModel {
    width: usize,
    acc: u64,
    regs: Vec<u64>,
}

impl DatapathModel {
    /// A model with all state zeroed.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 63`.
    #[must_use]
    pub fn new(regs: usize, width: usize) -> Self {
        assert!((1..=63).contains(&width), "width must be 1..=63");
        DatapathModel {
            width,
            acc: 0,
            regs: vec![0; regs],
        }
    }

    /// Current accumulator value.
    #[must_use]
    pub fn acc(&self) -> u64 {
        self.acc
    }

    /// Current register value.
    #[must_use]
    pub fn reg(&self, r: usize) -> u64 {
        self.regs[r]
    }

    fn mask(&self) -> u64 {
        (1u64 << self.width) - 1
    }

    /// One cycle: `op` in 0..=3, register `addr`, write-back `we`,
    /// immediate load `li`/`din`, reset `rst`.
    pub fn tick(&mut self, rst: bool, we: bool, li: bool, din: u64, op: u8, addr: usize) {
        let operand = self.regs[addr];
        let alu = match op & 3 {
            0 => self.acc,
            1 => (self.acc + operand) & self.mask(),
            2 => self.acc ^ operand,
            _ => operand,
        };
        let next_acc = if li { din & self.mask() } else { alu };
        if we {
            self.regs[addr] = self.acc;
        }
        self.acc = if rst { 0 } else { next_acc };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanguard_netlist::{CellLibrary, Logic};
    use scanguard_sim::Simulator;

    struct Tb<'a> {
        sim: Simulator<'a>,
        width: usize,
        abits: usize,
    }

    impl<'a> Tb<'a> {
        fn new(dp: &'a Datapath, lib: &'a CellLibrary) -> Self {
            let mut sim = Simulator::new(&dp.netlist, lib);
            // Reset acc; zero the register file directly (silicon would
            // write it; tests shortcut with force).
            for &cell in &dp.reg_cells {
                sim.force_ff(cell, Logic::Zero);
            }
            sim.set_port("rst", Logic::One).unwrap();
            sim.set_port("we", Logic::Zero).unwrap();
            sim.set_port("li", Logic::Zero).unwrap();
            for i in 0..dp.width {
                sim.set_port(&format!("din[{i}]"), Logic::Zero).unwrap();
            }
            for i in 0..2 {
                sim.set_port(&format!("op[{i}]"), Logic::Zero).unwrap();
            }
            let abits = dp.regs.trailing_zeros() as usize;
            for i in 0..abits {
                sim.set_port(&format!("addr[{i}]"), Logic::Zero).unwrap();
            }
            sim.step();
            sim.set_port("rst", Logic::Zero).unwrap();
            Tb {
                sim,
                width: dp.width,
                abits,
            }
        }

        fn tick(&mut self, we: bool, op: u8, addr: usize) {
            self.tick_li(we, false, 0, op, addr);
        }

        fn tick_li(&mut self, we: bool, li: bool, din: u64, op: u8, addr: usize) {
            self.sim.set_port_bool("we", we).unwrap();
            self.sim.set_port_bool("li", li).unwrap();
            for i in 0..self.width {
                self.sim
                    .set_port_bool(&format!("din[{i}]"), (din >> i) & 1 == 1)
                    .unwrap();
            }
            for i in 0..2 {
                self.sim
                    .set_port_bool(&format!("op[{i}]"), (op >> i) & 1 == 1)
                    .unwrap();
            }
            for i in 0..self.abits {
                self.sim
                    .set_port_bool(&format!("addr[{i}]"), (addr >> i) & 1 == 1)
                    .unwrap();
            }
            self.sim.step();
        }

        fn acc(&mut self) -> u64 {
            self.sim.settle();
            (0..self.width)
                .filter(|i| self.sim.port_value(&format!("acc[{i}]")).unwrap() == Logic::One)
                .fold(0, |a, i| a | (1 << i))
        }
    }

    #[test]
    fn load_add_xor_sequence() {
        let dp = Datapath::generate(4, 8);
        let lib = CellLibrary::st120nm();
        let mut tb = Tb::new(&dp, &lib);
        // acc starts 0; write 0 into r1; load r1 (0); add r1...
        // Use we to stage values: acc=0 -> we r0; op=load r0 keeps 0.
        tb.tick(false, 0, 0);
        assert_eq!(tb.acc(), 0);
        // Build 5 into acc via add of r0 (0) won't work; instead use
        // model-checked random traffic below. Here: check load of a
        // written value.
        // Load an immediate, stash it, and add it back: acc = 2 * 0x2A.
        tb.tick_li(false, true, 0x2A, 0, 0);
        assert_eq!(tb.acc(), 0x2A);
        tb.tick(true, 0, 2); // r2 <- 0x2A
        tb.tick(false, 1, 2); // acc += r2
        assert_eq!(tb.acc(), 0x54);
    }

    #[test]
    fn netlist_matches_golden_model_under_random_traffic() {
        let dp = Datapath::generate(4, 8);
        let lib = CellLibrary::st120nm();
        let mut tb = Tb::new(&dp, &lib);
        let mut model = DatapathModel::new(4, 8);
        let mut state = 0xDEADBEEFu64;
        for step in 0..300 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let we = (state >> 40) & 1 == 1;
            let op = ((state >> 33) & 3) as u8;
            let addr = ((state >> 20) & 3) as usize;
            let li = (state >> 50) & 7 == 0;
            let din = (state >> 4) & 0xFF;
            tb.tick_li(we, li, din, op, addr);
            model.tick(false, we, li, din, op, addr);
            assert_eq!(tb.acc(), model.acc(), "divergence at step {step}");
        }
    }

    #[test]
    fn flop_budget() {
        let dp = Datapath::generate(8, 16);
        assert_eq!(dp.netlist.ff_count(), 16 + 8 * 16);
        assert_eq!(dp.acc_cells.len(), 16);
        assert_eq!(dp.reg_cells.len(), 128);
    }
}
