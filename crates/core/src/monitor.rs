//! The state monitoring and error correction blocks — paper Fig. 2,
//! generated as real gates.
//!
//! [`attach_monitor`] wires monitor hardware into a scanned netlist:
//!
//! * **Hamming / extended Hamming blocks** (one per `k` chains): XOR
//!   parity trees over the group's scan-outs, an always-on parity store
//!   (`parity_width x l` scan-register bits — the dominant area term that
//!   produces the paper's Table II/III overheads), a syndrome decoder,
//!   and per-chain correction XORs feeding the corrected stream back into
//!   the scan-ins;
//! * **CRC-16 blocks** (one per `group_width` chains): a
//!   `group_width`-bit-parallel CRC register, a signature register
//!   captured at the end of encoding, and a comparator;
//! * a per-block **sequencer** (cycle counter + terminal-count decode),
//!   the block-local control the paper's Fig. 5(a) monitor blocks carry.
//!
//! Control ports (always-on domain): `mon_en` (shift/update enable),
//! `mon_decode` (0 = encode, 1 = decode/correct), `mon_clear` (sequencer
//! and CRC re-init), `mon_sig_cap` (CRC signature capture). Status
//! outputs: `mon_err` (raw mismatch OR — sample during decode for
//! Hamming, at the final check for CRC) and `mon_done` (every block's
//! sequencer reached `l`).

use crate::{CodeChoice, CoreError};
use scanguard_codes::{BlockCode, Hamming};
use scanguard_dft::ScanChains;
use scanguard_netlist::{CellId, GateKind, NetId, Netlist};

/// One monitor block and the chains it watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MonitorGroup {
    /// Index of the first chain of the group.
    pub first_chain: usize,
    /// Number of chains (the code's data width).
    pub width: usize,
}

/// Handle to the generated monitor hardware.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MonitorHardware {
    /// The configured code.
    pub code: CodeChoice,
    /// One entry per monitor block.
    pub groups: Vec<MonitorGroup>,
    /// Shift/update enable input.
    pub mon_en: NetId,
    /// Mode input: 0 = encode, 1 = decode (enables correction).
    pub mon_decode: NetId,
    /// Sequencer / CRC re-init input.
    pub mon_clear: NetId,
    /// CRC signature capture input (`None` for Hamming monitors).
    pub sig_cap: Option<NetId>,
    /// Raw mismatch indicator output net.
    pub err: NetId,
    /// All-sequencers-at-terminal-count output net.
    pub done: NetId,
    /// Every cell instantiated by the monitor (always-on domain).
    pub cells: Vec<CellId>,
    /// Total always-on parity/signature storage bits.
    pub store_bits: usize,
    /// Chain length `l` the blocks are sized for.
    pub chain_len: usize,
}

impl MonitorHardware {
    /// The monitor's control input port names, as the `hold_low` list a
    /// manufacturing-test run should pin to 0. Only ports this monitor
    /// actually has are named (`mon_sig_cap` exists on CRC monitors
    /// only) — the fault simulator rejects unknown names loudly.
    #[must_use]
    pub fn hold_low_ports(&self) -> Vec<String> {
        let mut ports = vec!["mon_en".into(), "mon_decode".into(), "mon_clear".into()];
        if self.sig_cap.is_some() {
            ports.push("mon_sig_cap".into());
        }
        ports
    }
}

/// Gate-construction helper: tracks the cells it creates.
struct Gen<'a> {
    nl: &'a mut Netlist,
    cells: Vec<CellId>,
}

impl<'a> Gen<'a> {
    fn cell(&mut self, kind: GateKind, inputs: Vec<NetId>) -> NetId {
        let (net, id) = self.nl.add_cell(kind, inputs, None);
        self.cells.push(id);
        net
    }

    fn named(&mut self, name: &str, kind: GateKind, inputs: Vec<NetId>) -> NetId {
        let (net, id) = self.nl.add_cell(kind, inputs, Some(name));
        self.cells.push(id);
        net
    }

    fn not(&mut self, a: NetId) -> NetId {
        self.cell(GateKind::Not, vec![a])
    }

    fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.cell(GateKind::Xor2, vec![a, b])
    }

    fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.cell(GateKind::And2, vec![a, b])
    }

    fn mux2(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        self.cell(GateKind::Mux2, vec![sel, a, b])
    }

    fn reduce(&mut self, nets: &[NetId], two: GateKind, three: GateKind, empty: GateKind) -> NetId {
        match nets.len() {
            0 => self.cell(empty, vec![]),
            1 => nets[0],
            _ => {
                let mut level = nets.to_vec();
                while level.len() > 1 {
                    let mut next = Vec::with_capacity(level.len() / 2 + 1);
                    let mut chunks = level.chunks_exact(3);
                    for c in &mut chunks {
                        next.push(self.cell(three, vec![c[0], c[1], c[2]]));
                    }
                    match chunks.remainder() {
                        [a] => next.push(*a),
                        [a, b] => next.push(self.cell(two, vec![*a, *b])),
                        _ => {}
                    }
                    level = next;
                }
                level[0]
            }
        }
    }

    fn xor_tree(&mut self, nets: &[NetId]) -> NetId {
        self.reduce(nets, GateKind::Xor2, GateKind::Xor3, GateKind::TieLo)
    }

    fn or_tree(&mut self, nets: &[NetId]) -> NetId {
        self.reduce(nets, GateKind::Or2, GateKind::Or3, GateKind::TieLo)
    }

    fn and_tree(&mut self, nets: &[NetId]) -> NetId {
        self.reduce(nets, GateKind::And2, GateKind::And3, GateKind::TieHi)
    }

    /// AND of literals matching `bits == value` (complemented where the
    /// value bit is 0).
    fn equals_const(&mut self, bits: &[NetId], value: u64) -> NetId {
        let lits: Vec<NetId> = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                if (value >> i) & 1 == 1 {
                    b
                } else {
                    self.not(b)
                }
            })
            .collect();
        self.and_tree(&lits)
    }
}

/// The per-block sequencer: an `mon_en`-gated cycle counter with a
/// terminal-count (`== l`) decode — the block-local control logic of the
/// paper's Fig. 5(a) monitor blocks.
fn build_sequencer(
    g: &mut Gen<'_>,
    tag: &str,
    mon_en: NetId,
    mon_clear: NetId,
    zero: NetId,
    chain_len: usize,
) -> NetId {
    let bits = (usize::BITS - chain_len.leading_zeros()) as usize; // ceil(log2(l+1))
    let mut ds = Vec::with_capacity(bits);
    let mut qs = Vec::with_capacity(bits);
    for i in 0..bits {
        let d = g.nl.add_net(None);
        let (q, id) = {
            let (q, id) =
                g.nl.add_cell(GateKind::Dff, vec![d], Some(&format!("{tag}_cnt{i}")));
            (q, id)
        };
        g.cells.push(id);
        ds.push(d);
        qs.push(q);
    }
    // Ripple incrementer; the carry out of the top bit is never used, so
    // its AND gate is not built.
    let mut carry = g.cell(GateKind::TieHi, vec![]);
    let mut inc = Vec::with_capacity(bits);
    for (i, &q) in qs.iter().enumerate() {
        inc.push(g.xor2(q, carry));
        if i + 1 < bits {
            carry = g.and2(q, carry);
        }
    }
    for i in 0..bits {
        let stepped = g.mux2(mon_en, qs[i], inc[i]);
        let next = g.mux2(mon_clear, stepped, zero);
        let id =
            g.nl.add_cell_driving(GateKind::Buf, vec![next], ds[i], None);
        g.cells.push(id);
    }
    g.equals_const(&qs, chain_len as u64)
}

/// Wires monitor hardware into `netlist` for the given scanned chains.
///
/// Rewires each chain's first flop so its scan input comes from the
/// monitor's (possibly correcting) feedback path instead of the raw `si`
/// port; manufacturing test access is restored by the Fig. 5(b) overlay
/// (`scanguard_dft::configure_test_mode`), applied after this pass.
///
/// # Errors
///
/// * [`CoreError::ChainsNotGroupable`] if the chain count is not a
///   multiple of the code's group width;
/// * [`CoreError::Code`] for unsupported Hamming orders;
/// * [`CoreError::Netlist`] if monitor port names clash with the design.
///
/// # Panics
///
/// Panics if the chains are not all the same length (the synthesizer
/// pads them; see `Synthesizer`).
pub fn attach_monitor(
    netlist: &mut Netlist,
    chains: &ScanChains,
    code: CodeChoice,
) -> Result<MonitorHardware, CoreError> {
    let l = chains.max_len();
    assert!(
        chains.chains.iter().all(|c| c.len() == l),
        "monitor requires equal-length chains (synthesizer pads them)"
    );
    let gw = code.group_width();
    if gw == 0 || chains.width() % gw != 0 {
        return Err(CoreError::ChainsNotGroupable {
            chains: chains.width(),
            group_width: gw,
        });
    }
    let n_groups = chains.width() / gw;

    let mon_en = netlist.add_input_port("mon_en")?;
    let mon_decode = netlist.add_input_port("mon_decode")?;
    let mon_clear = netlist.add_input_port("mon_clear")?;
    let sig_cap = if code.crc().is_some() {
        Some(netlist.add_input_port("mon_sig_cap")?)
    } else {
        None
    };

    let mut g = Gen {
        nl: netlist,
        cells: Vec::new(),
    };
    let zero = g.cell(GateKind::TieLo, vec![]);

    let mut groups = Vec::with_capacity(n_groups);
    let mut group_errs = Vec::with_capacity(n_groups);
    let mut store_bits = 0usize;

    match code {
        CodeChoice::Hamming { m } | CodeChoice::ExtendedHamming { m } => {
            let base = Hamming::new(m)?;
            let k = base.k() as usize;
            let extended = matches!(code, CodeChoice::ExtendedHamming { .. });
            let pw = base.parity_width() as usize + usize::from(extended);
            for gi in 0..n_groups {
                let so: Vec<NetId> = (0..k).map(|i| chains.chains[gi * gw + i].so).collect();
                // Recomputed parity: bit j = XOR of data bits whose
                // codeword position has bit j set.
                let mut parity_now = Vec::with_capacity(pw);
                for j in 0..base.parity_width() as usize {
                    let taps: Vec<NetId> = base
                        .data_positions()
                        .iter()
                        .enumerate()
                        .filter(|&(_, &pos)| (pos >> j) & 1 == 1)
                        .map(|(i, _)| so[i])
                        .collect();
                    parity_now.push(g.xor_tree(&taps));
                }
                if extended {
                    parity_now.push(g.xor_tree(&so));
                }
                // Parity store: pw scan-registers of length l. Encode
                // shifts fresh parity in; decode recirculates (so the
                // store still holds the parity afterwards).
                let mut syndrome = Vec::with_capacity(pw);
                for (j, &pnow) in parity_now.iter().enumerate() {
                    let store_out = build_store_row(&mut g, gi, j, l, mon_en, mon_decode, pnow);
                    store_bits += l;
                    syndrome.push(g.xor2(store_out, pnow));
                }
                // Correction: data bit i flips when the syndrome equals
                // its codeword position (and, for SEC-DED, the overall
                // parity disagrees).
                for (i, &pos) in base.data_positions().iter().enumerate() {
                    let value = u64::from(pos) | if extended { 1 << (pw - 1) } else { 0 };
                    let hit = g.equals_const(&syndrome, value);
                    let corr = g.and2(hit, mon_decode);
                    let fixed = g.xor2(so[i], corr);
                    let first = chains.chains[gi * gw + i].cells[0];
                    g.nl.set_cell_input(first, 1, fixed);
                }
                group_errs.push(g.or_tree(&syndrome));
                groups.push(MonitorGroup {
                    first_chain: gi * gw,
                    width: k,
                });
            }
        }
        CodeChoice::Parity { group_width } => {
            // One parity bit per word per block: the minimal detector.
            // Store = 1 x l scan-register per block; mismatch = XOR of
            // stored and recomputed parity, valid every decode cycle.
            for gi in 0..n_groups {
                let so: Vec<NetId> = (0..group_width)
                    .map(|i| chains.chains[gi * gw + i].so)
                    .collect();
                let parity_now = g.xor_tree(&so);
                let store_out = build_store_row(&mut g, gi, 0, l, mon_en, mon_decode, parity_now);
                store_bits += l;
                let syndrome = g.xor2(store_out, parity_now);
                for i in 0..group_width {
                    let first = chains.chains[gi * gw + i].cells[0];
                    let buf = g.cell(GateKind::Buf, vec![so[i]]);
                    g.nl.set_cell_input(first, 1, buf);
                }
                group_errs.push(syndrome);
                groups.push(MonitorGroup {
                    first_chain: gi * gw,
                    width: group_width,
                });
            }
        }
        CodeChoice::Crc16 => {
            // One CRC block with a W-bit-wide parallel input: unlike a
            // Hamming block (whose width is pinned to the code's data
            // width k), a CRC engine absorbs arbitrarily many bits per
            // cycle by unrolling its update network — which is how the
            // paper's Table I keeps the CRC monitor small even at W=80.
            let spec = code.crc().expect("Crc16 choice has a spec");
            let width = spec.width() as usize;
            let poly = u64::from(spec.poly());
            let cap = sig_cap.expect("CRC monitors have a capture port");
            // Only the CRC init value needs a constant 1; the other code
            // families would leave the tie cell dangling.
            let one = g.cell(GateKind::TieHi, vec![]);
            {
                let gi = 0usize;
                let w_all = chains.width();
                let so: Vec<NetId> = (0..w_all).map(|i| chains.chains[i].so).collect();
                // CRC register with hold / clear-to-init.
                let mut ds = Vec::with_capacity(width);
                let mut qs = Vec::with_capacity(width);
                for j in 0..width {
                    let d = g.nl.add_net(None);
                    let (q, id) =
                        g.nl.add_cell(GateKind::Dff, vec![d], Some(&format!("crc{gi}_{j}")));
                    g.cells.push(id);
                    ds.push(d);
                    qs.push(q);
                }
                store_bits += width;
                // Unrolled parallel update: group_width serial stages,
                // LSB-first chain order (chain 0 enters the register first).
                let mut state = qs.clone();
                for &bit in &so {
                    let fb = g.xor2(state[width - 1], bit);
                    let mut next = Vec::with_capacity(width);
                    for j in 0..width {
                        let shifted = if j == 0 { zero } else { state[j - 1] };
                        if (poly >> j) & 1 == 1 {
                            next.push(g.xor2(shifted, fb));
                        } else {
                            next.push(shifted);
                        }
                    }
                    state = next;
                }
                for j in 0..width {
                    let held = g.mux2(mon_en, qs[j], state[j]);
                    let init = if (0xFFFFu64 >> j) & 1 == 1 { one } else { zero };
                    let next = g.mux2(mon_clear, held, init);
                    let id =
                        g.nl.add_cell_driving(GateKind::Buf, vec![next], ds[j], None);
                    g.cells.push(id);
                }
                // Signature register with capture strobe.
                let mut mismatches = Vec::with_capacity(width);
                for j in 0..width {
                    let d = g.nl.add_net(None);
                    let (sig_q, id) =
                        g.nl.add_cell(GateKind::Dff, vec![d], Some(&format!("sig{gi}_{j}")));
                    g.cells.push(id);
                    let next = g.mux2(cap, sig_q, qs[j]);
                    let id2 = g.nl.add_cell_driving(GateKind::Buf, vec![next], d, None);
                    g.cells.push(id2);
                    mismatches.push(g.xor2(sig_q, qs[j]));
                }
                store_bits += width;
                // Detection-only feedback: the scan stream circulates
                // unmodified.
                for i in 0..w_all {
                    let first = chains.chains[i].cells[0];
                    let buf = g.cell(GateKind::Buf, vec![so[i]]);
                    g.nl.set_cell_input(first, 1, buf);
                }
                group_errs.push(g.or_tree(&mismatches));
                groups.push(MonitorGroup {
                    first_chain: 0,
                    width: w_all,
                });
            }
        }
    }

    let err = g.or_tree(&group_errs);
    let err = g.named("mon_err_buf", GateKind::Buf, vec![err]);
    // One shared sequencer: the monitoring controller clocks every block
    // in lock-step, so a single cycle counter decodes the terminal count.
    let done = build_sequencer(&mut g, "mon", mon_en, mon_clear, zero, l);
    let done = g.named("mon_done_buf", GateKind::Buf, vec![done]);
    let cells = g.cells;
    netlist.add_output_port("mon_err", err)?;
    netlist.add_output_port("mon_done", done)?;
    netlist.revalidate()?;
    Ok(MonitorHardware {
        code,
        groups,
        mon_en,
        mon_decode,
        mon_clear,
        sig_cap,
        err,
        done,
        cells,
        store_bits,
        chain_len: l,
    })
}

/// Builds one always-on parity-store row: a scan register of length `l`
/// whose shift input is fresh parity during encode and its own output
/// (recirculation) during decode. Returns the row's output net.
fn build_store_row(
    g: &mut Gen<'_>,
    group: usize,
    row: usize,
    l: usize,
    mon_en: NetId,
    mon_decode: NetId,
    parity_now: NetId,
) -> NetId {
    // Pre-declare the recirculation source.
    let store_in = g.nl.add_net(Some(&format!("pst{group}_{row}_in")));
    let mut prev = store_in;
    for i in 0..l {
        let (q, id) = g.nl.add_cell(
            GateKind::Sdff,
            vec![prev, prev, mon_en],
            Some(&format!("pst{group}_{row}_{i}")),
        );
        // Pin 0 (functional d) should hold the value: rewire d to own q.
        g.nl.set_cell_input(id, 0, q);
        g.cells.push(id);
        prev = q;
    }
    let store_out = prev;
    let sel = g.mux2(mon_decode, parity_now, store_out);
    let id =
        g.nl.add_cell_driving(GateKind::Buf, vec![sel], store_in, None);
    g.cells.push(id);
    store_out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanguard_dft::{insert_scan, ScanConfig};
    use scanguard_netlist::{CellLibrary, Logic, NetlistBuilder};
    use scanguard_sim::Simulator;

    /// A scanned register bank: `ffs` flops in `chains` chains.
    fn scanned(ffs: usize, chains: usize) -> (Netlist, ScanChains) {
        let mut b = NetlistBuilder::new("regs");
        for i in 0..ffs {
            let d = b.input(&format!("d[{i}]"));
            let (q, _) = b.dff(&format!("r{i}"), d);
            b.output(&format!("q[{i}]"), q);
        }
        let mut nl = b.finish().unwrap();
        let sc = insert_scan(&mut nl, &ScanConfig::retention_with_chains(chains)).unwrap();
        (nl, sc)
    }

    fn drive_ports(sim: &mut Simulator<'_>, mh: &MonitorHardware, en: bool, dec: bool, clr: bool) {
        sim.set_net(mh.mon_en, Logic::from(en));
        sim.set_net(mh.mon_decode, Logic::from(dec));
        sim.set_net(mh.mon_clear, Logic::from(clr));
        if let Some(cap) = mh.sig_cap {
            sim.set_net(cap, Logic::Zero);
        }
    }

    fn quiesce_inputs(sim: &mut Simulator<'_>, ffs: usize) {
        for i in 0..ffs {
            sim.set_port_bool(&format!("d[{i}]"), false).unwrap();
        }
    }

    #[test]
    fn groupability_is_enforced() {
        let (mut nl, sc) = scanned(12, 6);
        let err = attach_monitor(&mut nl, &sc, CodeChoice::hamming7_4()).unwrap_err();
        assert!(matches!(err, CoreError::ChainsNotGroupable { .. }));
    }

    #[test]
    fn hamming_store_size_matches_redundancy() {
        // 8 flops, 4 chains of 2, (7,4): one group, 3 rows of 2 bits.
        let (mut nl, sc) = scanned(8, 4);
        let mh = attach_monitor(&mut nl, &sc, CodeChoice::hamming7_4()).unwrap();
        assert_eq!(mh.groups.len(), 1);
        assert_eq!(mh.store_bits, 6);
        assert_eq!(mh.chain_len, 2);
    }

    #[test]
    fn crc_monitor_has_capture_port_and_stores_two_registers() {
        let (mut nl, sc) = scanned(8, 4);
        let mh = attach_monitor(&mut nl, &sc, CodeChoice::crc16()).unwrap();
        assert!(mh.sig_cap.is_some());
        assert_eq!(mh.store_bits, 32); // CRC reg + signature
    }

    /// Full manual encode -> corrupt -> decode sequence on a 4x2 grid
    /// protected by Hamming(7,4): the flipped bit must come back healed.
    #[test]
    fn hamming_corrects_a_single_upset_end_to_end() {
        let (mut nl, sc) = scanned(8, 4);
        let mh = attach_monitor(&mut nl, &sc, CodeChoice::hamming7_4()).unwrap();
        let lib = CellLibrary::st120nm();
        let mut sim = Simulator::new(&nl, &lib);
        quiesce_inputs(&mut sim, 8);
        // The chains sit in the clock-gateable domain, as the proposed
        // controller has them: they hold still during monitor clear and
        // capture cycles.
        sim.gate(sc.cells());
        sc.set_scan_enable(&mut sim, true);
        let l = sc.max_len();

        let state = vec![
            vec![Logic::One, Logic::Zero],
            vec![Logic::Zero, Logic::One],
            vec![Logic::One, Logic::One],
            vec![Logic::Zero, Logic::Zero],
        ];
        sc.load(&mut sim, &state);

        // Encode: clear sequencers (chains frozen), then l enabled cycles.
        sim.set_clock_enable(false);
        drive_ports(&mut sim, &mh, false, false, true);
        sim.step();
        sim.set_clock_enable(true);
        drive_ports(&mut sim, &mh, true, false, false);
        sim.step_n(l);
        assert_eq!(sc.snapshot(&sim), state, "encode circulation is lossless");

        // Corrupt one bit (chain 2, depth 1).
        let victim = sc.chains[2].cells[1];
        let v = sim.ff_value(victim);
        sim.force_ff(victim, !v);

        // Decode: clear sequencers, l cycles with correction enabled.
        sim.set_clock_enable(false);
        drive_ports(&mut sim, &mh, false, true, true);
        sim.step();
        sim.set_clock_enable(true);
        drive_ports(&mut sim, &mh, true, true, false);
        let mut err_seen = false;
        for _ in 0..l {
            sim.settle();
            if sim.value(mh.err) == Logic::One {
                err_seen = true;
            }
            sim.step();
        }
        sim.settle();
        assert_eq!(sim.value(mh.done), Logic::One, "sequencers report done");
        assert!(err_seen, "the upset must raise mon_err");
        assert_eq!(sc.snapshot(&sim), state, "the upset must be corrected");
    }

    /// CRC-16 monitor: signature mismatch detects an upset; clean runs
    /// match.
    #[test]
    fn crc_detects_an_upset_end_to_end() {
        let (mut nl, sc) = scanned(8, 4);
        let mh = attach_monitor(&mut nl, &sc, CodeChoice::crc16()).unwrap();
        let cap = mh.sig_cap.unwrap();
        let lib = CellLibrary::st120nm();
        let mut sim = Simulator::new(&nl, &lib);
        quiesce_inputs(&mut sim, 8);
        sim.gate(sc.cells());
        sc.set_scan_enable(&mut sim, true);
        let l = sc.max_len();

        let state = vec![
            vec![Logic::One, Logic::One],
            vec![Logic::Zero, Logic::One],
            vec![Logic::Zero, Logic::Zero],
            vec![Logic::One, Logic::Zero],
        ];
        sc.load(&mut sim, &state);

        // One monitor pass: clear (chains frozen), l shifts, freeze.
        let pass = |sim: &mut Simulator<'_>| {
            sim.set_clock_enable(false);
            drive_ports(sim, &mh, false, false, true);
            sim.step();
            sim.set_clock_enable(true);
            drive_ports(sim, &mh, true, false, false);
            sim.step_n(l);
            sim.set_clock_enable(false);
            drive_ports(sim, &mh, false, false, false);
        };

        // Encode, then capture the signature.
        pass(&mut sim);
        sim.set_net(cap, Logic::One);
        sim.step();
        sim.set_net(cap, Logic::Zero);
        sim.set_clock_enable(true);
        assert_eq!(sc.snapshot(&sim), state, "encode preserved the state");

        // Clean decode: recompute, compare -> no error.
        pass(&mut sim);
        sim.settle();
        assert_eq!(
            sim.value(mh.err),
            Logic::Zero,
            "clean state matches signature"
        );
        sim.set_clock_enable(true);

        // Corrupt and decode again: mismatch.
        let victim = sc.chains[1].cells[0];
        let v = sim.ff_value(victim);
        sim.force_ff(victim, !v);
        pass(&mut sim);
        sim.settle();
        assert_eq!(sim.value(mh.err), Logic::One, "upset must be detected");
    }

    /// Parity monitor: one store row per block, detects odd upsets,
    /// leaves the stream untouched.
    #[test]
    fn parity_monitor_detects_without_correcting() {
        let (mut nl, sc) = scanned(8, 4);
        let mh = attach_monitor(&mut nl, &sc, CodeChoice::Parity { group_width: 4 }).unwrap();
        assert_eq!(mh.store_bits, 2, "one parity bit per word, l=2");
        let lib = CellLibrary::st120nm();
        let mut sim = Simulator::new(&nl, &lib);
        quiesce_inputs(&mut sim, 8);
        sim.gate(sc.cells());
        sc.set_scan_enable(&mut sim, true);
        let l = sc.max_len();
        let state = vec![
            vec![Logic::One, Logic::Zero],
            vec![Logic::Zero, Logic::One],
            vec![Logic::One, Logic::One],
            vec![Logic::Zero, Logic::Zero],
        ];
        sc.load(&mut sim, &state);
        // Encode.
        sim.set_clock_enable(false);
        drive_ports(&mut sim, &mh, false, false, true);
        sim.step();
        sim.set_clock_enable(true);
        drive_ports(&mut sim, &mh, true, false, false);
        sim.step_n(l);
        assert_eq!(sc.snapshot(&sim), state, "encode is lossless");
        // Flip one bit; decode must flag it on the matching cycle and
        // leave the (still corrupted) state alone.
        let victim = sc.chains[1].cells[0];
        let v = sim.ff_value(victim);
        sim.force_ff(victim, !v);
        sim.set_clock_enable(false);
        drive_ports(&mut sim, &mh, false, true, true);
        sim.step();
        sim.set_clock_enable(true);
        drive_ports(&mut sim, &mh, true, true, false);
        let mut seen = false;
        for _ in 0..l {
            sim.settle();
            if sim.value(mh.err) == Logic::One {
                seen = true;
            }
            sim.step();
        }
        assert!(seen, "parity mismatch must surface on mon_err");
        let mut expected = state.clone();
        expected[1][0] = !expected[1][0];
        assert_eq!(sc.snapshot(&sim), expected, "parity never corrects");
    }

    #[test]
    fn monitor_cells_are_tracked() {
        let (mut nl, sc) = scanned(8, 4);
        let before = nl.cell_count();
        let mh = attach_monitor(&mut nl, &sc, CodeChoice::hamming7_4()).unwrap();
        assert_eq!(nl.cell_count() - before, mh.cells.len());
        assert!(mh.cells.iter().all(|c| c.index() >= before));
    }
}
