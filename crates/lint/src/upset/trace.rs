//! Concrete counterexample traces for failed upset obligations.
//!
//! The sweep in [`super::sweep`] packs thousands of faulted
//! machines into shared words; once a fault (or the golden pass itself)
//! fails an obligation, this module re-runs the *same* schedule — the
//! shared [`PassDriver`] guarantees it cannot drift — with a single
//! word: lane 0 golden, lane 1 the one failing fault. Every settle
//! point is recorded over a small set of watch signals (monitor
//! controls, `mon_err`/`mon_done`, the victim latches and their group's
//! scan-outs), giving the pattern + cycle + witness-path evidence the
//! rules attach to diagnostics and the CLI exports as VCD.

use super::{retained_state, PassDriver, Point};
use crate::context::DesignView;
use crate::LintContext;
use scanguard_dft::ErrorPattern;
use scanguard_netlist::{CellId, Logic};

/// The watch-signal values at one settle point of the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleSample {
    /// Global clock cycle (edges committed before this point).
    pub cycle: usize,
    /// Schedule phase label (`encode[3]`, `decode-clear`, `check`, ...).
    pub phase: String,
    /// Watch-signal values in the golden machine, index-aligned with
    /// [`Counterexample::signals`].
    pub golden: Vec<Logic>,
    /// The same signals in the faulted machine (equal to `golden` for a
    /// golden-pass counterexample).
    pub faulty: Vec<Logic>,
}

/// A replayed failure: pattern, per-cycle watch values, witness path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Design name.
    pub design: String,
    /// The failing upset, or `None` for a golden-pass obligation.
    pub pattern: Option<ErrorPattern>,
    /// Watch-signal names, index-aligned with the sample vectors.
    pub signals: Vec<String>,
    /// One sample per settle point of the schedule, in order.
    pub samples: Vec<CycleSample>,
    /// Cells whose state diverges at the decisive point (faulty vs
    /// golden, or golden vs the retained pattern), in topological
    /// order, capped — the witness path for diagnostics.
    pub witness: Vec<String>,
}

/// Witness cells kept (diagnostics stay readable; the VCD has it all).
const WITNESS_CAP: usize = 12;

/// Replays one failing fault (or the golden pass, for `pattern: None`)
/// and records the evidence. Returns `None` when the context has no
/// design/monitor view or the engine cannot run (loops, ragged chains).
#[must_use]
pub fn counterexample(
    ctx: &LintContext<'_>,
    view: &DesignView<'_>,
    pattern: Option<&ErrorPattern>,
) -> Option<Counterexample> {
    let mv = view.monitor?;
    let topo = ctx.comb_topo()?;
    let chains = view.chains;
    let w = chains.width();
    let l = mv.chain_len;
    if chains.chains.iter().any(|c| c.len() != l) {
        return None;
    }
    let state = retained_state(w, l);
    let faults: Vec<ErrorPattern> = pattern.cloned().into_iter().collect();

    // Watch list: the monitor controls and status, the scan enable, the
    // victim latches, and the scan-outs the monitor actually absorbs.
    let nl = ctx.netlist();
    let mut signals: Vec<String> = Vec::new();
    let mut nets = Vec::new();
    let mut watch = |name: String, net: scanguard_netlist::NetId| {
        signals.push(name);
        nets.push(net);
    };
    watch("mon_en".into(), mv.mon_en);
    watch("mon_decode".into(), mv.mon_decode);
    watch("mon_clear".into(), mv.mon_clear);
    if let Some(cap) = mv.sig_cap {
        watch("mon_sig_cap".into(), cap);
    }
    watch("se".into(), chains.se);
    watch("mon_err".into(), mv.err);
    watch("mon_done".into(), mv.done);
    let victims: Vec<(usize, usize)> = pattern
        .map(ErrorPattern::flip_positions)
        .unwrap_or_default();
    for &(c, d) in &victims {
        let q = nl.cell(chains.chains[c].cells[d]).output();
        watch(format!("chain{c}_{d}_q"), q);
    }
    let watched_chains: Vec<usize> = match victims.first() {
        Some(&(c, _)) if mv.group_stride > 0 => {
            let g = c / mv.group_stride;
            let base = g * mv.group_stride;
            (base..(base + mv.group_data_chains).min(w)).collect()
        }
        _ => (0..w.min(16)).collect(),
    };
    for &c in &watched_chains {
        watch(format!("so{c}"), chains.chains[c].so);
    }

    // The witness walks every cell, so the replay compiles them all.
    let seq: Vec<CellId> = nl.ff_cells().map(|(id, _)| id).collect();
    let mut driver = PassDriver::new(nl, topo, &seq, &mv, chains, view.gated_watermark, 1);
    let mut samples: Vec<CycleSample> = Vec::new();
    let mut witness: Vec<String> = Vec::new();
    driver.run(&state, &faults, |point, cycle, sim| {
        samples.push(CycleSample {
            cycle,
            phase: point.label(),
            golden: nets.iter().map(|&n| sim.word(n, 0).lane(0)).collect(),
            faulty: nets.iter().map(|&n| sim.word(n, 0).lane(1)).collect(),
        });
        if !matches!(point, Point::Check) {
            return;
        }
        // Decisive-point witness: where the machines (or the golden
        // machine and the retained pattern) disagree.
        if pattern.is_some() {
            let seq = nl
                .cells()
                .filter(|(_, c)| c.kind().is_sequential())
                .map(|(id, _)| id);
            for id in seq.chain(topo.iter().copied()) {
                let wv = sim.word(nl.cell(id).output(), 0);
                if wv.lane(1) != wv.lane(0) && witness.len() < WITNESS_CAP {
                    witness.push(ctx.cell_label(id));
                }
            }
        } else {
            for (c, chain) in chains.chains.iter().enumerate() {
                for (d, &cell) in chain.cells.iter().enumerate() {
                    let got = sim.word(nl.cell(cell).output(), 0).lane(0);
                    if got != state[c][d] && witness.len() < WITNESS_CAP {
                        witness.push(format!(
                            "{} (chain {c} depth {d}: {got}, want {})",
                            ctx.cell_label(cell),
                            state[c][d]
                        ));
                    }
                }
            }
        }
    });

    Some(Counterexample {
        design: nl.name().to_owned(),
        pattern: pattern.cloned(),
        signals,
        samples,
        witness,
    })
}

impl Counterexample {
    /// Renders the trace as a minimal VCD file: a `golden` and a
    /// `faulty` scope, one scalar wire per watch signal, one timestep
    /// per settle point of the schedule.
    #[must_use]
    pub fn to_vcd(&self) -> String {
        let mut out = String::new();
        out.push_str("$comment scanguard upset counterexample");
        if let Some(p) = &self.pattern {
            out.push_str(&format!(" {p:?}"));
        }
        out.push_str(" $end\n$timescale 1ns $end\n");
        out.push_str(&format!("$scope module {} $end\n", vcd_name(&self.design)));
        out.push_str("$scope module golden $end\n");
        for (i, name) in self.signals.iter().enumerate() {
            out.push_str(&format!(
                "$var wire 1 {} {} $end\n",
                vcd_id(i),
                vcd_name(name)
            ));
        }
        out.push_str("$upscope $end\n$scope module faulty $end\n");
        let base = self.signals.len();
        for (i, name) in self.signals.iter().enumerate() {
            out.push_str(&format!(
                "$var wire 1 {} {} $end\n",
                vcd_id(base + i),
                vcd_name(name)
            ));
        }
        out.push_str("$upscope $end\n$upscope $end\n$enddefinitions $end\n");
        for (t, s) in self.samples.iter().enumerate() {
            out.push_str(&format!("#{t}\n"));
            for (i, v) in s.golden.iter().enumerate() {
                out.push_str(&format!("{}{}\n", vcd_level(*v), vcd_id(i)));
            }
            for (i, v) in s.faulty.iter().enumerate() {
                out.push_str(&format!("{}{}\n", vcd_level(*v), vcd_id(base + i)));
            }
        }
        out.push_str(&format!("#{}\n", self.samples.len()));
        out
    }

    /// The first settle point where `mon_err` differs between the
    /// machines — a one-number summary for messages.
    #[must_use]
    pub fn first_divergence(&self) -> Option<(usize, String)> {
        let err_idx = self.signals.iter().position(|s| s == "mon_err")?;
        self.samples
            .iter()
            .find(|s| s.golden[err_idx] != s.faulty[err_idx])
            .map(|s| (s.cycle, s.phase.clone()))
    }
}

fn vcd_level(v: Logic) -> char {
    match v {
        Logic::Zero => '0',
        Logic::One => '1',
        Logic::X => 'x',
    }
}

/// Base-94 printable identifier for variable `i`.
fn vcd_id(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

/// VCD identifiers may not contain whitespace or brackets.
fn vcd_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}
